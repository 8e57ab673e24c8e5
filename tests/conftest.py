"""Prints one PASS/FAIL line per acceptance criterion after the test run.

Any test named ``test_criterion_<number>...`` feeds the summary: the
criterion passes only if its call phase passed and no phase failed or was
skipped. Values attached with ``record_property`` inside a criterion test are
echoed on its summary line.

Hypothesis caches constants read from local source files in its storage
directory even when no example database is kept; that directory is moved
into pytest's cache so that a test run adds no ``.hypothesis/`` to the
checkout.

A test that leaves a ``multiprocessing`` child running fails at teardown; the
child is terminated first.
"""

import re
import sys

import pytest

_CRITERION = re.compile(r"test_criterion_(\d+)")

_outcomes: dict[int, dict] = {}


@pytest.fixture(autouse=True)
def no_child_outlives_the_test():
    yield
    multiprocessing = sys.modules.get("multiprocessing")  # no import: no children
    left = multiprocessing.active_children() if multiprocessing else []
    for child in left:
        child.terminate()
        child.join()
    assert not left, f"the test left multiprocessing children running: {left}"


def pytest_configure(config):
    if hasattr(config, "cache"):
        from hypothesis.configuration import set_hypothesis_home_dir

        set_hypothesis_home_dir(config.cache.mkdir("hypothesis"))


def pytest_runtest_logreport(report):
    match = _CRITERION.search(report.nodeid)
    if match is None:
        return
    number = int(match.group(1))
    entry = _outcomes.setdefault(number, {"passed": False, "failed": False, "notes": []})
    if report.failed or report.skipped:
        entry["failed"] = True
    elif report.when == "call" and report.passed:
        entry["passed"] = True
    for key, value in report.user_properties:
        note = f"{key}={value}"
        if note not in entry["notes"]:
            entry["notes"].append(note)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(_outcomes):
        entry = _outcomes[number]
        status = "PASS" if entry["passed"] and not entry["failed"] else "FAIL"
        line = f"criterion {number}: {status}"
        if entry["notes"]:
            line += "  (" + ", ".join(entry["notes"]) + ")"
        terminalreporter.write_line(line)
