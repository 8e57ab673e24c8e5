"""The command-line contract under fuzzed argvs and fuzzed input files.

Whatever it is given, ``cli.main`` exits 0, 1 or 2 and never lets an
exception out (a traceback, run as a program). Exit 1 ends with one
``polyurn...: error:`` line, and exit 0 with JSON on stdout prints JSON that
parses without NaN or infinities. The argvs start from the flag table of
``test_cli_dispatch.ARGVS`` and swap values for edge atoms; the files start
from what ``polyurn`` writes and swap leaves for edge atoms, drop keys, add
keys, or are not JSON at all. Steps and replicates stay small and ``--jobs``
stays 1, so a case takes milliseconds. Examples are derandomized and no
example database is kept, so the suite is deterministic; a longer run only
needs a larger ``max_examples``.
"""

import contextlib
import io
import json
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import polyurn.cli as cli
from polyurn.analysis import analysis_to_dict, analyze_model
from polyurn.urns import model_to_dict, one_draw_model, two_draw_model

from test_cli_dispatch import ARGVS

CONTRACT = settings(derandomize=True, database=None, deadline=None, max_examples=150,
                    suppress_health_check=[HealthCheck.too_slow])

RATIONAL_ATOMS = ["1e400", "-1e400", "1e-400", "1e300", "1e4000", "-0", "3/0", "0/0", "nan",
                  "inf", "99999999999999999999/7", "1/99999999999999999999", "１", "1_000",
                  "0x10", " ", "", "0", "1", "-1", "1/3", "2.5"]
# No value here starts a process pool or runs more than a few hundred steps.
COUNT_ATOMS = ["0", "1", "2", "-1", "1_0", "１", "0x10", "1e400", "nan", "", " ", "3/0"]
SEED_ATOMS = ["0", "-5", "18446744073709551616", "1_000", "１", "1e400", ""]
RADIUS_ATOMS = ["0.05", "0", "-0", "nan", "inf", "1e400", "1e-400", "１", "0x10", "", "2"]
CHOICE_ATOMS = ["json", "text", "csv", "with", "without", "xml", "", "JSON"]
INPUT_PATHS = ["{tmp}/model.json", "{tmp}/prediction.json", "{tmp}/missing.json", "{tmp}", ""]
OUTPUT_PATHS = ["{tmp}/o.txt", "/dev/null", "{tmp}", "{tmp}/no/such/dir/o.txt", ""]

VALUES = {
    "--one-draw": 4, "--two-draw": 6,  # comma lists of that many rationals
    "--w0": RATIONAL_ATOMS, "--b0": RATIONAL_ATOMS,
    "--steps": COUNT_ATOMS, "--replicates": COUNT_ATOMS, "--jobs": ["0", "1", "-2", "１", "x"],
    "--seed": SEED_ATOMS, "--trajectory-stride": COUNT_ATOMS, "--radius": RADIUS_ATOMS,
    "--format": CHOICE_ATOMS, "--sampling": CHOICE_ATOMS,
    "--model": INPUT_PATHS, "--prediction": INPUT_PATHS,
    "--out": OUTPUT_PATHS, "--trajectory-out": OUTPUT_PATHS,
}
BASES = [argv for argv in ARGVS.values() if argv[:1] != ["selftest"]]  # selftest takes a seed only

JSON_ATOMS = ["1e400", "-Infinity", "NaN", "true", "null", "0.1", "-1", "0", "2", "1.5", "[]",
              "{}", '"1e400"', '"-0"', '"3/0"', '"nan"', '"１"', '"1_000"', '"0x10"', '" "',
              '""', '"1/3"', '"1e-400"', "[" * 50 + "]" * 50, "[" * 100_000 + "]" * 100_000]
RAW_FILES = [b"{bad", b"", b"\xff\xfe", b"1e400", b"NaN", b"null", b"[]", b'"text"',
             b"[" * 100_000 + b"]" * 100_000, b'{"model": "one-draw", "matrix": [[1, 0], [0, 1]]']


def _prediction(model) -> dict:
    return analysis_to_dict(analyze_model(model))["prediction"]


MODEL_FILES = [model_to_dict(one_draw_model([2, 0, 0, 1])),
               model_to_dict(two_draw_model([15, 3, 4, 1, 3, 21], 5, 2))]
PREDICTION_FILES = [
    _prediction(one_draw_model([3, 1, 1, 2])),  # one exact point
    _prediction(two_draw_model([15, 3, 4, 1, 3, 21], 5, 2)),  # points and an excluded point
    _prediction(two_draw_model([2, 1, 1, 1, 1, 0])),  # an irrational point: approx only
    _prediction(one_draw_model([1, 0, 0, 1])),  # a Beta law
]
ERROR_LINE = re.compile(r"polyurn( \w+)?: error: ")


class _Raw(str):
    """JSON text written as it is, such as ``1e400`` or ``NaN``."""


def _json(value) -> str:
    if isinstance(value, _Raw):
        return value
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_json(v)}" for k, v in value.items()) + "}"
    if isinstance(value, list):
        return "[" + ", ".join(_json(v) for v in value) + "]"
    return json.dumps(value)


def _paths(value, path=()):
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(
        value, list) else ()
    for key, item in items:
        yield from _paths(item, (*path, key))


def _replaced(value, path, change):
    """A copy of ``value`` with ``change`` applied to the node at ``path``."""
    if not path:
        return change(value)
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = _replaced(value[path[0]], path[1:], change)
    return copy


def _mutated(data, value):
    """``value`` with one node swapped for an atom, dropped, or given one more item."""
    path = data.draw(st.sampled_from(list(_paths(value))))
    atom = _Raw(data.draw(st.sampled_from(JSON_ATOMS)))
    action = data.draw(st.sampled_from(["swap", "swap", "drop", "add"]))
    if action == "drop" and path:
        key = path[-1]
        return _replaced(value, path[:-1], lambda node: (
            {k: v for k, v in node.items() if k != key} if isinstance(node, dict)
            else node[:key] + node[key + 1:]))
    if action == "add":
        key = data.draw(st.sampled_from(["extra", "kind", "point", "approx", "multiplicity"]))
        return _replaced(value, path, lambda node: (
            {**node, key: atom} if isinstance(node, dict)
            else [*node, atom] if isinstance(node, list) else atom))
    return _replaced(value, path, lambda node: atom)


def _file_bytes(data, bases) -> bytes:
    if data.draw(st.integers(0, 4)) == 0:
        return data.draw(st.sampled_from(RAW_FILES))
    value = data.draw(st.sampled_from(bases))
    for _ in range(data.draw(st.integers(0, 3))):
        value = _mutated(data, value)
    return _json(value).encode("utf-8")


def _value(data, flag: str) -> str:
    atoms = VALUES[flag]
    if isinstance(atoms, int):  # a matrix: swap some entries, or give the wrong count
        entries = ["1"] * atoms
        for i in data.draw(st.lists(st.integers(0, atoms - 1), max_size=3)):
            entries[i] = data.draw(st.sampled_from(RATIONAL_ATOMS))
        if data.draw(st.integers(0, 9)) == 0:
            entries = entries[1:]
        return ",".join(entries)
    return data.draw(st.sampled_from(atoms))


def _flag(token: str) -> str | None:
    """The long flag that ``token`` names or abbreviates, or None."""
    name = token.split("=")[0]
    matches = [flag for flag in VALUES if flag.startswith(name)] if name.startswith("--") else []
    return matches[0] if len(matches) == 1 or name in matches else None


def _argv(data) -> list[str]:
    argv = list(data.draw(st.sampled_from(BASES)))
    for i, token in enumerate(argv):
        flag = _flag(token) if "=" in token else _flag(argv[i - 1]) if i else None
        if flag and token not in VALUES and data.draw(st.booleans()):
            value = _value(data, flag)
            argv[i] = f"{token.split('=')[0]}={value}" if "=" in token else value
    for _ in range(data.draw(st.integers(0, 2))):
        flag = data.draw(st.sampled_from(sorted(VALUES)))
        argv += [flag, _value(data, flag)]
    if argv[:1] in (["simulate"], ["verify"]):  # later flags win, so the fuzzed ones still count
        argv[1:1] = ["--steps", "5", "--replicates", "2"]
    return argv


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)  # an exception here is the traceback of a real run
    return code, out.getvalue(), err.getvalue()


def _refuse(constant):
    raise ValueError(f"{constant} is not JSON")


def assert_contract(argv: list[str]) -> None:
    code, out, err = _run(argv)
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err, argv
    if code == 1:
        lines = err.splitlines()
        assert lines and ERROR_LINE.match(lines[-1]), (argv, err)
        assert not any(ERROR_LINE.match(line) for line in lines[:-1]), (argv, err)
    if code == 0 and out.startswith("{"):
        json.loads(out, parse_constant=_refuse)


@pytest.fixture(scope="module")
def tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def _with_files(data, tmp, argv: list[str]) -> list[str]:
    (tmp / "model.json").write_bytes(_file_bytes(data, MODEL_FILES))
    (tmp / "prediction.json").write_bytes(_file_bytes(data, PREDICTION_FILES))
    return [arg.replace("{tmp}", str(tmp)) for arg in argv]


@CONTRACT
@given(data=st.data())
def test_fuzzed_argvs_keep_the_contract(data, tmp):
    assert_contract(_with_files(data, tmp, _argv(data)))


@CONTRACT
@given(data=st.data(), argv=st.sampled_from([
    ["analyze", "--model", "{tmp}/model.json", "--format", "json"],
    ["simulate", "--model", "{tmp}/model.json", "--steps", "5", "--replicates", "2",
     "--format", "json"],
    ["verify", "--one-draw", "3,1,1,2", "--prediction", "{tmp}/prediction.json",
     "--steps", "5", "--replicates", "2"],
    ["verify", "--model", "{tmp}/model.json", "--prediction", "{tmp}/prediction.json",
     "--steps", "5", "--replicates", "2", "--format", "text"],
]))
def test_fuzzed_model_and_prediction_files_keep_the_contract(data, argv, tmp):
    assert_contract(_with_files(data, tmp, argv))
