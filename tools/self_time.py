"""Share of self time by module over in-process ``polyurn analyze`` rounds.

A sampling profiler for one process, this one: ``signal.setitimer`` with
``ITIMER_PROF`` interrupts the process every ``--interval`` seconds of its
own CPU time (the kernel rounds it up to its timer tick), and each sample
counts the source file of the innermost Python frame that was running. Time
spent in a C function counts for the Python frame that called it. The calls
are ``polyurn.cli.main(argv)`` over the argvs of the benchmark's
``analyze-corpus`` workload (``perfbench/workloads.py``, whose outputs
``perfbench/golden.json`` pins) at ``--seed``, round after round, until
``--seconds`` of wall time have passed (at least one round). The script
prints one ``<share> <module>`` line per module, most sampled first, then
the number of samples:

    PYTHONPATH=src python tools/self_time.py [--seed 1] [--seconds 15] [--size full]

``polyurn`` is imported from ``PYTHONPATH``, so the same script measures
any checkout. A module is named by its file: ``fractions.py``,
``<frozen abc>``, or ``polyurn/ratpoly.py`` for a file of the package.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import signal
import sys
import tempfile
from collections import Counter
from pathlib import Path
from time import perf_counter

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    """``perfbench/workloads.py``, loaded from its file."""
    path = PERFBENCH / "workloads.py"
    spec = importlib.util.spec_from_file_location("_perfbench_workloads", path)
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _module(filename: str) -> str:
    """The name a sample counts under: a file of ``polyurn`` keeps the package name."""
    if filename.startswith("<"):
        return filename
    path = Path(filename)
    return f"{path.parent.name}/{path.name}" if path.parent.name == "polyurn" else path.name


def sample(argvs, seconds: float, interval: float) -> Counter:
    """Samples per module over rounds of ``cli.main`` calls on ``argvs``."""
    from polyurn import cli

    counts: Counter = Counter()

    def on_tick(_signum, frame):
        counts[_module(frame.f_code.co_filename) if frame else "<no frame>"] += 1

    previous = signal.signal(signal.SIGPROF, on_tick)
    sink = io.StringIO()
    start = perf_counter()
    signal.setitimer(signal.ITIMER_PROF, interval, interval)
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            while True:
                for argv in argvs:
                    cli.main(list(argv))
                    sink.seek(0)
                    sink.truncate()
                if perf_counter() - start >= seconds:
                    break
    finally:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, previous)
    return counts


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1, help="workload seed")
    parser.add_argument("--size", choices=["full", "tiny"], default="full", help="corpus size")
    parser.add_argument("--seconds", type=float, default=15.0, help="wall time to sample for")
    parser.add_argument("--interval", type=float, default=0.001, help="CPU seconds per sample")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as work:
        wl = _workloads().build("analyze-corpus", args.seed, args.size, Path(work))
        counts = sample([op.argv for op in wl.ops], args.seconds, args.interval)
    total = sum(counts.values()) or 1
    for module, n in counts.most_common():
        print(f"{n / total:7.2%} {module}")
    print(f"{sum(counts.values())} samples")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
