"""polyurn benchmark: closed-loop, in-process CLI calls on seeded workloads.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload analyze-corpus --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all            # every workload, tracing off

One client calls ``polyurn.cli.main(argv)`` and sends the next call only
after the previous one returns. A round is one pass over the workload's
calls; after an untimed warm-up round whose outputs are checked, rounds
repeat until ``--seconds`` have passed (at least three). Reported times are
scaled to a host of fixed speed by a reference slice timed around every call
(see ``REFERENCE_S``); the unscaled values are printed too. ``--trace 1``
adds spans at module boundaries and layer micro-runs and reports per-layer
metrics instead. The last line of output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 1
MIN_ROUNDS = 3
#: Reported times are scaled to a host on which ``_reference_slice`` takes
#: this long. The host's speed changes by up to 1.7x within seconds and
#: drifts over minutes (see README.md), moving every raw time with it; the
#: ratio of a call's time to the reference slices around it does not.
REFERENCE_S = 0.002


def _reference_slice() -> float:
    """Wall time of a fixed slice of pure-Python rational and integer arithmetic.

    It stands for polyurn's own kind of work, exact ``Fraction`` arithmetic
    and integer stepping, and takes about 2 ms.
    """
    start = perf_counter()
    coeffs = [Fraction(k + 1, 2 * k + 3) for k in range(8)]
    total = Fraction(0)
    for j in range(1, 25):
        x, acc = Fraction(j, 29), Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        total += acc
    state = 12345
    for _ in range(3000):
        state = (state * 1103515245 + 12345) % 2**31
    return perf_counter() - start


def _scaled(elapsed: float, before: float, after: float) -> float:
    """``elapsed`` on the reference host, from the reference slices around it."""
    return elapsed * 2 * REFERENCE_S / (before + after)


def _median_ms(values) -> float:
    return statistics.median(values) * 1000


def _percentile(values, q: int) -> float:
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Runner:
    """Runs rounds of one workload and checks every call's outputs."""

    def __init__(self, workload: workloads.Workload):
        from polyurn import cli

        self.cli = cli
        self.workload = workload
        self.reference: list[tuple[int, str]] = []  # (exit code, digest) per op
        self.attempted = 0
        self.failed: list[str] = []
        self.tolerated = 0  # "inconsistent" verdicts of the warm-up round that the checks tolerated
        self.calls = 0

    def round(self, tracer=None) -> tuple[list[float], list[float]]:
        """One timed pass over the ops; returns each call's time, raw and scaled."""
        results, times, refs = [], [], [_reference_slice()]
        for op in self.workload.ops:
            if tracer is not None:
                tracer.op = self.calls
            self.calls += 1
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                t0 = perf_counter()
                code = self.cli.main(list(op.argv))
                times.append(perf_counter() - t0)
            refs.append(_reference_slice())
            results.append((code, out.getvalue(), err.getvalue()))
        self._check(results)
        return times, [_scaled(t, before, after)
                       for t, before, after in zip(times, refs, refs[1:])]

    def _check(self, results) -> None:
        import checks

        first = not self.reference
        for i, (op, (code, stdout, stderr)) in enumerate(zip(self.workload.ops, results)):
            self.attempted += 1
            digest = checks.digest(op, stdout)
            if first:
                problems, tolerated = checks.check(op, code, stdout)
                self.reference.append((code, digest))
                self.tolerated += tolerated
            else:
                problems = [] if (code, digest) == self.reference[i] else [
                    "output differs from the warm-up round"]
            if problems:
                problems += stderr.splitlines()[-1:]
                self.failed.append(f"{i}:{op.label}: {'; '.join(problems)}")

    def check_golden(self) -> None:
        """At the default seed, compare the warm-up digests with the stored goldens."""
        wl = self.workload
        if wl.seed != DEFAULT_SEED:
            return
        golden = json.loads(GOLDEN.read_text()).get(f"{wl.name}/{wl.size}")
        if golden is None:
            self.failed.append(f"no golden digests stored for {wl.name}/{wl.size}")
            return
        for i, (op, (_, digest)) in enumerate(zip(wl.ops, self.reference)):
            if i >= len(golden) or golden[i] != digest:
                self.failed.append(f"{i}:{op.label}: digest differs from the golden")


def write_golden(runner: Runner) -> int:
    """Store the warm-up digests of a fully correct run as the goldens of its workload."""
    wl = runner.workload
    if runner.failed or runner.tolerated or wl.seed != DEFAULT_SEED:
        print("refusing to store goldens: the run failed, a verdict was only tolerated, "
              "or the seed is not the default", file=sys.stderr)
        return 1
    golden = json.loads(GOLDEN.read_text()) if GOLDEN.exists() else {}
    golden[f"{wl.name}/{wl.size}"] = [digest for _, digest in runner.reference]
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"stored {len(runner.reference)} golden digests for {wl.name}/{wl.size}")
    return 0


def _setup_time(wl: workloads.Workload) -> tuple[float, float]:
    """Wall time of a fresh interpreter that imports polyurn.cli and builds the inputs.

    Returns it raw and scaled.
    """
    argv = [sys.executable, str(Path(__file__)), "--setup-probe", "--workload", wl.name,
            "--seed", str(wl.seed), "--size", wl.size]
    before = _reference_slice()
    t0 = perf_counter()
    # No timeout: with one, Popen.wait polls in sleeps of up to 50 ms.
    done = subprocess.run(argv, cwd=ROOT, stdout=subprocess.DEVNULL)
    elapsed = perf_counter() - t0
    if done.returncode != 0:
        raise RuntimeError(f"setup probe exited with code {done.returncode}")
    return elapsed, _scaled(elapsed, before, _reference_slice())


def _metric(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def end_to_end(wl: workloads.Workload, per_call: list[list[float]], setup: list[float],
               peak_rss_mb: float) -> dict:
    """The end-to-end metrics from each timed round's call times and the setup probes."""
    wall = statistics.median(sum(times) for times in per_call)
    by_model: dict = {}  # each model's analyze latencies over every round
    for i, op in enumerate(wl.ops):
        if op.command == "analyze":
            by_model.setdefault(op.model, []).extend(times[i] for times in per_call)
    analyze_ms = [_median_ms(samples) for samples in by_model.values()]
    rounds = len(per_call)
    metrics = {
        "setup_s": _metric(statistics.median(setup), "s", len(setup)),
        "wall_s": _metric(wall, "s", rounds),
        "models_per_s": _metric(wl.models / wall, "models/s", rounds),
        "analyze_ms.p50": _metric(_percentile(analyze_ms, 50), "ms", len(analyze_ms)),
        "analyze_ms.p95": _metric(_percentile(analyze_ms, 95), "ms", len(analyze_ms)),
        "peak_rss_mb": _metric(peak_rss_mb, "MB", 1),
    }
    if wl.replicate_steps:
        metrics["steps_per_s"] = _metric(wl.replicate_steps / wall, "replicate-steps/s", rounds)
    return metrics


def run_workload(args) -> int:
    import layers
    from tracing import Tracer

    OUT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    try:
        wl = workloads.build(args.workload, args.seed, args.size, work)
        runner = Runner(wl)
        runner.round()
        if args.write_golden:
            return write_golden(runner)
        runner.check_golden()
        raw, scaled, traced, raw_setup, setup = [], [], [], [], []
        tracer, traced_ops = Tracer(), {}
        start = perf_counter()
        # A setup probe or a traced round follows each timed round, so that
        # every sample sees the same phases of the host.
        while len(raw) < MIN_ROUNDS or perf_counter() - start < args.seconds:
            times, scaled_times = runner.round()
            raw.append(times)
            scaled.append(scaled_times)
            if args.trace:
                traced_ops.update((runner.calls + i, op) for i, op in enumerate(wl.ops))
                with tracer.installed():
                    traced.append(sum(runner.round(tracer)[0]))
            else:
                if not setup:  # the probes are children too; count only pool workers
                    worker_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
                elapsed, scaled_elapsed = _setup_time(wl)
                raw_setup.append(elapsed)
                setup.append(scaled_elapsed)
        if args.trace:
            metrics = layers.from_spans(tracer, traced_ops)
            metrics["trace.overhead_ratio"] = _metric(
                statistics.median(traced) / statistics.median(sum(t) for t in raw), "ratio",
                len(raw))
            metrics.update(layers.micro_runs(args.seed, args.size))
            tracer.write(OUT / f"spans-{wl.name}-{args.seed}.jsonl")
        else:
            peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + worker_rss) / 1024
            metrics = end_to_end(wl, scaled, setup, peak_rss_mb)
            unscaled = end_to_end(wl, raw, raw_setup, peak_rss_mb)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = args.reported - metrics.keys()
    if missing:
        raise RuntimeError(f"declared metrics not measured: {sorted(missing)}")
    attempted, failed = runner.attempted, len(runner.failed)
    for line in runner.failed[:20]:
        print(f"FAILED {line}")
    print(f"workload {wl.name} seed {wl.seed} size {wl.size}: "
          f"{len(wl.ops)} calls per round, {len(raw)} timed rounds")
    for name, m in metrics.items():
        print(f"  {name:48s} {m['value']:>14.6g} {m['unit']:<18s} n={m['samples']}")
    if not args.trace:
        print("  unscaled, as timed on this host:")
        for name, m in unscaled.items():
            if name != "peak_rss_mb":
                print(f"    {name:46s} {m['value']:>14.6g} {m['unit']:<18s} n={m['samples']}")
    if any(op.command == "verify" for op in wl.ops):
        print(f"  inconsistent verdicts tolerated by the checks: {runner.tolerated} of "
              f"{sum(op.command == 'verify' for op in wl.ops)} verify calls")
    print(f"  {'failed_ratio':48s} {failed / attempted:>14.6g} {'ratio (base: calls)':<18s} "
          f"n={attempted}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": m["value"], "unit": m["unit"]}
            for name, m in metrics.items() if name in args.reported
        },
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size]
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=900)
        lines = done.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if done.returncode != 0 or not lines:
            print(done.stderr, file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def _declared_metrics(trace: int) -> set[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--write-golden", action="store_true",
                        help="store the default-seed output digests instead of measuring")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "polyurn" / "__init__.py").is_file():
        print(f"error: no polyurn sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        import polyurn.cli  # noqa: F401  (the import is what is timed)

        workloads.build(args.workload, args.seed, args.size, OUT / "probe")
        return 0
    if args.workload == "all":
        return run_all(args)
    args.reported = _declared_metrics(args.trace)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
