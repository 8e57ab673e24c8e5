"""Per-layer metrics: from the spans of traced rounds, and from layer micro-runs.

"Per model" divides by the traced ``analyze`` calls (one model each); "per
op" divides by every traced CLI call. Call counts are the median (low) over
``analyze`` calls of the calls made within one, so they are exact integers.
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from time import perf_counter

from polyurn import montecarlo, urns

from tracing import KEEP_ARGS, Tracer, outermost, self_times

_CALLS = {
    "ratpoly.roots_in_unit_interval.calls_per_model": "roots_in_unit_interval",
    "ratpoly.sign_at_root.calls_per_model": "sign_at_root",
    "urns.model_meta.calls_per_model": "model_meta",
    "urns.bias_bound.calls_per_model": "bias_bound",
    "urns.drift_for.calls_per_model": "drift_for",
    "stability.classify_all.calls_per_model": "classify_all",
}

_MS_PER_MODEL = {
    "ratpoly.roots_in_unit_interval.ms_per_model": ("roots_in_unit_interval",),
    "ratpoly.sign_at_root.ms_per_model": ("sign_at_root",),
    "urns.model_meta.ms_per_model": ("model_meta",),
    "urns.noise.ms_per_model": ("error_one", "error_two", "error_for"),
    "stability.classify_all.ms_per_model": ("classify_all",),
    "stability.exclusion.ms_per_model": ("check_noise_floor", "check_boundary_exclusion"),
}

_MS_PER_OP = {
    "cli.parse.ms_per_op": ("model_from_args",),
    "cli.render.ms_per_op": ("analysis_to_dict", "VerificationReport.to_dict", "_json_text"),
    "cli.write.ms_per_op": ("_write_text",),
}


def _metric(value, unit: str, samples: int) -> dict:
    return {"value": value, "unit": unit, "samples": samples}


def _distinct(args_list: list[tuple]) -> int:
    seen: list[tuple] = []
    for args in args_list:
        if args not in seen:
            seen.append(args)
    return len(seen)


def from_spans(tracer: Tracer, ops: dict) -> dict:
    """Metrics of the traced rounds; ``ops`` maps each traced call id to its op."""
    spans = tracer.spans
    model_ops = [i for i, op in ops.items() if op.command == "analyze"]
    is_model_op = set(model_ops)
    n_models, n_ops = len(model_ops), len(ops)

    def total_ms(names, keep=lambda op_id: True) -> float:
        return sum(spans[i][2] - spans[i][1] for i in outermost(spans, names)
                   if keep(spans[i][4])) * 1000

    counts = {op_id: {} for op_id in model_ops}
    kept: dict[tuple[int, str], list] = {}
    for index, (name, _, _, _, op_id) in enumerate(spans):
        if op_id in is_model_op:
            counts[op_id][name] = counts[op_id].get(name, 0) + 1
            if name in KEEP_ARGS:
                kept.setdefault((op_id, name), []).append(tracer.args[index])

    metrics = {}
    for metric, name in _CALLS.items():
        per_op = [counts[op_id].get(name, 0) for op_id in model_ops]
        metrics[metric] = _metric(statistics.median_low(per_op), "count", n_models)
    for metric, names in _MS_PER_MODEL.items():
        metrics[metric] = _metric(total_ms(names, is_model_op.__contains__) / n_models, "ms",
                                  n_models)
    selfs = self_times(spans)
    analyze_self = sum(t for t, s in zip(selfs, spans)
                       if s[0] == "analyze_model" and s[4] in is_model_op)
    metrics["analysis.analyze_model.self_ms_per_model"] = _metric(
        analyze_self * 1000 / n_models, "ms", n_models)
    made = sum(len(v) for v in kept.values())
    useful = sum(_distinct(v) for v in kept.values())
    metrics["analysis.useful_call_ratio"] = _metric(useful / made, "ratio", made)
    for metric, names in _MS_PER_OP.items():
        metrics[metric] = _metric(total_ms(names) / n_ops, "ms", n_ops)
    main_self = sum(t for t, s in zip(selfs, spans) if s[0] == "main")
    metrics["cli.main.self_ms_per_op"] = _metric(main_self * 1000 / n_ops, "ms", n_ops)
    return metrics


# ---------------------------------------------------------------------------
# Micro-runs: the same on every workload, sized by --size only
# ---------------------------------------------------------------------------

_BISTABLE = urns.two_draw_model([15, 3, 4, 1, 3, 21], 5, 2)
_KERNELS = {
    "one_draw": urns.one_draw_model([3, 1, 1, 2]),
    "pair_without_int": _BISTABLE,
    "pair_with": urns.two_draw_model([15, 3, 4, 1, 3, 21], 5, 2, sampling=urns.WITH_REPLACEMENT),
    "generic_rational": urns.two_draw_model([Fraction(15, 2), 3, 4, 1, 3, 21], 5, 2),
}
_VERIFY_MODELS = (urns.two_draw_model([35, 9, 1, 1, 3, 21], 12, 2),
                  urns.one_draw_model([1, 0, 0, 1], 2, 1))

_MICRO = {
    # kernel steps (integer, generic), replicates per kernel, repeats,
    # parallel-efficiency replicates x steps, CSV replicates x steps, verify replicates x steps
    "full": {"int_steps": 60_000, "generic_steps": 1500, "kernel_reps": 3, "repeats": 3,
             "pool": (16, 30_000), "csv": (20, 4000), "verify": (100, 2000)},
    "tiny": {"int_steps": 2000, "generic_steps": 100, "kernel_reps": 1, "repeats": 1,
             "pool": (4, 1000), "csv": (2, 200), "verify": (10, 100)},
}


def _kernel_rate(model, steps: int, replicates: int, seed: int) -> float:
    config = montecarlo.SimConfig(model=model, steps=steps, replicates=replicates, base_seed=seed)
    start = perf_counter()
    for i in range(replicates):
        montecarlo.simulate(config, i)
    return steps * replicates / (perf_counter() - start)


def _timed(fn) -> float:
    start = perf_counter()
    fn()
    return perf_counter() - start


def micro_runs(seed: int, size: str) -> dict:
    p = _MICRO[size]
    metrics = {}
    for kind, model in _KERNELS.items():
        steps = p["generic_steps"] if kind == "generic_rational" else p["int_steps"]
        rates = [_kernel_rate(model, steps, p["kernel_reps"], seed) for _ in range(p["repeats"])]
        metrics[f"montecarlo.kernel.{kind}.steps_per_s"] = _metric(
            statistics.median(rates), "steps/s", p["repeats"])

    reps, steps = p["pool"]
    config = montecarlo.SimConfig(model=_BISTABLE, steps=steps, replicates=reps, base_seed=seed)
    one, two = [], []
    for _ in range(p["repeats"]):
        one.append(_timed(lambda: montecarlo.run_replicates(config, parallelism=1)))
        two.append(_timed(lambda: montecarlo.run_replicates(config, parallelism=2)))
    metrics["montecarlo.run_replicates.parallel_efficiency"] = _metric(
        statistics.median(one) / (2 * statistics.median(two)), "ratio", p["repeats"])

    reps, steps = p["csv"]
    results = montecarlo.run_replicates(montecarlo.SimConfig(
        model=_BISTABLE, steps=steps, replicates=reps, base_seed=seed,
        record_trajectory=True, trajectory_stride=5))
    texts: list[str] = []

    def render():
        texts[:] = ["\n".join(montecarlo.finals_csv_lines(results)) + "\n",
                    "\n".join(montecarlo.trajectory_csv_lines(results)) + "\n"]

    times = [_timed(render) for _ in range(p["repeats"])]
    metrics["montecarlo.csv.ms"] = _metric(statistics.median(times) * 1000, "ms", p["repeats"])
    metrics["montecarlo.csv.mb"] = _metric(
        sum(len(t.encode()) for t in texts) / 2**20, "MB", 1)

    reps, steps = p["verify"]
    tracer = Tracer()
    with tracer.installed():
        for model in _VERIFY_MODELS:
            montecarlo.verify(model, steps=steps, replicates=reps, base_seed=seed)
    spans, stats = tracer.spans, []
    for i, (name, start, end, _, _) in enumerate(spans):
        if name == "verify":
            inner = sum(e - s for n, s, e, parent, _ in spans
                        if parent == i and n in ("run_replicates", "predict_limit"))
            stats.append((end - start - inner) * 1000)
    metrics["montecarlo.verify_stats.ms"] = _metric(statistics.mean(stats), "ms", len(stats))
    return metrics
