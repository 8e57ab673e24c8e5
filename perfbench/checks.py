"""Output checks for one CLI call, run outside the timed region.

Each check returns a list of problems; an empty list means the call's
outputs are correct. The checks recompute what they can from the exact
inputs rather than trusting the program's own summary.
"""

from __future__ import annotations

import hashlib
import json
import math
from fractions import Fraction

from polyurn import analysis, montecarlo, ratpoly, urns
from polyurn.cli import EXIT_INCONSISTENT, EXIT_OK

from workloads import Op


def digest(op: Op, stdout: str) -> str:
    """SHA-256 over the call's stdout and every file it wrote, in a fixed order."""
    h = hashlib.sha256(stdout.encode())
    for key in sorted(op.files):
        h.update(b"\0" + key.encode() + b"\0")
        h.update(op.files[key].read_bytes())
    return h.hexdigest()


def check(op: Op, code: int, stdout: str) -> tuple[list[str], bool]:
    """The call's problems, and whether an ``inconsistent`` verdict was tolerated."""
    try:
        if op.command == "analyze":
            return _check_analyze(op, code), False
        if op.command == "verify":
            return _check_verify(op, code)
        return _check_simulate(op, code, stdout), False
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [f"unreadable output: {exc!r}"], False


def _same_model(op: Op, model: urns.UrnModel) -> bool:
    spec = op.model
    if [Fraction(e) for e in spec.entries] != list(model.matrix.entries):
        return False
    return all(text is None or Fraction(text) == value
               for text, value in ((spec.w0, model.w0), (spec.b0, model.b0)))


def _same_prediction(original: dict, again: dict) -> bool:
    """Round-trip equality; irrational points come back as their float approximation."""
    for key in ("kind", "beta_params", "theorem", "notes"):
        if original[key] != again[key]:
            return False
    for group in ("points", "excluded"):
        if len(original[group]) != len(again[group]):
            return False
        for a, b in zip(original[group], again[group]):
            if any(a.get(k) != b.get(k) for k in ("classification", "verdict", "theorem")):
                return False
            if a["point"] is not None and a["point"] != b["point"]:
                return False
            if a["point"] is None and Fraction(b["point"]) != Fraction(a["approx"]):
                return False
    return True


def _check_analyze(op: Op, code: int) -> list[str]:
    if code != EXIT_OK:
        return [f"exit code {code}"]
    payload = json.loads(op.files["out"].read_text())
    problems = []
    model = urns.model_from_dict(payload["model"])
    if not _same_model(op, model):
        problems.append("model echo differs from the input")
    pred = payload["prediction"]
    again = analysis.prediction_to_dict(analysis.prediction_from_dict(pred))
    if not _same_prediction(pred, again):
        problems.append("prediction does not round-trip through prediction_from_dict")
    drift = urns.drift_for(model)
    simple = ratpoly.radical(drift) if not drift.is_zero else drift
    for eq in payload["equilibria"]:
        if eq["point"] is not None:
            x = Fraction(eq["point"])
            if not 0 <= x <= 1 or drift.evaluate(x) != 0:
                problems.append(f"equilibrium {eq['point']} is not a root of the drift in [0, 1]")
        else:
            lo, hi = (Fraction(v) for v in eq["interval"])
            if not 0 <= lo < hi <= 1 or simple.evaluate(lo) * simple.evaluate(hi) >= 0:
                problems.append(f"interval {eq['interval']} shows no sign change of the drift")
    return problems


#: Band of tolerated ``inconsistent`` point-prediction verdicts. On the two
#: bistable models at 60 x 16000 steps, 23 of 80 verdicts over seeds 1-40
#: were ``inconsistent`` on a correct prediction: replicates still between
#: the attractors left 0.817-0.883 on the allowed points (the program wants
#: 0.9), or up to 0.05 sat near the excluded repeller (it wants 0.02). The
#: band keeps a margin over those extremes (see README.md).
ALLOWED_FLOOR = 0.75
EXCLUDED_CEILING = 0.10
#: KS level at which a tolerated Beta-law verdict must still pass. The
#: program's 1% level rejected 4 of the first 120 workload seeds.
KS_TOLERANCE_LEVEL = 1e-4


def _ks_threshold(level: float, n: int) -> float:
    return math.sqrt(-0.5 * math.log(level / 2)) / math.sqrt(n)


def _check_verify(op: Op, code: int) -> tuple[list[str], bool]:
    """Problems of one verify call, and whether its verdict was tolerated.

    The verdict must follow from the report's own counts and conventions.
    ``inconsistent`` fails the call, except within the measured false-alarm
    band of two verdict rules on correct predictions at this run length:
    a Beta-law KS statistic that passes at level ``KS_TOLERANCE_LEVEL``, and
    a point prediction whose allowed points hold at least ``ALLOWED_FLOOR``
    and whose excluded points each hold at most ``EXCLUDED_CEILING``.
    """
    report = json.loads(op.files["out"].read_text())
    verdict, conv, n = report["verdict"], report["conventions"], op.replicates
    problems = []
    expected_code = EXIT_INCONSISTENT if verdict == montecarlo.VERDICT_INCONSISTENT else EXIT_OK
    if code != expected_code:
        problems.append(f"exit code {code} does not match verdict {verdict}")
    if report["replicates"] != n or sum(report["histogram"]) != n:
        problems.append("histogram does not account for every replicate")
    if report["ks_statistic"] is not None:
        threshold = _ks_threshold(conv["ks_level"], n)
        if report["ks_threshold"] != threshold:
            problems.append("KS threshold does not match the level and sample size")
        expected = "consistent" if report["ks_statistic"] < threshold else "inconsistent"
        tolerable = report["ks_statistic"] < _ks_threshold(KS_TOLERANCE_LEVEL, n)
    elif report["allowed_fraction"] is not None:
        allowed = sum(p["count"] for p in report["allowed_points"])
        excluded = [p["count"] for p in report["excluded_points"]]
        if allowed + sum(excluded) + report["unassigned"] != n \
                or report["allowed_fraction"] != allowed / n:
            problems.append("cluster counts do not account for every replicate")
        ok = allowed / n >= conv["min_allowed_fraction"] and all(
            c / n <= conv["max_excluded_fraction"] for c in excluded)
        expected = "consistent" if ok else "inconsistent"
        tolerable = allowed / n >= ALLOWED_FLOOR and all(
            c / n <= EXCLUDED_CEILING for c in excluded)
    else:
        expected, tolerable = "inconclusive", False
    tolerated = False
    if verdict != expected:
        problems.append(f"verdict {verdict} does not follow from the report (expected {expected})")
    elif verdict == montecarlo.VERDICT_INCONSISTENT:
        tolerated = tolerable and not problems
        if not tolerable:
            problems.append(f"verdict inconsistent: {report['reasons']}")
    return problems, tolerated


def _check_simulate(op: Op, code: int, stdout: str) -> list[str]:
    if code != EXIT_OK:
        return [f"exit code {code}"]
    problems = []
    rows = op.files["out"].read_text().splitlines()
    if len(rows) != op.replicates + 1:
        problems.append(f"finals CSV has {len(rows)} rows, expected {op.replicates + 1}")
    finals = []
    for i, row in enumerate(rows[1:]):
        index, w, b, z = row.split(",")
        exact = float(Fraction(w) / (Fraction(w) + Fraction(b)))
        if int(index) != i or float(z) != exact:
            problems.append(f"finals row {i} has final_Z {z}, exact counts give {exact!r}")
        finals.append(float(z))
    summary = json.loads(stdout)
    if sum(summary["histogram"]) != op.replicates or summary["steps"] != op.steps:
        problems.append("summary does not match the run")
    if finals and summary["mean_final"] != sum(finals) / len(finals):
        problems.append("summary mean differs from the finals")
    if "trajectory" in op.files:
        points = 1 + op.steps // op.stride + (1 if op.steps % op.stride else 0)
        rows = op.files["trajectory"].read_text().splitlines()
        if len(rows) != op.replicates * points + 1:
            problems.append(f"trajectory CSV has {len(rows)} rows, expected "
                            f"{op.replicates * points + 1}")
        ends = [float(r.split(",")[2]) for r in rows[points::points]]
        if ends != finals:
            problems.append("trajectory end points differ from the finals")
    return problems
