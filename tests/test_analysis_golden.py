"""Golden digests of the whole analysis over a seeded model corpus.

For each model the test hashes three outputs: the analysis JSON
(``analysis_to_dict(analyze_model(m))``), the prediction JSON
(``prediction_to_dict(predict_limit(m))``) and ``repr(sa_conditions_for(m))``.
The digests in ``golden_analysis.json`` pin every byte of those outputs, so
a refactor of the analysis layer must reproduce them exactly.

Regenerate the file only for an intended change of the analysis output:

    PYTHONPATH=src python tests/test_analysis_golden.py --write
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from polyurn.analysis import (
    analysis_to_dict,
    analyze_model,
    predict_limit,
    prediction_from_dict,
    prediction_to_dict,
    sa_conditions_for,
)
from polyurn.ratpoly import format_rational
from polyurn.urns import (
    ONE_DRAW,
    WITH_REPLACEMENT,
    WITHOUT_REPLACEMENT,
    UrnModel,
    degenerate_case_id,
    drift_for,
    one_draw_model,
    two_draw_model,
)

GOLDEN = Path(__file__).with_name("golden_analysis.json")
SEED = 20100
RANDOM_MODELS = 132

F = Fraction

FIXED = (
    one_draw_model([3, 1, 1, 2]),
    one_draw_model([1, 0, 0, 1], 2, 1),  # zero drift: Beta(2, 1)
    one_draw_model([2, 0, 0, 2], 3, 1),  # zero drift: Beta(3/2, 1/2)
    one_draw_model([1, 0, 0, 1], 0, 3),  # zero drift, frozen at 0
    one_draw_model([2, 0, 0, 1], 1, 1),
    one_draw_model([2, 3, 0, 0], 1, 1),  # degenerate case 1
    one_draw_model([0, 0, 1, 4], 2, 1),  # degenerate case 2
    two_draw_model([15, 3, 4, 1, 3, 21], 5, 2),  # bistable, excluded 1/2
    two_draw_model([15, 3, 4, 1, 3, 21], 5, 2, WITH_REPLACEMENT),
    two_draw_model([F(15, 2), 3, 4, 1, 3, 21], 5, 2),
    two_draw_model([F(15, 2), F(3, 2), 2, F(1, 2), F(3, 2), F(21, 2)], 5, 2),
    two_draw_model([35, 9, 1, 1, 3, 21], 12, 2),  # touchpoint
    two_draw_model([2, 1, 1, 1, 1, 0], 2, 2),  # irrational root
    two_draw_model([3, 2, 2, 3, 1, 4], 2, 2),
    two_draw_model([9, 1, 2, 3, 1, 7], 2, 2),
    two_draw_model([2, 0, 1, 1, 0, 2], 2, 2),  # zero drift, without replacement
    two_draw_model([2, 0, 1, 1, 0, 2], 2, 2, WITH_REPLACEMENT),  # zero drift, with
    two_draw_model([2, 3, 0, 0, 0, 0], 2, 2),  # degenerate case 1
    two_draw_model([0, 0, 0, 0, 1, 2], 2, 2),  # degenerate case 2
    two_draw_model([0, 0, 1, 3, 0, 0], 2, 2),  # degenerate case 3
    two_draw_model([0, 0, 1, 1, 1, 1], 2, 2),  # degenerate case 4
    two_draw_model([0, 0, 1, 0, 1, 2], 2, 2),  # degenerate case 4, borderline
    two_draw_model([2, 1, 0, 1, 0, 0], 2, 2),  # degenerate case 5, borderline
    two_draw_model([1, 1, 1, 1, 0, 0], 2, 2),  # degenerate case 5
    two_draw_model([1, 1, 0, 0, 1, 1], 2, 2),  # degenerate case 6
    two_draw_model([3, 1, 0, 0, 1, 2], 2, 2, WITH_REPLACEMENT),  # degenerate case 6
)


def _entry(rng: random.Random, fractional: bool) -> Fraction:
    if fractional:
        return F(rng.randint(0, 9), rng.randint(1, 3))
    return F(rng.randint(0, 9))


def _random_model(rng: random.Random, index: int) -> UrnModel:
    """Stratified by index: draw rule, entry type, and an inactive row every fourth model."""
    kind = ("one", "pair-with", "pair-without")[index % 3]
    fractional = (index // 3) % 2 == 1
    size = 4 if kind == "one" else 6
    while True:
        entries = [_entry(rng, fractional) for _ in range(size)]
        if index % 4 == 3:
            rows = size // 2
            for row in rng.sample(range(rows), rng.randint(1, rows - 1)):
                entries[2 * row] = entries[2 * row + 1] = F(0)
        if any(entries):
            break
    w0, b0 = rng.randint(0, 6), rng.randint(1, 6)
    if kind == "one":
        return one_draw_model(entries, w0, b0)
    sampling = WITH_REPLACEMENT if kind == "pair-with" else WITHOUT_REPLACEMENT
    return two_draw_model(entries, w0, b0, sampling)


def corpus() -> list[UrnModel]:
    rng = random.Random(SEED)
    return list(FIXED) + [_random_model(rng, i) for i in range(RANDOM_MODELS)]


def label(index: int, model: UrnModel) -> str:
    kind = "one" if model.kind == ONE_DRAW else f"pair-{model.sampling}"
    entries = ",".join(str(v) for v in model.matrix.entries)
    return f"{index:03d} {kind} [{entries}] w0={model.w0} b0={model.b0}"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(model: UrnModel) -> dict[str, str]:
    return {
        "analysis": _sha(json.dumps(analysis_to_dict(analyze_model(model)), sort_keys=True)),
        "prediction": _sha(json.dumps(prediction_to_dict(predict_limit(model)), sort_keys=True)),
        "scheme": _sha(repr(sa_conditions_for(model))),
    }


def test_corpus_covers_every_model_family():
    models = corpus()
    assert len(models) >= 150
    kinds = {(m.kind, m.sampling) for m in models}
    assert len(kinds) == 3
    assert any(any(v.denominator > 1 for v in m.matrix.entries) for m in models)
    pair_cases = {degenerate_case_id(m) for m in models if m.kind != ONE_DRAW}
    one_cases = {degenerate_case_id(m) for m in models if m.kind == ONE_DRAW}
    assert pair_cases == {0, 1, 2, 3, 4, 5, 6}
    assert one_cases == {0, 1, 2}
    assert any(drift_for(m).is_zero for m in models)
    irrational = [
        m for m in models
        if any(eq.root.value is None for eq in analyze_model(m).equilibria)
    ]
    assert len(irrational) >= 10


def test_analysis_outputs_match_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    models = corpus()
    labels = [label(i, m) for i, m in enumerate(models)]
    assert sorted(golden) == sorted(labels)
    changed = [
        f"{name}: {part}"
        for name, model in zip(labels, models)
        for part, digest in digests(model).items()
        if digest != golden[name][part]
    ]
    assert not changed, "analysis output changed for:\n" + "\n".join(changed)


_ROOT_KEYS = ["point", "interval", "approx", "location", "multiplicity"]

#: The exact key order of every object in the analysis JSON. The digests
#: above hash with sorted keys, so this pins the order the CLI prints.
KEY_ORDER = {
    "top": ["model", "meta", "drift", "noise", "scheme_constants", "attainable",
            "equilibria", "prediction", "degenerate"],
    "meta": ["kind", "sampling", "t_min", "t_max", "bias_bound", "degenerate_case",
             "white_count_diverges_at_zero", "black_count_diverges_at_one"],
    "drift": ["coefficients", "text"],
    "noise-one": ["gap", "error"],
    "noise-pair": ["diff_ww_bb", "diff_wb_bb", "second_diff", "variance_factor", "error"],
    "scheme": ["initial_total", "t_min", "t_max", "lower_rate", "upper_rate",
               "drift_sup", "noise_sup", "increment_sup", "bias_constant"],
    "attainable": ["lower", "upper", "closed_bounds"],
    "equilibrium": _ROOT_KEYS + ["classification", "sign_left", "sign_right",
                                 "drift_derivative_sign", "drift_derivative"],
    "prediction": ["kind", "beta_params", "theorem", "points", "excluded", "notes"],
    "point": _ROOT_KEYS + ["classification", "verdict", "theorem"],
    "excluded": _ROOT_KEYS + ["classification", "theorem"],
    "degenerate": ["case", "fixed_limit", "reduced_drift", "weight_denominator",
                   "variable_map"],
}


def test_analysis_json_key_order_over_the_corpus():
    seen: dict[str, list] = {name: [] for name in KEY_ORDER}
    for model in corpus():
        data = analysis_to_dict(analyze_model(model))
        prediction = data["prediction"]
        seen["top"].append(data)
        seen["meta"].append(data["meta"])
        seen["drift"].append(data["drift"])
        seen["noise-one" if model.kind == ONE_DRAW else "noise-pair"].append(data["noise"])
        for name, key in (("scheme", "scheme_constants"), ("attainable", "attainable"),
                          ("degenerate", "degenerate")):
            if data[key] is not None:
                seen[name].append(data[key])
        seen["equilibrium"] += data["equilibria"]
        seen["prediction"] += [prediction, prediction_to_dict(predict_limit(model))]
        seen["point"] += prediction["points"]
        seen["excluded"] += prediction["excluded"]
    for name, objects in seen.items():
        assert objects, f"the corpus has no {name} object"
        wrong = [list(obj) for obj in objects if list(obj) != KEY_ORDER[name]]
        assert not wrong, f"{name} keys out of order: {wrong[0]}"


def test_prediction_json_round_trips_over_the_corpus():
    # An irrational point comes back as the exact binary fraction of its float.
    changed = []
    for i, model in enumerate(corpus()):
        data = prediction_to_dict(predict_limit(model))
        expected = json.loads(json.dumps(data))
        for entry in expected["points"] + expected["excluded"]:
            if entry["point"] is None:
                point = format_rational(Fraction(entry["approx"]))
                entry.update(point=point, interval=None, location="interior")
        if prediction_to_dict(prediction_from_dict(data)) != expected:
            changed.append(label(i, model))
    assert not changed, "prediction JSON does not round-trip for:\n" + "\n".join(changed)


def _mirrored(original, swapped) -> bool:
    """Whether ``swapped`` sits at ``1 - x`` for the point ``original`` at ``x``."""
    if original.value is not None:
        return swapped.value == 1 - original.value
    return swapped.value is None and swapped.approx == pytest.approx(1 - original.approx, abs=1e-9)


def test_color_swap_mirrors_every_prediction():
    # Exchanging the colors maps every limit statement at x to the same one at 1 - x.
    mismatched = []
    for i, model in enumerate(corpus()):
        plain = predict_limit(model)
        swapped = predict_limit(model.color_swap())
        points = sorted(plain.points, key=lambda p: p.root.approx)
        swapped_points = sorted(swapped.points, key=lambda p: -p.root.approx)
        excluded = sorted(plain.excluded, key=lambda p: p.root.approx)
        swapped_excluded = sorted(swapped.excluded, key=lambda p: -p.root.approx)
        beta = plain.beta_params
        ok = (
            swapped.kind is plain.kind
            and len(swapped_points) == len(points)
            and all(
                _mirrored(p.root, q.root)
                and (q.verdict, q.theorem, q.classification)
                == (p.verdict, p.theorem, p.classification)
                for p, q in zip(points, swapped_points)
            )
            and len(swapped_excluded) == len(excluded)
            and all(
                _mirrored(p.root, q.root) and q.theorem == p.theorem
                for p, q in zip(excluded, swapped_excluded)
            )
            and swapped.beta_params == (None if beta is None else (beta[1], beta[0]))
        )
        if not ok:
            mismatched.append(label(i, model))
    assert not mismatched, "color swap not mirrored for:\n" + "\n".join(mismatched)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_analysis_golden.py --write")
    table = {label(i, m): digests(m) for i, m in enumerate(corpus())}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {GOLDEN}")
