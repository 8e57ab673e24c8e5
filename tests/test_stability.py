"""Equilibrium classification and limit predictions."""

import functools
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyurn import stability
from polyurn.analysis import (
    analysis_to_dict,
    analyze_model,
    predict_limit,
    prediction_from_dict,
    prediction_to_dict,
    sa_conditions_for,
)
from polyurn.ratpoly import RatPoly, _int_sign, roots_in_unit_interval, sign_at, sign_at_root
from polyurn.stability import (
    THEOREM_BOUNDARY_EXCLUSION,
    THEOREM_LIMIT_EXISTS,
    THEOREM_NOISE_FLOOR_EXCLUSION,
    THEOREM_PAIR_FLAT_CONTINUOUS,
    THEOREM_SINGLE_DRAW_LAW,
    THEOREM_STABLE_ATTRACTION,
    THEOREM_TOUCHPOINT_POSSIBLE,
    VERDICT_POSITIVE_PROBABILITY,
    VERDICT_TOUCHPOINT,
    VERDICT_UNIQUE,
    VERDICT_UNKNOWN,
    EquilibriumClass,
    PredictionKind,
    check_boundary_exclusion,
    check_noise_floor,
    classify_all,
)
from polyurn.urns import (
    WITH_REPLACEMENT,
    WITHOUT_REPLACEMENT,
    degenerate_reduce,
    drift_for,
    error_for,
    one_draw_model,
    two_draw_model,
)

F = Fraction


def P(*coeffs):
    return RatPoly([F(c) for c in coeffs])


def classes(drift):
    return [(eq.root.value, eq.classification) for eq in classify_all(drift)]


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def test_simple_stable_root():
    assert classes(P(1, -3)) == [(F(1, 3), EquilibriumClass.STABLE)]


def test_odd_multiplicity_stable_root():
    # -8 (x - 1/2)^3: positive left of 1/2, negative right => attracting
    assert classes(P(1, -6, 12, -8)) == [(F(1, 2), EquilibriumClass.STABLE)]


def test_bistable_with_interior_repeller():
    assert classes(P(3, -22, 48, -32)) == [
        (F(1, 4), EquilibriumClass.STABLE),
        (F(1, 2), EquilibriumClass.STRICTLY_UNSTABLE),
        (F(3, 4), EquilibriumClass.STABLE),
    ]


def test_touchpoint_classification():
    assert classes(P(3, -28, 80, -64)) == [
        (F(1, 4), EquilibriumClass.TOUCHPOINT),
        (F(3, 4), EquilibriumClass.STABLE),
    ]


def test_boundary_roots_classified_by_inward_side():
    # x(1-x): drift positive inside, so 0 repels and 1 attracts
    assert classes(P(0, 1, -1)) == [
        (F(0), EquilibriumClass.STRICTLY_UNSTABLE),
        (F(1), EquilibriumClass.STABLE),
    ]
    # x(x-1): 0 attracts, 1 repels
    assert classes(P(0, -1, 1)) == [
        (F(0), EquilibriumClass.STABLE),
        (F(1), EquilibriumClass.STRICTLY_UNSTABLE),
    ]


def test_derivative_sign_recorded():
    eqs = classify_all(P(3, -22, 48, -32))
    assert eqs[1].drift_derivative == F(2)
    assert eqs[1].drift_derivative_sign == 1
    assert eqs[0].drift_derivative == F(-4)


def test_zero_drift_rejected():
    with pytest.raises(ValueError):
        classify_all(P(0))


def test_irrational_equilibrium_classified():
    # 2x^2 - 1 (negative below sqrt(1/2), positive above): repelling
    (eq,) = classify_all(P(-1, 0, 2))
    assert eq.root.value is None
    assert eq.classification == EquilibriumClass.STRICTLY_UNSTABLE


@pytest.mark.parametrize("model, gaps", [
    # roots 1/4, 1/2, 3/4: two interior gaps and the gaps at both ends
    (two_draw_model([15, 3, 4, 1, 3, 21]), 4),
    # roots 0 and 1: one gap between them, none at the ends
    (one_draw_model([1, 0, 0, 2]), 1),
])
def test_classification_reads_each_gap_sign_once(model, gaps, monkeypatch):
    probes = []

    def counted(ints, p, q):
        probes.append(F(p, q))
        return _int_sign(ints, p, q)

    monkeypatch.setattr(stability, "_int_sign", counted)
    classify_all(drift_for(model))
    assert len(probes) == gaps


def test_classification_asks_no_sign_at_a_root(monkeypatch):
    def refused(poly, record):
        raise AssertionError("classification evaluated a sign at a root")

    monkeypatch.setattr(stability, "sign_at_root", refused)
    half_sqrt = P(F(-1, 2), 0, 1)  # x^2 - 1/2, root sqrt(1/2)
    drifts = [drift_for(two_draw_model([2, 1, 1, 1, 1, 0])), P(-1, 0, 2), half_sqrt * half_sqrt]
    slopes = [[eq.drift_derivative_sign for eq in classify_all(d)] for d in drifts]
    # 1 - x - x^2 falls through its root, 2x^2 - 1 rises, and the double root is flat.
    assert slopes == [[-1], [1], [0]]


# Integer factors with a rational root in [0, 1], and (s x - t)^2 - d with
# irrational roots (t +- sqrt(d)) / s, raised to powers up to 3 so that roots repeat.
_factors = st.one_of(
    st.builds(lambda a, b: RatPoly([-(a % (b + 1)), b]), st.integers(0, 40), st.integers(1, 12)),
    st.builds(lambda s, t, d: RatPoly([t * t - d, -2 * s * t, s * s]), st.integers(1, 12),
              st.integers(0, 12), st.sampled_from([2, 3, 5, 6, 7])),
)
_drifts = st.lists(st.tuples(_factors, st.integers(1, 3)), min_size=1, max_size=3).map(
    lambda pairs: functools.reduce(lambda acc, pair: acc * pair[0] ** pair[1], pairs, P(1)))


@settings(derandomize=True, database=None, deadline=None)
@given(_drifts)
@example(P(-1, 0, 3) * P(-1, 0, 2) ** 2 * P(-1, 3))  # roots 1/3, sqrt(1/3) and sqrt(1/2) twice
def test_the_slope_read_off_the_gap_signs_is_the_derivative_at_the_root(drift):
    deriv = drift.derivative()
    for eq in classify_all(drift):
        assert eq.drift_derivative_sign == sign_at_root(deriv, eq.root)
        if eq.root.value is not None:
            assert eq.drift_derivative == deriv.evaluate(eq.root.value)


# ---------------------------------------------------------------------------
# Exclusion checks
# ---------------------------------------------------------------------------

def test_noise_floor_positive_at_interior_repeller():
    model = two_draw_model([15, 3, 4, 1, 3, 21], 2, 2)
    middle = roots_in_unit_interval(drift_for(model))[1]
    assert middle.value == F(1, 2)
    assert check_noise_floor(error_for(model), middle)


def test_noise_floor_vanishing_interior_zero():
    # single draw (2,2,0,1): the noise gap 2 - x vanishes nowhere in [0,1],
    # but the error x(1-x)(2-x)^2 still vanishes at the boundaries only; use
    # a crafted error with an interior zero instead.
    error = P(0, 1, -1) * P(F(-1, 2), 1) ** 2  # x(1-x)(x - 1/2)^2
    interior = [r for r in roots_in_unit_interval(error) if r.value == F(1, 2)]
    assert interior and not check_noise_floor(error, interior[0])


def test_boundary_exclusion_requires_divergence_flag():
    drift = P(0, 1, -1)  # repelling at 0
    error = P(0, 1, -1)
    assert check_boundary_exclusion(drift, error, F(0), count_diverges=True)
    assert not check_boundary_exclusion(drift, error, F(0), count_diverges=False)


def test_boundary_exclusion_needs_boundary_root():
    with pytest.raises(ValueError):
        check_boundary_exclusion(P(1, -3), P(0, 1), F(0), count_diverges=True)


# ---------------------------------------------------------------------------
# Predictions: worked pair-draw examples
# ---------------------------------------------------------------------------

def test_unique_limit_prediction():
    prediction = predict_limit(two_draw_model([3, 2, 2, 3, 1, 4], 2, 2))
    assert prediction.kind is PredictionKind.POINT_MASS_SET
    assert [(p.root.value, p.verdict, p.theorem) for p in prediction.points] == [
        (F(1, 3), VERDICT_UNIQUE, THEOREM_LIMIT_EXISTS)
    ]
    assert prediction.excluded == ()


def test_cubic_unique_limit():
    prediction = predict_limit(two_draw_model([9, 1, 2, 3, 1, 7], 2, 2))
    assert [(p.root.value, p.verdict) for p in prediction.points] == [
        (F(1, 2), VERDICT_UNIQUE)
    ]


def test_bistable_prediction_excludes_repeller():
    prediction = predict_limit(two_draw_model([15, 3, 4, 1, 3, 21], 5, 2))
    assert prediction.kind is PredictionKind.POINT_MASS_SET
    assert [(p.root.value, p.verdict, p.theorem) for p in prediction.points] == [
        (F(1, 4), VERDICT_POSITIVE_PROBABILITY, THEOREM_STABLE_ATTRACTION),
        (F(3, 4), VERDICT_POSITIVE_PROBABILITY, THEOREM_STABLE_ATTRACTION),
    ]
    assert [(p.root.value, p.theorem) for p in prediction.excluded] == [
        (F(1, 2), THEOREM_NOISE_FLOOR_EXCLUSION)
    ]


def test_touchpoint_prediction():
    prediction = predict_limit(two_draw_model([35, 9, 1, 1, 3, 21], 2, 2))
    assert [(p.root.value, p.verdict, p.theorem) for p in prediction.points] == [
        (F(1, 4), VERDICT_TOUCHPOINT, THEOREM_TOUCHPOINT_POSSIBLE),
        (F(3, 4), VERDICT_POSITIVE_PROBABILITY, THEOREM_STABLE_ATTRACTION),
    ]


# ---------------------------------------------------------------------------
# Predictions: single-draw laws
# ---------------------------------------------------------------------------

def test_flat_single_draw_beta_law():
    prediction = predict_limit(one_draw_model([1, 0, 0, 1], 1, 1))
    assert prediction.kind is PredictionKind.BETA_DISTRIBUTION
    assert prediction.beta_params == (F(1), F(1))
    assert prediction.theorem == THEOREM_SINGLE_DRAW_LAW

    prediction = predict_limit(one_draw_model([1, 0, 0, 1], 2, 1))
    assert prediction.beta_params == (F(2), F(1))

    # diagonal reinforcement a = d = 2 rescales the shape parameters
    prediction = predict_limit(one_draw_model([2, 0, 0, 2], 3, 1))
    assert prediction.beta_params == (F(3, 2), F(1, 2))


def test_flat_single_draw_frozen_start():
    prediction = predict_limit(one_draw_model([1, 0, 0, 1], 0, 3))
    assert prediction.kind is PredictionKind.POINT_MASS_SET
    assert [(p.root.value, p.verdict) for p in prediction.points] == [
        (F(0), VERDICT_UNIQUE)
    ]


def test_single_draw_stable_interior_point():
    # (1,1,1,1): drift 1 - 2x, stable at 1/2, unique certified limit
    prediction = predict_limit(one_draw_model([1, 1, 1, 1], 1, 1))
    assert [(p.root.value, p.verdict, p.theorem) for p in prediction.points] == [
        (F(1, 2), VERDICT_UNIQUE, THEOREM_LIMIT_EXISTS)
    ]


def test_single_draw_boundary_attractor_not_excluded_interior_scope():
    # (2,0,0,1): drift x(1-x); 0 repels (white count diverges there), 1 attracts
    prediction = predict_limit(one_draw_model([2, 0, 0, 1], 1, 1))
    assert prediction.kind is PredictionKind.POINT_MASS_SET
    values = {p.root.value: p.verdict for p in prediction.points}
    assert values.get(F(1)) in (VERDICT_POSITIVE_PROBABILITY, VERDICT_UNIQUE)
    excluded_values = [p.root.value for p in prediction.excluded]
    assert F(0) in excluded_values


# ---------------------------------------------------------------------------
# Predictions: flat pair-draw family and unknowns
# ---------------------------------------------------------------------------

def test_flat_pair_draw_without_replacement_no_atoms():
    # a=2d, f=2c, b=e=0 makes the pair drift vanish identically
    prediction = predict_limit(two_draw_model([2, 0, 1, 1, 0, 2], 2, 2))
    assert prediction.kind is PredictionKind.CONTINUOUS_NO_ATOMS
    assert prediction.theorem == THEOREM_PAIR_FLAT_CONTINUOUS


def test_flat_pair_draw_with_replacement_unknown():
    prediction = predict_limit(
        two_draw_model([2, 0, 1, 1, 0, 2], 2, 2, sampling=WITH_REPLACEMENT)
    )
    assert prediction.kind is PredictionKind.UNKNOWN


# ---------------------------------------------------------------------------
# Predictions: inactive-row models
# ---------------------------------------------------------------------------

def test_single_active_row_prediction():
    prediction = predict_limit(two_draw_model([2, 3, 0, 0, 0, 0], 2, 2))
    assert [(p.root.value, p.verdict) for p in prediction.points] == [
        (F(2, 5), VERDICT_UNIQUE)
    ]


def test_case4_prediction_maps_back():
    prediction = predict_limit(two_draw_model([0, 0, 1, 1, 1, 1], 2, 2))
    assert [(p.root.value, p.verdict, p.theorem) for p in prediction.points] == [
        (F(1, 2), VERDICT_UNIQUE, THEOREM_LIMIT_EXISTS)
    ]


def test_case4_borderline_is_unknown():
    # d = 0 with f = 2c puts the reduced boundary analysis out of reach
    prediction = predict_limit(two_draw_model([0, 0, 1, 0, 1, 2], 2, 2))
    assert prediction.kind is PredictionKind.UNKNOWN


BORDERLINE_NOTE = "a borderline boundary root leaves the long-run behaviour unsettled"
rational_entry = st.builds(F, st.integers(0, 6), st.integers(1, 3))


@st.composite
def case_4_or_5_entries(draw):
    """Case-4 entries ``(0, 0, c, d, e, f)``, about half with ``f = 2c`` and
    half of those with ``d = 0`` too, and whether to mirror them into case 5."""
    c, d, e, f = (draw(rational_entry) for _ in range(4))
    if draw(st.booleans()):
        c = c or F(1)
        f = 2 * c
        if draw(st.booleans()):
            d = F(0)
    # Both remaining rows active: a row sum of zero is another case.
    if c + d == 0:
        d = F(1)
    if e + f == 0:
        f = F(1)
    return (0, 0, c, d, e, f), draw(st.booleans())


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(case_4_or_5_entries(), st.sampled_from([WITH_REPLACEMENT, WITHOUT_REPLACEMENT]))
def test_borderline_unknown_is_the_entry_rule_on_a_nonzero_reduced_drift(drawn, sampling):
    # The reduced root at y = 1 of multiplicity 2 is the entry rule d = 0,
    # f = 2c, read on the case-4 entries; case 5 reverses them.
    entries, mirrored = drawn
    model = two_draw_model(entries[::-1] if mirrored else entries, 2, 2, sampling=sampling)
    reduction = degenerate_reduce(model)
    assert reduction.case_id == (5 if mirrored else 4)
    _, _, c, d, _, f = entries
    borderline = d == 0 and f == 2 * c and not reduction.reduced_drift.is_zero
    prediction = predict_limit(model)
    assert (BORDERLINE_NOTE in prediction.notes) == borderline
    if borderline:
        assert prediction.kind is PredictionKind.UNKNOWN


def test_case6_irrational_point_keeps_its_factor():
    # The identity map of case 6 returns the drift's root record as it is.
    model = two_draw_model([0, 1, 0, 0, 1, 1], 2, 2)
    (point,) = predict_limit(model).points
    (root,) = roots_in_unit_interval(drift_for(model))
    assert point.root.value is None and point.root == root
    assert point.root.factor is not None
    assert point.root.within(F(2, 5), F(1, 2), strict=True)


def test_case6_prediction():
    prediction = predict_limit(two_draw_model([1, 1, 0, 0, 1, 1], 2, 2))
    assert [(p.root.value, p.verdict) for p in prediction.points] == [
        (F(1, 2), VERDICT_UNIQUE)
    ]


def test_case6_repeller_is_not_excluded_by_the_noise_floor():
    # The noise-floor exclusion needs every row active; with the mixed row
    # inactive the interior repeller 1/2 stays a candidate.
    model = two_draw_model([1, 0, 0, 0, 0, 1], 2, 2)
    prediction = predict_limit(model)
    assert check_noise_floor(error_for(model), roots_in_unit_interval(drift_for(model))[1])
    assert prediction.excluded == ()
    assert [(p.root.value, p.classification, p.verdict) for p in prediction.points] == [
        (F(0), EquilibriumClass.STABLE, VERDICT_POSITIVE_PROBABILITY),
        (F(1, 2), EquilibriumClass.STRICTLY_UNSTABLE, VERDICT_UNKNOWN),
        (F(1), EquilibriumClass.STABLE, VERDICT_POSITIVE_PROBABILITY),
    ]


def test_case6_touchpoint_is_not_a_possible_touchpoint():
    # The touchpoint verdict needs every row active, too; 1/2 lies inside
    # the span (1/3, 1) of the active rows' white ratios.
    prediction = predict_limit(two_draw_model([1, 0, 0, 0, 1, 2], 2, 2))
    assert [(p.root.value, p.classification, p.verdict, p.theorem) for p in prediction.points] == [
        (F(1, 2), EquilibriumClass.TOUCHPOINT, VERDICT_UNKNOWN, None),
        (F(1), EquilibriumClass.STABLE, VERDICT_POSITIVE_PROBABILITY, THEOREM_STABLE_ATTRACTION),
    ]


def test_mapped_irrational_root_has_no_defining_factor():
    # Case 4 maps the reduced root back by x = y/(2-y); the mapped record
    # keeps an interval around sqrt(2) - 1 but no factor to refine it with.
    (point,) = predict_limit(two_draw_model([0, 0, 0, 1, 1, 0], 2, 2)).points
    assert point.root.value is None and point.root.approx == pytest.approx(2**0.5 - 1)
    with pytest.raises(ValueError, match="no defining factor"):
        point.root.within(F(0), F(1), strict=True)
    with pytest.raises(ValueError, match="no defining factor"):
        sign_at_root(P(0, 1), point.root)


# ---------------------------------------------------------------------------
# Scheme constants and serialization
# ---------------------------------------------------------------------------

def test_scheme_constants():
    scheme = sa_conditions_for(two_draw_model([3, 2, 2, 3, 1, 4], 2, 2))
    assert scheme.initial_total == 4
    assert scheme.t_min == 5 and scheme.t_max == 5
    assert scheme.lower_rate == F(1, 9)  # first-step rate 1/(T0 + t_max)
    assert scheme.upper_rate == F(1, 5)
    assert scheme.drift_sup >= 1


def test_analysis_dict_serializable_and_stable():
    import json

    model = two_draw_model([15, 3, 4, 1, 3, 21], 5, 2)
    payload = analysis_to_dict(analyze_model(model))
    text = json.dumps(payload, indent=2)
    assert json.loads(text) == payload
    assert payload["prediction"]["excluded"][0]["theorem"] == THEOREM_NOISE_FLOOR_EXCLUSION
    assert payload["attainable"] == {"lower": "1/8", "upper": "5/6", "closed_bounds": True}


def test_prediction_round_trip():
    for model in (
        two_draw_model([15, 3, 4, 1, 3, 21], 5, 2),
        two_draw_model([35, 9, 1, 1, 3, 21], 2, 2),
        one_draw_model([1, 0, 0, 1], 2, 1),
        two_draw_model([2, 0, 1, 1, 0, 2], 2, 2),
    ):
        prediction = predict_limit(model)
        data = prediction_to_dict(prediction)
        back = prediction_from_dict(data)
        assert back.kind is prediction.kind
        assert back.beta_params == prediction.beta_params
        assert [p.root.value for p in back.points] == [p.root.value for p in prediction.points]
        assert [p.verdict for p in back.points] == [p.verdict for p in prediction.points]
        assert [p.theorem for p in back.excluded] == [p.theorem for p in prediction.excluded]


def test_boundary_exclusion_in_prediction():
    # (2,0,0,1): at proportion 0 the drift repels and the white count diverges,
    # so 0 is excluded by the boundary-divergence argument
    prediction = predict_limit(one_draw_model([2, 0, 0, 1], 1, 1))
    excluded = {p.root.value: p.theorem for p in prediction.excluded}
    assert excluded[F(0)] in (THEOREM_BOUNDARY_EXCLUSION, THEOREM_NOISE_FLOOR_EXCLUSION)
