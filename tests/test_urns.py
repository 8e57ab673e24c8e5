"""Urn models: step laws, exact drift/noise closed forms, reductions, serialization.

Closed forms are checked here on fixtures. Their identities against
``cond_moments_oracle``, which computes the same conditional moments by
direct enumeration of the outcome distribution, are properties in
``test_urns_properties.py``. The identities that the ``polyurn.oracle``
suites check exactly (bias numerators and closed forms, the pair noise mean,
the variance decomposition, the inactive-row reductions) are run by
acceptance criteria 3 and 4 and not repeated here.
"""

import json
import random
from fractions import Fraction

import pytest

from polyurn import urns
from polyurn.analysis import analysis_to_dict, analyze_model
from polyurn.ratpoly import RatPoly, RootRecord
from polyurn.oracle import (
    UrnState,
    cond_iv_remainders,
    random_one_matrix,
    random_two_matrix,
    step_distribution,
)
from polyurn.urns import (
    ONE_DRAW,
    TWO_DRAW,
    WITH_REPLACEMENT,
    WITHOUT_REPLACEMENT,
    OneDrawMatrix,
    TwoDrawMatrix,
    UrnModel,
    attainable_interval,
    black_count_diverges_at_one,
    degenerate_case_id,
    degenerate_reduce,
    drift_for,
    drift_one,
    drift_two,
    error_one,
    error_two,
    model_from_dict,
    model_meta,
    model_to_dict,
    one_draw_model,
    two_draw_model,
    white_count_diverges_at_zero,
)

F = Fraction


def P(*coeffs):
    return RatPoly([F(c) for c in coeffs])


def random_state(rng):
    return UrnState(F(rng.randint(4, 60), rng.randint(1, 2)),
                    F(rng.randint(4, 60), rng.randint(1, 2)), 0)


# ---------------------------------------------------------------------------
# Matrices and models
# ---------------------------------------------------------------------------

def test_matrix_entry_validation():
    with pytest.raises(ValueError):
        OneDrawMatrix.from_entries([1, -1, 0, 0])
    with pytest.raises(ValueError):
        TwoDrawMatrix.from_entries([1, 2, 3])
    with pytest.raises(ValueError):
        OneDrawMatrix.from_entries([1, 2, 3])


def test_row_sums():
    assert TwoDrawMatrix.from_entries([15, 3, 4, 1, 3, 21]).scaled.row_sums == (18, 5, 24)
    assert OneDrawMatrix.from_entries([3, 2, 2, 3]).scaled.row_sums == (5, 5)
    halves = OneDrawMatrix.from_entries([F(1, 2), F(1, 3), 2, 3])
    assert (halves.scaled.scale, halves.scaled.row_sums) == (6, (5, 30))


def test_color_swap_involution():
    m = TwoDrawMatrix.from_entries([15, 3, 4, 1, 3, 21])
    assert m.color_swap().entries == (21, 3, 1, 4, 3, 15)
    assert m.color_swap().color_swap() == m
    one = OneDrawMatrix.from_entries([3, 2, 0, 1])
    assert one.color_swap().entries == (1, 0, 2, 3)


def test_one_draw_forces_with_replacement():
    model = one_draw_model([1, 0, 0, 1], 1, 1)
    assert model.sampling == WITH_REPLACEMENT


def test_the_draw_rule_is_the_matrix_class():
    one, two = one_draw_model([3, 2, 0, 1], 1, 2), two_draw_model([15, 3, 4, 1, 3, 21], 5, 2)
    for model, kind in ((one, ONE_DRAW), (two, TWO_DRAW)):
        for same_rule in (model, model.color_swap(), model_from_dict(model_to_dict(model))):
            assert same_rule.kind == same_rule.matrix.kind == kind
    assert "kind" not in UrnModel._fields
    # The old leading kind argument, the entries, a scaled view: none is a matrix.
    for not_a_matrix in (TWO_DRAW, list(two.matrix.entries), two.scaled, None):
        with pytest.raises(ValueError, match="needs a replacement matrix"):
            UrnModel(not_a_matrix, 2, 2)
    with pytest.raises(ValueError, match="needs a replacement matrix"):
        UrnModel(TWO_DRAW, two.matrix, 2, 2)


def test_model_start_validation():
    with pytest.raises(ValueError):
        one_draw_model([1, 0, 0, 1], -1, 1)
    with pytest.raises(ValueError):
        one_draw_model([1, 0, 0, 1], 0, 0)  # empty urn cannot be drawn from
    two_draw_model([1, 1, 1, 1, 1, 1], 2, 2).validate_for_simulation()
    with pytest.raises(ValueError):
        two_draw_model([1, 1, 1, 1, 1, 1], 1, 5).validate_for_simulation()


# ---------------------------------------------------------------------------
# Step distributions
# ---------------------------------------------------------------------------

def test_single_draw_distribution():
    model = one_draw_model([3, 2, 2, 3], 1, 1)
    outcomes = step_distribution(UrnState(F(1), F(2), 0), model)
    assert [(o.probability, o.add_white, o.add_black) for o in outcomes] == [
        (F(1, 3), F(3), F(2)),
        (F(2, 3), F(2), F(3)),
    ]


def test_pair_draw_without_replacement_distribution():
    model = two_draw_model([15, 3, 4, 1, 3, 21], 2, 2)
    outcomes = step_distribution(UrnState(F(2), F(3), 0), model)
    assert [o.probability for o in outcomes] == [F(1, 10), F(3, 5), F(3, 10)]
    assert [(o.add_white, o.add_black) for o in outcomes] == [
        (F(15), F(3)),
        (F(4), F(1)),
        (F(3), F(21)),
    ]


def test_pair_draw_with_replacement_distribution():
    model = two_draw_model([15, 3, 4, 1, 3, 21], 2, 2, sampling=WITH_REPLACEMENT)
    outcomes = step_distribution(UrnState(F(2), F(3), 0), model)
    assert [o.probability for o in outcomes] == [F(4, 25), F(12, 25), F(9, 25)]


def test_probabilities_sum_to_one_randomly():
    rng = random.Random(11)
    for _ in range(60):
        state = random_state(rng)
        for model in (
            UrnModel(random_one_matrix(rng), F(1), F(1), WITH_REPLACEMENT),
            UrnModel(random_two_matrix(rng), F(2), F(2), WITHOUT_REPLACEMENT),
            UrnModel(random_two_matrix(rng), F(2), F(2), WITH_REPLACEMENT),
        ):
            outcomes = step_distribution(state, model)
            assert sum(o.probability for o in outcomes) == 1
            assert all(o.probability >= 0 for o in outcomes)


def test_fractional_pair_draw_below_one_rejected():
    model = two_draw_model([1, 1, 1, 1, 1, 1], 2, 2)
    with pytest.raises(ValueError):
        step_distribution(UrnState(F(1, 2), F(5), 0), model)


def test_pair_draw_needs_two_balls():
    model = two_draw_model([1, 1, 1, 1, 1, 1], 2, 2)
    with pytest.raises(ValueError):
        step_distribution(UrnState(F(1), F(0), 0), model)


# ---------------------------------------------------------------------------
# Drift
# ---------------------------------------------------------------------------

def test_drift_one_coefficients():
    # add-white row (a, b), add-black row (c, d):
    # constant c, linear a - 2c - d, quadratic c + d - a - b
    assert drift_one(OneDrawMatrix.from_entries([2, 0, 0, 1])) == P(0, 1, -1)
    assert drift_one(OneDrawMatrix.from_entries([1, 0, 0, 1])) == P(0)
    assert drift_one(OneDrawMatrix.from_entries([1, 1, 1, 1])) == P(1, -2)


def test_drift_two_fixture():
    assert drift_two(TwoDrawMatrix.from_entries([9, 1, 2, 3, 1, 7])) == P(1, -6, 12, -8)


# ---------------------------------------------------------------------------
# Noise
# ---------------------------------------------------------------------------

def test_error_one_gap_and_error():
    noise = error_one(OneDrawMatrix.from_entries([2, 0, 0, 1]))
    assert noise.gap == P(2, -1)
    x, one = P(0, 1), P(1)
    assert noise.error == x * (one - x) * noise.gap * noise.gap


def test_error_two_fixture_value():
    noise = error_two(TwoDrawMatrix.from_entries([15, 3, 4, 1, 3, 21]))
    assert noise.error.evaluate(F(1, 2)) == F(243, 8)


# ---------------------------------------------------------------------------
# Per-step bias closed forms
# ---------------------------------------------------------------------------

def test_pair_remainders_need_two_balls():
    m = TwoDrawMatrix.from_entries([1, 1, 1, 1, 1, 1])
    with pytest.raises(ValueError):
        cond_iv_remainders(UrnState(F(1, 2), F(1, 2), 0), m)


# ---------------------------------------------------------------------------
# Attainable interval and divergence flags
# ---------------------------------------------------------------------------

def test_attainable_interval_pair_fixtures():
    interval = attainable_interval(two_draw_model([15, 3, 4, 1, 3, 21], 2, 2))
    assert (interval.lower, interval.upper, interval.closed_bounds) == (F(1, 8), F(5, 6), True)
    interval = attainable_interval(two_draw_model([35, 9, 1, 1, 3, 21], 2, 2))
    assert (interval.lower, interval.upper) == (F(1, 8), F(35, 44))


def test_attainable_interval_single_draw_is_open_unit():
    interval = attainable_interval(one_draw_model([1, 0, 0, 1], 1, 1))
    assert (interval.lower, interval.upper, interval.closed_bounds) == (F(0), F(1), False)
    strict = not interval.closed_bounds
    assert not RootRecord(1, value=F(0)).within(interval.lower, interval.upper, strict=strict)
    assert RootRecord(1, value=F(1, 2)).within(interval.lower, interval.upper, strict=strict)


def test_count_divergence_flags():
    assert white_count_diverges_at_zero(one_draw_model([1, 0, 0, 1], 1, 1))
    assert not white_count_diverges_at_zero(one_draw_model([0, 1, 1, 0], 1, 1))
    # pair draws: mixed-row white additions keep the count growing near 0
    assert white_count_diverges_at_zero(two_draw_model([15, 3, 4, 1, 3, 21], 2, 2))
    # c = e = f = 0 but a > 0: only the (vanishing) white-white row adds white
    assert white_count_diverges_at_zero(two_draw_model([2, 1, 0, 1, 0, 0], 2, 2))
    assert not white_count_diverges_at_zero(two_draw_model([0, 1, 0, 1, 0, 1], 2, 2))
    assert black_count_diverges_at_one(two_draw_model([15, 3, 4, 1, 3, 21], 2, 2))


# ---------------------------------------------------------------------------
# Inactive-row (degenerate) machinery
# ---------------------------------------------------------------------------

def test_degenerate_case_ids():
    assert degenerate_case_id(two_draw_model([15, 3, 4, 1, 3, 21], 2, 2)) == 0
    assert degenerate_case_id(two_draw_model([2, 3, 0, 0, 0, 0], 2, 2)) == 1
    assert degenerate_case_id(two_draw_model([0, 0, 0, 0, 2, 3], 2, 2)) == 2
    assert degenerate_case_id(two_draw_model([0, 0, 2, 3, 0, 0], 2, 2)) == 3
    assert degenerate_case_id(two_draw_model([0, 0, 2, 3, 1, 4], 2, 2)) == 4
    assert degenerate_case_id(two_draw_model([2, 3, 1, 4, 0, 0], 2, 2)) == 5
    assert degenerate_case_id(two_draw_model([2, 3, 0, 0, 1, 4], 2, 2)) == 6
    assert degenerate_case_id(one_draw_model([1, 2, 0, 0], 1, 1)) == 1
    assert degenerate_case_id(one_draw_model([0, 0, 1, 2], 1, 1)) == 2


def test_single_active_row_fixed_limit():
    reduction = degenerate_reduce(two_draw_model([2, 3, 0, 0, 0, 0], 2, 2))
    assert reduction.case_id == 1 and reduction.fixed_limit == F(2, 5)
    reduction = degenerate_reduce(two_draw_model([0, 0, 0, 0, 2, 3], 2, 2))
    assert reduction.fixed_limit == F(2, 5)
    reduction = degenerate_reduce(two_draw_model([0, 0, 2, 3, 0, 0], 2, 2))
    assert reduction.fixed_limit == F(2, 5)


def test_case4_reduction_and_map_back():
    model = two_draw_model([0, 0, 1, 1, 1, 1], 2, 2)
    reduction = degenerate_reduce(model)
    assert reduction.case_id == 4
    assert reduction.reduced_drift == P(2, -3)
    # reduced-variable root 2/3 sits at original proportion 1/2
    assert reduction.to_original(F(2, 3)) == F(1, 2)
    assert reduction.to_original(F(0)) == F(0)
    assert reduction.to_original(F(1)) == F(1)


def test_case6_reduction_weight():
    model = two_draw_model([2, 3, 0, 0, 1, 4], 2, 2)
    reduction = degenerate_reduce(model)
    assert reduction.case_id == 6
    assert reduction.weight_denominator == P(1, -2, 2)  # x^2 + (1-x)^2
    # embedded drift is reduced_drift / weight_denominator; the stored
    # numerator is the plain cubic drift, so signs and zeros coincide
    assert reduction.reduced_drift == drift_for(model)
    assert reduction.to_original(F(1, 3)) == F(1, 3)


@pytest.mark.parametrize("entries, rises", [
    ([0, 0, 1, 1, 1, 1], True),  # case 4: y = 2x/(1+x)
    ([1, 1, 1, 1, 0, 0], False),  # case 5: its color mirror, y = 2(1-x)/(2-x)
    ([2, 3, 0, 0, 1, 4], True),  # case 6: y = x
], ids=["case-4", "case-5", "case-6"])
def test_reduced_variable_round_trips_and_is_monotone(entries, rises):
    reduction = degenerate_reduce(two_draw_model(entries, 2, 2))
    xs = sorted({F(k, 24) for k in range(25)} | {F(1, 7), F(5, 9), F(99, 100)})
    ys = [reduction.to_reduced(x) for x in xs]
    assert [reduction.to_original(y) for y in ys] == xs
    assert all(0 <= y <= 1 for y in ys)
    assert ys == sorted(set(ys), reverse=not rises)


def test_single_draw_degenerate_limit():
    assert degenerate_reduce(one_draw_model([3, 1, 0, 0])).fixed_limit == F(3, 4)
    assert degenerate_reduce(one_draw_model([0, 0, 2, 3])).fixed_limit == F(2, 5)


def test_model_meta_fields():
    meta = model_meta(two_draw_model([15, 3, 4, 1, 3, 21], 2, 2))
    assert meta.kind == TWO_DRAW
    assert meta.t_min == 5 and meta.t_max == 24
    assert meta.degenerate_case == 0
    assert meta.white_count_diverges_at_zero and meta.black_count_diverges_at_one


@pytest.mark.parametrize("model, pair_drifts", [
    (lambda: one_draw_model([3, 1, 1, 2]), 0),
    (lambda: two_draw_model([15, 3, 4, 1, 3, 21], 5, 2), 1),
    (lambda: two_draw_model([F(15, 2), 3, 4, 1, 3, 21], 5, 2, sampling=WITH_REPLACEMENT), 1),
    (lambda: two_draw_model([2, 1, 1, 1, 1, 0]), 1),
    (lambda: two_draw_model([1, 2, 3, 1, 0, 0], F(5, 2), 3), 1),  # black-black row inactive
    (lambda: two_draw_model([1, 2, 0, 0, 1, 3]), 1),  # mixed row inactive
], ids=["one-draw", "pair", "pair-fractional-with", "irrational-root", "case-5", "case-6"])
def test_one_analysis_builds_the_scaled_view_once(model, pair_drifts, monkeypatch):
    calls = {"_scale": 0, "_pair_drift_coeffs": 0}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(urns, name)):
            calls[_name] += 1
            return _original(*args)
        monkeypatch.setattr(urns, name, counted)
    analysis_to_dict(analyze_model(model()))
    assert calls == {"_scale": 1, "_pair_drift_coeffs": pair_drifts}


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def test_model_dict_round_trip():
    models = [
        one_draw_model([F(1, 2), 0, F(3, 4), 1], F(3, 2), 2),
        two_draw_model([15, 3, 4, 1, 3, 21], 5, 2),
        two_draw_model([1, 2, 3, 4, 5, 6], 2, 2, sampling=WITH_REPLACEMENT),
    ]
    for model in models:
        data = model_to_dict(model)
        json.dumps(data)  # JSON-serializable
        assert model_from_dict(data) == model


def test_model_from_dict_uses_the_constructor_start_defaults():
    one = model_from_dict({"model": "one-draw", "matrix": [[1, 0], [0, 1]]})
    two = model_from_dict({"model": "two-draw", "matrix": [[1, 0], [0, 1], [1, 1]], "w0": 3})
    assert (one.w0, one.b0) == (1, 1)
    assert (two.w0, two.b0) == (3, 2)


def test_model_from_dict_rejects_bad_input():
    with pytest.raises((ValueError, KeyError, TypeError)):
        model_from_dict({"model": "three-draw"})
    with pytest.raises((ValueError, KeyError, TypeError)):
        model_from_dict({"model": "one-draw", "matrix": [["1", "2"]], "w0": "1", "b0": "1"})
    # Single draws sample with replacement; a file that asks otherwise is refused, as the flag is.
    with pytest.raises(ValueError, match='"sampling": "without" applies only to pair-draw'):
        model_from_dict({"model": "one-draw", "matrix": [["1", "0"], ["0", "1"]],
                         "sampling": "without"})


def test_one_draw_model_file_may_name_its_own_sampling():
    data = {"model": "one-draw", "matrix": [["1", "0"], ["0", "1"]]}
    assert model_from_dict({**data, "sampling": "with"}) == model_from_dict(data)
