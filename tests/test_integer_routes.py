"""The integer routes of the analysis against their ``Fraction`` references.

The analysis decides every scalar question on integers and builds each
``Fraction`` once, where a record stores it. Each integer route here is
checked against the ``Fraction`` arithmetic it replaces: a root's float
approximation against ``float`` of its exact midpoint, bit for bit; the
scheme constants against the ``Fraction`` formula in ``helpers``; and the
refusals of bad models and refinement widths, which keep their messages
whatever the type of the input. Examples are derandomized and no example
database is kept, so the suite is deterministic.
"""

from decimal import Decimal
from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from polyurn.analysis import analyze_model
from polyurn.ratpoly import DEFAULT_REFINE_WIDTH, RatPoly, RootRecord, roots_in_unit_interval
from polyurn.stability import SAConditions
from polyurn.urns import one_draw_model, two_draw_model

from helpers import reference_scheme_constants
from test_analysis_golden import corpus

PROPERTIES = settings(derandomize=True, database=None, deadline=None)


def _roots(analysis):
    prediction = analysis.prediction
    yield from (eq.root for eq in analysis.equilibria)
    yield from (p.root for p in prediction.points + prediction.excluded)


def test_approx_is_the_float_of_the_exact_position_over_the_corpus():
    roots = [root for model in corpus() for root in _roots(analyze_model(model))]
    assert sum(root.value is None for root in roots) >= 10
    assert [r.approx.hex() for r in roots] == [float(r.position()).hex() for r in roots]


_BIG = 10**4000  # endpoints of 4000 digits and more


@PROPERTIES
@given(st.integers(0, _BIG), st.integers(1, _BIG), st.integers(1, _BIG), st.integers(1, _BIG))
@example(_BIG // 3, _BIG, 1, _BIG)  # endpoints of 4000 digits, 1e-4000 apart
@example(0, 1, 1, 3 * _BIG)  # the interval (0, 1e-4000 / 3)
@example(1, 2, 1, 1)
def test_approx_is_the_float_of_the_midpoint_of_any_interval(a, b, c, d):
    # lo = a/(a + b) in [0, 1), and hi = lo + (1 - lo) c/(c + d) in (lo, 1)
    lo = F(a, a + b)
    hi = lo + (1 - lo) * F(c, c + d)
    record = RootRecord(1, interval=(lo, hi))
    assert record.approx.hex() == float(record.position()).hex() == float((lo + hi) / 2).hex()


@pytest.mark.parametrize("value", [F(0), F(1), F(1, 3), F(2, 7), F(10**4000 + 1, 3 * 10**4000)])
def test_approx_of_a_rational_root_is_its_float(value):
    assert RootRecord(2, value=value).approx.hex() == float(value).hex()


def test_scheme_constants_are_the_fraction_formula_over_the_corpus():
    checked = 0
    for model in corpus():
        scheme = analyze_model(model).scheme
        if scheme is None:  # a row adds no balls
            continue
        expected = reference_scheme_constants(model)
        assert scheme._values() == expected
        assert all(type(v) is F for v in scheme._values())
        assert repr(scheme) == repr(SAConditions(*expected))
        checked += 1
    assert checked >= 100


def test_scheme_constants_keep_their_checks():
    good = reference_scheme_constants(two_draw_model([15, 3, 4, 1, 3, 21], 5, 2))
    for index, bad in [(1, F(0)), (4, F(-1, 3)), (8, 0)]:
        values = list(good)
        values[index] = bad
        with pytest.raises(ValueError, match="scheme constants must all be positive"):
            SAConditions(*values)
    values = list(good)
    values[3] = values[4] + 1  # lower_rate above upper_rate
    with pytest.raises(ValueError, match="rate bounds are inverted"):
        SAConditions(*values)
    values = list(good)
    values[7] += F(1, 10**30)
    with pytest.raises(ValueError, match="increment bound must tie"):
        SAConditions(*values)


def _as(kind, value):
    """``value`` as an int, a float, a string or a Fraction."""
    return {"int": int, "float": float, "str": str, "fraction": F}[kind](value)


KINDS = ["int", "float", "str", "fraction"]


@pytest.mark.parametrize("kind", KINDS)
def test_model_refusals_keep_their_messages_for_every_input_type(kind):
    def one(entries, w0=1, b0=1):
        return one_draw_model([_as(kind, v) for v in entries], _as(kind, w0), _as(kind, b0))

    def pair(entries, w0=2, b0=2):
        return two_draw_model([_as(kind, v) for v in entries], _as(kind, w0), _as(kind, b0))

    for build, entries in [(one, [1, 0, 0, 1]), (pair, [1, 0, 1, 1, 0, 1])]:
        negative = [-1, *entries[1:]] if kind != "float" else [-0.5, *entries[1:]]
        with pytest.raises(ValueError, match="^replacement matrix entries must be nonnegative$"):
            build(negative)
        with pytest.raises(ValueError, match="^replacement matrix must have a positive entry$"):
            build([0] * len(entries))
        with pytest.raises(ValueError, match="^the urn must start nonempty$"):
            build(entries, 0, 0)
        with pytest.raises(ValueError, match="^initial counts must be nonnegative$"):
            build(entries, -1, 3)
        assert build(entries, 0, 3).w0 == 0


_X2_HALF = RatPoly([F(-1, 2), 0, 1])  # x^2 - 1/2, an irrational root


@pytest.mark.parametrize("width", [0, -1, 0.0, -1e-9, F(0), F(-1, 3), Decimal("0"),
                                   np.float64(-0.5)], ids=repr)
def test_a_width_that_is_not_positive_is_refused(width):
    with pytest.raises(ValueError, match="^refine_width must be positive$"):
        roots_in_unit_interval(_X2_HALF, width)


def test_a_width_that_does_not_compare_with_zero_is_refused_as_before():
    with pytest.raises(TypeError, match="'<=' not supported between instances of 'str' and 'int'"):
        roots_in_unit_interval(_X2_HALF, "1/10")


@pytest.mark.parametrize("width", [1, 1e-12, 2**-40, F(1, 10**12), Decimal("1e-12"),
                                   np.float64(1e-9), DEFAULT_REFINE_WIDTH], ids=repr)
def test_every_width_type_refines_as_its_fraction(width):
    poly = RatPoly([F(-1, 2), 0, 1]) * RatPoly([F(-1, 3), 1]) * RatPoly([-2, 0, 9])
    assert roots_in_unit_interval(poly, width) == roots_in_unit_interval(poly, F(width))
