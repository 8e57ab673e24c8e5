"""Exact-polynomial kernel: arithmetic, factoring, and root isolation."""

import random
from fractions import Fraction

import numpy as np
import pytest

import polyurn.ratpoly as ratpoly
from polyurn.ratpoly import (
    INTERIOR,
    LEFT_BOUNDARY,
    RIGHT_BOUNDARY,
    RatPoly,
    RootRecord,
    _int_sign,
    _remainder_sequence,
    count_distinct_roots,
    format_rational,
    parse_rational,
    roots_in_unit_interval,
    sign_at,
    sign_at_root,
    squarefree_decomposition,
    sturm_chain,
)

from polyurn.urns import drift_for, two_draw_model

from helpers import poly_divmod, poly_from_roots, refine_root

F = Fraction


def P(*coeffs):
    return RatPoly([F(c) for c in coeffs])


# ---------------------------------------------------------------------------
# Rational parsing / formatting
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text,value", [
    ("3", F(3)),
    ("-7", F(-7)),
    ("1/4", F(1, 4)),
    ("-35/44", F(-35, 44)),
    ("0", F(0)),
])
def test_parse_rational(text, value):
    assert parse_rational(text) == value


@pytest.mark.parametrize("value", [F(3), F(-7), F(1, 4), F(-35, 44), F(0), F(22, 7)])
def test_format_parse_round_trip(value):
    assert parse_rational(format_rational(value)) == value


def test_format_rational_integers_render_bare():
    assert format_rational(F(15)) == "15"
    assert format_rational(F(1, 8)) == "1/8"


@pytest.mark.parametrize("bad", ["", "1/0", "x", "1.5.2", "2/3/4", "1e-99999999", "1e999999999"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


# ---------------------------------------------------------------------------
# Polynomial basics
# ---------------------------------------------------------------------------

def test_canonical_trim_and_degree():
    assert P(1, 2, 0, 0) == P(1, 2)
    assert P(1, 2).degree == 1
    assert P(0).is_zero and P(0).degree == -1
    assert P(5).degree == 0


def test_arithmetic():
    f = P(1, -3)          # 1 - 3x
    g = P(0, 1)           # x
    assert f + g == P(1, -2)
    assert f - g == P(1, -4)
    assert f * g == P(0, 1, -3)
    assert -f == P(-1, 3)
    assert 2 * f == P(2, -6)
    assert f * 0 == P(0)


def test_divmod_reconstructs():
    f = P(3, -22, 48, -32)
    g = P(-1, 4)  # 4x - 1
    q, r = poly_divmod(f, g)
    assert q * g + r == f
    assert r.degree < g.degree


def test_evaluate_horner():
    f = P(3, -22, 48, -32)
    assert f.evaluate(F(1, 4)) == 0
    assert f.evaluate(F(1, 2)) == 0
    assert f.evaluate(F(3, 4)) == 0
    assert f.evaluate(F(1, 8)) == F(3) - F(22, 8) + F(48, 64) - F(32, 512)


def test_derivative():
    assert P(3, -22, 48, -32).derivative() == P(-22, 96, -96)
    assert P(7).derivative().is_zero


def test_from_roots():
    f = poly_from_roots([F(1, 4), F(1, 2), F(3, 4)], scale=F(-32))
    assert f == P(3, -22, 48, -32)


def test_to_text():
    assert P(1, -3).to_text() == "1 - 3*x"
    assert P(0, 0, 2).to_text() == "2*x^2"
    assert P(0).to_text() == "0"


def test_coefficient_strings_round_trip():
    f = P(F(1, 2), -3, F(7, 5))
    strings = f.coefficient_strings()
    assert strings == ["1/2", "-3", "7/5"]
    assert RatPoly([parse_rational(s) for s in strings]) == f


# ---------------------------------------------------------------------------
# GCD and square-free structure
# ---------------------------------------------------------------------------

def test_poly_gcd_shared_factor():
    shared = P(-1, 2)  # 2x - 1
    f = shared * P(1, 1)
    g = shared * P(3, 0, 1)
    gcd = RatPoly(_remainder_sequence(f, g)[-1]).monic()
    assert gcd.monic() == shared.monic()


def test_poly_gcd_coprime_is_constant():
    assert RatPoly(_remainder_sequence(P(1, 1), P(2, 1))[-1]).degree == 0


def test_squarefree_decomposition():
    # (x - 1/2)^3 * (x - 1/4)
    f = poly_from_roots([F(1, 2)] * 3 + [F(1, 4)])
    constant, parts = squarefree_decomposition(f)
    rebuilt = RatPoly([constant])
    for factor, mult in parts:
        rebuilt = rebuilt * factor ** mult
    assert rebuilt == f
    by_mult = {mult: factor.monic() for factor, mult in parts if factor.degree > 0}
    assert by_mult[1] == P(F(-1, 4), 1)
    assert by_mult[3] == P(F(-1, 2), 1)


# ---------------------------------------------------------------------------
# Sturm chains and root isolation
# ---------------------------------------------------------------------------

def test_sturm_chain_counts_roots():
    f = P(3, -22, 48, -32)
    chain = sturm_chain(f)
    assert chain[0] == f.primitive_integer_coeffs()
    assert all(isinstance(v, int) for member in chain for v in member)
    assert count_distinct_roots(chain, F(0), F(1)) == 3
    assert count_distinct_roots(chain, F(0), F(3, 8)) == 1


def test_sturm_count_is_half_open_even_at_root_endpoints():
    # 32x^3 - 48x^2 + 22x - 3 is square-free with roots 1/4, 1/2 and 3/4.
    chain = sturm_chain(P(-3, 22, -48, 32))
    assert count_distinct_roots(chain, F(0), F(1, 4)) == 1
    assert count_distinct_roots(chain, F(1, 4), F(3, 4)) == 2
    assert count_distinct_roots(chain, F(1, 2), F(1, 2)) == 0


@pytest.mark.parametrize("drift, roots, remainders, divisions", [
    # The bistable cubic is square-free: one remainder sequence of it and its
    # derivative, three pseudo-remainders, is both the gcd that tests it and
    # its Sturm chain, and Yun's loop never divides.
    (drift_for(two_draw_model([15, 3, 4, 1, 3, 21], 5, 2)), [F(1, 4), F(1, 2), F(3, 4)], 3, 0),
    # (x - 1/2)^2 (x - 1/4) goes on to Yun's loop and to the radical's chain.
    (poly_from_roots([F(1, 2), F(1, 2), F(1, 4)]), [F(1, 4), F(1, 2)], 5, 6),
])
def test_a_square_free_drift_builds_one_remainder_sequence(drift, roots, remainders, divisions,
                                                           monkeypatch):
    calls = {"remainder": 0, "division": 0}

    def counted(name, original):
        return lambda *args: calls.__setitem__(name, calls[name] + 1) or original(*args)

    monkeypatch.setattr(ratpoly, "_pseudo_remainder",
                        counted("remainder", ratpoly._pseudo_remainder))
    monkeypatch.setattr(ratpoly, "_exact_quotient", counted("division", ratpoly._exact_quotient))
    assert [r.value for r in roots_in_unit_interval(drift)] == roots
    assert calls == {"remainder": remainders, "division": divisions}


def test_rational_roots_found_exactly():
    f = P(3, -22, 48, -32)
    roots = roots_in_unit_interval(f)
    assert [r.value for r in roots] == [F(1, 4), F(1, 2), F(3, 4)]
    assert all(r.multiplicity == 1 for r in roots)
    assert [r.location for r in roots] == [INTERIOR] * 3


def test_multiple_root_multiplicity():
    f = poly_from_roots([F(1, 2)] * 3, scale=F(-8))
    (root,) = roots_in_unit_interval(f)
    assert root.value == F(1, 2)
    assert root.multiplicity == 3


def test_touchpoint_double_root():
    f = poly_from_roots([F(1, 4), F(1, 4), F(3, 4)], scale=F(-64))
    roots = roots_in_unit_interval(f)
    assert [(r.value, r.multiplicity) for r in roots] == [(F(1, 4), 2), (F(3, 4), 1)]


def test_boundary_roots_located():
    f = P(0, 1, -1)  # x(1-x)
    roots = roots_in_unit_interval(f)
    assert [(r.value, r.location) for r in roots] == [
        (F(0), LEFT_BOUNDARY),
        (F(1), RIGHT_BOUNDARY),
    ]


def test_irrational_root_isolated():
    f = P(-1, 0, 2)  # 2x^2 - 1, root sqrt(1/2)
    (root,) = roots_in_unit_interval(f)
    assert root.value is None
    lo, hi = root.interval
    assert lo < hi and hi - lo <= F(1, 10**12)
    assert abs(root.approx - 0.7071067811865476) < 1e-9


def test_roots_closer_than_the_recursion_limit_of_halvings():
    # Telling 1/3 from 1/3 + 10**-300 takes about 1000 halvings of (0, 1].
    near = F(1, 3) + F(1, 10**300)
    roots = roots_in_unit_interval(poly_from_roots([F(2, 3), near, F(1, 3)]))
    assert [root.value for root in roots] == [F(1, 3), near, F(2, 3)]


def test_mixed_rational_and_irrational_roots():
    # (2x - 1)(2x^2 - 1): roots 1/2 and sqrt(1/2)
    f = P(-1, 2) * P(-1, 0, 2)
    roots = roots_in_unit_interval(f)
    assert roots[0].value == F(1, 2)
    assert roots[1].value is None
    assert roots[0].position() < roots[1].interval[0]


def test_root_at_an_isolating_interval_start_is_not_read_twice():
    # 2x^2 (x^2 + 3x - 2): the radical's only root in (0, 1] is irrational and
    # its isolating interval (0, 1] starts on the rational root 0.
    roots = roots_in_unit_interval(P(0, 0, -4, 6, 2))
    assert [(r.value, r.multiplicity) for r in roots] == [(F(0), 2), (None, 1)]
    lo, hi = roots[1].interval
    assert lo < (F(17) ** 0.5 - 3) / 2 < hi


def test_no_roots():
    assert roots_in_unit_interval(P(1, 0, 1)) == []


def test_zero_polynomial_rejected():
    with pytest.raises(ValueError):
        roots_in_unit_interval(P(0))


def test_refine_root_narrows_interval():
    f = P(-1, 0, 2)
    (root,) = roots_in_unit_interval(f)
    tighter = refine_root(root, F(1, 10**18))
    lo, hi = tighter.interval
    assert hi - lo <= F(1, 10**18)
    assert f.evaluate(lo) * f.evaluate(hi) < 0


def test_sign_at_root_exact():
    f = P(-1, 0, 2)  # root r = sqrt(1/2)
    (root,) = roots_in_unit_interval(f)
    assert sign_at_root(P(-1, 0, 2), root) == 0          # same polynomial
    assert sign_at_root(P(F(-1, 2), 0, 1), root) == 0    # x^2 - 1/2 shares the root
    assert sign_at_root(P(-1, 1), root) == -1            # r - 1 < 0
    assert sign_at_root(P(0, 1), root) == 1              # r > 0
    assert sign_at_root(P(F(-7, 10), 1), root) == 1      # r - 0.7 > 0 (tight cut)


# Large primes as denominators make the coefficients 15-40 digits long. Each
# case lists the rational roots with multiplicities, an irreducible quadratic
# factor and how many of its roots lie in [0, 1].
_BIG_ROOT_CASES = [
    ([(F(500009, 1000003), 1), (F(7, 999983), 2)], P(200003, -1000003, 999983), 2),
    ([(F(0), 1), (F(104723, 104729), 3), (F(1), 1)], P(-1, 0, 2), 1),
    ([(F(1, 2147483647), 1), (F(998244351, 998244353), 2), (F(999999999, 1000000007), 1)],
     P(F(-2, 1000003), 0, F(5, 999983)), 1),
]


@pytest.mark.parametrize("rational,quadratic,irrational_count", _BIG_ROOT_CASES)
def test_roots_with_large_coefficients_are_exact(rational, quadratic, irrational_count):
    roots = [r for r, mult in rational for _ in range(mult)]
    f = poly_from_roots(roots, scale=F(7919, 104729)) * quadratic
    assert max(len(str(abs(c.numerator))) for c in f.coeffs) >= 15
    records = roots_in_unit_interval(f)
    assert [(r.value, r.multiplicity) for r in records if r.value is not None] == sorted(rational)
    irrational = [r for r in records if r.value is None]
    assert len(irrational) == irrational_count
    for record in irrational:
        lo, hi = record.interval
        assert record.multiplicity == 1
        assert hi - lo <= F(1, 10**12)
        assert sign_at(quadratic, lo) * sign_at(quadratic, hi) == -1


def test_roots_match_numpy_on_random_polynomials():
    rng = np.random.default_rng(7)
    for _ in range(40):
        degree = int(rng.integers(1, 6))
        coeffs = [F(int(c)) for c in rng.integers(-9, 10, size=degree + 1)]
        if all(c == 0 for c in coeffs):
            continue
        f = RatPoly(coeffs)
        if f.degree < 1:
            continue
        records = roots_in_unit_interval(f)
        # in increasing order as returned, each one clear of the next
        for left, right in zip(records, records[1:]):
            assert left.bounds[1] < right.bounds[0]
        mine = [r.position() for r in records]
        np_roots = np.roots(list(map(float, reversed([float(c) for c in coeffs]))))
        reference = sorted(
            float(r.real)
            for r in np_roots
            if abs(r.imag) < 1e-9 and -1e-9 <= r.real <= 1 + 1e-9
        )
        dedup = []
        for r in reference:
            if not dedup or abs(dedup[-1] - float(r)) > 1e-7:
                dedup.append(min(max(float(r), 0.0), 1.0))
        assert len(mine) == len(dedup)
        for a, b in zip(mine, dedup):
            assert abs(float(a) - b) < 1e-6


# ---------------------------------------------------------------------------
# Integer sign bisection against the Fraction reference
# ---------------------------------------------------------------------------

def _oracle_refine(factor, lo, hi, width):
    """Fraction-arithmetic bisection: two evaluations per halving."""
    while hi - lo > width:
        mid = (lo + hi) / 2
        f_lo = factor.evaluate(lo)
        f_mid = factor.evaluate(mid)
        if f_mid == 0:
            raise ArithmeticError("isolating interval midpoint unexpectedly a root")
        if (f_lo > 0) != (f_mid > 0):
            hi = mid
        else:
            lo = mid
    return lo, hi


def _random_poly(rng, degree):
    coeffs = [F(rng.randint(-9, 9), rng.randint(1, 5)) for _ in range(degree)]
    coeffs.append(F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5)))
    return RatPoly(coeffs)


def _random_point(rng, dyadic):
    if dyadic:
        k = rng.randint(0, 40)
        return F(rng.randint(-(2**k), 2**k), 2**k)
    return F(rng.randint(-60, 60), (2 * rng.randint(1, 40) + 1) * 2 ** rng.randint(0, 6))


def _sign(v):
    return (v > 0) - (v < 0)


def test_integer_sign_matches_fraction_evaluation():
    rng = random.Random(4)
    zeros = 0
    for trial in range(600):
        degree = rng.randint(1, 6)
        if trial % 3 == 0:
            roots = [_random_point(rng, rng.random() < 0.5) for _ in range(degree)]
            poly = poly_from_roots(roots, scale=F(rng.randint(1, 9), rng.randint(1, 4)))
            points = roots[:2] + [_random_point(rng, dyadic) for dyadic in (True, False)]
        else:
            poly = _random_poly(rng, degree)
            points = [_random_point(rng, dyadic) for dyadic in (True, False, True, False)]
        ints = poly.primitive_integer_coeffs()
        for x in points:
            expected = _sign(poly.evaluate(x))
            zeros += expected == 0
            assert _int_sign(ints, x.numerator, x.denominator) == expected
            assert sign_at(poly, x) == expected
            # The bisection keeps endpoints over an unreduced common denominator.
            k = rng.randint(2, 2**20)
            assert _int_sign(ints, k * x.numerator, k * x.denominator) == expected
    assert zeros >= 100


def test_refine_root_matches_fraction_bisection_oracle():
    rng = random.Random(5)
    checked = 0
    while checked < 150:
        poly = _random_poly(rng, rng.randint(2, 6))
        for record in roots_in_unit_interval(poly, refine_width=F(1, 2)):
            if record.value is not None:
                continue
            lo, hi = record.interval
            starts = [(lo, hi)]
            # Widen to non-dyadic endpoints; skip starts where the factor vanishes at lo.
            wide_lo = lo - F(rng.randint(0, 30), 2 * rng.randint(20, 90) + 1)
            wide_hi = hi + F(rng.randint(1, 30), 2 * rng.randint(20, 90) + 1)
            if record.factor.evaluate(wide_lo) != 0:
                starts.append((wide_lo, wide_hi))
            for start in starts:
                for width in (F(1, 10**12), (start[1] - start[0]) / 2):
                    seeded = RootRecord(record.multiplicity, interval=start, factor=record.factor)
                    try:
                        expected = _oracle_refine(record.factor, *start, width)
                    except ArithmeticError:
                        with pytest.raises(ArithmeticError):
                            refine_root(seeded, width)
                        continue
                    refined = refine_root(seeded, width)
                    assert refined.interval == expected
                    assert refined.approx == float((expected[0] + expected[1]) / 2)
                    checked += 1


def test_bisection_midpoint_on_a_root_raises():
    # (2x - 1)(x^2 - 1/2) changes sign across (1/4, 3/4), whose midpoint 1/2
    # is a rational root of the factor.
    factor = P(-1, 2) * P(F(-1, 2), 0, 1)
    record = RootRecord(1, interval=(F(1, 4), F(3, 4)), factor=factor)
    with pytest.raises(ArithmeticError):
        _oracle_refine(factor, F(1, 4), F(3, 4), F(1, 10))
    with pytest.raises(ArithmeticError):
        refine_root(record, F(1, 10))


def _oracle_within(record, lower, upper, strict):
    """Membership by halving with Fraction arithmetic until no end lies in the interval."""
    if record.value is not None:
        v = record.value
        return lower < v < upper if strict else lower <= v <= upper
    lo, hi = record.interval
    while True:
        if lower < lo and hi < upper:
            return True
        if hi <= lower or lo >= upper:
            return False
        lo, hi = _oracle_refine(record.factor, lo, hi, (hi - lo) / 2)


def test_within_matches_fraction_halving_oracle():
    rng = random.Random(6)
    checked = {True: 0, False: 0}
    while min(checked.values()) < 400:
        poly = _random_poly(rng, rng.randint(2, 6))
        for record in roots_in_unit_interval(poly, refine_width=F(1, 2)):
            if record.value is not None:
                continue
            lo, hi = record.interval
            gap = (hi - lo) / rng.randint(3, 9)
            # Ends outside, on the edge of, and inside the isolating interval.
            ends = [lo - gap, lo, lo + gap, record.position(), hi - gap, hi, hi + gap]
            for lower in ends:
                for upper in ends:
                    for strict in (True, False):
                        expected = _oracle_within(record, lower, upper, strict)
                        assert record.within(lower, upper, strict) == expected
                        checked[expected] += 1
    # A rational root compares exactly, ends included only when closed.
    half = RootRecord(1, value=F(1, 2))
    assert half.within(F(1, 2), 1, strict=False) and not half.within(F(1, 2), 1, strict=True)


def test_root_record_derives_location_and_approximation():
    assert list(RootRecord._fields) == [
        "multiplicity", "value", "interval", "factor"
    ]
    assert [RootRecord(1, value=F(v)).location for v in (0, F(1, 3), 1)] == [
        LEFT_BOUNDARY, INTERIOR, RIGHT_BOUNDARY
    ]
    third = RootRecord(2, value=F(1, 3))
    assert (third.bounds, third.approx) == ((F(1, 3), F(1, 3)), float(F(1, 3)))
    (root,) = roots_in_unit_interval(P(-1, 0, 2))
    assert root.location == INTERIOR and root.bounds == root.interval
    assert root.approx == float(sum(root.interval) / 2)


def test_coarse_isolating_intervals_exclude_rational_roots():
    # Isolation splits (0, 1) at 1/2, a rational root of the same square-free
    # factor; even at a coarse width the intervals must move off it.
    f = P(-1, 2) * P(F(-1, 2), 0, 1) * P(F(-1, 8), 0, 1)
    records = roots_in_unit_interval(f, refine_width=F(1, 2))
    assert [r.value for r in records] == [None, F(1, 2), None]
    for record in (records[0], records[2]):
        lo, hi = record.interval
        assert not lo <= F(1, 2) <= hi
        assert record.factor.evaluate(lo) * record.factor.evaluate(hi) < 0


@pytest.mark.parametrize("poly", [P(-2, 0, 10**30), P(10**30 - 2, -2 * 10**30, 10**30)])
def test_roots_next_to_an_end_are_refined_off_it(poly):
    # The roots sqrt(2) * 1e-15 and 1 - sqrt(2) * 1e-15 lie in the first and
    # last cells of width 2^-40; refinement goes on until 0 or 1 is outside
    # the interval, so that the classifier's probes fit on both sides.
    (root,) = roots_in_unit_interval(poly)
    lo, hi = root.interval
    assert 0 < lo < hi < 1 and hi - lo <= F(1, 10**12)
    assert sign_at(poly, lo) * sign_at(poly, hi) == -1
    assert root.within(0, 1, strict=True)
