"""Root isolation and signs at roots against sympy's exact real roots.

sympy returns every real root with repetition, as an exact rational or as an
algebraic number it can compare exactly with rationals. Each polynomial's
roots in [0, 1] must match ``roots_in_unit_interval`` one for one: rational
roots by exact value, irrational roots by lying inside the isolating
interval, and multiplicities by count. ``sign_at_root`` must then agree with
the sign of a query polynomial at each of those roots.
"""

import random
from fractions import Fraction as F

import pytest

from polyurn.ratpoly import RatPoly, roots_in_unit_interval, sign_at_root

from helpers import poly_from_roots

sympy = pytest.importorskip("sympy")

X = sympy.Symbol("x")
PRIMES = [7919, 104729, 999983, 1000003, 2147483647, 1000000007]


def _to_sympy(poly):
    return sympy.Poly(
        [sympy.Rational(c.numerator, c.denominator) for c in reversed(poly.coeffs)], X
    )


def _rational(rng, big=False):
    den = rng.choice(PRIMES) if big else rng.randint(1, 12)
    return F(rng.randint(0, den), den)


def _irreducible_quadratic(rng):
    """x^2 - 2hx + h^2 - d/s^2 with d not a square: roots h +- sqrt(d)/s."""
    h = _rational(rng)
    d = rng.choice([2, 3, 5, 6, 7, 10])
    s = rng.choice([2, 3, 7, 10**7])  # 10**7 puts the two roots under 1e-6 apart
    return RatPoly([h * h - F(d, s * s), -2 * h, 1])


def _poly(rng, kind):
    if kind == "repeated":
        roots = [_rational(rng) for _ in range(rng.randint(1, 3))]
        roots += [roots[0]] * rng.randint(1, 2)
        return poly_from_roots(roots, scale=F(rng.randint(-9, 9) or 1, rng.randint(1, 5)))
    if kind == "boundary":
        roots = [F(0)] * rng.randint(1, 2) + [F(1)] * rng.randint(0, 2) + [_rational(rng)]
        return poly_from_roots(roots) * _irreducible_quadratic(rng)
    if kind == "irrational":
        cubic = RatPoly([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(3)] + [1])
        return cubic * _irreducible_quadratic(rng)
    if kind == "close":
        r = _rational(rng)
        gap = F(1, rng.choice([10**7, 10**9, 3 * 10**8]))
        return poly_from_roots([r, r + gap, r - gap][: rng.randint(2, 3)]) * (
            _irreducible_quadratic(rng)
        )
    if kind == "multiple":
        # Yun's loop runs for several rounds, and the pseudo-remainders meet
        # leading coefficients of both signs. Degree at most 8.
        power = rng.choice([0, 2, 3])
        roots = [_rational(rng)] * rng.randint(1, min(5, 7 - 2 * power)) + [_rational(rng)]
        scale = F(rng.choice([-1, 1]) * rng.randint(1, 9), rng.randint(1, 5))
        return poly_from_roots(roots, scale) * _irreducible_quadratic(rng) ** power
    if kind == "big":
        roots = [_rational(rng, big=True) for _ in range(rng.randint(1, 3))]
        roots.append(rng.choice(roots))
        scale = F(rng.choice(PRIMES), rng.choice(PRIMES))
        return poly_from_roots(roots, scale) * _irreducible_quadratic(rng)
    degree = rng.randint(1, 6)
    return RatPoly([F(rng.randint(-20, 20), rng.randint(1, 6)) for _ in range(degree)]
                   + [F(rng.choice([-1, 1]) * rng.randint(1, 20), rng.randint(1, 6))])


# Irrational roots are compared through sympy's rational approximations within
# 10**-DIGITS of the true root; every decision below leaves a margin of that size.
DIGITS = 30
EPS = F(1, 10**DIGITS)


def _approximation(root, digits=DIGITS):
    if root.is_Rational:
        return F(int(root.p), int(root.q))
    # sympy may return a multiple of a CRootOf, e.g. 3*CRootOf(5x^2 + 13x - 5, 0).
    approx = sympy.Rational(root.evalf(digits + 10))
    return F(int(approx.p), int(approx.q))


def _distinct_roots_in_unit_interval(poly):
    """``[root, approximation, multiplicity]`` for each distinct root in [0, 1]."""
    roots = []
    for root in _to_sympy(poly).real_roots(radicals=False):
        if not -0.01 < _approximation(root, digits=3) < 1.01:
            continue
        approx = _approximation(root)
        if not root.is_Rational:
            assert not (-EPS <= approx <= EPS or 1 - EPS <= approx <= 1 + EPS)
        if not 0 <= approx <= 1:
            continue
        if roots and roots[-1][0] == root:
            roots[-1][2] += 1
        else:
            roots.append([root, approx, 1])
    return roots


def _sympy_sign(query, root, approx):
    """Sign of ``query`` at ``root``: exact at rational roots and at common zeros."""
    value = query.evaluate(approx)
    if root.is_Rational:
        return (value > 0) - (value < 0)
    if _to_sympy(query).rem(sympy.Poly(sympy.minimal_polynomial(root, X), X)).is_zero:
        return 0
    # |query(root) - query(approx)| <= EPS * sum |i c_i| on [0, 1].
    assert abs(value) > EPS * sum(abs(i * c) for i, c in enumerate(query.coeffs))
    return (value > 0) - (value < 0)


def _queries(rng, poly, record):
    around = F(round(record.approx * 10**6), 10**6)
    queries = [
        poly.derivative(),
        RatPoly([-around, 1]),
        RatPoly([F(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(rng.randint(1, 4))]),
    ]
    if record.factor.degree >= 1:
        queries.append(record.factor * RatPoly([rng.randint(1, 5), rng.randint(-5, 5)]))
    return queries


KINDS = ["repeated", "boundary", "irrational", "close", "big", "multiple", "dense"]


def test_roots_and_signs_match_sympy():
    rng = random.Random(11)
    seen = dict.fromkeys(KINDS, 0)
    for trial in range(33 * len(KINDS)):
        kind = KINDS[trial % len(KINDS)]
        poly = _poly(rng, kind)
        if poly.degree < 1:
            continue
        expected = _distinct_roots_in_unit_interval(poly)
        records = roots_in_unit_interval(poly)
        assert len(records) == len(expected), (kind, poly.to_text())
        for record, (root, approx, mult) in zip(records, expected):
            assert record.multiplicity == mult
            if root.is_Rational:
                assert record.value == approx
            else:
                assert record.value is None
                lo, hi = record.interval
                assert lo + EPS < approx < hi - EPS
            for query in _queries(rng, poly, record):
                assert sign_at_root(query, record) == _sympy_sign(query, root, approx)
            seen[kind] += 1
    # Every family contributed roots to compare.
    assert min(seen.values()) >= 10, seen
