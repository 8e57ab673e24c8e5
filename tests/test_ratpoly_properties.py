"""Properties of the integer core of ``RatPoly`` against ``Fraction`` references.

A polynomial is held as integer numerators over one denominator. Each
operation must agree with the same operation done coefficient by coefficient
in ``Fraction`` arithmetic, and the integer remainder sequences must give the
sign variations of a ``Fraction`` Sturm chain. Examples are derandomized and
no example database is kept, so the suite is deterministic.
"""

import math
from fractions import Fraction as F

from hypothesis import given, settings
from hypothesis import strategies as st

from polyurn.ratpoly import (
    RatPoly,
    _poly,
    _remainder_sequence,
    _sign_variations,
    poly_gcd,
    squarefree_decomposition,
    sturm_chain,
)

from helpers import poly_divmod, poly_from_roots

PROPERTIES = settings(derandomize=True, database=None, deadline=None)


rationals = st.builds(F, st.integers(-60, 60), st.integers(1, 12))
nonzero_rationals = rationals.filter(bool)
coefficient_lists = st.lists(rationals, max_size=7)
polys = coefficient_lists.map(RatPoly)
nonzero_polys = polys.filter(lambda p: not p.is_zero)


def _trim(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def _pad(coeffs, n):
    return list(coeffs) + [F(0)] * (n - len(coeffs))


def _ref_mul(a, b):
    out = [F(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _ref_sign_variations(chain, x):
    signs = [s for s in ((v > 0) - (v < 0) for v in (p.evaluate(x) for p in chain)) if s]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _ref_sturm_sequence(p, q):
    """``p, q, -(p mod q), ...`` by ``Fraction`` long division."""
    seq = [p, q]
    while not seq[-1].is_zero:
        seq.append(-poly_divmod(seq[-2], seq[-1])[1])
    return seq[:-1]


def _ref_gcd(p, q):
    while not q.is_zero:
        p, q = q, poly_divmod(p, q)[1]
    return p


@PROPERTIES
@given(coefficient_lists)
def test_canonical_form(coeffs):
    poly = RatPoly(coeffs)
    assert poly.den > 0
    assert math.gcd(poly.den, *poly.num) == 1
    assert not poly.num or poly.num[-1] != 0
    assert poly.coeffs == _trim(coeffs)
    assert all(isinstance(v, int) for v in (*poly.num, poly.den))


@PROPERTIES
@given(coefficient_lists, st.integers(-30, 30).filter(bool), st.integers(0, 3))
def test_scaled_inputs_of_one_value_are_equal_and_hash_equal(coeffs, k, zeros):
    poly = RatPoly(coeffs)
    scaled = _poly([v * k for v in poly.num] + [0] * zeros, poly.den * k)
    padded = RatPoly(list(coeffs) + [F(0)] * zeros)
    assert scaled == poly == padded == RatPoly(poly.coeffs)
    assert hash(scaled) == hash(poly) == hash(padded)


@PROPERTIES
@given(polys, polys)
def test_add_sub_mul_match_fraction_reference(p, q):
    n = max(len(p.coeffs), len(q.coeffs))
    a, b = _pad(p.coeffs, n), _pad(q.coeffs, n)
    assert (p + q).coeffs == _trim(x + y for x, y in zip(a, b))
    assert (p - q).coeffs == _trim(x - y for x, y in zip(a, b))
    assert (-p).coeffs == tuple(-x for x in p.coeffs)
    assert (p * q).coeffs == _ref_mul(p.coeffs, q.coeffs)


@PROPERTIES
@given(polys, st.one_of(rationals, st.integers(-99, 99)))
def test_scalar_multiple_matches_fraction_reference(p, c):
    expected = _trim(x * c for x in p.coeffs)
    assert (p * c).coeffs == expected
    assert (c * p).coeffs == expected
    assert (p + c).coeffs == _trim([p.coeffs[0] + c if p.coeffs else F(c), *p.coeffs[1:]])


@PROPERTIES
@given(nonzero_polys)
def test_derivative_monic_and_primitive_match_fraction_reference(p):
    assert p.derivative().coeffs == _trim(i * c for i, c in enumerate(p.coeffs) if i)
    lc = p.coeffs[-1]
    assert p.monic().coeffs == tuple(c / lc for c in p.coeffs)
    assert p.leading_coeff == lc
    assert p.abs_sum() == sum(abs(c) for c in p.coeffs)
    ints = p.primitive_integer_coeffs()
    assert math.gcd(*ints) == 1
    # A positive multiple of the coefficients: same ratios, same signs.
    scale = F(ints[-1]) / lc
    assert scale > 0
    assert tuple(F(v) for v in ints) == tuple(c * scale for c in p.coeffs)
    assert p.primitive_integer_coeffs() is ints


factors = st.one_of(
    st.builds(lambda r: RatPoly([-r, 1]), rationals),
    st.builds(lambda a, b: RatPoly([a, b, 1]), rationals, rationals),
)


@PROPERTIES
@given(st.lists(st.tuples(factors, st.integers(1, 4)), max_size=3), nonzero_rationals)
def test_squarefree_decomposition_rebuilds_with_monic_coprime_factors(parts, scale):
    poly = RatPoly([scale])
    for factor, power in parts:
        poly = poly * factor ** power
    constant, split = squarefree_decomposition(poly)
    rebuilt = RatPoly([constant])
    for factor, mult in split:
        rebuilt = rebuilt * factor ** mult
    assert rebuilt == poly
    assert sorted({mult for _, mult in split}) == [mult for _, mult in split]
    for i, (factor, _) in enumerate(split):
        assert factor.degree > 0 and factor.leading_coeff == 1
        assert _ref_gcd(factor, factor.derivative()).degree == 0
        for other, _ in split[i + 1:]:
            assert _ref_gcd(factor, other).degree == 0
    if poly.degree > 0:
        assert poly_gcd(poly, poly.derivative()) == _ref_gcd(poly, poly.derivative()).monic()


@PROPERTIES
@given(nonzero_polys, polys, st.lists(rationals, min_size=1, max_size=6))
def test_integer_remainder_sequences_match_fraction_sturm_chains(p, q, points):
    chains = [
        (sturm_chain(p), _ref_sturm_sequence(p, p.derivative())),
        (_remainder_sequence(p, q), _ref_sturm_sequence(p, q)),
    ]
    # Points on roots of the chain too, where zeros drop out of the count.
    roots = [F(0), F(1, 2), F(-3, 4)]
    with_roots = poly_from_roots(roots[: len(points) % 4]) * p
    chains.append((sturm_chain(with_roots), _ref_sturm_sequence(with_roots, with_roots.derivative())))
    for x in [*points, *roots]:
        for chain, reference in chains:
            assert len(chain) == len(reference)
            assert _sign_variations(chain, x.numerator, x.denominator) == (
                _ref_sign_variations(reference, x)
            )
