"""Properties of the integer core of ``RatPoly`` against ``Fraction`` references.

A polynomial is held as integer numerators over one denominator. Each
operation must agree with the same operation done coefficient by coefficient
in ``Fraction`` arithmetic, and the integer remainder sequences must give the
sign variations of a ``Fraction`` Sturm chain. Refinement that jumps ahead on a
Newton guess must reach the interval that plain halving reaches, the sign
at a root must equal the sign read on a refined interval, and polynomial
text built from integers must equal that built from ``Fraction``
coefficients. Examples are derandomized and no example database is kept, so
the suite is deterministic.
"""

import math
from fractions import Fraction as F

from hypothesis import example, given, settings
from hypothesis import strategies as st

import polyurn.ratpoly as ratpoly
from polyurn.ratpoly import (
    DEFAULT_REFINE_WIDTH,
    RatPoly,
    RootRecord,
    _ancestor,
    _bisect,
    _isolate,
    _levels_to,
    _poly,
    _remainder_sequence,
    _sign_variations,
    _squarefree_split,
    _warm_start,
    _wider_than,
    format_rational,
    parse_rational,
    radical,
    roots_in_unit_interval,
    sign_at,
    sign_at_root,
    squarefree_decomposition,
    sturm_chain,
)

from polyurn.urns import drift_for, two_draw_model

from helpers import poly_divmod, poly_from_roots, refine_root

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
        gcd = RatPoly(_remainder_sequence(poly, poly.derivative())[-1])
        assert gcd.monic() == _ref_gcd(poly, poly.derivative()).monic()


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


integer_polys = st.lists(st.integers(-30, 30), min_size=2, max_size=7).map(RatPoly)
square_free_polys = integer_polys.filter(
    lambda p: p.degree > 0 and _ref_gcd(p, p.derivative()).degree == 0)


@PROPERTIES
@given(square_free_polys, factors)
def test_a_square_free_polynomial_is_split_with_its_sturm_chain(poly, factor):
    split, chain = _squarefree_split(poly)
    assert split == [(poly.monic(), 1)]
    reference = sturm_chain(radical(poly))
    sign = 1 if chain[0] == reference[0] else -1
    assert chain == [tuple(sign * v for v in member) for member in reference]
    # A repeated factor leaves the chain to be built from the radical.
    assert _squarefree_split(poly * factor ** 2)[1] is None


# ---------------------------------------------------------------------------
# Warm-started refinement, signs at roots, text from integers
# ---------------------------------------------------------------------------

unit_roots = st.one_of(
    st.builds(lambda k, e: F(k % (2**e + 1), 2**e), st.integers(0, 2**12), st.integers(0, 12)),
    st.builds(lambda k, d: F(k % (d + 1), d), st.integers(0, 99), st.integers(1, 40)),
)
# Factors that mostly have irrational roots, with small or 400-digit
# coefficients below a small leading one (which keeps 1/n^2 from needing
# thousands of halvings).
integer_factors = st.builds(
    lambda low, lead: RatPoly([*low, lead]),
    st.lists(st.one_of(st.integers(-20, 20), st.integers(-(10**400), 10**400)),
             min_size=2, max_size=4),
    st.integers(-20, 20).filter(bool),
)

_SQRT_HALF = RatPoly([F(-1, 2), 0, 1])


def _isolating_intervals(rad):
    """Sturm isolation of the square-free ``rad`` in (0, 1] as ``(a, c, q)``, ``c/q`` not a root."""
    chain = sturm_chain(rad)
    return [(a, c, q) for a, c, q in _isolate(chain, 0, 1, 1, _sign_variations(chain, 0, 1),
                                              _sign_variations(chain, 1, 1))
            if sign_at(rad, F(c, q)) != 0]


def _ends(a, c, q):
    """The interval ``(a/q, c/q)`` as a pair of fractions."""
    return F(a, q), F(c, q)


@PROPERTIES
@given(st.lists(unit_roots, max_size=3), integer_factors)
@example([F(1, 2)], _SQRT_HALF)  # (1/2, 1] isolates sqrt(1/2), and 1/2 is a root
@example([F(3, 8)], RatPoly([1]))  # a dyadic root: plain halving stops on it
@example([F(5, 16), F(1, 3)], _SQRT_HALF)
@example([], RatPoly([-(10**399) - 7, 3, 2 * 10**399 + 1]))
def test_warm_started_refinement_reaches_the_interval_of_plain_halving(roots, factor):
    rad = radical(poly_from_roots(roots) * factor)
    ints = rad.primitive_integer_coeffs()
    n = abs(ints[-1])
    for a, c, q in _isolating_intervals(rad):
        record = RootRecord(1, interval=_ends(a, c, q), factor=rad)
        for width in (F(1, 10**12), F(1, n * n)):
            try:
                expected = refine_root(record, width).interval
            except ArithmeticError:
                # A midpoint was a rational root; plain halving ends on it.
                expected = _ends(*_bisect(ints, a, c, q, _wider_than(width)))
                assert expected[0] == expected[1] and sign_at(rad, expected[0]) == 0
            levels = _levels_to(c - a, q, width)
            assert _ends(*_bisect(ints, a, c, q, _wider_than(width), levels)) == expected


@PROPERTIES
@given(st.lists(unit_roots, max_size=3), integer_factors, st.integers(0, 30))
@example([F(1, 2)], _SQRT_HALF, 3)
def test_the_ancestor_of_a_finer_cell_is_the_cell_of_plain_halving(roots, factor, coarser):
    rad = radical(poly_from_roots(roots) * factor)
    ints = rad.primitive_integer_coeffs()
    fine = F(1, 10**12)
    for a, c, q in _isolating_intervals(rad):
        left, right, cell_q = _bisect(ints, a, c, q, _wider_than(fine), _levels_to(c - a, q, fine))
        if left == right:
            continue  # a midpoint was a rational root
        width = fine * 2**coarser
        assert (_ends(*_ancestor(a, c, q, left, cell_q, width))
                == _ends(*_bisect(ints, a, c, q, _wider_than(width))))


def test_a_large_coefficient_root_is_refined_with_one_warm_start(monkeypatch):
    # The radical's leading coefficient n is near 1e17, so 1/n^2 is finer
    # than the refinement width: the root's cell at 1/n^2, which shows it
    # irrational, holds the cell that refinement resumes from.
    model = two_draw_model([F(99991, 9973), F(3119, 7919), F(4, 101), F(1, 103), F(3, 107),
                            F(21, 109)], 5, 2)
    rad = radical(drift_for(model))
    n = abs(rad.primitive_integer_coeffs()[-1])
    assert F(1, n * n) < DEFAULT_REFINE_WIDTH
    levels = []
    warm_start = ratpoly._warm_start
    monkeypatch.setattr(ratpoly, "_warm_start",
                        lambda *args: levels.append(args[-1]) or warm_start(*args))
    (root,) = roots_in_unit_interval(drift_for(model))
    assert len(levels) == 1
    (interval,) = _isolating_intervals(rad)
    record = RootRecord(1, interval=_ends(*interval), factor=rad)
    assert root.interval == refine_root(record, DEFAULT_REFINE_WIDTH).interval


def test_warm_start_refuses_a_cell_with_the_root_at_an_end():
    # 3/8 is a cell end from the third level on, so the guess is refused and
    # the interval comes back as it was.
    for levels in (3, 4, 40):
        assert _warm_start((-3, 8), 0, 1, 1, -1, levels) == (0, 1, 1, -1)
    # sqrt(1/2) lies strictly inside its cell, which is accepted.
    a, c, q, sign = _warm_start((-1, 0, 2), 0, 1, 1, -1, 40)
    assert (c - a, q, sign) == (1, 2**40, -1)
    assert sign_at(_SQRT_HALF, F(a, q)) == -1 and sign_at(_SQRT_HALF, F(c, q)) == 1


def _gcd(f, g):
    """A greatest common divisor by Euclid's algorithm in ``Fraction`` arithmetic."""
    while not g.is_zero:
        f, g = g, poly_divmod(f, g)[1]
    return f


def _sign_on_a_refined_interval(poly, record):
    """The sign of ``poly`` at an irrational root, read at a point near it.

    ``poly`` vanishes at the root when its gcd with the root's square-free
    factor does, and that gcd then changes sign across the isolating
    interval. Otherwise the interval is halved until ``|poly(lo)|`` exceeds
    ``L (hi - lo)``, with ``L = sum k |c_k|`` a bound on ``|poly'|`` on
    [0, 1]: then ``poly`` has no root in ``[lo, hi]``, and its sign at the
    root is its sign at ``lo``.
    """
    lo, hi = record.interval
    common = _gcd(record.factor, poly)
    if poly.is_zero or sign_at(common, lo) != sign_at(common, hi):
        return 0
    slope_bound = sum(k * abs(c) for k, c in enumerate(poly.coeffs))
    while abs(poly.evaluate(lo)) <= slope_bound * (hi - lo):
        record = refine_root(record, (hi - lo) / 2)
        lo, hi = record.interval
    return sign_at(poly, lo)


@PROPERTIES
@given(integer_factors, polys, st.sampled_from([F(1, 2), F(1, 16), F(1, 1024), F(1, 10**12)]),
       st.integers(2, 12))
@example(RatPoly([F(-3, 10), 0, 1]), RatPoly([F(-3, 5), 1]), F(1, 2), 2)
def test_sign_at_root_matches_the_sign_on_a_refined_interval(factor, query, width, k):
    for record in roots_in_unit_interval(factor, refine_width=width):
        if record.value is not None:
            continue
        g = record.factor
        lo, hi = record.interval
        # Besides the drawn query: two that vanish at the root, and two with
        # a root of their own inside the interval.
        queries = [query, query * g, g, RatPoly([-lo - (hi - lo) / k, 1]),
                   RatPoly([-hi + (hi - lo) / k, 1]) * query]
        for poly in queries:
            assert sign_at_root(poly, record) == _sign_on_a_refined_interval(poly, record)


def _ref_text(coeffs):
    """``RatPoly.to_text`` in ``Fraction`` arithmetic."""
    parts = []
    for i, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        term = format_rational(mag)
        if i:
            var = "x" if i == 1 else f"x^{i}"
            term = var if mag == 1 else f"{term}*{var}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    return " ".join(parts) or "0"


@PROPERTIES
@given(st.one_of(polys, st.lists(st.integers(-3, 3), max_size=6).map(RatPoly)))
@example(RatPoly([]))
@example(RatPoly([0, -1, 0, 1]))
def test_text_from_integers_matches_fraction_formatting(poly):
    assert poly.coefficient_strings() == [format_rational(c) for c in poly.coeffs]
    assert poly.to_text() == _ref_text(poly.coeffs)


def _fraction_or_none(text):
    try:
        return F(text.strip())
    except (ValueError, ZeroDivisionError):
        return None


@PROPERTIES
@given(st.text("0123456789/+-_. ３²", max_size=10)
       | st.builds("{}/{}".format, st.integers(0, 10**30), st.integers(0, 10**30)))
@example("7/0")
@example("1" * 5000)
def test_parse_rational_reads_a_string_as_fraction_does(text):
    # Unsigned integer strings and ratios of them take a shortcut past the
    # Fraction parser; every string must still read as Fraction reads it.
    expected = _fraction_or_none(text)
    try:
        assert parse_rational(text) == expected
    except ValueError:
        assert expected is None
