"""Test-only constructors and oracles that the library itself does not need."""

from fractions import Fraction

from polyurn.oracle import UrnState
from polyurn.ratpoly import RatPoly, RootRecord, _bisect, _over_common_denominator, _wider_than
from polyurn.urns import ONE_DRAW, WITHOUT_REPLACEMENT, OneDrawNoise, TwoDrawNoise, UrnModel


def poly_from_roots(roots, scale=1) -> RatPoly:
    """``scale * prod (x - r)`` over the given rational roots."""
    poly = RatPoly([Fraction(scale)])
    for r in roots:
        poly = poly * RatPoly([-Fraction(r), Fraction(1)])
    return poly


def poly_divmod(poly: RatPoly, divisor: RatPoly) -> tuple[RatPoly, RatPoly]:
    """Quotient and remainder of long division in ``Fraction`` arithmetic.

    The reference that the library's integer pseudo-remainders are checked
    against.
    """
    if divisor.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    quotient = [Fraction(0)] * max(poly.degree - divisor.degree + 1, 0)
    rem = list(poly.coeffs)
    dlc = divisor.leading_coeff
    ddeg = divisor.degree
    for k in range(len(rem) - 1, ddeg - 1, -1):
        factor = rem[k] / dlc
        if factor == 0:
            continue
        quotient[k - ddeg] = factor
        for j, c in enumerate(divisor.coeffs):
            rem[k - ddeg + j] -= factor * c
    return RatPoly(quotient), RatPoly(rem)


def initial_state(model: UrnModel) -> UrnState:
    """The state a replicate starts from."""
    return UrnState(model.w0, model.b0, 0)


def refine_root(record: RootRecord, width) -> RootRecord:
    """Shrink an irrational root's isolating interval to at most ``width``.

    Rational roots come back unchanged. Raises ``ArithmeticError`` when a
    halving midpoint is a root of the record's factor, which means the
    interval did not isolate an irrational root.
    """
    if record.value is not None:
        return record
    a, c, q = _bisect(record.factor.primitive_integer_coeffs(),
                      *_over_common_denominator(*record.interval), _wider_than(Fraction(width)))
    if a == c:
        raise ArithmeticError("isolating interval midpoint unexpectedly a root")
    return RootRecord(record.multiplicity, interval=(Fraction(a, q), Fraction(c, q)),
                      factor=record.factor)


# ---------------------------------------------------------------------------
# Closed forms of ``urns`` in ``Fraction`` arithmetic on the matrix entries.
# The library computes them from the model's scaled integers; these are the
# references its results are checked against.
# ---------------------------------------------------------------------------

_X, _ONE = RatPoly([0, 1]), RatPoly([1])


def reference_drift(model: UrnModel) -> RatPoly:
    if model.kind == ONE_DRAW:
        a, b, c, d = model.matrix.entries
        return RatPoly([c, a - 2 * c - d, c + d - a - b])
    a, b, c, d, e, f = model.matrix.entries
    return RatPoly([
        e, 2 * c - 3 * e - f, a - 4 * c - 2 * d + 3 * e + 2 * f, -a - b + 2 * c + 2 * d - e - f,
    ])


def reference_noise(model: UrnModel) -> OneDrawNoise | TwoDrawNoise:
    x, one_minus_x = _X, _ONE - _X
    if model.kind == ONE_DRAW:
        a, b, c, d = model.matrix.entries
        gap = RatPoly([a - c, c + d - a - b])
        return OneDrawNoise(gap, x * one_minus_x * gap * gap)
    a, b, c, d, e, f = model.matrix.entries
    ww, wb = RatPoly([a - e, e + f - a - b]), RatPoly([c - e, e + f - c - d])
    second = ww - 2 * wb
    quartic = (2 * x * x * (second + wb) ** 2 + x * one_minus_x * ww ** 2
               + 2 * one_minus_x ** 2 * wb ** 2)
    return TwoDrawNoise(ww, wb, second, quartic, x * one_minus_x * quartic)


def reference_bias_bound(model: UrnModel) -> Fraction:
    """The constant of ``urns.bias_bound``, term by term in ``Fraction`` arithmetic."""
    if model.kind == ONE_DRAW:
        a, b, c, d = model.matrix.entries
        numerator = (c + d - a - b) * RatPoly([0, a - c, 2 * c + d - 2 * a - b, a + b - c - d])
        return max(numerator.abs_sum(), Fraction(1))
    a, b, c, d, e, f = model.matrix.entries
    alpha = -a - b + 2 * c + 2 * d - e - f
    beta = a - 4 * c - 2 * d + 3 * e + 2 * f
    gamma = 2 * c - 3 * e - f
    brackets = b1, b2, b3 = (
        RatPoly([e - a, gamma + a + b, beta, alpha]),
        -2 * RatPoly([e - c, gamma + c + d, beta, alpha]),
        RatPoly([0, gamma + e + f, beta, alpha]),
    )
    x, one_minus_x = _X, _ONE - _X
    p1, p2, p3 = -(x * x * b1), x * one_minus_x * b2, -(one_minus_x ** 2 * b3)
    s1, s2, s3 = a + b, c + d, e + f
    c1 = (s2 + s3) * p1 + (s1 + s3) * p2 + (s1 + s2) * p3
    c2 = s2 * s3 * p1 + s1 * s3 * p2 + s1 * s2 * p3
    total = c1.abs_sum() + c2.abs_sum()
    if model.sampling == WITHOUT_REPLACEMENT:
        total += Fraction(1, 2) * sum(bracket.abs_sum() for bracket in brackets)
    return max(total, Fraction(1))


def reference_scheme_constants(model: UrnModel) -> tuple[Fraction, ...]:
    """The nine ``SAConditions`` constants of a model whose rows all add balls, in field order.

    Computed in ``Fraction`` arithmetic on the model's own fields, the
    formula that ``SAConditions.build`` evaluates on the scaled integers:
    ``T_0 = w0 + b0``, ``t_min`` and ``t_max`` the least and greatest row
    sums, the drift's coefficient-magnitude sum (1 for the zero drift), and
    the rates and bounds derived from them.
    """
    entries = model.matrix.entries
    sums = [w + b for w, b in zip(entries[::2], entries[1::2])]
    t_min, t_max = min(sums), max(sums)
    initial_total = model.w0 + model.b0
    drift_sup = sum(abs(c) for c in reference_drift(model).coeffs) or Fraction(1)
    noise_sup = t_max + drift_sup
    upper_rate = 1 / t_min
    return (initial_total, t_min, t_max, 1 / (initial_total + t_max), upper_rate, drift_sup,
            noise_sup, upper_rate * (drift_sup + noise_sup), reference_bias_bound(model))
