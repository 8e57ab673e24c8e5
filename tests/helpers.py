"""Test-only constructors and oracles that the library itself does not need."""

from fractions import Fraction

from polyurn.ratpoly import RatPoly, RootRecord, _bisect, _wider_than
from polyurn.urns import UrnModel, UrnState


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
    lo, hi = _bisect(record.factor, *record.interval, _wider_than(Fraction(width)))
    if lo == hi:
        raise ArithmeticError("isolating interval midpoint unexpectedly a root")
    return RootRecord(record.multiplicity, interval=(lo, hi), factor=record.factor)
