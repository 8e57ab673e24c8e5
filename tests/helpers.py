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
