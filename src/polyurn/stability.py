"""Equilibrium classification and limit bookkeeping for proportion processes.

The white proportion of a reinforcement urn is a stochastic-approximation
scheme on [0, 1]: its conditional one-step mean movement is a polynomial
drift (up to exactly bounded remainders), and its long-run limits live in
the drift's zero set. This module classifies those zeros exactly, from one
exact sign of the drift per gap: the gaps between neighbouring zeros, and
those between the outer zeros and 0 or 1. It also checks the two exclusion
criteria (a noise floor at an interior repeller; vanishing noise with a
diverging count at a boundary repeller), packages the constants that
certify the scheme is well-behaved, and defines the prediction records
consumed by simulation verification.

All decisions here are exact: signs are evaluated in rational arithmetic,
including at irrational roots (via their isolating intervals). A probe at
a gap's midpoint meets no root, because root isolation keeps each
irrational root's interval clear of the other roots and of 0 and 1: it
refines the interval until it holds neither end of its Sturm interval that
is 0, 1 or a rational root, the only such points it could hold.
"""

from __future__ import annotations

import enum
from fractions import Fraction

from .ratpoly import (
    INTERIOR,
    RatPoly,
    Record,
    RootRecord,
    _horner,
    _int_sign,
    roots_in_unit_interval,
    sign_at,
    sign_at_root,
)

# Stable identifiers for the supporting results cited in reports. Downstream
# tools match on these exact strings.
THEOREM_LIMIT_EXISTS = "theorem:main"
THEOREM_NOISE_FLOOR_EXCLUSION = "theorem:pem"
THEOREM_BOUNDARY_EXCLUSION = "theorem:renlund"
THEOREM_STABLE_ATTRACTION = "theorem:stable"
THEOREM_TOUCHPOINT_POSSIBLE = "theorem:pem2"
THEOREM_SINGLE_DRAW_LAW = "theorem:h1"
THEOREM_PAIR_FLAT_CONTINUOUS = "theorem:2drag"

VERDICT_UNIQUE = "converges-a.s.-unique"
VERDICT_POSITIVE_PROBABILITY = "positive-probability"
VERDICT_TOUCHPOINT = "possible-touchpoint"
VERDICT_UNKNOWN = "unknown"


class EquilibriumClass(enum.Enum):
    """How the drift behaves around one of its roots in [0, 1].

    - ``STABLE``: the drift points toward the root on each side within the
      domain (attracting).
    - ``STRICTLY_UNSTABLE``: the drift points away from the root on each side
      within the domain (repelling).
    - ``TOUCHPOINT``: an interior root the drift touches without crossing
      (same strict sign on both sides; even multiplicity).
    """

    STABLE = "stable"
    STRICTLY_UNSTABLE = "strictly-unstable"
    TOUCHPOINT = "touchpoint"


class Equilibrium(Record):
    """A classified root of the drift.

    ``sign_left``/``sign_right`` are the exact drift signs strictly between
    this root and its neighbor root (or domain end) on each side; a boundary
    root has only its inward side. ``drift_derivative_sign`` is the exact
    sign of the drift's derivative at the root, read off those signs: the
    sign on the right at a simple root, where the drift changes sign, and 0
    at a repeated one. ``drift_derivative`` is its exact value when the root
    is rational.
    """

    root: RootRecord
    classification: EquilibriumClass
    sign_left: int | None
    sign_right: int | None
    drift_derivative_sign: int
    drift_derivative: Fraction | None


def classify_all(drift: RatPoly) -> list[Equilibrium]:
    """Classify every root of ``drift`` in [0, 1], in increasing order.

    The drift has one exact sign on each gap between neighbouring roots, and
    on the gaps from 0 to the first root and from the last root to 1 when
    they are not empty. It is read once per gap, by integer Horner
    evaluation (:func:`polyurn.ratpoly._int_sign`) of the drift's primitive
    integer coefficients at the gap's midpoint ``(a d + c b) / (2 b d)``,
    for a gap from ``a/b`` to ``c/d``, and each root is classified from the
    signs of the gaps beside it. The sign of the drift's derivative is read
    off the same signs: at a simple root the drift changes sign, and the
    derivative has the sign on the right; at a repeated root it is 0. No
    sign is evaluated at a root. The derivative's exact value at a rational
    root is one integer Horner evaluation. Raises ``ValueError`` for the
    identically zero drift, whose equilibria are not isolated points.
    """
    if drift.is_zero:
        raise ValueError("the zero drift has no isolated equilibria to classify")
    records = roots_in_unit_interval(drift)
    ints = drift.primitive_integer_coeffs()

    def gap_sign(lo: tuple[int, int], hi: tuple[int, int]) -> int | None:
        if lo == hi:
            return None
        (a, b), (c, d) = lo, hi
        sign = _int_sign(ints, a * d + c * b, 2 * b * d)  # at (a/b + c/d) / 2
        if sign == 0:
            raise ArithmeticError("probe point unexpectedly hit a root")
        return sign

    # Each gap's ends as (numerator, denominator) pairs, from 0 = (0, 1) to 1 = (1, 1).
    ends = [(0, 1), *(e.as_integer_ratio() for r in records for e in r.bounds), (1, 1)]
    signs = [gap_sign(lo, hi) for lo, hi in zip(ends[::2], ends[1::2])]
    # Only a rational root's slope is printed, so only then is the derivative built.
    deriv = drift.derivative() if any(r.value is not None for r in records) else None
    equilibria = []
    for record, sign_left, sign_right in zip(records, signs, signs[1:]):
        # A boundary root has only its inward gap. It counts as a crossing:
        # the missing side takes the opposite of the inward sign.
        left, right = sign_left or -sign_right, sign_right or -sign_left
        if left == right:
            cls = EquilibriumClass.TOUCHPOINT
        elif left > 0:
            cls = EquilibriumClass.STABLE
        else:
            cls = EquilibriumClass.STRICTLY_UNSTABLE
        if record.location == INTERIOR and (left != right) != (record.multiplicity % 2 == 1):
            raise ArithmeticError("sign pattern inconsistent with root multiplicity")
        slope = None
        if record.value is not None:  # deriv(u/v), one integer Horner pass over deriv.num
            u, v = record.value.numerator, record.value.denominator
            slope = Fraction(_horner(deriv.num, u, v), deriv.den * v ** (len(deriv.num) - 1))
        slope_sign = right if record.multiplicity == 1 else 0
        equilibria.append(Equilibrium(record, cls, sign_left, sign_right, slope_sign, slope))
    return equilibria


# ---------------------------------------------------------------------------
# Exclusion criteria
# ---------------------------------------------------------------------------

def check_noise_floor(error_poly: RatPoly, root: RootRecord) -> bool:
    """Whether the step-noise variance stays strictly positive at ``root``.

    A strict noise floor at an interior repelling root forbids convergence
    there. The sign is decided exactly, including at irrational roots.
    """
    return sign_at_root(error_poly, root) > 0


def check_boundary_exclusion(
    drift: RatPoly,
    error_poly: RatPoly,
    boundary: Fraction,
    count_diverges: bool,
) -> bool:
    """Whether a repelling boundary root can be excluded as a limit.

    Requirements: the boundary (0 or 1) is a root of the drift (checked);
    the noise variance curve vanishes there too, so both the squared drift
    and the noise shrink at least linearly in the distance to the boundary
    (automatic for polynomials once they vanish at the point); and the count
    of balls of the vanishing color grows without bound (supplied by the
    caller as a model fact).
    """
    boundary = Fraction(boundary)
    if boundary not in (Fraction(0), Fraction(1)):
        raise ValueError("boundary must be 0 or 1")
    if sign_at(drift, boundary) != 0:
        raise ValueError("the boundary point is not a root of the drift")
    return sign_at(error_poly, boundary) == 0 and count_diverges


# ---------------------------------------------------------------------------
# Scheme constants
# ---------------------------------------------------------------------------

class SAConditions(Record):
    """Constants certifying the proportion process is a well-behaved scheme.

    With ``T_n`` the total after ``n`` steps and the step size ``1/T_n``:

    - ``lower_rate / n <= 1/T_n <= upper_rate / n`` for every ``n >= 1``,
      since ``T_0 + n t_min <= T_n <= T_0 + n t_max``;
    - ``drift_sup`` bounds the drift's absolute value on [0, 1];
    - ``noise_sup`` bounds the absolute centered noise of one step;
    - ``increment_sup = upper_rate * (drift_sup + noise_sup)`` bounds the
      absolute one-step change of the proportion times ``n``;
    - ``bias_constant`` bounds ``|E[noise / T_next]|`` times ``T^2``.

    All constants are positive rationals and ``lower_rate <= upper_rate``.
    """

    initial_total: Fraction
    t_min: Fraction
    t_max: Fraction
    lower_rate: Fraction
    upper_rate: Fraction
    drift_sup: Fraction
    noise_sup: Fraction
    increment_sup: Fraction
    bias_constant: Fraction

    def __post_init__(self):
        ratios = [v.as_integer_ratio() for v in self._values()]
        if min(n for n, _ in ratios) <= 0:
            raise ValueError("scheme constants must all be positive")
        _, _, _, (ln, ld), (un, ud), (an, ad), (bn, bd), (i_n, i_d), _ = ratios
        if ln * ud > un * ld:
            raise ValueError("rate bounds are inverted")
        if i_n * ud * ad * bd != i_d * un * (an * bd + bn * ad):
            raise ValueError("increment bound must tie the rate and magnitude bounds")

    @staticmethod
    def build(scale: int, start: int, row_min: int, row_max: int, drift: RatPoly,
              bias_constant: Fraction) -> "SAConditions":
        """Derive the constants from model facts, each one ``Fraction`` of integers.

        ``start``, ``row_min`` and ``row_max`` are the start total and the
        least and greatest row sums, times ``scale`` (a model's scaled view),
        so ``T_0 = start/s``, ``t_min = row_min/s`` and ``t_max = row_max/s``.
        ``drift_sup = A/D`` is the coefficient-magnitude sum (an upper bound
        on [0, 1], floored at 1 for the zero drift so every constant stays
        positive); ``noise_sup`` adds the largest per-step total growth,
        since the centered white increment is at most that growth in size.
        So ``lower_rate = s / (start + row_max)``, ``upper_rate = s /
        row_min``, ``noise_sup = (row_max D + A s) / (s D)`` and
        ``increment_sup = (2 A s + row_max D) / (row_min D)``.
        """
        if row_min <= 0:
            raise ValueError("every matrix row must add at least one ball")
        drift_sup = drift.abs_sum() or Fraction(1)
        a, d = drift_sup.as_integer_ratio()
        return SAConditions(
            Fraction(start, scale),
            Fraction(row_min, scale),
            Fraction(row_max, scale),
            Fraction(scale, start + row_max),
            Fraction(scale, row_min),
            drift_sup,
            Fraction(row_max * d + a * scale, scale * d),
            Fraction(2 * a * scale + row_max * d, row_min * d),
            bias_constant,
        )


# ---------------------------------------------------------------------------
# Limit predictions
# ---------------------------------------------------------------------------

class PredictionKind(enum.Enum):
    POINT_MASS_SET = "point-mass-set"
    BETA_DISTRIBUTION = "beta-distribution"
    CONTINUOUS_NO_ATOMS = "continuous-no-atoms"
    UNKNOWN = "unknown"


class PredictedPoint(Record):
    """A candidate limit point with the strongest verdict we can certify."""

    root: RootRecord
    classification: EquilibriumClass | None
    verdict: str
    theorem: str | None


class ExcludedPoint(Record):
    """A drift root ruled out as a limit, with the excluding result."""

    root: RootRecord
    classification: EquilibriumClass | None
    theorem: str


class LimitPrediction(Record):
    """What the analysis says about the long-run white proportion.

    ``POINT_MASS_SET``: the limit exists and lies among ``points`` (with
    per-point verdicts); ``excluded`` lists drift roots proven impossible.
    ``BETA_DISTRIBUTION``: the limit law is the Beta distribution with
    ``beta_params``. ``CONTINUOUS_NO_ATOMS``: a limit exists and its law has
    no interior point masses. ``UNKNOWN``: no certified statement. The
    fields are declared in the key order of the prediction JSON.
    """

    kind: PredictionKind
    beta_params: tuple[Fraction, Fraction] | None = None
    theorem: str | None = None
    points: tuple[PredictedPoint, ...] = ()
    excluded: tuple[ExcludedPoint, ...] = ()
    notes: tuple[str, ...] = ()
