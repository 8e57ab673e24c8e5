"""Two-color reinforcement urn models with exact rational arithmetic.

An urn holds white and black balls (counts may be any nonnegative rationals).
Each step draws either one ball or an unordered pair (with or without
replacement), looks the outcome up in a nonnegative replacement matrix, and
adds the prescribed balls. The draw rule is the matrix's: a 2x2
:class:`OneDrawMatrix` draws one ball, a 3x2 :class:`TwoDrawMatrix` a pair,
and a model stores no other record of it. The closed forms of a single
step's conditional moments are computed here exactly; :mod:`polyurn.oracle`
holds the outcome enumeration they are checked against.

Writing ``Z`` for the white proportion and ``T`` for the total count, one step
changes ``Z`` by ``(Y / T_next)`` where ``Y = dW - Z * dT`` is the centered
white increment. Its conditional mean is ``drift(Z)`` (a polynomial, plus an
exactly known ``O(1/T)`` remainder for pair draws without replacement), and
its conditional variance is ``error(Z) + O(1/T)`` for another polynomial
``error``. Those two polynomials drive all limit analysis downstream.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Sequence

from .ratpoly import RatPoly, Record, _poly, format_rational, parse_rational

ONE_DRAW = "one-draw"
TWO_DRAW = "two-draw"
WITH_REPLACEMENT = "with"
WITHOUT_REPLACEMENT = "without"

_KINDS = (ONE_DRAW, TWO_DRAW)
_SAMPLINGS = (WITH_REPLACEMENT, WITHOUT_REPLACEMENT)


# ---------------------------------------------------------------------------
# Replacement matrices and models
# ---------------------------------------------------------------------------

class ScaledModel(Record):
    """A model's rationals as integers over their common denominator ``s``.

    ``entries``, ``w0`` and ``b0`` are the matrix entries and start counts
    times ``s``, and ``row_sums`` the rows' totals times ``s``. Every closed
    form of this module is an integer polynomial over a power of ``s`` built
    from these, and the simulation kernels step these counts. A matrix's own
    view has no start counts (``w0 = b0 = 0``).
    """

    scale: int
    entries: tuple[int, ...]
    row_sums: tuple[int, ...]
    w0: int = 0
    b0: int = 0

    @functools.cached_property
    def pair_drift(self) -> tuple[int, int, int]:
        """``s`` times the ``alpha, beta, gamma`` of :func:`drift_two`."""
        return _pair_drift_coeffs(self.entries)


def _scale(entries: Sequence[Fraction], start: Sequence[Fraction] = ()) -> ScaledModel:
    """The view of a matrix's entries and, for a model, its start counts."""
    values = (*entries, *start)
    s = math.lcm(*(v.denominator for v in values))
    ints = [v.numerator * (s // v.denominator) for v in values]
    rows = tuple(ints[:len(entries)])
    sums = tuple(w + b for w, b in zip(rows[::2], rows[1::2]))
    return ScaledModel(s, rows, sums, *ints[len(entries):])


class _Matrix(Record):
    """What both matrix types derive from their fields, the entries in row order.

    Each type's class attribute ``kind`` is its draw rule, which a model reads off,
    and ``rule`` that rule's name in messages and reports.
    """

    def __post_init__(self):
        for name in self._fields:
            object.__setattr__(self, name, parse_rational(getattr(self, name)))
        if any(v < 0 for v in self.entries):
            raise ValueError("replacement matrix entries must be nonnegative")
        if not any(self.entries):
            raise ValueError("replacement matrix must have a positive entry")

    @property
    def entries(self) -> tuple[Fraction, ...]:
        return tuple(getattr(self, name) for name in self._fields)

    @functools.cached_property
    def scaled(self) -> ScaledModel:
        return _scale(self.entries)

    def color_swap(self):
        """The same rule with the roles of white and black exchanged: the entries reversed."""
        return type(self)(*self.entries[::-1])

    @classmethod
    def from_entries(cls, entries: Sequence):
        if len(entries) != len(cls._fields):
            raise ValueError(f"a {cls.rule} matrix needs exactly {len(cls._fields)} entries")
        return cls(*entries)


class OneDrawMatrix(_Matrix):
    """Replacement rule for single draws.

    Drawing a white ball adds ``w_add_white`` white and ``w_add_black`` black
    balls; drawing a black ball adds ``b_add_white`` white and ``b_add_black``
    black balls. Entries are nonnegative rationals, not all zero.
    """

    rule = "single-draw"
    kind = ONE_DRAW
    w_add_white: Fraction
    w_add_black: Fraction
    b_add_white: Fraction
    b_add_black: Fraction


class TwoDrawMatrix(_Matrix):
    """Replacement rule for unordered pair draws.

    The drawn pair is white-white, mixed, or black-black; the corresponding
    row says how many white and black balls to add. Entries are nonnegative
    rationals, not all zero.
    """

    rule = "pair-draw"
    kind = TWO_DRAW
    ww_add_white: Fraction
    ww_add_black: Fraction
    wb_add_white: Fraction
    wb_add_black: Fraction
    bb_add_white: Fraction
    bb_add_black: Fraction


class UrnModel(Record):
    """A complete urn specification: replacement matrix, start, sampling.

    The draw rule is the matrix's: a :class:`OneDrawMatrix` draws one ball, a
    :class:`TwoDrawMatrix` an unordered pair, and :attr:`kind` names it.
    ``sampling`` selects pair draws with or without replacement; it is
    meaningful only for pair-draw models (single draws always return the
    drawn ball).
    """

    matrix: OneDrawMatrix | TwoDrawMatrix
    w0: Fraction
    b0: Fraction
    sampling: str = WITHOUT_REPLACEMENT

    def __post_init__(self):
        if not isinstance(self.matrix, _Matrix):
            raise ValueError(f"an urn model needs a replacement matrix, not {self.matrix!r}")
        object.__setattr__(self, "w0", parse_rational(self.w0))
        object.__setattr__(self, "b0", parse_rational(self.b0))
        if self.w0 < 0 or self.b0 < 0:
            raise ValueError("initial counts must be nonnegative")
        if self.w0 + self.b0 <= 0:
            raise ValueError("the urn must start nonempty")
        if self.sampling not in _SAMPLINGS:
            raise ValueError(f"unknown sampling mode: {self.sampling!r}")
        if self.kind == ONE_DRAW:
            object.__setattr__(self, "sampling", WITH_REPLACEMENT)

    @property
    def kind(self) -> str:
        """The draw rule, :data:`ONE_DRAW` or :data:`TWO_DRAW`, which the matrix's class fixes."""
        return self.matrix.kind

    @functools.cached_property
    def scaled(self) -> ScaledModel:
        """The one scaled-integer view of this model, built on first use."""
        return _scale(self.matrix.entries, (self.w0, self.b0))

    def color_swap(self) -> "UrnModel":
        return UrnModel(self.matrix.color_swap(), self.b0, self.w0, self.sampling)

    def validate_for_simulation(self) -> None:
        """Checks required before stepping (not needed for pure analysis)."""
        if self.kind == TWO_DRAW and self.sampling == WITHOUT_REPLACEMENT:
            if self.w0 < 2 or self.b0 < 2:
                raise ValueError(
                    "pair draws without replacement need w0 >= 2 and b0 >= 2 "
                    "so every pair type is drawable from the start"
                )


def one_draw_model(entries: Sequence, w0=1, b0=1) -> UrnModel:
    return UrnModel(OneDrawMatrix.from_entries(entries), w0, b0)


def two_draw_model(entries: Sequence, w0=2, b0=2, sampling=WITHOUT_REPLACEMENT) -> UrnModel:
    return UrnModel(TwoDrawMatrix.from_entries(entries), w0, b0, sampling)


# ---------------------------------------------------------------------------
# Drift and noise closed forms
# ---------------------------------------------------------------------------
#
# Each closed form takes a matrix, or a model of the same draw rule, and is
# computed from its cached scaled view ``m.scaled``: polynomials linear in
# the entries are integer numerators over ``s``, quadratic ones over ``s^2``.

# x^2, x (1-x) and (1-x)^2: the weights of the noise and bias polynomials
_SQ, _MIXED, _COMPLEMENT_SQ = (0, 0, 1), (0, 1, -1), (1, -2, 1)


def _times(*factors: Sequence[int]) -> list[int]:
    """The product of integer coefficient lists, lowest power first."""
    out = [1]
    for q in factors:
        product = [0] * (len(out) + len(q) - 1)
        for i, x in enumerate(out):
            for j, y in enumerate(q):
                product[i + j] += x * y
        out = product
    return out


def drift_one(m: OneDrawMatrix) -> RatPoly:
    """Conditional mean of the centered white increment for single draws.

    As a polynomial in the white proportion ``x``:
    ``(c+d-a-b) x^2 + (a-2c-d) x + c`` with rows ``(a, b)`` on white and
    ``(c, d)`` on black. It is exact at every total (no remainder term).
    """
    a, b, c, d = m.scaled.entries
    return _poly([c, a - 2 * c - d, c + d - a - b], m.scaled.scale)


def drift_two(m: TwoDrawMatrix) -> RatPoly:
    """Conditional mean of the centered white increment for pair draws.

    As a polynomial in the white proportion ``x`` it is the cubic
    ``alpha x^3 + beta x^2 + gamma x + e`` with::

        alpha = -a - b + 2c + 2d - e - f
        beta  = a - 4c - 2d + 3e + 2f
        gamma = 2c - 3e - f

    For pair draws *with* replacement this mean is exact; *without*
    replacement the exact mean is this polynomial plus the remainder
    returned by :func:`polyurn.oracle.mean_noise_residual_two`.
    """
    v = m.scaled
    alpha, beta, gamma = v.pair_drift
    return _poly([v.entries[4], gamma, beta, alpha], v.scale)


def _pair_drift_coeffs(entries: Sequence[int]) -> tuple[int, int, int]:
    """The ``alpha, beta, gamma`` of :func:`drift_two` for the given entries."""
    a, b, c, d, e, f = entries
    return (
        -a - b + 2 * c + 2 * d - e - f,
        a - 4 * c - 2 * d + 3 * e + 2 * f,
        2 * c - 3 * e - f,
    )


def drift_for(model: UrnModel) -> RatPoly:
    return drift_one(model) if model.kind == ONE_DRAW else drift_two(model)


class OneDrawNoise(Record):
    """Noise structure of single draws.

    ``gap`` is the difference between the centered white increments of the
    two outcomes, ``y_white - y_black``, as a linear polynomial in the white
    proportion; the conditional variance of the step noise is exactly
    ``error(x) = x (1-x) gap(x)^2``.
    """

    gap: RatPoly
    error: RatPoly


def error_one(m: OneDrawMatrix) -> OneDrawNoise:
    a, b, c, d = m.scaled.entries
    gap, s = [a - c, c + d - a - b], m.scaled.scale
    return OneDrawNoise(gap=_poly(gap, s), error=_poly(_times(_MIXED, gap, gap), s * s))


class TwoDrawNoise(Record):
    """Noise structure of pair draws.

    Write ``y_ww``, ``y_wb``, ``y_bb`` for the centered white increments of
    the three outcomes (each linear in the white proportion ``x``). Then:

    - ``diff_ww_bb  = y_ww - y_bb``
    - ``diff_wb_bb  = y_wb - y_bb``
    - ``second_diff = y_ww - 2 y_wb + y_bb`` (= ``diff_ww_bb - 2 diff_wb_bb``)

    ``variance_factor`` is the quartic
    ``2 x^2 (second_diff + diff_wb_bb)^2 + x(1-x) diff_ww_bb^2
    + 2 (1-x)^2 diff_wb_bb^2`` and the leading-order conditional variance of
    the step noise is ``error(x) = x (1-x) variance_factor(x)`` (exact for
    sampling with replacement; plus O(1/total) without replacement).
    """

    diff_ww_bb: RatPoly
    diff_wb_bb: RatPoly
    second_diff: RatPoly
    variance_factor: RatPoly
    error: RatPoly


def error_two(m: TwoDrawMatrix) -> TwoDrawNoise:
    v = m.scaled
    a, b, c, d, e, f = v.entries
    ww, wb = [a - e, e + f - a - b], [c - e, e + f - c - d]
    mixed = [x - y for x, y in zip(ww, wb)]  # second_diff + diff_wb_bb
    quartic = [2 * p + q + 2 * r for p, q, r in zip(
        _times(_SQ, mixed, mixed), _times(_MIXED, ww, ww), _times(_COMPLEMENT_SQ, wb, wb))]
    s = v.scale
    return TwoDrawNoise(
        diff_ww_bb=_poly(ww, s),
        diff_wb_bb=_poly(wb, s),
        second_diff=_poly([x - 2 * y for x, y in zip(ww, wb)], s),
        variance_factor=_poly(quartic, s * s),
        error=_poly(_times(_MIXED, quartic), s * s),
    )


def error_for(model: UrnModel) -> RatPoly:
    """The leading-order conditional variance polynomial of the step noise."""
    if model.kind == ONE_DRAW:
        return error_one(model).error
    return error_two(model).error


# ---------------------------------------------------------------------------
# Closed forms for the per-step bias E[U / T_next]
# ---------------------------------------------------------------------------

def _one_bias_numerator(v: ScaledModel) -> list[int]:
    """``s^2 (c+d-a-b)(C1 z + C2 z^2 + C3 z^3)``.

    See :func:`polyurn.oracle.cond_iv_closed_form_one`.
    """
    a, b, c, d = v.entries
    k = c + d - a - b
    return [0, k * (a - c), k * (2 * c + d - 2 * a - b), -k * k]


def _pair_bias_brackets(v: ScaledModel) -> tuple[list[int], list[int], list[int]]:
    """``s`` times the cubics ``B1, B2, B3`` that both pair-draw bias terms are built from.

    With ``alpha, beta, gamma`` from :func:`drift_two`::

        B1 = (e-a) + (gamma+a+b) z + beta z^2 + alpha z^3
        B2 = 2 ((c-e) - (gamma+c+d) z - beta z^2 - alpha z^3)
        B3 = (gamma+e+f) z + beta z^2 + alpha z^3
    """
    a, b, c, d, e, f = v.entries
    alpha, beta, gamma = v.pair_drift
    return (
        [e - a, gamma + a + b, beta, alpha],
        [2 * (c - e), -2 * (gamma + c + d), -2 * beta, -2 * alpha],
        [0, gamma + e + f, beta, alpha],
    )


def _pair_bias_numerators(v: ScaledModel) -> tuple[list[int], ...]:
    """``s`` times the ``p1, p2, p3`` of :func:`polyurn.oracle.cond_iv_polys`, each of length 6."""
    b1, b2, b3 = _pair_bias_brackets(v)
    return _times((0, 0, -1), b1), _times(_MIXED, b2), _times((-1, 2, -1), b3)


def bias_bound(model: UrnModel) -> Fraction:
    """A constant ``K`` with ``|E[U / T_next]| <= K / T^2`` at every state.

    Single draws: combining the two outcome denominators over the common
    product gives numerator ``(c+d-a-b)(C1 z + C2 z^2 + C3 z^3)`` and
    denominator at least ``T^2``, so the coefficient-magnitude sum works.

    Pair draws: with the zero-column-sum property of the split numerators,
    combining the three denominators gives numerator ``sum_k (c1_k T + c2_k)
    z^k`` over a denominator of at least ``T^3``, whence the bound
    ``(sum|c1_k| + sum|c2_k|) / T^2`` for ``T >= 1``. Sampling without
    replacement adds remainder terms bounded by ``z(1-z) <= 1/4`` over
    ``(T-1)(T+s) >= T^2/2`` for ``T >= 2``. The result is floored at 1 so it
    is always a positive usable constant (noise-free rules give 0).

    On the scaled view ``c1`` is over ``s^2``, ``c2`` over ``s^3`` and the
    brackets over ``s``, so the sum is one integer over ``2 s^3``.
    """
    v = model.scaled
    s = v.scale
    if model.kind == ONE_DRAW:
        total, den = sum(map(abs, _one_bias_numerator(v))), s * s
    else:
        r1, r2, r3 = v.row_sums
        c1 = c2 = 0
        for p1, p2, p3 in zip(*_pair_bias_numerators(v)):
            c1 += abs((r2 + r3) * p1 + (r1 + r3) * p2 + (r1 + r2) * p3)
            c2 += abs(r2 * r3 * p1 + r1 * r3 * p2 + r1 * r2 * p3)
        total, den = 2 * (s * c1 + c2), 2 * s * s * s
        if model.sampling == WITHOUT_REPLACEMENT:
            total += s * s * sum(abs(x) for b in _pair_bias_brackets(v) for x in b)
    return Fraction(total, den) if total > den else Fraction(1)


# ---------------------------------------------------------------------------
# Attainability and boundary-divergence flags
# ---------------------------------------------------------------------------

class AttainableInterval(Record):
    """Interval of proportions the process can approach in the long run.

    For pair draws this is the closed span of the per-outcome white ratios
    (added white over added total, per matrix row); for single draws every
    interior proportion is approachable, encoded as the open unit interval.
    ``closed_bounds`` records which reading applies.
    """

    lower: Fraction
    upper: Fraction
    closed_bounds: bool


def active_white_ratios(m: OneDrawMatrix | TwoDrawMatrix | UrnModel) -> list[Fraction]:
    """White ratio (added white over added total) of each row that adds balls, in row order."""
    v = m.scaled
    return [Fraction(w, r) for w, r in zip(v.entries[::2], v.row_sums) if r > 0]


def attainable_interval(model: UrnModel) -> AttainableInterval:
    """Attainable-proportion interval; requires every row sum positive."""
    if min(model.scaled.row_sums) <= 0:
        raise ValueError("attainability needs every matrix row to add at least one ball")
    if model.kind == ONE_DRAW:
        return AttainableInterval(Fraction(0), Fraction(1), closed_bounds=False)
    ratios = active_white_ratios(model)
    return AttainableInterval(min(ratios), max(ratios), closed_bounds=True)


def white_count_diverges_at_zero(model: UrnModel) -> bool:
    """Whether the white count must grow without bound near proportion 0.

    Near zero almost every draw involves black balls, so white grows if those
    outcomes add white; failing that, for pair draws the total can only grow
    through white-involving outcomes, whose own white addition then feeds the
    count.
    """
    return _white_diverges(model.kind, model.scaled.entries)


def black_count_diverges_at_one(model: UrnModel) -> bool:
    """Mirror flag at proportion 1, by the color-swap symmetry.

    Swapping the colors reverses the order of the matrix entries.
    """
    return _white_diverges(model.kind, model.scaled.entries[::-1])


def _white_diverges(kind: str, entries: Sequence[int]) -> bool:
    if kind == ONE_DRAW:
        return entries[0] > 0
    a, b, c, d, e, f = entries
    return c > 0 or (e == f == 0 and a > 0)


# ---------------------------------------------------------------------------
# Model metadata
# ---------------------------------------------------------------------------

class ModelMeta(Record):
    """Summary constants used by the convergence framework.

    ``t_min``/``t_max`` bound the per-step growth of the total;
    ``bias_bound`` is the constant of :func:`bias_bound`;
    ``degenerate_case`` is 0 for fully supported models (every row sum
    positive) and otherwise identifies which rows are inactive (see
    :func:`degenerate_case_id`). The divergence flags feed the boundary
    non-convergence test.
    """

    kind: str
    sampling: str
    t_min: Fraction
    t_max: Fraction
    bias_bound: Fraction
    degenerate_case: int
    white_count_diverges_at_zero: bool
    black_count_diverges_at_one: bool


def degenerate_case_id(model: UrnModel) -> int:
    """Which rows of the matrix add no balls (0 when none).

    Pair draws: 1 = only the white-white row is active; 2 = only the
    black-black row; 3 = only the mixed row; 4 = the white-white row is
    inactive; 5 = the black-black row is inactive; 6 = the mixed row is
    inactive. Single draws reuse 1 (only the white row active) and 2 (only
    the black row active).
    """
    sums = model.scaled.row_sums
    if min(sums) > 0:
        return 0
    if model.kind == ONE_DRAW:
        return 1 if sums[1] == 0 else 2
    ww, wb, bb = (s == 0 for s in sums)
    if wb and bb:
        return 1
    if ww and wb:
        return 2
    if ww and bb:
        return 3
    if ww:
        return 4
    if bb:
        return 5
    return 6


def model_meta(model: UrnModel) -> ModelMeta:
    v = model.scaled
    return ModelMeta(
        kind=model.kind,
        sampling=model.sampling,
        t_min=Fraction(min(v.row_sums), v.scale),
        t_max=Fraction(max(v.row_sums), v.scale),
        bias_bound=bias_bound(model),
        degenerate_case=degenerate_case_id(model),
        white_count_diverges_at_zero=white_count_diverges_at_zero(model),
        black_count_diverges_at_one=black_count_diverges_at_one(model),
    )


# ---------------------------------------------------------------------------
# Reductions for models with an inactive row (degenerate cases)
# ---------------------------------------------------------------------------

class DegenerateReduction(Record):
    """Exact reduction of a model with inactive matrix rows.

    - Cases 1-3 (single active row): the proportion converges almost surely
      to ``fixed_limit``, the active row's white ratio.
    - Cases 4 and 5 (pair draws, white-white resp. black-black row inactive):
      steps that hit the inactive row change nothing, so the process embeds
      into a chain over the remaining outcomes. In the variable
      ``y = 2u/(1+u)``, where ``u`` is the proportion ``x`` (case 4) or its
      color-swapped mirror ``1 - x`` (case 5), the embedded drift is the
      quadratic ``reduced_drift``; case 5 builds it from the reversed
      entries. For the entries ``a..f`` it is ``[2e, 2c-4e-f, -2c-d+2e+f]/s``,
      which is ``-d`` at ``y = 1`` with slope ``f - 2c - 2d`` there: it has a
      double root at ``y = 1`` exactly when ``d = 0`` and ``f = 2c``, the
      borderline configuration that leaves the limit unsettled.
    - Case 6 (mixed row inactive): the embedded drift is the original cubic
      divided by the positive weight ``weight_denominator`` (values
      ``x^2 + (1-x)^2``), so its zeros and signs in the unit interval match
      the cubic's, and ``y`` is ``x`` itself.

    :meth:`to_reduced` and :meth:`to_original` are the one home of that
    change of variable.
    """

    case_id: int
    fixed_limit: Fraction | None = None
    reduced_drift: RatPoly | None = None
    weight_denominator: RatPoly | None = None
    variable_map: str = "identity"

    def to_reduced(self, x: Fraction) -> Fraction:
        """The reduced variable ``y`` of a proportion ``x`` (cases 4-6)."""
        if self.case_id == 6:
            return x
        u = 1 - x if self.case_id == 5 else x
        return 2 * u / (1 + u)

    def to_original(self, y: Fraction) -> Fraction:
        """The proportion ``x`` of a reduced value ``y``: the inverse of :meth:`to_reduced`."""
        if self.case_id == 6:
            return y
        u = y / (2 - y)
        return 1 - u if self.case_id == 5 else u


def degenerate_reduce(model: UrnModel) -> DegenerateReduction:
    """Reduction for a model with at least one inactive row (raises otherwise)."""
    case = degenerate_case_id(model)
    if case == 0:
        raise ValueError("the model has no inactive matrix row; nothing to reduce")
    if model.kind == ONE_DRAW or case <= 3:
        (limit,) = active_white_ratios(model)
        return DegenerateReduction(case_id=case, fixed_limit=limit)
    if case == 6:
        return DegenerateReduction(
            case_id=6,
            reduced_drift=drift_two(model),
            weight_denominator=RatPoly([1, -2, 2]),
        )
    v = model.scaled
    a, b, c, d, e, f = v.entries if case == 4 else v.entries[::-1]
    return DegenerateReduction(
        case_id=case,
        reduced_drift=_poly([2 * e, 2 * c - 4 * e - f, -2 * c - d + 2 * e + f], v.scale),
        variable_map="x = y/(2-y)" if case == 4 else "x = 1 - y/(2-y)",
    )


# ---------------------------------------------------------------------------
# JSON model files
# ---------------------------------------------------------------------------

def model_to_dict(model: UrnModel) -> dict:
    """JSON-ready dict; every rational is a ``"p/q"`` string."""
    entries = model.matrix.entries
    rows = [
        [format_rational(entries[i]), format_rational(entries[i + 1])]
        for i in range(0, len(entries), 2)
    ]
    out = {
        "model": model.kind,
        "matrix": rows,
        "w0": format_rational(model.w0),
        "b0": format_rational(model.b0),
    }
    if model.kind == TWO_DRAW:
        out["sampling"] = model.sampling
    return out


def model_from_dict(data) -> UrnModel:
    """Parse and validate the JSON model schema (see :func:`model_to_dict`)."""
    if not isinstance(data, dict):
        raise ValueError("a model file must contain a JSON object")
    unknown = set(data) - {"model", "matrix", "w0", "b0", "sampling"}
    if unknown:
        raise ValueError(f"unknown model keys: {sorted(unknown)}")
    kind = data.get("model")
    if kind not in _KINDS:
        raise ValueError(f'"model" must be "{ONE_DRAW}" or "{TWO_DRAW}"')
    matrix = data.get("matrix")
    rows_needed = 2 if kind == ONE_DRAW else 3
    if (
        not isinstance(matrix, list)
        or len(matrix) != rows_needed
        or any(not isinstance(row, list) or len(row) != 2 for row in matrix)
    ):
        raise ValueError(f'"matrix" must be a list of {rows_needed} rows of 2 entries')
    entries = [parse_rational(v) for row in matrix for v in row]
    start = {name: parse_rational(data[name]) for name in ("w0", "b0") if name in data}
    sampling = data.get("sampling", WITHOUT_REPLACEMENT)
    if sampling not in _SAMPLINGS:
        raise ValueError(f'"sampling" must be "{WITH_REPLACEMENT}" or "{WITHOUT_REPLACEMENT}"')
    if kind == ONE_DRAW:
        if data.get("sampling") == WITHOUT_REPLACEMENT:
            raise ValueError(
                f'"sampling": "{WITHOUT_REPLACEMENT}" applies only to pair-draw models')
        return one_draw_model(entries, **start)
    return two_draw_model(entries, **start, sampling=sampling)
