"""The exact one-step reference that the closed forms and the kernels are checked against.

Nothing here is on the path of ``analyze``, ``simulate`` or ``verify``: the
``selftest`` command and the tests import this module, and nothing else does.
It holds:

- the outcome distribution of one step from an exact state
  (:func:`step_distribution`), and :func:`step`, which takes one step by it
  and is the rational reference for the simulation kernels;
- :func:`cond_moments_oracle`, the conditional moments of one step by
  enumeration of its outcomes, which shares no code with the closed forms;
- the closed forms of the per-step bias ``E[U / T_next]`` and of the pair-draw
  noise mean, and the defect of the inactive-row reduction identities;
- the identity suites (:data:`SUITES`) that ``polyurn selftest`` runs, and the
  random matrices and states they draw.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import urns
from .ratpoly import RatPoly, Record, _poly, parse_rational

# ---------------------------------------------------------------------------
# States and one-step outcome distributions
# ---------------------------------------------------------------------------

class UrnState(Record):
    """Exact urn contents after ``step`` draws."""

    white: Fraction
    black: Fraction
    step: int = 0

    def __post_init__(self):
        object.__setattr__(self, "white", parse_rational(self.white))
        object.__setattr__(self, "black", parse_rational(self.black))
        if self.white < 0 or self.black < 0:
            raise ValueError("ball counts must be nonnegative")
        if self.white + self.black <= 0:
            raise ValueError("the urn must be nonempty")

    @property
    def total(self) -> Fraction:
        return self.white + self.black

    @property
    def proportion_white(self) -> Fraction:
        return self.white / self.total


class StepOutcome(Record):
    """One possible draw outcome with its exact probability and effect."""

    probability: Fraction
    add_white: Fraction
    add_black: Fraction


def step_distribution(state: UrnState, model: urns.UrnModel) -> tuple[StepOutcome, ...]:
    """Exact outcome distribution for one step from ``state``.

    The outcomes come in the matrix's row order (white, black; or
    white-white, mixed, black-black), with nonnegative rational
    probabilities summing to one. Pair draws without replacement require a
    total of at least 2 and enough balls of each present color for the pair
    counts to make sense.
    """
    w, b, t = state.white, state.black, state.total
    m = model.matrix
    if model.kind == urns.ONE_DRAW:
        outcomes = (
            StepOutcome(w / t, m.w_add_white, m.w_add_black),
            StepOutcome(b / t, m.b_add_white, m.b_add_black),
        )
    elif model.sampling == urns.WITH_REPLACEMENT:
        z = state.proportion_white
        outcomes = (
            StepOutcome(z * z, m.ww_add_white, m.ww_add_black),
            StepOutcome(2 * z * (1 - z), m.wb_add_white, m.wb_add_black),
            StepOutcome((1 - z) * (1 - z), m.bb_add_white, m.bb_add_black),
        )
    else:
        if t < 2:
            raise ValueError("pair draws without replacement need a total of at least 2")
        denom = t * (t - 1)
        outcomes = (
            StepOutcome(w * (w - 1) / denom, m.ww_add_white, m.ww_add_black),
            StepOutcome(2 * w * b / denom, m.wb_add_white, m.wb_add_black),
            StepOutcome(b * (b - 1) / denom, m.bb_add_white, m.bb_add_black),
        )
    if any(o.probability < 0 for o in outcomes):
        raise ValueError(
            "pair draws without replacement are undefined for fractional counts below 1"
        )
    return outcomes


def step(state: UrnState, model: urns.UrnModel, rng: random.Random) -> UrnState:
    """Advance one step, consuming exactly one 53-bit draw from ``rng``.

    The draw ``u`` selects the outcome whose exact cumulative probability
    first exceeds ``u / 2**53``; the comparison is exact. This is the
    rational reference for the kernels of :func:`polyurn.montecarlo.simulate`.
    """
    u = Fraction(rng.getrandbits(53), 1 << 53)
    cumulative = Fraction(0)
    for outcome in step_distribution(state, model):
        cumulative += outcome.probability
        if u < cumulative:
            return UrnState(
                state.white + outcome.add_white,
                state.black + outcome.add_black,
                state.step + 1,
            )
    raise ArithmeticError("outcome probabilities do not reach 1")


# ---------------------------------------------------------------------------
# Conditional-moment oracle (brute-force enumeration of outcomes)
# ---------------------------------------------------------------------------

class ExactMoments(Record):
    """Exact conditional moments of one step from a given state.

    With ``Y = dW - Z dT`` the centered white increment, ``U`` the noise
    ``Y - drift(Z)``, and ``T_next`` the total after the step:

    - ``mean_y``: expected ``Y``
    - ``mean_u``: expected ``U`` (zero for single draws and pair draws with
      replacement; an explicit O(1/T) remainder otherwise)
    - ``mean_u_sq``: expected ``U^2``
    - ``mean_u_over_next_t``: expected ``U / T_next`` (the per-step bias of
      the proportion increment around ``drift(Z)/T_next``)
    """

    mean_y: Fraction
    mean_u: Fraction
    mean_u_sq: Fraction
    mean_u_over_next_t: Fraction


def cond_moments_oracle(state: UrnState, model: urns.UrnModel) -> ExactMoments:
    """Moments by direct enumeration of the outcome distribution (no closed forms)."""
    z = state.proportion_white
    t = state.total
    fz = urns.drift_for(model).evaluate(z)
    mean_y = mean_u = mean_u_sq = mean_u_over_next_t = Fraction(0)
    for outcome in step_distribution(state, model):
        dt = outcome.add_white + outcome.add_black
        y = outcome.add_white - z * dt
        u = y - fz
        t_next = t + dt
        p = outcome.probability
        mean_y += p * y
        mean_u += p * u
        mean_u_sq += p * u * u
        mean_u_over_next_t += p * u / t_next
    return ExactMoments(mean_y, mean_u, mean_u_sq, mean_u_over_next_t)


# ---------------------------------------------------------------------------
# Closed forms for the per-step bias E[U / T_next] and the pair noise mean
# ---------------------------------------------------------------------------

def cond_iv_closed_form_one(state: UrnState, m: urns.OneDrawMatrix) -> Fraction:
    """Exact ``E[U / T_next]`` for single draws.

    Equals ``(C1 z + C2 z^2 + C3 z^3)(c+d-a-b) / ((T+a+b)(T+c+d))`` with
    ``C1 = a-c``, ``C2 = 2c+d-2a-b``, ``C3 = a+b-c-d``.
    """
    v = m.scaled
    r1, r2 = v.row_sums
    z, st = state.proportion_white, state.total * v.scale
    return _poly(urns._one_bias_numerator(v), 1).evaluate(z) / ((st + r1) * (st + r2))


def cond_iv_polys(m: urns.TwoDrawMatrix) -> tuple[RatPoly, RatPoly, RatPoly]:
    """Per-outcome numerators of the pair-draw bias ``E[U / T_next]``.

    Splitting the expectation over the three pair outcomes gives exactly

    ``E[U/T_next] = p1(z)/(T+a+b) + p2(z)/(T+c+d) + p3(z)/(T+e+f)``

    (plus the remainder terms of :func:`cond_iv_remainders` when sampling
    without replacement), with ``p1 = -z^2 B1``, ``p2 = z(1-z) B2`` and
    ``p3 = -(1-z)^2 B3`` for the cubics of
    :func:`polyurn.urns._pair_bias_brackets`. The three polynomials have
    degree at most five and their coefficients sum to zero power by power,
    which makes the whole bias collapse to ``O(1/T^2)``.
    """
    return tuple(_poly(p, m.scaled.scale) for p in urns._pair_bias_numerators(m.scaled))


def cond_iv_remainders(state: UrnState, m: urns.TwoDrawMatrix) -> tuple[Fraction, ...]:
    """Sampling-without-replacement corrections to the pair-draw bias.

    These are the exact extra terms (one per pair outcome, same denominators
    as in :func:`cond_iv_polys`) created by drawing the pair without
    replacement: ``z(1-z) B_k(z) / (T-1)`` for the cubics of
    :func:`polyurn.urns._pair_bias_brackets`, each ``O(1/T)``.
    """
    z, t = state.proportion_white, state.total
    if t <= 1:
        raise ValueError("pair draws without replacement need a total above 1")
    scale = z * (1 - z) / ((t - 1) * m.scaled.scale)
    return tuple(scale * _poly(b, 1).evaluate(z) for b in urns._pair_bias_brackets(m.scaled))


def cond_iv_closed_form_two(state: UrnState, m: urns.TwoDrawMatrix, sampling: str) -> Fraction:
    """Exact ``E[U / T_next]`` for pair draws, by the split closed form."""
    parts = [p.evaluate(state.proportion_white) for p in cond_iv_polys(m)]
    if sampling == urns.WITHOUT_REPLACEMENT:
        parts = [p + r for p, r in zip(parts, cond_iv_remainders(state, m))]
    s = m.scaled.scale
    return sum(p * s / (state.total * s + r) for p, r in zip(parts, m.scaled.row_sums))


def mean_noise_residual_two(state: UrnState, m: urns.TwoDrawMatrix) -> Fraction:
    """Exact ``E[U]`` for pair draws without replacement.

    Equals ``-z(1-z)(a - 2c + e + alpha z) / (T - 1)``, with ``alpha`` from
    :func:`polyurn.urns.drift_two`; with replacement the noise has mean
    exactly zero.
    """
    v = m.scaled
    a, _, c, _, e, _ = v.entries
    alpha = v.pair_drift[0]
    z, t = state.proportion_white, state.total
    if t <= 1:
        raise ValueError("pair draws without replacement need a total above 1")
    return -z * (1 - z) * (a - 2 * c + e + alpha * z) / ((t - 1) * v.scale)


# ---------------------------------------------------------------------------
# Inactive-row reduction identities
# ---------------------------------------------------------------------------

def degenerate_identity_gap(model: urns.UrnModel, x: Fraction) -> Fraction:
    """Exact defect of the reduction identity at ``x`` (zero when correct).

    Cases 4/5 check that the reduced quadratic pulled back through the
    variable change reproduces the cubic drift:
    ``(1+x)^2/2 * reduced(2x/(1+x)) == drift(x)/(1-x)`` (mirrored for case
    5). The other cases check the outcome-weighted row identity
    ``drift(x) == x^2 y_ww(x) + 2x(1-x) y_wb(x) + (1-x)^2 y_bb(x)``.
    """
    reduction = urns.degenerate_reduce(model)
    if model.kind != urns.TWO_DRAW:
        raise ValueError("the identity check applies to pair-draw models")
    m = model.matrix
    if reduction.case_id in (4, 5):
        if reduction.case_id == 5:
            m = m.color_swap()
            x = 1 - x
        if x == 1:
            raise ValueError("the pullback identity is stated on [0, 1)")
        g = urns.drift_two(m)
        y = 2 * x / (1 + x)
        lhs = Fraction(1, 2) * (1 + x) ** 2 * reduction.reduced_drift.evaluate(y)
        return lhs - g.evaluate(x) / (1 - x)
    a, b, c, d, e, f = m.entries
    y_ww = a - (a + b) * x
    y_wb = c - (c + d) * x
    y_bb = e - (e + f) * x
    weighted = x * x * y_ww + 2 * x * (1 - x) * y_wb + (1 - x) * (1 - x) * y_bb
    return urns.drift_two(m).evaluate(x) - weighted


# ---------------------------------------------------------------------------
# Identity suites over random rational matrices and states
# ---------------------------------------------------------------------------

class SuiteFailure(Exception):
    """An identity that a suite checks does not hold; the message names the input."""


def random_entry(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(0, 9), rng.randint(1, 3))


def random_one_matrix(rng: random.Random) -> urns.OneDrawMatrix:
    return urns.OneDrawMatrix.from_entries([random_entry(rng) for _ in range(4)])


def random_two_matrix(rng: random.Random) -> urns.TwoDrawMatrix:
    return urns.TwoDrawMatrix.from_entries([random_entry(rng) for _ in range(6)])


def random_state(rng: random.Random) -> UrnState:
    white = Fraction(rng.randint(4, 80), rng.randint(1, 2))
    black = Fraction(rng.randint(4, 80), rng.randint(1, 2))
    return UrnState(white, black, 0)


def _suite_boundary_drift_signs(rng: random.Random) -> int:
    checks = 0
    for _ in range(200):
        f1 = urns.drift_one(random_one_matrix(rng))
        f2 = urns.drift_two(random_two_matrix(rng))
        for f in (f1, f2):
            if f.evaluate(Fraction(0)) < 0 or f.evaluate(Fraction(1)) > 0:
                raise SuiteFailure(f"drift {f.to_text()} points outward at a boundary")
            checks += 2
    return checks


def _suite_bias_numerator_columns(rng: random.Random) -> int:
    checks = 0
    for _ in range(200):
        m = random_two_matrix(rng)
        p1, p2, p3 = cond_iv_polys(m)
        if not (p1 + p2 + p3).is_zero:
            raise SuiteFailure(f"bias numerators of {m.entries} do not cancel")
        checks += 1
    return checks


def _suite_variance_decomposition(rng: random.Random) -> int:
    x = RatPoly((Fraction(0), Fraction(1)))
    one = RatPoly((Fraction(1),))
    checks = 0
    for _ in range(200):
        m = random_two_matrix(rng)
        noise = urns.error_two(m)
        b_poly = noise.diff_ww_bb
        c_poly = noise.diff_wb_bb
        a_poly = noise.second_diff
        if a_poly != b_poly - 2 * c_poly:
            raise SuiteFailure(f"second difference relation fails for {m.entries}")
        quartic = (
            2 * x * x * (a_poly + c_poly) * (a_poly + c_poly)
            + x * (one - x) * b_poly * b_poly
            + 2 * (one - x) * (one - x) * c_poly * c_poly
        )
        if noise.variance_factor != quartic or noise.error != x * (one - x) * quartic:
            raise SuiteFailure(f"variance decomposition fails for {m.entries}")
        model = urns.UrnModel(m, Fraction(2), Fraction(2), urns.WITH_REPLACEMENT)
        state = random_state(rng)
        moments = cond_moments_oracle(state, model)
        z = state.proportion_white
        if moments.mean_u != 0 or noise.error.evaluate(z) != moments.mean_u_sq:
            raise SuiteFailure(f"enumerated noise moments disagree for {m.entries}")
        checks += 3
    return checks


def _suite_single_draw_bias_oracle(rng: random.Random) -> int:
    checks = 0
    for _ in range(500):
        m = random_one_matrix(rng)
        state = random_state(rng)
        model = urns.UrnModel(m, Fraction(1), Fraction(1), urns.WITH_REPLACEMENT)
        moments = cond_moments_oracle(state, model)
        if cond_iv_closed_form_one(state, m) != moments.mean_u_over_next_t:
            raise SuiteFailure(f"single-draw bias closed form disagrees for {m.entries}")
        checks += 1
    return checks


def _suite_pair_bias_oracle(rng: random.Random) -> int:
    checks = 0
    for _ in range(500):
        m = random_two_matrix(rng)
        state = random_state(rng)
        for sampling in (urns.WITHOUT_REPLACEMENT, urns.WITH_REPLACEMENT):
            model = urns.UrnModel(m, Fraction(2), Fraction(2), sampling)
            moments = cond_moments_oracle(state, model)
            if sampling == urns.WITHOUT_REPLACEMENT:
                if mean_noise_residual_two(state, m) != moments.mean_u:
                    raise SuiteFailure(f"pair mean residual disagrees for {m.entries}")
            elif moments.mean_u != 0:
                raise SuiteFailure(f"pair noise not centered for {m.entries}")
            if cond_iv_closed_form_two(state, m, sampling) != moments.mean_u_over_next_t:
                raise SuiteFailure(f"pair bias closed form disagrees for {m.entries}")
            checks += 2
    return checks


def _suite_degenerate_identities(rng: random.Random) -> int:
    checks = 0
    for _ in range(50):
        for zero_rows in ((0, 1), (4, 5), (2, 3)):
            entries = [random_entry(rng) + 1 for _ in range(6)]
            for idx in zero_rows:
                entries[idx] = Fraction(0)
            model = urns.two_draw_model(entries, 2, 2)
            for _ in range(20):
                point = Fraction(rng.randint(1, 99), 100)
                if degenerate_identity_gap(model, point) != 0:
                    raise SuiteFailure(
                        f"reduction identity fails for {tuple(entries)} at {point}"
                    )
                checks += 1
    return checks


#: Each suite by name: it draws its inputs from the stream it is given and
#: returns the number of checks it made, or raises :class:`SuiteFailure`.
SUITES = (
    ("boundary-drift-signs", _suite_boundary_drift_signs),
    ("pair-bias-numerator-columns", _suite_bias_numerator_columns),
    ("pair-variance-decomposition", _suite_variance_decomposition),
    ("single-draw-bias-oracle", _suite_single_draw_bias_oracle),
    ("pair-bias-oracle", _suite_pair_bias_oracle),
    ("inactive-row-reductions", _suite_degenerate_identities),
)
