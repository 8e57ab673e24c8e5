"""Simulation engine: replicate seeding, exact stepping, kernel-oracle agreement,
output formats, distribution checks, and the verification pipeline.

``scipy`` serves as the independent oracle for the Beta distribution function
and the KS statistic, and ``mpmath`` where scipy itself is off by 2e-11; the
library itself has no third-party dependencies.
"""

import contextlib
import json
import math
import multiprocessing
import os
import pickle
import random
from fractions import Fraction

import mpmath
import pytest
import scipy.special
import scipy.stats
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import polyurn.montecarlo as mc
import polyurn.oracle as oracle
from polyurn.analysis import predict_limit, prediction_from_dict
from polyurn.montecarlo import (
    DEFAULT_RADIUS,
    KS_LEVEL,
    MAX_EXCLUDED_FRACTION,
    MIN_ALLOWED_FRACTION,
    VERDICT_CONSISTENT,
    VERDICT_INCONCLUSIVE,
    VERDICT_INCONSISTENT,
    Conventions,
    KSResult,
    ReplicateResult,
    SimConfig,
    VerificationReport,
    cluster_finals,
    finals_csv_lines,
    judge,
    ks_beta,
    regularized_incomplete_beta,
    replicate_rng,
    replicate_stream_seed,
    run_replicates,
    simulate,
    trajectory_csv_lines,
    verify,
)
from polyurn.oracle import UrnState, step, step_distribution
from polyurn.urns import one_draw_model, two_draw_model

from helpers import initial_state

F = Fraction
WITH = "with"


# ---------------------------------------------------------------------------
# Replicate stream seeding
# ---------------------------------------------------------------------------

def test_stream_seed_frozen_values():
    # Regression pins: changing the mixing scheme would silently break
    # reproducibility of every recorded run.
    assert replicate_stream_seed(0, 0) == 12035550249420947055
    assert replicate_stream_seed(0, 1) == 12935080325729570654
    assert replicate_stream_seed(42, 0) == 6332618229526065668
    assert replicate_rng(0, 0).getrandbits(53) == 7210173182535283


def test_stream_seeds_distinct_across_replicates_and_bases():
    seeds = {replicate_stream_seed(0, i) for i in range(200)}
    assert len(seeds) == 200
    other = {replicate_stream_seed(1, i) for i in range(200)}
    assert not (seeds & other)


def test_stream_seed_rejects_negative_replicate():
    with pytest.raises(ValueError):
        replicate_stream_seed(0, -1)


# ---------------------------------------------------------------------------
# Single-step semantics
# ---------------------------------------------------------------------------

class ScriptedRng:
    """Feeds a fixed queue of 53-bit draws and records usage.

    ``getrandbits(64 k)`` packs the next ``k`` draws into 64-bit words, low
    word first, as ``random.Random`` lays out the two 32-bit halves of each:
    a draw's low 32 bits, then the 11 bits ``getrandbits(53)`` discards, all
    ones here so that reading them shows, then its top 21 bits.
    """

    def __init__(self, values):
        self.values = list(values)
        self.calls = 0

    def getrandbits(self, bits):
        if bits == 53:
            self.calls += 1
            return self.values.pop(0)
        assert bits > 0 and bits % 64 == 0
        block = 0
        for i in range(bits // 64):
            u = self.getrandbits(53)
            block |= ((u & 0xFFFFFFFF) | 0x7FF << 32 | (u >> 32) << 43) << (64 * i)
        return block


def test_step_consumes_one_draw_and_respects_exact_thresholds():
    model = one_draw_model([3, 2, 2, 3], 1, 2)
    state = UrnState(1, 2)
    # P(white row) = 1/3; the cut sits at the largest u with 3u < 2**53.
    cut = (1 << 53) // 3  # 3 * cut < 2**53 < 3 * (cut + 1)
    for u, expected in [
        (0, (F(4), F(4))),
        (cut, (F(4), F(4))),
        (cut + 1, (F(3), F(5))),
        ((1 << 53) - 1, (F(3), F(5))),
    ]:
        rng = ScriptedRng([u])
        after = step(state, model, rng)
        assert (after.white, after.black) == expected
        assert after.step == state.step + 1
        assert rng.calls == 1


def test_step_raises_if_probabilities_fall_short(monkeypatch):
    model = one_draw_model([3, 2, 2, 3], 1, 2)
    outcomes = list(step_distribution(UrnState(1, 2), model))[:1]  # sums to 1/3
    monkeypatch.setattr(oracle, "step_distribution", lambda state, model: outcomes)
    with pytest.raises(ArithmeticError):
        step(UrnState(1, 2), model, ScriptedRng([(1 << 53) - 1]))


# ---------------------------------------------------------------------------
# Configuration validation
# ---------------------------------------------------------------------------

def test_sim_config_rejects_bad_values():
    model = one_draw_model([1, 0, 0, 1], 1, 1)
    with pytest.raises(ValueError):
        SimConfig(model=model, steps=-1, replicates=1)
    with pytest.raises(ValueError):
        SimConfig(model=model, steps=1, replicates=-1)
    with pytest.raises(ValueError):
        SimConfig(model=model, steps=1, replicates=1, trajectory_stride=0)


@pytest.mark.parametrize("seed, valid", [(-1, False), (0, True), (2**64 - 1, True), (2**64, False)])
def test_sim_config_takes_only_seeds_of_64_bits(seed, valid):
    model = one_draw_model([1, 0, 0, 1], 1, 1)
    if valid:
        assert SimConfig(model=model, steps=1, replicates=1, base_seed=seed).base_seed == seed
    else:
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            SimConfig(model=model, steps=1, replicates=1, base_seed=seed)


def test_run_replicates_rejects_bad_parallelism():
    model = one_draw_model([1, 0, 0, 1], 1, 1)
    with pytest.raises(ValueError):
        run_replicates(SimConfig(model=model, steps=1, replicates=1), parallelism=0)


# ---------------------------------------------------------------------------
# Integer kernels versus the rational step oracle
# ---------------------------------------------------------------------------

def oracle_run(config, replicate_index):
    """Replicate ``replicate_index`` stepped by the rational reference ``step``."""
    rng = replicate_rng(config.base_seed, replicate_index)
    state = initial_state(config.model)
    traj = [] if config.record_trajectory else None

    def record(step_index):
        if traj is not None:
            traj.append((step_index, float(state.white / state.total)))

    record(0)
    for i in range(config.steps):
        state = step(state, config.model, rng)
        if (i + 1) % config.trajectory_stride == 0 or i + 1 == config.steps:
            record(i + 1)
    scale = config.model.scaled.scale
    white, black = state.white * scale, state.black * scale
    assert white.denominator == black.denominator == 1
    return ReplicateResult(
        replicate_index, white.numerator, black.numerator, scale,
        tuple(traj) if traj is not None else None,
    )


KERNEL_MODELS = [
    one_draw_model([3, 2, 2, 3], 1, 2),
    one_draw_model([F(1, 2), F(1, 3), F(1, 4), F(1, 5)], F(1, 2), F(1, 3)),
    two_draw_model([3, 2, 2, 3, 1, 4], 2, 3),
    two_draw_model([9, 1, 2, 3, 1, 7], 2, 2, sampling=WITH),
    two_draw_model([F(1, 2), F(1, 2), F(1, 3), F(2, 3), F(1, 4), F(3, 4)], 2, 2, sampling=WITH),
    # the fractional pair models of the simulate-fractional benchmark
    two_draw_model([F(15, 2), 3, 4, 1, 3, 21], 5, 2),
    two_draw_model([F(9, 2), 1, 2, 3, 1, 7], 2, 2),
    two_draw_model([F(15, 2), F(3, 2), 2, F(1, 2), F(3, 2), F(21, 2)], 5, 2),
    two_draw_model([F(1, 2), 0, 0, F(1, 2), F(1, 2), 0], 2, 2),
]

# Totals at or above the bounds for doubles, so the kernels run on integer counts:
INTEGER_COUNT_MODELS = [
    # pairs from near 2**26 (one starts below it and crosses it at once)
    two_draw_model([3 * 10**7, 2 * 10**7, 2 * 10**7, 3 * 10**7, 10**7, 4 * 10**7],
                   2**26 - 9, 2**26 - 5),
    two_draw_model([9 * 10**7, 10**7, 2 * 10**7, 3 * 10**7, 10**7, 7 * 10**7],
                   2**25 - 4, 2**25 - 4, sampling=WITH),
    two_draw_model([F(15, 2) * 10**7, 3 * 10**7, 4 * 10**7, 10**7, 3 * 10**7, 21 * 10**7],
                   2**25, 3),
    # and single draws from 2**53
    one_draw_model([3 * 10**7, 2 * 10**7, 2 * 10**7, 3 * 10**7], 2**52, 2**52),
]


def assert_kernel_runs_match_oracle(model):
    config = SimConfig(
        model=model, steps=60, replicates=3, base_seed=9,
        record_trajectory=True, trajectory_stride=7,
    )
    runs = [simulate(config, i) for i in range(config.replicates)]
    assert runs == [oracle_run(config, i) for i in range(config.replicates)]
    # Equality cannot tell 150.0 from 150, but the finals CSV would print it.
    assert all(type(r.white) is int and type(r.black) is int for r in runs)


@pytest.mark.parametrize("model", KERNEL_MODELS, ids=range(len(KERNEL_MODELS)))
def test_kernels_match_oracle_on_fixed_models(model):
    assert_kernel_runs_match_oracle(model)


@pytest.mark.parametrize("model", INTEGER_COUNT_MODELS, ids=range(len(INTEGER_COUNT_MODELS)))
def test_kernels_match_oracle_on_integer_count_models(model):
    assert_kernel_runs_match_oracle(model)


def _random_rational(rng, low=0):
    return F(rng.randint(low, 12), rng.randint(1, 4))


def test_kernels_match_step_oracle_on_random_rational_models():
    rng = random.Random(20261018)
    for case in range(240):
        kind = ("one", "with", "without")[case % 3]
        entries = [_random_rational(rng) for _ in range(4 if kind == "one" else 6)]
        if not any(entries):
            entries[0] = F(1)
        low = 8 if kind == "without" else 0  # w0, b0 >= 2 without replacement
        w0, b0 = _random_rational(rng, low), _random_rational(rng, max(low, 1))
        if kind == "one":
            model = one_draw_model(entries, w0, b0)
        else:
            model = two_draw_model(entries, w0, b0, sampling=kind)
        config = SimConfig(
            model=model, steps=rng.randint(0, 50), replicates=2,
            base_seed=rng.randrange(2**32), record_trajectory=case % 2 == 0,
            trajectory_stride=rng.randint(1, 9),
        )
        for i in range(config.replicates):
            assert simulate(config, i) == oracle_run(config, i), (model, config, i)


def assert_first_step_matches_oracle(model, u, monkeypatch):
    """One step of :func:`simulate` on the draw ``u`` lands where :func:`step` does."""
    monkeypatch.setattr(mc, "replicate_rng", lambda seed, index: ScriptedRng([u]))
    result = simulate(SimConfig(model=model, steps=1, replicates=1), 0)
    expected = step(initial_state(model), model, ScriptedRng([u]))
    assert (result.final_white, result.final_black) == (expected.white, expected.black)


@pytest.mark.parametrize("sampling", [WITH, "without"])
def test_pair_kernel_matches_oracle_at_exact_thresholds(sampling, monkeypatch):
    # From 2 white and 2 black balls the cumulative outcome probabilities are
    # 1/4 and 3/4 with replacement, 1/6 and 5/6 without; draws on and next to
    # each cut must pick the outcome the rational oracle picks.
    model = two_draw_model([F(1, 2), 0, 0, F(1, 3), F(1, 5), 0], 2, 2, sampling=sampling)
    draws = []
    for cut in (F(1, 4), F(3, 4), F(1, 6), F(5, 6)):
        edge = math.floor(cut * (1 << 53))
        draws += [edge - 1, edge, edge + 1]
    for u in draws:
        assert_first_step_matches_oracle(model, u, monkeypatch)


def _near_tie_draws(denominator, cut):
    """Draws ``u`` whose rounded product ``fl(u / 2**53 * D)`` equals the cut.

    Maps ``"above"`` and ``"below"`` to a draw whose exact product lies on
    that side of the cut, where one exists next to ``cut * 2**53 / D``.
    """
    found = {}
    centre = (cut << 53) // denominator
    for u in range(centre - 2, centre + 3):
        exact = u * denominator - (cut << 53)
        if exact and u * 2.0**-53 * denominator == cut:
            found["above" if exact > 0 else "below"] = u
    return found


def kind_model(kind, entries, w0, b0):
    """A single-draw model for ``kind == "one"``, else a pair model sampling ``kind``."""
    if kind == "one":
        return one_draw_model(entries, w0, b0)
    return two_draw_model(entries, w0, b0, sampling=kind)


def _cut_of(kind, cut_index, w, b):
    """``(D, n)`` of one draw decision from integer counts ``w``, ``b``."""
    t = w + b
    if kind == "one":
        return t, w
    d = 1 if kind == "without" else 0
    return t * (t - d), w * (w - d) + cut_index * 2 * w * b


#: Totals below which every count and product of a draw is an exact double.
FLOAT_BOUNDS = {"one": 2**53, WITH: 2**26, "without": 2**26}
NEAR_TIE_CUTS = [("one", 0), (WITH, 0), (WITH, 1), ("without", 0), ("without", 1)]


def _near_tie_cases(kind, cut_index):
    """Start counts and draw ``(w, b, u)`` of a near-tie at one cut, per side."""
    start = 2**50 if kind == "one" else 2**22
    cases = {}
    for k in range(1, 2000):
        w, b = start + 7919 * k, 2 * start + 104729 * k
        for side, u in _near_tie_draws(*_cut_of(kind, cut_index, w, b)).items():
            cases.setdefault(side, (w, b, u))
        if len(cases) == 2:
            break
    return cases


@pytest.mark.parametrize("kind, cut_index", NEAR_TIE_CUTS)
def test_kernels_match_oracle_at_float_near_ties(kind, cut_index, monkeypatch):
    # On doubles the kernels round one product, x D with x = u / 2**53. Where it
    # rounds onto a cut n, the exact product may lie on either side of n by
    # less than half an ulp; start counts are searched until both sides show.
    bound = FLOAT_BOUNDS[kind]
    rows = [3, 2, 2, 3] if kind == "one" else [3, 2, 2, 3, 1, 4]
    cases = _near_tie_cases(kind, cut_index)
    assert set(cases) == {"above", "below"}
    for w, b, u in cases.values():
        denominator, cut = _cut_of(kind, cut_index, w, b)
        assert u * 2.0**-53 * denominator == cut != F(u, 1 << 53) * denominator
        assert w + b + 7 < bound  # one step stays on doubles
        assert_first_step_matches_oracle(kind_model(kind, rows, w, b), u, monkeypatch)


def _double_misjudged_draw(kind, cut_index, w, b):
    """A draw next to one cut that double-precision arithmetic decides wrongly.

    Rounds the counts, ``D`` and the cut to doubles, as a run on doubles
    would, and returns a draw whose rounded product lies strictly on the
    other side of the rounded cut than the exact product lies of the exact
    cut, or ``None``.
    """
    denominator, cut = _cut_of(kind, cut_index, w, b)
    wf, bf, tf = float(w), float(b), float(w + b)
    if kind == "one":
        d_float, n_float = tf, wf
    else:
        d = 1.0 if kind == "without" else 0.0
        d_float, n_float = tf * (tf - d), wf * (wf - d)
        if cut_index:
            n_float += 2.0 * wf * bf
    centre = (cut << 53) // denominator
    for u in range(centre - 2, centre + 3):
        y = u * 2.0**-53 * d_float
        if y != n_float and (y < n_float) != (u * denominator < cut << 53):
            return u
    return None


@pytest.mark.parametrize("kind, cut_index", NEAR_TIE_CUTS)
def test_kernels_match_oracle_where_doubles_misjudge(kind, cut_index, monkeypatch):
    # Above the bounds for doubles the counts and products are no longer
    # exact doubles; these draws would go wrong in double precision, so
    # they show that integer counts decide there.
    bound = FLOAT_BOUNDS[kind]
    rows = [3, 2, 2, 3] if kind == "one" else [3, 2, 2, 3, 1, 4]
    for k in range(1, 4000):
        w, b = 8 * bound + 7919 * k, bound + 104729 * k
        u = _double_misjudged_draw(kind, cut_index, w, b)
        if u is not None:
            break
    assert u is not None and w + b >= bound  # the first step runs on integers
    assert_first_step_matches_oracle(kind_model(kind, rows, w, b), u, monkeypatch)


def _run_kernel(kind, num, rows, w0, b0, draws, segments):
    """Final counts and trajectory of one kernel run with every number of type ``num``."""
    grb = ScriptedRng(draws).getrandbits
    traj = []
    counts = num(w0), num(b0), tuple(map(num, rows))
    # The largest row total, and the most white and black balls a row adds, as ints.
    reach = max(map(sum, zip(rows[::2], rows[1::2]))), max(rows[::2]), max(rows[1::2])
    if kind == "one":
        w, b = mc._one_draw(grb, *counts, *reach, num(1 << 53), segments, traj)
    else:
        d = num(1 if kind == "without" else 0)
        w, b = mc._pair(grb, *counts, *reach, d, num(1 << 53), segments, traj)
    return w, b, traj


@pytest.mark.parametrize("kind", ["one", WITH, "without"])
def test_kernels_run_alike_on_doubles_and_integer_counts(kind):
    # The same draws must give the same finals and trajectory on either
    # number type. The first draw sits on or next to a cut of the start
    # state, or is a near-tie there, where doubles round onto the cut.
    rows = [3, 2, 2, 3] if kind == "one" else [3, 2, 2, 3, 1, 4]
    rng = random.Random(kind)
    segments = [(7, 7), (14, 7), (20, 6)]
    starts = []
    for cut_index in range(1 if kind == "one" else 2):
        for w0, b0 in [(2, 2), (5, 3), (2**20 + 3, 2**21 - 1)]:
            denominator, cut = _cut_of(kind, cut_index, w0, b0)
            edge = (cut << 53) // denominator
            starts += [(w0, b0, u) for u in (edge - 1, edge, edge + 1)]
        starts += _near_tie_cases(kind, cut_index).values()
    for w0, b0, first in starts:
        assert w0 + b0 + 20 * 5 < FLOAT_BOUNDS[kind]  # every count and product is an exact double
        draws = [first] + [rng.getrandbits(53) for _ in range(19)]
        doubles = _run_kernel(kind, float, rows, w0, b0, draws, segments)
        integers = _run_kernel(kind, int, rows, w0, b0, draws, segments)
        assert doubles == integers, (w0, b0, draws)


def _start_counts(bound, low):
    """Small counts, or counts large enough to cross ``bound`` once scaled."""
    numerators = st.one_of(st.integers(low, 12), st.integers(bound // 4, bound // 2))
    return st.builds(F, numerators, st.integers(1, 4))


@st.composite
def simulation_configs(draw):
    kind = draw(st.sampled_from(["one", WITH, "without"]))
    bound = FLOAT_BOUNDS[kind]
    magnitude = draw(st.sampled_from([1, 10**7]))
    entries = draw(st.lists(
        st.builds(F, st.integers(0, 12), st.integers(1, 4)),
        min_size=4 if kind == "one" else 6, max_size=4 if kind == "one" else 6,
    ).filter(any))
    entries = [e * magnitude for e in entries]
    low = 8 if kind == "without" else 0  # w0, b0 >= 2 without replacement
    w0, b0 = draw(_start_counts(bound, low)), draw(_start_counts(bound, max(low, 1)))
    return SimConfig(
        model=kind_model(kind, entries, w0, b0), steps=draw(st.integers(0, 50)), replicates=1,
        base_seed=draw(st.integers(0, 2**32 - 1)), record_trajectory=draw(st.booleans()),
        trajectory_stride=draw(st.integers(1, 9)),
    )


@pytest.mark.parametrize("above", [False, True], ids=["doubles", "integer-counts"])
@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(data=st.data())
def test_simulate_matches_oracle_on_both_sides_of_the_float_bound(above, data):
    config = data.draw(simulation_configs())
    view = config.model.scaled
    bound = FLOAT_BOUNDS["one" if config.model.kind == "one-draw" else WITH]
    assume((view.w0 + view.b0 + config.steps * max(view.row_sums) >= bound) == above)
    assert simulate(config, 0) == oracle_run(config, 0)


# ---------------------------------------------------------------------------
# Bracketed windows: the kernels against the oracle where windows open
# ---------------------------------------------------------------------------

#: Start counts large against the rows, so that windows open at step 0; the
#: last model runs on integer counts, the others on doubles.
WINDOW_MODELS = [
    one_draw_model([3, 2, 2, 3], 10**5, 3 * 10**5),
    one_draw_model([F(5, 2), 1, F(1, 3), 4], 10**5 + F(1, 2), 2 * 10**5),
    two_draw_model([3, 2, 2, 3, 1, 4], 10**5, 2 * 10**5),
    two_draw_model([9, 1, 2, 3, 1, 7], 10**5, 10**5, sampling=WITH),
    two_draw_model([F(7, 2), 3, 0, 5, 9, 7], 3 * 10**5, 10**5 + F(1, 2), sampling=WITH),
    one_draw_model([3, 2, 2, 3], 2**53, 2**52 + 1),
]


def _cut_draws(state, model):
    """Each exact cut of ``state`` as the least draw ``u`` at or above it."""
    cumulative, cuts = F(0), []
    for outcome in step_distribution(state, model)[:-1]:
        cumulative += outcome.probability
        cuts.append(-(-(cumulative.numerator << 53) // cumulative.denominator))
    return cuts


def _window_bounds(view, d, k):
    """The kernels' bounds ``lo``, ``hi`` on the cuts of a ``k``-step window from the start:
    the ceilings at the corners ``(W, B + (k - 1) a')`` and ``(W + (k - 1) a, B)``."""
    rows = view.entries
    cuts = mc._ceilings(view.w0, view.b0, d, (k - 1) * max(rows[::2]), (k - 1) * max(rows[1::2]))
    return cuts[:len(cuts) // 2], cuts[len(cuts) // 2:]


def _first_window(model, length):
    """Steps and bracket of the first window of a ``length``-step segment from the start."""
    view = model.scaled
    k = min(length, mc._WINDOW_FACTOR * math.isqrt((view.w0 + view.b0) // max(view.row_sums)))
    assert length >= mc._WINDOW_MIN and k >= mc._WINDOW_MIN  # a window opens
    d = None if model.kind == "one-draw" else view.scale if model.sampling == "without" else 0
    return (k, *_window_bounds(view, d, k))


@pytest.mark.parametrize("record", [False, True], ids=["finals", "trajectory"])
@pytest.mark.parametrize("model", WINDOW_MODELS, ids=range(len(WINDOW_MODELS)))
def test_kernels_match_oracle_where_windows_open(model, record):
    config = SimConfig(model=model, steps=400, replicates=2, base_seed=3,
                       record_trajectory=record, trajectory_stride=60)
    _first_window(model, 60 if record else 400)  # asserts that a window opens at step 0
    for i in range(config.replicates):
        assert simulate(config, i) == oracle_run(config, i)


def test_kernels_match_oracle_on_a_long_run_of_wide_windows():
    # A fractional pair model with replacement whose counts dwarf its rows,
    # so that every window spans a whole piece of the run.
    model = two_draw_model([F(7, 2), 3, 0, 5, 9, 7], 6 * 10**7, 4 * 10**6, sampling=WITH)
    config = SimConfig(model=model, steps=3000, replicates=2, base_seed=5)
    assert simulate(config, 1) == oracle_run(config, 1)


def assert_window_matches_oracle(model, k, choose, monkeypatch):
    """``k`` steps of :func:`simulate` on the draws ``choose(i, cuts of the oracle's state)``."""
    state, draws = initial_state(model), []
    for i in range(k):
        u = choose(i, _cut_draws(state, model))
        draws.append(u)
        state = step(state, model, ScriptedRng([u]))
    monkeypatch.setattr(mc, "replicate_rng", lambda seed, index: ScriptedRng(draws))
    result = simulate(SimConfig(model=model, steps=k, replicates=1), 0)
    assert (result.final_white, result.final_black) == (state.white, state.black), draws[0]


@pytest.mark.parametrize("model", WINDOW_MODELS, ids=range(len(WINDOW_MODELS)))
def test_window_draws_at_its_bounds_and_at_each_cut_match_oracle(model, monkeypatch):
    # The first draw sits at or next to a bound of the first window; every
    # later draw of the window sits at or just below an exact cut of the
    # oracle's state, where a bracket that missed any reachable cut decides wrong.
    k, lo, hi = _first_window(model, 64)
    for first in sorted({u for bound in lo + hi for u in (bound - 1, bound)}):
        assert_window_matches_oracle(
            model, k,
            lambda i, cuts: first if i == 0 else cuts[i % len(cuts)] - (i // len(cuts)) % 2,
            monkeypatch)


#: Models whose first outcome adds only white balls and whose last adds only
#: black ones, the most of each, so that a window reaches both corners of its box.
CORNER_MODELS = [
    one_draw_model([1, 0, 0, 1], 10**5, 10**5),
    two_draw_model([2, 0, 1, 1, 0, 2], 10**5, 10**5),
    two_draw_model([F(3, 2), 0, 1, 1, 0, 2], 10**5, 10**5, sampling=WITH),
]


@pytest.mark.parametrize("model", CORNER_MODELS, ids=range(len(CORNER_MODELS)))
def test_window_walks_to_each_corner_of_its_box_and_matches_oracle(model, monkeypatch):
    # All but the last draw pick the first (or the last) outcome, which walks
    # the state to a corner of the box; the last draw sits at or just below
    # each exact cut there.
    k, _, _ = _first_window(model, 64)
    for push in (0, (1 << 53) - 1):
        for cut_index in range(1 if model.kind == "one-draw" else 2):
            for below in (0, 1):
                assert_window_matches_oracle(
                    model, k,
                    lambda i, cuts: push if i < k - 1 else cuts[cut_index] - below,
                    monkeypatch)


# ---------------------------------------------------------------------------
# Guessed boxes: a window whose counts leave its box is decided on the worst case
# ---------------------------------------------------------------------------

#: For each draw rule, on doubles and then on integer counts: the first row
#: adds the most balls of each colour, the last the fewest (one white ball).
MISS_MODELS = [
    one_draw_model([4, 3, 1, 0], 10**5, 10**5),
    one_draw_model([4, 3, 1, 0], 2**52, 2**52),
    two_draw_model([4, 3, 2, 2, 1, 0], 10**5, 10**5, sampling=WITH),
    two_draw_model([4, 3, 2, 2, 1, 0], 2**25, 2**25, sampling=WITH),
    two_draw_model([4, 3, 2, 2, 1, 0], 10**5, 10**5),
    two_draw_model([4, 3, 2, 2, 1, 0], 2**25, 2**25),
]


def assert_scripted_run_matches_oracle(config, choose, monkeypatch):
    """Replicate 0 of ``config`` on the draws ``choose(i, cuts of the oracle's state)``.

    It must equal ``oracle_run`` on the same draws.
    """
    state, draws = initial_state(config.model), []
    for i in range(config.steps):
        u = choose(i, _cut_draws(state, config.model))
        draws.append(u)
        state = step(state, config.model, ScriptedRng([u]))
    scripted = lambda seed, index: ScriptedRng(draws)  # noqa: E731
    monkeypatch.setattr(mc, "replicate_rng", scripted)
    monkeypatch.setitem(globals(), "replicate_rng", scripted)  # the one oracle_run calls
    assert simulate(config, 0) == oracle_run(config, 0)


@pytest.mark.parametrize("leave", ["first", "middle", "last"])
@pytest.mark.parametrize("model", MISS_MODELS, ids=[
    f"{rule}-{num}" for rule in ("one", WITH, "without") for num in ("doubles", "ints")])
def test_a_window_that_leaves_its_guessed_box_matches_oracle(model, leave, monkeypatch):
    # Two windows of k steps: the first adds only the last row, so the second
    # guesses a narrow box. There the first row walks the counts out of it at
    # the first draw that can, at the middle draw or at the last draw; later
    # draws sit at or just below the oracle's cuts.
    k, view = 64, model.scaled
    config = SimConfig(model=model, steps=2 * k, replicates=1, record_trajectory=True,
                       trajectory_stride=k)
    bound = FLOAT_BOUNDS["one" if model.kind == "one-draw" else WITH]
    on_ints = view.w0 + view.b0 + config.steps * max(view.row_sums) >= bound
    assert on_ints == (view.w0 > 10**5)
    assert mc._WINDOW_FACTOR * math.isqrt((view.w0 + view.b0) // max(view.row_sums)) >= k
    most_w, most_b = max(view.entries[::2]), max(view.entries[1::2])
    (big_w, big_b), (small_w, small_b) = view.entries[:2], view.entries[-2:]
    gw, gb, reach_w, reach_b = mc._boxes((k * small_w, k * small_b, k), k, most_w, most_b)
    assert gw < reach_w and gb < reach_b  # a guessed box

    def leaves_at(start):
        """The draw whose first row takes the counts out of the box, first rows from ``start``."""
        j = 1
        while start * small_w + j * big_w <= gw and start * small_b + j * big_b <= gb:
            j += 1
        return start + j - 1

    at = {"first": leaves_at(0), "middle": k // 2, "last": k - 1}[leave]
    start = next(s for s in range(k) if leaves_at(s) == at)
    last_row, first_row = (1 << 53) - 1, 0

    def choose(i, cuts):
        i -= k  # the second window's draw
        if i < start:
            return last_row
        if i <= at:
            return first_row
        return cuts[i % len(cuts)] - (i // len(cuts)) % 2

    boxes = []
    ceilings = mc._ceilings
    monkeypatch.setattr(mc, "_ceilings", lambda *args: boxes.append(args[3:]) or ceilings(*args))
    assert_scripted_run_matches_oracle(config, choose, monkeypatch)
    # One box for the first window, then the second's guess, missed, and its worst case.
    assert boxes[1:] == [(gw, gb), (reach_w, reach_b)]


#: Models whose first row adds one white ball and whose other rows add none.
ONE_BALL_MODELS = [
    one_draw_model([1, 0, 0, 1], 10**5, 10**5),
    one_draw_model([1, 0, 0, 1], 2**52, 2**52),
    two_draw_model([1, 0, 0, 1, 0, 1], 10**5, 10**5, sampling=WITH),
    two_draw_model([1, 0, 0, 1, 0, 1], 2**25, 2**25, sampling=WITH),
    two_draw_model([1, 0, 0, 1, 0, 1], 10**5, 10**5),
    two_draw_model([1, 0, 0, 1, 0, 1], 2**25, 2**25),
]


@pytest.mark.parametrize("model", ONE_BALL_MODELS, ids=[
    f"{rule}-{num}" for rule in ("one", WITH, "without") for num in ("doubles", "ints")])
def test_a_window_one_white_ball_outside_its_guessed_box_matches_oracle(model, monkeypatch):
    # The second window's first rows take the counts one white ball past its
    # box; the next draw is just below the first cut there, which the bracket
    # puts above it. Every later draw adds no white ball, so the window ends
    # one ball past its box, and must still be decided again.
    k = 64
    config = SimConfig(model=model, steps=2 * k, replicates=1, record_trajectory=True,
                       trajectory_stride=k)
    gw, _, reach_w, _ = mc._boxes((0, k, k), k, 1, 1)
    assert gw < reach_w

    def choose(i, cuts):
        i -= k  # the second window's draw
        if 0 <= i <= gw:
            return 0
        return cuts[0] - 1 if i == gw + 1 else (1 << 53) - 1

    assert_scripted_run_matches_oracle(config, choose, monkeypatch)


@st.composite
def guessed_boxes(draw):
    kind = draw(st.sampled_from(["one", WITH, "without"]))
    entries = draw(st.lists(st.builds(F, st.integers(0, 10), st.integers(1, 3)),
                            min_size=4 if kind == "one" else 6,
                            max_size=4 if kind == "one" else 6).filter(any))
    # Counts on doubles, or large enough for integer counts, and always large
    # enough against the rows for windows to open.
    counts = st.one_of(st.integers(10**4, 10**6), st.integers(2**52, 2**53))
    model = kind_model(kind, entries, draw(counts), draw(counts))
    config = SimConfig(model=model, steps=draw(st.integers(mc._WINDOW_MIN, 300)), replicates=1,
                       base_seed=draw(st.integers(0, 2**32 - 1)))
    return config, (draw(st.integers(0, 4000)), draw(st.integers(0, 4000)))


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(case=guessed_boxes())
def test_kernels_match_oracle_on_any_guessed_box(case):
    # Whatever box a window guesses, every decision is the exact one.
    config, guess = case
    guessed = []

    def boxes(last, k, most_w, most_b):
        guessed.append(k)
        return (*guess, (k - 1) * most_w, (k - 1) * most_b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(mc, "_boxes", boxes)
        result = simulate(config, 0)
    assert guessed  # a window opened
    assert result == oracle_run(config, 0)


#: Windows whose byte classes reach the ends of the byte range: pairs whose
#: WB class is empty, at top byte 0 and at 255, and starts where a cut is 1
#: or 0, so that a ceiling is ``2**53`` or 0 (for every state the window
#: reaches, where no row adds a ball of the missing colour).
CLASS_MODELS = [
    two_draw_model([3, 2, 2, 3, 1, 4], 10**3, 10**6, sampling=WITH),
    two_draw_model([3, 2, 2, 3, 1, 4], 10**6, 10**3),
    one_draw_model([1, 0, 0, 1], 10**5, 0),
    one_draw_model([2, 0, 1, 0], 10**5, 0),
    one_draw_model([1, 0, 0, 1], 0, 10**5),
    one_draw_model([0, 1, 0, 2], 0, 10**5),
    two_draw_model([2, 0, 1, 1, 0, 2], 10**5, 0, sampling=WITH),
    two_draw_model([2, 0, 1, 0, 3, 0], 10**5, 0, sampling=WITH),
    two_draw_model([2, 0, 1, 1, 0, 2], 0, 10**5, sampling=WITH),
    two_draw_model([0, 1, 0, 2, 0, 3], 0, 10**5, sampling=WITH),
]


def _class_edge_draws(lo, hi):
    """Draws at the edges of a window's byte classes, in top bytes 0 and 255 too.

    A bound ``c`` of a cut has top byte ``c >> 45``; the draws are the
    lowest and highest of that byte and of the bytes next to it (``L - 1``,
    ``L``, ``H`` and ``H + 1`` for the bounds ``l`` and ``h``), and ``c - 1``
    and ``c``.
    """
    tops, draws = {0, 255}, set()
    for bound in lo + hi:
        tops |= {(bound >> 45) - 1, bound >> 45, (bound >> 45) + 1}
        draws |= {bound - 1, bound}
    draws |= {top << 45 | low for top in tops for low in (0, (1 << 45) - 1)}
    return sorted(u for u in draws if 0 <= u < 1 << 53)


def test_class_models_reach_the_ends_of_the_byte_range():
    windows = [_first_window(model, 64)[1:] for model in CLASS_MODELS]
    empty_wb = [lo[1] >> 45 for lo, hi in windows
                if len(lo) == 2 and hi[0] >> 45 >= (lo[1] >> 45) - 1]
    assert 0 in empty_wb and 255 in empty_wb
    for cuts in (1, 2):
        assert any(len(lo) == cuts and hi[-1] == 1 << 53 for lo, hi in windows)
        assert any(len(lo) == cuts and lo[0] == 1 << 53 for lo, hi in windows)
        assert any(len(lo) == cuts and lo[0] == 0 for lo, hi in windows)
        assert any(len(lo) == cuts and hi[-1] == 0 for lo, hi in windows)


@pytest.mark.parametrize("model", WINDOW_MODELS + CLASS_MODELS,
                         ids=range(len(WINDOW_MODELS + CLASS_MODELS)))
def test_window_draws_at_each_byte_class_edge_match_oracle(model, monkeypatch):
    # Each draw of the window sits in a top byte at or next to the edge of a
    # class, or in byte 0 or 255, where a class one byte too wide decides wrong.
    k, lo, hi = _first_window(model, 64)
    draws = _class_edge_draws(lo, hi)
    for offset in range(0, len(draws), k):
        assert_window_matches_oracle(
            model, k, lambda i, cuts: draws[(offset + i) % len(draws)], monkeypatch)


@pytest.mark.parametrize("k", [1, 32, 511, 512])
@pytest.mark.parametrize("seed", range(4))
def test_a_block_of_64k_bits_holds_the_next_k_draws(seed, k):
    # The kernels' byte-identity rests on this layout of random.Random.
    block, single = random.Random(seed), random.Random(seed)
    data = block.getrandbits(64 * k).to_bytes(8 * k, "little")
    draws = [single.getrandbits(53) for _ in range(k)]
    words = [int.from_bytes(data[8 * i:8 * i + 8], "little") for i in range(k)]
    assert [(x & 0xFFFFFFFF) | (x >> 43) << 32 for x in words] == draws
    assert [low | (high >> 11) << 32
            for low, high in (mc._halves(data, 8 * i) for i in range(k))] == draws
    assert data[7::8] == bytes(u >> 45 for u in draws)
    assert block.getrandbits(53) == single.getrandbits(53)


def test_a_window_draws_at_most_a_piece_in_one_block(monkeypatch):
    # A trajectory stride of 1000 steps on huge counts would open windows of
    # 1000 steps; each takes at most _PIECE draws, and no draw is skipped.
    sizes = []

    class Recording(random.Random):
        def getrandbits(self, bits):
            sizes.append(bits)
            return super().getrandbits(bits)

    config = SimConfig(model=one_draw_model([1, 0, 0, 1], 10**15, 1), steps=3000, replicates=1,
                       record_trajectory=True, trajectory_stride=1000)
    expected = simulate(config, 0)
    monkeypatch.setattr(mc, "replicate_rng",
                        lambda seed, index: Recording(replicate_stream_seed(seed, index)))
    assert simulate(config, 0) == expected
    assert max(sizes) == 64 * mc._PIECE
    assert all(bits == 53 or bits % 64 == 0 for bits in sizes)
    assert sum(1 if bits == 53 else bits // 64 for bits in sizes) == config.steps


@st.composite
def window_boxes(draw):
    kind = draw(st.sampled_from(["one", WITH, "without"]))
    entries = draw(st.lists(st.builds(F, st.integers(0, 10), st.integers(1, 3)),
                            min_size=4 if kind == "one" else 6,
                            max_size=4 if kind == "one" else 6).filter(any))
    low = 2 if kind == "without" else 0  # w0, b0 >= 2 without replacement
    counts = st.one_of(st.integers(low, 40), st.integers(10**4, 10**9))
    w0, b0 = draw(counts), draw(counts.filter(bool))
    steps = draw(st.integers(1, 24 if kind == "one" else 9))
    return kind_model(kind, entries, w0, b0), steps


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(box=window_boxes())
def test_bracket_holds_every_cut_of_every_state_a_window_reaches(box):
    model, k = box
    view = model.scaled
    rows = list(zip(view.entries[::2], view.entries[1::2]))
    d = None if model.kind == "one-draw" else view.scale if model.sampling == "without" else 0
    lo, hi = _window_bounds(view, d, k)
    reached = {(view.w0, view.b0)}
    frontier = set(reached)
    for _ in range(k - 1):
        frontier = {(w + aw, b + ab) for w, b in frontier for aw, ab in rows}
        reached |= frontier
    for w, b in reached:
        cuts = _cut_draws(UrnState(F(w, view.scale), F(b, view.scale)), model)
        assert mc._ceilings(w, b, d, 0, 0) == tuple(cuts) * 2  # both corners are the state
        for low, cut, high in zip(lo, cuts, hi):
            assert low <= cut <= high, (w, b)


def _kernel_inputs(model):
    """The scaled counts, rows and scale that :func:`simulate` steps."""
    view = model.scaled
    return view.w0, view.b0, view.entries, view.scale


def test_integer_setup_scaling_rules():
    scaled = _kernel_inputs(one_draw_model([F(1, 2), F(1, 3), F(1, 4), F(1, 5)], 1, 1))
    w0, b0, rows, scale = scaled
    assert scale == 60 and (w0, b0) == (60, 60)
    assert rows == (30, 20, 15, 12)
    # Pair draws without replacement scale too: the kernel subtracts the
    # scale, not 1, from the scaled counts.
    fractional = two_draw_model([F(1, 2), 0, 0, F(1, 2), F(1, 2), 0], 2, 2)
    assert _kernel_inputs(fractional) == (4, 4, (1, 0, 0, 1, 1, 0), 2)
    integral = two_draw_model([3, 2, 2, 3, 1, 4], 2, 2)
    assert _kernel_inputs(integral) == (2, 2, (3, 2, 2, 3, 1, 4), 1)
    assert integral.scaled.row_sums == (5, 5, 5)


def test_without_replacement_fraction_path_runs():
    model = two_draw_model([F(1, 2), 0, 0, F(1, 2), F(1, 2), 0], 2, 2)
    result = simulate(SimConfig(model=model, steps=40, replicates=1), 0)
    # every row adds 1/2 in total
    assert result.final_white + result.final_black == F(4) + F(40, 2)
    assert 0 < result.final_z < 1


# ---------------------------------------------------------------------------
# Trajectories and replicate results
# ---------------------------------------------------------------------------

def test_trajectory_records_start_strides_and_final():
    model = one_draw_model([1, 0, 0, 1], 1, 1)
    run = simulate(
        SimConfig(model=model, steps=10, replicates=1,
                  record_trajectory=True, trajectory_stride=4), 0
    )
    assert [s for s, _ in run.trajectory] == [0, 4, 8, 10]
    assert run.trajectory[0][1] == 0.5
    assert run.trajectory[-1][1] == run.final_z

    exact_multiple = simulate(
        SimConfig(model=model, steps=8, replicates=1,
                  record_trajectory=True, trajectory_stride=4), 0
    )
    assert [s for s, _ in exact_multiple.trajectory] == [0, 4, 8]

    empty = simulate(
        SimConfig(model=model, steps=0, replicates=1,
                  record_trajectory=True, trajectory_stride=4), 0
    )
    assert empty.trajectory == ((0, 0.5),)
    assert (empty.final_white, empty.final_black) == (1, 1)


def test_trajectory_not_recorded_by_default():
    model = one_draw_model([1, 0, 0, 1], 1, 1)
    assert simulate(SimConfig(model=model, steps=5, replicates=1), 0).trajectory is None


def test_replicate_result_derived_fields():
    r = ReplicateResult(0, 14, 3, 2)
    assert (r.final_white, r.final_black) == (F(7), F(3, 2))
    assert r.final_white + r.final_black == F(17, 2)
    assert r.final_z == float(F(14, 17))


@settings(derandomize=True, database=None, max_examples=200)
@given(w=st.integers(0, 10**40), b=st.integers(1, 10**40), scale=st.integers(1, 10**6))
def test_final_z_is_the_rounded_proportion(w, b, scale):
    assert ReplicateResult(0, w, b, scale).final_z == float(F(w, w + b))


def test_replicate_result_pickles_as_integers():
    result = ReplicateResult(4, 14, 3 * (10**30 + 1), 6, ((0, 0.5), (10, 0.25)))
    loaded = pickle.loads(pickle.dumps(result))
    assert loaded == result
    assert (loaded.final_white, loaded.final_black) == (F(7, 3), F(10**30 + 1, 2))
    assert all(type(getattr(loaded, name)) is int
               for name in ("replicate_index", "white", "black", "scale"))
    assert b"Fraction" not in pickle.dumps(result)


def test_single_reinforcement_total_growth_and_mean():
    # Each draw adds exactly one ball, and the long-run mean proportion stays
    # at the symmetric starting value.
    model = one_draw_model([1, 0, 0, 1], 1, 1)
    results = run_replicates(SimConfig(model=model, steps=300, replicates=300, base_seed=4))
    assert all(r.final_white + r.final_black == 302 for r in results)
    mean = sum(r.final_z for r in results) / len(results)
    assert abs(mean - 0.5) < 0.06


# ---------------------------------------------------------------------------
# Parallel execution
# ---------------------------------------------------------------------------

def _cpus(monkeypatch, cpus):
    """Make ``cpus`` CPUs usable by this process, as far as ``run_replicates`` sees."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)


def test_parallel_results_identical_to_serial(monkeypatch):
    _cpus(monkeypatch, 3)
    model = two_draw_model([3, 2, 2, 3, 1, 4], 2, 2)
    for n in (1, 2, 3, 9):
        config = SimConfig(model=model, steps=200, replicates=n,
                           record_trajectory=True, trajectory_stride=50)
        serial = run_replicates(config, parallelism=1)
        assert [r.replicate_index for r in serial] == list(range(n))
        for p in (2, 3):
            parallel = run_replicates(config, parallelism=p)
            assert parallel == serial, (n, p)
            assert finals_csv_lines(parallel) == finals_csv_lines(serial), (n, p)
            assert trajectory_csv_lines(parallel) == trajectory_csv_lines(serial), (n, p)


class _Mailbox:
    """Stands in for both ends of a one-way ``multiprocessing.Pipe``."""

    def __init__(self):
        self.sent = []

    def send(self, obj):
        self.sent.append(obj)

    def recv(self):
        if not self.sent:
            raise EOFError
        return self.sent.pop(0)

    def close(self):
        pass


class _InProcessChild:
    """Stands in for ``multiprocessing.Process``: records each start and runs the
    target there, in this process."""

    started: list = []

    def __init__(self, target, args):
        self.target, self.args, self.exitcode = target, args, None

    def start(self):
        self.started.append(self)
        self.target(*self.args)
        self.exitcode = 0

    def join(self):
        pass

    def terminate(self):
        pass


def _fake_children(monkeypatch, cpus):
    """Swap in :class:`_InProcessChild` and :class:`_Mailbox` on a host with ``cpus``
    usable CPUs."""
    # run_replicates imports multiprocessing when it needs children.
    monkeypatch.setattr(multiprocessing, "Process", _InProcessChild)
    monkeypatch.setattr(multiprocessing, "Pipe", lambda duplex: (_Mailbox(),) * 2)
    monkeypatch.setattr(_InProcessChild, "started", [])
    _cpus(monkeypatch, cpus)


@pytest.mark.parametrize("replicates, parallelism, cpus, workers", [
    pytest.param(2, 500, 2, 2, id="2-500-2"),  # two replicates: two processes, not 500
    pytest.param(9, 3, 3, 3, id="9-3-3"),  # every requested process
    pytest.param(9, 3, 4, 3, id="9-3-4"),  # more CPUs than requested
    pytest.param(9, 3, 2, 2, id="9-3-2"),  # fewer CPUs than requested
    pytest.param(5, 2, 2, 2, id="5-2-2"),
    pytest.param(40, 2, 2, 2, id="40-2-2"),
    pytest.param(3, 4, 1, 1, id="3-4-1"),  # one CPU: serial, no child
])
def test_run_replicates_opens_no_more_workers_than_chunks(
    replicates, parallelism, cpus, workers, monkeypatch
):
    # Each replicate is claimed alone, so there are as many chunks as replicates;
    # the calling process is one of the workers.
    _fake_children(monkeypatch, cpus)
    config = SimConfig(model=two_draw_model([3, 2, 2, 3, 1, 4], 2, 2), steps=20,
                       replicates=replicates)
    out = run_replicates(config, parallelism=parallelism)
    assert len(_InProcessChild.started) == workers - 1
    assert out == [simulate(config, i) for i in range(replicates)]


def test_run_replicates_counts_cpus_without_an_affinity_mask(monkeypatch):
    _fake_children(monkeypatch, 8)
    monkeypatch.delattr(os, "sched_getaffinity")
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    config = SimConfig(model=two_draw_model([3, 2, 2, 3, 1, 4], 2, 2), steps=20, replicates=6)
    assert run_replicates(config, parallelism=4) == [simulate(config, i) for i in range(6)]
    assert len(_InProcessChild.started) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)  # unknown: serial
    run_replicates(config, parallelism=4)
    assert len(_InProcessChild.started) == 1


class _CountsDown:
    """Stands in for the shared counter of ``n`` replicates: hands out their indices
    from the last down."""

    def __init__(self, n):
        self.n, self.claimed = n, 0

    def get_lock(self):
        return contextlib.nullcontext()

    @property
    def value(self):
        return self.n - 1 - self.claimed if self.claimed < self.n else self.n

    @value.setter
    def value(self, _):
        self.claimed += 1


def test_run_replicates_returns_index_order_whatever_order_they_ran_in(monkeypatch):
    _fake_children(monkeypatch, 3)
    monkeypatch.setattr(multiprocessing, "Value", lambda typecode, start: _CountsDown(9))
    config = SimConfig(model=two_draw_model([3, 2, 2, 3, 1, 4], 2, 2), steps=20, replicates=9)
    assert run_replicates(config, parallelism=3) == [simulate(config, i) for i in range(9)]


#: The tests below change functions of this process before it forks, which
#: children started any other way would not see.
_forks = pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                            reason="needs the fork start method")


@_forks
def test_run_replicates_leaves_no_child_running(monkeypatch):
    _cpus(monkeypatch, 3)
    config = SimConfig(model=BISTABLE, steps=50, replicates=7)
    assert run_replicates(config, parallelism=3) == run_replicates(config)
    assert multiprocessing.active_children() == []


@_forks
def test_run_replicates_raises_when_a_replicate_fails(monkeypatch):
    _cpus(monkeypatch, 2)

    def fails_at_3(config, i):
        if i == 3:
            raise ValueError("replicate 3 fails")
        return simulate(config, i)

    monkeypatch.setattr(mc, "simulate", fails_at_3)
    config = SimConfig(model=BISTABLE, steps=50, replicates=8)
    # The caller re-raises its own failure; a child's shows as its exit code.
    with pytest.raises((ValueError, RuntimeError), match="replicate 3 fails|exited with code 1"):
        run_replicates(config, parallelism=2)
    assert multiprocessing.active_children() == []


@_forks
def test_run_replicates_names_the_exit_code_of_a_child_that_sent_nothing(monkeypatch):
    _cpus(monkeypatch, 2)
    claim = mc._claim_replicates

    def child_exits(config, counter, out=None):
        if out is not None:
            os._exit(3)
        return claim(config, counter)

    monkeypatch.setattr(mc, "_claim_replicates", child_exits)
    config = SimConfig(model=BISTABLE, steps=50, replicates=4)
    with pytest.raises(RuntimeError, match="exited with code 3 before sending its results"):
        run_replicates(config, parallelism=2)
    assert multiprocessing.active_children() == []


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def test_finals_csv_exact_format():
    rows = [
        ReplicateResult(0, 14, 3, 2),
        ReplicateResult(1, 4, 4, 1),
    ]
    lines = finals_csv_lines(rows)
    assert lines[0] == "replicate,final_W,final_B,final_Z"
    assert lines[1] == f"0,7,3/2,{float(F(14, 17))!r}"
    assert lines[2] == f"1,4,4,{0.5!r}"


def test_trajectory_csv_exact_format():
    rows = [
        ReplicateResult(0, 1, 1, 1, trajectory=((0, 0.5), (10, 0.625))),
        ReplicateResult(1, 1, 1, 1, trajectory=None),
    ]
    lines = trajectory_csv_lines(rows)
    assert lines == ["replicate,step,Z", "0,0,0.5", "0,10,0.625"]


# ---------------------------------------------------------------------------
# Clustering
# ---------------------------------------------------------------------------

def test_cluster_finals_counts_and_boundary_inclusion():
    clusters = cluster_finals(
        [0.24, 0.25, 0.30, 0.74, 0.76, 0.50], centers=[0.25, 0.75], radius=0.05
    )
    assert clusters.counts == (3, 2)
    assert clusters.unassigned == 1
    # distance exactly equal to the radius counts as inside
    assert cluster_finals([0.30], [0.25], 0.05).counts == (1,)


def test_cluster_finals_rejects_ambiguous_or_bad_radius():
    with pytest.raises(ValueError):
        cluster_finals([0.5], centers=[0.4, 0.45], radius=0.05)
    for radius in (0.0, float("nan"), float("inf"), -1):
        with pytest.raises(ValueError):
            cluster_finals([0.5], centers=[0.4], radius=radius)


# ---------------------------------------------------------------------------
# Beta distribution function and KS statistic (scipy as oracle)
# ---------------------------------------------------------------------------

def test_regularized_incomplete_beta_matches_scipy():
    params = [0.5, 1.0, 2.0, 3.5, 7.0]
    xs = [0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999]
    worst = 0.0
    for a in params:
        for b in params:
            for x in xs:
                mine = regularized_incomplete_beta(a, b, x)
                ref = float(scipy.special.betainc(a, b, x))
                worst = max(worst, abs(mine - ref))
    assert worst < 1e-10


def test_regularized_incomplete_beta_matches_scipy_at_large_parameters():
    # Near the mean of Beta(a, b) for a in [1e3, 1e6]: the continued fraction
    # needs up to about 700 terms there, and the front factor's logarithms
    # have size a + b.
    worst = 0.0
    for a in (1e3, 1e4, 1e5, 3e5, 5e5, 1e6):
        for b in (0.1 * a, 0.5 * a, a, 2 * a, 10 * a):
            mean = a / (a + b)
            sd = math.sqrt(a * b / (a + b + 1)) / (a + b)
            for k in (-5, -2, -1, -0.3, 0, 0.3, 1, 2, 5):
                x = mean + k * sd
                worst = max(worst, abs(regularized_incomplete_beta(a, b, x)
                                       - float(scipy.special.betainc(a, b, x))))
    assert worst < 1e-12


def test_regularized_incomplete_beta_converges_near_one_half():
    # 41 points within 0.2 / sqrt(a) of 1/2 at each a: with 400 terms, 104 of
    # these 164 ran out of continued-fraction terms.
    worst = 0.0
    for a in (3e5, 5e5, 1e6, 4e6):
        for i in range(-20, 21):
            x = 0.5 + i / 100 * 0.2 / math.sqrt(a)
            worst = max(worst, abs(regularized_incomplete_beta(a, a, x)
                                   - float(scipy.special.betainc(a, a, x))))
    assert worst < 1e-11


def test_regularized_incomplete_beta_with_one_small_parameter():
    # I_x(a, b) = P(Binomial(a + b - 1, x) >= a) for whole a, summed in 50
    # digits; scipy itself is off by 2e-11 at some of these points.
    mpmath.mp.dps = 50
    worst = 0.0
    for a in (1, 2, 5, 10, 30):
        for b in (1e3, 1e4, 1e5, 1e6):
            n, sd = int(a + b - 1), math.sqrt(a * b / (a + b + 1)) / (a + b)
            for k in (-0.5, 0, 0.5, 1, 2, 3):
                x = a / (a + b) + k * sd
                y = 1 - x  # I_y(b, a) = 1 - I_{1 - y}(a, b), and 1 - y is exact
                for got, q in ((regularized_incomplete_beta(a, b, x), mpmath.mpf(x)),
                               (1 - regularized_incomplete_beta(b, a, y), 1 - mpmath.mpf(y))):
                    exact = 1 - mpmath.fsum(mpmath.binomial(n, j) * q**j * (1 - q) ** (n - j)
                                            for j in range(a))
                    worst = max(worst, abs(got - float(exact)))
    assert worst < 2e-11


def test_regularized_incomplete_beta_edges_and_validation():
    assert regularized_incomplete_beta(2.0, 3.0, 0.0) == 0.0
    assert regularized_incomplete_beta(2.0, 3.0, 1.0) == 1.0
    with pytest.raises(ValueError):
        regularized_incomplete_beta(0.0, 1.0, 0.5)


def test_ks_statistic_matches_scipy():
    rng = random.Random(5)
    samples = [rng.betavariate(2.0, 1.0) for _ in range(300)]
    mine = ks_beta(samples, 2.0, 1.0)
    ref = scipy.stats.ks_1samp(samples, scipy.stats.beta(2.0, 1.0).cdf)
    assert mine.statistic == pytest.approx(ref.statistic, abs=1e-12)


def test_ks_threshold_closed_form():
    result = KSResult(statistic=0.0, sample_size=1000)
    expected = math.sqrt(-0.5 * math.log(0.005)) / math.sqrt(1000)
    assert result.threshold(0.01) == pytest.approx(expected)
    assert result.threshold(0.01) == pytest.approx(1.628 / math.sqrt(1000), rel=3e-4)
    with pytest.raises(ValueError):
        result.threshold(0.0)


def test_ks_beta_needs_samples():
    with pytest.raises(ValueError):
        ks_beta([], 1.0, 1.0)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

def test_verify_consistent_single_point():
    model = two_draw_model([3, 2, 2, 3, 1, 4], 2, 2)
    report = verify(model, steps=2000, replicates=50, base_seed=7)
    assert report.verdict == VERDICT_CONSISTENT
    assert report.allowed_fraction >= MIN_ALLOWED_FRACTION
    assert report.conventions.radius_used == DEFAULT_RADIUS
    assert sum(report.histogram) == 50
    assert abs(report.mean_final - 1 / 3) < 0.05


def test_verify_flags_wrong_point_prediction():
    model = two_draw_model([3, 2, 2, 3, 1, 4], 2, 2)  # converges near 1/3
    wrong = predict_limit(two_draw_model([9, 1, 2, 3, 1, 7], 2, 2))  # claims 1/2
    report = verify(model, wrong, steps=2000, replicates=50, base_seed=7)
    assert report.verdict == VERDICT_INCONSISTENT
    assert report.allowed_fraction < MIN_ALLOWED_FRACTION
    assert any("allowed points" in reason for reason in report.reasons)


def test_verify_shrinks_radius_and_discloses_it():
    model = two_draw_model([15, 3, 4, 1, 3, 21], 5, 2)  # points 1/4 and 3/4, excluded 1/2
    report = verify(model, steps=2000, replicates=30, base_seed=2, radius=0.2)
    assert report.conventions.radius_requested == 0.2
    assert report.conventions.radius_used == pytest.approx(0.49 * 0.25)
    assert any("radius shrunk" in reason for reason in report.reasons)
    assert report.verdict == VERDICT_CONSISTENT
    assert len(report.allowed_points) == 2
    assert len(report.excluded_points) == 1
    assert report.excluded_points[0]["count"] <= MAX_EXCLUDED_FRACTION * 30


def test_verify_beta_prediction_by_ks():
    model = one_draw_model([1, 0, 0, 1], 1, 1)
    report = verify(model, steps=500, replicates=150, base_seed=20260501)
    assert report.verdict == VERDICT_CONSISTENT
    assert report.ks_statistic < report.ks_threshold
    assert report.ks_threshold == pytest.approx(
        math.sqrt(-0.5 * math.log(KS_LEVEL / 2)) / math.sqrt(150)
    )
    assert report.allowed_fraction is None


def test_verify_no_atoms_prediction_is_inconclusive():
    model = two_draw_model([2, 0, 1, 1, 0, 2], 2, 2)
    report = verify(model, steps=400, replicates=40, base_seed=1)
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert any("histogram" in reason for reason in report.reasons)
    assert sum(report.histogram) == 40


def test_verify_unknown_prediction_is_inconclusive():
    model = two_draw_model([0, 0, 1, 0, 1, 2], 2, 2)
    report = verify(model, steps=200, replicates=20, base_seed=1)
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert any("no certified prediction" in reason for reason in report.reasons)


def test_verify_report_serializes_to_json():
    model = two_draw_model([3, 2, 2, 3, 1, 4], 2, 2)
    report = verify(model, steps=200, replicates=20, base_seed=7)
    payload = report.to_dict()
    text = json.dumps(payload)
    again = json.loads(text)
    assert again["verdict"] == report.verdict
    assert again["seed"] == 7
    assert again["conventions"]["min_allowed_fraction"] == MIN_ALLOWED_FRACTION
    assert again["conventions"]["max_excluded_fraction"] == MAX_EXCLUDED_FRACTION
    assert again["conventions"]["ks_level"] == KS_LEVEL
    assert "parallelism" not in again


def test_verify_report_fields_are_its_json_keys_in_order():
    payload = verify(two_draw_model([3, 2, 2, 3, 1, 4], 2, 2), steps=20, replicates=3).to_dict()
    assert list(payload) == list(VerificationReport._fields)
    assert list(payload["conventions"]) == list(Conventions._fields)


# ---------------------------------------------------------------------------
# The judge on scripted results
# ---------------------------------------------------------------------------

BISTABLE = two_draw_model([15, 3, 4, 1, 3, 21], 5, 2)  # points 1/4 and 3/4, excluded 1/2


def scripted(finals):
    """Replicate results whose final proportions are exactly ``finals``."""
    results = []
    for i, z in enumerate(finals):
        p, q = Fraction(z).as_integer_ratio()
        results.append(ReplicateResult(i, p, q - p, 1))
    return results


def judged(finals, radius=DEFAULT_RADIUS):
    """The judge's report on ``finals`` against the bistable prediction; nothing is simulated."""
    prediction = predict_limit(BISTABLE)
    config = SimConfig(BISTABLE, 123, len(finals), base_seed=4)
    with pytest.MonkeyPatch.context() as patch:
        for name in ("simulate", "run_replicates"):
            patch.setattr(mc, name, lambda *args, **kwargs: pytest.fail("the judge simulated"))
        return judge(prediction, config, scripted(finals), radius)


@pytest.mark.parametrize("on_allowed, verdict", [(90, VERDICT_CONSISTENT),
                                                 (89, VERDICT_INCONSISTENT)])
def test_judge_needs_the_allowed_fraction_on_allowed_points(on_allowed, verdict):
    low = on_allowed // 2
    finals = [0.25] * low + [0.75] * (on_allowed - low) + [0.1] * (100 - on_allowed)
    report = judged(finals)
    assert (report.verdict, report.allowed_fraction) == (verdict, on_allowed / 100)
    assert (report.unassigned, report.conventions.radius_used) == (100 - on_allowed, DEFAULT_RADIUS)
    assert [p["count"] for p in report.allowed_points] == [low, on_allowed - low]
    assert report.excluded_points == ({"approx": 0.5, "theorem": "theorem:pem", "count": 0},)
    expected = () if verdict == VERDICT_CONSISTENT else (
        "only 0.890 of replicates landed on allowed points (need >= 0.9)",)
    assert report.reasons == expected
    assert (report.steps, report.replicates, report.seed) == (123, 100, 4)
    assert sum(report.histogram) == 100


@pytest.mark.parametrize("on_excluded, verdict", [(2, VERDICT_CONSISTENT),
                                                  (3, VERDICT_INCONSISTENT)])
def test_judge_tolerates_at_most_the_excluded_fraction(on_excluded, verdict):
    finals = [0.5] * on_excluded + [0.25] * 49 + [0.75] * (51 - on_excluded)
    report = judged(finals)
    assert report.verdict == verdict
    assert report.excluded_points[0]["count"] == on_excluded
    expected = () if verdict == VERDICT_CONSISTENT else (
        "excluded point near 0.5 captured 0.030 of replicates (breaks theorem:pem)",)
    assert report.reasons == expected


def test_judge_shrinks_a_radius_wider_than_half_the_gap_and_says_so():
    # 0.13 is within the shrunk radius 0.1225 of 1/4; 0.12 is not.
    report = judged([0.25, 0.13, 0.12, 0.75], radius=0.2)
    conventions = report.conventions
    assert (conventions.radius_requested, conventions.radius_used) == (0.2, 0.49 * 0.25)
    assert report.reasons[0] == "radius shrunk to 0.1225 so clusters cannot overlap"
    assert [p["count"] for p in report.allowed_points] == [2, 1]
    assert report.unassigned == 1
    # The smallest gap is 0.25: a radius of half of it shrinks, a smaller one does not.
    assert judged([0.25, 0.75], radius=0.125).conventions.radius_used == 0.49 * 0.25
    assert judged([0.25, 0.75], radius=0.12).conventions.radius_used == 0.12


# The allowed point 1/2 + 1e-20 and the excluded point 1/2 share one float.
ONE_FLOAT_APART = two_draw_model(
    [Fraction(349999999999999999999, 50000000000000000000),
     Fraction(149999999999999999997, 50000000000000000000), Fraction(1, 2), 0,
     Fraction(50000000000000000001, 50000000000000000000),
     Fraction(300000000000000000003, 50000000000000000000)], 5, 2)


def test_judge_calls_two_points_at_one_float_inconclusive():
    prediction = predict_limit(ONE_FLOAT_APART)
    (_, allowed), (excluded,) = prediction.points, prediction.excluded
    assert allowed.root.value == Fraction(1, 2) + Fraction(1, 10**20)
    assert excluded.root.value == Fraction(1, 2)
    config = SimConfig(ONE_FLOAT_APART, 200, 3, base_seed=3)
    report = judge(prediction, config, scripted([0.25, 0.5, 0.5]))
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert report.reasons == (
        "two points share the location 0.5; clustering cannot tell them apart",)
    assert (report.conventions.radius_used, report.allowed_fraction) == (None, None)


def _two_points(second):
    """An allowed point at 0 and another at the exact rational ``second``."""
    points = [{"point": p, "verdict": "converges-a.s."} for p in ["0", second]]
    return prediction_from_dict({"kind": "point-mass-set", "points": points})


@pytest.mark.parametrize("ulps", [1, 2])
def test_judge_calls_two_points_a_subnormal_apart_inconclusive(ulps):
    # The shrunk radius 0.49 * ulps * 2**-1074 rounds to 0 at one ulp and to
    # half the gap at two.
    prediction = _two_points(f"{ulps}/{2**1074}")
    config = SimConfig(one_draw_model([1, 0, 0, 1]), 10, 3)
    report = judge(prediction, config, scripted([0.0, 0.0, 0.5]))
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert report.reasons == (
        f"the points at 0.0 and {ulps * 5e-324!r} are too close to shrink the radius "
        "between them; clustering cannot tell them apart",)
    assert (report.conventions.radius_used, report.allowed_fraction) == (None, None)


def test_judge_clusters_points_three_subnormals_apart():
    # 0.49 * 3 * 2**-1074 rounds to 2**-1074, which is under half the gap.
    prediction = _two_points(f"3/{2**1074}")
    config = SimConfig(one_draw_model([1, 0, 0, 1]), 10, 3)
    report = judge(prediction, config, scripted([0.0, 0.0, 1.5e-323]))
    assert report.conventions.radius_used == 5e-324
    assert [p["count"] for p in report.allowed_points] == [2, 1]
    assert report.verdict == VERDICT_CONSISTENT


def test_judge_keeps_any_finite_radius_around_a_lone_point():
    # Twice the radius overflows to inf, which is also the gap of a lone point.
    model = two_draw_model([3, 2, 2, 3, 1, 4], 2, 2)
    report = judge(predict_limit(model), SimConfig(model, 10, 2), scripted([0.2, 0.9]), 1e308)
    assert (report.conventions.radius_used, report.reasons) == (1e308, ())
    assert [p["count"] for p in report.allowed_points] == [2]


def test_judge_calls_a_beta_law_it_cannot_evaluate_inconclusive():
    # Beta(1e300, 1e300): the terms of the continued fraction of its
    # distribution function overflow.
    prediction = predict_limit(one_draw_model([1, 0, 0, 1], 10**300, 10**300))
    assert prediction.beta_params == (10**300, 10**300)
    with pytest.raises(RuntimeError, match="did not converge"):
        regularized_incomplete_beta(1e300, 1e300, 0.5)
    config = SimConfig(one_draw_model([1, 0, 0, 1], 10**300, 10**300), 200, 3, base_seed=3)
    report = judge(prediction, config, scripted([0.4999, 0.5, 0.5001]))
    assert report.verdict == VERDICT_INCONCLUSIVE
    assert report.reasons == (
        "the Beta distribution function did not converge at these parameters; "
        "KS cannot test the law",)
    assert (report.ks_statistic, report.ks_threshold) == (None, None)
    assert (report.replicates, sum(report.histogram)) == (3, 3)


@pytest.mark.parametrize("model, radius", [
    (BISTABLE, 0.2),
    (one_draw_model([1, 0, 0, 1], 1, 1), DEFAULT_RADIUS),  # Beta(1, 1) by KS
    (two_draw_model([2, 0, 1, 1, 0, 2], 2, 2), DEFAULT_RADIUS),  # no atoms
], ids=["points", "beta", "no-atoms"])
def test_judge_on_simulated_finals_is_verify(model, radius):
    config = SimConfig(model=model, steps=300, replicates=20, base_seed=5)
    report = judge(predict_limit(model), config, run_replicates(config), radius)
    assert report == verify(model, steps=300, replicates=20, base_seed=5, radius=radius)


def test_verify_refuses_an_unsimulable_model_before_any_analysis(monkeypatch):
    monkeypatch.setattr(mc, "predict_limit", lambda model: pytest.fail("analysis ran"))
    with pytest.raises(ValueError, match="need w0 >= 2 and b0 >= 2"):
        verify(two_draw_model([1, 1, 1, 1, 1, 1], 1, 5), steps=10, replicates=2)
