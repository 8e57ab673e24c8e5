"""Deterministic simulation and verification of urn limit predictions.

Simulation is exact: each step compares one 53-bit uniform draw against the
exact rational outcome probabilities (in floating point where that is exact,
else on integers), so a run is a pure function of ``(model, steps, seed,
replicate index)``. Counts are scaled by the common denominator ``s`` of the
model so that every model runs on integers, in one kernel per draw rule:
single draws, and pair draws with ``P(WW) = W (W - d) / (T (T - d))`` and
``P(WB) = 2 W B / (T (T - d))``, where ``d = s`` without replacement and
``d = 0`` with replacement. :func:`step` is the rational reference oracle
the kernels are tested against; simulation does not call it.

Most steps are decided by one to three integer comparisons. Over a window of
``k`` steps the counts stay in a box whose lower corner is the current state,
because rows are nonnegative, and every cut is monotone on that box: it rises
with ``W`` and falls with ``B``. So the exact integer ceilings of the cuts at
two opposite corners bracket every cut the window meets; a draw outside the
bracket is decided against it, and only a draw inside takes the exact test.
A window has ``k = min(rest, 2 isqrt(T // m))`` steps, ``rest`` the steps left
in its segment and ``m`` the largest row total; it opens where ``rest`` and
then ``k`` are at least ``_WINDOW_MIN`` (see :func:`simulate`).

Replicates use independent streams derived by an avalanche mix of the base
seed and the replicate index, which makes results independent of execution
order and parallelism: running on one worker or many yields byte-identical
output. For ``p``-fold parallelism :func:`run_replicates` runs the ``n``
replicates in at most ``p`` processes, as many as there are replicates and
CPUs this process may use: the calling process and children it starts for the
call, which claim replicate indices one at a time from a shared counter.

:func:`verify` simulates replicates and then calls :func:`judge`, a pure
function that compares final proportions from any source against a
:class:`~polyurn.stability.LimitPrediction`: point predictions by clustering
around the predicted and excluded points, Beta-law predictions by a
Kolmogorov-Smirnov test with the exact Beta distribution function.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from fractions import Fraction

from .analysis import beta_in_float_range, predict_limit, prediction_to_dict
from .stability import LimitPrediction, PredictionKind
from .urns import (
    ONE_DRAW,
    WITHOUT_REPLACEMENT,
    UrnModel,
    UrnState,
    step_distribution,
)
from .ratpoly import Record, format_rational

import random

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_UNIT_BITS = 53
_UNIT = 1 << _UNIT_BITS
#: The fewest steps of a bracketed window.
_WINDOW_MIN = 32
#: Steps after which a run without a trajectory looks again for a window.
_PIECE = 512


def _mix64(x: int) -> int:
    """Avalanche mix of a 64-bit value (splitmix-style finalizer)."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def replicate_stream_seed(base_seed: int, replicate_index: int) -> int:
    """Seed of the independent random stream used by one replicate."""
    if replicate_index < 0:
        raise ValueError("replicate_index must be nonnegative")
    start = _mix64((base_seed & _MASK64) ^ _GOLDEN)
    return _mix64((start + (replicate_index + 1) * _GOLDEN) & _MASK64)


def replicate_rng(base_seed: int, replicate_index: int) -> random.Random:
    """The generator for one replicate (one 53-bit draw per step)."""
    return random.Random(replicate_stream_seed(base_seed, replicate_index))


# ---------------------------------------------------------------------------
# Stepping
# ---------------------------------------------------------------------------

def step(state: UrnState, model: UrnModel, rng: random.Random) -> UrnState:
    """Advance one step, consuming exactly one 53-bit draw from ``rng``.

    The draw ``u`` selects the outcome whose exact cumulative probability
    first exceeds ``u / 2**53``; the comparison is exact. This is the
    rational reference for the kernels of :func:`simulate`.
    """
    u = rng.getrandbits(_UNIT_BITS)
    cumulative = Fraction(0)
    for outcome in step_distribution(state, model):
        cumulative += outcome.probability
        if Fraction(u, _UNIT) < cumulative:
            return UrnState(
                state.white + outcome.add_white,
                state.black + outcome.add_black,
                state.step + 1,
            )
    raise ArithmeticError("outcome probabilities do not reach 1")


class SimConfig(Record):
    """A reproducible simulation request; construction refuses a model it cannot simulate."""

    model: UrnModel
    steps: int
    replicates: int
    base_seed: int = 0
    record_trajectory: bool = False
    trajectory_stride: int = 100

    def __post_init__(self):
        self.model.validate_for_simulation()
        if self.steps < 0:
            raise ValueError("steps must be nonnegative")
        if self.replicates < 0:
            raise ValueError("replicates must be nonnegative")
        if self.trajectory_stride <= 0:
            raise ValueError("trajectory_stride must be positive")


class ReplicateResult(Record):
    """Final state (and optional trajectory) of one replicate."""

    replicate_index: int
    steps: int
    final_white: Fraction
    final_black: Fraction
    trajectory: tuple[tuple[int, float], ...] | None = None

    @property
    def final_total(self) -> Fraction:
        return self.final_white + self.final_black

    @property
    def final_z(self) -> float:
        return float(self.final_white / self.final_total)


def _exact_below(u, denominator, cut) -> bool:
    """``u * D < n`` by integers, for integer-valued ``D`` and ``n``."""
    return u * int(denominator) < int(cut)


def _ceilings(w: int, b: int, d: int | None) -> tuple[int, ...]:
    """Each cut of the state as ``c = ceil(n 2**53 / D)``, so that ``u D < n 2**53`` iff ``u < c``.

    ``d`` is ``None`` for single draws (one cut, ``n = W`` over ``D = T``),
    else the pair cuts ``n = W (W - d)`` and ``W (W - d) + 2 W B`` over
    ``D = T (T - d)``.
    """
    t = w + b
    if d is None:
        return (-(-(w << _UNIT_BITS) // t),)
    dd = t * (t - d)
    n = w * (w - d)
    return -(-(n << _UNIT_BITS) // dd), -(-((n + 2 * w * b) << _UNIT_BITS) // dd)


def _one_draw(grb, w, b, rows, top, most_w, most_b, unit, segments, traj):
    """Single draws on doubles or ints alike, ``unit = 2**53``; white when ``u T < W unit``.

    Windows of steps run on the bracket of their cut (see :func:`simulate`).
    ``top`` is the largest row total, and ``most_w`` and ``most_b`` are the
    most white and black balls a row adds, as ints.
    """
    aw, ab, cw, cb = rows
    aws, at, cws, ct = aw * unit, aw + ab, cw * unit, cw + cb
    ws, t = w * unit, w + b
    for mark, length in segments:
        # The length test comes first, so that short segments take no square root.
        while length >= _WINDOW_MIN and (
                k := min(length, 2 * math.isqrt(int(t) // top))) >= _WINDOW_MIN:
            wi = int(ws) >> _UNIT_BITS
            bi = int(t) - wi
            (lo,) = _ceilings(wi, bi + (k - 1) * most_b, None)
            (hi,) = _ceilings(wi + (k - 1) * most_w, bi, None)
            white = 0
            for i in range(k):
                u = grb(_UNIT_BITS)
                if u < lo:
                    white += 1
                elif u < hi:  # the bracket does not decide: the exact test
                    black = i - white
                    wsi = ws + white * aws + black * cws
                    ti = t + white * at + black * ct
                    y = u * ti
                    if y < wsi or y == wsi and _exact_below(u, ti, wsi):
                        white += 1
            black = k - white
            ws += white * aws + black * cws
            t += white * at + black * ct
            length -= k
        for _ in range(length):
            u = grb(_UNIT_BITS)
            y = u * t
            if y < ws or y == ws and _exact_below(u, t, ws):
                ws += aws
                t += at
            else:
                ws += cws
                t += ct
        if traj is not None:
            # int / int is correctly rounded, as is double / double, so this is W / T.
            traj.append((mark, ws / (t * unit)))
    w = ws // unit
    return w, t - w


def _pair(grb, w, b, rows, top, most_w, most_b, d, unit, segments, traj):
    """Pair draws on doubles or ints alike, ``unit = 2**53``; ``u D`` against ``n unit``.

    Windows of steps run on the brackets of their cuts, with ``top``,
    ``most_w`` and ``most_b`` as in :func:`_one_draw` (see :func:`simulate`).
    """
    aw, ab, cw, cb, ew, eb = rows
    two_units, di = 2 * unit, int(d)
    for mark, length in segments:
        while length >= _WINDOW_MIN and (
                k := min(length, 2 * math.isqrt(int(w + b) // top))) >= _WINDOW_MIN:
            wi, bi = int(w), int(b)
            lo1, lo2 = _ceilings(wi, bi + (k - 1) * most_b, di)
            hi1, hi2 = _ceilings(wi + (k - 1) * most_w, bi, di)
            ww = wb = 0
            for i in range(k):
                u = grb(_UNIT_BITS)
                if u < lo1:
                    ww += 1
                elif u >= hi2:
                    pass  # BB from every state the window reaches
                elif hi1 <= u < lo2:
                    wb += 1
                else:  # the bracket does not decide: the exact test
                    bb = i - ww - wb
                    wi = w + ww * aw + wb * cw + bb * ew
                    bi = b + ww * ab + wb * cb + bb * eb
                    t = wi + bi
                    dd = t * (t - d)
                    y = u * dd
                    n = wi * (wi - d) * unit
                    if y < n or y == n and _exact_below(u, dd, n):
                        ww += 1
                    else:
                        n += wi * bi * two_units
                        if y < n or y == n and _exact_below(u, dd, n):
                            wb += 1
            bb = k - ww - wb
            w += ww * aw + wb * cw + bb * ew
            b += ww * ab + wb * cb + bb * eb
            length -= k
        for _ in range(length):
            u = grb(_UNIT_BITS)
            t = w + b
            dd = t * (t - d)
            y = u * dd
            n = w * (w - d) * unit
            if y < n or y == n and _exact_below(u, dd, n):
                w += aw
                b += ab
            else:
                n += w * b * two_units
                if y < n or y == n and _exact_below(u, dd, n):
                    w += cw
                    b += cb
                else:
                    w += ew
                    b += eb
        if traj is not None:
            # int / int is correctly rounded, as is double / double.
            traj.append((mark, w / (w + b)))
    return w, b


def simulate(config: SimConfig, replicate_index: int) -> ReplicateResult:
    """Run one replicate; a pure function of the config and the index.

    Steps the model's scaled counts (:attr:`~polyurn.urns.UrnModel.scaled`),
    drawing the same path as :func:`step`. For the draw ``u``, each decision is
    ``u D < n 2**53``: ``D = T`` and ``n = W`` for single draws;
    ``D = T (T - d)`` and ``n = W (W - d)``, then ``W (W - d) + 2 W B``, for
    pairs. One kernel per draw rule makes these comparisons, on Python ints
    or, while ``w0 + b0 + steps * (largest row total)`` is below ``2**53``
    (single draws) or ``2**26`` (pairs, so ``D < 2**52``), on doubles. On
    ints each comparison is exact. On doubles ``u``, the counts, ``D`` and
    ``n 2**53`` are exact and ``y = fl(u D)`` is the one rounding. Either
    ``u D = 0`` or ``1 <= u D < 2**106``, so scaling by a power of two is
    exact and commutes with rounding: the decisions are those of ``x D < n``
    with ``x = u / 2**53``. Rounding is monotone and keeps representable
    numbers, so ``y < n 2**53`` or ``y > n 2**53`` decides, in every IEEE
    rounding mode and under x87 double rounding; :func:`_exact_below`
    settles ``y == n 2**53``.

    Most draws skip that test. As ``u`` is an integer, ``u D < n 2**53`` iff
    ``u < c`` with the integer ceiling ``c = ceil(n 2**53 / D)``
    (:func:`_ceilings`). A window of ``k`` steps from ``(W, B)`` meets only
    states in the box ``[W, W + (k - 1) a] x [B, B + (k - 1) a']``, where
    ``a`` and ``a'`` are the most white and black balls a row adds; its lower
    corner is the current state because rows are nonnegative. On the box each
    cut rises with ``W`` and falls with ``B``: ``W / T`` plainly;
    ``W (W - d) / (T (T - d))`` because its ``W``-derivative has numerator
    ``B (B (2W - d) + 2W (W - d) + d**2) >= 0`` and its ``B``-derivative the
    numerator ``-W (W - d) (2T - d) <= 0`` for ``W, B >= d``; and
    ``(W (W - d) + 2 W B) / (T (T - d)) = 1 - B (B - d) / (T (T - d))`` by the
    same argument with the colours swapped. ``W, B >= d`` always holds: ``d
    = 0`` with replacement, and pairs without replacement start from at least
    two balls of each colour. So the ceilings at ``(W, B + (k - 1) a')`` and
    ``(W + (k - 1) a, B)`` bound every ``c`` the window meets, ``lo <= c <=
    hi``: a draw ``u < lo`` is below the cut and ``u >= hi`` is not, and only
    ``lo <= u < hi`` takes the exact test, on the counts that the window has
    reached. Every decision, and so every output byte, is that of the exact
    comparison. A window has ``k = min(rest, 2 isqrt(T // m))`` steps, ``rest``
    the steps left in its segment and ``m`` the largest row total. It opens
    only where ``rest >= _WINDOW_MIN`` and then ``k >= _WINDOW_MIN`` (for the
    second, ``T >= 256 m``): short trajectory strides and small totals run the
    plain loop, and strides below ``_WINDOW_MIN`` take no square root. A run
    without a trajectory looks for a window every ``_PIECE`` steps.
    """
    model = config.model
    grb = replicate_rng(config.base_seed, replicate_index).getrandbits
    steps = config.steps
    record = config.record_trajectory

    view = model.scaled
    w, b, rows, scale = view.w0, view.b0, view.entries, view.scale
    # int / int is correctly rounded, so this is float(Fraction(w, w + b)).
    traj: list[tuple[int, float]] | None = [(0, w / (w + b))] if record else None
    top, most_w, most_b = max(view.row_sums), max(rows[::2]), max(rows[1::2])
    gap = config.trajectory_stride if record else _PIECE
    ends = [*range(gap, steps, gap), steps] if steps else []
    segments = [(end, end - start) for start, end in zip([0, *ends], ends)]
    one_draw = model.kind == ONE_DRAW
    # No count passes w0 + b0 + steps * top, as rows are nonnegative.
    num = float if w + b + steps * top < (_UNIT if one_draw else 1 << 26) else int
    w, b, rows, unit = num(w), num(b), tuple(map(num, rows)), num(_UNIT)
    if one_draw:
        w, b = _one_draw(grb, w, b, rows, top, most_w, most_b, unit, segments, traj)
    else:
        d = num(scale if model.sampling == WITHOUT_REPLACEMENT else 0)
        w, b = _pair(grb, w, b, rows, top, most_w, most_b, d, unit, segments, traj)

    return ReplicateResult(
        replicate_index=replicate_index,
        steps=steps,
        final_white=Fraction(int(w), scale),
        final_black=Fraction(int(b), scale),
        trajectory=tuple(traj) if record else None,
    )


def _claim_replicates(config: SimConfig, counter, out=None) -> list[tuple[int, ReplicateResult]]:
    """Run replicates one at a time, each at the next index ``counter`` hands out.

    Returns the ``(index, result)`` pairs, or with ``out`` sends them there once.
    """
    n, done = config.replicates, []
    while True:
        with counter.get_lock():
            i = counter.value
            counter.value = i + 1
        if i >= n:
            break
        done.append((i, simulate(config, i)))
    if out is not None:
        out.send(done)
    return done


def run_replicates(config: SimConfig, parallelism: int = 1) -> list[ReplicateResult]:
    """All replicates, in index order; output does not depend on parallelism.

    For ``parallelism = p`` the ``n`` replicates run in ``workers = min(p, n,
    usable CPUs)`` processes: this one and ``workers - 1`` children it starts.
    Each process claims the next replicate index from a shared counter until
    none is left, and each child sends its results back once, at its end.
    Every child is joined before this returns, and terminated first if
    anything fails. With one worker the replicates run here, and nothing
    starts.
    """
    if parallelism < 1:
        raise ValueError("parallelism must be at least 1")
    n = config.replicates
    affinity = getattr(os, "sched_getaffinity", None)  # not on every platform
    workers = min(parallelism, n, len(affinity(0)) if affinity else os.cpu_count() or 1)
    if workers <= 1:
        return [simulate(config, i) for i in range(n)]
    # Imported here: multiprocessing costs every other process milliseconds.
    import multiprocessing

    counter = multiprocessing.Value("q", 0)
    children, pipes = [], []
    try:
        for _ in range(workers - 1):
            receive, send = multiprocessing.Pipe(duplex=False)
            pipes.append(receive)
            child = multiprocessing.Process(target=_claim_replicates, args=(config, counter, send))
            child.start()
            children.append(child)
            send.close()  # the child holds the only sending end, so its exit ends the pipe
        done = _claim_replicates(config, counter)
        for child, receive in zip(children, pipes):
            try:
                done += receive.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"a replicate process exited with code {child.exitcode} "
                                   "before sending its results") from None
    except BaseException:
        for child in children:
            child.terminate()
        raise
    finally:
        for child in children:
            child.join()
        for receive in pipes:
            receive.close()
    done.sort(key=lambda pair: pair[0])
    return [result for _, result in done]


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------

def finals_csv_lines(results: list[ReplicateResult]) -> list[str]:
    lines = ["replicate,final_W,final_B,final_Z"]
    for r in results:
        lines.append(
            f"{r.replicate_index},{format_rational(r.final_white)},"
            f"{format_rational(r.final_black)},{r.final_z!r}"
        )
    return lines


def trajectory_csv_lines(results: list[ReplicateResult]) -> list[str]:
    lines = ["replicate,step,Z"]
    for r in results:
        if r.trajectory is None:
            continue
        for step_index, z in r.trajectory:
            lines.append(f"{r.replicate_index},{step_index},{z!r}")
    return lines


# ---------------------------------------------------------------------------
# Clustering
# ---------------------------------------------------------------------------

class ClusterCounts(Record):
    """Counts of samples within ``radius`` of each center, plus the rest."""

    centers: tuple[float, ...]
    radius: float
    counts: tuple[int, ...]
    unassigned: int


def cluster_finals(samples, centers, radius) -> ClusterCounts:
    """Assign each sample to the unique center within ``radius`` of it.

    Centers must be pairwise farther apart than ``2 * radius`` so that
    assignment is unambiguous; violating that raises ``ValueError``.
    """
    centers = tuple(float(c) for c in centers)
    radius = float(radius)
    if not 0 < radius < math.inf:
        raise ValueError("radius must be a positive finite number")
    if any(abs(a - b) <= 2 * radius for a, b in itertools.combinations(centers, 2)):
        raise ValueError("cluster centers closer than twice the radius make assignment ambiguous")
    counts = [0] * len(centers)
    unassigned = 0
    for s in samples:
        s = float(s)
        for k, c in enumerate(centers):
            if abs(s - c) <= radius:
                counts[k] += 1
                break
        else:
            unassigned += 1
    return ClusterCounts(centers, radius, tuple(counts), unassigned)


# ---------------------------------------------------------------------------
# Beta distribution function and Kolmogorov-Smirnov test
# ---------------------------------------------------------------------------

#: Largest ``sqrt(max(a, b))`` of extra continued-fraction terms (see below).
_CF_SQRT_CAP = 65536.0
_HALF_LN_2PI = 0.5 * math.log(2.0 * math.pi)


def _stirling_tail(z: float) -> float:
    """``lgamma(z) - ((z - 1/2) ln z - z + ln(2 pi) / 2)``, by its series from ``z = 10``."""
    if z < 10.0:
        return math.lgamma(z) - (z - 0.5) * math.log(z) + z - _HALF_LN_2PI
    r = 1.0 / (z * z)  # the first omitted term is below 2e-14 / z
    return (1 / 12 - r * (1 / 360 - r * (1 / 1260 - r * (1 / 1680 - r / 1188)))) / z


def _beta_continued_fraction(a: float, b: float, x: float) -> float:
    """Continued-fraction core of the regularized incomplete beta (Lentz).

    Near the mean the fraction needs a number of terms that grows with
    ``max(a, b)`` (about 700 at ``a = b = 1e6``, 45000 at ``1e12``), so it gets
    ``400 + sqrt(max(a, b))`` of them, at most ``400 + _CF_SQRT_CAP``; it
    stops early where overflow has made it NaN, as for parameters near 1e300.
    """
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 401 + int(min(math.sqrt(max(a, b)), _CF_SQRT_CAP))):
        m2 = 2 * m
        numerator = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + numerator * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + numerator / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        numerator = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + numerator * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + numerator / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
        if delta != delta:  # NaN: it never converges
            break
    raise RuntimeError("incomplete beta continued fraction did not converge")


def regularized_incomplete_beta(a: float, b: float, x: float) -> float:
    """Distribution function of the Beta(a, b) law at ``x``.

    Its absolute error is below 2e-11 for ``a, b <= 1e6``, and below 1e-12
    where ``a`` and ``b`` are also within a factor of ten of each other (see
    the tests). The logarithm of the front factor ``x**a (1 - x)**b / B(a,
    b)`` is a sum of ``lgamma`` terms of size ``a + b``, so from ``a + b =
    256`` on their error of ``(a + b) 1e-16`` would show. There Stirling's
    formula splits it instead into ``a ln(x / x0) + b ln((1 - x) / (1 - x0))``
    about the mean ``x0 = a / (a + b)``, which is small wherever the factor
    is not, a square root, and the tails of the series.
    """
    if a <= 0 or b <= 0:
        raise ValueError("beta parameters must be positive")
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if a + b < 256.0:
        ln_front = (math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
                    + a * math.log(x) + b * math.log1p(-x))
    else:
        ln_total = math.log(a + b)
        # a ln(x / x0) and b ln((1 - x) / (1 - x0)) from lam = (x0 - x)(a + b),
        # in which 1 - x is exact where b is small and x near x0.
        lam = a * (1.0 - x) - b * x
        ln_x = a * (math.log1p(-lam / a) if a >= 10.0 else math.log(x) - math.log(a) + ln_total)
        ln_y = b * (math.log1p(lam / b) if b >= 10.0 else math.log1p(-x) - math.log(b) + ln_total)
        ln_front = (ln_x + ln_y + 0.5 * (math.log(a) + math.log(b) - ln_total) - _HALF_LN_2PI
                    + _stirling_tail(a + b) - _stirling_tail(a) - _stirling_tail(b))
    front = math.exp(ln_front)
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _beta_continued_fraction(a, b, x) / a
    return 1.0 - front * _beta_continued_fraction(b, a, 1.0 - x) / b


class KSResult(Record):
    """Kolmogorov-Smirnov comparison of samples against a Beta law."""

    statistic: float
    sample_size: int
    alpha: float
    beta: float

    def threshold(self, level: float) -> float:
        """Critical value at the given significance level (asymptotic form).

        Solves ``2 exp(-2 n t^2) = level`` for ``t``: about ``1.628/sqrt(n)``
        at the 1% level.
        """
        if not 0 < level < 1:
            raise ValueError("level must be in (0, 1)")
        return math.sqrt(-0.5 * math.log(level / 2.0)) / math.sqrt(self.sample_size)


def ks_beta(samples, alpha, beta) -> KSResult:
    """Exact KS statistic of the samples against Beta(alpha, beta)."""
    xs = sorted(float(s) for s in samples)
    n = len(xs)
    if n == 0:
        raise ValueError("the KS statistic needs at least one sample")
    a, b = float(alpha), float(beta)
    d = 0.0
    for i, x in enumerate(xs):
        cdf = regularized_incomplete_beta(a, b, x)
        d = max(d, cdf - i / n, (i + 1) / n - cdf)
    return KSResult(statistic=d, sample_size=n, alpha=a, beta=b)


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------

#: Fraction of replicates that must land on allowed points for consistency.
MIN_ALLOWED_FRACTION = 0.90
#: Largest tolerated fraction of replicates at any excluded point.
MAX_EXCLUDED_FRACTION = 0.02
#: Default clustering radius around predicted points.
DEFAULT_RADIUS = 0.05
#: Significance level of the Beta-law KS comparison.
KS_LEVEL = 0.01
#: Number of histogram bins reported over the unit interval.
HISTOGRAM_BINS = 50

VERDICT_CONSISTENT = "consistent"
VERDICT_INCONSISTENT = "inconsistent"
VERDICT_INCONCLUSIVE = "inconclusive"


class VerificationReport(Record):
    """Outcome of comparing final proportions against a prediction."""

    prediction: LimitPrediction
    steps: int
    replicates: int
    base_seed: int
    verdict: str
    reasons: tuple[str, ...]
    mean_final: float
    histogram: tuple[int, ...]
    radius_requested: float
    radius_used: float | None = None
    allowed_points: tuple[dict, ...] = ()
    excluded_points: tuple[dict, ...] = ()
    unassigned: int | None = None
    allowed_fraction: float | None = None
    ks_statistic: float | None = None
    ks_threshold: float | None = None

    def to_dict(self) -> dict:
        return {
            "prediction": prediction_to_dict(self.prediction),
            "steps": self.steps,
            "replicates": self.replicates,
            "seed": self.base_seed,
            "conventions": {
                "min_allowed_fraction": MIN_ALLOWED_FRACTION,
                "max_excluded_fraction": MAX_EXCLUDED_FRACTION,
                "radius_requested": self.radius_requested,
                "radius_used": self.radius_used,
                "ks_level": KS_LEVEL,
            },
            "mean_final": self.mean_final,
            "histogram": list(self.histogram),
            "allowed_points": list(self.allowed_points),
            "excluded_points": list(self.excluded_points),
            "unassigned": self.unassigned,
            "allowed_fraction": self.allowed_fraction,
            "ks_statistic": self.ks_statistic,
            "ks_threshold": self.ks_threshold,
            "verdict": self.verdict,
            "reasons": list(self.reasons),
        }


def finals_summary(finals: list[float]) -> tuple[float, tuple[int, ...]]:
    """Mean of the final proportions and their counts in ``HISTOGRAM_BINS`` equal bins."""
    bins = [0] * HISTOGRAM_BINS
    for z in finals:
        bins[min(int(z * HISTOGRAM_BINS), HISTOGRAM_BINS - 1)] += 1
    return sum(finals) / len(finals), tuple(bins)


def judge(
    prediction: LimitPrediction,
    finals: list[float],
    *,
    steps: int,
    base_seed: int,
    radius: float = DEFAULT_RADIUS,
) -> VerificationReport:
    """Judge final proportions from any source against a prediction, without simulating.

    ``finals`` is nonempty; ``steps`` and ``base_seed`` only label the report.
    Point predictions cluster the finals around the allowed and excluded points
    together: consistency needs at least ``MIN_ALLOWED_FRACTION`` of them on
    allowed points and at most ``MAX_EXCLUDED_FRACTION`` on each excluded point.
    Centers closer than twice the positive finite ``radius`` shrink it to just
    under half the smallest gap, as the reasons state. Beta laws are judged by the
    KS statistic at level ``KS_LEVEL``. No-atoms and unknown predictions, which
    clustering cannot refute, and Beta laws with a parameter outside the float
    range or a distribution function that does not converge are ``inconclusive``.
    """
    n = len(finals)
    mean_final, histogram = finals_summary(finals)
    report = functools.partial(
        VerificationReport, prediction, steps, n, base_seed,
        mean_final=mean_final, histogram=histogram, radius_requested=float(radius),
    )
    kind = prediction.kind
    if kind is PredictionKind.POINT_MASS_SET and prediction.points:
        allowed = [(p.root.approx, p.verdict) for p in prediction.points]
        excluded = [(p.root.approx, p.theorem) for p in prediction.excluded]
        centers = [c for c, _ in allowed + excluded]
        reasons = []
        radius_used = float(radius)
        min_gap = min((abs(a - b) for a, b in itertools.combinations(centers, 2)),
                      default=math.inf)
        if min_gap <= 2 * radius_used:
            radius_used = 0.49 * min_gap
            reasons.append(f"radius shrunk to {radius_used!r} so clusters cannot overlap")
        clusters = cluster_finals(finals, centers, radius_used)
        allowed_counts = clusters.counts[:len(allowed)]
        excluded_counts = clusters.counts[len(allowed):]
        allowed_fraction = sum(allowed_counts) / n
        consistent = allowed_fraction >= MIN_ALLOWED_FRACTION
        if not consistent:
            reasons.append(
                f"only {allowed_fraction:.3f} of replicates landed on allowed points "
                f"(need >= {MIN_ALLOWED_FRACTION})"
            )
        for (center, theorem), count in zip(excluded, excluded_counts):
            frac = count / n
            if frac > MAX_EXCLUDED_FRACTION:
                consistent = False
                reasons.append(
                    f"excluded point near {center!r} captured {frac:.3f} of replicates "
                    f"(breaks {theorem})"
                )
        return report(
            VERDICT_CONSISTENT if consistent else VERDICT_INCONSISTENT,
            tuple(reasons),
            radius_used=radius_used,
            allowed_points=tuple({"approx": c, "verdict": v, "count": k}
                                 for (c, v), k in zip(allowed, allowed_counts)),
            excluded_points=tuple({"approx": c, "theorem": t, "count": k}
                                  for (c, t), k in zip(excluded, excluded_counts)),
            unassigned=clusters.unassigned,
            allowed_fraction=allowed_fraction,
        )
    if kind is PredictionKind.BETA_DISTRIBUTION:
        if not beta_in_float_range(prediction.beta_params):
            return report(VERDICT_INCONCLUSIVE, (
                "a Beta parameter is outside the float range; KS cannot test the law",))
        try:
            ks = ks_beta(finals, *prediction.beta_params)
        except RuntimeError:  # the continued fraction of the Beta CDF did not converge
            return report(VERDICT_INCONCLUSIVE, (
                "the Beta distribution function did not converge at these parameters; "
                "KS cannot test the law",))
        threshold = ks.threshold(KS_LEVEL)
        if ks.statistic < threshold:
            verdict, reasons = VERDICT_CONSISTENT, ()
        else:
            verdict, reasons = VERDICT_INCONSISTENT, (
                f"KS statistic {ks.statistic!r} is not below the level-{KS_LEVEL} "
                f"threshold {threshold!r}",)
        return report(verdict, reasons, ks_statistic=ks.statistic, ks_threshold=threshold)
    if kind is PredictionKind.CONTINUOUS_NO_ATOMS:
        return report(VERDICT_INCONCLUSIVE, (
            "a no-atoms prediction cannot be refuted by finite clustering; "
            "histogram reported for inspection",))
    return report(VERDICT_INCONCLUSIVE, ("no certified prediction to test against",))


def verify(
    model: UrnModel,
    prediction: LimitPrediction | None = None,
    *,
    steps: int = 10_000,
    replicates: int = 100,
    base_seed: int = 0,
    parallelism: int = 1,
    radius: float = DEFAULT_RADIUS,
) -> VerificationReport:
    """Simulate the model and :func:`judge` its finals against the (given or derived) prediction.

    A run without replicates or without steps has no samples to judge by, a
    radius that is not a positive finite number clusters nothing, and a model
    that :class:`SimConfig` refuses cannot be simulated; each raises
    ``ValueError`` before any analysis or simulation.
    """
    if replicates < 1:
        raise ValueError("verification needs at least one replicate")
    if steps < 1:
        raise ValueError("verification needs at least one step per replicate")
    if not 0 < float(radius) < math.inf:
        raise ValueError("the clustering radius must be a positive finite number")
    config = SimConfig(model=model, steps=steps, replicates=replicates, base_seed=base_seed)
    if prediction is None:
        prediction = predict_limit(model)
    finals = [r.final_z for r in run_replicates(config, parallelism=parallelism)]
    return judge(prediction, finals, steps=steps, base_seed=base_seed, radius=radius)
