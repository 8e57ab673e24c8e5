"""End-to-end acceptance checks, one test per advertised criterion.

The terminal summary (see ``conftest.py``) prints one PASS/FAIL line per
criterion. Exact criteria (1-4) admit no tolerance at all. Monte Carlo
criteria (5-8) fix every run parameter — matrix, starting counts, step count,
replicate count, seed, clustering radius — so they are deterministic; the
thresholds are the package's documented desk-scale conventions. Criterion 9
drives the installed command line in subprocesses and compares bytes.
"""

import json
import math
import random
import subprocess
import sys
from fractions import Fraction

from polyurn.montecarlo import SimConfig, cluster_finals, ks_beta, run_replicates
from polyurn.oracle import SUITES
from polyurn.ratpoly import RatPoly
from polyurn.stability import EquilibriumClass, classify_all
from polyurn.urns import (
    TwoDrawMatrix,
    attainable_interval,
    drift_for,
    drift_two,
    one_draw_model,
    two_draw_model,
)

F = Fraction


def _poly(*coeffs) -> RatPoly:
    return RatPoly([F(c) for c in coeffs])


def _run_suite(name: str, rng: random.Random) -> int:
    """The checks that the ``polyurn.oracle`` suite ``name`` makes on a stream drawn from ``rng``.

    A failed identity raises, naming its input.
    """
    return dict(SUITES)[name](random.Random(rng.getrandbits(64)))


def _finals(model, steps, replicates, seed) -> list[float]:
    config = SimConfig(model=model, steps=steps, replicates=replicates, base_seed=seed)
    return [r.final_z for r in run_replicates(config)]


# ---------------------------------------------------------------------------
# 1. Exact cubic drift fixtures
# ---------------------------------------------------------------------------

def test_criterion_1_pair_drift_fixtures_exact():
    fixtures = [
        ((3, 2, 2, 3, 1, 4), _poly(1, -3)),
        ((9, 1, 2, 3, 1, 7), _poly(1, -6, 12, -8)),
        ((15, 3, 4, 1, 3, 21), _poly(3, -22, 48, -32)),
        ((35, 9, 1, 1, 3, 21), _poly(3, -28, 80, -64)),
    ]
    for entries, expected in fixtures:
        assert drift_two(TwoDrawMatrix.from_entries(list(entries))) == expected


# ---------------------------------------------------------------------------
# 2. Exact classification and attainable-interval fixtures
# ---------------------------------------------------------------------------

def test_criterion_2_classification_and_interval_fixtures_exact():
    bistable = two_draw_model([15, 3, 4, 1, 3, 21], 2, 2)
    classes = [
        (eq.root.value, eq.classification) for eq in classify_all(drift_for(bistable))
    ]
    assert classes == [
        (F(1, 4), EquilibriumClass.STABLE),
        (F(1, 2), EquilibriumClass.STRICTLY_UNSTABLE),
        (F(3, 4), EquilibriumClass.STABLE),
    ]
    interval = attainable_interval(bistable)
    assert (interval.lower, interval.upper) == (F(1, 8), F(5, 6))

    touch = two_draw_model([35, 9, 1, 1, 3, 21], 2, 2)
    classes = [
        (eq.root.value, eq.classification) for eq in classify_all(drift_for(touch))
    ]
    assert classes == [
        (F(1, 4), EquilibriumClass.TOUCHPOINT),
        (F(3, 4), EquilibriumClass.STABLE),
    ]
    interval = attainable_interval(touch)
    assert (interval.lower, interval.upper) == (F(1, 8), F(35, 44))


# ---------------------------------------------------------------------------
# 3. Exact identity suites over random rational matrices
# ---------------------------------------------------------------------------

def test_criterion_3_identity_suites_exact():
    rng = random.Random(20260801)
    # Bias-numerator columns cancel.
    assert _run_suite("pair-bias-numerator-columns", rng) == 200
    # The noise variance decomposition equals the explicit quartic, the second
    # difference relation holds, and both agree with the enumerated moments.
    assert _run_suite("pair-variance-decomposition", rng) == 600
    # Boundary drift signs: pushes inward (or rests) at both ends.
    assert _run_suite("boundary-drift-signs", rng) == 800
    # Inactive-row reduction identities, exact at 20 interior points per
    # matrix, for each family with a vanishing row: 600 matrices on four streams.
    assert sum(_run_suite("inactive-row-reductions", rng) for _ in range(4)) == 12000


# ---------------------------------------------------------------------------
# 4. Closed forms equal the enumeration oracle
# ---------------------------------------------------------------------------

def test_criterion_4_closed_forms_match_enumeration_oracle():
    rng = random.Random(20260802)
    # The single-draw bias E[U / T_next] at 500 random states.
    assert _run_suite("single-draw-bias-oracle", rng) == 500
    # The pair-draw bias and noise mean, with and without replacement, at 500 states.
    assert _run_suite("pair-bias-oracle", rng) == 2000


# ---------------------------------------------------------------------------
# 5. Single-draw Beta limit law (KS at desk scale)
# ---------------------------------------------------------------------------

def test_criterion_5_single_draw_beta_limit_law():
    threshold = 1.628 / math.sqrt(1000)
    for (w0, b0), (alpha, beta) in [((1, 1), (1.0, 1.0)), ((2, 1), (2.0, 1.0))]:
        model = one_draw_model([1, 0, 0, 1], w0, b0)
        finals = _finals(model, steps=10_000, replicates=1000, seed=20260501)
        assert ks_beta(finals, alpha, beta).statistic < threshold


# ---------------------------------------------------------------------------
# 6. Bistable pair-draw urn: two modes, excluded middle
# ---------------------------------------------------------------------------

def test_criterion_6_bistable_modes_and_excluded_middle(record_property):
    model = two_draw_model([15, 3, 4, 1, 3, 21], 5, 2)
    finals = _finals(model, steps=10_000, replicates=500, seed=2)
    clusters = cluster_finals(finals, centers=[0.25, 0.75, 0.5], radius=0.05)
    quarter, three_quarter, middle = clusters.counts
    record_property("near_1/4", quarter)
    record_property("near_3/4", three_quarter)
    record_property("near_excluded_1/2", middle)
    assert quarter + three_quarter >= 450  # >= 90% on the two limit points
    assert middle <= 10  # <= 2% at the excluded point
    assert quarter >= 25 and three_quarter >= 25  # both modes >= 5%


# ---------------------------------------------------------------------------
# 7. Unique-limit concentration
# ---------------------------------------------------------------------------

def test_criterion_7_unique_limit_concentration():
    model = two_draw_model([3, 2, 2, 3, 1, 4], 2, 2)
    finals = _finals(model, steps=10_000, replicates=200, seed=7)
    assert sum(1 for z in finals if abs(z - 1 / 3) <= 0.05) >= 190

    equal_rows = one_draw_model([1, 1, 1, 1], 1, 1)
    finals = _finals(equal_rows, steps=100_000, replicates=200, seed=20260504)
    assert sum(1 for z in finals if abs(z - 0.5) <= 0.05) >= 190


# ---------------------------------------------------------------------------
# 8. Touchpoint urn: near-total mass on the two candidate points
# ---------------------------------------------------------------------------

def test_criterion_8_touchpoint_mass_and_split(record_property):
    model = two_draw_model([35, 9, 1, 1, 3, 21], 12, 2)
    finals = _finals(model, steps=10_000, replicates=500, seed=3)
    clusters = cluster_finals(finals, centers=[0.25, 0.75], radius=0.05)
    quarter, three_quarter = clusters.counts
    # The split between the touchpoint and the attracting point is reported
    # without a hard threshold; only the combined mass is asserted.
    record_property("near_touchpoint_1/4", quarter)
    record_property("near_stable_3/4", three_quarter)
    assert quarter + three_quarter >= 490  # >= 98% combined


# ---------------------------------------------------------------------------
# 9. Byte-identical outputs across reruns and parallelism
# ---------------------------------------------------------------------------

def _run_cli(arguments):
    proc = subprocess.run(
        [sys.executable, "-m", "polyurn", *arguments], capture_output=True, text=True
    )
    return proc


def test_criterion_9_outputs_byte_identical_across_parallelism(tmp_path):
    model_flags = [
        "--two-draw", "15,3,4,1,3,21", "--w0", "5", "--b0", "2",
        "--steps", "2000", "--replicates", "40", "--seed", "2",
    ]
    captured = {}
    for jobs in ("1", "8", "1-again"):
        workers = jobs.split("-")[0]
        outdir = tmp_path / f"jobs{jobs}"
        outdir.mkdir()
        finals_path = outdir / "finals.csv"
        trajectory_path = outdir / "trajectory.csv"
        sim = _run_cli(
            ["simulate", *model_flags, "--jobs", workers,
             "--out", str(finals_path), "--trajectory-out", str(trajectory_path),
             "--trajectory-stride", "200", "--format", "json"]
        )
        assert sim.returncode == 0, sim.stderr
        ver = _run_cli(["verify", *model_flags, "--jobs", workers])
        assert ver.returncode == 0, ver.stderr
        assert json.loads(ver.stdout)["verdict"] == "consistent"
        captured[jobs] = (
            finals_path.read_bytes(),
            trajectory_path.read_bytes(),
            sim.stdout,
            ver.stdout,
        )
    assert captured["1"] == captured["8"]
    assert captured["1"] == captured["1-again"]
