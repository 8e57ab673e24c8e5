"""Command-line interface: flags, outputs, file writing, and exit codes.

Exit-code contract: 0 for success (including an inconclusive verification),
1 for usage or input/output problems, 2 for a verification inconsistency or
a failed selftest.
"""

import ast
import importlib.metadata
import json
import math
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import polyurn
import polyurn.cli as cli
import polyurn.montecarlo as montecarlo
import polyurn.oracle as oracle
import polyurn.stability as stability
import polyurn.urns as urns
from polyurn.montecarlo import SimConfig, finals_csv_lines, run_replicates
from polyurn.ratpoly import RatPoly
from polyurn.urns import model_to_dict, two_draw_model

REPO_ROOT = Path(__file__).resolve().parents[1]


def run_cli(args, capsys):
    code = cli.main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# Usage errors (exit 1)
# ---------------------------------------------------------------------------

def test_no_command_is_a_usage_error(capsys):
    code, _, err = run_cli([], capsys)
    assert code == 1
    assert "usage" in err


def test_unknown_command_is_a_usage_error(capsys):
    code, _, err = run_cli(["frobnicate"], capsys)
    assert code == 1


def test_help_exits_zero(capsys):
    code, out, _ = run_cli(["--help"], capsys)
    assert code == 0
    assert "analyze" in out and "simulate" in out and "verify" in out and "selftest" in out


def test_model_flags_are_mutually_exclusive(capsys):
    code, _, err = run_cli(["analyze"], capsys)
    assert code == 1
    assert "exactly one of" in err
    code, _, err = run_cli(
        ["analyze", "--one-draw", "1,0,0,1", "--two-draw", "3,2,2,3,1,4"], capsys
    )
    assert code == 1


def test_model_file_excludes_inline_overrides(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_dict(two_draw_model([3, 2, 2, 3, 1, 4], 2, 2))))
    code, _, err = run_cli(["analyze", "--model", str(path), "--w0", "5"], capsys)
    assert code == 1
    assert "do not combine" in err


def test_wrong_entry_count_rejected(capsys):
    code, _, err = run_cli(["analyze", "--one-draw", "1,2,3"], capsys)
    assert code == 1
    assert "4 comma-separated values" in err


def test_bad_rational_rejected(capsys):
    code, _, err = run_cli(["analyze", "--one-draw", "1,0,0,zebra"], capsys)
    assert code == 1


def test_one_draw_rejects_pair_sampling_flag(capsys):
    code, _, err = run_cli(
        ["analyze", "--one-draw", "1,0,0,1", "--sampling", "without"], capsys
    )
    assert code == 1
    assert "pair-draw" in err


def test_one_draw_model_file_rejects_pair_sampling(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({"model": "one-draw", "matrix": [["1", "0"], ["0", "1"]],
                                "sampling": "without"}))
    code, out, err = run_cli(["analyze", "--model", str(path)], capsys)
    assert_one_line_usage_error(code, out, err)
    assert "pair-draw" in err


@pytest.mark.parametrize("flag", ["--w0", "--b0"])
def test_bad_start_count_names_its_flag(flag, capsys):
    code, out, err = run_cli(["analyze", "--one-draw", "1,0,0,1", flag, "abc"], capsys)
    assert_one_line_usage_error(code, out, err)
    assert err == f"polyurn: error: {flag}: not a rational number: 'abc'\n"


def test_missing_model_file_is_an_input_error(capsys):
    code, _, err = run_cli(["analyze", "--model", "/nonexistent/model.json"], capsys)
    assert code == 1
    assert "cannot read" in err


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def test_analyze_emits_json_with_exact_rationals(capsys):
    code, out, _ = run_cli(["analyze", "--two-draw", "3,2,2,3,1,4"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["model"]["matrix"] == [["3", "2"], ["2", "3"], ["1", "4"]]
    assert payload["prediction"]["kind"] == "point-mass-set"
    assert payload["prediction"]["points"][0]["point"] == "1/3"
    assert payload["prediction"]["points"][0]["verdict"] == "converges-a.s.-unique"


def test_analyze_respects_start_and_sampling_flags(capsys):
    code, out, _ = run_cli(
        ["analyze", "--two-draw", "9,1,2,3,1,7", "--w0", "7/2", "--b0", "3",
         "--sampling", "with"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["model"]["w0"] == "7/2"
    assert payload["model"]["sampling"] == "with"


def test_analyze_model_with_large_drift_coefficients(capsys):
    # The drift's primitive integer coefficients reach about 1e17.
    code, out, _ = run_cli(
        ["analyze", "--two-draw", "99991/9973,3119/7919,4/101,1/103,3/107,21/109",
         "--w0", "5", "--b0", "2"], capsys
    )
    assert code == 0
    (point,) = json.loads(out)["prediction"]["points"]
    assert point["verdict"] == "converges-a.s.-unique"
    assert point["point"] is None
    assert abs(point["approx"] - 0.962114699465834) < 1e-12


@pytest.mark.parametrize("flags", [["--one-draw", "1,2,3,1e400"],
                                   ["--two-draw", "1e300,1,1,1,1e-300,1"]])
def test_analyze_irrational_root_next_to_an_end(flags, capsys):
    # The drift's one root lies within 1e-300 of 0 (one draw) or of 1 (pair
    # draws), far inside the refinement width: its interval must hold neither
    # end, or no sign probe fits between the root and that end.
    code, out, err = run_cli(["analyze", *flags], capsys)
    assert code == 0 and err == ""
    (equilibrium,) = json.loads(out)["equilibria"]
    assert equilibrium["point"] is None and equilibrium["classification"] == "stable"
    lo, hi = map(Fraction, equilibrium["interval"])
    assert 0 < lo < hi < 1


def test_analyze_roots_closer_than_the_recursion_limit_of_halvings(capsys):
    # The drift has roots 0, 1 and one within 1e-299 of 1: Sturm isolation
    # halves (0, 1] about 1000 times to part the last two, and each halving
    # once cost a level of recursion.
    code, out, err = run_cli(["analyze", "--two-draw", "6,0,9,2,0,1e300"], capsys)
    assert (code, err) == (0, "")
    equilibria = json.loads(out)["equilibria"]
    points = [Fraction(eq["point"]) for eq in equilibria]
    assert points[0] == 0 and 0 < 1 - points[1] < Fraction(1, 10**299) and points[2] == 1
    assert [eq["classification"] for eq in equilibria] == ["stable", "strictly-unstable", "stable"]


def test_analyze_start_defaults_per_draw_rule(capsys):
    for flags, start in ((["--one-draw", "1,0,0,1"], ("1", "1")),
                         (["--two-draw", "3,2,2,3,1,4", "--b0", "5"], ("2", "5"))):
        code, out, _ = run_cli(["analyze", *flags], capsys)
        assert code == 0
        model = json.loads(out)["model"]
        assert (model["w0"], model["b0"]) == start


def test_analyze_text_format(capsys):
    code, out, _ = run_cli(["analyze", "--one-draw", "1,0,0,1", "--format", "text"], capsys)
    assert code == 0
    assert "prediction" in out


def test_analyze_writes_report_file(tmp_path, capsys):
    out_path = tmp_path / "analysis.json"
    code, out, _ = run_cli(
        ["analyze", "--two-draw", "3,2,2,3,1,4", "--out", str(out_path)], capsys
    )
    assert code == 0
    assert out == ""
    payload = json.loads(out_path.read_text())
    assert payload["prediction"]["kind"] == "point-mass-set"


def test_analyze_model_file_round_trip(tmp_path, capsys):
    model = two_draw_model([9, 1, 2, 3, 1, 7], Fraction(5, 2), 2, sampling="with")
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_dict(model)))
    code, out, _ = run_cli(["analyze", "--model", str(path)], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["model"] == model_to_dict(model)


def test_model_file_numbers_read_as_their_decimals(tmp_path, capsys):
    path = tmp_path / "model.json"
    path.write_text('{"model": "one-draw", "matrix": [[0.1, 0], [0, 1]], "w0": 2.5}')
    code, out, _ = run_cli(["analyze", "--model", str(path)], capsys)
    assert code == 0
    model = json.loads(out)["model"]
    assert (model["matrix"][0][0], model["w0"]) == ("1/10", "5/2")


@pytest.mark.parametrize("number, shown", [("1e400", "inf"), ("true", "True")])
def test_model_file_number_that_is_not_rational_is_a_one_line_error(number, shown, tmp_path,
                                                                     capsys):
    path = tmp_path / "model.json"
    path.write_text('{"model": "one-draw", "matrix": [[%s, 0], [0, 1]]}' % number)
    code, out, err = run_cli(["analyze", "--model", str(path)], capsys)
    assert_one_line_usage_error(code, out, err)
    assert err == f"polyurn: error: invalid model file {path}: not a rational number: {shown}\n"


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

def test_simulate_writes_finals_and_trajectories(tmp_path, capsys):
    finals = tmp_path / "finals.csv"
    traj = tmp_path / "traj.csv"
    code, out, _ = run_cli(
        ["simulate", "--one-draw", "1,0,0,1", "--steps", "50", "--replicates", "5",
         "--seed", "3", "--out", str(finals), "--trajectory-out", str(traj),
         "--trajectory-stride", "10", "--format", "csv"], capsys
    )
    assert code == 0
    assert out == ""  # CSV went to the file, not stdout

    from polyurn.urns import one_draw_model

    config = SimConfig(
        model=one_draw_model([1, 0, 0, 1], 1, 1), steps=50, replicates=5,
        base_seed=3, record_trajectory=True, trajectory_stride=10,
    )
    expected = run_replicates(config)
    assert finals.read_text() == "\n".join(finals_csv_lines(expected)) + "\n"
    lines = traj.read_text().splitlines()
    assert lines[0] == "replicate,step,Z"
    assert len(lines) == 1 + 5 * 6  # steps 0,10,20,30,40,50 per replicate


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_simulate_renders_the_finals_csv_only_when_it_is_written(fmt, monkeypatch, capsys):
    argv = ["simulate", "--one-draw", "1,0,0,1", "--steps", "20", "--replicates", "4",
            "--format", fmt]
    expected = run_cli(argv, capsys)

    def refuse(results):
        raise AssertionError("rendered a finals CSV that nothing writes")

    monkeypatch.setattr(montecarlo, "finals_csv_lines", refuse)
    assert run_cli(argv, capsys) == expected


def test_simulate_csv_to_stdout_without_out(capsys):
    code, out, _ = run_cli(
        ["simulate", "--one-draw", "1,0,0,1", "--steps", "10", "--replicates", "2",
         "--format", "csv"], capsys
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "replicate,final_W,final_B,final_Z"
    assert len(lines) == 3


def test_simulate_json_summary(capsys):
    code, out, _ = run_cli(
        ["simulate", "--one-draw", "1,0,0,1", "--steps", "20", "--replicates", "8",
         "--seed", "5", "--format", "json"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["replicates"] == 8 and payload["steps"] == 20 and payload["seed"] == 5
    assert sum(payload["histogram"]) == 8
    assert 0.0 <= payload["mean_final"] <= 1.0


def test_simulate_text_histogram(capsys):
    code, out, _ = run_cli(
        ["simulate", "--one-draw", "1,0,0,1", "--steps", "20", "--replicates", "4"], capsys
    )
    assert code == 0
    assert "final-proportion histogram:" in out


def test_simulate_rejects_invalid_start_for_pair_draws(capsys):
    code, _, err = run_cli(
        ["simulate", "--two-draw", "3,2,2,3,1,4", "--w0", "1"], capsys
    )
    assert code == 1


def test_simulate_zero_jobs_is_a_one_line_error():
    proc = subprocess.run(
        [sys.executable, "-m", "polyurn", "simulate", "--one-draw", "1,0,0,1",
         "--steps", "10", "--replicates", "2", "--jobs", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("polyurn: error:")


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def test_verify_consistent_model_exits_zero(capsys):
    code, out, _ = run_cli(
        ["verify", "--two-draw", "3,2,2,3,1,4", "--steps", "400",
         "--replicates", "30", "--seed", "7"], capsys
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "consistent"
    assert payload["conventions"]["min_allowed_fraction"] == 0.90


def test_verify_reads_prediction_file(tmp_path, capsys):
    code, out, _ = run_cli(["analyze", "--two-draw", "3,2,2,3,1,4"], capsys)
    assert code == 0
    prediction = json.loads(out)["prediction"]
    path = tmp_path / "prediction.json"
    path.write_text(json.dumps(prediction))
    code, out, _ = run_cli(
        ["verify", "--two-draw", "3,2,2,3,1,4", "--prediction", str(path),
         "--steps", "400", "--replicates", "30", "--seed", "7"], capsys
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "consistent"


def test_verify_reads_a_utf8_prediction_file_in_the_c_locale(tmp_path, capsys):
    # Model files are read as UTF-8 whatever the locale, and so are predictions.
    code, out, _ = run_cli(["analyze", "--two-draw", "3,2,2,3,1,4"], capsys)
    assert code == 0
    prediction = json.loads(out)["prediction"]
    prediction["notes"].append("vérifié")
    path = tmp_path / "prediction.json"
    path.write_text(json.dumps(prediction, ensure_ascii=False), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-m", "polyurn", "verify", "--two-draw", "3,2,2,3,1,4",
         "--prediction", str(path), "--steps", "400", "--replicates", "30", "--seed", "7"],
        env=dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0"),
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["verdict"] == "consistent"
    assert payload["prediction"]["notes"][-1] == "vérifié"


def test_verify_wrong_prediction_exits_two(tmp_path, capsys):
    # A prediction borrowed from a different model points at 1/2; the
    # simulated model settles near 1/3.
    code, out, _ = run_cli(["analyze", "--two-draw", "9,1,2,3,1,7"], capsys)
    assert code == 0
    path = tmp_path / "prediction.json"
    path.write_text(json.dumps(json.loads(out)["prediction"]))
    code, out, _ = run_cli(
        ["verify", "--two-draw", "3,2,2,3,1,4", "--prediction", str(path),
         "--steps", "400", "--replicates", "30", "--seed", "7"], capsys
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["verdict"] == "inconsistent"
    assert payload["reasons"]


def test_verify_unreadable_prediction_file(capsys):
    code, _, err = run_cli(
        ["verify", "--one-draw", "1,0,0,1", "--prediction", "/nonexistent.json"], capsys
    )
    assert code == 1
    assert "cannot read" in err


def test_verify_corrupt_prediction_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"kind": "no-such-kind"}')
    code, _, err = run_cli(
        ["verify", "--one-draw", "1,0,0,1", "--prediction", str(path)], capsys
    )
    assert code == 1
    assert "invalid prediction file" in err


def test_verify_inconclusive_still_exits_zero(capsys):
    # No-atoms predictions cannot be settled by clustering: exit 0, verdict
    # recorded as inconclusive.
    code, out, _ = run_cli(
        ["verify", "--two-draw", "2,0,1,1,0,2", "--steps", "200",
         "--replicates", "20"], capsys
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "inconclusive"


def test_verify_two_predicted_points_at_one_float_is_inconclusive(capsys):
    # The allowed root 1/2 + 1e-20 and the excluded root 1/2 round to one
    # float, so clustering cannot tell them apart.
    entries = ",".join(["349999999999999999999/50000000000000000000",
                        "149999999999999999997/50000000000000000000", "1/2", "0",
                        "50000000000000000001/50000000000000000000",
                        "300000000000000000003/50000000000000000000"])
    code, out, err = run_cli(
        ["verify", "--two-draw", entries, "--w0", "5", "--b0", "2", "--steps", "200",
         "--replicates", "5"], capsys
    )
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["verdict"] == "inconclusive"
    assert report["reasons"] == [
        "two points share the location 0.5; clustering cannot tell them apart"]


@pytest.mark.parametrize("ulps", [1, 2])
def test_verify_two_predicted_points_a_subnormal_apart_is_inconclusive(ulps, tmp_path, capsys):
    # The shrunk radius 0.49 * ulps * 2**-1074 rounds to 0 at one ulp and to
    # half the gap at two; neither separates the points, and no --radius is given.
    points = [{"point": p, "verdict": "converges-a.s."} for p in ["0", f"{ulps}/{2**1074}"]]
    path = tmp_path / "prediction.json"
    path.write_text(json.dumps({"kind": "point-mass-set", "points": points}))
    code, out, err = run_cli(
        ["verify", "--one-draw", "1,0,0,1", "--steps", "10", "--replicates", "3",
         "--prediction", str(path)], capsys
    )
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["verdict"] == "inconclusive"
    assert report["reasons"] == [
        f"the points at 0.0 and {ulps * 5e-324!r} are too close to shrink the radius between "
        "them; clustering cannot tell them apart"]


@pytest.mark.parametrize("w0", ["1e-400", "1e400"], ids=["underflow", "overflow"])
def test_verify_beta_parameter_beyond_float_range_is_inconclusive(w0, capsys):
    # The predicted law Beta(w0, 1) is correct, but its first parameter has
    # no positive finite float, so the KS test cannot judge it.
    code, out, err = run_cli(
        ["verify", "--one-draw", "1,0,0,1", "--w0", w0, "--steps", "5",
         "--replicates", "2"], capsys
    )
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["verdict"] == "inconclusive"
    assert report["ks_statistic"] is None
    assert any("float range" in reason for reason in report["reasons"])


# At Beta(1e16, 1e16) the continued fraction runs out of terms; at 1e300 its
# terms overflow.
@pytest.mark.parametrize("start", ["1e16", "1e300"])
def test_verify_beta_law_whose_distribution_function_does_not_converge_is_inconclusive(start):
    proc = subprocess.run(
        [sys.executable, "-m", "polyurn", "verify", "--one-draw", "1,0,0,1", "--w0", start,
         "--b0", start, "--steps", "200", "--replicates", "20", "--format", "text"],
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    verdicts = [line for line in proc.stdout.splitlines() if line.startswith("verdict:")]
    assert verdicts == ["verdict: inconclusive"]
    assert "the Beta distribution function did not converge" in proc.stdout


VERIFY_MODELS =pytest.mark.parametrize("model_flags", [
    ["--two-draw", "15,3,4,1,3,21", "--w0", "5", "--b0", "2"],  # point prediction
    ["--one-draw", "1,0,0,1"],  # Beta prediction
], ids=["point", "beta"])


def assert_one_line_usage_error(code, out, err):
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("polyurn: error:")


@pytest.mark.parametrize("flags", [
    ["--one-draw", "1,0,0,1", "--w0", "1e-99999999"],  # 10**99999999 takes minutes to build
    ["--one-draw", "1e5000,0,0,1"],  # more digits than the interpreter prints
    ["--one-draw", "1e4000,0,0,1"],  # parses, but a derived number has too many digits
])
def test_analyze_refuses_numbers_too_long_to_print(flags):
    proc = subprocess.run(
        [sys.executable, "-m", "polyurn", "analyze", *flags],
        capture_output=True, text=True, timeout=30,
    )
    assert_one_line_usage_error(proc.returncode, proc.stdout, proc.stderr)


def test_a_derived_number_too_long_to_print_is_a_one_line_error(capsys):
    # The entries print, but a number derived from them has over 4300 digits.
    entries = f"1/{'7' * 2500},1,1/{'3' * 2499}1,1"
    code, out, err = run_cli(["analyze", "--one-draw", entries], capsys)
    assert_one_line_usage_error(code, out, err)
    assert err.startswith("polyurn: error: a derived number is too long to print: ")


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_an_unprintable_report_is_refused_before_its_roots_are_isolated(fmt, monkeypatch, capsys):
    monkeypatch.setattr(stability, "roots_in_unit_interval",
                        lambda *args: pytest.fail("isolated the roots of an unprintable report"))
    code, out, err = run_cli(["analyze", "--two-draw", "1e4000,1,2,1,1,3", "--format", fmt],
                             capsys)
    assert_one_line_usage_error(code, out, err)
    assert err.startswith("polyurn: error: a derived number is too long to print: ")


def test_a_long_model_whose_report_fits_is_analyzed(capsys):
    # 1e1300 has more bits than the early check's bound, but the squares in
    # the noise polynomial have 2600 digits, which print.
    assert (10**1300).bit_length() > cli.LONG_MODEL_BITS
    code, out, err = run_cli(["analyze", "--one-draw", "1e1300,1,1,1e1300"], capsys)
    assert (code, err) == (0, "")
    (point,) = json.loads(out)["prediction"]["points"]
    assert point["point"] == "1/2"


@pytest.mark.parametrize("command", ["simulate", "verify"])
@pytest.mark.parametrize("seed", [-5, 2**64, 2**64 + 3])
def test_a_seed_outside_64_bits_is_a_usage_error(command, seed, capsys):
    # Replicate streams use a seed's low 64 bits, so -5 would run the
    # replicates of 2**64 - 5, and 2**64 + 3 those of 3, under another label.
    code, out, err = run_cli(
        [command, "--one-draw", "1,0,0,1", "--steps", "10", "--replicates", "2",
         "--seed", str(seed)], capsys)
    assert_one_line_usage_error(code, out, err)
    assert "[0, 2**64)" in err


@pytest.mark.parametrize("command, flag, value, message", [
    ("simulate", "--steps", "-1", "--steps must be nonnegative"),
    ("verify", "--steps", "-1", "--steps must be nonnegative"),
    ("verify", "--steps", "0", "--steps must be at least 1 to verify"),
    ("simulate", "--replicates", "0", "--replicates must be at least 1"),
    ("verify", "--replicates", "0", "--replicates must be at least 1"),
    ("simulate", "--jobs", "0", "--jobs must be at least 1"),
    ("verify", "--jobs", "-2", "--jobs must be at least 1"),
    ("simulate", "--trajectory-stride", "0", "--trajectory-stride must be at least 1"),
    ("simulate", "--seed", "-1", "--seed must be in [0, 2**64)"),
    ("verify", "--seed", "18446744073709551616", "--seed must be in [0, 2**64)"),
    ("verify", "--radius", "nan", "--radius must be a positive finite number"),
])
def test_a_simulation_flag_out_of_range_names_its_flag(command, flag, value, message, capsys):
    code, out, err = run_cli(
        [command, "--one-draw", "1,0,0,1", "--steps", "10", "--replicates", "2", flag, value],
        capsys)
    assert_one_line_usage_error(code, out, err)
    assert err == f"polyurn: error: {message}\n"


@VERIFY_MODELS
def test_verify_zero_replicates_is_a_usage_error(model_flags, capsys):
    # No samples can never refute a prediction: exit 1, not 2 "inconsistent".
    code, out, err = run_cli(["verify", *model_flags, "--replicates", "0"], capsys)
    assert_one_line_usage_error(code, out, err)


@pytest.mark.parametrize("flags, final", [
    (["--one-draw", "7,1e400,.5,2"], "0,1,1,0.5"),
    (["--two-draw", "5,4,1e400,2/4,9,3"], "0,2,2,0.5"),
], ids=["one-draw", "pair"])
def test_simulate_zero_steps_with_rows_beyond_the_float_range(flags, final, capsys):
    # No step adds a row, but the float kernels would still convert every row.
    code, out, err = run_cli(
        ["simulate", *flags, "--steps", "0", "--replicates", "1", "--format", "csv"], capsys)
    assert (code, err) == (0, "")
    assert out.splitlines() == ["replicate,final_W,final_B,final_Z", final]


@VERIFY_MODELS
def test_verify_zero_steps_is_a_usage_error(model_flags, capsys):
    # Replicates that never moved from the start say nothing about the limit.
    code, out, err = run_cli(
        ["verify", *model_flags, "--steps", "0", "--replicates", "30"], capsys
    )
    assert_one_line_usage_error(code, out, err)
    code, _, _ = run_cli(
        ["simulate", *model_flags, "--steps", "0", "--replicates", "3"], capsys
    )
    assert code == 0


@VERIFY_MODELS
@pytest.mark.parametrize("radius", ["nan", "inf", "0", "-1"])
def test_verify_rejects_a_radius_that_is_not_positive_and_finite(model_flags, radius, capsys):
    # A NaN radius clusters nothing (a false "inconsistent") and is not valid JSON.
    code, out, err = run_cli(
        ["verify", *model_flags, "--steps", "50", "--replicates", "5", "--radius", radius],
        capsys,
    )
    assert_one_line_usage_error(code, out, err)


def _point(**fields):
    return {"kind": "point-mass-set", "points": [{"verdict": "unique", **fields}]}


BAD_PREDICTIONS = {
    "beta-without-params": ({"kind": "beta-distribution", "beta_params": None},
                            "beta_params must be a list of two numbers, not None"),
    "beta-param-beyond-float": (
        {"kind": "beta-distribution", "beta_params": ["1e400", "1"]},
        "beta_params must be positive and within float range: ['1e400', '1']"),
    "beta-param-count": ({"kind": "beta-distribution", "beta_params": ["1"]},
                         "beta_params must be a list of two numbers, not ['1']"),
    "beta-params-not-a-list": ({"kind": "beta-distribution", "beta_params": "12"},
                               "beta_params must be a list of two numbers, not '12'"),
    "point-approx-beyond-float": (_point(point=None, approx=1e400),
                                  "a point must lie in [0, 1], not inf"),
    "point-not-an-object": ({"kind": "point-mass-set", "points": [5]},
                            "a point must be a JSON object, not 5"),
    "point-beyond-float": (_point(point="1e400"), "a point must lie in [0, 1], not '1e400'"),
    "point-below-zero": (_point(point="-1/3"), "a point must lie in [0, 1], not '-1/3'"),
    "approx-above-one": (_point(point=None, approx=1.5), "a point must lie in [0, 1], not 1.5"),
    "approx-nan": (_point(point=None, approx=math.nan), "a point must lie in [0, 1], not nan"),
    "missing-approx": (_point(point=None), "missing key 'approx'"),
    "approx-boolean": (_point(point=None, approx=True),
                       "an approximate point must be a number, not True"),
    "approx-string": (_point(point=None, approx=" 0.5 "),
                      "an approximate point must be a number, not ' 0.5 '"),
    "multiplicity-beyond-float": (
        _point(point="1/2", multiplicity=1e400),
        "a multiplicity must be an integer of at least 1, not inf"),
    "multiplicity-minus-infinity": (
        _point(point="1/2", multiplicity=-math.inf),
        "a multiplicity must be an integer of at least 1, not -inf"),
    "multiplicity-zero": (_point(point="1/2", multiplicity=0),
                          "a multiplicity must be an integer of at least 1, not 0"),
    "multiplicity-float": (_point(point="1/2", multiplicity=2.0),
                           "a multiplicity must be an integer of at least 1, not 2.0"),
    "notes-not-a-list": ({"kind": "unknown", "notes": "split"},
                         "notes must be a list of strings, not 'split'"),
    "note-beyond-float": ({"kind": "unknown", "notes": ["a", 1e400]},
                          "verdicts, theorems and notes must be strings, not inf"),
    "verdict-not-a-string": (_point(point="1/2", verdict=["x"]),
                             "verdicts, theorems and notes must be strings, not ['x']"),
    "theorem-not-a-string": (_point(point="1/2", theorem={}),
                             "verdicts, theorems and notes must be strings, not {}"),
}


@pytest.mark.parametrize("prediction, message", BAD_PREDICTIONS.values(),
                         ids=BAD_PREDICTIONS.keys())
def test_verify_rejects_a_malformed_prediction_file(prediction, message, tmp_path, capsys):
    path = tmp_path / "prediction.json"
    path.write_text(json.dumps(prediction))  # 1e400 is written as Infinity
    code, out, err = run_cli(
        ["verify", "--one-draw", "1,0,0,1", "--steps", "50", "--replicates", "5",
         "--prediction", str(path)], capsys
    )
    assert_one_line_usage_error(code, out, err)
    assert err == f"polyurn: error: invalid prediction file {path}: {message}\n"


@pytest.mark.parametrize("flags", [
    ["analyze", "--model"],
    ["verify", "--one-draw", "1,0,0,1", "--steps", "5", "--replicates", "2", "--prediction"],
], ids=["model", "prediction"])
def test_json_nested_deeper_than_the_decoder_recurses_is_a_one_line_error(flags, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 200_000 + "]" * 200_000)
    code, out, err = run_cli([*flags, str(path)], capsys)
    assert_one_line_usage_error(code, out, err)
    assert f"invalid {flags[-1][2:]} file" in err


@pytest.mark.parametrize("what", ["model", "prediction"])
@pytest.mark.parametrize("content, wording", [
    (None, "cannot read {what} file {path}: [Errno 2] No such file or directory: '{path}'"),
    (b"{bad", "invalid {what} file {path}: invalid JSON: Expecting property name enclosed in "
              "double quotes: line 1 column 2 (char 1)"),
    (b"\xff", "invalid {what} file {path}: 'utf-8' codec can't decode byte 0xff in position 0: "
              "invalid start byte"),
], ids=["missing", "json", "not-utf8"])
def test_both_input_files_word_each_failure_alike(what, content, wording, tmp_path, capsys):
    path = tmp_path / f"{what}.json"
    if content is not None:
        path.write_bytes(content)
    flags = (["analyze", "--model", str(path)] if what == "model" else
             ["verify", "--one-draw", "1,0,0,1", "--steps", "5", "--replicates", "2",
              "--prediction", str(path)])
    code, out, err = run_cli(flags, capsys)
    assert_one_line_usage_error(code, out, err)
    assert err == f"polyurn: error: {wording.format(what=what, path=path)}\n"


@pytest.mark.parametrize("text", ["{bad", '{"model": "one-draw", "matrix": 1}'],
                         ids=["json", "schema"])
def test_malformed_model_file_names_its_path_once(text, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run_cli(["analyze", "--model", str(path)], capsys)
    assert_one_line_usage_error(code, out, err)
    assert err.count(str(path)) == 1
    assert err.startswith(f"polyurn: error: invalid model file {path}: ")


def test_successive_main_calls_share_no_parser_state(monkeypatch, tmp_path, capsys):
    # One parser serves every call in a process; each call must still parse
    # as if it were the first, whatever command or error came before it.
    monkeypatch.setattr(oracle, "SUITES", oracle.SUITES[:1])
    finals = tmp_path / "finals.csv"
    calls = [
        ["analyze", "--two-draw", "15,3,4,1,3,21", "--w0", "5", "--b0", "2", "--format", "text"],
        ["simulate", "--one-draw", "1,0,0,1", "--steps", "20", "--replicates", "3",
         "--out", str(finals), "--format", "json"],
        ["analyze", "--one-draw", "2,0,0,1"],
        ["verify", "--one-draw", "1,0,0,1", "--steps", "50", "--replicates", "5",
         "--format", "text"],
        ["analyze"],
        ["selftest", "--seed", "3"],
        ["simulate", "--one-draw", "1,0,0,1", "--format", "xml"],
        ["verify", "--one-draw", "1,0,0,1", "--replicates", "0"],
    ]
    forward = [run_cli(argv, capsys) for argv in calls]
    backward = [run_cli(argv, capsys) for argv in reversed(calls)][::-1]
    assert forward == backward
    assert [code for code, _, _ in forward] == [0, 0, 0, 0, 1, 0, 1, 1]
    # The analyze call after a simulate --out still reports on stdout.
    assert json.loads(forward[2][1])["model"]["matrix"] == [["2", "0"], ["0", "1"]]
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("fmt", ["text", "csv", "json"])
def test_simulate_zero_replicates_is_a_usage_error(fmt):
    # With no replicates there is no mean; JSON output would carry a NaN.
    proc = subprocess.run(
        [sys.executable, "-m", "polyurn", "simulate", "--one-draw", "1,0,0,1",
         "--steps", "10", "--replicates", "0", "--format", fmt],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("polyurn: error:")


def test_verify_text_format_and_out_file(tmp_path, capsys):
    out_path = tmp_path / "report.txt"
    code, out, _ = run_cli(
        ["verify", "--two-draw", "3,2,2,3,1,4", "--steps", "200", "--replicates", "20",
         "--seed", "7", "--format", "text", "--out", str(out_path)], capsys
    )
    assert code == 0
    assert out == ""
    text = out_path.read_text()
    assert "verdict: consistent" in text
    assert "allowed near" in text


@pytest.mark.parametrize("second", ["1/3", "3333333333333333/10000000000000000"],
                         ids=["same-point", "same-float"])
@pytest.mark.parametrize("field", ["points", "excluded"])
def test_verify_refuses_two_points_at_one_location_before_simulating(
        field, second, monkeypatch, tmp_path, capsys):
    def no_simulation(*args, **kwargs):
        raise AssertionError("simulated before the prediction was checked")

    monkeypatch.setattr(montecarlo, "run_replicates", no_simulation)
    prediction = {"kind": "point-mass-set",
                  "points": [{"point": "1/3", "verdict": "unique"}], "excluded": []}
    prediction[field].append({"point": second, "verdict": "unique", "theorem": "T"})
    path = tmp_path / "dup.json"
    path.write_text(json.dumps(prediction))
    code, out, err = run_cli(
        ["verify", "--two-draw", "3,2,2,3,1,4", "--steps", "50", "--replicates", "3",
         "--prediction", str(path)], capsys
    )
    assert_one_line_usage_error(code, out, err)
    assert err == (f"polyurn: error: invalid prediction file {path}: "
                   f"two points at the same location: 1/3 and {second}\n")


# ---------------------------------------------------------------------------
# Output files: rewritten in place
# ---------------------------------------------------------------------------

LONG_ANALYSIS = ["--two-draw", "15,3,4,1,3,21", "--w0", "5", "--b0", "2"]
SHORT_ANALYSIS = ["--one-draw", "1,0,0,1"]


def _simulate_args(replicates, finals, traj):
    return ["simulate", "--one-draw", "1,0,0,1", "--steps", "50", "--replicates",
            str(replicates), "--seed", "3", "--out", str(finals),
            "--trajectory-out", str(traj), "--trajectory-stride", "10"]


def test_shorter_analysis_rewrite_leaves_no_stale_tail(tmp_path, capsys):
    out_path = tmp_path / "analysis.json"
    assert run_cli(["analyze", *LONG_ANALYSIS, "--out", str(out_path)], capsys)[0] == 0
    long_size = out_path.stat().st_size
    assert run_cli(["analyze", *SHORT_ANALYSIS, "--out", str(out_path)], capsys)[0] == 0
    code, out, _ = run_cli(["analyze", *SHORT_ANALYSIS], capsys)
    assert code == 0
    assert len(out) < long_size
    assert out_path.read_bytes() == out.encode()


def test_shorter_simulate_rewrite_leaves_no_stale_tail(tmp_path, capsys):
    finals, traj = tmp_path / "finals.csv", tmp_path / "traj.csv"
    fresh_finals, fresh_traj = tmp_path / "fresh-finals.csv", tmp_path / "fresh-traj.csv"
    assert run_cli(_simulate_args(5, finals, traj), capsys)[0] == 0
    sizes = finals.stat().st_size, traj.stat().st_size
    assert run_cli(_simulate_args(2, finals, traj), capsys)[0] == 0
    assert run_cli(_simulate_args(2, fresh_finals, fresh_traj), capsys)[0] == 0
    assert (fresh_finals.stat().st_size, fresh_traj.stat().st_size) < sizes
    assert finals.read_bytes() == fresh_finals.read_bytes()
    assert traj.read_bytes() == fresh_traj.read_bytes()


def _simulate_out_flag(flag):
    return ["simulate", "--one-draw", "1,0,0,1", "--steps", "10", "--replicates", "2", flag]


OUT_FLAGS = {
    "analyze": ["analyze", *SHORT_ANALYSIS, "--out"],
    "simulate-out": _simulate_out_flag("--out"),
    "simulate-trajectory-out": _simulate_out_flag("--trajectory-out"),
}


@pytest.mark.parametrize("flags", OUT_FLAGS.values(), ids=OUT_FLAGS.keys())
def test_writing_to_the_null_device_succeeds(flags, capsys):
    code, _, err = run_cli([*flags, os.devnull], capsys)
    assert code == 0
    assert err == ""


@pytest.mark.parametrize("flags", OUT_FLAGS.values(), ids=OUT_FLAGS.keys())
@pytest.mark.parametrize("target", ["directory", "missing-parent"])
def test_unwritable_output_path_is_a_one_line_error(flags, target, tmp_path, capsys):
    path = tmp_path if target == "directory" else tmp_path / "missing" / "out.txt"
    with pytest.raises(OSError) as opened:  # the message of a plain open for writing
        open(path, "w")
    code, out, err = run_cli([*flags, str(path)], capsys)
    assert code == 1
    assert (out, err) == ("", f"polyurn: error: cannot write {path}: {opened.value}\n")


def test_rewrite_keeps_the_inode_mode_and_hard_links(tmp_path, capsys):
    out_path, link = tmp_path / "analysis.json", tmp_path / "link.json"
    assert run_cli(["analyze", *LONG_ANALYSIS, "--out", str(out_path)], capsys)[0] == 0
    os.link(out_path, link)
    out_path.chmod(0o640)
    before = out_path.stat()
    assert run_cli(["analyze", *SHORT_ANALYSIS, "--out", str(out_path)], capsys)[0] == 0
    after = out_path.stat()
    assert (after.st_ino, after.st_mode, after.st_nlink) == (
        before.st_ino, before.st_mode, before.st_nlink)
    expected = run_cli(["analyze", *SHORT_ANALYSIS], capsys)[1].encode()
    assert link.read_bytes() == out_path.read_bytes() == expected


def test_output_files_are_never_opened_with_truncation(monkeypatch, tmp_path, capsys):
    flags_seen = []
    real_open = os.open

    def recording_open(path, flags, *args, **kwargs):
        flags_seen.append(flags)
        return real_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", recording_open)
    finals, traj = tmp_path / "finals.csv", tmp_path / "traj.csv"
    for _ in range(2):  # create, then rewrite
        assert run_cli(["analyze", *SHORT_ANALYSIS, "--out", str(tmp_path / "a.json")],
                       capsys)[0] == 0
        assert run_cli(_simulate_args(2, finals, traj), capsys)[0] == 0
    assert len(flags_seen) == 6
    assert all(flags & os.O_CREAT and not flags & os.O_TRUNC for flags in flags_seen)


def test_short_writes_still_write_every_byte(monkeypatch, tmp_path, capsys):
    # A write call may take fewer bytes than it is given; the writer goes on
    # from where the kernel stopped.
    analysis, finals, traj = tmp_path / "a.json", tmp_path / "finals.csv", tmp_path / "traj.csv"
    sim = ["simulate", "--one-draw", "1,0,0,1", "--steps", "50", "--replicates", "5",
           "--seed", "3", "--trajectory-stride", "10"]
    expected_analysis = run_cli(["analyze", *LONG_ANALYSIS], capsys)[1]
    expected_finals = run_cli([*sim, "--format", "csv"], capsys)[1]
    config = SimConfig(model=urns.one_draw_model([1, 0, 0, 1]), steps=50, replicates=5,
                       base_seed=3, record_trajectory=True, trajectory_stride=10)
    expected_traj = "\n".join(montecarlo.trajectory_csv_lines(run_replicates(config))) + "\n"

    real_write, sizes = os.write, []

    def short_write(fd, data):
        sizes.append(len(data))
        return real_write(fd, data[:7])

    monkeypatch.setattr(os, "write", short_write)
    assert run_cli(["analyze", *LONG_ANALYSIS, "--out", str(analysis)], capsys)[0] == 0
    assert run_cli([*sim, "--out", str(finals), "--trajectory-out", str(traj)], capsys)[0] == 0
    assert analysis.read_text() == expected_analysis
    assert finals.read_text() == expected_finals
    assert traj.read_text() == expected_traj
    texts = expected_analysis, expected_finals, expected_traj
    assert len(sizes) == sum(-(-len(text) // 7) for text in texts)  # 7 bytes a call


def _opens_to_write(call):
    """Whether ``call`` opens a file for writing, or may: ``open(path, mode)`` with
    a mode that is not a read-only literal, ``os.open``/``os.fdopen`` with flags
    or a mode, or ``Path.write_text``/``write_bytes``."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    if name in ("write_text", "write_bytes"):
        return True
    if name not in ("open", "fdopen"):
        return False
    mode = call.args[1] if len(call.args) > 1 else next(
        (kw.value for kw in call.keywords if kw.arg == "mode"), None)
    if mode is None:
        return False
    read_only = isinstance(mode, ast.Constant) and isinstance(mode.value, str) and not (
        set(mode.value) & set("wax+"))
    return not read_only


def _writers(node, function=None):
    """``(line, enclosing function)`` of each call under ``node`` that opens to write."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        function = node.name
    if isinstance(node, ast.Call) and _opens_to_write(node):
        yield node.lineno, function
    for child in ast.iter_child_nodes(node):
        yield from _writers(child, function)


def test_the_in_place_writer_is_the_only_file_writer():
    writers = {}
    for path in sorted((REPO_ROOT / "src" / "polyurn").glob("*.py")):
        calls = list(_writers(ast.parse(path.read_text(), str(path))))
        if calls:
            writers[path.name] = calls
    assert set(writers) == {"cli.py"}, writers
    assert {function for _, function in writers["cli.py"]} == {"_write_text"}, writers


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

EXPECTED_SUITES = {
    "boundary-drift-signs",
    "pair-bias-numerator-columns",
    "pair-variance-decomposition",
    "single-draw-bias-oracle",
    "pair-bias-oracle",
    "inactive-row-reductions",
}


def test_selftest_passes_and_lists_every_suite(capsys):
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == 0
    lines = [line for line in out.splitlines() if line.startswith("suite ")]
    assert len(lines) == len(EXPECTED_SUITES)
    assert all(": PASS (" in line for line in lines)
    names = {line.split()[1].rstrip(":") for line in lines}
    assert names == EXPECTED_SUITES


def test_selftest_detects_a_broken_identity(monkeypatch, capsys):
    # Sabotage one closed form: the three bias-numerator columns must cancel,
    # so a constant 1 in the first column has to trip the suite.
    one = RatPoly((Fraction(1),))
    zero = RatPoly((Fraction(0),))
    monkeypatch.setattr(oracle, "cond_iv_polys", lambda m: (one, zero, zero))
    code, out, _ = run_cli(["selftest"], capsys)
    assert code == 2
    assert "suite pair-bias-numerator-columns: FAIL" in out
    assert "suite boundary-drift-signs: PASS" in out


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

#: Prints which of the modules that start child processes, the dataclass
#: machinery (with the ``inspect`` module it imports), the simulation engine
#: and the exact one-step reference are loaded after the import and each run.
_LOADED_AFTER = """
import contextlib, io, sys
import polyurn.cli as cli
unwanted = ("multiprocessing", "concurrent.futures.process", "dataclasses", "inspect",
            "polyurn.montecarlo", "polyurn.oracle")
seen = {{"import": [m for m in unwanted if m in sys.modules]}}
for name, argv in {runs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    seen[name] = [m for m in unwanted if m in sys.modules]
print(seen)
"""


def test_serial_commands_never_load_the_pool_or_dataclasses():
    runs = [
        ("analyze", ["analyze", "--two-draw", "15,3,4,1,3,21", "--w0", "5", "--b0", "2"]),
        ("simulate", ["simulate", "--two-draw", "15,3,4,1,3,21", "--w0", "5", "--b0", "2",
                      "--steps", "50", "--replicates", "4", "--jobs", "1"]),
        ("verify", ["verify", "--one-draw", "1,0,0,1", "--steps", "50", "--replicates", "4"]),
        ("selftest", ["selftest"]),
    ]
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_AFTER.format(runs=runs)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    # Only the commands that simulate load the simulation engine, and only
    # selftest loads the reference (the lists grow, as nothing is unloaded).
    assert ast.literal_eval(proc.stdout) == {
        "import": [], "analyze": [],
        "simulate": ["polyurn.montecarlo"], "verify": ["polyurn.montecarlo"],
        "selftest": ["polyurn.montecarlo", "polyurn.oracle"]}


def test_parallel_simulate_prints_the_serial_bytes():
    outputs = []
    for jobs in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-m", "polyurn", "simulate", "--two-draw", "15,3,4,1,3,21",
             "--w0", "5", "--b0", "2", "--steps", "200", "--replicates", "6",
             "--format", "csv", "--jobs", jobs],
            capture_output=True, text=True, timeout=60,
        )
        assert (proc.returncode, proc.stderr) == (0, "")
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 7


def test_python_dash_m_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "polyurn", "--help"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert "polyurn" in proc.stdout


def test_console_script_entry_point(tmp_path):
    # Install the checkout into tmp_path, offline and outside the running
    # interpreter's environment, then run the script pip made from it.
    pytest.importorskip("pip")
    target = tmp_path / "site"
    pip_env = dict(os.environ, PIP_CONFIG_FILE=os.devnull)
    pip_env.pop("PYTHONPATH", None)
    proc = subprocess.run(
        [sys.executable, "-m", "pip", "install", "--no-index", "--no-deps",
         "--no-cache-dir", "--disable-pip-version-check", "--target", str(target),
         str(REPO_ROOT)],
        env=pip_env, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr

    dists = list(importlib.metadata.distributions(path=[str(target)]))
    assert [dist.metadata["Name"] for dist in dists] == ["polyurn"]
    assert dists[0].version == polyurn.__version__
    scripts = [ep for ep in dists[0].entry_points if ep.group == "console_scripts"]
    assert [(ep.name, ep.value) for ep in scripts] == [("polyurn", "polyurn.cli:main")]

    exe = shutil.which("polyurn", path=str(target / "bin"))
    assert exe is not None, "console script should be installed with the package"
    # Only the installed copy is importable: the inherited src path is replaced.
    proc = subprocess.run(
        [exe, "--help"], env=dict(os.environ, PYTHONPATH=str(target)),
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert "usage: polyurn" in proc.stdout
