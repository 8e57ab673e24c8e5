"""Golden digests of ``polyurn verify`` output, one case per branch of the judge.

Each case runs ``polyurn verify`` in process with ``--format json`` and
``--format text`` and hashes its exit status, stdout and stderr. The digests
in ``golden_verify.json`` pin every byte of the report: its fields and their
order, the reasons and their wording, and every float formatting.

Regenerate the file only for an intended change of the verify output:

    PYTHONPATH=src python tests/test_verify_golden.py --write
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import pytest

import polyurn.cli as cli

GOLDEN = Path(__file__).with_name("golden_verify.json")

#: A correct prediction for ``--two-draw 9,1,2,3,1,7`` (the unique limit 1/2),
#: which is wrong for the model it is checked against below.
WRONG_PREDICTION = {
    "kind": "point-mass-set", "beta_params": None, "theorem": None,
    "points": [{"point": "1/2", "interval": None, "approx": 0.5, "location": "interior",
                "multiplicity": 3, "classification": "stable",
                "verdict": "converges-a.s.-unique", "theorem": "theorem:main"}],
    "excluded": [], "notes": [],
}

SIZE = ["--steps", "2000", "--replicates", "40", "--seed", "1"]

CASES = {
    # Allowed points 1/4 and 3/4 and the excluded 1/2 force the radius to shrink.
    "radius-shrink": ["--two-draw", "15,3,4,1,3,21", "--w0", "5", "--b0", "2",
                      "--radius", "0.2", *SIZE],
    "wrong-prediction": ["--two-draw", "3,2,2,3,1,4", "--prediction", "{prediction}",
                         "--steps", "400", "--replicates", "30", "--seed", "7"],
    "beta-ks": ["--one-draw", "1,0,0,1", *SIZE],
    "beta-beyond-float-range": ["--one-draw", "1,0,0,1", "--w0", "1e-400", *SIZE],
    "no-atoms": ["--two-draw", "2,0,1,1,0,2", *SIZE],
    "unknown": ["--two-draw", "0,0,1,0,1,2", *SIZE],
    # The allowed point 1/2 + 1e-20 and the excluded point 1/2 share one float.
    "two-points-at-one-float": [
        "--two-draw", "349999999999999999999/50000000000000000000,"
        "149999999999999999997/50000000000000000000,1/2,0,"
        "50000000000000000001/50000000000000000000,"
        "300000000000000000003/50000000000000000000", "--w0", "5", "--b0", "2", *SIZE],
    # The continued fraction of the Beta(1e16, 1e16) distribution function does not converge.
    "beta-not-converging": ["--one-draw", "1,0,0,1", "--w0", "1e16", "--b0", "1e16", *SIZE],
}


def run_verify(case: str, fmt: str) -> tuple[int, str, str]:
    """Exit status, stdout and stderr of one case run in process."""
    with tempfile.TemporaryDirectory() as tmp:
        prediction = Path(tmp) / "prediction.json"
        prediction.write_text(json.dumps(WRONG_PREDICTION))
        args = [a.format(prediction=prediction) for a in CASES[case]]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["verify", *args, "--format", fmt])
    return code, out.getvalue(), err.getvalue()


def digest(case: str, fmt: str) -> dict:
    code, out, err = run_verify(case, fmt)
    return {"exit": code, "stdout": hashlib.sha256(out.encode()).hexdigest(), "stderr": err}


@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize("case", CASES)
def test_verify_output_matches_golden_digests(case, fmt):
    golden = json.loads(GOLDEN.read_text())
    assert digest(case, fmt) == golden[f"{case}/{fmt}"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_verify_golden.py --write")
    table = {f"{c}/{f}": digest(c, f) for c in CASES for f in ("json", "text")}
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {GOLDEN}")
