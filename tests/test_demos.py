"""Golden digests of the demo scripts' output.

Each demo under ``demos/`` runs in its own interpreter with ``src`` on the
import path; the test asserts that it exits 0 and that the SHA-256 of its
stdout equals the digest in ``golden_demos.json``. The demos print exact
analyses and seeded simulations, so any change to their bytes is a change
of behaviour.

Regenerate the file only for an intended change of the demo output:

    PYTHONPATH=src python tests/test_demos.py --write
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).with_name("golden_demos.json")
DEMOS = sorted((REPO_ROOT / "demos").glob("*.py"))


def run_demo(path: Path) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, str(path)], capture_output=True, cwd=REPO_ROOT, env=env, check=False
    )


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def test_every_demo_has_a_digest():
    assert sorted(json.loads(GOLDEN.read_text())) == [path.name for path in DEMOS]


@pytest.mark.parametrize("path", DEMOS, ids=lambda path: path.name)
def test_demo_prints_its_golden_bytes(path):
    proc = run_demo(path)
    assert proc.returncode == 0, proc.stderr.decode()
    assert digest(proc.stdout) == json.loads(GOLDEN.read_text())[path.name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/test_demos.py --write")
    table = {}
    for path in DEMOS:
        proc = run_demo(path)
        if proc.returncode != 0:
            sys.exit(f"{path.name} exited {proc.returncode}:\n{proc.stderr.decode()}")
        table[path.name] = digest(proc.stdout)
    GOLDEN.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(table)} digests to {GOLDEN}")
