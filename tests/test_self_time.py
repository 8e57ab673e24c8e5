"""``tools/self_time.py``, the sampled share of self time by module.

The script is loaded from its file, as it is run: ``python tools/self_time.py``.
"""

from __future__ import annotations

import importlib.util
import signal
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
SCRIPT = REPO_ROOT / "tools" / "self_time.py"


def _load():
    spec = importlib.util.spec_from_file_location("self_time", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


self_time = _load()


def test_prints_each_module_share_of_the_samples(capsys):
    handler = signal.getsignal(signal.SIGPROF)
    assert self_time.main(["--size", "tiny", "--seconds", "0.3", "--interval", "0.001"]) == 0
    assert signal.getsignal(signal.SIGPROF) == handler  # the sampler put everything back
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    *shares, total = capsys.readouterr().out.splitlines()
    samples, word = total.split()
    assert word == "samples" and int(samples) > 0
    rows = [line.split(maxsplit=1) for line in shares]
    percents = [float(share.rstrip("%")) for share, _ in rows]
    assert percents == sorted(percents, reverse=True)
    assert abs(sum(percents) - 100) < 0.01 * len(percents) + 0.01
    assert any(module.startswith("polyurn/") for _, module in rows)


def test_names_a_module_by_its_file():
    assert self_time._module("/usr/lib/python3.11/fractions.py") == "fractions.py"
    assert self_time._module("<frozen abc>") == "<frozen abc>"
    assert self_time._module("/src/polyurn/ratpoly.py") == "polyurn/ratpoly.py"
