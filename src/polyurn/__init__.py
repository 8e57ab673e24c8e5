"""Exact analysis and reproducible simulation of two-color reinforcement urns.

The package has three layers:

- exact kernels: rational polynomial arithmetic with certified root isolation
  (:mod:`polyurn.ratpoly`), urn models with exact drift and noise closed
  forms (:mod:`polyurn.urns`), and equilibrium classification with exclusion
  criteria (:mod:`polyurn.stability`), plus the exact one-step reference they
  are checked against (:mod:`polyurn.oracle`, loaded only by ``selftest``);
- orchestration: whole-model analysis and limit prediction
  (:mod:`polyurn.analysis`);
- experiments: deterministic parallel simulation, clustering, and
  distribution tests that check predictions against sampled runs
  (:mod:`polyurn.montecarlo`), plus a command-line interface
  (:mod:`polyurn.cli`).

Only the names the demos and the README quick start use are exported here
(``__all__``); everything else is imported from its submodule. The
simulation names load :mod:`polyurn.montecarlo` on first use, so a process
that only analyzes never compiles it.
"""

from .analysis import analysis_to_dict, analyze_model, predict_limit
from .stability import classify_all
from .urns import (
    attainable_interval,
    degenerate_reduce,
    drift_for,
    one_draw_model,
    two_draw_model,
)

_MONTECARLO = ("SimConfig", "cluster_finals", "ks_beta", "run_replicates", "verify")

__all__ = [
    "analysis_to_dict", "analyze_model", "predict_limit", "classify_all",
    "attainable_interval", "degenerate_reduce", "drift_for", "one_draw_model",
    "two_draw_model", *_MONTECARLO,
]

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _MONTECARLO:
        from . import montecarlo

        return getattr(montecarlo, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
