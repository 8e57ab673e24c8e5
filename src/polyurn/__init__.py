"""Exact analysis and reproducible simulation of two-color reinforcement urns.

The package has three layers:

- exact kernels: rational polynomial arithmetic with certified root isolation
  (:mod:`polyurn.ratpoly`), urn models with exact step distributions, drift
  and noise closed forms (:mod:`polyurn.urns`), and equilibrium
  classification with exclusion criteria (:mod:`polyurn.stability`);
- orchestration: whole-model analysis and limit prediction
  (:mod:`polyurn.analysis`);
- experiments: deterministic parallel simulation, clustering, and
  distribution tests that check predictions against sampled runs
  (:mod:`polyurn.montecarlo`), plus a command-line interface
  (:mod:`polyurn.cli`).

Only the names the demos and the README quick start use are exported here;
everything else is imported from its submodule.
"""

from .analysis import analysis_to_dict, analyze_model, predict_limit
from .montecarlo import SimConfig, cluster_finals, ks_beta, run_replicates, verify
from .stability import classify_all
from .urns import (
    attainable_interval,
    degenerate_reduce,
    drift_for,
    one_draw_model,
    two_draw_model,
)

__version__ = "0.1.0"
