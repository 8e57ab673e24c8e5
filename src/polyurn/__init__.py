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
"""

from .analysis import (
    ModelAnalysis,
    analysis_to_dict,
    analyze_model,
    predict_limit,
    prediction_from_dict,
    prediction_to_dict,
    sa_conditions_for,
)
from .montecarlo import (
    ClusterCounts,
    KSResult,
    ReplicateResult,
    SimConfig,
    VerificationReport,
    cluster_finals,
    finals_csv_lines,
    ks_beta,
    regularized_incomplete_beta,
    replicate_rng,
    replicate_stream_seed,
    run_replicates,
    simulate,
    step,
    trajectory_csv_lines,
    verify,
)
from .ratpoly import (
    RatPoly,
    RootRecord,
    format_rational,
    parse_rational,
    poly_gcd,
    refine_root,
    roots_in_unit_interval,
    sign_at_root,
    squarefree_decomposition,
)
from .stability import (
    Equilibrium,
    EquilibriumClass,
    ExcludedPoint,
    LimitPrediction,
    PredictedPoint,
    PredictionKind,
    SAConditions,
    check_boundary_exclusion,
    check_noise_floor,
    classify_all,
)
from .urns import (
    AttainableInterval,
    DegenerateReduction,
    ExactMoments,
    ModelMeta,
    OneDrawMatrix,
    OneDrawNoise,
    StepOutcome,
    TwoDrawMatrix,
    TwoDrawNoise,
    UrnModel,
    UrnState,
    attainable_interval,
    bias_bound,
    black_count_diverges_at_one,
    cond_iv_closed_form_one,
    cond_iv_closed_form_two,
    cond_iv_polys,
    cond_iv_remainders,
    cond_moments_oracle,
    degenerate_case_id,
    degenerate_identity_gap,
    degenerate_map_back,
    degenerate_reduce,
    drift_for,
    drift_one,
    drift_one_degenerate,
    drift_two,
    error_for,
    error_one,
    error_two,
    load_model,
    mean_noise_residual_two,
    model_from_dict,
    model_meta,
    model_to_dict,
    one_draw_model,
    step_distribution,
    two_draw_model,
    white_count_diverges_at_zero,
)

__version__ = "0.1.0"
