"""Decoupled safe reinforcement learning on tabular MDPs.

A reward-seeking soft-Q ensemble learner explores freely while a
projection guardian certifies every executed action and keeps Bellman
backups consistent with the safe action set; hybrid offline/online
replay follows temporal and mixing curricula. Exact guarded value
iteration provides the fixed-point ground truth for everything above.
"""

from .envs import (
    GridWorldSpec,
    build_cliff_grid,
    build_random_safe_mdp,
    collect_offline_dataset,
    env_step,
    uniform_policy,
    uniform_safe_policy,
)
from .guardian import ProjectionResult, project_action, renormalize_policy_safe
from .learner import (
    LearnerConfig,
    PolicyTable,
    QEnsemble,
    compute_targets,
    ensemble_variance,
    soft_update_targets,
    update_actor,
    update_critics,
)
from .mdp import (
    ConvergenceError,
    SafetySpec,
    TabularMdp,
    ValueIterationResult,
    apply_guarded_bellman,
    assert_contraction_pair,
    max_norm_distance,
    save_problem,
    solve_guarded_value_iteration,
    solve_pruned_value_iteration,
)
from .metrics import (
    action_novelty_rate,
    coverage_count,
    support_kl,
    td_error_stats,
    visitation_entropy,
)
from .sampling import (
    DssConfig,
    DtsConfig,
    HybridBatch,
    OfflineDataset,
    ReplayStore,
    TransitionBatch,
    TransitionRecord,
    derive_bc_policy,
    dss_mixing,
    dts_interval,
    sample_hybrid_batch,
)
from .trainer import (
    EvalResult,
    RunConfig,
    RunLog,
    TrainerState,
    evaluate_policy,
    measure_ttfv,
    run_training,
)

__version__ = "0.1.0"
