"""Quantitative evaluation machinery: stability, safety, and exploration metrics.

All functions here are pure over immutable snapshots. The exploration
metrics (state coverage, visitation entropy) read the trainer's
per-state execution counts; the distributional metrics (support KL,
action novelty rate) compare the final policy against the smoothed
behavior-cloning policy. The shadow metrics (pre-guard violation and
near-miss rates) are not computed here: the trainer counts each proposal
against spec.safe and SafetySpec.near_miss_table as it steps. The
novelty-rate and support-KL formalizations (argmax-below-threshold,
visit-weighted smoothed KL) are this package's definitions.
"""

from __future__ import annotations

import numpy as np

from .learner import LearnerConfig, PolicyTable, QEnsemble, compute_targets
from .mdp import SafetySpec
from .sampling import TransitionBatch


def coverage_count(visits: np.ndarray) -> int:
    """Number of distinct states visited so far, from per-state visit counts."""
    return int(np.count_nonzero(visits))


def visitation_entropy(visits: np.ndarray) -> float | None:
    """Shannon entropy (nats) of the empirical state-visit distribution; None before any visit."""
    total = visits.sum()
    if total == 0:
        return None
    p = visits[visits > 0] / total
    return float(-np.sum(p * np.log(p)))


def td_error_stats(
    batch: TransitionBatch,
    ens: QEnsemble,
    pol: PolicyTable,
    spec: SafetySpec | None,
    cfg: LearnerConfig,
) -> float:
    """Mean absolute TD error |Qmin(s, a) - y| over the batch.

    y is compute_targets' backup target: guarded onto spec's safe set,
    or unguarded (raw softmax policy) when spec is None. The number
    tracks how far the pessimistic estimate sits from its own bootstrap.
    """
    if not len(batch):
        raise ValueError("batch must be non-empty")
    y, _ = compute_targets(batch, pol, ens, spec, cfg)
    return float(np.abs(ens.min_members()[batch.s, batch.a] - y).mean())


def support_kl(
    final_probs: np.ndarray, bc_probs: np.ndarray, state_weights: np.ndarray
) -> float:
    """Visit-weighted KL divergence of the final policy from the BC policy.

    sum_s w(s) * KL(pi_final(.|s) || pi_bc(.|s)), with w normalized.
    The BC policy must be strictly positive (the smoothing in
    derive_bc_policy guarantees that), which keeps the result finite.
    """
    final_probs = np.asarray(final_probs, dtype=np.float64)
    bc_probs = np.asarray(bc_probs, dtype=np.float64)
    weights = np.asarray(state_weights, dtype=np.float64)
    if final_probs.shape != bc_probs.shape or weights.shape != (final_probs.shape[0],):
        raise ValueError("shape mismatch between policies and state weights")
    if np.any(bc_probs <= 0.0):
        raise ValueError("BC policy must be strictly positive (use smoothing)")
    total = weights.sum()
    if total <= 0.0 or np.any(weights < 0.0):
        raise ValueError("state weights must be non-negative with positive sum")
    w = weights / total
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio_terms = np.where(
            final_probs > 0.0, final_probs * np.log(final_probs / bc_probs), 0.0
        )
    return float(np.sum(w * ratio_terms.sum(axis=1)))


def action_novelty_rate(final_probs: np.ndarray, bc_probs: np.ndarray, eps: float = 0.05) -> float:
    """Fraction of all states whose greedy final action the BC policy barely supports.

    A state counts as novel when pi_bc(argmax pi_final | s) < eps;
    argmax ties break toward the lowest action id.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    final_probs = np.asarray(final_probs, dtype=np.float64)
    bc_probs = np.asarray(bc_probs, dtype=np.float64)
    greedy = np.argmax(final_probs, axis=1)
    return float(np.mean(bc_probs[np.arange(len(greedy)), greedy] < eps))
