"""Quantitative evaluation machinery: stability, safety, and exploration metrics.

All functions here are pure over immutable snapshots. The exploration
metrics (state coverage, visitation entropy) read a VisitationStats
accumulator; the distributional metrics (support KL, action novelty
rate) compare the final policy against the smoothed behavior-cloning
policy. The shadow metrics (pre-guard violation and near-miss rates) are
not computed here: the trainer counts each proposal against spec.safe and
SafetySpec.near_miss_table as it steps. The novelty-rate and support-KL
formalizations (argmax-below-threshold, visit-weighted smoothed KL) are
this package's definitions; margin scanning is grounded in the exact
solver's fixed point as decision ground truth.
"""

from __future__ import annotations

import warnings
from typing import Sequence

import numpy as np

from .guardian import project_action
from .learner import LearnerConfig, PolicyTable, QEnsemble, compute_targets
from .mdp import SafetySpec, TabularMdp, solve_guarded_value_iteration
from .sampling import TransitionBatch


class VisitationStats:
    """Per-state execution counts."""

    def __init__(self, num_states: int):
        self.state_counts = np.zeros(num_states, dtype=np.int64)

    def record(self, s: int) -> None:
        self.state_counts[s] += 1

    @property
    def total(self) -> int:
        return int(self.state_counts.sum())


def coverage_count(stats: VisitationStats) -> int:
    """Number of distinct states visited so far."""
    return int(np.count_nonzero(stats.state_counts))


def visitation_entropy(stats: VisitationStats) -> float:
    """Shannon entropy (nats) of the empirical state-visit distribution."""
    total = stats.total
    if total == 0:
        raise ValueError("no visits recorded; entropy undefined")
    p = stats.state_counts[stats.state_counts > 0] / total
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


def action_novelty_rate(
    final_probs: np.ndarray,
    bc_probs: np.ndarray,
    states: Sequence[int],
    eps: float = 0.05,
) -> float:
    """Fraction of states whose greedy final action the BC policy barely supports.

    A state counts as novel when pi_bc(argmax pi_final | s) < eps;
    argmax ties break toward the lowest action id. An empty state list
    is defined as 0 with a warning.
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    states = list(states)
    if not states:
        warnings.warn("action_novelty_rate over an empty state list; returning 0.0")
        return 0.0
    final_probs = np.asarray(final_probs, dtype=np.float64)
    bc_probs = np.asarray(bc_probs, dtype=np.float64)
    greedy = np.argmax(final_probs[states], axis=1)
    return float(np.mean(bc_probs[states, greedy] < eps))


def margin_scan(
    pol: PolicyTable,
    mdp: TabularMdp,
    spec: SafetySpec,
    guard_on: bool,
    q_star: np.ndarray | None = None,
    tol_q: float = 1e-6,
    solver_tol: float = 1e-9,
) -> float:
    """Decision accuracy at safety-boundary states against solver ground truth.

    Boundary states have at least one unsafe action. A state scores when
    the executed action (greedy policy, projection iff guard_on) is safe
    and its fixed-point value is within tol_q of the best safe value
    there, i.e. it is not reward-dominated.
    """
    boundary = np.flatnonzero((~spec.safe).any(axis=1))
    if boundary.size == 0:
        raise ValueError("no boundary states: every action is safe everywhere")
    if q_star is None:
        q_star = solve_guarded_value_iteration(mdp, spec, tol=solver_tol).q
    hits = 0
    for s in boundary:
        a = int(np.argmax(pol.probs(int(s))))
        if guard_on:
            a = project_action(int(s), a, spec).exec_action
        if not spec.safe[s, a]:
            continue
        best_safe = np.max(q_star[s][spec.safe[s]])
        if q_star[s, a] >= best_safe - tol_q:
            hits += 1
    return hits / boundary.size

