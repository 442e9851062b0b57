"""Quantitative evaluation machinery: stability, safety, and exploration metrics.

All functions here are pure over immutable snapshots. The exploration
metrics (state coverage, visitation entropy) read a VisitationStats
accumulator; the distributional metrics (support KL, action novelty
rate) compare the final policy against the smoothed behavior-cloning
policy; the shadow metrics read the pre-projection proposals recorded
alongside executed actions. The novelty-rate and support-KL
formalizations (argmax-below-threshold, visit-weighted smoothed KL) are
this package's definitions; margin scanning is grounded in the exact
solver's fixed point as decision ground truth.
"""

from __future__ import annotations

import csv
import warnings
from pathlib import Path
from typing import Sequence

import numpy as np

from .guardian import project_action
from .learner import LearnerConfig, PolicyTable, QEnsemble, compute_targets
from .mdp import SafetySpec, TabularMdp, solve_guarded_value_iteration
from .sampling import TransitionBatch, TransitionRecord


class VisitationStats:
    """Per-state and per-(state, action) execution counts."""

    def __init__(self, num_states: int, num_actions: int):
        self.state_counts = np.zeros(num_states, dtype=np.int64)
        self.sa_counts = np.zeros((num_states, num_actions), dtype=np.int64)

    def record(self, s: int, a: int) -> None:
        self.state_counts[s] += 1
        self.sa_counts[s, a] += 1

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
    spec: SafetySpec,
    cfg: LearnerConfig,
) -> float:
    """Mean absolute TD error |Qmin(s, a) - y| over the batch.

    y is the backup target under the configured mode (guarded or not),
    so the number tracks how far the pessimistic estimate sits from its
    own bootstrap.
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


def shadow_rates(
    records: Sequence[TransitionRecord], spec: SafetySpec, margin: float = 1.5
) -> tuple[float, float]:
    """Pre-guard violation rate and near-miss rate over proposal-bearing records.

    A record is a pre-guard violation when its raw proposal was unsafe;
    a near miss when the proposal was safe but its embedding lies within
    the margin (Euclidean) of some unsafe action's embedding at that
    state. The categories are disjoint by construction.
    """
    proposals = [tr for tr in records if tr.a_prop is not None]
    if not proposals:
        raise ValueError("no records carry a pre-projection proposal")
    violations = 0
    near_misses = 0
    for tr in proposals:
        if not spec.safe[tr.s, tr.a_prop]:
            violations += 1
            continue
        unsafe = np.flatnonzero(~spec.safe[tr.s])
        if unsafe.size == 0:
            continue
        diffs = spec.action_embedding[unsafe] - spec.action_embedding[tr.a_prop]
        if float(np.sqrt(np.einsum("ij,ij->i", diffs, diffs).min())) < margin:
            near_misses += 1
    n = len(proposals)
    return violations / n, near_misses / n


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


def export_csv(records: Sequence[dict], path: str | Path) -> None:
    """Flatten per-interval log records into a CSV for external plotting."""
    records = list(records)
    if not records:
        raise ValueError("no records to export")
    fields: list[str] = []
    for rec in records:
        for key in rec:
            if key not in fields:
                fields.append(key)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields, restval="")
        writer.writeheader()
        for rec in records:
            writer.writerow({k: ("" if v is None else v) for k, v in rec.items()})
