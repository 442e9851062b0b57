"""Execution-time safety enforcement, decoupled from learning.

Two pure operations: projecting a proposed action onto the state's safe
set (nearest safe action in embedding space) and renormalizing policy
distributions onto their safe sets, which the learner's guarded backup
targets use. Both are stateless and safe under any concurrency.
"""

from __future__ import annotations

import numpy as np

from .mdp import ProjectionResult, SafetySpec

# Below this much total probability on the safe set, renormalization is
# numerically starved and falls back to uniform-over-safe.
STARVATION_EPS = 1e-12


def project_action(s: int, a_raw: int, spec: SafetySpec) -> ProjectionResult:
    """Nearest safe action to a_raw in squared embedding distance.

    Ties break toward the lowest action id. Idempotent: projecting the
    executed action returns it unmodified (embeddings are pairwise
    distinct, so a safe action is its own unique minimizer). A lookup in
    spec.projection_table, which is built on the spec's first projection;
    the returned result is shared and immutable.
    """
    if not 0 <= a_raw < spec.num_actions:
        raise ValueError(f"action {a_raw} out of range [0, {spec.num_actions})")
    if not 0 <= s < spec.num_states:
        raise ValueError(f"state {s} out of range [0, {spec.num_states})")
    return spec.projection_table[s][a_raw]


def renormalize_policy_safe(
    probs: np.ndarray, safe: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Restrict each row's distribution to its safe set and renormalize.

    probs (distributions) and safe (masks) are (n, A) tables. Returns
    (safe_probs, starved): each safe action gets p(a) / sum_{safe a''} p(a''),
    unsafe actions get 0. A row whose safe mass is below STARVATION_EPS
    (the learner has concentrated on unsafe actions) falls back to
    uniform over its safe set and is flagged in the row mask starved.
    """
    masked = np.where(safe, probs, 0.0)
    totals = masked.sum(axis=1)
    starved = totals < STARVATION_EPS
    if starved.any():
        uniform = safe[starved].astype(np.float64)
        masked[starved] = uniform / uniform.sum(axis=1, keepdims=True)
        totals = masked.sum(axis=1)
    return masked / totals[:, None], starved
