"""Soft-Q ensemble learner with safety-consistent backup targets.

The learner itself is unconstrained: the actor optimizes the raw policy,
an (S, A) logits array that update_actor updates in place, against the
pessimistic ensemble and never reads the safety predicate. Safety enters
only through the backup target, which (given the (S, A) bool safe table)
takes its next-state expectation under the safe-renormalized policy so
value estimates stay consistent with what execution-time projection will
actually allow. compute_targets takes the policy's probability table
softmax(logits); the next-state value is a function of the state alone,
so it is built once per state and indexed by each row's next state.

Batch updates apply per-sample in deterministic batch order; repeated
keys fold sequentially. They run on a compact table: the distinct keys'
rows are gathered once, ordered by multiplicity, so fold round r
(occurrence r of each key) updates a prefix slice in place, and the rows
are scattered back once.

The ensemble is two (N, S, A) float arrays, N >= 2: members, the Q
tables, and targets, their Polyak copies. compute_targets reads the
targets' minimum; update_actor reads the members' minimum and
ensemble_variance the members. update_critics updates members in place
and soft_update_targets updates targets in place from members. A run
draws the members uniformly from [-INIT_NOISE, INIT_NOISE] and starts
the targets as a copy. The arrays are single-owner mutable state: one
updater at a time, read-only queries freely between updates.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .guardian import renormalize_policy_safe
from .mdp import check_range
from .sampling import TransitionBatch

INIT_NOISE = 0.1


@dataclass
class LearnerConfig:
    alpha: float = 0.05
    tau: float = 0.01
    gamma: float = 0.95
    critic_lr: float = 0.1
    actor_lr: float = 0.1

    def __post_init__(self):
        check_range("alpha", self.alpha, 0, np.inf, high_open=True)
        check_range("tau", self.tau, 0, 1, low_open=True)
        check_range("gamma", self.gamma, 0, 1, high_open=True)
        # The critic step Q + lr * (y - Q) is a convex combination of value
        # and target only for lr in (0, 1]; the actor rate has the same range.
        check_range("critic_lr", self.critic_lr, 0, 1, low_open=True)
        check_range("actor_lr", self.actor_lr, 0, 1, low_open=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax, numerically stable for any finite logits."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


def compute_targets(
    batch: TransitionBatch,
    probs: np.ndarray,
    targets: np.ndarray,
    safe: np.ndarray | None,
    cfg: LearnerConfig,
) -> tuple[np.ndarray, int]:
    """Backup targets for a whole batch, plus the starvation-fallback count.

    probs is the policy's (S, A) probability table; y = r + gamma * V(s') with
    V(s) = E_{a ~ pi'(.|s)}[Qmin_target(s, a)] + alpha * H(pi'(.|s)),
    Qmin_target = targets.min(axis=0) over the (N, S, A) target tables,
    where pi' is probs renormalized onto safe, the (S, A) bool safe table,
    or probs itself when safe is None (unguarded backup). V and the
    starved mask are built once per state, as (S,) tables, and indexed by
    s'; each state's row is computed exactly as a row of s' would be, so
    the targets do not depend on the batch size. Terminal transitions get
    y = r and never count as starved. The entropy bonus is the soft-value
    backup of the actor's objective E[Qmin] + alpha * H.
    """
    if not len(batch):
        raise ValueError("batch must be non-empty")
    r, s_next, done = batch.r, batch.s_next, batch.done
    starved_count = 0
    if safe is not None:
        probs, starved = renormalize_policy_safe(probs, safe)
        starved_count = int(np.count_nonzero(starved[s_next] & ~done))
    # 0 * log 0 counts as 0: a zero probability takes the log of 1.
    entropy = -(probs * np.log(np.where(probs > 0.0, probs, 1.0))).sum(axis=1)
    expectation = np.einsum("ij,ij->i", probs, targets.min(axis=0))
    values = expectation + cfg.alpha * entropy
    y = r + cfg.gamma * values[s_next]
    y[done] = r[done]
    return y, starved_count


def _fold_plan(keys: np.ndarray, num_keys: int) -> tuple[np.ndarray, list[int], np.ndarray]:
    """(distinct, active, positions) folding repeated keys in [0, num_keys) in batch order.

    distinct: the keys by multiplicity (highest first, ties by key), so
    round r's keys are the prefix distinct[:active[r]]; positions: the
    batch position of occurrence r of each, rounds concatenated.
    """
    # The narrowest unsigned copy of the keys sorts alike, and a radix sort
    # takes keys of up to 16 bits.
    order = keys.astype(np.min_scalar_type(num_keys)).argsort(kind="stable")
    sorted_keys = keys[order]
    edges = np.flatnonzero(np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1], [True])))
    counts = edges[1:] - edges[:-1]
    starts = edges[(-counts).argsort(kind="stable")]
    active = len(starts) - np.bincount(counts).cumsum()[:-1]
    rank = np.arange(len(keys)) - (active.cumsum() - active).repeat(active)
    round_of = np.arange(len(active)).repeat(active)
    return sorted_keys[starts], active.tolist(), order[starts[rank] + round_of]


def update_critics(
    members: np.ndarray,
    batch: TransitionBatch,
    y: Sequence[float],
    cfg: LearnerConfig,
) -> None:
    """One tabular gradient step toward y per sample, per ensemble member.

    Each occurrence moves Q_i[s, a] by critic_lr * (y - Q_i[s, a]); the
    factor 2 of the squared-error gradient is absorbed into the rate.
    Repeated (s, a) pairs fold sequentially in batch order: the members'
    (N, U) values at the U distinct pairs are gathered once, round r
    updates the pairs with an r-th occurrence (a prefix slice) toward its
    target, and the values are scattered back once. Distinct entries do
    not interact, so this equals one-sample steps in batch order bit for
    bit. Returns nothing: members is updated in place.
    """
    if not len(batch):
        raise ValueError("batch must be non-empty")
    if len(batch) != len(y):
        raise ValueError("batch and targets must have equal length")
    _, num_states, num_actions = members.shape
    keys, active, positions = _fold_plan(batch.s * num_actions + batch.a, num_states * num_actions)
    us, ua = np.divmod(keys, num_actions)
    table = members[:, us, ua]
    y_rounds = np.asarray(y, dtype=np.float64)[positions]
    start = 0
    for n in active:
        current = table[:, :n]
        current += cfg.critic_lr * (y_rounds[None, start:start + n] - current)
        start += n
    members[:, us, ua] = table


def update_actor(
    logits: np.ndarray,
    states: Sequence[int],
    members: np.ndarray,
    cfg: LearnerConfig,
) -> float:
    """One gradient-descent step on the analytic actor loss per state.

    logits is the policy's (S, A) logits array, updated in place.
    L(s) = sum_a pi(a) * f_a, exact over the discrete action set, with
    pi = softmax(logits), f_a = alpha * log pi(a) - Qmin(s, a) and
    Qmin = members.min(axis=0) over the (N, S, A) member tables. Its
    gradient w.r.t. the logits is pi * (f - L(s)); repeated states fold
    sequentially in batch order, in rounds over a compact (U, A) copy of
    the distinct states' logits (see update_critics), bit for bit equal
    to one-sample steps. Returns the mean pre-update loss, summed in
    batch order.
    The raw (unconstrained) policy is optimized: no safety predicate
    enters here by design.
    """
    states = np.asarray(states, dtype=np.int64)
    if states.size == 0:
        raise ValueError("states must be non-empty")
    distinct, active, positions = _fold_plan(states, logits.shape[0])
    table = logits[distinct]
    qmin = members.min(axis=0)[distinct]
    round_losses = []
    for n in active:
        rows = table[:n]
        logp = log_softmax(rows)
        p = np.exp(logp)
        f = cfg.alpha * logp - qmin[:n]
        row_loss = np.einsum("ij,ij->i", p, f)
        rows -= cfg.actor_lr * (p * (f - row_loss[:, None]))
        round_losses.append(row_loss)
    logits[distinct] = table
    losses = np.empty(states.size)
    losses[positions] = np.concatenate(round_losses)
    return float(losses.mean())


def soft_update_targets(members: np.ndarray, targets: np.ndarray, tau: float) -> None:
    """Polyak update of targets in place: target <- tau * member + (1 - tau) * target.

    Implemented as target += tau * (member - target) so that targets
    already equal to the members stay bitwise unchanged (exact fixed
    point); tau = 1 copies exactly.
    """
    check_range("tau", tau, 0, 1, low_open=True)
    if tau == 1.0:
        targets[:] = members
    else:
        targets += tau * (members - targets)


def ensemble_variance(members: np.ndarray, batch: TransitionBatch) -> float:
    """Mean over the batch of the population variance across member values.

    Tracks epistemic uncertainty at the sampled (s, a) pairs.
    """
    if not len(batch):
        raise ValueError("batch must be non-empty")
    values = members[:, batch.s, batch.a]
    return float(values.var(axis=0, ddof=0).mean())
