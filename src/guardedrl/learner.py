"""Soft-Q ensemble learner with safety-consistent backup targets.

The learner itself is unconstrained: the actor optimizes the raw policy
against the pessimistic ensemble and never reads the safety predicate.
Safety enters only through the backup target, which (given a SafetySpec)
takes its next-state expectation under the safe-renormalized policy so
value estimates stay consistent with what execution-time projection
will actually allow. That next-state value is a function of the state
alone, so compute_targets builds it once per state and indexes it by
each row's next state.

Batch updates apply per-sample in deterministic batch order; repeated
keys fold sequentially. They run on a compact table: the distinct keys'
rows are gathered once, ordered by multiplicity, so fold round r
(occurrence r of each key) updates a prefix slice in place, and the rows
are scattered back once. A learner instance is single-owner mutable
state: one updater at a time, read-only queries freely between updates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .guardian import renormalize_policy_safe
from .mdp import SafetySpec
from .sampling import TransitionBatch


@dataclass
class LearnerConfig:
    alpha: float = 0.05
    tau: float = 0.01
    gamma: float = 0.95
    critic_lr: float = 0.1
    actor_lr: float = 0.1

    def __post_init__(self):
        if not 0.0 <= self.alpha < math.inf:
            raise ValueError("alpha must be finite and >= 0")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must lie in (0, 1]")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        # The critic step Q + lr * (y - Q) is a convex combination of value
        # and target only for lr in (0, 1]; the actor rate has the same range.
        if not (0.0 < self.critic_lr <= 1.0 and 0.0 < self.actor_lr <= 1.0):
            raise ValueError("learning rates must lie in (0, 1]")


def log_softmax(logits: np.ndarray) -> np.ndarray:
    """Row-wise log-softmax, numerically stable for any finite logits."""
    logits = np.asarray(logits, dtype=np.float64)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


class PolicyTable:
    """Explicit tabular policy: per-state logits inducing softmax distributions."""

    def __init__(self, logits: np.ndarray):
        logits = np.array(logits, dtype=np.float64)
        if logits.ndim != 2:
            raise ValueError(f"logits must be 2-D (S, A), got shape {logits.shape}")
        if not np.all(np.isfinite(logits)):
            raise ValueError("logits must be finite")
        self.logits = logits

    @classmethod
    def zeros(cls, num_states: int, num_actions: int) -> "PolicyTable":
        return cls(np.zeros((num_states, num_actions)))

    @property
    def num_states(self) -> int:
        return self.logits.shape[0]

    def probs(self, s: int) -> np.ndarray:
        return softmax(self.logits[s])

    def all_probs(self) -> np.ndarray:
        return softmax(self.logits)


class QEnsemble:
    """N independent Q tables with paired target tables, N >= 2."""

    def __init__(self, members: np.ndarray, targets: np.ndarray):
        members = np.array(members, dtype=np.float64)
        targets = np.array(targets, dtype=np.float64)
        if members.ndim != 3 or members.shape[0] < 2:
            raise ValueError(f"members must have shape (N >= 2, S, A), got {members.shape}")
        if targets.shape != members.shape:
            raise ValueError("targets must match member dimensions")
        self.members = members
        self.targets = targets

    @classmethod
    def init_random(
        cls,
        num_states: int,
        num_actions: int,
        size: int = 2,
        *,
        rng: np.random.Generator,
        init_scale: float = 0.1,
    ) -> "QEnsemble":
        """Members drawn from rng with independent uniform noise in [-init_scale, init_scale].

        rng is required: a seeded generator gives the same members on every
        run. The noise makes ensemble variance informative from step 0;
        targets start as exact copies.
        """
        members = rng.uniform(-init_scale, init_scale, size=(size, num_states, num_actions))
        return cls(members=members, targets=members.copy())

    @property
    def num_states(self) -> int:
        return self.members.shape[1]

    @property
    def num_actions(self) -> int:
        return self.members.shape[2]

    def min_members(self) -> np.ndarray:
        return self.members.min(axis=0)

    def min_targets(self) -> np.ndarray:
        return self.targets.min(axis=0)


def compute_targets(
    batch: TransitionBatch,
    pol: PolicyTable,
    ens: QEnsemble,
    spec: SafetySpec | None,
    cfg: LearnerConfig,
) -> tuple[np.ndarray, int]:
    """Backup targets for a whole batch, plus the starvation-fallback count.

    y = r + gamma * V(s'), with the next-state value
    V(s) = E_{a ~ pi'(.|s)}[Qmin_target(s, a)] + alpha * H(pi'(.|s))
    where pi' is the policy renormalized onto spec's safe set, or the raw
    softmax policy when spec is None (unguarded backup). V and the
    starved mask are built once per state, as (S,) tables, and indexed by
    s'; each state's row is computed exactly as a row of s' would be, so
    the targets do not depend on the batch size. Terminal transitions get
    y = r and never count as starved. The entropy bonus is the soft-value
    backup of the actor's objective E[Qmin] + alpha * H.
    """
    if not len(batch):
        raise ValueError("batch must be non-empty")
    r, s_next, done = batch.r, batch.s_next, batch.done
    probs = pol.all_probs()
    starved_count = 0
    if spec is not None:
        probs, starved = renormalize_policy_safe(probs, spec.safe)
        starved_count = int(np.count_nonzero(starved[s_next] & ~done))
    # 0 * log 0 counts as 0: a zero probability takes the log of 1.
    entropy = -(probs * np.log(np.where(probs > 0.0, probs, 1.0))).sum(axis=1)
    expectation = np.einsum("ij,ij->i", probs, ens.min_targets())
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
    ens: QEnsemble,
    batch: TransitionBatch,
    targets: Sequence[float],
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
    bit. Returns nothing: the members are updated in place.
    """
    if not len(batch):
        raise ValueError("batch must be non-empty")
    if len(batch) != len(targets):
        raise ValueError("batch and targets must have equal length")
    s, a = batch.s, batch.a
    y = np.asarray(targets, dtype=np.float64)
    keys, active, positions = _fold_plan(s * ens.num_actions + a, ens.num_states * ens.num_actions)
    us, ua = np.divmod(keys, ens.num_actions)
    table = ens.members[:, us, ua]
    y_rounds = y[positions]
    start = 0
    for n in active:
        current = table[:, :n]
        current += cfg.critic_lr * (y_rounds[None, start:start + n] - current)
        start += n
    ens.members[:, us, ua] = table


def actor_loss(logits_row: np.ndarray, qmin_row: np.ndarray, alpha: float) -> float:
    """Analytic actor objective for one state.

    L(s) = sum_a pi(a) * (alpha * log pi(a) - Qmin(s, a)) with
    pi = softmax(logits). The expectation over the discrete action set
    is exact, no sampling.
    """
    logp = log_softmax(np.asarray(logits_row, dtype=np.float64))
    p = np.exp(logp)
    return float(np.sum(p * (alpha * logp - np.asarray(qmin_row, dtype=np.float64))))


def update_actor(
    pol: PolicyTable,
    states: Sequence[int],
    ens: QEnsemble,
    cfg: LearnerConfig,
) -> float:
    """One gradient-descent step on the analytic actor loss per state.

    The gradient w.r.t. the logits is pi * (f - L(s)) with
    f_a = alpha * log pi(a) - Qmin(s, a); repeated states fold
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
    distinct, active, positions = _fold_plan(states, pol.num_states)
    table = pol.logits[distinct]
    qmin = ens.min_members()[distinct]
    round_losses = []
    for n in active:
        logits = table[:n]
        logp = log_softmax(logits)
        p = np.exp(logp)
        f = cfg.alpha * logp - qmin[:n]
        row_loss = np.einsum("ij,ij->i", p, f)
        logits -= cfg.actor_lr * (p * (f - row_loss[:, None]))
        round_losses.append(row_loss)
    pol.logits[distinct] = table
    losses = np.empty(states.size)
    losses[positions] = np.concatenate(round_losses)
    return float(losses.mean())


def soft_update_targets(ens: QEnsemble, tau: float) -> None:
    """Polyak update in place: target <- tau * member + (1 - tau) * target.

    Implemented as target += tau * (member - target) so that targets
    already equal to the members stay bitwise unchanged (exact fixed
    point); tau = 1 copies exactly.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError("tau must lie in (0, 1]")
    if tau == 1.0:
        ens.targets[:] = ens.members
    else:
        ens.targets += tau * (ens.members - ens.targets)


def ensemble_variance(ens: QEnsemble, batch: TransitionBatch) -> float:
    """Mean over the batch of the population variance across member values.

    Tracks epistemic uncertainty at the sampled (s, a) pairs.
    """
    if not len(batch):
        raise ValueError("batch must be non-empty")
    values = ens.members[:, batch.s, batch.a]
    return float(values.var(axis=0, ddof=0).mean())
