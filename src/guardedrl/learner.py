"""Soft-Q ensemble learner with safety-consistent backup targets.

The learner itself is unconstrained: the actor optimizes the raw policy
against the pessimistic ensemble and never reads the safety predicate.
Safety enters only through the backup target, which (in guarded mode)
takes its next-state expectation under the safe-renormalized policy so
value estimates stay consistent with what execution-time projection
will actually allow.

Batch updates apply per-sample in deterministic batch order; repeated
(s, a) pairs fold sequentially. A learner instance is single-owner
mutable state: one updater at a time, read-only queries freely between
updates.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .guardian import STARVATION_EPS
from .mdp import SafetySpec
from .sampling import TransitionBatch, TransitionRecord

ENTROPY_BONUS = "bonus"  # backup adds +alpha * H (soft-value convention)
ENTROPY_PENALTY = "penalty"  # backup subtracts alpha * H
BACKUP_GUARDED = "guarded"
BACKUP_UNGUARDED = "unguarded"


@dataclass
class LearnerConfig:
    alpha: float = 0.05
    tau: float = 0.01
    gamma: float = 0.95
    critic_lr: float = 0.1
    actor_lr: float = 0.1
    entropy_sign: str = ENTROPY_BONUS
    backup_mode: str = BACKUP_GUARDED

    def __post_init__(self):
        if self.alpha < 0.0:
            raise ValueError("alpha must be >= 0")
        if not 0.0 < self.tau <= 1.0:
            raise ValueError("tau must lie in (0, 1]")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError("gamma must lie in [0, 1)")
        if self.critic_lr <= 0.0 or self.actor_lr <= 0.0:
            raise ValueError("learning rates must be positive")
        if self.entropy_sign not in (ENTROPY_BONUS, ENTROPY_PENALTY):
            raise ValueError(f"entropy_sign must be '{ENTROPY_BONUS}' or '{ENTROPY_PENALTY}'")
        if self.backup_mode not in (BACKUP_GUARDED, BACKUP_UNGUARDED):
            raise ValueError(f"backup_mode must be '{BACKUP_GUARDED}' or '{BACKUP_UNGUARDED}'")


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

    @property
    def num_actions(self) -> int:
        return self.logits.shape[1]

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
        rng: np.random.Generator | None = None,
        init_scale: float = 0.1,
    ) -> "QEnsemble":
        """Members drawn with independent uniform noise in [-init_scale, init_scale].

        The noise makes ensemble variance informative from step 0;
        targets start as exact copies.
        """
        rng = np.random.default_rng() if rng is None else rng
        members = rng.uniform(-init_scale, init_scale, size=(size, num_states, num_actions))
        return cls(members=members, targets=members.copy())

    @property
    def size(self) -> int:
        return self.members.shape[0]

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


def pessimistic_q(ens: QEnsemble, s: int, a: int, use_targets: bool = False) -> float:
    """Minimum over the ensemble at (s, a), from targets or members."""
    tables = ens.targets if use_targets else ens.members
    return float(tables[:, s, a].min())


def compute_targets(
    batch: TransitionBatch,
    pol: PolicyTable,
    ens: QEnsemble,
    spec: SafetySpec,
    cfg: LearnerConfig,
) -> tuple[np.ndarray, int]:
    """Backup targets for a whole batch, plus the starvation-fallback count.

    y = r + gamma * (E_{a' ~ pi'}[Qmin_target(s', a')] + sign * alpha * H(pi'))
    where pi' is the safe-renormalized next-state policy in guarded mode
    and the raw softmax policy in unguarded mode; terminal transitions
    get y = r. sign is +1 under entropy_sign "bonus", -1 under "penalty".
    """
    if not len(batch):
        raise ValueError("batch must be non-empty")
    r, s_next, done = batch.r, batch.s_next, batch.done
    logp = log_softmax(pol.logits[s_next])
    probs = np.exp(logp)
    starved_count = 0
    if cfg.backup_mode == BACKUP_GUARDED:
        mask = spec.safe[s_next]
        masked = np.where(mask, probs, 0.0)
        totals = masked.sum(axis=1)
        starved = totals < STARVATION_EPS
        starved_count = int(np.count_nonzero(starved & ~done))
        if starved.any():
            uniform = mask[starved].astype(np.float64)
            masked[starved] = uniform / uniform.sum(axis=1, keepdims=True)
            totals = masked.sum(axis=1)
        probs = masked / totals[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(probs > 0.0, probs * np.log(probs), 0.0)
    entropy = -plogp.sum(axis=1)
    sign = 1.0 if cfg.entropy_sign == ENTROPY_BONUS else -1.0
    q_next = ens.min_targets()[s_next]
    expectation = np.einsum("ij,ij->i", probs, q_next)
    y = r + cfg.gamma * (expectation + sign * cfg.alpha * entropy)
    y[done] = r[done]
    return y, starved_count


def compute_guarded_target(
    tr: TransitionRecord,
    pol: PolicyTable,
    ens: QEnsemble,
    spec: SafetySpec,
    cfg: LearnerConfig,
) -> float:
    """Backup target for a single transition (see compute_targets)."""
    y, _ = compute_targets(TransitionBatch.from_records([tr]), pol, ens, spec, cfg)
    return float(y[0])


def _occurrence_rounds(keys: np.ndarray) -> np.ndarray:
    """Occurrence index of each element within its equal-key group, in order."""
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    starts = np.flatnonzero(np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1])))
    group_start = np.repeat(starts, np.diff(np.concatenate((starts, [len(keys)]))))
    occ = np.empty(len(keys), dtype=np.int64)
    occ[order] = np.arange(len(keys)) - group_start
    return occ


def update_critics(
    ens: QEnsemble,
    batch: TransitionBatch,
    targets: Sequence[float],
    cfg: LearnerConfig,
) -> np.ndarray:
    """One tabular gradient step toward y per sample, per ensemble member.

    Each occurrence moves Q_i[s, a] by critic_lr * (y - Q_i[s, a]); the
    factor 2 of the squared-error gradient is absorbed into the rate.
    Repeated (s, a) pairs fold sequentially in batch order (implemented
    as rounds over unique pairs, which is exactly equivalent because
    distinct table entries do not interact). Returns the pre-update mean
    squared Bellman error per member.
    """
    if not len(batch):
        raise ValueError("batch must be non-empty")
    if len(batch) != len(targets):
        raise ValueError("batch and targets must have equal length")
    s, a = batch.s, batch.a
    y = np.asarray(targets, dtype=np.float64)
    values = ens.members[:, s, a]
    losses = ((values - y[None, :]) ** 2).mean(axis=1)
    occ = _occurrence_rounds(s * ens.num_actions + a)
    for rnd in range(int(occ.max()) + 1):
        sel = occ == rnd
        rs, ra, ry = s[sel], a[sel], y[sel]
        current = ens.members[:, rs, ra]
        ens.members[:, rs, ra] = current + cfg.critic_lr * (ry[None, :] - current)
    return losses


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
    sequentially in batch order. Returns the mean pre-update loss.
    The raw (unconstrained) policy is optimized: no safety predicate
    enters here by design.
    """
    states = np.asarray(states, dtype=np.int64)
    if states.size == 0:
        raise ValueError("states must be non-empty")
    qmin = ens.min_members()
    losses = np.empty(states.size)
    occ = _occurrence_rounds(states)
    for rnd in range(int(occ.max()) + 1):
        sel = occ == rnd
        u = states[sel]
        logp = log_softmax(pol.logits[u])
        p = np.exp(logp)
        f = cfg.alpha * logp - qmin[u]
        row_loss = np.einsum("ij,ij->i", p, f)
        grad = p * (f - row_loss[:, None])
        pol.logits[u] -= cfg.actor_lr * grad
        losses[sel] = row_loss
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


def save_checkpoint(
    path: str | Path, pol: PolicyTable, ens: QEnsemble, step: int, cfg: LearnerConfig
) -> None:
    """Write policy logits, all member/target tables, step, and config as JSON.

    JSON float serialization uses shortest round-trip repr, so reloading
    restores training state bit-for-bit at tabular scale.
    """
    doc = {
        "logits": pol.logits.tolist(),
        "members": ens.members.tolist(),
        "targets": ens.targets.tolist(),
        "step": int(step),
        "config": asdict(cfg),
    }
    Path(path).write_text(json.dumps(doc))


def load_checkpoint(path: str | Path) -> tuple[PolicyTable, QEnsemble, int, LearnerConfig]:
    doc = json.loads(Path(path).read_text())
    pol = PolicyTable(np.array(doc["logits"], dtype=np.float64))
    ens = QEnsemble(
        members=np.array(doc["members"], dtype=np.float64),
        targets=np.array(doc["targets"], dtype=np.float64),
    )
    return pol, ens, int(doc["step"]), LearnerConfig(**doc["config"])
