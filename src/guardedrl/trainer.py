"""End-to-end training orchestration with safety variants and probes.

One loop owns all mutable state. The policy is one (S, A) logits array
that update_actor updates in place; its probability table softmax(logits)
is computed once per update, and every reader of the policy takes that
table. Per step: the policy proposes a raw action, the projection
(variant-dependent) certifies it, the sanitized transition lands in the
replay store's online ring, and the learner takes hybrid batches under
the current curriculum schedules. The raw proposal is counted in every
interactive variant (shadow channel): per interval, how many proposals
were unsafe before the guard and how many were near misses
(SafetySpec.near_miss_table), so pre-guard metrics stay comparable at
zero behavioral cost. The proposal is not stored.

Variants:
  guardian        projected execution + guarded backup targets
  exec_mask_only  projected execution + raw-policy (unguarded) targets
  no_guard        raw execution + unguarded targets
  offline_only    no interaction at all; guarded targets on offline data

Two runs with identical config produce bit-identical logs. A run whose
log, summary or learner tables would hold a non-finite number fails
instead.
"""

from __future__ import annotations

import json
import math
import statistics
from dataclasses import dataclass, field
from functools import partial
from itertools import accumulate
from pathlib import Path
from typing import Iterable

import numpy as np

from .envs import GridWorldSpec, build_cliff_grid, env_step
from .guardian import project_action
from .learner import (
    INIT_NOISE,
    LearnerConfig,
    compute_targets,
    ensemble_variance,
    soft_update_targets,
    softmax,
    update_actor,
    update_critics,
)
from .mdp import SafetySpec, TabularMdp, categorical_draw, check_count, check_start_state
from .metrics import (
    coverage_count,
    support_kl,
    action_novelty_rate,
    td_error_stats,
    visitation_entropy,
)
from .sampling import (
    DssConfig,
    DtsConfig,
    OfflineDataset,
    ReplayStore,
    dss_mixing,
    dts_interval,
    sample_hybrid_batch,
    derive_bc_policy,
)

VARIANT_GUARDIAN = "guardian"
VARIANT_EXEC_MASK = "exec_mask_only"
VARIANT_NO_GUARD = "no_guard"
VARIANT_OFFLINE_ONLY = "offline_only"
VARIANTS = (VARIANT_GUARDIAN, VARIANT_EXEC_MASK, VARIANT_NO_GUARD, VARIANT_OFFLINE_ONLY)

# Projection applies at execution time in these variants (and at evaluation).
_PROJECTED_VARIANTS = (VARIANT_GUARDIAN, VARIANT_EXEC_MASK)
# Backup targets are guarded in these variants.
_GUARDED_BACKUP_VARIANTS = (VARIANT_GUARDIAN, VARIANT_OFFLINE_ONLY)


@dataclass
class RunConfig:
    """One training run. total_steps and seed are integers >= 0, ensemble_size >= 2, other counts >= 1."""

    variant: str
    grid: GridWorldSpec
    learner: LearnerConfig
    dts: DtsConfig
    dss: DssConfig
    total_steps: int
    seed: int
    ensemble_size: int = 2
    batch_size: int = 64
    updates_per_step: int = 1
    eval_every: int = 1000
    eval_episodes: int = 10
    eval_max_len: int = 100
    ttfv_episodes: int = 5
    ttfv_max_steps: int = 200
    max_episode_len: int = 200
    online_buffer_capacity: int = 10_000
    stochastic_eval: bool = False

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {', '.join(VARIANTS)}, got {self.variant!r}")
        check_count("total_steps", self.total_steps, 0)
        check_count("seed", self.seed, 0)
        check_count("ensemble_size", self.ensemble_size, 2)  # the pessimistic minimum needs two tables or more
        for name in ("batch_size", "updates_per_step", "eval_every", "eval_episodes", "eval_max_len",
                     "ttfv_episodes", "ttfv_max_steps", "max_episode_len", "online_buffer_capacity"):
            check_count(name, getattr(self, name), 1)
        if self.total_steps > 0 and not (
            self.dts.horizon == self.dss.horizon == self.total_steps
        ):
            raise ValueError("schedule horizons must equal total_steps")
        if self.learner.gamma != self.grid.gamma:  # the learner discounts as the solvers do
            raise ValueError("learner gamma must equal grid gamma")


@dataclass
class RunLog:
    """Append-only per-interval records plus the final summary."""

    records: list[dict] = field(default_factory=list)
    summary: dict = field(default_factory=dict)

    def append(self, record: dict) -> None:
        if self.records and record["step"] <= self.records[-1]["step"]:
            raise ValueError("record steps must be strictly increasing")
        self.records.append(record)

    def to_jsonl(self) -> str:
        return "".join(json.dumps(rec, allow_nan=False) + "\n" for rec in self.records)

    def save(self, directory: str | Path) -> tuple[Path, Path]:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        log_path = directory / "log.jsonl"
        summary_path = directory / "summary.json"
        log_path.write_text(self.to_jsonl())
        summary_path.write_text(json.dumps(self.summary, indent=2, allow_nan=False) + "\n")
        return log_path, summary_path

    @classmethod
    def load(cls, directory: str | Path) -> "RunLog":
        directory = Path(directory)
        records = [
            json.loads(line)
            for line in (directory / "log.jsonl").read_text().splitlines()
            if line.strip()
        ]
        summary = json.loads((directory / "summary.json").read_text())
        return cls(records=records, summary=summary)


@dataclass(frozen=True)
class EvalResult:
    mean_return: float
    violations: int
    returns: tuple[float, ...]
    state_visits: np.ndarray


def _sample_action(probs: np.ndarray, rng: np.random.Generator) -> int:
    return categorical_draw(list(accumulate(probs.tolist())), rng.random())


def evaluate_policy(
    probs: np.ndarray,
    mdp: TabularMdp,
    spec: SafetySpec,
    episodes: int,
    max_len: int,
    guard_on: bool,
    seed: int,
    start_state: int = 0,
    stochastic: bool = False,
) -> EvalResult:
    """Fixed-episode evaluation: undiscounted return, predicate violations.

    probs is the policy's (S, A) probability table. Action selection is
    greedy by probability (stochastic draw behind a flag) with projection
    applied iff guard_on; a step reads its state's row (the row's argmax,
    or a draw from the row). Deterministic per seed.
    episodes and max_len are integers >= 1; start_state is a state of mdp.
    """
    check_count("episodes", episodes, 1)
    check_count("max_len", max_len, 1)
    check_start_state(mdp, start_state)
    greedy = probs.argmax(axis=1).tolist()
    rng = np.random.default_rng(seed)
    returns: list[float] = []
    violations = 0
    visits = np.zeros(mdp.num_states, dtype=np.int64)
    for _ in range(episodes):
        s = start_state
        total = 0.0
        for _ in range(max_len):
            visits[s] += 1
            a = _sample_action(probs[s], rng) if stochastic else greedy[s]
            if guard_on:
                a = project_action(s, a, spec).exec_action
            if not spec.safe[s, a]:
                violations += 1
            r, s, done = env_step(mdp, s, a, rng)
            total += r
            if done:
                visits[s] += 1
                break
        returns.append(total)
    return EvalResult(
        mean_return=float(np.mean(returns)),
        violations=violations,
        returns=tuple(returns),
        state_visits=visits,
    )


def measure_ttfv(
    probs: np.ndarray,
    mdp: TabularMdp,
    spec: SafetySpec,
    episodes: int,
    max_steps: int,
    guard_on: bool,
    seed: int,
    start_state: int = 0,
    hazard_states: Iterable[int] = (),
) -> float:
    """Median steps to the first violation, censored at max_steps.

    A violation is an executed transition with g(s, a) false or entry
    into a hazard state. Episodes that end (or time out) without one
    count as max_steps. Actions are greedy by probability, read from
    probs, the policy's (S, A) probability table. episodes and max_steps
    are integers >= 1; start_state is a state of mdp.
    """
    check_count("episodes", episodes, 1)
    check_count("max_steps", max_steps, 1)
    check_start_state(mdp, start_state)
    greedy = probs.argmax(axis=1).tolist()
    hazard_states = frozenset(hazard_states)
    rng = np.random.default_rng(seed)
    firsts: list[int] = []
    for _ in range(episodes):
        s = start_state
        first = max_steps
        for step in range(1, max_steps + 1):
            a = greedy[s]
            if guard_on:
                a = project_action(s, a, spec).exec_action
            if not spec.safe[s, a]:
                first = step
                break
            _, s, done = env_step(mdp, s, a, rng)
            if s in hazard_states:
                first = step
                break
            if done:
                break
        firsts.append(first)
    return float(statistics.median(firsts))


def _check_finite(record: dict, where: str) -> None:
    """Raise ValueError naming the first key whose number is NaN or infinite."""
    for key, value in record.items():
        if isinstance(value, float) and not math.isfinite(value):
            raise ValueError(f"{where}: {key} is {value!r}; the run diverged")


@np.errstate(over="ignore", invalid="ignore")
def run_training(cfg: RunConfig, offline: OfflineDataset) -> RunLog:
    """Execute the full training loop for cfg.total_steps steps on the offline dataset.

    A dataset whose state or action ids fall outside the grid's MDP
    fails before any step runs (OfflineDataset refuses an empty one).
    Returns the per-interval log with a final summary (never writes files
    itself). A non-finite number in an interval record or the summary
    raises ValueError naming the step and the key; so does, at each
    interval, a non-finite entry anywhere in the policy's logits or the Q
    member and target tables. numpy's overflow and invalid-value warnings
    are silenced inside the run, so that check is its one report of a
    divergence.
    """
    mdp, spec = build_cliff_grid(cfg.grid)
    offline.check_index_ranges(mdp.num_states, mdp.num_actions)
    backup_safe = spec.safe if cfg.variant in _GUARDED_BACKUP_VARIANTS else None
    guard_exec = cfg.variant in _PROJECTED_VARIANTS
    interactive = cfg.variant != VARIANT_OFFLINE_ONLY

    seed_seq = np.random.SeedSequence(cfg.seed)
    rng_init, rng_env, rng_sample, rng_probe = (
        np.random.default_rng(child) for child in seed_seq.spawn(4)
    )
    members = rng_init.uniform(-INIT_NOISE, INIT_NOISE,
                               size=(cfg.ensemble_size, mdp.num_states, mdp.num_actions))
    targets = members.copy()
    logits = np.zeros((mdp.num_states, mdp.num_actions))
    probs = softmax(logits)
    store = ReplayStore(offline, cfg.online_buffer_capacity)
    visits = np.zeros(mdp.num_states, dtype=np.int64)
    log = RunLog()

    executed_violations = 0
    starvation_events = 0
    offline_fallbacks = 0
    last_actor_loss: float | None = None
    # Shadow channel of the current interval: proposals, unsafe ones, near misses.
    proposals = pre_guard_violations = near_misses = 0
    near_miss = spec.near_miss_table

    start = cfg.grid.start_state
    hazard_states = cfg.grid.hazard_states
    state = start
    t_ep = 0
    # Interval and final evaluations differ only in the policy table and the seed.
    evaluate = partial(evaluate_policy, mdp=mdp, spec=spec, episodes=cfg.eval_episodes,
                       max_len=cfg.eval_max_len, guard_on=guard_exec, start_state=start,
                       stochastic=cfg.stochastic_eval)

    def emit(step: int) -> None:
        nonlocal proposals, pre_guard_violations, near_misses
        lam = dss_mixing(step, cfg.dss) if cfg.total_steps > 0 else cfg.dss.lambda_min
        delta = dts_interval(step, cfg.dts)
        probe = sample_hybrid_batch(store, lam, delta, cfg.batch_size, rng_probe)
        td = td_error_stats(probe.transitions, members, targets, probs, backup_safe, cfg.learner)
        variance = ensemble_variance(members, probe.transitions)
        if proposals:
            pre_rate, near_rate = pre_guard_violations / proposals, near_misses / proposals
        else:
            pre_rate, near_rate = None, None
        eval_seed = cfg.seed * 1_000_003 + step
        evaluation = evaluate(probs, seed=eval_seed)
        ttfv = measure_ttfv(probs, mdp, spec, cfg.ttfv_episodes, cfg.ttfv_max_steps,
                            guard_on=guard_exec, seed=eval_seed + 1, start_state=start,
                            hazard_states=hazard_states)
        log.append(
            {
                "step": step,
                "lam": float(lam),
                "delta": int(delta),
                "td_error": float(td),
                "ensemble_variance": float(variance),
                "actor_loss": last_actor_loss,
                "executed_violations": executed_violations,
                "pre_guard_violation_rate": pre_rate,
                "near_miss_rate": near_rate,
                "eval_return": float(evaluation.mean_return),
                "eval_violations": evaluation.violations,
                "ttfv": float(ttfv),
                "coverage": coverage_count(visits),
                "visitation_entropy": visitation_entropy(visits),
                "starvation_events": starvation_events,
            }
        )
        _check_finite(log.records[-1], f"step {step}")
        for name, table in (("logits", logits), ("members", members), ("targets", targets)):
            if not np.isfinite(table).all():
                raise ValueError(f"step {step}: {name} holds a non-finite entry; the run diverged")
        proposals = pre_guard_violations = near_misses = 0

    emit(0)
    for step in range(1, cfg.total_steps + 1):
        if interactive:
            a_prop = _sample_action(probs[state], rng_env)
            proposals += 1
            if not spec.safe[state, a_prop]:
                pre_guard_violations += 1
            elif near_miss[state][a_prop]:
                near_misses += 1
            if guard_exec:
                a_exec = project_action(state, a_prop, spec).exec_action
            else:
                a_exec = a_prop
            if not spec.safe[state, a_exec]:
                executed_violations += 1
            r, s_next, done = env_step(mdp, state, a_exec, rng_env)
            visits[state] += 1
            t_ep += 1
            last = done or t_ep >= cfg.max_episode_len
            store.append(state, a_exec, r, s_next, done, last)
            if last:
                state, t_ep = start, 0
            else:
                state = s_next

        lam = dss_mixing(step, cfg.dss)
        delta = dts_interval(step, cfg.dts)
        for _ in range(cfg.updates_per_step):
            batch = sample_hybrid_batch(store, lam, delta, cfg.batch_size, rng_sample)
            offline_fallbacks += batch.fallback_count
            transitions = batch.transitions
            y, starved = compute_targets(transitions, probs, targets, backup_safe, cfg.learner)
            starvation_events += starved
            update_critics(members, transitions, y, cfg.learner)
            last_actor_loss = update_actor(logits, transitions.s, members, cfg.learner)
            probs = softmax(logits)
            soft_update_targets(members, targets, cfg.learner.tau)

        if step % cfg.eval_every == 0 or step == cfg.total_steps:
            emit(step)

    bc = derive_bc_policy(offline, mdp.num_states, mdp.num_actions)
    final_eval = evaluate(probs, seed=cfg.seed * 1_000_003 + cfg.total_steps + 1)
    last_record = log.records[-1]  # at total_steps, after the last visit
    log.summary = {
        "variant": cfg.variant,
        "seed": int(cfg.seed),
        "total_steps": int(cfg.total_steps),
        "executed_violations": executed_violations,
        "starvation_events": starvation_events,
        "offline_fallbacks": offline_fallbacks,
        "final_eval_return": float(final_eval.mean_return),
        "final_eval_violations": final_eval.violations,
        "final_td_error": last_record["td_error"],
        "final_ensemble_variance": last_record["ensemble_variance"],
        "final_ttfv": last_record["ttfv"],
        "coverage": last_record["coverage"],
        "visitation_entropy": last_record["visitation_entropy"],
        "support_kl": float(support_kl(probs, bc, final_eval.state_visits)),
        "action_novelty_rate": float(action_novelty_rate(probs, bc)),
    }
    _check_finite(log.summary, f"summary after step {cfg.total_steps}")
    return log
