"""The benchmark's workloads and the correctness gate applied to every op.

An op is one training run (`run_training`) or one cross-checked exact
solve (`solve_guarded_value_iteration` plus `solve_pruned_value_iteration`).
Inputs reach guardedrl only through its documented paths: the offline
JSON Lines dataset, `RunConfig`, `run_training` and the `mdp` solvers.
Calls go through the `guardedrl` package attributes, so the tracer's
wrappers are seen when tracing is on.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

import guardedrl as gr

SOLVE_TOL = 1e-10
GAP_LIMIT = 1e-6
# Variants whose executed actions are projected: they must never violate.
PROJECTED_VARIANTS = ("guardian", "exec_mask_only")


def derive_seed(seed: int, stream: int) -> int:
    """Independent 32-bit seed for one input stream of one workload seed."""
    return int(np.random.SeedSequence([seed, stream]).generate_state(1)[0])


@dataclass
class OpOutcome:
    steps: int  # training steps, or guarded value-iteration sweeps
    digest: str  # hash of the op's complete output
    problems: list[str]
    quality: dict[str, float]


def non_finite_paths(value: Any, path: str = "") -> list[str]:
    """Locations of NaN or infinite numbers in a JSON-like value (None is allowed)."""
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in non_finite_paths(v, f"{path}.{k}")]
    if isinstance(value, (list, tuple)):
        return [p for i, v in enumerate(value) for p in non_finite_paths(v, f"{path}[{i}]")]
    if isinstance(value, (float, np.floating)) and not math.isfinite(value):
        return [path or "value"]
    return []


def check_training(variant: str, log: gr.RunLog) -> OpOutcome:
    """Gate one training run: finite numbers everywhere, no executed violation when projected."""
    problems = [f"non-finite {p}" for p in non_finite_paths({"records": log.records, "summary": log.summary})]
    violations = log.summary.get("executed_violations")
    if variant in PROJECTED_VARIANTS and violations != 0:
        problems.append(f"executed_violations={violations} under {variant}")
    text = log.to_jsonl() + json.dumps(log.summary, indent=2) + "\n"
    total = log.summary.get("total_steps", 0)
    tail = [rec["td_error"] for rec in log.records if rec["step"] > 0.75 * total]
    quality = {
        "final_eval_return": float(log.summary.get("final_eval_return", math.nan)),
        "td_error_tail": float(np.mean(tail)) if tail else math.nan,
    }
    return OpOutcome(
        steps=int(total),
        digest=hashlib.sha256(text.encode()).hexdigest(),
        problems=problems,
        quality=quality,
    )


@dataclass(frozen=True)
class TrainingWorkload:
    """Training runs on one hazard grid, with one offline dataset per workload seed."""

    name: str
    grid_rows: tuple[str, ...]
    variants: tuple[str, ...]
    total_steps: int
    batch_size: int
    delta_max: int
    eval_every: int
    eval_max_len: int
    offline_episodes: int
    offline_max_len: int
    traced_ops: int
    # Keep only the first this many JSONL lines, so the dataset's size (and
    # the process's memory) does not vary with the seed; None keeps all.
    offline_transitions: int | None = None

    @property
    def cycle(self) -> int:
        return len(self.variants)

    def grid(self) -> gr.GridWorldSpec:
        return gr.GridWorldSpec.from_ascii(
            list(self.grid_rows), gamma=0.95, step_reward=-0.02, goal_reward=1.0,
            hazard_reward=-1.0, slip_prob=0.2,
        )

    def setup(self, seed: int, scratch: Path) -> dict:
        """Build the MDP, collect the offline dataset and round-trip it through JSONL."""
        grid = self.grid()
        mdp, spec = gr.build_cliff_grid(grid)
        dataset = gr.collect_offline_dataset(
            mdp, spec, gr.uniform_safe_policy(spec), n_episodes=self.offline_episodes,
            max_ep_len=self.offline_max_len, seed=derive_seed(seed, 0),
            start_state=grid.start_state,
        )
        path = scratch / "offline.jsonl"
        dataset.save_jsonl(path)
        del dataset  # as in `guardedrl train`, only the reloaded copy stays resident
        if self.offline_transitions is not None:
            with open(path) as fh:
                lines = fh.readlines()[:self.offline_transitions]
            path.write_text("".join(lines))
        offline = gr.OfflineDataset.load_jsonl(path)
        return {"seed": seed, "grid": grid, "offline": offline, "path": path}

    def check_setup(self, state: dict) -> tuple[str, list[str]]:
        """Fingerprint of the dataset file; the reloaded dataset must write the same bytes."""
        original = state["path"].read_bytes()
        again = state["path"].with_suffix(".check.jsonl")
        state["offline"].save_jsonl(again)
        problems = [] if again.read_bytes() == original else ["offline JSONL round trip changed the data"]
        again.unlink()
        return hashlib.sha256(original).hexdigest(), problems

    def config(self, state: dict, index: int) -> gr.RunConfig:
        grid, total = state["grid"], self.total_steps
        return gr.RunConfig(
            variant=self.variants[index % self.cycle],
            grid=grid,
            learner=gr.LearnerConfig(alpha=0.02, tau=0.05, gamma=grid.gamma,
                                     critic_lr=0.3, actor_lr=0.2),
            dts=gr.DtsConfig(delta_min=1, delta_max=self.delta_max, beta=2.0, horizon=total),
            dss=gr.DssConfig(lambda_min=0.1, lambda_max=0.5, k=10.0 / total, horizon=total),
            total_steps=total,
            seed=derive_seed(state["seed"], index + 1),
            batch_size=self.batch_size,
            eval_every=self.eval_every,
            eval_episodes=5,
            eval_max_len=self.eval_max_len,
            ttfv_episodes=2,
            ttfv_max_steps=40,
            max_episode_len=60,
            online_buffer_capacity=5000,
        )

    def run_op(self, state: dict, index: int) -> tuple[str, gr.RunLog]:
        cfg = self.config(state, index)
        return cfg.variant, gr.run_training(cfg, state["offline"])

    def check(self, output: tuple[str, gr.RunLog]) -> OpOutcome:
        return check_training(*output)


# (num_states, num_actions, gamma) of one cycle of solve instances. Sizes are
# fixed so every workload seed does the same amount of work per cycle; the
# seed draws the tables, the safe fractions and the order.
SOLVE_CLASSES = (
    (50, 8, 0.99), (80, 2, 0.9), (110, 6, 0.99), (150, 4, 0.9),
    (190, 3, 0.99), (230, 7, 0.9), (260, 2, 0.99), (300, 5, 0.99),
)


@dataclass(frozen=True)
class SolveWorkload:
    """Cross-checked exact solves of seed-generated random safe MDPs."""

    name: str
    traced_ops: int = len(SOLVE_CLASSES)
    cycle: int = len(SOLVE_CLASSES)

    def setup(self, seed: int, scratch: Path) -> dict:
        rng = np.random.default_rng(derive_seed(seed, 0))
        fractions = rng.uniform(0.2, 1.0, size=len(SOLVE_CLASSES))
        instances = [
            gr.build_random_safe_mdp(
                num_states, num_actions, float(fraction), seed=derive_seed(seed, k + 1), gamma=gamma,
            )
            for k, ((num_states, num_actions, gamma), fraction) in enumerate(zip(SOLVE_CLASSES, fractions))
        ]
        # Built in a fixed order so peak memory does not depend on the seed.
        return {"instances": [instances[k] for k in rng.permutation(len(instances))]}

    def check_setup(self, state: dict) -> tuple[str, list[str]]:
        h = hashlib.sha256()
        for mdp, spec in state["instances"]:
            for table in (mdp.transition, mdp.reward, spec.safe):
                h.update(np.ascontiguousarray(table).tobytes())
        return h.hexdigest(), []

    def run_op(self, state: dict, index: int) -> tuple[gr.ValueIterationResult, np.ndarray]:
        mdp, spec = state["instances"][index % self.cycle]
        guarded = gr.solve_guarded_value_iteration(mdp, spec, tol=SOLVE_TOL)
        return guarded, gr.solve_pruned_value_iteration(mdp, spec, tol=SOLVE_TOL)

    def check(self, output: tuple[gr.ValueIterationResult, np.ndarray]) -> OpOutcome:
        return check_solve(*output)


def check_solve(guarded: gr.ValueIterationResult, pruned: np.ndarray) -> OpOutcome:
    """Gate one cross-checked solve: finite tables that agree within GAP_LIMIT."""
    problems = []
    if not (np.all(np.isfinite(guarded.q)) and np.all(np.isfinite(pruned))):
        problems.append("non-finite Q table")
    gap = gr.max_norm_distance(guarded.q, pruned)
    if not gap <= GAP_LIMIT:
        problems.append(f"solver gap {gap:.3g} > {GAP_LIMIT}")
    h = hashlib.sha256(np.ascontiguousarray(guarded.q).tobytes())
    h.update(np.ascontiguousarray(pruned).tobytes())
    h.update(str(guarded.iterations).encode())
    return OpOutcome(steps=guarded.iterations, digest=h.hexdigest(), problems=problems, quality={})


CLIFF5 = (".....", ".....", ".....", "S...G", "XXXXX")
WIDE12X8 = ("............",) * 6 + ("S..........G", "XXXXXXXXXXXX")

# Why each workload exists is recorded in BENCHMARK.json and perfbench/README.md.
WORKLOADS = {
    wl.name: wl
    for wl in (
        TrainingWorkload(
            name="cliff_ablation", grid_rows=CLIFF5, variants=PROJECTED_VARIANTS,
            total_steps=2000, batch_size=32, delta_max=8, eval_every=400, eval_max_len=60,
            offline_episodes=150, offline_max_len=60, traced_ops=4,
        ),
        TrainingWorkload(
            name="offline_wide", grid_rows=WIDE12X8, variants=("offline_only",),
            total_steps=600, batch_size=256, delta_max=32, eval_every=600, eval_max_len=100,
            offline_episodes=520, offline_max_len=300, traced_ops=2,
            offline_transitions=50_000,
        ),
        SolveWorkload(name="solve_oracle"),
    )
}
