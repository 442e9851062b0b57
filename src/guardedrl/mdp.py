"""Finite MDPs, safety predicates, and exact guarded solvers.

Dense numpy tables throughout: transitions are (S, A, S) probability
tensors, rewards and Q-functions are (S, A) float tables, safety
predicates are (S, A) boolean tables. Everything here is a pure function
of its inputs and doubles as the ground-truth oracle for the learning
code in the rest of the package.

The per-step primitives of a rollout (envs.env_step, guardian.project_action,
the trainer's near-miss count) read lookup tables that TabularMdp and
SafetySpec build lazily, once per instance, from their arrays. The exact
solvers never touch them.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Sequence

import numpy as np

PROB_ATOL = 1e-9
# A safe action whose embedding lies closer than this (Euclidean) to an
# unsafe action's embedding at the same state is a near miss.
NEAR_MISS_MARGIN = 1.5


class ConvergenceError(RuntimeError):
    """Value iteration failed to reach tolerance within the sweep budget."""

    def __init__(self, message: str, residual: float):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class TabularMdp:
    """Finite MDP (S, A, P, R, gamma) with optional terminal flags.

    Invariants enforced at construction: each transition row is a
    probability distribution (sum 1 within 1e-9, entries >= 0), rewards
    are finite with |R| <= r_max, and gamma < 1. r_max defaults to
    max|R| and is used only for invariant checks, never for clipping.

    The arrays must not be mutated in place after construction: the
    sampling tables (successor_cdfs, reward_rows, terminal_flags) are
    built from them on first use and cached for the instance's lifetime.
    """

    transition: np.ndarray
    reward: np.ndarray
    gamma: float
    r_max: float | None = None
    terminal: np.ndarray | None = None

    def __post_init__(self):
        transition = np.array(self.transition, dtype=np.float64)
        reward = np.array(self.reward, dtype=np.float64)
        if transition.ndim != 3 or transition.shape[0] != transition.shape[2]:
            raise ValueError(f"transition must have shape (S, A, S), got {transition.shape}")
        num_states, num_actions, _ = transition.shape
        if num_states < 1 or num_actions < 1:
            raise ValueError("MDP needs at least one state and one action")
        if reward.shape != (num_states, num_actions):
            raise ValueError(
                f"reward shape {reward.shape} does not match (S, A) = ({num_states}, {num_actions})"
            )
        if np.any(transition < 0.0):
            raise ValueError("transition probabilities must be non-negative")
        row_sums = transition.sum(axis=2)
        if not np.allclose(row_sums, 1.0, rtol=0.0, atol=PROB_ATOL):
            worst = float(np.max(np.abs(row_sums - 1.0)))
            raise ValueError(f"transition rows must sum to 1 within {PROB_ATOL}; worst error {worst:.3g}")
        if not np.all(np.isfinite(reward)):
            raise ValueError("rewards must be finite")
        r_max = self.r_max
        if r_max is None:
            r_max = float(np.max(np.abs(reward))) if reward.size else 0.0
        elif np.max(np.abs(reward)) > r_max:
            raise ValueError(f"|reward| exceeds stated bound r_max = {r_max}")
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError(f"gamma must lie in [0, 1), got {self.gamma}")
        terminal = self.terminal
        if terminal is not None:
            terminal = np.array(terminal, dtype=bool)
            if terminal.shape != (num_states,):
                raise ValueError(f"terminal mask must have shape ({num_states},)")
        object.__setattr__(self, "transition", transition)
        object.__setattr__(self, "reward", reward)
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "r_max", float(r_max))
        object.__setattr__(self, "terminal", terminal)

    @property
    def num_states(self) -> int:
        return self.transition.shape[0]

    @property
    def num_actions(self) -> int:
        return self.transition.shape[1]

    def is_terminal(self, s: int) -> bool:
        return bool(self.terminal[s]) if self.terminal is not None else False

    @cached_property
    def successor_cdfs(self) -> list[list[list[float]]]:
        """[s][a] -> cumulative successor distribution, np.cumsum(P[s, a]) as floats."""
        return np.cumsum(self.transition, axis=2).tolist()

    @cached_property
    def reward_rows(self) -> list[list[float]]:
        """[s][a] -> R(s, a) as a float."""
        return self.reward.tolist()

    @cached_property
    def terminal_flags(self) -> list[bool]:
        """[s] -> is_terminal(s)."""
        if self.terminal is None:
            return [False] * self.num_states
        return self.terminal.tolist()


@dataclass(frozen=True)
class ProjectionResult:
    """Outcome of projecting one proposed action.

    distance is the squared embedding distance between the raw and the
    executed action; was_modified false implies distance 0 and an
    unchanged action.
    """

    exec_action: int
    was_modified: bool
    distance: float


@dataclass(frozen=True)
class SafetySpec:
    """Deterministic safety predicate g(s, a) plus per-action embeddings.

    Construction rejects any state whose safe set is empty (the backup
    maximization must always be feasible) and embeddings that are
    non-finite or not pairwise distinct (the projection argmin must have
    a well-defined geometry).

    The arrays must not be mutated in place after construction: the
    projection and near-miss tables are built from them on first use and
    cached for the instance's lifetime.
    """

    safe: np.ndarray
    action_embedding: np.ndarray

    def __post_init__(self):
        safe = np.array(self.safe, dtype=bool)
        emb = np.array(self.action_embedding, dtype=np.float64)
        if safe.ndim != 2:
            raise ValueError(f"safe table must be 2-D (S, A), got shape {safe.shape}")
        if emb.ndim != 2 or emb.shape[0] != safe.shape[1]:
            raise ValueError(
                f"action_embedding must have shape (A, d) with A = {safe.shape[1]}, got {emb.shape}"
            )
        empty = ~safe.any(axis=1)
        if empty.any():
            bad = int(np.flatnonzero(empty)[0])
            raise ValueError(f"state {bad} has an empty safe action set")
        if not np.all(np.isfinite(emb)):
            raise ValueError("action embeddings must be finite")
        for a in range(emb.shape[0]):
            for b in range(a + 1, emb.shape[0]):
                if np.array_equal(emb[a], emb[b]):
                    raise ValueError(f"action embeddings {a} and {b} are identical")
        object.__setattr__(self, "safe", safe)
        object.__setattr__(self, "action_embedding", emb)

    @property
    def num_states(self) -> int:
        return self.safe.shape[0]

    @property
    def num_actions(self) -> int:
        return self.safe.shape[1]

    @cached_property
    def projection_table(self) -> list[list[ProjectionResult]]:
        """[s][a_raw] -> nearest safe action to a_raw in squared embedding distance.

        Ties break toward the lowest action id (argmin keeps the first
        minimum). A safe action is its own unique minimizer at distance 0,
        because embeddings are pairwise distinct.
        """
        emb = self.action_embedding
        diffs = emb[None, :, :] - emb[:, None, :]  # [a_raw, b] = emb[b] - emb[a_raw]
        sq_dists = np.einsum("rbd,rbd->rb", diffs, diffs)
        masked = np.where(self.safe[:, None, :], sq_dists[None, :, :], np.inf)
        best = masked.argmin(axis=2)
        distance = np.take_along_axis(masked, best[:, :, None], axis=2)[:, :, 0]
        return [
            [
                ProjectionResult(exec_action=b, was_modified=b != a_raw, distance=d)
                for a_raw, (b, d) in enumerate(zip(best_row, dist_row))
            ]
            for best_row, dist_row in zip(best.tolist(), distance.tolist())
        ]

    @cached_property
    def near_miss_table(self) -> list[list[bool]]:
        """[s][a] -> a is safe at s and within NEAR_MISS_MARGIN of an unsafe action there.

        The distance is Euclidean between embeddings; an unsafe action is
        never a near miss, so the two categories are disjoint.
        """
        emb = self.action_embedding
        diffs = emb[None, :, :] - emb[:, None, :]  # [a, b] = emb[b] - emb[a]
        close = np.sqrt(np.einsum("abd,abd->ab", diffs, diffs)) < NEAR_MISS_MARGIN
        near_unsafe = (close[None, :, :] & ~self.safe[:, None, :]).any(axis=2)
        return (self.safe & near_unsafe).tolist()


def categorical_draw(cdf: Sequence[float], u: float) -> int:
    """Inverse-CDF draw: the first index whose cumulative mass exceeds u.

    Equals np.searchsorted(cdf, u, side="right") clamped to the last
    index; the clamp catches a final cumulative sum that rounds below u.
    With u uniform in [0, 1) this samples the categorical distribution
    whose running sums are cdf.
    """
    return min(bisect_right(cdf, u), len(cdf) - 1)


@dataclass(frozen=True)
class ValueIterationResult:
    """Solver output: Q table, sweep count, and successive-iterate residuals."""

    q: np.ndarray
    iterations: int
    residuals: tuple[float, ...] = field(repr=False)


def check_compatible(mdp: TabularMdp, spec: SafetySpec) -> None:
    if (spec.num_states, spec.num_actions) != (mdp.num_states, mdp.num_actions):
        raise ValueError(
            f"safety spec shape ({spec.num_states}, {spec.num_actions}) does not match "
            f"MDP ({mdp.num_states}, {mdp.num_actions})"
        )


def check_q_table(q: np.ndarray, mdp: TabularMdp) -> np.ndarray:
    q = np.asarray(q, dtype=np.float64)
    if q.shape != (mdp.num_states, mdp.num_actions):
        raise ValueError(
            f"Q table shape {q.shape} does not match MDP ({mdp.num_states}, {mdp.num_actions})"
        )
    if not np.all(np.isfinite(q)):
        raise ValueError("Q table entries must be finite")
    return q


def max_norm_distance(q1: np.ndarray, q2: np.ndarray) -> float:
    """Max-norm distance max_{s,a} |q1 - q2|."""
    q1 = np.asarray(q1, dtype=np.float64)
    q2 = np.asarray(q2, dtype=np.float64)
    if q1.shape != q2.shape:
        raise ValueError(f"shape mismatch: {q1.shape} vs {q2.shape}")
    return float(np.max(np.abs(q1 - q2))) if q1.size else 0.0


def safe_state_values(q: np.ndarray, spec: SafetySpec) -> np.ndarray:
    """Per-state max of Q over the safe action set: V(s) = max_{a in A_safe(s)} Q(s, a)."""
    return np.max(np.where(spec.safe, q, -np.inf), axis=1)


def apply_guarded_bellman(q: np.ndarray, mdp: TabularMdp, spec: SafetySpec) -> np.ndarray:
    """One guarded optimality backup over the full (S, A) table.

    (T q)(s, a) = R(s, a) + gamma * sum_{s'} P(s'|s, a) * max_{a' safe at s'} q(s', a').
    Entries at unsafe (s, a) stay defined and updated; only the inner max
    is restricted. The input table is not modified.
    """
    check_compatible(mdp, spec)
    q = check_q_table(q, mdp)
    return mdp.reward + mdp.gamma * (mdp.transition @ safe_state_values(q, spec))


def assert_contraction_pair(
    mdp: TabularMdp, spec: SafetySpec, q1: np.ndarray, q2: np.ndarray
) -> tuple[float, float]:
    """Both sides of the contraction inequality for one (Q1, Q2) pair.

    Returns (lhs, rhs) = (||T q1 - T q2||_inf, gamma * ||q1 - q2||_inf);
    the caller asserts lhs <= rhs + 1e-9.
    """
    lhs = max_norm_distance(
        apply_guarded_bellman(q1, mdp, spec), apply_guarded_bellman(q2, mdp, spec)
    )
    rhs = mdp.gamma * max_norm_distance(q1, q2)
    return lhs, rhs


def solve_guarded_value_iteration(
    mdp: TabularMdp, spec: SafetySpec, tol: float = 1e-8, max_iters: int = 100_000
) -> ValueIterationResult:
    """Iterate the guarded backup from Q = 0 to its unique fixed point.

    Stops once gamma * ||Q_{k+1} - Q_k||_inf <= tol, which by the
    contraction property guarantees the returned table satisfies
    ||T Q - Q||_inf <= tol. The distance to the exact fixed point is
    bounded by r_k * gamma / (1 - gamma) for the last recorded residual.
    Deterministic given its inputs.
    """
    check_compatible(mdp, spec)
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    q = np.zeros((mdp.num_states, mdp.num_actions))
    residuals: list[float] = []
    for iteration in range(1, max_iters + 1):
        q_next = apply_guarded_bellman(q, mdp, spec)
        residual = max_norm_distance(q_next, q)
        residuals.append(residual)
        q = q_next
        if mdp.gamma * residual <= tol:
            return ValueIterationResult(q=q, iterations=iteration, residuals=tuple(residuals))
    raise ConvergenceError(
        f"no convergence to tol={tol} within {max_iters} sweeps (last residual {residuals[-1]:.3g})",
        residual=residuals[-1],
    )


def solve_pruned_value_iteration(
    mdp: TabularMdp, spec: SafetySpec, tol: float = 1e-8, max_iters: int = 100_000
) -> np.ndarray:
    """Independent solver route: standard value iteration on the pruned MDP.

    Deletes unsafe actions, iterates state values V(s) = max_{a safe}
    [R + gamma * P V], then reconstructs the full Q table by one-step
    lookahead (so unsafe entries are defined the same way the guarded
    operator defines them). Kept separate from the Q-space solver on
    purpose: the two routes cross-check each other.
    """
    check_compatible(mdp, spec)
    if tol <= 0.0:
        raise ValueError("tol must be positive")
    v = np.zeros(mdp.num_states)
    for _ in range(max_iters):
        backed_up = mdp.reward + mdp.gamma * (mdp.transition @ v)
        v_next = np.max(np.where(spec.safe, backed_up, -np.inf), axis=1)
        residual = float(np.max(np.abs(v_next - v)))
        v = v_next
        if mdp.gamma * residual <= tol:
            return mdp.reward + mdp.gamma * (mdp.transition @ v)
    raise ConvergenceError(
        f"pruned value iteration did not reach tol={tol} in {max_iters} sweeps", residual=residual
    )


# --- JSON output -----------------------------------------------------------

def problem_to_dict(mdp: TabularMdp, spec: SafetySpec) -> dict:
    check_compatible(mdp, spec)
    doc = {
        "num_states": mdp.num_states,
        "num_actions": mdp.num_actions,
        "gamma": mdp.gamma,
        "transition": mdp.transition.tolist(),
        "reward": mdp.reward.tolist(),
        "safe": spec.safe.tolist(),
        "action_embedding": spec.action_embedding.tolist(),
        "r_max": mdp.r_max,
    }
    if mdp.terminal is not None:
        doc["terminal"] = mdp.terminal.tolist()
    return doc


def save_problem(path: str | Path, mdp: TabularMdp, spec: SafetySpec) -> None:
    Path(path).write_text(json.dumps(problem_to_dict(mdp, spec)))

