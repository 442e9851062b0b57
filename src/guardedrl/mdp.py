"""Finite MDPs, safety predicates, and exact guarded solvers.

Dense numpy tables throughout: transitions are (S, A, S) probability
tensors, rewards and Q-functions are (S, A) float tables, safety
predicates are (S, A) boolean tables. Everything here is a pure function
of its inputs and doubles as the ground-truth oracle for the learning
code in the rest of the package.

The per-step primitives of a rollout (envs.env_step, guardian.project_action,
the trainer's near-miss count) read lookup tables that TabularMdp and
SafetySpec build lazily, once per instance, from their read-only arrays.
The exact solvers never touch them. The guarded solver is value
iteration: each sweep is one BLAS product R + gamma * P v on an (S*A, S)
view of P (no copy), then a safe max, and max_iters counts sweeps. The
pruned solver is policy iteration: each step solves the policy's (S, S)
system I - gamma * P_pi with LAPACK (np.linalg.solve, the only linear
solve here), then takes a masked row max of the same lookahead, and
max_iters counts improvement steps. Both stop once gamma times the
max-norm change of one backup is at most tol.
"""

from __future__ import annotations

import json
import numbers
from bisect import bisect_right
from dataclasses import dataclass, field
from functools import cached_property, reduce
from pathlib import Path
from typing import Sequence

import numpy as np

PROB_ATOL = 1e-9
# A safe action whose embedding lies closer than this (Euclidean) to an
# unsafe action's embedding at the same state is a near miss.
NEAR_MISS_MARGIN = 1.5


class ConvergenceError(RuntimeError):
    """An exact solver did not reach tol: its max_iters budget (sweeps or improvement steps) ran out.

    Policy iteration also raises it when tol is finer than its linear
    solve resolves, so no improvement step is left to take.
    """


def read_only(array, dtype) -> np.ndarray:
    """array as a read-only C-contiguous dtype ndarray owning its data: kept if it is one, else copied once."""
    owned = type(array) is np.ndarray and array.base is None and array.dtype == dtype
    if owned and array.flags.c_contiguous and not array.flags.writeable:
        return array
    array = np.array(array, dtype=dtype, order="C")
    array.flags.writeable = False
    return array


@dataclass(frozen=True)
class TabularMdp:
    """Finite MDP (S, A, P, R, gamma) with optional terminal flags.

    Invariants enforced at construction: each transition row is a
    probability distribution (sum 1 within 1e-9, entries >= 0), rewards
    are finite, and gamma < 1. r_max is max |R|.

    The arrays are held read-only (read_only), so the sampling tables
    (successor_cdfs, reward_rows, terminal_flags) built from them on first
    use and cached for the instance's lifetime cannot go stale.
    """

    transition: np.ndarray
    reward: np.ndarray
    gamma: float
    terminal: np.ndarray | None = None
    r_max: float = field(init=False)

    def __post_init__(self):
        transition = read_only(self.transition, np.float64)
        reward = read_only(self.reward, np.float64)
        if transition.ndim != 3 or transition.shape[0] != transition.shape[2]:
            raise ValueError(f"transition must have shape (S, A, S), got {transition.shape}")
        num_states, num_actions, _ = transition.shape
        if num_states < 1 or num_actions < 1:
            raise ValueError("MDP needs at least one state and one action")
        if reward.shape != (num_states, num_actions):
            raise ValueError(
                f"reward shape {reward.shape} does not match (S, A) = ({num_states}, {num_actions})"
            )
        if transition.min() < 0.0:
            raise ValueError("transition probabilities must be non-negative")
        row_sums = transition.sum(axis=2)
        if not np.allclose(row_sums, 1.0, rtol=0.0, atol=PROB_ATOL):
            worst = float(np.max(np.abs(row_sums - 1.0)))
            raise ValueError(f"transition rows must sum to 1 within {PROB_ATOL}; worst error {worst:.3g}")
        if not np.all(np.isfinite(reward)):
            raise ValueError("rewards must be finite")
        check_range("gamma", self.gamma, 0, 1, high_open=True)
        terminal = self.terminal
        if terminal is not None:
            terminal = read_only(terminal, bool)
            if terminal.shape != (num_states,):
                raise ValueError(f"terminal mask must have shape ({num_states},)")
        object.__setattr__(self, "transition", transition)
        object.__setattr__(self, "reward", reward)
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "r_max", float(np.max(np.abs(reward))))
        object.__setattr__(self, "terminal", terminal)

    @property
    def num_states(self) -> int:
        return self.transition.shape[0]

    @property
    def num_actions(self) -> int:
        return self.transition.shape[1]

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
        """[s] -> whether s is terminal."""
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

    The arrays are held read-only (read_only), so the projection and
    near-miss tables built from them on first use and cached for the
    instance's lifetime cannot go stale.
    """

    safe: np.ndarray
    action_embedding: np.ndarray

    def __post_init__(self):
        safe = read_only(self.safe, bool)
        emb = read_only(self.action_embedding, np.float64)
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
    """Solver output: Q table and sweep count."""

    q: np.ndarray
    iterations: int


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
    """Per-state max of Q over the safe action set: V(s) = max_{a in A_safe(s)} Q(s, a).

    Taken as A - 1 elementwise maxima of whole columns, which numpy runs
    several times faster than a max along rows of length A.
    """
    return reduce(np.maximum, np.where(spec.safe, q, -np.inf).T)


def one_step_lookahead(mdp: TabularMdp, v: np.ndarray) -> np.ndarray:
    """R(s, a) + gamma * sum_{s'} P(s'|s, a) * v(s') as an (S, A) table."""
    rows = mdp.transition.reshape(-1, mdp.num_states)
    return mdp.reward + mdp.gamma * (rows @ v).reshape(mdp.reward.shape)


def check_count(name: str, value, least: int) -> None:
    """Raise ValueError unless value is an integer (not a bool) >= least, naming it."""
    if type(value) is not int and not isinstance(value, np.integer):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise ValueError(f"{name} must be >= {least}, got {value!r}")


def check_range(name: str, value, low, high, *, low_open: bool = False, high_open: bool = False) -> None:
    """Raise ValueError, naming it, unless value is a real non-bool in [low, high] (strict at an open end); NaN fails."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    if not ((low < value if low_open else low <= value) and (value < high if high_open else value <= high)):
        interval = f"{'(' if low_open else '['}{low}, {high}{')' if high_open else ']'}"
        raise ValueError(f"{name} must lie in {interval}, got {value!r}")


def check_start_state(mdp: TabularMdp, start_state) -> None:
    """Raise ValueError unless start_state is a state of mdp: an integer in [0, S)."""
    check_count("start_state", start_state, 0)
    if start_state >= mdp.num_states:
        raise ValueError(f"start_state must be < {mdp.num_states}, got {start_state!r}")


def apply_guarded_bellman(q: np.ndarray, mdp: TabularMdp, spec: SafetySpec) -> np.ndarray:
    """One guarded optimality backup over the full (S, A) table.

    (T q)(s, a) = R(s, a) + gamma * sum_{s'} P(s'|s, a) * max_{a' safe at s'} q(s', a').
    Entries at unsafe (s, a) stay defined and updated; only the inner max
    is restricted. The input table is not modified.
    """
    check_compatible(mdp, spec)
    q = check_q_table(q, mdp)
    return one_step_lookahead(mdp, safe_state_values(q, spec))


def solve_guarded_value_iteration(
    mdp: TabularMdp, spec: SafetySpec, tol: float = 1e-8, max_iters: int = 100_000
) -> ValueIterationResult:
    """Iterate the guarded backup from Q = 0 to its unique fixed point.

    Stops once gamma * ||Q_{k+1} - Q_k||_inf <= tol, which by the
    contraction property guarantees the returned table satisfies
    ||T Q - Q||_inf <= tol, so its distance to the exact fixed point is
    at most tol / (1 - gamma). Deterministic given its inputs.
    """
    check_compatible(mdp, spec)
    check_range("tol", tol, 0, np.inf, low_open=True, high_open=True)
    check_count("max_iters", max_iters, 1)
    q = np.zeros((mdp.num_states, mdp.num_actions))
    for iteration in range(1, max_iters + 1):
        q_next = apply_guarded_bellman(q, mdp, spec)
        residual = float(np.max(np.abs(q_next - q)))
        q = q_next
        if mdp.gamma * residual <= tol:
            return ValueIterationResult(q=q, iterations=iteration)
    raise ConvergenceError(
        f"no convergence to tol={tol} within {max_iters} sweeps (last residual {residual:.3g})"
    )


def solve_pruned_value_iteration(
    mdp: TabularMdp, spec: SafetySpec, tol: float = 1e-8, max_iters: int = 100_000
) -> np.ndarray:
    """Independent solver route: Howard's policy iteration on the pruned MDP.

    Only safe actions are ever chosen. Starting from each state's first
    safe action, every step evaluates the policy exactly, solving the
    (S, S) system (I - gamma * P_pi) v = R_pi with LAPACK, then takes the
    safe one-step lookahead v_next(s) = max_{a safe} [R + gamma * P v](s, a).
    It returns the full Q table R + gamma * P v_next (unsafe entries are
    defined the way the guarded operator defines them) once
    gamma * ||v_next - v||_inf <= tol, so the table is within
    gamma * tol / (1 - gamma) of the guarded fixed point. Otherwise each
    state moves to its first safe maximiser, keeping its action while that
    action still attains the max, so ties cannot cycle.

    max_iters bounds the improvement steps. ConvergenceError is raised when
    they run out, or when a step changes no state's action: the next solve
    would repeat this one, so tol is below what the solve can resolve.
    Kept separate from the Q-space solver on purpose: the two routes
    cross-check each other.
    """
    check_compatible(mdp, spec)
    check_range("tol", tol, 0, np.inf, low_open=True, high_open=True)
    check_count("max_iters", max_iters, 1)
    states = np.arange(mdp.num_states)
    policy = spec.safe.argmax(axis=1)  # every state has a safe action
    for _ in range(max_iters):
        system = mdp.transition[states, policy]
        system *= -mdp.gamma
        system[states, states] += 1.0
        v = np.linalg.solve(system, mdp.reward[states, policy])
        q = np.where(spec.safe, one_step_lookahead(mdp, v), -np.inf)
        v_next = q.max(axis=1)
        residual = float(np.max(np.abs(v_next - v)))
        if mdp.gamma * residual <= tol:
            return one_step_lookahead(mdp, v_next)
        stays = q[states, policy] == v_next
        if stays.all():
            raise ConvergenceError(
                f"policy iteration cannot reach tol={tol}: no state's action improves (residual {residual:.3g})"
            )
        policy = np.where(stays, policy, q.argmax(axis=1))
    raise ConvergenceError(
        f"policy iteration did not reach tol={tol} in {max_iters} improvement steps (last residual {residual:.3g})"
    )


# --- JSON output -----------------------------------------------------------

def save_problem(path: str | Path, mdp: TabularMdp, spec: SafetySpec) -> None:
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
    Path(path).write_text(json.dumps(doc))

