"""Desk-scale environments with explicit rule-based safety.

Hazard gridworlds (cliff-walk family) provide the main testbed: five
actions (UP, DOWN, LEFT, RIGHT, NOOP) with 2-D displacement embeddings,
optional perpendicular slip noise, and a safety predicate keyed to the
*intended* successor so the rule stays deterministic while slip keeps a
near-miss signal alive. Random safe MDPs back the randomized property
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .mdp import (
    SafetySpec,
    TabularMdp,
    categorical_draw,
    check_compatible,
    check_count,
    check_range,
    check_start_state,
)
from .sampling import OfflineDataset, column_buffers

UP, DOWN, LEFT, RIGHT, NOOP = range(5)
NUM_GRID_ACTIONS = 5
# Displacements double as the projection embeddings.
GRID_DISPLACEMENTS = np.array(
    [(0, 1), (0, -1), (-1, 0), (1, 0), (0, 0)], dtype=np.float64
)
_PERPENDICULAR = {UP: (LEFT, RIGHT), DOWN: (LEFT, RIGHT), LEFT: (UP, DOWN), RIGHT: (UP, DOWN)}
# Uniforms a rollout draws from its generator at a time (even: two per step).
_UNIFORM_BLOCK = 4096


def _cell(name: str, value) -> tuple[int, int]:
    """value as an (x, y) cell; anything but two integers raises ValueError."""
    try:
        x, y = value
    except (TypeError, ValueError):
        x = y = None
    if any(isinstance(v, bool) or not isinstance(v, Integral) for v in (x, y)):
        raise ValueError(f"{name} cell must be two integers [x, y], got {value!r}")
    return x, y


@dataclass(frozen=True)
class GridWorldSpec:
    """Rectangular hazard grid; cells are (x, y) with y increasing upward.

    width and height are integers >= 1 that give at least two cells.
    """

    width: int
    height: int
    start: tuple[int, int]
    goal: tuple[int, int]
    hazards: frozenset[tuple[int, int]] = frozenset()
    step_reward: float = -0.01
    goal_reward: float = 1.0
    hazard_reward: float = -1.0
    slip_prob: float = 0.0
    gamma: float = 0.95

    def __post_init__(self):
        check_count("width", self.width, 1)
        check_count("height", self.height, 1)
        if self.width * self.height < 2:
            raise ValueError("grid must contain at least two cells")
        object.__setattr__(self, "hazards", frozenset(_cell("hazard", c) for c in self.hazards))
        object.__setattr__(self, "start", _cell("start", self.start))
        object.__setattr__(self, "goal", _cell("goal", self.goal))
        for name, cell in (("start", self.start), ("goal", self.goal), *(("hazard", c) for c in self.hazards)):
            if not (0 <= cell[0] < self.width and 0 <= cell[1] < self.height):
                raise ValueError(f"{name} cell {cell} outside {self.width}x{self.height} grid")
        if self.start == self.goal:
            raise ValueError("start and goal must differ")
        if self.start in self.hazards or self.goal in self.hazards:
            raise ValueError("start and goal must not be hazard cells")
        check_range("slip_prob", self.slip_prob, 0, 1, high_open=True)
        check_range("gamma", self.gamma, 0, 1, high_open=True)

    @property
    def num_states(self) -> int:
        return self.width * self.height

    def state_index(self, cell: tuple[int, int]) -> int:
        return cell[1] * self.width + cell[0]

    def cell_of(self, s: int) -> tuple[int, int]:
        return s % self.width, s // self.width

    @property
    def start_state(self) -> int:
        return self.state_index(self.start)

    @property
    def goal_state(self) -> int:
        return self.state_index(self.goal)

    @property
    def hazard_states(self) -> frozenset[int]:
        return frozenset(self.state_index(c) for c in self.hazards)

    @classmethod
    def from_ascii(cls, rows: str | list[str], **numeric) -> "GridWorldSpec":
        """Build from a map block: S start, G goal, X hazard, . free.

        The first text row is the top of the grid (highest y), so UP in
        the action set moves toward earlier rows. Numeric fields pass
        through as keyword arguments.
        """
        if isinstance(rows, str):
            rows = [line for line in rows.splitlines() if line.strip()]
        if not all(isinstance(row, str) for row in rows):
            raise ValueError("ASCII map rows must be strings")
        rows = [row.strip() for row in rows]
        height = len(rows)
        if height == 0 or len({len(r) for r in rows}) != 1:
            raise ValueError("ASCII map must be a non-empty rectangle")
        width = len(rows[0])
        if sum(row.count("S") for row in rows) != 1 or sum(row.count("G") for row in rows) != 1:
            raise ValueError("map needs exactly one S and one G")
        hazards = set()
        for ri, row in enumerate(rows):
            y = height - 1 - ri
            for x, ch in enumerate(row):
                if ch == "S":
                    start = (x, y)
                elif ch == "G":
                    goal = (x, y)
                elif ch == "X":
                    hazards.add((x, y))
                elif ch != ".":
                    raise ValueError(f"unknown map character {ch!r}")
        return cls(width=width, height=height, start=start, goal=goal, hazards=frozenset(hazards), **numeric)


def _move(spec: GridWorldSpec, cell: tuple[int, int], action: int) -> tuple[int, int]:
    dx, dy = GRID_DISPLACEMENTS[action]
    nx, ny = cell[0] + int(dx), cell[1] + int(dy)
    if 0 <= nx < spec.width and 0 <= ny < spec.height:
        return nx, ny
    return cell


def build_cliff_grid(spec: GridWorldSpec) -> tuple[TabularMdp, SafetySpec]:
    """Construct the MDP and safety predicate for a hazard grid.

    Goal and hazard cells are absorbing terminal states (self-loop,
    reward 0, all actions safe: there is no move left to guard). At
    non-terminal states g(s, a) is false iff the intended (non-slip)
    successor of a is a hazard; with slip probability the move deviates
    to one of the two perpendicular directions. R(s, a) is the step
    reward plus the slip-expected entry bonus for the goal or a hazard.
    """
    n = spec.num_states
    transition = np.zeros((n, NUM_GRID_ACTIONS, n))
    reward = np.zeros((n, NUM_GRID_ACTIONS))
    safe = np.ones((n, NUM_GRID_ACTIONS), dtype=bool)
    terminal = np.zeros(n, dtype=bool)
    terminal[spec.goal_state] = True
    for h in spec.hazard_states:
        terminal[h] = True

    def entry_bonus(cell):
        if cell == spec.goal:
            return spec.goal_reward
        if cell in spec.hazards:
            return spec.hazard_reward
        return 0.0

    for s in range(n):
        cell = spec.cell_of(s)
        if terminal[s]:
            transition[s, :, s] = 1.0
            continue
        for a in range(NUM_GRID_ACTIONS):
            intended = _move(spec, cell, a)
            safe[s, a] = intended not in spec.hazards
            if a == NOOP or spec.slip_prob == 0.0:
                outcomes = [(intended, 1.0)]
            else:
                left, right = _PERPENDICULAR[a]
                outcomes = [
                    (intended, 1.0 - spec.slip_prob),
                    (_move(spec, cell, left), spec.slip_prob / 2.0),
                    (_move(spec, cell, right), spec.slip_prob / 2.0),
                ]
            expected_bonus = 0.0
            for target, prob in outcomes:
                transition[s, a, spec.state_index(target)] += prob
                expected_bonus += prob * entry_bonus(target)
            reward[s, a] = spec.step_reward + expected_bonus

    # Handed over read-only: the instances keep these arrays without a copy.
    transition.flags.writeable = reward.flags.writeable = safe.flags.writeable = terminal.flags.writeable = False
    mdp = TabularMdp(transition=transition, reward=reward, gamma=spec.gamma, terminal=terminal)
    safety = SafetySpec(safe=safe, action_embedding=GRID_DISPLACEMENTS)
    return mdp, safety


def build_random_safe_mdp(
    num_states: int,
    num_actions: int,
    safe_fraction: float,
    seed: int,
    gamma: float = 0.9,
) -> tuple[TabularMdp, SafetySpec]:
    """Random MDP + safety predicate for property tests, deterministic per seed.

    Dirichlet(1) transition rows, rewards uniform in [-1, 1], each
    (s, a) safe independently with the given probability and empty rows
    patched with one action; embeddings are one-hot per action.
    """
    check_count("num_states", num_states, 1)
    check_count("num_actions", num_actions, 1)
    check_range("safe_fraction", safe_fraction, 0, 1, low_open=True)
    check_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    transition = rng.exponential(1.0, size=(num_states, num_actions, num_states))
    transition /= transition.sum(axis=2, keepdims=True)
    reward = rng.uniform(-1.0, 1.0, size=(num_states, num_actions))
    safe = rng.random((num_states, num_actions)) < safe_fraction
    for s in np.flatnonzero(~safe.any(axis=1)):
        safe[s, int(rng.integers(num_actions))] = True
    transition.flags.writeable = reward.flags.writeable = safe.flags.writeable = False  # handed over
    mdp = TabularMdp(transition=transition, reward=reward, gamma=gamma)
    spec = SafetySpec(safe=safe, action_embedding=np.eye(num_actions))
    return mdp, spec


def env_step(
    mdp: TabularMdp, s: int, a: int, rng: np.random.Generator
) -> tuple[float, int, bool]:
    """Sample one transition: reward from the table, successor from P[s][a].

    Consumes exactly one rng.random() and inverts the successor CDF that
    mdp caches (mdp.successor_cdfs, built on the first step), so a step
    is a few list lookups and one bisection.
    """
    s_next = categorical_draw(mdp.successor_cdfs[s][a], rng.random())
    return mdp.reward_rows[s][a], s_next, mdp.terminal_flags[s_next]


def uniform_policy(num_states: int, num_actions: int) -> np.ndarray:
    return np.full((num_states, num_actions), 1.0 / num_actions)


def uniform_safe_policy(spec: SafetySpec) -> np.ndarray:
    """Uniform distribution over each state's safe action set."""
    mask = spec.safe.astype(np.float64)
    return mask / mask.sum(axis=1, keepdims=True)


def collect_offline_dataset(
    mdp: TabularMdp,
    spec: SafetySpec,
    behavior: np.ndarray,
    n_episodes: int,
    max_ep_len: int,
    seed: int,
    guardian_filter: bool = True,
    start_state: int = 0,
) -> OfflineDataset:
    """Roll out a behavior policy and package the transitions as a dataset.

    With guardian_filter on (the default) every proposal is projected
    before execution, so the dataset is rule-consistent; spec must then
    match mdp's shape. Each step draws the proposal, then the successor,
    from one generator. The uniforms are drawn from it in blocks and used
    in order, which is the stream of one rng.random() per use: a step
    reads the same tables as project_action and env_step, so the dataset
    equals a rollout through those calls. Deterministic given the seed.
    Transitions are written straight into column buffers. start_state
    must be a non-terminal state of mdp.
    """
    behavior = np.asarray(behavior, dtype=np.float64)
    if behavior.shape != (mdp.num_states, mdp.num_actions):
        raise ValueError("behavior must be an (S, A) distribution table")
    if not np.allclose(behavior.sum(axis=1), 1.0, atol=1e-9) or np.any(behavior < 0.0):
        raise ValueError("behavior rows must be probability distributions")
    check_count("n_episodes", n_episodes, 1)
    check_count("max_ep_len", max_ep_len, 1)
    check_count("seed", seed, 0)
    check_start_state(mdp, start_state)
    if mdp.terminal_flags[start_state]:
        raise ValueError("start_state must not be terminal")
    if guardian_filter:
        check_compatible(mdp, spec)
        executed = [[p.exec_action for p in row] for row in spec.projection_table]
    rng = np.random.default_rng(seed)
    cum_behavior = behavior.cumsum(axis=1).tolist()
    cdfs, rewards, terminal = mdp.successor_cdfs, mdp.reward_rows, mdp.terminal_flags
    buffers = column_buffers()
    s_col, a_col, r_col, s_next_col, done_col, t_col, ep_col = buffers
    uniforms, i = [], 0  # every step uses two; _UNIFORM_BLOCK is even
    for ep in range(n_episodes):
        s = start_state
        for t in range(max_ep_len):
            if i == len(uniforms):
                uniforms, i = rng.random(_UNIFORM_BLOCK).tolist(), 0
            a = categorical_draw(cum_behavior[s], uniforms[i])
            if guardian_filter:
                a = executed[s][a]
            s_next = categorical_draw(cdfs[s][a], uniforms[i + 1])
            i += 2
            done = terminal[s_next]
            s_col.append(s)
            a_col.append(a)
            r_col.append(rewards[s][a])
            s_next_col.append(s_next)
            done_col.append(done)
            t_col.append(t)
            ep_col.append(ep)
            s = s_next
            if done:
                break
    return OfflineDataset(buffers)
