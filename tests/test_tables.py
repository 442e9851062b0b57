"""Cached rollout tables against plain reference computations.

TabularMdp caches per-(s, a) successor CDFs, rewards and terminal flags;
SafetySpec caches one projection and one near-miss flag per (s, a). The
per-step primitives (env_step, project_action, the trainer's near-miss
count) only read these tables, so each entry is checked here against the
computation it replaced.
"""

import math

import numpy as np
import pytest

from guardedrl.envs import GridWorldSpec, build_cliff_grid, build_random_safe_mdp, env_step
from guardedrl.guardian import project_action
from guardedrl.mdp import (
    NEAR_MISS_MARGIN,
    categorical_draw,
    solve_guarded_value_iteration,
    solve_pruned_value_iteration,
)

CLIFF5 = [".....", ".....", ".....", "S...G", "XXXXX"]
WIDE12X8 = ["............"] * 6 + ["S..........G", "XXXXXXXXXXXX"]


def cliff_problems():
    for rows in (CLIFF5, WIDE12X8):
        for slip in (0.0, 0.2):
            yield f"cliff{len(rows[0])}x{len(rows)}-slip{slip}", build_cliff_grid(
                GridWorldSpec.from_ascii(rows, slip_prob=slip, gamma=0.95)
            )


def random_problems():
    rng = np.random.default_rng(2024)
    for seed in range(24):
        num_states = int(rng.integers(1, 16))
        num_actions = int(rng.integers(1, 7))
        fraction = float(rng.uniform(0.05, 1.0))
        yield f"random{seed}-S{num_states}-A{num_actions}", build_random_safe_mdp(
            num_states, num_actions, fraction, seed=seed
        )


PROBLEMS = dict([*cliff_problems(), *random_problems()])


def brute_force_projection(spec, s, a_raw):
    """Nearest safe action by a linear scan in plain Python; first minimum wins."""
    emb = spec.action_embedding.tolist()
    best, best_distance = None, None
    for b in range(spec.num_actions):
        if not spec.safe[s, b]:
            continue
        distance = sum((x - y) ** 2 for x, y in zip(emb[b], emb[a_raw]))
        if best is None or distance < best_distance:
            best, best_distance = b, distance
    return best, best_distance


def probe_points(cdf):
    """u = 0, every breakpoint, the floats on either side of it, and values >= cdf[-1]."""
    points = {0.0, 1.0, float(np.nextafter(1.0, 0.0))}
    for value in np.unique(cdf).tolist():
        points.update((value, float(np.nextafter(value, -np.inf)), float(np.nextafter(value, np.inf))))
    return sorted(p for p in points if p >= 0.0)


class FixedUniform:
    """Stands in for a generator whose next uniform is known."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


@pytest.mark.parametrize("name", list(PROBLEMS))
def test_projection_table_matches_brute_force(name):
    _, spec = PROBLEMS[name]
    for s in range(spec.num_states):
        for a_raw in range(spec.num_actions):
            best, distance = brute_force_projection(spec, s, a_raw)
            result = project_action(s, a_raw, spec)
            assert result is spec.projection_table[s][a_raw]
            assert (result.exec_action, result.distance) == (best, distance)
            assert type(result.exec_action) is int and type(result.distance) is float
            assert result.was_modified == (best != a_raw)


@pytest.mark.parametrize("name", list(PROBLEMS))
def test_near_miss_table_matches_brute_force(name):
    _, spec = PROBLEMS[name]
    emb = spec.action_embedding.tolist()
    for s in range(spec.num_states):
        for a in range(spec.num_actions):
            closest = min((math.sqrt(sum((x - y) ** 2 for x, y in zip(emb[b], emb[a])))
                           for b in range(spec.num_actions) if not spec.safe[s, b]), default=math.inf)
            expected = bool(spec.safe[s, a]) and closest < NEAR_MISS_MARGIN
            assert spec.near_miss_table[s][a] is expected, (s, a)


@pytest.mark.parametrize("name", list(PROBLEMS))
def test_categorical_draw_matches_searchsorted(name):
    mdp, _ = PROBLEMS[name]
    last = mdp.num_states - 1
    for s in range(mdp.num_states):
        for a in range(mdp.num_actions):
            reference = np.cumsum(mdp.transition[s, a])
            cdf = mdp.successor_cdfs[s][a]
            assert cdf == reference.tolist()
            for u in probe_points(reference):
                expected = min(int(np.searchsorted(reference, u, side="right")), last)
                assert categorical_draw(cdf, u) == expected, (s, a, u)
                reward, s_next, done = env_step(mdp, s, a, FixedUniform(u))
                assert (reward, s_next, done) == (
                    float(mdp.reward[s, a]), expected, mdp.terminal_flags[expected]
                )


def test_categorical_draw_clamps_a_short_cdf():
    # A final running sum that rounds below 1 must not index past the end.
    cdf = [0.25, 0.5, 1.0 - 2**-40]
    assert categorical_draw(cdf, 0.0) == 0
    assert categorical_draw(cdf, 0.25) == 1
    assert categorical_draw(cdf, 1.0 - 2**-50) == 2


def test_exact_solvers_build_no_rollout_tables():
    mdp, spec = build_random_safe_mdp(20, 4, 0.6, seed=1)
    solve_guarded_value_iteration(mdp, spec)
    solve_pruned_value_iteration(mdp, spec)
    cached = {"successor_cdfs", "reward_rows", "terminal_flags", "projection_table",
              "near_miss_table"}
    assert cached.isdisjoint(vars(mdp)) and cached.isdisjoint(vars(spec))
