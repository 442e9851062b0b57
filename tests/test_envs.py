"""Gridworld construction, random-MDP generation, and rollout collection."""

import hashlib
from itertools import groupby

import numpy as np
import pytest
from scipy import stats as scipy_stats

from guardedrl.envs import (
    DOWN,
    LEFT,
    NOOP,
    RIGHT,
    UP,
    GridWorldSpec,
    build_cliff_grid,
    build_random_safe_mdp,
    collect_offline_dataset,
    env_step,
    uniform_policy,
    uniform_safe_policy,
)
from guardedrl.mdp import (
    SafetySpec,
    TabularMdp,
    max_norm_distance,
    solve_guarded_value_iteration,
    solve_pruned_value_iteration,
)


def corridor(gamma=0.95, **kw):
    """1 x 3 corridor: S . G, no hazards."""
    return GridWorldSpec(width=3, height=1, start=(0, 0), goal=(2, 0), gamma=gamma, **kw)


class TestGridWorldSpec:
    def test_rejects_start_on_hazard(self):
        with pytest.raises(ValueError):
            GridWorldSpec(width=3, height=1, start=(0, 0), goal=(2, 0),
                          hazards=frozenset({(0, 0)}))

    def test_rejects_degenerate_grid(self):
        with pytest.raises(ValueError):
            GridWorldSpec(width=1, height=1, start=(0, 0), goal=(0, 0))

    def test_ascii_round_trip_geometry(self):
        spec = GridWorldSpec.from_ascii(["..G", ".X.", "S.."], gamma=0.9)
        assert spec.width == 3 and spec.height == 3
        assert spec.start == (0, 0)  # bottom-left: last text row is y = 0
        assert spec.goal == (2, 2)
        assert spec.hazards == frozenset({(1, 1)})

    def test_ascii_rejects_unknown_characters(self):
        with pytest.raises(ValueError, match="unknown map character"):
            GridWorldSpec.from_ascii(["S?G"])

    def test_state_index_round_trip(self):
        spec = corridor()
        for s in range(spec.num_states):
            assert spec.state_index(spec.cell_of(s)) == s


class TestBuildCliffGrid:
    def test_corridor_all_actions_safe(self):
        _, safety = build_cliff_grid(corridor())
        assert safety.safe.all()

    def test_zero_slip_rows_deterministic(self):
        mdp, _ = build_cliff_grid(corridor(slip_prob=0.0))
        assert np.all(np.isin(mdp.transition, (0.0, 1.0)))

    def test_hazard_adjacency_geometry(self):
        # 4 x 3 grid, hazard at (1, 1): from (1, 0) only UP is unsafe.
        spec = GridWorldSpec(width=4, height=3, start=(0, 0), goal=(3, 0),
                             hazards=frozenset({(1, 1)}))
        mdp, safety = build_cliff_grid(spec)
        s = spec.state_index((1, 0))
        assert np.flatnonzero(safety.safe[s]).tolist() == [DOWN, LEFT, RIGHT, NOOP]
        # The mdp_core example: the list excludes the move into the hazard.
        assert not safety.safe[s, UP]

    def test_terminal_states_absorbing_and_all_safe(self):
        spec = GridWorldSpec(width=3, height=2, start=(0, 0), goal=(2, 0),
                             hazards=frozenset({(1, 0)}))
        mdp, safety = build_cliff_grid(spec)
        for s in (spec.goal_state, *spec.hazard_states):
            assert mdp.is_terminal(s)
            for a in range(5):
                assert mdp.transition[s, a, s] == 1.0
                assert mdp.reward[s, a] == 0.0
                assert safety.safe[s, a]

    def test_entry_rewards(self):
        spec = corridor(step_reward=-0.1, goal_reward=2.0)
        mdp, _ = build_cliff_grid(spec)
        middle = spec.state_index((1, 0))
        assert mdp.reward[middle, RIGHT] == pytest.approx(-0.1 + 2.0)
        assert mdp.reward[middle, LEFT] == pytest.approx(-0.1)
        assert mdp.reward[middle, NOOP] == pytest.approx(-0.1)

    def test_slip_row_hand_computed(self):
        # From (1, 1) of a 3 x 3 grid with slip 0.2, action RIGHT:
        # intended (2, 1) w.p. 0.8, perpendicular UP (1, 2) and DOWN (1, 0)
        # each w.p. 0.1.
        spec = GridWorldSpec(width=3, height=3, start=(0, 0), goal=(2, 2), slip_prob=0.2)
        mdp, _ = build_cliff_grid(spec)
        s = spec.state_index((1, 1))
        row = mdp.transition[s, RIGHT]
        assert row[spec.state_index((2, 1))] == pytest.approx(0.8)
        assert row[spec.state_index((1, 2))] == pytest.approx(0.1)
        assert row[spec.state_index((1, 0))] == pytest.approx(0.1)

    def test_slip_expected_entry_bonus(self):
        # From (0, 1) on a 2 x 2 grid with goal (1, 1): UP bumps the wall
        # (stays), slips LEFT (stays) or RIGHT into the goal.
        spec = GridWorldSpec(width=2, height=2, start=(0, 0), goal=(1, 1),
                             slip_prob=0.2, step_reward=-0.05, goal_reward=1.0)
        mdp, _ = build_cliff_grid(spec)
        s = spec.state_index((0, 1))
        assert mdp.reward[s, UP] == pytest.approx(-0.05 + 0.1 * 1.0)

    def test_edge_bumps_stay_in_place(self):
        spec = corridor()
        mdp, _ = build_cliff_grid(spec)
        s = spec.state_index((0, 0))
        assert mdp.transition[s, LEFT, s] == 1.0
        assert mdp.transition[s, UP, s] == 1.0


class TestBuildRandomSafeMdp:
    def test_full_safety_makes_constraint_inactive(self):
        mdp, spec = build_random_safe_mdp(8, 3, safe_fraction=1.0, seed=0, gamma=0.9)
        assert spec.safe.all()
        unconstrained = SafetySpec(safe=np.ones_like(spec.safe), action_embedding=np.eye(3))
        guarded = solve_guarded_value_iteration(mdp, spec, tol=1e-10).q
        free = solve_pruned_value_iteration(mdp, unconstrained, tol=1e-10)
        assert max_norm_distance(guarded, free) <= 1e-6

    def test_deterministic_given_seed(self):
        a_mdp, a_spec = build_random_safe_mdp(6, 4, safe_fraction=0.5, seed=123)
        b_mdp, b_spec = build_random_safe_mdp(6, 4, safe_fraction=0.5, seed=123)
        np.testing.assert_array_equal(a_mdp.transition, b_mdp.transition)
        np.testing.assert_array_equal(a_mdp.reward, b_mdp.reward)
        np.testing.assert_array_equal(a_spec.safe, b_spec.safe)

    def test_generated_instances_satisfy_invariants(self):
        for seed in range(30):
            mdp, spec = build_random_safe_mdp(7, 3, safe_fraction=0.3, seed=seed)
            np.testing.assert_allclose(mdp.transition.sum(axis=2), 1.0, atol=1e-9)
            assert spec.safe.any(axis=1).all()
            assert np.all(np.abs(mdp.reward) <= 1.0)

    def test_rejects_bad_fraction(self):
        with pytest.raises(ValueError):
            build_random_safe_mdp(4, 2, safe_fraction=0.0, seed=0)


class TestEnvStep:
    def test_deterministic_row_unique_successor(self):
        spec = corridor(slip_prob=0.0)
        mdp, _ = build_cliff_grid(spec)
        rng = np.random.default_rng(0)
        s = spec.state_index((0, 0))
        successors = {env_step(mdp, s, RIGHT, rng)[1] for _ in range(50)}
        assert successors == {spec.state_index((1, 0))}

    def test_terminal_successor_flags_done(self):
        spec = corridor()
        mdp, _ = build_cliff_grid(spec)
        rng = np.random.default_rng(1)
        r, s_next, done = env_step(mdp, spec.state_index((1, 0)), RIGHT, rng)
        assert done and s_next == spec.goal_state

    def test_chi_square_against_transition_row(self):
        mdp, _ = build_random_safe_mdp(6, 2, safe_fraction=1.0, seed=5)
        rng = np.random.default_rng(2)
        draws = np.array([env_step(mdp, 0, 0, rng)[1] for _ in range(10_000)])
        observed = np.bincount(draws, minlength=6)
        expected = mdp.transition[0, 0] * 10_000
        _, p_value = scipy_stats.chisquare(observed, expected)
        assert p_value > 0.001


class TestCollectOfflineDataset:
    def test_deterministic_policy_identical_episodes(self):
        spec = corridor(slip_prob=0.0)
        mdp, safety = build_cliff_grid(spec)
        behavior = np.zeros((mdp.num_states, 5))
        behavior[:, RIGHT] = 1.0
        ds = collect_offline_dataset(mdp, safety, behavior, n_episodes=5, max_ep_len=10,
                                     seed=3, start_state=spec.start_state)
        data = ds.transitions
        rows = zip(ds.episode.tolist(), zip(data.s.tolist(), data.a.tolist(),
                                              data.s_next.tolist(), data.done.tolist()))
        episodes = [[row for _, row in ep] for _, ep in groupby(rows, key=lambda r: r[0])]
        assert all(ep == episodes[0] for ep in episodes)
        assert episodes[0][-1][3] is True

    def test_guardian_filter_keeps_dataset_safe(self):
        spec = GridWorldSpec.from_ascii(["S.G", "XXX"], gamma=0.9)
        mdp, safety = build_cliff_grid(spec)
        ds = collect_offline_dataset(mdp, safety, uniform_policy(mdp.num_states, 5),
                                     n_episodes=40, max_ep_len=30, seed=4,
                                     start_state=spec.start_state)
        assert safety.safe[ds.transitions.s, ds.transitions.a].all()

    def test_unfiltered_collection_can_violate(self):
        spec = GridWorldSpec.from_ascii(["S.G", "XXX"], gamma=0.9)
        mdp, safety = build_cliff_grid(spec)
        ds = collect_offline_dataset(mdp, safety, uniform_policy(mdp.num_states, 5),
                                     n_episodes=40, max_ep_len=30, seed=4,
                                     guardian_filter=False, start_state=spec.start_state)
        assert not safety.safe[ds.transitions.s, ds.transitions.a].all()

    def test_counts_match_occupancy_oracle_on_chain(self):
        # 4-state ring, 2 actions (advance / stay), no terminals.
        n = 4
        transition = np.zeros((n, 2, n))
        for s in range(n):
            transition[s, 0, (s + 1) % n] = 1.0
            transition[s, 1, s] = 1.0
        mdp = TabularMdp(transition=transition, reward=np.zeros((n, 2)), gamma=0.9)
        safety = SafetySpec(safe=np.ones((n, 2), dtype=bool), action_embedding=np.eye(2))
        behavior = np.tile(np.array([0.7, 0.3]), (n, 1))
        length, n_episodes = 6, 400
        ds = collect_offline_dataset(mdp, safety, behavior, n_episodes=n_episodes,
                                     max_ep_len=length, seed=6, start_state=0)

        # Oracle: state distribution by power iteration of the induced chain.
        chain = np.einsum("sa,sat->st", behavior, transition)
        p = np.zeros(n)
        p[0] = 1.0
        expected = np.zeros((n, 2))
        for _ in range(length):
            expected += p[:, None] * behavior
            p = p @ chain

        counts = np.zeros((n, 2, n_episodes))
        np.add.at(counts, (ds.transitions.s, ds.transitions.a, ds.episode), 1.0)
        mean = counts.mean(axis=2)
        stderr = counts.std(axis=2, ddof=1) / np.sqrt(n_episodes)
        assert np.all(np.abs(mean - expected) <= 3.0 * stderr + 1e-9)

    @pytest.mark.parametrize("guardian_filter, digest", [
        (True, "bc0905aaaf155097f28b68b9f06df028caa5be4b15ab280c0f28f4f5a43c0c2f"),
        (False, "4e8863c13602e258d6143186492fc00e89e5902396ef4799f07a92845c48a841"),
    ])
    def test_collected_jsonl_bytes_are_pinned(self, tmp_path, guardian_filter, digest):
        # Pins the generator stream (per step: one uniform for the proposal,
        # then one for the successor) and the JSONL byte format.
        grid = GridWorldSpec.from_ascii([".....", ".....", ".....", "S...G", "XXXXX"],
                                        slip_prob=0.2, gamma=0.95, step_reward=-0.02)
        mdp, safety = build_cliff_grid(grid)
        ds = collect_offline_dataset(mdp, safety, uniform_policy(mdp.num_states, 5),
                                     n_episodes=20, max_ep_len=30, seed=5,
                                     guardian_filter=guardian_filter,
                                     start_state=grid.start_state)
        path = tmp_path / "offline.jsonl"
        ds.save_jsonl(path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest

    def test_rejects_invalid_behavior(self):
        spec = corridor()
        mdp, safety = build_cliff_grid(spec)
        with pytest.raises(ValueError):
            collect_offline_dataset(mdp, safety, np.ones((mdp.num_states, 5)),
                                    n_episodes=1, max_ep_len=5, seed=0)

    def test_uniform_safe_policy_support(self):
        spec = GridWorldSpec.from_ascii(["S.G", "XXX"], gamma=0.9)
        _, safety = build_cliff_grid(spec)
        policy = uniform_safe_policy(safety)
        np.testing.assert_allclose(policy.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(policy[~safety.safe] == 0.0)
