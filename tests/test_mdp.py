"""Core table, operator, and solver tests with brute-force oracles."""

import json

import numpy as np
import pytest

from guardedrl.envs import GridWorldSpec, build_cliff_grid, build_random_safe_mdp
from guardedrl.mdp import (
    ConvergenceError,
    SafetySpec,
    TabularMdp,
    apply_guarded_bellman,
    assert_contraction_pair,
    max_norm_distance,
    problem_to_dict,
    save_problem,
    solve_guarded_value_iteration,
    solve_pruned_value_iteration,
)


def guarded_backup_bruteforce(q, mdp, spec):
    """Triple-loop evaluation of the guarded backup, the operator oracle."""
    out = np.zeros_like(q)
    for s in range(mdp.num_states):
        for a in range(mdp.num_actions):
            acc = 0.0
            for s2 in range(mdp.num_states):
                best = max(q[s2, a2] for a2 in range(mdp.num_actions) if spec.safe[s2, a2])
                acc += mdp.transition[s, a, s2] * best
            out[s, a] = mdp.reward[s, a] + mdp.gamma * acc
    return out


def two_state_problem(gamma=0.9):
    """Hand-specified 2-state, 2-action MDP; action 1 unsafe in state 1."""
    transition = np.array(
        [
            [[1.0, 0.0], [0.0, 1.0]],
            [[0.5, 0.5], [0.0, 1.0]],
        ]
    )
    reward = np.array([[1.0, 0.0], [-0.5, 2.0]])
    mdp = TabularMdp(transition=transition, reward=reward, gamma=gamma)
    spec = SafetySpec(safe=[[True, True], [True, False]], action_embedding=np.eye(2))
    return mdp, spec


class TestTabularMdp:
    def test_rejects_bad_row_sums(self):
        transition = np.zeros((2, 1, 2))
        transition[:, 0, 0] = 0.5
        with pytest.raises(ValueError, match="sum to 1"):
            TabularMdp(transition=transition, reward=np.zeros((2, 1)), gamma=0.9)

    def test_rejects_negative_probabilities(self):
        transition = np.zeros((2, 1, 2))
        transition[:, 0, 0] = 1.5
        transition[:, 0, 1] = -0.5
        with pytest.raises(ValueError, match="non-negative"):
            TabularMdp(transition=transition, reward=np.zeros((2, 1)), gamma=0.9)

    def test_rejects_gamma_one(self):
        transition = np.ones((1, 1, 1))
        with pytest.raises(ValueError, match="gamma"):
            TabularMdp(transition=transition, reward=np.zeros((1, 1)), gamma=1.0)

    def test_rejects_reward_above_stated_bound(self):
        transition = np.ones((1, 1, 1))
        with pytest.raises(ValueError, match="r_max"):
            TabularMdp(transition=transition, reward=np.full((1, 1), 2.0), gamma=0.5, r_max=1.0)

    def test_rejects_nonfinite_reward(self):
        transition = np.ones((1, 1, 1))
        with pytest.raises(ValueError, match="finite"):
            TabularMdp(transition=transition, reward=np.full((1, 1), np.nan), gamma=0.5)

    def test_default_r_max_is_reward_bound(self):
        mdp, _ = two_state_problem()
        assert mdp.r_max == 2.0


class TestSafetySpec:
    def test_rejects_empty_safe_set(self):
        with pytest.raises(ValueError, match="empty safe action set"):
            SafetySpec(safe=[[True, True], [False, False]], action_embedding=np.eye(2))

    def test_rejects_duplicate_embeddings(self):
        with pytest.raises(ValueError, match="identical"):
            SafetySpec(safe=[[True, True]], action_embedding=[[1.0, 0.0], [1.0, 0.0]])

    def test_rejects_nonfinite_embeddings(self):
        with pytest.raises(ValueError, match="finite"):
            SafetySpec(safe=[[True, True]], action_embedding=[[0.0, 1.0], [np.inf, 0.0]])


class TestGuardedBellman:
    def test_zero_q_returns_reward(self):
        mdp, spec = two_state_problem()
        out = apply_guarded_bellman(np.zeros((2, 2)), mdp, spec)
        np.testing.assert_array_equal(out, mdp.reward)

    def test_gamma_zero_returns_reward(self):
        mdp, spec = two_state_problem(gamma=0.0)
        q = np.array([[5.0, -3.0], [2.0, 7.0]])
        np.testing.assert_array_equal(apply_guarded_bellman(q, mdp, spec), mdp.reward)

    def test_hand_computed_two_state_table(self):
        # Safe maxima: state 0 -> max(1, 2) = 2, state 1 -> Q[1, 0] = 3.
        # (0,0): 1 + .9*2 = 2.8   (0,1): 0 + .9*3 = 2.7
        # (1,0): -.5 + .9*(.5*2 + .5*3) = 1.75   (1,1): 2 + .9*3 = 4.7
        mdp, spec = two_state_problem()
        q = np.array([[1.0, 2.0], [3.0, 4.0]])
        expected = np.array([[2.8, 2.7], [1.75, 4.7]])
        np.testing.assert_allclose(apply_guarded_bellman(q, mdp, spec), expected, atol=1e-12)

    def test_input_not_modified(self):
        mdp, spec = two_state_problem()
        q = np.array([[1.0, 2.0], [3.0, 4.0]])
        snapshot = q.copy()
        apply_guarded_bellman(q, mdp, spec)
        np.testing.assert_array_equal(q, snapshot)

    def test_matches_bruteforce_on_random_instances(self):
        rng = np.random.default_rng(7)
        for trial in range(25):
            mdp, spec = build_random_safe_mdp(
                num_states=int(rng.integers(2, 9)),
                num_actions=int(rng.integers(2, 5)),
                safe_fraction=0.6,
                seed=trial,
                gamma=float(rng.uniform(0.1, 0.99)),
            )
            q = rng.normal(size=(mdp.num_states, mdp.num_actions))
            np.testing.assert_allclose(
                apply_guarded_bellman(q, mdp, spec),
                guarded_backup_bruteforce(q, mdp, spec),
                atol=1e-12,
            )

    def test_dimension_mismatch_rejected(self):
        mdp, spec = two_state_problem()
        with pytest.raises(ValueError):
            apply_guarded_bellman(np.zeros((3, 2)), mdp, spec)

    def test_safe_set_monotonicity(self):
        # Enlarging the safe set weakly increases the backup pointwise.
        rng = np.random.default_rng(11)
        for trial in range(20):
            mdp, spec = build_random_safe_mdp(6, 4, safe_fraction=0.5, seed=100 + trial)
            q = rng.normal(size=(6, 4))
            enlarged = spec.safe.copy()
            enlarged[rng.integers(6), rng.integers(4)] = True
            bigger = SafetySpec(safe=enlarged, action_embedding=spec.action_embedding)
            assert np.all(
                apply_guarded_bellman(q, mdp, bigger)
                >= apply_guarded_bellman(q, mdp, spec) - 1e-12
            )


class TestMaxNorm:
    def test_equal_tables(self):
        q = np.array([[1.0, 2.0]])
        assert max_norm_distance(q, q) == 0.0

    def test_constant_shift(self):
        q = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert max_norm_distance(q, q - 2.5) == 2.5

    def test_matches_exhaustive_scan(self):
        rng = np.random.default_rng(3)
        q1 = rng.normal(size=(5, 4))
        q2 = rng.normal(size=(5, 4))
        scan = max(abs(q1[s, a] - q2[s, a]) for s in range(5) for a in range(4))
        assert max_norm_distance(q1, q2) == scan

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            max_norm_distance(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_max_gap_bounded_by_pointwise_max(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            n = int(rng.integers(1, 12))
            f = rng.normal(scale=10.0, size=n)
            g = rng.normal(scale=10.0, size=n)
            max_gap = abs(np.max(f) - np.max(g))  # the step the contraction proof rests on
            assert max_gap <= np.max(np.abs(f - g))


class TestContraction:
    def test_equal_inputs_give_zero_pair(self):
        mdp, spec = two_state_problem()
        q = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert assert_contraction_pair(mdp, spec, q, q) == (0.0, 0.0)

    def test_constant_shift_is_tight(self):
        mdp, spec = two_state_problem()
        q = np.array([[1.0, 2.0], [3.0, 4.0]])
        lhs, rhs = assert_contraction_pair(mdp, spec, q, q + 3.0)
        assert rhs == pytest.approx(0.9 * 3.0)
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_holds_on_random_draws(self):
        rng = np.random.default_rng(13)
        for trial in range(100):
            mdp, spec = build_random_safe_mdp(
                num_states=int(rng.integers(2, 10)),
                num_actions=int(rng.integers(2, 5)),
                safe_fraction=float(rng.uniform(0.3, 1.0)),
                seed=500 + trial,
                gamma=float(rng.choice([0.3, 0.9, 0.99])),
            )
            q1 = rng.normal(scale=5.0, size=(mdp.num_states, mdp.num_actions))
            q2 = rng.normal(scale=5.0, size=(mdp.num_states, mdp.num_actions))
            lhs, rhs = assert_contraction_pair(mdp, spec, q1, q2)
            assert lhs <= rhs + 1e-9


class TestValueIteration:
    def test_gamma_zero_converges_in_one_sweep(self):
        mdp, spec = two_state_problem(gamma=0.0)
        result = solve_guarded_value_iteration(mdp, spec, tol=1e-10)
        assert result.iterations == 1
        np.testing.assert_array_equal(result.q, mdp.reward)

    def test_residual_below_tolerance_at_exit(self):
        mdp, spec = two_state_problem()
        result = solve_guarded_value_iteration(mdp, spec, tol=1e-9)
        post = apply_guarded_bellman(result.q, mdp, spec)
        assert max_norm_distance(post, result.q) <= 1e-9

    def test_deterministic_given_inputs(self):
        mdp, spec = two_state_problem()
        a = solve_guarded_value_iteration(mdp, spec, tol=1e-9)
        b = solve_guarded_value_iteration(mdp, spec, tol=1e-9)
        np.testing.assert_array_equal(a.q, b.q)
        assert a.iterations == b.iterations

    def test_residuals_decay_geometrically(self):
        for seed in range(5):
            mdp, spec = build_random_safe_mdp(8, 4, safe_fraction=0.6, seed=seed, gamma=0.9)
            result = solve_guarded_value_iteration(mdp, spec, tol=1e-8)
            r = result.residuals
            for k in range(len(r) - 1):
                assert r[k + 1] <= mdp.gamma * r[k] + 1e-12

    def test_agrees_with_pruned_oracle(self):
        for seed in range(20):
            mdp, spec = build_random_safe_mdp(10, 4, safe_fraction=0.5, seed=seed, gamma=0.9)
            guarded = solve_guarded_value_iteration(mdp, spec, tol=1e-10).q
            pruned = solve_pruned_value_iteration(mdp, spec, tol=1e-10)
            assert max_norm_distance(guarded, pruned) <= 1e-6

    def test_nonconvergence_raises_with_residual(self):
        mdp, spec = two_state_problem()
        with pytest.raises(ConvergenceError) as excinfo:
            solve_guarded_value_iteration(mdp, spec, tol=1e-12, max_iters=2)
        assert excinfo.value.residual > 0.0

    def test_rejects_nonpositive_tol(self):
        mdp, spec = two_state_problem()
        with pytest.raises(ValueError):
            solve_guarded_value_iteration(mdp, spec, tol=0.0)


class TestJsonRoundTrip:
    """problem.json is an output: parsed back with json, it holds the tables exactly."""

    @staticmethod
    def saved(tmp_path, mdp, spec):
        path = tmp_path / "problem.json"
        save_problem(path, mdp, spec)
        return json.loads(path.read_text())

    def test_round_trip_preserves_tables(self, tmp_path):
        mdp, spec = build_random_safe_mdp(6, 3, safe_fraction=0.7, seed=42)
        doc = self.saved(tmp_path, mdp, spec)
        assert (doc["num_states"], doc["num_actions"]) == (6, 3)
        assert doc["gamma"] == mdp.gamma and doc["r_max"] == mdp.r_max
        safe = np.array(doc["safe"])
        assert safe.dtype == bool
        np.testing.assert_array_equal(safe, spec.safe)
        for key, table in (("transition", mdp.transition), ("reward", mdp.reward),
                           ("action_embedding", spec.action_embedding)):
            np.testing.assert_array_equal(np.array(doc[key], dtype=np.float64), table)
        assert ("terminal" in doc) == (mdp.terminal is not None)

    def test_file_round_trip_through_json_text(self, tmp_path):
        # A grid has terminal states; the file holds them as a boolean list.
        mdp, spec = build_cliff_grid(GridWorldSpec.from_ascii(["S.G", "XXX"]))
        doc = self.saved(tmp_path, mdp, spec)
        assert doc == problem_to_dict(mdp, spec)
        assert doc["terminal"] == mdp.terminal.tolist() and any(doc["terminal"])
        np.testing.assert_array_equal(np.array(doc["transition"]), mdp.transition)
        np.testing.assert_array_equal(np.array(doc["reward"]), mdp.reward)
        np.testing.assert_array_equal(np.array(doc["safe"]), spec.safe)
