"""Core table, operator, and solver tests with brute-force oracles."""

import itertools
import json
import re

import numpy as np
import pytest

from guardedrl.envs import GridWorldSpec, build_cliff_grid, build_random_safe_mdp
from guardedrl.mdp import (
    ConvergenceError,
    SafetySpec,
    TabularMdp,
    apply_guarded_bellman,
    max_norm_distance,
    safe_state_values,
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


def contraction_pair(mdp, spec, q1, q2):
    """Both sides of the contraction inequality: (||T q1 - T q2||_inf, gamma * ||q1 - q2||_inf)."""
    lhs = max_norm_distance(apply_guarded_bellman(q1, mdp, spec), apply_guarded_bellman(q2, mdp, spec))
    return lhs, mdp.gamma * max_norm_distance(q1, q2)


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

    def test_rejects_nonfinite_reward(self):
        transition = np.ones((1, 1, 1))
        with pytest.raises(ValueError, match="finite"):
            TabularMdp(transition=transition, reward=np.full((1, 1), np.nan), gamma=0.5)

    def test_default_r_max_is_reward_bound(self):
        mdp, _ = two_state_problem()
        assert mdp.r_max == 2.0


class TestOwnership:
    """Instances hold their arrays read-only: kept when already so, else copied once."""

    @pytest.mark.parametrize("table", ["transition", "reward", "terminal", "safe", "action_embedding"])
    def test_assigning_into_a_table_raises(self, table):
        mdp, spec = build_cliff_grid(GridWorldSpec.from_ascii(["....", "S..G", "XXXX"], slip_prob=0.2))
        array = getattr(mdp if hasattr(mdp, table) else spec, table)
        before = array.copy()
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1
        np.testing.assert_array_equal(array, before)

    def test_a_writeable_caller_array_stays_writeable_and_unshared(self):
        transition, reward, terminal = np.full((2, 1, 2), 0.5), np.zeros((2, 1)), np.array([False, True])
        safe, emb = np.ones((2, 1), dtype=bool), np.eye(1)
        mdp = TabularMdp(transition=transition, reward=reward, gamma=0.9, terminal=terminal)
        spec = SafetySpec(safe=safe, action_embedding=emb)
        pairs = [(transition, mdp.transition), (reward, mdp.reward), (terminal, mdp.terminal),
                 (safe, spec.safe), (emb, spec.action_embedding)]
        for caller, kept in pairs:
            assert caller.flags.writeable and not kept.flags.writeable
            assert not np.shares_memory(caller, kept)
        transition[0, 0] = [1.0, 0.0]
        assert mdp.transition[0, 0].tolist() == [0.5, 0.5]

    def test_a_read_only_view_of_a_writeable_array_is_copied(self):
        transition = np.full((2, 1, 2), 0.5)
        view = transition.view()
        view.flags.writeable = False
        mdp = TabularMdp(transition=view, reward=np.zeros((2, 1)), gamma=0.9)
        assert not np.shares_memory(mdp.transition, transition)

    def test_a_read_only_table_of_the_right_dtype_is_kept(self):
        transition, reward, safe = np.full((2, 3, 2), 0.5), np.zeros((2, 3)), np.ones((2, 3), dtype=bool)
        for table in (transition, reward, safe):
            table.flags.writeable = False
        mdp = TabularMdp(transition=transition, reward=reward, gamma=0.9)
        spec = SafetySpec(safe=safe, action_embedding=np.eye(3))
        assert mdp.transition is transition and mdp.reward is reward and spec.safe is safe
        # A table of another dtype is copied once into the right one.
        as_int = np.ones((2, 3), dtype=np.int64)
        as_int.flags.writeable = False
        assert SafetySpec(safe=as_int, action_embedding=np.eye(3)).safe.dtype == bool

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_random_mdp_normalises_its_draw_bit_for_bit(self, seed):
        num_states, num_actions = 13, 4
        rng = np.random.default_rng(seed)
        raw = rng.exponential(1.0, size=(num_states, num_actions, num_states))
        reward = rng.uniform(-1.0, 1.0, size=(num_states, num_actions))
        mdp, _ = build_random_safe_mdp(num_states, num_actions, safe_fraction=0.5, seed=seed)
        expected = raw / raw.sum(axis=2, keepdims=True)
        np.testing.assert_array_equal(mdp.transition.view(np.int64), expected.view(np.int64))
        np.testing.assert_array_equal(mdp.reward, reward)

    @pytest.mark.parametrize("bad, message", [
        (-0.5, "^transition probabilities must be non-negative$"),
        (np.nan, "^transition rows must sum to 1 within 1e-09; worst error nan$"),
    ])
    def test_negative_and_nan_entries_are_refused(self, bad, message):
        transition = np.full((2, 1, 2), 0.5)
        transition[1, 0] = [1.0 - bad, bad] if bad < 0 else [0.5, bad]
        for writeable in (True, False):
            transition.flags.writeable = writeable
            with pytest.raises(ValueError, match=message):
                TabularMdp(transition=transition, reward=np.zeros((2, 1)), gamma=0.9)


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
        assert contraction_pair(mdp, spec, q, q) == (0.0, 0.0)

    def test_constant_shift_is_tight(self):
        mdp, spec = two_state_problem()
        q = np.array([[1.0, 2.0], [3.0, 4.0]])
        lhs, rhs = contraction_pair(mdp, spec, q, q + 3.0)
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
            lhs, rhs = contraction_pair(mdp, spec, q1, q2)
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
            q, r = operator_iterates(mdp, spec, result.iterations)
            np.testing.assert_array_equal(result.q, q)
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
        _, residuals = operator_iterates(mdp, spec, 2)
        message = f"no convergence to tol=1e-12 within 2 sweeps (last residual {residuals[-1]:.3g})"
        assert residuals[-1] > 0.0
        with pytest.raises(ConvergenceError, match=f"^{re.escape(message)}$"):
            solve_guarded_value_iteration(mdp, spec, tol=1e-12, max_iters=2)

    def test_rejects_nonpositive_tol(self):
        mdp, spec = two_state_problem()
        with pytest.raises(ValueError):
            solve_guarded_value_iteration(mdp, spec, tol=0.0)


def operator_iterates(mdp, spec, sweeps, operator=apply_guarded_bellman):
    """(Q after `sweeps` guarded backups from Q = 0, the max-norm residual of each sweep)."""
    q = np.zeros((mdp.num_states, mdp.num_actions))
    residuals = []
    for _ in range(sweeps):
        q_next = operator(q, mdp, spec)
        residuals.append(max_norm_distance(q_next, q))
        q = q_next
    return q, residuals


SOLVERS = [solve_guarded_value_iteration, solve_pruned_value_iteration]


class TestSolverArguments:
    """Both solvers check tol and max_iters on entry, before any sweep."""

    @pytest.mark.parametrize("solver", SOLVERS, ids=["guarded", "pruned"])
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -1.0])
    def test_rejects_tol_that_is_not_finite_and_positive(self, solver, tol):
        mdp, spec = two_state_problem()
        with pytest.raises(ValueError, match=f"^{re.escape(f'tol must lie in (0, inf), got {tol!r}')}$"):
            solver(mdp, spec, tol=tol)

    @pytest.mark.parametrize("solver", SOLVERS, ids=["guarded", "pruned"])
    @pytest.mark.parametrize("max_iters", [0, -3])
    def test_rejects_empty_sweep_budget(self, solver, max_iters):
        mdp, spec = two_state_problem()
        with pytest.raises(ValueError, match=f"^max_iters must be >= 1, got {max_iters}$"):
            solver(mdp, spec, max_iters=max_iters)

    @pytest.mark.parametrize("solver", SOLVERS, ids=["guarded", "pruned"])
    def test_one_sweep_budget_is_enough_at_gamma_zero(self, solver):
        mdp, spec = two_state_problem(gamma=0.0)
        result = solver(mdp, spec, max_iters=1)
        q = result.q if solver is solve_guarded_value_iteration else result
        np.testing.assert_array_equal(q, mdp.reward)


def reference_solves(mdp, spec, tol):
    """The guarded solver as first written: the 3-D product P @ v and a row max over a masked table.

    Returns (guarded q, guarded sweeps).
    """
    safe_max = lambda table: np.where(spec.safe, table, -np.inf).max(axis=1)
    q = np.zeros((mdp.num_states, mdp.num_actions))
    guarded_sweeps = 0
    while True:
        guarded_sweeps += 1
        q_next = mdp.reward + mdp.gamma * (mdp.transition @ safe_max(q))
        residual = float(np.max(np.abs(q_next - q)))
        q = q_next
        if mdp.gamma * residual <= tol:
            break
    return q, guarded_sweeps


def pruned_reference(mdp, spec):
    """Value iteration on the pruned MDP with the 3-D product and a masked row max, run to 1e-14.

    Stopped at gamma * residual <= 1e-14, so the table is within
    1e-14 / (1 - gamma) of the fixed point: below 1e-12 for gamma <= 0.95.
    """
    v = np.zeros(mdp.num_states)
    for _ in range(100_000):
        v_next = np.where(spec.safe, mdp.reward + mdp.gamma * (mdp.transition @ v), -np.inf).max(axis=1)
        residual = float(np.max(np.abs(v_next - v)))
        v = v_next
        if mdp.gamma * residual <= 1e-14:
            return mdp.reward + mdp.gamma * (mdp.transition @ v)
    raise AssertionError("the reference did not reach 1e-14")


def sweep_instances():
    """Random instances with A from 1 to 8, a gamma-0 instance and a grid with terminal states."""
    for num_actions in range(1, 9):
        yield build_random_safe_mdp(23, num_actions, safe_fraction=0.5, seed=num_actions, gamma=0.95)
    yield build_random_safe_mdp(17, 3, safe_fraction=0.6, seed=0, gamma=0.0)
    yield build_cliff_grid(GridWorldSpec.from_ascii(["....", "S..G", "XXXX"], slip_prob=0.2))


class MatmulOperands(np.ndarray):
    """A view of P that records the left operand of every matmul it takes part in."""

    seen: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            MatmulOperands.seen.append(inputs[0])
        plain = lambda x: x.view(np.ndarray) if isinstance(x, MatmulOperands) else x
        if "out" in kwargs:  # the in-place scaling of a gathered (S, S) system
            kwargs["out"] = tuple(plain(x) for x in kwargs["out"])
        return getattr(ufunc, method)(*(plain(x) for x in inputs), **kwargs)


class TestSweep:
    """A guarded sweep is one product on a view of P; both solvers match references built on the 3-D product."""

    def test_solver_iterates_the_operator_bit_for_bit(self, monkeypatch):
        calls = []
        operator = apply_guarded_bellman
        monkeypatch.setattr("guardedrl.mdp.apply_guarded_bellman",
                            lambda *args: calls.append(1) or operator(*args))
        for mdp, spec in sweep_instances():
            calls.clear()
            result = solve_guarded_value_iteration(mdp, spec, tol=1e-10)
            assert len(calls) == result.iterations
            q, residuals = operator_iterates(mdp, spec, result.iterations, operator)
            np.testing.assert_array_equal(result.q, q)
            # The solver stops at the first sweep whose scaled residual meets tol.
            assert [mdp.gamma * r <= 1e-10 for r in residuals] == [False] * (result.iterations - 1) + [True]

    def test_both_solvers_match_the_3d_row_max_reference(self):
        for mdp, spec in sweep_instances():
            ref_q, ref_sweeps = reference_solves(mdp, spec, 1e-10)
            guarded = solve_guarded_value_iteration(mdp, spec, tol=1e-10)
            assert guarded.iterations == ref_sweeps
            assert max_norm_distance(guarded.q, ref_q) <= 1e-12
            pruned = solve_pruned_value_iteration(mdp, spec, tol=1e-10)
            assert max_norm_distance(pruned, pruned_reference(mdp, spec)) <= 1e-12

    @pytest.mark.parametrize("num_actions", range(1, 9))
    def test_safe_state_values_equal_a_python_max_bitwise(self, num_actions):
        rng = np.random.default_rng(num_actions)
        num_states = 40
        # Half-integers make ties between safe actions common; signed zeros
        # are left out, since either zero may win a tie between them.
        q = rng.integers(-3, 4, size=(num_states, num_actions)) / 2.0
        q[::3] += rng.normal(size=(len(q[::3]), num_actions))
        safe = rng.random((num_states, num_actions)) < 0.5
        safe[::4] = False
        safe[::4, rng.integers(num_actions)] = True  # rows with one safe action
        safe[~safe.any(axis=1), 0] = True
        spec = SafetySpec(safe=safe, action_embedding=np.eye(num_actions))
        expected = np.array([max(q[s, a] for a in range(num_actions) if safe[s, a])
                             for s in range(num_states)])
        got = safe_state_values(q, spec)
        assert got.shape == (num_states,)
        np.testing.assert_array_equal(got.view(np.int64), expected.view(np.int64))

    def test_product_reads_the_transition_tensor_without_a_copy(self):
        """Guarded: one product per sweep on a view of P."""
        MatmulOperands.seen.clear()
        mdp, spec = build_random_safe_mdp(11, 3, safe_fraction=0.6, seed=5)
        plain = solve_guarded_value_iteration(mdp, spec, tol=1e-10)
        object.__setattr__(mdp, "transition", mdp.transition.view(MatmulOperands))
        result = solve_guarded_value_iteration(mdp, spec, tol=1e-10)
        assert len(MatmulOperands.seen) == result.iterations
        for operand in MatmulOperands.seen:
            assert operand.shape == (11 * 3, 11)
            assert np.shares_memory(operand, mdp.transition)
        np.testing.assert_array_equal(result.q, plain.q)

    @pytest.mark.parametrize("seed", range(12))
    def test_pruned_solver_matches_a_masked_full_product_reference(self, seed):
        rng = np.random.default_rng(seed)
        num_states, num_actions = int(rng.integers(2, 30)), [1, 2, 3, 5, 8][seed % 5]
        transition = rng.dirichlet(np.full(num_states, 0.5), size=(num_states, num_actions))
        reward = rng.uniform(-1.0, 1.0, size=(num_states, num_actions))
        safe = rng.random((num_states, num_actions)) < 0.4
        safe[::3] = True  # all-safe rows
        safe[1::3] = False
        safe[1::3, rng.integers(num_actions)] = True  # one-safe-action rows
        safe[~safe.any(axis=1), -1] = True
        mdp = TabularMdp(transition=transition, reward=reward, gamma=float(rng.uniform(0.5, 0.95)))
        spec = SafetySpec(safe=safe, action_embedding=np.eye(num_actions))
        pruned = solve_pruned_value_iteration(mdp, spec, tol=1e-10)
        assert max_norm_distance(pruned, pruned_reference(mdp, spec)) <= 1e-12


def brute_force_optimum(mdp, spec):
    """Q* from every deterministic safe policy: each is solved exactly, and v* is their pointwise max."""
    states = np.arange(mdp.num_states)
    policies = np.array(list(itertools.product(*(np.flatnonzero(row) for row in spec.safe))))
    systems = np.eye(mdp.num_states) - mdp.gamma * mdp.transition[states, policies]
    values = np.linalg.solve(systems, mdp.reward[states, policies][..., None])[..., 0]
    return mdp.reward + mdp.gamma * (mdp.transition @ values.max(axis=0))


def record_solves(monkeypatch):
    """Record a copy of the (matrix, right-hand side) of every np.linalg.solve call from here on."""
    systems = []
    solve = np.linalg.solve
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: systems.append((np.array(a), np.array(b))) or solve(a, b))
    return systems


def evaluated_policy(mdp, system):
    """The action whose row of I - gamma * P each row of an evaluated system was built from."""
    rows = np.eye(mdp.num_states)[:, None, :] - mdp.gamma * mdp.transition
    return np.abs(rows - system[:, None, :]).max(axis=2).argmin(axis=1)


def first_safe_is_not_optimal():
    """A random instance on which the pruned solver must leave the first-safe-action policy."""
    mdp, spec = build_random_safe_mdp(12, 4, safe_fraction=0.7, seed=3, gamma=0.9)
    q = solve_pruned_value_iteration(mdp, spec, tol=1e-10)
    assert not np.array_equal(np.where(spec.safe, q, -np.inf).argmax(axis=1), spec.safe.argmax(axis=1))
    return mdp, spec, q


class TestPolicyIteration:
    """The pruned solver: exact policy evaluations, safe improvement steps, and a bounded failure."""

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 0.9, 0.99])
    def test_matches_a_brute_force_optimum(self, gamma):
        worst = 0.0
        for seed in range(30):
            rng = np.random.default_rng([seed, int(gamma * 100)])
            num_states, num_actions = int(rng.integers(1, 7)), int(rng.integers(1, 4))
            transition = rng.dirichlet(np.full(num_states, 0.5), size=(num_states, num_actions))
            reward = rng.uniform(-1.0, 1.0, size=(num_states, num_actions))
            if seed % 3 == 0:  # an exact tie: the last action copies the first
                transition[:, -1], reward[:, -1] = transition[:, 0], reward[:, 0]
            safe = rng.random((num_states, num_actions)) < 0.6
            safe[~safe.any(axis=1), -1] = True
            mdp = TabularMdp(transition=transition, reward=reward, gamma=gamma)
            spec = SafetySpec(safe=safe, action_embedding=np.eye(num_actions))
            pruned = solve_pruned_value_iteration(mdp, spec, tol=1e-10)
            worst = max(worst, max_norm_distance(pruned, brute_force_optimum(mdp, spec)))
        assert worst <= 1e-12

    def test_budget_counts_improvement_steps(self, monkeypatch):
        mdp, spec, q = first_safe_is_not_optimal()
        solves = record_solves(monkeypatch)
        np.testing.assert_array_equal(solve_pruned_value_iteration(mdp, spec, tol=1e-10), q)
        steps = len(solves)
        assert steps > 1
        np.testing.assert_array_equal(solve_pruned_value_iteration(mdp, spec, tol=1e-10, max_iters=steps), q)
        for budget in {1, steps - 1}:
            message = f"policy iteration did not reach tol=1e-10 in {budget} improvement steps (last residual "
            with pytest.raises(ConvergenceError, match=f"^{re.escape(message)}"):
                solve_pruned_value_iteration(mdp, spec, tol=1e-10, max_iters=budget)

    def test_evaluates_only_safe_policies_from_each_first_safe_action(self, monkeypatch):
        mdp, spec, _ = first_safe_is_not_optimal()
        solves = record_solves(monkeypatch)
        solve_pruned_value_iteration(mdp, spec, tol=1e-10)
        policies = [evaluated_policy(mdp, system) for system, _ in solves]
        np.testing.assert_array_equal(policies[0], spec.safe.argmax(axis=1))
        states = np.arange(mdp.num_states)
        for policy, (_, rhs) in zip(policies, solves):
            assert spec.safe[states, policy].all()
            np.testing.assert_array_equal(rhs, mdp.reward[states, policy])

    @pytest.mark.parametrize("index", [0, 3, 7, 9])
    def test_unreachable_tol_raises_at_once(self, monkeypatch, index):
        mdp, spec = list(sweep_instances())[index]
        assert mdp.gamma > 0.0
        solves = record_solves(monkeypatch)
        message = "policy iteration cannot reach tol=1e-300: no state's action improves (residual "
        with pytest.raises(ConvergenceError, match=f"^{re.escape(message)}[0-9.e-]+\\)$"):
            solve_pruned_value_iteration(mdp, spec, tol=1e-300)
        # Without the check the solver would repeat one solve until max_iters (100,000).
        assert 1 <= len(solves) <= 10

    def test_products_read_the_transition_tensor_and_systems_are_s_by_s(self, monkeypatch):
        """Each improvement step is one lookahead on a view of P; each evaluation, one (S, S) solve."""
        MatmulOperands.seen.clear()
        mdp, spec, q = first_safe_is_not_optimal()
        object.__setattr__(mdp, "transition", mdp.transition.view(MatmulOperands))
        solves = record_solves(monkeypatch)
        pruned = solve_pruned_value_iteration(mdp, spec, tol=1e-10)
        S, A = mdp.num_states, mdp.num_actions
        assert len(solves) > 1
        assert all(system.shape == (S, S) and rhs.shape == (S,) for system, rhs in solves)
        assert len(MatmulOperands.seen) == len(solves) + 1  # one per step, then the returned lookahead
        for operand in MatmulOperands.seen:
            assert operand.shape == (S * A, S)
            assert np.shares_memory(operand, mdp.transition)
        np.testing.assert_array_equal(pruned, q)


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
        assert set(doc) == {"num_states", "num_actions", "gamma", "transition", "reward", "safe",
                            "action_embedding", "r_max", "terminal"}
        assert doc["terminal"] == mdp.terminal.tolist() and any(doc["terminal"])
        np.testing.assert_array_equal(np.array(doc["transition"]), mdp.transition)
        np.testing.assert_array_equal(np.array(doc["reward"]), mdp.reward)
        np.testing.assert_array_equal(np.array(doc["safe"]), spec.safe)
