"""Ensemble critic, tabular actor, and backup-target tests."""

import inspect
import math

import numpy as np
import pytest
from columns import actor_loss, columns_of, dataset_of, record_run_internals

from guardedrl.envs import GridWorldSpec, build_cliff_grid
from guardedrl.guardian import renormalize_policy_safe
from guardedrl.learner import (
    INIT_NOISE,
    LearnerConfig,
    compute_targets,
    ensemble_variance,
    soft_update_targets,
    softmax,
    update_actor,
    update_critics,
)
from guardedrl.mdp import SafetySpec
from guardedrl.metrics import td_error_stats
from guardedrl.sampling import DssConfig, DtsConfig, TransitionBatch, TransitionRecord
from guardedrl.trainer import RunConfig, run_training


def make_spec(safe, dim=None):
    safe = np.asarray(safe, dtype=bool)
    return SafetySpec(safe=safe, action_embedding=np.eye(safe.shape[1]))


def tr(s=0, a=0, r=0.0, s_next=0, done=False, t=0, ep=0):
    return TransitionRecord(s=s, a_exec=a, r=r, s_next=s_next, done=done, t=t, episode=ep)


def entropy(probs):
    """Reference Shannon entropy in nats, 0 * log 0 = 0."""
    return float(-np.sum(probs[probs > 0.0] * np.log(probs[probs > 0.0])))


def target(record, logits, targets, spec, cfg):
    """Backup target of a one-row batch under the policy softmax(logits)."""
    y, _ = compute_targets(columns_of([record]), softmax(logits), targets, spec, cfg)
    return float(y[0])


def safe_probs(logits, s, spec):
    """Reference renormalization: the softmax row restricted to the safe set."""
    masked = np.where(spec.safe[s], softmax(logits[s]), 0.0)
    return masked / masked.sum()


def finite_difference_gradient(logits_row, qmin_row, alpha, h=1e-6):
    grad = np.zeros_like(logits_row)
    for j in range(len(logits_row)):
        up = logits_row.copy()
        up[j] += h
        down = logits_row.copy()
        down[j] -= h
        grad[j] = (actor_loss(up, qmin_row, alpha) - actor_loss(down, qmin_row, alpha)) / (2 * h)
    return grad


class TestPessimisticQ:
    """Each function that takes the ensemble reads its minimum over the members axis:
    compute_targets that of the targets, update_actor and td_error_stats that of the members."""

    @staticmethod
    def read_minima(members, targets, s, a):
        """(Qmin_target, Qmin, |Qmin - 100|) at (s, a), as the three functions read them.

        The policy puts all its mass on a, so with alpha 0 the backup is
        r + gamma * Qmin_target(s, a) and the actor loss is -Qmin(s, a); the TD
        row is terminal with r = 100, so its target is 100."""
        num_states, num_actions = members.shape[1:]
        cfg = LearnerConfig(gamma=0.5, alpha=0.0)
        probs = np.eye(num_actions)[np.full(num_states, a)]
        y, _ = compute_targets(columns_of([tr(r=0.0, s_next=s)]), probs, targets, None, cfg)
        loss = update_actor(np.where(probs == 1.0, 0.0, -1000.0), [s], members, cfg)
        td = td_error_stats(columns_of([tr(s=s, a=a, r=100.0, done=True)]), members, targets, probs, None, cfg)
        return y[0] / 0.5, -loss, td

    def test_two_member_min(self):
        members, targets = np.array([[[3.0]], [[5.0]]]), np.array([[[1.0]], [[2.0]]])
        assert self.read_minima(members, targets, 0, 0) == (1.0, 3.0, 97.0)

    def test_identical_members(self):
        members = np.array([[[4.0]], [[4.0]]])
        assert self.read_minima(members, members.copy(), 0, 0) == (4.0, 4.0, 96.0)

    def test_matches_scan(self):
        rng = np.random.default_rng(2)
        members = rng.normal(size=(5, 4, 3))
        targets = rng.normal(size=(5, 4, 3))
        for s in range(4):
            for a in range(3):
                qmin = min(members[i, s, a] for i in range(5))
                expected = (min(targets[i, s, a] for i in range(5)), qmin, abs(qmin - 100.0))
                assert self.read_minima(members, targets, s, a) == expected


class TestInitRandom:
    def test_members_are_uniform_init_noise_and_targets_copy_them(self, monkeypatch):
        # A run draws its members from the first of the four generators its seed spawns.
        grid = GridWorldSpec.from_ascii(["S.G", "XXX"], gamma=0.95)
        cfg = RunConfig(variant="guardian", grid=grid, learner=LearnerConfig(gamma=0.95),
                        dts=DtsConfig(1, 1, 1.0, 1), dss=DssConfig(0.1, 0.5, 1.0, 1),
                        total_steps=0, seed=5, ensemble_size=4)
        internals = record_run_internals(monkeypatch)
        run_training(cfg, dataset_of([tr(s=1, a=1, s_next=2)]))
        mdp, _ = build_cliff_grid(grid)
        rng = np.random.default_rng(np.random.SeedSequence(5).spawn(4)[0])
        expected = rng.uniform(-INIT_NOISE, INIT_NOISE, (4, mdp.num_states, mdp.num_actions))
        np.testing.assert_array_equal(internals.members, expected)
        np.testing.assert_array_equal(internals.targets, expected)
        assert internals.targets is not internals.members


class TestComputeGuardedTarget:
    def setup_method(self):
        self.spec = make_spec([[True, True], [True, False]])
        rng = np.random.default_rng(3)
        self.targets = rng.uniform(-INIT_NOISE, INIT_NOISE, size=(3, 2, 2))
        self.logits = rng.normal(size=(2, 2))

    def test_gamma_zero_gives_reward(self):
        cfg = LearnerConfig(gamma=0.0)
        assert target(tr(r=2.5, s_next=1), self.logits, self.targets, self.spec, cfg) == 2.5

    def test_terminal_gives_reward(self):
        cfg = LearnerConfig(gamma=0.9, alpha=0.3)
        y = target(tr(r=-1.0, done=True, s_next=1), self.logits, self.targets, self.spec, cfg)
        assert y == -1.0

    def test_single_safe_action_alpha_zero(self):
        # State 1 admits only action 0; after renormalization the policy is
        # deterministic, so y = r + gamma * min_i target_i(1, 0).
        cfg = LearnerConfig(gamma=0.9, alpha=0.0)
        y = target(tr(r=0.5, s_next=1), self.logits, self.targets, self.spec, cfg)
        expected = 0.5 + 0.9 * self.targets[:, 1, 0].min()
        assert y == pytest.approx(expected, abs=1e-12)

    def test_matches_manual_evaluation(self):
        cfg = LearnerConfig(gamma=0.8, alpha=0.2)
        record = tr(r=1.0, s_next=0)
        y = target(record, self.logits, self.targets, self.spec, cfg)
        probs = safe_probs(self.logits, 0, self.spec)
        qmin = self.targets.min(axis=0)[0]
        expected = 1.0 + 0.8 * (probs @ qmin + 0.2 * entropy(probs))
        assert y == pytest.approx(expected, abs=1e-12)

    def test_unguarded_uses_raw_policy(self):
        cfg = LearnerConfig(gamma=0.9, alpha=0.0)
        record = tr(r=0.0, s_next=1)
        y = target(record, self.logits, self.targets, None, cfg)
        probs = softmax(self.logits[1])
        expected = 0.9 * (probs @ self.targets.min(axis=0)[1])
        assert y == pytest.approx(expected, abs=1e-12)

    def test_guarded_target_never_reads_unsafe_entries(self):
        cfg = LearnerConfig(gamma=0.9, alpha=0.1)
        record = tr(r=0.0, s_next=1)
        clean = target(record, self.logits, self.targets, self.spec, cfg)
        poisoned = self.targets.copy()
        poisoned[:, 1, 1] = 1e12  # unsafe entry at the next state
        assert target(record, self.logits, poisoned, self.spec, cfg) == clean

    def test_target_bound_with_alpha_zero(self):
        rng = np.random.default_rng(4)
        cfg = LearnerConfig(gamma=0.9, alpha=0.0)
        r_max = 2.0
        for _ in range(100):
            record = tr(r=float(rng.uniform(-r_max, r_max)), s_next=int(rng.integers(2)))
            y = target(record, self.logits, self.targets, self.spec, cfg)
            assert abs(y) <= r_max + 0.9 * np.abs(self.targets).max() + 1e-12

    def test_starvation_counted(self):
        # Two safe actions at the next state, so the uniform fallback has
        # entropy log 2; the terminal row starves too but is not counted.
        spec = make_spec([[False, True, True]])
        probs = softmax(np.array([[60.0, -60.0, -60.0]]))  # all mass on the unsafe action
        targets = np.random.default_rng(0).uniform(-INIT_NOISE, INIT_NOISE, size=(2, 1, 3))
        batch = columns_of([tr(r=0.3, s_next=0), tr(r=-0.7, s_next=0, done=True)])
        q_safe_mean = targets.min(axis=0)[0, 1:].mean()
        cfg = LearnerConfig(gamma=0.9, alpha=0.4)
        y, starved = compute_targets(batch, probs, targets, spec, cfg)
        assert starved == 1
        expected = 0.3 + 0.9 * (q_safe_mean + 0.4 * math.log(2))
        assert y[0] == pytest.approx(expected, abs=1e-12)
        assert y[1] == -0.7


def per_row_targets(batch, logits, targets, spec, cfg):
    """Reference backup computed row by row: the next-state softmax, its safe
    renormalization, entropy and Qmin expectation are redone for every row."""
    r, s_next, done = batch.r, batch.s_next, batch.done
    probs = softmax(logits[s_next])
    starved_count = 0
    if spec is not None:
        probs, starved = renormalize_policy_safe(probs, spec.safe[s_next])
        starved_count = int(np.count_nonzero(starved & ~done))
    with np.errstate(divide="ignore", invalid="ignore"):
        plogp = np.where(probs > 0.0, probs * np.log(probs), 0.0)
    expectation = np.einsum("ij,ij->i", probs, targets.min(axis=0)[s_next])
    y = r + cfg.gamma * (expectation + cfg.alpha * -plogp.sum(axis=1))
    y[done] = r[done]
    return y, starved_count


class TestPerStateTargetsMatchPerRow:
    """compute_targets builds V once per state; it must equal the per-row backup bit for bit."""

    @pytest.mark.parametrize("seed", range(6), ids=[f"bonus-{seed}" for seed in range(6)])
    @pytest.mark.parametrize("guarded", [True, False], ids=["guarded", "unguarded"])
    def test_bit_identical(self, seed, guarded):
        rng = np.random.default_rng(seed)
        num_states, num_actions, size = int(rng.integers(3, 40)), int(rng.integers(2, 7)), 64
        safe = rng.random((num_states, num_actions)) < 0.6
        safe[np.arange(num_states), rng.integers(num_actions, size=num_states)] = True
        logits = rng.normal(scale=3.0, size=(num_states, num_actions))
        # A third of the states put all their mass on one unsafe action (starved).
        for s in rng.choice(num_states, size=num_states // 3, replace=False):
            if not safe[s].all():
                logits[s] = -60.0
                logits[s, np.flatnonzero(~safe[s])[0]] = 60.0
        targets = rng.uniform(-INIT_NOISE, INIT_NOISE, size=(3, num_states, num_actions))
        targets += rng.normal(size=targets.shape)
        batch = TransitionBatch(
            s=rng.integers(num_states, size=size),
            a=rng.integers(num_actions, size=size),
            r=rng.normal(size=size),
            s_next=rng.integers(num_states, size=size),  # repeats: 64 rows, at most 39 states
            done=rng.random(size) < 0.25,
        )
        spec = make_spec(safe) if guarded else None
        cfg = LearnerConfig(gamma=0.9, alpha=float(rng.uniform(0.0, 1.0)))
        y, starved = compute_targets(batch, softmax(logits), targets, spec, cfg)
        y_ref, starved_ref = per_row_targets(batch, logits, targets, spec, cfg)
        np.testing.assert_array_equal(y, y_ref)
        assert starved == starved_ref
        if guarded and seed == 0:
            assert starved > 0  # the case covers counted starved rows

    def test_starved_terminal_rows_are_not_counted(self):
        spec = make_spec([[False, True], [True, True]])
        logits = np.array([[60.0, -60.0], [0.0, 0.0]])
        targets = np.random.default_rng(1).uniform(-INIT_NOISE, INIT_NOISE, size=(2, 2, 2))
        batch = columns_of([tr(r=0.5, s_next=0, done=True), tr(r=0.1, s_next=0),
                            tr(r=0.2, s_next=1), tr(r=0.3, s_next=0, done=True)])
        cfg = LearnerConfig(gamma=0.9, alpha=0.2)
        y, starved = compute_targets(batch, softmax(logits), targets, spec, cfg)
        y_ref, starved_ref = per_row_targets(batch, logits, targets, spec, cfg)
        np.testing.assert_array_equal(y, y_ref)
        assert starved == starved_ref == 1
        assert y[0] == 0.5 and y[3] == 0.3


class TestUpdateCritics:
    def test_no_change_when_already_at_target(self):
        members = np.full((2, 1, 1), 3.0)
        update_critics(members, columns_of([tr()]), [3.0], LearnerConfig())
        assert np.all(members == 3.0)

    def test_full_step_sets_value_exactly(self):
        members = np.zeros((2, 1, 1))
        cfg = LearnerConfig(critic_lr=1.0)
        update_critics(members, columns_of([tr()]), [7.0], cfg)
        assert np.all(members[:, 0, 0] == 7.0)

    def test_repeated_pairs_fold_sequentially(self):
        rng = np.random.default_rng(5)
        cfg = LearnerConfig(critic_lr=0.3)
        members = rng.normal(size=(2, 3, 2))
        updated = members.copy()
        batch = [tr(s=0, a=1), tr(s=2, a=0), tr(s=0, a=1), tr(s=0, a=1), tr(s=2, a=0)]
        ys = rng.normal(size=len(batch))
        update_critics(updated, columns_of(batch), ys, cfg)

        # Oracle: replay the per-sample fold one record at a time.
        expected = members.copy()
        for record, y in zip(batch, ys):
            for i in range(2):
                cur = expected[i, record.s, record.a_exec]
                expected[i, record.s, record.a_exec] = cur + 0.3 * (y - cur)
        np.testing.assert_allclose(updated, expected, atol=1e-14)

    def test_length_mismatch_rejected(self):
        members = np.random.default_rng(0).uniform(-INIT_NOISE, INIT_NOISE, size=(2, 2, 2))
        with pytest.raises(ValueError):
            update_critics(members, columns_of([tr()]), [1.0, 2.0], LearnerConfig())


class TestUpdateActor:
    def test_flat_q_alpha_zero_is_stationary(self):
        members = np.ones((2, 1, 3))
        logits = np.array([[0.3, -0.2, 0.5]])
        before = logits.copy()
        update_actor(logits, [0], members, LearnerConfig(alpha=0.0))
        np.testing.assert_allclose(logits, before, atol=1e-15)

    def test_dominant_action_gains_probability(self):
        members = np.zeros((2, 1, 3))
        members[:, 0, 2] = 5.0
        logits = np.zeros((1, 3))
        cfg = LearnerConfig(alpha=0.0, actor_lr=0.5)
        probs = [softmax(logits[0])[2]]
        for _ in range(20):
            update_actor(logits, [0], members, cfg)
            probs.append(softmax(logits[0])[2])
        assert all(b > a for a, b in zip(probs, probs[1:]))

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            num_actions = int(rng.integers(2, 6))
            members = rng.normal(size=(2, 1, num_actions))
            logits = rng.normal(scale=2.0, size=(1, num_actions))
            alpha = float(rng.uniform(0.0, 1.0))
            cfg = LearnerConfig(alpha=alpha, actor_lr=1.0)
            updated = logits.copy()
            update_actor(updated, [0], members, cfg)
            analytic = (logits[0] - updated[0]) / cfg.actor_lr
            fd = finite_difference_gradient(logits[0], members.min(axis=0)[0], alpha)
            denom = max(float(np.max(np.abs(fd))), 1e-12)
            assert np.max(np.abs(analytic - fd)) / denom <= 1e-5

    def test_repeated_states_fold_sequentially(self):
        rng = np.random.default_rng(7)
        members = rng.normal(size=(2, 2, 3))
        cfg = LearnerConfig(alpha=0.3, actor_lr=0.2)
        states = [0, 1, 0, 0, 1]

        logits_fast = np.zeros((2, 3))
        loss_fast = update_actor(logits_fast, states, members, cfg)

        logits_slow = np.zeros((2, 3))
        losses = []
        for s in states:
            losses.append(update_actor(logits_slow, [s], members, cfg))
        np.testing.assert_allclose(logits_fast, logits_slow, atol=1e-14)
        assert loss_fast == pytest.approx(np.mean(losses), abs=1e-14)

    def test_mean_pre_update_loss_returned(self):
        members = np.zeros((2, 1, 2))
        cfg = LearnerConfig(alpha=1.0)
        # Uniform policy over 2 actions with Q = 0: loss = -H(pi) = -ln 2.
        loss = update_actor(np.zeros((1, 2)), [0], members, cfg)
        assert loss == pytest.approx(-math.log(2), abs=1e-12)

    def test_actor_never_sees_safety_predicate(self):
        assert "spec" not in inspect.signature(update_actor).parameters


def fold_case_keys(case, rng, num_states, num_actions):
    """(s, a) columns of one fold-test batch."""
    if case == "single":
        return rng.integers(num_states, size=1), rng.integers(num_actions, size=1)
    if case == "same-key":
        return np.full(64, rng.integers(num_states)), np.full(64, rng.integers(num_actions))
    if case == "distinct":
        return rng.permutation(num_states)[:32], rng.integers(num_actions, size=32)
    # "skewed": about 30 % of 256 rows share one (s, a) key.
    s, a = rng.integers(num_states, size=256), rng.integers(num_actions, size=256)
    heavy = rng.random(256) < 0.3
    s[heavy], a[heavy] = rng.integers(num_states), rng.integers(num_actions)
    return s, a


class TestFoldMatchesOneSampleCalls:
    """Batched updates equal a loop of one-sample calls bit for bit."""

    CASES = [("single", 0.3, 0.2), ("same-key", 0.3, 0.2), ("distinct", 0.3, 0.2),
             ("skewed", 0.3, 0.2), ("skewed", 1.0, 1.0)]

    @staticmethod
    def draw(case, seed):
        rng = np.random.default_rng(seed)
        s, a = fold_case_keys(case, rng, num_states=40, num_actions=4)
        batch = columns_of([tr(s=int(si), a=int(ai)) for si, ai in zip(s, a)])
        members = rng.normal(scale=2.0, size=(3, 40, 4))
        return batch, rng.normal(size=len(batch)), members, rng.normal(scale=3.0, size=(40, 4))

    @pytest.mark.parametrize("case, critic_lr, actor_lr", CASES)
    def test_update_critics(self, case, critic_lr, actor_lr):
        cfg = LearnerConfig(critic_lr=critic_lr, actor_lr=actor_lr)
        for seed in range(20):
            batch, y, members, _ = self.draw(case, seed)
            batched = members.copy()
            update_critics(batched, batch, y, cfg)
            loop = members.copy()
            for i in range(len(batch)):
                update_critics(loop, batch.take(np.array([i])), y[i:i + 1], cfg)
            np.testing.assert_array_equal(batched, loop)

    @pytest.mark.parametrize("case, critic_lr, actor_lr", CASES)
    def test_update_actor(self, case, critic_lr, actor_lr):
        cfg = LearnerConfig(alpha=0.3, critic_lr=critic_lr, actor_lr=actor_lr)
        for seed in range(20):
            batch, _, members, logits = self.draw(case, seed)
            batched = logits.copy()
            loss = update_actor(batched, batch.s, members, cfg)
            loop = logits.copy()
            losses = [update_actor(loop, [s], members, cfg) for s in batch.s]
            np.testing.assert_array_equal(batched, loop)
            np.testing.assert_array_equal(loss, np.mean(losses))


class TestSoftUpdateTargets:
    def test_tau_one_copies(self):
        members, targets = np.full((2, 1, 1), 3.0), np.zeros((2, 1, 1))
        soft_update_targets(members, targets, 1.0)
        np.testing.assert_array_equal(targets, members)

    def test_tau_half_midpoint(self):
        members, targets = np.full((2, 1, 1), 10.0), np.zeros((2, 1, 1))
        soft_update_targets(members, targets, 0.5)
        assert np.all(targets == 5.0)

    def test_geometric_convergence(self):
        members, targets = np.full((2, 1, 1), 4.0), np.zeros((2, 1, 1))
        tau = 0.25
        for k in range(1, 12):
            soft_update_targets(members, targets, tau)
            expected = 4.0 * (1 - (1 - tau) ** k)
            assert targets[0, 0, 0] == pytest.approx(expected, abs=1e-12)

    def test_fixed_point_iff_equal(self):
        rng = np.random.default_rng(8)
        members = rng.normal(size=(2, 3, 2))
        targets = members.copy()
        soft_update_targets(members, targets, 0.3)
        np.testing.assert_array_equal(targets, members)
        targets[0, 0, 0] += 1.0
        before = targets.copy()
        soft_update_targets(members, targets, 0.3)
        assert not np.array_equal(targets, before)

    def test_invalid_tau_rejected(self):
        members = np.random.default_rng(0).uniform(-INIT_NOISE, INIT_NOISE, size=(2, 1, 1))
        with pytest.raises(ValueError):
            soft_update_targets(members, members.copy(), 0.0)


class TestEnsembleVariance:
    def test_identical_members_zero(self):
        assert ensemble_variance(np.full((3, 2, 2), 1.5), columns_of([tr()])) == 0.0

    def test_two_member_population_variance(self):
        members = np.zeros((2, 1, 1))
        members[1] = 2.0
        assert ensemble_variance(members, columns_of([tr(), tr()])) == 1.0

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(9)
        members = rng.normal(size=(4, 5, 3))
        batch = [tr(s=int(rng.integers(5)), a=int(rng.integers(3))) for _ in range(40)]
        per_pair = []
        for record in batch:
            vals = [members[i, record.s, record.a_exec] for i in range(4)]
            mean = sum(vals) / 4
            per_pair.append(sum((v - mean) ** 2 for v in vals) / 4)
        assert ensemble_variance(members, columns_of(batch)) == pytest.approx(np.mean(per_pair), abs=1e-12)


class TestEmptyBatches:
    """Every batch update and query refuses an empty batch before touching a table."""

    def setup_method(self):
        self.members, self.targets = np.zeros((2, 2, 2)), np.zeros((2, 2, 2))
        self.logits = np.zeros((2, 2))

    def test_compute_targets(self):
        with pytest.raises(ValueError, match="^batch must be non-empty$"):
            compute_targets(TransitionBatch.zeros(0), softmax(self.logits), self.targets, None, LearnerConfig())

    def test_update_critics(self):
        with pytest.raises(ValueError, match="^batch must be non-empty$"):
            update_critics(self.members, TransitionBatch.zeros(0), np.zeros(0), LearnerConfig())

    def test_update_actor(self):
        with pytest.raises(ValueError, match="^states must be non-empty$"):
            update_actor(self.logits, [], self.members, LearnerConfig())

    def test_ensemble_variance(self):
        with pytest.raises(ValueError, match="^batch must be non-empty$"):
            ensemble_variance(self.members, TransitionBatch.zeros(0))


class TestLearnerConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"alpha": -0.1},
            {"tau": 0.0},
            {"tau": 1.5},
            {"gamma": 1.0},
            {"critic_lr": 0.0},
            {"critic_lr": 3.0},
            {"actor_lr": 1.5},
            {"actor_lr": float("nan")},
            {"alpha": float("nan")},
            {"alpha": float("inf")},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            LearnerConfig(**kwargs)
