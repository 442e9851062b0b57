"""Ensemble critic, tabular actor, and backup-target tests."""

import inspect
import math

import numpy as np
import pytest
from columns import actor_loss, columns_of

from guardedrl.guardian import renormalize_policy_safe
from guardedrl.learner import (
    INIT_NOISE,
    LearnerConfig,
    QEnsemble,
    compute_targets,
    ensemble_variance,
    soft_update_targets,
    softmax,
    update_actor,
    update_critics,
)
from guardedrl.mdp import SafetySpec
from guardedrl.sampling import TransitionBatch, TransitionRecord


def make_spec(safe, dim=None):
    safe = np.asarray(safe, dtype=bool)
    return SafetySpec(safe=safe, action_embedding=np.eye(safe.shape[1]))


def tr(s=0, a=0, r=0.0, s_next=0, done=False, t=0, ep=0):
    return TransitionRecord(s=s, a_exec=a, r=r, s_next=s_next, done=done, t=t, episode=ep)


def entropy(probs):
    """Reference Shannon entropy in nats, 0 * log 0 = 0."""
    return float(-np.sum(probs[probs > 0.0] * np.log(probs[probs > 0.0])))


def target(record, logits, ens, spec, cfg):
    """Backup target of a one-row batch under the policy softmax(logits)."""
    y, _ = compute_targets(columns_of([record]), softmax(logits), ens, spec, cfg)
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
    def test_two_member_min(self):
        ens = QEnsemble(members=[[[3.0]], [[5.0]]], targets=[[[1.0]], [[2.0]]])
        assert ens.min_members()[0, 0] == 3.0
        assert ens.min_targets()[0, 0] == 1.0

    def test_identical_members(self):
        ens = QEnsemble(members=[[[4.0]], [[4.0]]], targets=[[[4.0]], [[4.0]]])
        assert ens.min_members()[0, 0] == 4.0

    def test_matches_scan(self):
        rng = np.random.default_rng(2)
        members = rng.normal(size=(5, 4, 3))
        ens = QEnsemble(members=members, targets=members.copy())
        for s in range(4):
            for a in range(3):
                assert ens.min_members()[s, a] == min(members[i, s, a] for i in range(5))


class TestInitRandom:
    def test_generator_is_a_required_keyword(self):
        # An unseeded default would make reruns differ.
        with pytest.raises(TypeError):
            QEnsemble.init_random(2, 2)
        with pytest.raises(TypeError):
            QEnsemble.init_random(2, 2, 2, np.random.default_rng(0))

    def test_members_are_uniform_init_noise_and_targets_copy_them(self):
        ens = QEnsemble.init_random(3, 2, size=4, rng=np.random.default_rng(5))
        expected = np.random.default_rng(5).uniform(-INIT_NOISE, INIT_NOISE, size=(4, 3, 2))
        np.testing.assert_array_equal(ens.members, expected)
        np.testing.assert_array_equal(ens.targets, expected)
        assert ens.targets is not ens.members


class TestComputeGuardedTarget:
    def setup_method(self):
        self.spec = make_spec([[True, True], [True, False]])
        rng = np.random.default_rng(3)
        self.ens = QEnsemble.init_random(2, 2, size=3, rng=rng)
        self.logits = rng.normal(size=(2, 2))

    def test_gamma_zero_gives_reward(self):
        cfg = LearnerConfig(gamma=0.0)
        assert target(tr(r=2.5, s_next=1), self.logits, self.ens, self.spec, cfg) == 2.5

    def test_terminal_gives_reward(self):
        cfg = LearnerConfig(gamma=0.9, alpha=0.3)
        y = target(tr(r=-1.0, done=True, s_next=1), self.logits, self.ens, self.spec, cfg)
        assert y == -1.0

    def test_single_safe_action_alpha_zero(self):
        # State 1 admits only action 0; after renormalization the policy is
        # deterministic, so y = r + gamma * min_i target_i(1, 0).
        cfg = LearnerConfig(gamma=0.9, alpha=0.0)
        y = target(tr(r=0.5, s_next=1), self.logits, self.ens, self.spec, cfg)
        expected = 0.5 + 0.9 * self.ens.targets[:, 1, 0].min()
        assert y == pytest.approx(expected, abs=1e-12)

    def test_matches_manual_evaluation(self):
        cfg = LearnerConfig(gamma=0.8, alpha=0.2)
        record = tr(r=1.0, s_next=0)
        y = target(record, self.logits, self.ens, self.spec, cfg)
        probs = safe_probs(self.logits, 0, self.spec)
        qmin = self.ens.targets.min(axis=0)[0]
        expected = 1.0 + 0.8 * (probs @ qmin + 0.2 * entropy(probs))
        assert y == pytest.approx(expected, abs=1e-12)

    def test_unguarded_uses_raw_policy(self):
        cfg = LearnerConfig(gamma=0.9, alpha=0.0)
        record = tr(r=0.0, s_next=1)
        y = target(record, self.logits, self.ens, None, cfg)
        probs = softmax(self.logits[1])
        expected = 0.9 * (probs @ self.ens.targets.min(axis=0)[1])
        assert y == pytest.approx(expected, abs=1e-12)

    def test_guarded_target_never_reads_unsafe_entries(self):
        cfg = LearnerConfig(gamma=0.9, alpha=0.1)
        record = tr(r=0.0, s_next=1)
        clean = target(record, self.logits, self.ens, self.spec, cfg)
        poisoned = QEnsemble(members=self.ens.members.copy(), targets=self.ens.targets.copy())
        poisoned.targets[:, 1, 1] = 1e12  # unsafe entry at the next state
        assert target(record, self.logits, poisoned, self.spec, cfg) == clean

    def test_target_bound_with_alpha_zero(self):
        rng = np.random.default_rng(4)
        cfg = LearnerConfig(gamma=0.9, alpha=0.0)
        r_max = 2.0
        for _ in range(100):
            record = tr(r=float(rng.uniform(-r_max, r_max)), s_next=int(rng.integers(2)))
            y = target(record, self.logits, self.ens, self.spec, cfg)
            assert abs(y) <= r_max + 0.9 * np.abs(self.ens.targets).max() + 1e-12

    def test_starvation_counted(self):
        # Two safe actions at the next state, so the uniform fallback has
        # entropy log 2; the terminal row starves too but is not counted.
        spec = make_spec([[False, True, True]])
        probs = softmax(np.array([[60.0, -60.0, -60.0]]))  # all mass on the unsafe action
        ens = QEnsemble.init_random(1, 3, rng=np.random.default_rng(0))
        batch = columns_of([tr(r=0.3, s_next=0), tr(r=-0.7, s_next=0, done=True)])
        q_safe_mean = ens.min_targets()[0, 1:].mean()
        cfg = LearnerConfig(gamma=0.9, alpha=0.4)
        y, starved = compute_targets(batch, probs, ens, spec, cfg)
        assert starved == 1
        expected = 0.3 + 0.9 * (q_safe_mean + 0.4 * math.log(2))
        assert y[0] == pytest.approx(expected, abs=1e-12)
        assert y[1] == -0.7


def per_row_targets(batch, logits, ens, spec, cfg):
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
    expectation = np.einsum("ij,ij->i", probs, ens.min_targets()[s_next])
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
        ens = QEnsemble.init_random(num_states, num_actions, size=3, rng=rng)
        ens.targets += rng.normal(size=ens.targets.shape)
        batch = TransitionBatch(
            s=rng.integers(num_states, size=size),
            a=rng.integers(num_actions, size=size),
            r=rng.normal(size=size),
            s_next=rng.integers(num_states, size=size),  # repeats: 64 rows, at most 39 states
            done=rng.random(size) < 0.25,
        )
        spec = make_spec(safe) if guarded else None
        cfg = LearnerConfig(gamma=0.9, alpha=float(rng.uniform(0.0, 1.0)))
        y, starved = compute_targets(batch, softmax(logits), ens, spec, cfg)
        y_ref, starved_ref = per_row_targets(batch, logits, ens, spec, cfg)
        np.testing.assert_array_equal(y, y_ref)
        assert starved == starved_ref
        if guarded and seed == 0:
            assert starved > 0  # the case covers counted starved rows

    def test_starved_terminal_rows_are_not_counted(self):
        spec = make_spec([[False, True], [True, True]])
        logits = np.array([[60.0, -60.0], [0.0, 0.0]])
        ens = QEnsemble.init_random(2, 2, rng=np.random.default_rng(1))
        batch = columns_of([tr(r=0.5, s_next=0, done=True), tr(r=0.1, s_next=0),
                            tr(r=0.2, s_next=1), tr(r=0.3, s_next=0, done=True)])
        cfg = LearnerConfig(gamma=0.9, alpha=0.2)
        y, starved = compute_targets(batch, softmax(logits), ens, spec, cfg)
        y_ref, starved_ref = per_row_targets(batch, logits, ens, spec, cfg)
        np.testing.assert_array_equal(y, y_ref)
        assert starved == starved_ref == 1
        assert y[0] == 0.5 and y[3] == 0.3


class TestUpdateCritics:
    def test_no_change_when_already_at_target(self):
        ens = QEnsemble(members=np.full((2, 1, 1), 3.0), targets=np.full((2, 1, 1), 3.0))
        update_critics(ens, columns_of([tr()]), [3.0], LearnerConfig())
        assert np.all(ens.members == 3.0)

    def test_full_step_sets_value_exactly(self):
        ens = QEnsemble(members=np.zeros((2, 1, 1)), targets=np.zeros((2, 1, 1)))
        cfg = LearnerConfig(critic_lr=1.0)
        update_critics(ens, columns_of([tr()]), [7.0], cfg)
        assert np.all(ens.members[:, 0, 0] == 7.0)

    def test_repeated_pairs_fold_sequentially(self):
        rng = np.random.default_rng(5)
        cfg = LearnerConfig(critic_lr=0.3)
        members = rng.normal(size=(2, 3, 2))
        ens = QEnsemble(members=members.copy(), targets=members.copy())
        batch = [tr(s=0, a=1), tr(s=2, a=0), tr(s=0, a=1), tr(s=0, a=1), tr(s=2, a=0)]
        ys = rng.normal(size=len(batch))
        update_critics(ens, columns_of(batch), ys, cfg)

        # Oracle: replay the per-sample fold one record at a time.
        expected = members.copy()
        for record, y in zip(batch, ys):
            for i in range(2):
                cur = expected[i, record.s, record.a_exec]
                expected[i, record.s, record.a_exec] = cur + 0.3 * (y - cur)
        np.testing.assert_allclose(ens.members, expected, atol=1e-14)

    def test_length_mismatch_rejected(self):
        ens = QEnsemble.init_random(2, 2, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            update_critics(ens, columns_of([tr()]), [1.0, 2.0], LearnerConfig())


class TestUpdateActor:
    def test_flat_q_alpha_zero_is_stationary(self):
        ens = QEnsemble(members=np.ones((2, 1, 3)), targets=np.ones((2, 1, 3)))
        logits = np.array([[0.3, -0.2, 0.5]])
        before = logits.copy()
        update_actor(logits, [0], ens, LearnerConfig(alpha=0.0))
        np.testing.assert_allclose(logits, before, atol=1e-15)

    def test_dominant_action_gains_probability(self):
        members = np.zeros((2, 1, 3))
        members[:, 0, 2] = 5.0
        ens = QEnsemble(members=members, targets=members.copy())
        logits = np.zeros((1, 3))
        cfg = LearnerConfig(alpha=0.0, actor_lr=0.5)
        probs = [softmax(logits[0])[2]]
        for _ in range(20):
            update_actor(logits, [0], ens, cfg)
            probs.append(softmax(logits[0])[2])
        assert all(b > a for a, b in zip(probs, probs[1:]))

    def test_gradient_matches_central_differences(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            num_actions = int(rng.integers(2, 6))
            members = rng.normal(size=(2, 1, num_actions))
            ens = QEnsemble(members=members, targets=members.copy())
            logits = rng.normal(scale=2.0, size=(1, num_actions))
            alpha = float(rng.uniform(0.0, 1.0))
            cfg = LearnerConfig(alpha=alpha, actor_lr=1.0)
            updated = logits.copy()
            update_actor(updated, [0], ens, cfg)
            analytic = (logits[0] - updated[0]) / cfg.actor_lr
            fd = finite_difference_gradient(logits[0], ens.min_members()[0], alpha)
            denom = max(float(np.max(np.abs(fd))), 1e-12)
            assert np.max(np.abs(analytic - fd)) / denom <= 1e-5

    def test_repeated_states_fold_sequentially(self):
        rng = np.random.default_rng(7)
        members = rng.normal(size=(2, 2, 3))
        ens = QEnsemble(members=members, targets=members.copy())
        cfg = LearnerConfig(alpha=0.3, actor_lr=0.2)
        states = [0, 1, 0, 0, 1]

        logits_fast = np.zeros((2, 3))
        loss_fast = update_actor(logits_fast, states, ens, cfg)

        logits_slow = np.zeros((2, 3))
        losses = []
        for s in states:
            losses.append(update_actor(logits_slow, [s], ens, cfg))
        np.testing.assert_allclose(logits_fast, logits_slow, atol=1e-14)
        assert loss_fast == pytest.approx(np.mean(losses), abs=1e-14)

    def test_mean_pre_update_loss_returned(self):
        members = np.zeros((2, 1, 2))
        ens = QEnsemble(members=members, targets=members.copy())
        cfg = LearnerConfig(alpha=1.0)
        # Uniform policy over 2 actions with Q = 0: loss = -H(pi) = -ln 2.
        loss = update_actor(np.zeros((1, 2)), [0], ens, cfg)
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
            ens = QEnsemble(members, members)
            update_critics(ens, batch, y, cfg)
            loop = QEnsemble(members, members)
            for i in range(len(batch)):
                update_critics(loop, batch.take(np.array([i])), y[i:i + 1], cfg)
            np.testing.assert_array_equal(ens.members, loop.members)

    @pytest.mark.parametrize("case, critic_lr, actor_lr", CASES)
    def test_update_actor(self, case, critic_lr, actor_lr):
        cfg = LearnerConfig(alpha=0.3, critic_lr=critic_lr, actor_lr=actor_lr)
        for seed in range(20):
            batch, _, members, logits = self.draw(case, seed)
            ens = QEnsemble(members, members)
            batched = logits.copy()
            loss = update_actor(batched, batch.s, ens, cfg)
            loop = logits.copy()
            losses = [update_actor(loop, [s], ens, cfg) for s in batch.s]
            np.testing.assert_array_equal(batched, loop)
            np.testing.assert_array_equal(loss, np.mean(losses))


class TestSoftUpdateTargets:
    def test_tau_one_copies(self):
        ens = QEnsemble(members=np.full((2, 1, 1), 3.0), targets=np.zeros((2, 1, 1)))
        soft_update_targets(ens, 1.0)
        np.testing.assert_array_equal(ens.targets, ens.members)

    def test_tau_half_midpoint(self):
        ens = QEnsemble(members=np.full((2, 1, 1), 10.0), targets=np.zeros((2, 1, 1)))
        soft_update_targets(ens, 0.5)
        assert np.all(ens.targets == 5.0)

    def test_geometric_convergence(self):
        ens = QEnsemble(members=np.full((2, 1, 1), 4.0), targets=np.zeros((2, 1, 1)))
        tau = 0.25
        for k in range(1, 12):
            soft_update_targets(ens, tau)
            expected = 4.0 * (1 - (1 - tau) ** k)
            assert ens.targets[0, 0, 0] == pytest.approx(expected, abs=1e-12)

    def test_fixed_point_iff_equal(self):
        rng = np.random.default_rng(8)
        members = rng.normal(size=(2, 3, 2))
        ens = QEnsemble(members=members, targets=members.copy())
        soft_update_targets(ens, 0.3)
        np.testing.assert_array_equal(ens.targets, ens.members)
        ens.targets[0, 0, 0] += 1.0
        before = ens.targets.copy()
        soft_update_targets(ens, 0.3)
        assert not np.array_equal(ens.targets, before)

    def test_invalid_tau_rejected(self):
        ens = QEnsemble.init_random(1, 1, rng=np.random.default_rng(0))
        with pytest.raises(ValueError):
            soft_update_targets(ens, 0.0)


class TestEnsembleVariance:
    def test_identical_members_zero(self):
        ens = QEnsemble(members=np.full((3, 2, 2), 1.5), targets=np.full((3, 2, 2), 1.5))
        assert ensemble_variance(ens, columns_of([tr()])) == 0.0

    def test_two_member_population_variance(self):
        members = np.zeros((2, 1, 1))
        members[1] = 2.0
        ens = QEnsemble(members=members, targets=members.copy())
        assert ensemble_variance(ens, columns_of([tr(), tr()])) == 1.0

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(9)
        members = rng.normal(size=(4, 5, 3))
        ens = QEnsemble(members=members, targets=members.copy())
        batch = [tr(s=int(rng.integers(5)), a=int(rng.integers(3))) for _ in range(40)]
        per_pair = []
        for record in batch:
            vals = [members[i, record.s, record.a_exec] for i in range(4)]
            mean = sum(vals) / 4
            per_pair.append(sum((v - mean) ** 2 for v in vals) / 4)
        assert ensemble_variance(ens, columns_of(batch)) == pytest.approx(np.mean(per_pair), abs=1e-12)


class TestEmptyBatches:
    """Every batch update and query refuses an empty batch before touching a table."""

    def setup_method(self):
        self.ens = QEnsemble(members=np.zeros((2, 2, 2)), targets=np.zeros((2, 2, 2)))
        self.logits = np.zeros((2, 2))

    def test_compute_targets(self):
        with pytest.raises(ValueError, match="^batch must be non-empty$"):
            compute_targets(TransitionBatch.zeros(0), softmax(self.logits), self.ens, None, LearnerConfig())

    def test_update_critics(self):
        with pytest.raises(ValueError, match="^batch must be non-empty$"):
            update_critics(self.ens, TransitionBatch.zeros(0), np.zeros(0), LearnerConfig())

    def test_update_actor(self):
        with pytest.raises(ValueError, match="^states must be non-empty$"):
            update_actor(self.logits, [], self.ens, LearnerConfig())

    def test_ensemble_variance(self):
        with pytest.raises(ValueError, match="^batch must be non-empty$"):
            ensemble_variance(self.ens, TransitionBatch.zeros(0))


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
