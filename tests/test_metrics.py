"""Metric definitions against independent recomputation oracles."""

import math

import numpy as np
import pytest
from columns import columns_of, dataset_of

from guardedrl.envs import (
    NOOP,
    RIGHT,
    UP,
    GridWorldSpec,
    build_cliff_grid,
    collect_offline_dataset,
    uniform_safe_policy,
)
from guardedrl.learner import LearnerConfig, PolicyTable, QEnsemble, softmax
from guardedrl.metrics import (
    action_novelty_rate,
    coverage_count,
    support_kl,
    td_error_stats,
    visitation_entropy,
)
from guardedrl.mdp import NEAR_MISS_MARGIN, SafetySpec
from guardedrl.sampling import DssConfig, DtsConfig, TransitionRecord
from guardedrl.trainer import RunConfig, run_training


def tr(s=0, a=0, r=0.0, s_next=0, done=False, t=0, ep=0):
    return TransitionRecord(s=s, a_exec=a, r=r, s_next=s_next, done=done, t=t, episode=ep)


class TestVisitationStats:
    """Coverage and entropy over per-state visit counts (visits[s] += 1 per executed step)."""

    def test_coverage_counts_distinct_states(self):
        visits = np.zeros(5, dtype=np.int64)
        assert coverage_count(visits) == 0
        for s in range(5):
            visits[s] += 1
        assert coverage_count(visits) == 5
        visits[3] += 1
        assert coverage_count(visits) == 5

    def test_coverage_monotone(self):
        rng = np.random.default_rng(0)
        visits = np.zeros(10, dtype=np.int64)
        last = 0
        for _ in range(100):
            visits[int(rng.integers(10))] += 1
            cov = coverage_count(visits)
            assert cov >= last
            last = cov

    def test_entropy_trivial_cases(self):
        visits = np.zeros(4, dtype=np.int64)
        assert visitation_entropy(visits) is None  # undefined before any visit
        visits[2] += 2
        assert visitation_entropy(visits) == 0.0

    def test_entropy_uniform(self):
        visits = np.ones(6, dtype=np.int64)
        assert visitation_entropy(visits) == pytest.approx(math.log(6), abs=1e-12)

    def test_entropy_three_one_split(self):
        visits = np.array([3, 1], dtype=np.int64)
        expected = -(0.75 * math.log(0.75) + 0.25 * math.log(0.25))
        assert visitation_entropy(visits) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.5623, abs=5e-5)


class TestTdErrorStats:
    def test_gamma_zero_gives_mean_abs_reward(self):
        spec = SafetySpec(safe=np.ones((3, 2), dtype=bool), action_embedding=np.eye(2))
        ens = QEnsemble(members=np.zeros((2, 3, 2)), targets=np.zeros((2, 3, 2)))
        pol = PolicyTable.zeros(3, 2)
        cfg = LearnerConfig(gamma=0.0)
        batch = columns_of([tr(r=1.0), tr(r=-2.0), tr(r=0.5)])
        assert td_error_stats(batch, ens, pol, spec, cfg) == pytest.approx(3.5 / 3)

    def test_converged_q_on_deterministic_mdp(self):
        grid = GridWorldSpec(width=4, height=1, start=(0, 0), goal=(3, 0),
                             slip_prob=0.0, gamma=0.9)
        mdp, spec = build_cliff_grid(grid)
        # Essentially deterministic RIGHT policy.
        logits = np.full((mdp.num_states, 5), -50.0)
        logits[:, RIGHT] = 50.0
        pol = PolicyTable(logits)
        # Policy-evaluation oracle for that policy, iterated to a fixed point.
        q = np.zeros((mdp.num_states, 5))
        for _ in range(400):
            cont = np.where(mdp.terminal, 0.0, q[:, RIGHT])
            q = mdp.reward + mdp.gamma * (mdp.transition @ cont)
        ens = QEnsemble(members=np.stack([q, q]), targets=np.stack([q, q]))
        behavior = np.zeros((mdp.num_states, 5))
        behavior[:, RIGHT] = 1.0
        ds = collect_offline_dataset(mdp, spec, behavior, n_episodes=3, max_ep_len=10,
                                     seed=0, start_state=grid.start_state)
        batch = ds.transitions
        cfg = LearnerConfig(gamma=0.9, alpha=0.0)
        assert td_error_stats(batch, ens, pol, spec, cfg) <= 1e-9

    def test_matches_manual_recomputation(self):
        rng = np.random.default_rng(1)
        num_states, num_actions = 6, 4
        safe = rng.random((num_states, num_actions)) < 0.6
        safe[~safe.any(axis=1), 0] = True
        spec = SafetySpec(safe=safe, action_embedding=np.eye(num_actions))
        ens = QEnsemble.init_random(num_states, num_actions, size=3, rng=rng)
        pol = PolicyTable(rng.normal(size=(num_states, num_actions)))
        cfg = LearnerConfig(gamma=0.85, alpha=0.2)
        batch = [
            tr(s=int(rng.integers(num_states)), a=int(rng.integers(num_actions)),
               r=float(rng.normal()), s_next=int(rng.integers(num_states)),
               done=bool(rng.random() < 0.2))
            for _ in range(50)
        ]
        errors = []
        qmin_members = ens.members.min(axis=0)
        qmin_targets = ens.targets.min(axis=0)
        for record in batch:
            if record.done:
                y = record.r
            else:
                masked = np.where(spec.safe[record.s_next], softmax(pol.logits[record.s_next]), 0.0)
                probs = masked / masked.sum()
                entropy = -np.sum(probs[probs > 0.0] * np.log(probs[probs > 0.0]))
                y = record.r + cfg.gamma * (
                    probs @ qmin_targets[record.s_next] + cfg.alpha * entropy
                )
            errors.append(abs(qmin_members[record.s, record.a_exec] - y))
        observed = td_error_stats(columns_of(batch), ens, pol, spec, cfg)
        assert observed == pytest.approx(np.mean(errors), abs=1e-12)


class TestSupportKl:
    def test_identical_policies_zero(self):
        p = softmax(np.random.default_rng(2).normal(size=(4, 3)))
        assert support_kl(p, p, np.ones(4)) == pytest.approx(0.0, abs=1e-12)

    def test_hand_two_action_instance(self):
        final = np.array([[1.0, 0.0]])
        bc = np.array([[0.5, 0.5]])
        assert support_kl(final, bc, np.ones(1)) == pytest.approx(math.log(2), abs=1e-12)

    def test_nonnegative_on_random_pairs(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            final = rng.dirichlet(np.ones(4), size=5)
            bc = rng.dirichlet(np.ones(4), size=5) + 1e-3
            bc /= bc.sum(axis=1, keepdims=True)
            weights = rng.random(5)
            assert support_kl(final, bc, weights) >= -1e-12

    def test_rejects_unsmoothed_bc(self):
        with pytest.raises(ValueError, match="strictly positive"):
            support_kl(np.array([[1.0, 0.0]]), np.array([[1.0, 0.0]]), np.ones(1))

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(6)
        final = rng.dirichlet(np.ones(5), size=7)
        bc = rng.dirichlet(np.full(5, 2.0), size=7) + 1e-4
        bc /= bc.sum(axis=1, keepdims=True)
        weights = rng.random(7)
        w = weights / weights.sum()
        expected = 0.0
        for s in range(7):
            for a in range(5):
                if final[s, a] > 0.0:
                    expected += w[s] * final[s, a] * math.log(final[s, a] / bc[s, a])
        assert support_kl(final, bc, weights) == pytest.approx(expected, abs=1e-9)


class TestActionNoveltyRate:
    def test_zero_when_matching_bc(self):
        bc = np.array([[0.7, 0.3], [0.2, 0.8]])
        assert action_novelty_rate(bc, bc, eps=0.05) == 0.0

    def test_one_when_argmax_unsupported(self):
        records = [tr(s=0, a=2, s_next=1, t=0, ep=ep) for ep in range(100)]
        from guardedrl.sampling import derive_bc_policy

        bc = derive_bc_policy(dataset_of(records), num_states=1,
                              num_actions=4)
        final = np.array([[1.0, 0.0, 0.0, 0.0]])  # argmax on a never-taken action
        assert bc[0, 0] < 0.05
        assert action_novelty_rate(final, bc) == 1.0

    def test_rate_is_the_share_over_all_states(self):
        bc = np.array([[0.9, 0.1], [0.99, 0.01], [0.02, 0.98], [0.5, 0.5]])
        final = np.array([[0.0, 1.0], [0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        # Greedy actions 1, 1, 0, 0: BC supports them with 0.1, 0.01, 0.02, 0.5.
        assert action_novelty_rate(final, bc, eps=0.05) == 0.5

    def test_argmax_tie_breaks_low(self):
        final = np.array([[0.5, 0.5]])
        bc = np.array([[0.9, 0.01]])
        # Tie resolves to action 0, whose BC probability is large.
        assert action_novelty_rate(final, bc) == 0.0


class TestShadowRates:
    """Pre-guard violation and near-miss rates, counted from spec.safe and near_miss_table."""

    def grid(self):
        spec = GridWorldSpec(width=3, height=2, start=(0, 0), goal=(2, 0),
                             hazards=frozenset({(1, 1)}))
        return spec, *build_cliff_grid(spec)

    @staticmethod
    def rates(proposals, safety):
        """What the trainer logs for an interval with these (s, a_prop) proposals."""
        violations = sum(not safety.safe[s, a] for s, a in proposals)
        near = sum(safety.near_miss_table[s][a] for s, a in proposals)
        return violations / len(proposals), near / len(proposals)

    def test_all_safe_and_far(self):
        _, _, safety = self.grid()
        proposals = [(0, NOOP)]  # state (0,0): all actions safe
        assert self.rates(proposals, safety) == (0.0, 0.0)

    def test_all_unsafe_proposals(self):
        grid, _, safety = self.grid()
        s = grid.state_index((1, 0))  # UP leads into the hazard
        proposals = [(s, UP) for _ in range(4)]
        assert self.rates(proposals, safety) == (1.0, 0.0)

    def test_near_miss_noop_next_to_hazard(self):
        grid, _, safety = self.grid()
        s = grid.state_index((1, 0))
        proposals = [(s, NOOP) for _ in range(3)]  # |NOOP - UP| = 1 < 1.5
        assert self.rates(proposals, safety) == (0.0, 1.0)

    def test_categories_disjoint(self):
        grid, _, safety = self.grid()
        rng = np.random.default_rng(4)
        proposals = [
            (int(rng.integers(grid.num_states)), int(rng.integers(5))) for _ in range(300)
        ]
        violation, near = self.rates(proposals, safety)
        assert 0.0 <= violation <= 1.0 and 0.0 <= near <= 1.0
        assert violation + near <= 1.0
        assert not np.any(np.array(safety.near_miss_table) & ~safety.safe)

    def test_matches_per_record_oracle(self):
        grid, _, safety = self.grid()
        rng = np.random.default_rng(7)
        proposals = [
            (int(rng.integers(grid.num_states)), int(rng.integers(5))) for _ in range(200)
        ]
        violations = near = 0
        for s, a_prop in proposals:
            if not safety.safe[s, a_prop]:
                violations += 1
                continue
            best = math.inf
            for a in range(5):
                if not safety.safe[s, a]:
                    gap = safety.action_embedding[a] - safety.action_embedding[a_prop]
                    best = min(best, math.sqrt(float(gap @ gap)))
            if best < 1.5:
                near += 1
        assert NEAR_MISS_MARGIN == 1.5
        assert near > 0
        assert self.rates(proposals, safety) == (violations / 200, near / 200)

    def test_requires_proposals(self):
        # offline_only never proposes: every interval logs null rates.
        grid, mdp, safety = self.grid()
        offline = collect_offline_dataset(mdp, safety, uniform_safe_policy(safety), n_episodes=5,
                                          max_ep_len=10, seed=0, start_state=grid.start_state)
        cfg = RunConfig(
            variant="offline_only", grid=grid, learner=LearnerConfig(gamma=grid.gamma),
            dts=DtsConfig(1, 4, 2.0, horizon=20), dss=DssConfig(0.1, 0.5, 0.5, horizon=20),
            total_steps=20, seed=0, batch_size=8, eval_every=10, eval_episodes=1,
        )
        for rec in run_training(cfg, offline).records:
            assert rec["pre_guard_violation_rate"] is None and rec["near_miss_rate"] is None
