"""Training-loop orchestration, evaluation, and run-log contracts."""

import math
import re
import statistics
from itertools import accumulate

import numpy as np
import pytest
from columns import dataset_of, record_run_internals, ring_rows

from guardedrl.envs import (
    RIGHT,
    UP,
    GridWorldSpec,
    build_cliff_grid,
    collect_offline_dataset,
    env_step,
    uniform_safe_policy,
)
from guardedrl import trainer
from guardedrl.guardian import project_action
from guardedrl.learner import LearnerConfig, soft_update_targets, softmax, update_actor
from guardedrl.mdp import categorical_draw
from guardedrl.sampling import DssConfig, DtsConfig
from guardedrl.trainer import (
    RunConfig,
    RunLog,
    evaluate_policy,
    measure_ttfv,
    run_training,
)

CLIFF_MAP = [
    ".....",
    ".....",
    "S...G",
    "XXXXX",
]


def make_grid(slip=0.0, **kw):
    defaults = dict(gamma=0.95, step_reward=-0.02, goal_reward=1.0, hazard_reward=-1.0)
    defaults.update(kw)
    return GridWorldSpec.from_ascii(CLIFF_MAP, slip_prob=slip, **defaults)


def make_dataset(grid, episodes=60, seed=11):
    mdp, spec = build_cliff_grid(grid)
    return collect_offline_dataset(
        mdp, spec, uniform_safe_policy(spec), n_episodes=episodes, max_ep_len=40,
        seed=seed, start_state=grid.start_state,
    )


def make_config(grid, variant="guardian", total_steps=300, seed=0, **kw):
    defaults = dict(
        ensemble_size=2,
        batch_size=16,
        eval_every=100,
        eval_episodes=3,
        eval_max_len=40,
        ttfv_episodes=3,
        ttfv_max_steps=60,
        max_episode_len=60,
        online_buffer_capacity=2000,
    )
    defaults.update(kw)
    horizon = max(total_steps, 1)
    return RunConfig(
        variant=variant,
        grid=grid,
        learner=LearnerConfig(alpha=0.01, tau=0.05, gamma=grid.gamma,
                              critic_lr=0.2, actor_lr=0.2),
        dts=DtsConfig(delta_min=1, delta_max=8, beta=2.0, horizon=horizon),
        dss=DssConfig(lambda_min=0.1, lambda_max=0.5, k=10.0 / horizon, horizon=horizon),
        total_steps=total_steps,
        seed=seed,
        **defaults,
    )


# Start states that are not states of make_grid()'s 20-state MDP, and the refusal of each.
OFF_GRID_STARTS = [
    (-1, "start_state must be >= 0, got -1"), (20, "start_state must be < 20, got 20"),
    (99, "start_state must be < 20, got 99"), (2.0, "start_state must be an integer, got 2.0"),
]


@pytest.fixture(scope="module")
def grid():
    return make_grid()


@pytest.fixture(scope="module")
def dataset(grid):
    return make_dataset(grid)


class TestRunConfig:
    def test_rejects_unknown_variant(self, grid):
        with pytest.raises(ValueError, match="variant"):
            make_config(grid, variant="shielded")

    def test_rejects_inconsistent_horizons(self, grid):
        cfg = make_config(grid, total_steps=300)
        with pytest.raises(ValueError, match="horizons"):
            RunConfig(
                variant="guardian", grid=grid, learner=cfg.learner,
                dts=DtsConfig(1, 8, 2.0, horizon=500), dss=cfg.dss,
                total_steps=300, seed=0,
            )

    def test_rejects_a_learner_discount_other_than_the_grids(self, grid):
        cfg = make_config(grid)
        with pytest.raises(ValueError, match="learner gamma must equal grid gamma"):
            RunConfig(
                variant="guardian", grid=grid, learner=LearnerConfig(gamma=0.9),
                dts=cfg.dts, dss=cfg.dss, total_steps=cfg.total_steps, seed=0,
            )

    def test_rejects_negative_seed(self, grid):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            make_config(grid, seed=-1)


class TestRunTraining:
    def test_guardian_zero_slip_never_violates(self, grid, dataset, monkeypatch):
        cfg = make_config(grid, variant="guardian", total_steps=400)
        state = record_run_internals(monkeypatch)
        log = run_training(cfg, dataset)
        assert log.summary["executed_violations"] == 0
        _, spec = build_cliff_grid(grid)
        assert state.store.online_count == 400
        executed = state.store.columns.take(ring_rows(state.store, cfg.total_steps))
        assert len(executed) == 400
        assert spec.safe[executed.s, executed.a].all()
        assert all(rec["pre_guard_violation_rate"] is not None for rec in log.records[1:])

    def test_offline_only_keeps_buffer_empty(self, grid, dataset, monkeypatch):
        cfg = make_config(grid, variant="offline_only", total_steps=150)
        state = record_run_internals(monkeypatch)
        log = run_training(cfg, dataset)
        assert state.store.online_count == 0
        assert log.summary["executed_violations"] == 0
        assert log.summary["offline_fallbacks"] > 0

    def test_no_guard_can_violate_on_cliff(self, grid, dataset):
        cfg = make_config(grid, variant="no_guard", total_steps=400, seed=3)
        log = run_training(cfg, dataset)
        assert log.summary["executed_violations"] > 0

    def test_zero_steps_snapshot_only(self, grid, dataset, monkeypatch):
        cfg = make_config(grid, total_steps=0)
        state = record_run_internals(monkeypatch)
        log = run_training(cfg, dataset)
        assert len(log.records) == 1
        assert log.records[0]["step"] == 0
        mdp, _ = build_cliff_grid(grid)
        np.testing.assert_array_equal(state.probs, softmax(np.zeros((mdp.num_states, mdp.num_actions))))
        np.testing.assert_array_equal(state.members, state.targets)

    def test_bit_identical_reruns(self, grid, dataset):
        cfg = make_config(grid, total_steps=200, seed=7)
        first = run_training(cfg, dataset)
        second = run_training(cfg, dataset)
        assert first.records == second.records
        assert first.summary == second.summary

    def test_empty_dataset_rejected(self, grid):
        cfg = make_config(grid, total_steps=10)
        with pytest.raises(ValueError, match="empty"):
            run_training(cfg, dataset_of([]))

    def test_out_of_range_dataset_state_fails_before_run(self, grid, tmp_path):
        # Numpy would wrap s = -3 to a valid state and train on it silently.
        from guardedrl.sampling import OfflineDataset

        path = tmp_path / "offline.jsonl"
        path.write_text(
            '{"s": 10, "a": 3, "r": 0.0, "s2": 11, "done": false, "t": 0, "ep": 0}\n'
            '{"s": -3, "a": 1, "r": 0.0, "s2": 4, "done": false, "t": 0, "ep": 1}\n'
        )
        cfg = make_config(grid, total_steps=10)
        with pytest.raises(ValueError, match=r"offline row 1 \(episode 1, t 0\): s = -3"):
            run_training(cfg, OfflineDataset.load_jsonl(path))

    def test_time_cap_ends_a_ring_run(self, grid, dataset, monkeypatch):
        # Episodes are cut after 3 records, below the widest window (delta_max 8).
        cfg = make_config(grid, variant="no_guard", total_steps=150, seed=3, max_episode_len=3)
        assert cfg.dts.delta_max > cfg.max_episode_len
        state = record_run_internals(monkeypatch)
        run_training(cfg, dataset)
        store = state.store
        assert store.online_count == cfg.total_steps
        rows = ring_rows(store, cfg.total_steps)
        np.testing.assert_array_equal(rows, store.num_offline + np.arange(cfg.total_steps))
        # The trainer's rule: a new episode starts after done or after 3 records.
        labels, episode, t_ep, capped = [], 0, 0, 0
        for done in store.columns.done[rows].tolist():
            labels.append(episode)
            t_ep += 1
            if done or t_ep == cfg.max_episode_len:
                capped += not done
                episode, t_ep = episode + 1, 0
        assert 0 < capped < episode  # both rules ended episodes
        labels = np.array(labels)
        anchors = np.arange(len(rows))
        seen = [set() for _ in anchors]
        for seed in range(200):
            drawn = store.online_window(anchors, cfg.dts.delta_max, np.random.default_rng(seed))
            for anchor, pos in zip(anchors, (drawn - store.num_offline).tolist()):
                seen[anchor].add(pos)
        for anchor in anchors:
            rest = np.flatnonzero(labels == labels[anchor])
            assert seen[anchor] == set(rest[rest >= anchor].tolist()), anchor

    def test_updates_per_step_changes_training(self, grid, dataset):
        single = run_training(make_config(grid, total_steps=150), dataset)
        double = run_training(
            make_config(grid, total_steps=150, updates_per_step=2), dataset
        )
        assert single.summary["final_td_error"] != double.summary["final_td_error"]

    def test_log_fields_and_monotone_steps(self, grid, dataset):
        cfg = make_config(grid, total_steps=250, eval_every=100)
        log = run_training(cfg, dataset)
        steps = [rec["step"] for rec in log.records]
        assert steps == [0, 100, 200, 250]
        for rec in log.records:
            for key in ("lam", "delta", "td_error", "ensemble_variance",
                        "executed_violations", "eval_return", "ttfv", "coverage",
                        "pre_guard_violation_rate", "near_miss_rate",
                        "visitation_entropy", "actor_loss", "starvation_events"):
                assert key in rec
        assert log.records[0]["actor_loss"] is None
        assert log.records[0]["pre_guard_violation_rate"] is None
        assert log.records[1]["pre_guard_violation_rate"] is not None
        coverages = [rec["coverage"] for rec in log.records]
        assert coverages == sorted(coverages)

    def test_exec_mask_executes_safely_but_backs_up_raw(self, grid, dataset):
        cfg = make_config(grid, variant="exec_mask_only", total_steps=200, seed=5)
        log = run_training(cfg, dataset)
        assert log.summary["executed_violations"] == 0
        guardian_log = run_training(
            make_config(grid, variant="guardian", total_steps=200, seed=5), dataset
        )
        # Same seed, different backup rule: the learned tables must diverge.
        assert guardian_log.summary["final_td_error"] != log.summary["final_td_error"]

    def test_summary_contains_report_fields(self, grid, dataset):
        cfg = make_config(grid, total_steps=120)
        log = run_training(cfg, dataset)
        for key in ("variant", "seed", "final_td_error", "final_ensemble_variance",
                    "final_ttfv", "final_eval_return", "coverage", "support_kl",
                    "action_novelty_rate", "starvation_events"):
            assert key in log.summary


class TestRunLog:
    def test_save_load_round_trip(self, grid, dataset, tmp_path):
        cfg = make_config(grid, total_steps=120)
        log = run_training(cfg, dataset)
        log.save(tmp_path / "run")
        loaded = RunLog.load(tmp_path / "run")
        assert loaded.records == log.records
        assert loaded.summary == log.summary

    def test_append_requires_increasing_steps(self):
        log = RunLog()
        log.append({"step": 5})
        for step in (5, 4):
            with pytest.raises(ValueError, match="^record steps must be strictly increasing$"):
                log.append({"step": step})
        assert log.records == [{"step": 5}]

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_save_refuses_non_finite_numbers(self, tmp_path, bad):
        with pytest.raises(ValueError):
            RunLog(records=[{"step": 0, "td_error": bad}]).to_jsonl()
        with pytest.raises(ValueError):
            RunLog(records=[{"step": 0}], summary={"final_td_error": bad}).save(tmp_path / "run")
        assert not (tmp_path / "run" / "summary.json").exists()

    def test_diverging_run_names_step_and_key(self, grid, dataset):
        cfg = make_config(grid, total_steps=60)
        cfg.learner = LearnerConfig(alpha=1e300, tau=0.05, gamma=grid.gamma)
        with np.errstate(all="ignore"), pytest.raises(ValueError, match=r"^step \d+: \w+ is nan"):
            run_training(cfg, dataset)

    @pytest.mark.parametrize("table", ["logits", "members", "targets"])
    def test_non_finite_table_stops_the_run(self, grid, dataset, monkeypatch, table):
        # A NaN at the goal reaches no logged number: the goal is terminal,
        # so no batch row starts there and its targets are never backed up.
        # Only the interval check of the tables themselves can see it.
        def poisoning_update_actor(logits, states, members, cfg):
            loss = update_actor(logits, states, members, cfg)
            if table != "targets":
                (logits if table == "logits" else members)[..., grid.goal_state, :] = math.nan
            return loss

        def poisoning_soft_update_targets(members, targets, tau):
            soft_update_targets(members, targets, tau)
            if table == "targets":
                targets[..., grid.goal_state, :] = math.nan

        monkeypatch.setattr(trainer, "update_actor", poisoning_update_actor)
        monkeypatch.setattr(trainer, "soft_update_targets", poisoning_soft_update_targets)
        cfg = make_config(grid, total_steps=60)
        message = rf"^step 60: {re.escape(table)} holds a non-finite entry; the run diverged$"
        with pytest.raises(ValueError, match=message):
            run_training(cfg, dataset)


def per_step_action(logits, s, stochastic, rng):
    """Reference action choice: the softmax of state s's logits, redone at every step."""
    probs = softmax(logits[s])
    if stochastic:
        return categorical_draw(list(accumulate(probs.tolist())), rng.random())
    return int(np.argmax(probs))


def per_step_evaluation(logits, mdp, spec, episodes, max_len, guard_on, seed, start, stochastic):
    rng = np.random.default_rng(seed)
    returns, violations = [], 0
    visits = np.zeros(mdp.num_states, dtype=np.int64)
    for _ in range(episodes):
        s, total = start, 0.0
        for _ in range(max_len):
            visits[s] += 1
            a = per_step_action(logits, s, stochastic, rng)
            if guard_on:
                a = project_action(s, a, spec).exec_action
            violations += not spec.safe[s, a]
            r, s, done = env_step(mdp, s, a, rng)
            total += r
            if done:
                visits[s] += 1
                break
        returns.append(total)
    return tuple(returns), violations, visits


def per_step_ttfv(logits, mdp, spec, episodes, max_steps, guard_on, seed, start, hazards):
    rng = np.random.default_rng(seed)
    firsts = []
    for _ in range(episodes):
        s, first = start, max_steps
        for step in range(1, max_steps + 1):
            a = per_step_action(logits, s, False, rng)
            if guard_on:
                a = project_action(s, a, spec).exec_action
            if not spec.safe[s, a]:
                first = step
                break
            _, s, done = env_step(mdp, s, a, rng)
            if s in hazards:
                first = step
                break
            if done:
                break
        firsts.append(first)
    return float(statistics.median(firsts))


class TestRolloutsMatchPerStepReference:
    """One probability table per call must choose every action the per-step softmax did."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("guard_on", [True, False], ids=["guard", "no-guard"])
    @pytest.mark.parametrize("stochastic", [False, True], ids=["greedy", "stochastic"])
    def test_evaluate_policy(self, seed, guard_on, stochastic):
        grid = make_grid(slip=0.2)
        mdp, spec = build_cliff_grid(grid)
        logits = np.random.default_rng(seed).normal(scale=2.0, size=(mdp.num_states, 5))
        result = evaluate_policy(softmax(logits), mdp, spec, episodes=8, max_len=40, guard_on=guard_on,
                                 seed=100 + seed, start_state=grid.start_state, stochastic=stochastic)
        returns, violations, visits = per_step_evaluation(
            logits, mdp, spec, 8, 40, guard_on, 100 + seed, grid.start_state, stochastic)
        assert result.returns == returns
        assert result.violations == violations
        np.testing.assert_array_equal(result.state_visits, visits)
        assert result.mean_return == float(np.mean(returns))

    def test_probability_ties_break_toward_the_lowest_action(self):
        # Logits 1e-17 apart map to equal probabilities; the greedy action is
        # the argmax of the probabilities (action 0), not of the logits.
        grid = make_grid()
        mdp, spec = build_cliff_grid(grid)
        logits = np.zeros((mdp.num_states, 5))
        logits[:, [0, RIGHT]] = [0.0, 1e-17]
        result = evaluate_policy(softmax(logits), mdp, spec, episodes=2, max_len=10, guard_on=False,
                                 seed=0, start_state=grid.start_state)
        returns, violations, visits = per_step_evaluation(
            logits, mdp, spec, 2, 10, False, 0, grid.start_state, False)
        assert result.returns == returns and result.violations == violations
        np.testing.assert_array_equal(result.state_visits, visits)
        assert visits[grid.start_state + 1] == 0  # never moved right
        ttfv = measure_ttfv(softmax(logits), mdp, spec, episodes=2, max_steps=10, guard_on=False, seed=0,
                            start_state=grid.start_state, hazard_states=grid.hazard_states)
        assert ttfv == per_step_ttfv(logits, mdp, spec, 2, 10, False, 0, grid.start_state,
                                     grid.hazard_states)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("guard_on", [True, False], ids=["guard", "no-guard"])
    def test_measure_ttfv(self, seed, guard_on):
        grid = make_grid(slip=0.2)
        mdp, spec = build_cliff_grid(grid)
        logits = np.random.default_rng(seed).normal(scale=2.0, size=(mdp.num_states, 5))
        ttfv = measure_ttfv(softmax(logits), mdp, spec, episodes=7, max_steps=30, guard_on=guard_on,
                            seed=200 + seed, start_state=grid.start_state,
                            hazard_states=grid.hazard_states)
        assert ttfv == per_step_ttfv(logits, mdp, spec, 7, 30, guard_on, 200 + seed,
                                     grid.start_state, grid.hazard_states)


class TestEvaluatePolicy:
    def test_hand_traced_corridor_return(self):
        grid = GridWorldSpec(width=3, height=1, start=(0, 0), goal=(2, 0),
                             step_reward=-0.1, goal_reward=2.0, gamma=0.9)
        mdp, spec = build_cliff_grid(grid)
        logits = np.zeros((mdp.num_states, 5))
        logits[:, RIGHT] = 10.0
        result = evaluate_policy(softmax(logits), mdp, spec, episodes=4, max_len=20,
                                 guard_on=True, seed=0, start_state=grid.start_state)
        # Two moves, each -0.1, the second entering the goal for +2.0.
        assert result.mean_return == pytest.approx(1.8)
        assert result.violations == 0

    def test_same_seed_identical_returns(self, grid):
        mdp, spec = build_cliff_grid(make_grid(slip=0.3))
        probs = softmax(np.random.default_rng(1).normal(size=(mdp.num_states, 5)))
        a = evaluate_policy(probs, mdp, spec, episodes=6, max_len=30, guard_on=True,
                            seed=42, start_state=5, stochastic=True)
        b = evaluate_policy(probs, mdp, spec, episodes=6, max_len=30, guard_on=True,
                            seed=42, start_state=5, stochastic=True)
        assert a.returns == b.returns

    @pytest.mark.parametrize("budget", ["episodes", "max_len"])
    def test_rejects_an_empty_budget(self, grid, budget):
        mdp, spec = build_cliff_grid(grid)
        kwargs = {"episodes": 2, "max_len": 10, budget: 0}
        with pytest.raises(ValueError, match=f"^{budget} must be >= 1, got 0$"):
            evaluate_policy(softmax(np.zeros((mdp.num_states, 5))), mdp, spec, guard_on=True,
                            seed=0, start_state=grid.start_state, **kwargs)

    @pytest.mark.parametrize("start_state, problem", OFF_GRID_STARTS)
    def test_rejects_a_start_state_off_the_grid(self, grid, start_state, problem):
        mdp, spec = build_cliff_grid(grid)
        with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
            evaluate_policy(softmax(np.zeros((mdp.num_states, 5))), mdp, spec, episodes=2, max_len=10,
                            guard_on=False, seed=0, start_state=start_state)

    def test_guard_off_counts_violations(self, grid):
        mdp, spec = build_cliff_grid(grid)
        logits = np.zeros((mdp.num_states, 5))
        logits[:, 1] = 10.0  # DOWN: straight toward the cliff row
        result = evaluate_policy(softmax(logits), mdp, spec, episodes=2, max_len=10,
                                 guard_on=False, seed=0, start_state=grid.start_state)
        assert result.violations > 0


class TestMeasureTtfv:
    def test_guarded_zero_slip_is_censored(self, grid):
        mdp, spec = build_cliff_grid(grid)
        probs = softmax(np.random.default_rng(2).normal(size=(mdp.num_states, 5)))
        ttfv = measure_ttfv(probs, mdp, spec, episodes=5, max_steps=50, guard_on=True,
                            seed=0, start_state=grid.start_state,
                            hazard_states=grid.hazard_states)
        assert ttfv == 50.0

    def test_guarded_slip_into_a_hazard_is_a_violation(self):
        # The guard keeps every executed action safe, so only slip into the
        # cliff row ends an episode early; without hazard states it never does.
        grid = GridWorldSpec.from_ascii(["S...G", "XXXXX"], slip_prob=0.3)
        mdp, spec = build_cliff_grid(grid)
        logits = np.zeros((mdp.num_states, 5))
        logits[:, RIGHT] = 5.0
        probs = softmax(logits)
        kwargs = dict(episodes=5, max_steps=50, guard_on=True, seed=0, start_state=grid.start_state)
        assert measure_ttfv(probs, mdp, spec, hazard_states=grid.hazard_states, **kwargs) == 3.0
        assert measure_ttfv(probs, mdp, spec, **kwargs) == 50.0

    @pytest.mark.parametrize("budget", ["episodes", "max_steps"])
    def test_rejects_an_empty_budget(self, grid, budget):
        # episodes=0 has no median; max_steps=0 would read as a violation at step 0.
        mdp, spec = build_cliff_grid(grid)
        kwargs = {"episodes": 2, "max_steps": 10, budget: 0}
        with pytest.raises(ValueError, match=f"^{budget} must be >= 1, got 0$"):
            measure_ttfv(softmax(np.zeros((mdp.num_states, 5))), mdp, spec, guard_on=True,
                         seed=0, start_state=grid.start_state, **kwargs)

    @pytest.mark.parametrize("start_state, problem", OFF_GRID_STARTS)
    def test_rejects_a_start_state_off_the_grid(self, grid, start_state, problem):
        mdp, spec = build_cliff_grid(grid)
        with pytest.raises(ValueError, match=f"^{re.escape(problem)}$"):
            measure_ttfv(softmax(np.zeros((mdp.num_states, 5))), mdp, spec, episodes=2, max_steps=10,
                         guard_on=True, seed=0, start_state=start_state)

    def test_hazard_walker_violates_immediately(self, grid):
        mdp, spec = build_cliff_grid(grid)
        logits = np.zeros((mdp.num_states, 5))
        logits[:, 1] = 10.0  # DOWN into the cliff from the start row
        ttfv = measure_ttfv(softmax(logits), mdp, spec, episodes=3, max_steps=50,
                            guard_on=False, seed=0, start_state=grid.start_state,
                            hazard_states=grid.hazard_states)
        assert ttfv == 1.0

    def test_single_episode_median_is_that_value(self, grid):
        mdp, spec = build_cliff_grid(grid)
        logits = np.zeros((mdp.num_states, 5))
        logits[:, UP] = 10.0
        ttfv = measure_ttfv(softmax(logits), mdp, spec, episodes=1, max_steps=25,
                            guard_on=True, seed=0, start_state=grid.start_state,
                            hazard_states=grid.hazard_states)
        assert ttfv == 25.0
