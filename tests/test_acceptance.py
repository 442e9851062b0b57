"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete. Every tolerance is pinned here, not configurable.
"""

import json
import time

import numpy as np
import pytest
from columns import actor_loss, record_run_internals, ring_rows

from guardedrl.cli import main as cli_main
from guardedrl.envs import (
    GridWorldSpec,
    build_cliff_grid,
    build_random_safe_mdp,
    collect_offline_dataset,
    env_step,
    uniform_safe_policy,
)
from guardedrl.guardian import renormalize_policy_safe
from guardedrl.learner import LearnerConfig, update_actor
from guardedrl.mdp import (
    apply_guarded_bellman,
    max_norm_distance,
    solve_guarded_value_iteration,
    solve_pruned_value_iteration,
)
from guardedrl.sampling import (
    DssConfig,
    DtsConfig,
    OfflineDataset,
    ReplayStore,
    dss_mixing,
    dts_interval,
    sample_hybrid_batch,
)
from guardedrl.trainer import RunConfig, run_training

CLIFF5 = [".....", ".....", ".....", "S...G", "XXXXX"]


def _report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"{name}: {detail}"


def cliff_grid(slip: float) -> GridWorldSpec:
    return GridWorldSpec.from_ascii(
        CLIFF5, gamma=0.95, step_reward=-0.02, goal_reward=1.0,
        hazard_reward=-1.0, slip_prob=slip,
    )


def make_run_config(grid, variant, total_steps, seed, alpha, eval_every):
    return RunConfig(
        variant=variant,
        grid=grid,
        learner=LearnerConfig(alpha=alpha, tau=0.05, gamma=grid.gamma,
                              critic_lr=0.3, actor_lr=0.2),
        dts=DtsConfig(delta_min=1, delta_max=8, beta=2.0, horizon=total_steps),
        dss=DssConfig(lambda_min=0.1, lambda_max=0.5, k=10.0 / total_steps,
                      horizon=total_steps),
        total_steps=total_steps,
        seed=seed,
        batch_size=32,
        eval_every=eval_every,
        eval_episodes=5,
        eval_max_len=60,
        ttfv_episodes=2,
        ttfv_max_steps=40,
        max_episode_len=60,
        online_buffer_capacity=5000,
    )


def test_criterion_1_contraction():
    """Guarded backup is a gamma-contraction on 500 randomized instances."""
    start = time.time()
    rng = np.random.default_rng(101)
    gammas = (0.5, 0.9, 0.99)
    worst_slack = -np.inf
    for trial in range(500):
        mdp, spec = build_random_safe_mdp(
            num_states=int(rng.integers(2, 21)),
            num_actions=int(rng.integers(2, 7)),
            safe_fraction=float(rng.uniform(0.2, 1.0)),
            seed=trial,
            gamma=gammas[trial % 3],
        )
        shape = (mdp.num_states, mdp.num_actions)
        q1 = rng.normal(scale=5.0, size=shape)
        q2 = rng.normal(scale=5.0, size=shape)
        lhs = max_norm_distance(apply_guarded_bellman(q1, mdp, spec), apply_guarded_bellman(q2, mdp, spec))
        rhs = mdp.gamma * max_norm_distance(q1, q2)
        worst_slack = max(worst_slack, lhs - rhs)
        if lhs > rhs + 1e-9:
            _report("criterion 1 (contraction)", False,
                    f"violated at trial {trial}: lhs={lhs} rhs={rhs}")
    elapsed = time.time() - start
    _report("criterion 1 (contraction)", elapsed < 10.0,
            f"500/500 instances, worst lhs-rhs={worst_slack:.3e}, {elapsed:.1f}s (limit 10s)")


def test_criterion_2_fixed_point_oracle():
    """Guarded VI matches policy iteration on the pruned MDP within 1e-6 on 100 instances."""
    start = time.time()
    rng = np.random.default_rng(202)
    gammas = (0.5, 0.9, 0.95)
    worst = 0.0
    for trial in range(100):
        mdp, spec = build_random_safe_mdp(
            num_states=int(rng.integers(2, 21)),
            num_actions=int(rng.integers(2, 7)),
            safe_fraction=float(rng.uniform(0.2, 1.0)),
            seed=10_000 + trial,
            gamma=gammas[trial % 3],
        )
        guarded = solve_guarded_value_iteration(mdp, spec, tol=1e-10).q
        pruned = solve_pruned_value_iteration(mdp, spec, tol=1e-10)
        gap = max_norm_distance(guarded, pruned)
        worst = max(worst, gap)
        if gap > 1e-6:
            _report("criterion 2 (fixed-point oracle)", False,
                    f"gap {gap:.3e} > 1e-6 at trial {trial}")
    elapsed = time.time() - start
    _report("criterion 2 (fixed-point oracle)", elapsed < 30.0,
            f"100/100 instances, worst gap={worst:.3e}, {elapsed:.1f}s (limit 30s)")


def test_criterion_3_max_norm_inequality():
    """|max f - max g| <= max|f - g| on 10000 random list pairs, exact."""
    rng = np.random.default_rng(303)
    for _ in range(10_000):
        n = int(rng.integers(1, 30))
        f = rng.normal(scale=float(rng.uniform(0.1, 100.0)), size=n)
        g = rng.normal(scale=float(rng.uniform(0.1, 100.0)), size=n)
        if abs(np.max(f) - np.max(g)) > np.max(np.abs(f - g)):
            _report("criterion 3 (max-norm inequality)", False, f"violated for n={n}")
    _report("criterion 3 (max-norm inequality)", True, "10000/10000 pairs, exact")


def test_criterion_4_schedule_laws():
    """Window schedule boundary/monotonicity laws and sigmoid midpoint."""
    T = 97_313
    dts = DtsConfig(delta_min=3, delta_max=211, beta=1.7, horizon=T)
    ok = dts_interval(0, dts) == 3 and dts_interval(T, dts) == 211
    points = np.linspace(0, T, 1000).astype(int)
    deltas = [dts_interval(int(t), dts) for t in points]
    ok = ok and all(b >= a for a, b in zip(deltas, deltas[1:]))

    # Even horizon so t = T/2 is an integer step and the midpoint law is exact.
    even = DssConfig(lambda_min=0.07, lambda_max=0.63, k=10.0 / 50_000, horizon=50_000)
    midpoint_gap = abs(dss_mixing(25_000, even) - (0.07 + 0.63) / 2)
    ok = ok and midpoint_gap <= 1e-12
    lambdas = [dss_mixing(int(t), even) for t in np.linspace(0, 50_000, 1000).astype(int)]
    ok = ok and all(b > a for a, b in zip(lambdas, lambdas[1:]))
    _report("criterion 4 (schedule laws)", ok,
            f"boundaries exact, 1000-point monotonicity, midpoint gap={midpoint_gap:.1e}")


def test_criterion_5_zero_executed_violations(monkeypatch):
    """Full guardian run (T=20000, zero slip): no predicate violation anywhere."""
    start = time.time()
    grid = cliff_grid(slip=0.0)
    mdp, spec = build_cliff_grid(grid)
    offline = collect_offline_dataset(
        mdp, spec, uniform_safe_policy(spec), n_episodes=150, max_ep_len=60,
        seed=1, start_state=grid.start_state,
    )
    cfg = make_run_config(grid, "guardian", total_steps=20_000, seed=0,
                          alpha=0.01, eval_every=2000)
    state = record_run_internals(monkeypatch)
    log = run_training(cfg, offline)
    executed = state.store.columns.take(ring_rows(state.store, cfg.total_steps))
    buffer_clean = bool(spec.safe[executed.s, executed.a].all())
    elapsed = time.time() - start
    ok = log.summary["executed_violations"] == 0 and buffer_clean and elapsed < 60.0
    _report("criterion 5 (zero executed violations)", ok,
            f"violations={log.summary['executed_violations']}, buffer clean={buffer_clean}, "
            f"final return={log.summary['final_eval_return']:.3f}, {elapsed:.1f}s (limit 60s)")


def test_criterion_6_tabular_convergence():
    """Guarded Q-learning reaches the solver fixed point on the 5x5 cliff grid.

    Uniform-safe exploration executes only safe pairs, so unsafe entries
    never receive a sample and stay at initialization by construction;
    the max-norm is therefore taken over the safe (s, a) pairs, the
    domain the sanitized stream can estimate.
    """
    start = time.time()
    grid = cliff_grid(slip=0.1)
    mdp, spec = build_cliff_grid(grid)
    q_star = solve_guarded_value_iteration(mdp, spec, tol=1e-10).q

    rng = np.random.default_rng(7)
    members = rng.uniform(-0.01, 0.01, size=(2, mdp.num_states, mdp.num_actions))
    visits = np.zeros((mdp.num_states, mdp.num_actions))
    safe_lists = [np.flatnonzero(spec.safe[s]) for s in range(mdp.num_states)]
    s = grid.start_state
    ep_len = 0
    updates_used = None
    for step in range(1, 200_001):
        actions = safe_lists[s]
        a = int(actions[rng.integers(len(actions))])
        r, s_next, done = env_step(mdp, s, a, rng)
        if done:
            y = r
        else:
            qmin_next = np.min(members[:, s_next, :], axis=0)
            y = r + mdp.gamma * np.max(qmin_next[spec.safe[s_next]])
        visits[s, a] += 1
        members[:, s, a] += (y - members[:, s, a]) / visits[s, a] ** 0.7
        ep_len += 1
        if done or ep_len >= 100:
            s, ep_len = grid.start_state, 0
        else:
            s = s_next
        if step % 20_000 == 0:
            err = float(np.abs(members.min(axis=0) - q_star)[spec.safe].max())
            if err <= 0.1:
                updates_used = step
                break
    err = float(np.abs(members.min(axis=0) - q_star)[spec.safe].max())
    elapsed = time.time() - start
    ok = err <= 0.1 and updates_used is not None and elapsed < 60.0
    _report("criterion 6 (tabular convergence)", ok,
            f"safe-pair max error={err:.4f} (tol 0.1) after {updates_used} updates, "
            f"{elapsed:.1f}s (limit 60s)")


def test_criterion_7_ablation_direction():
    """Guarded backups dominate execution-only shielding on the slippery cliff.

    10 seeds per variant; medians over seeds of final-quartile mean TD
    error and ensemble variance must not favor exec_mask_only, and the
    guardian's final evaluation return must match or beat it.
    """
    start = time.time()
    grid = cliff_grid(slip=0.2)
    mdp, spec = build_cliff_grid(grid)
    offline = collect_offline_dataset(
        mdp, spec, uniform_safe_policy(spec), n_episodes=150, max_ep_len=60,
        seed=999, start_state=grid.start_state,
    )
    T = 8000
    results = {}
    for variant in ("guardian", "exec_mask_only"):
        rows = []
        for seed in range(10):
            cfg = make_run_config(grid, variant, total_steps=T, seed=seed,
                                  alpha=0.02, eval_every=400)
            log = run_training(cfg, offline)
            tail = [rec for rec in log.records if rec["step"] > 0.75 * T]
            rows.append((
                float(np.mean([rec["td_error"] for rec in tail])),
                float(np.mean([rec["ensemble_variance"] for rec in tail])),
                log.summary["final_eval_return"],
            ))
        results[variant] = np.array(rows)
    med_g = np.median(results["guardian"], axis=0)
    med_e = np.median(results["exec_mask_only"], axis=0)
    ok_td = med_g[0] <= med_e[0]
    ok_var = med_g[1] <= med_e[1]
    ok_ret = med_g[2] >= med_e[2]
    elapsed = time.time() - start
    _report("criterion 7 (ablation direction)",
            ok_td and ok_var and ok_ret and elapsed < 600.0,
            f"td {med_g[0]:.4f} vs {med_e[0]:.4f}, var {med_g[1]:.2e} vs {med_e[1]:.2e}, "
            f"return {med_g[2]:.3f} vs {med_e[2]:.3f}, {elapsed:.0f}s (limit 600s)")


def test_criterion_8_sampling_statistics():
    """Per-sample mixing matches its Bernoulli law and is pure at the extremes."""
    k = np.tile(np.arange(20), 5)  # 5 episodes of 20 steps along states 0..20
    off = OfflineDataset((k, np.zeros(100, dtype=np.int64), np.zeros(100), k + 1, k == 19, k,
                          np.repeat(np.arange(5), 20)))
    store = ReplayStore(off, capacity=256)
    for k in range(100):
        store.append(s=k, a=1, r=0.0, s_next=k + 1, done=False, last=False)
    rng = np.random.default_rng(808)
    batch = sample_hybrid_batch(store, lam=0.5, delta=4, batch_size=10_000, rng=rng)
    fraction = float(batch.online_mask.mean())
    pure_off = not sample_hybrid_batch(store, 0.0, 4, 2000, rng).online_mask.any()
    pure_on = sample_hybrid_batch(store, 1.0, 4, 2000, rng).online_mask.all()
    ok = abs(fraction - 0.5) <= 0.015 and pure_off and pure_on
    _report("criterion 8 (sampling statistics)", ok,
            f"online fraction={fraction:.4f} (target 0.5 +/- 0.015), "
            f"pure extremes: {pure_off and pure_on}")


def test_criterion_9_safe_policy_contract():
    """Renormalization: unit mass, zero on unsafe, starvation fallback works."""
    rng = np.random.default_rng(909)
    starvation_hits = 0
    for trial in range(10_000):
        num_actions = int(rng.integers(2, 9))
        safe = rng.random(num_actions) < float(rng.uniform(0.2, 0.9))
        if not safe.any():
            safe[int(rng.integers(num_actions))] = True
        if trial % 5 == 0 and not safe.all():
            # Starvation path: all mass on one unsafe action.
            dist = np.zeros(num_actions)
            dist[int(rng.choice(np.flatnonzero(~safe)))] = 1.0
        else:
            dist = rng.dirichlet(np.ones(num_actions))
        probs, starved = renormalize_policy_safe(dist[None, :], safe[None, :])
        probs = probs[0]
        starvation_hits += bool(starved[0])
        if abs(probs.sum() - 1.0) > 1e-9 or np.any(probs[~safe] != 0.0):
            _report("criterion 9 (safe-policy contract)", False,
                    f"contract violated at trial {trial}")
    ok = starvation_hits >= 1000
    _report("criterion 9 (safe-policy contract)", ok,
            f"10000/10000 instances, {starvation_hits} starvation fallbacks exercised")


def test_criterion_10_actor_gradient_check():
    """Analytic actor gradient vs central finite differences, 1e-5 relative."""
    rng = np.random.default_rng(111)
    worst = 0.0
    for trial in range(100):
        num_actions = int(rng.integers(2, 8))
        members = rng.normal(scale=2.0, size=(int(rng.integers(2, 5)), 1, num_actions))
        logits = rng.normal(scale=2.0, size=(1, num_actions))
        alpha = float(rng.uniform(0.0, 1.0))
        cfg = LearnerConfig(alpha=alpha, actor_lr=1.0)
        updated = logits.copy()
        update_actor(updated, [0], members, cfg)
        analytic = logits[0] - updated[0]
        h = 1e-6
        fd = np.zeros(num_actions)
        qmin = members.min(axis=0)[0]
        for j in range(num_actions):
            up, down = logits[0].copy(), logits[0].copy()
            up[j] += h
            down[j] -= h
            fd[j] = (actor_loss(up, qmin, alpha) - actor_loss(down, qmin, alpha)) / (2 * h)
        rel = float(np.max(np.abs(analytic - fd)) / max(np.max(np.abs(fd)), 1e-12))
        worst = max(worst, rel)
        if rel > 1e-5:
            _report("criterion 10 (actor gradient)", False,
                    f"relative error {rel:.2e} at trial {trial}")
    _report("criterion 10 (actor gradient)", True,
            f"100/100 instances, worst relative error={worst:.2e} (tol 1e-5)")


def test_criterion_11_cli_determinism(tmp_path):
    """Two cmd_train invocations with one config produce byte-identical logs."""
    config = {
        "env": {"map": CLIFF5, "step_reward": -0.02, "goal_reward": 1.0,
                "hazard_reward": -1.0, "slip_prob": 0.2, "gamma": 0.95},
        "learner": {"alpha": 0.02, "tau": 0.05, "critic_lr": 0.3, "actor_lr": 0.2},
        "dts": {"delta_min": 1, "delta_max": 8, "beta": 2.0},
        "dss": {"lambda_min": 0.1, "lambda_max": 0.5, "k": 0.0125},
        "variant": "guardian",
        "total_steps": 800,
        "seed": 4,
        "batch_size": 32,
        "eval_every": 200,
        "eval_episodes": 3,
        "eval_max_len": 40,
        "ttfv_episodes": 2,
        "ttfv_max_steps": 40,
        "max_episode_len": 60,
        "online_buffer_capacity": 2000,
        "generate_offline": {"episodes": 60, "max_ep_len": 40,
                             "behavior": "uniform_safe", "seed": 5},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli_main(["train", str(path), "--out", str(tmp_path / "a")]) == 0
    assert cli_main(["train", str(path), "--out", str(tmp_path / "b")]) == 0
    log_a = (tmp_path / "a" / "log.jsonl").read_bytes()
    log_b = (tmp_path / "b" / "log.jsonl").read_bytes()
    summary_a = (tmp_path / "a" / "summary.json").read_bytes()
    summary_b = (tmp_path / "b" / "summary.json").read_bytes()
    ok = log_a == log_b and summary_a == summary_b
    _report("criterion 11 (CLI determinism)", ok,
            f"log bytes equal={log_a == log_b}, summary bytes equal={summary_a == summary_b}")
