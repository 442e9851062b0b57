"""One benchmark run: set-up, a closed loop of gated ops, and optionally a traced rerun.

The loop runs one op at a time, each starting when the previous one has
finished, until `seconds` have passed, at least `traced_ops` ops are done
and the ops form whole cycles (a cycle covers every variant or every
solve instance once, so each cycle does the same kind of work). Rates
come from the median time of each op position over the cycles.

With tracing on, the first `traced_ops` ops and one set-up run again
under the tracer; their outputs must hash exactly like the untraced
ones, which both shows the tracer is transparent and is the rerun
check. Without tracing, the first op runs again untraced for the rerun
check.
"""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from tracer import BOOKKEEPING_SPAN, ROOT_SPAN, Tracer, instrument, self_times
from workloads import WORKLOADS, OpOutcome

SETUP_REPEATS = 3

END_TO_END_UNITS = {"ops_per_s": "1/s", "steps_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metric name -> unit. "<probe>.<stat>" names use the probe's
# spans (and counts); the rest are computed by the benchmark itself.
PER_LAYER_UNITS = {
    "envs.env_step.calls": "count",
    "envs.env_step.self_s": "s",
    "envs.env_step.us_p50": "us",
    "envs.collect_offline_dataset.s": "s",
    "guardian.project_action.calls": "count",
    "guardian.project_action.self_s": "s",
    "guardian.project_action.us_p50": "us",
    "guardian.project_action.modified_ratio": "ratio",
    "guardian.project_action.mean_distance": "sq_embed",
    "sampling.sample_hybrid_batch.calls": "count",
    "sampling.sample_hybrid_batch.self_s": "s",
    "sampling.sample_hybrid_batch.us_p50": "us",
    "sampling.sample_hybrid_batch.us_p99": "us",
    "sampling.sample_hybrid_batch.slots": "count",
    "sampling.sample_hybrid_batch.online_share": "ratio",
    "sampling.sample_hybrid_batch.fallback_ratio": "ratio",
    "sampling.OnlineBuffer.window_draw.calls": "count",
    "sampling.OnlineBuffer.window_draw.self_s": "s",
    "sampling.OfflineDataset.window_draw.calls": "count",
    "sampling.OfflineDataset.window_draw.self_s": "s",
    "sampling.OnlineBuffer.append.calls": "count",
    "sampling.OnlineBuffer.append.self_s": "s",
    "sampling.OfflineDataset.load_jsonl.s": "s",
    "sampling.derive_bc_policy.self_s": "s",
    "learner.compute_targets.calls": "count",
    "learner.compute_targets.self_s": "s",
    "learner.compute_targets.us_p50": "us",
    "learner.compute_targets.starved": "count",
    "learner.update_critics.calls": "count",
    "learner.update_critics.self_s": "s",
    "learner.update_critics.us_p50": "us",
    "learner.update_critics.rounds_mean": "count",
    "learner.update_actor.calls": "count",
    "learner.update_actor.self_s": "s",
    "learner.update_actor.us_p50": "us",
    "learner.update_actor.rounds_mean": "count",
    "learner.soft_update_targets.calls": "count",
    "learner.soft_update_targets.self_s": "s",
    "learner.soft_update_targets.us_p50": "us",
    "learner.ensemble_variance.self_s": "s",
    "metrics.td_error_stats.self_s": "s",
    "metrics.shadow_rates.self_s": "s",
    "trainer.evaluate_policy.self_s": "s",
    "trainer.measure_ttfv.self_s": "s",
    "trainer.run_training.self_s": "s",
    "mdp.solve_guarded_value_iteration.calls": "count",
    "mdp.solve_guarded_value_iteration.self_s": "s",
    "mdp.solve_guarded_value_iteration.sweeps": "count",
    "mdp.solve_guarded_value_iteration.us_per_sweep": "us",
    "mdp.solve_pruned_value_iteration.calls": "count",
    "mdp.solve_pruned_value_iteration.self_s": "s",
    "mdp.apply_guarded_bellman.calls": "count",
    "trace.overhead_ratio": "ratio",
    "trace.wall_s": "s",
    "trace.accounted_ratio": "ratio",
    "trace.bookkeeping_s": "s",
    "quality.eval_return_p50": "return",
    "quality.td_error_tail_p50": "abs_td",
}

# Derived per-probe stats: stat -> (count key, how the sum is normalised).
#   "mean": sum / number of calls that produced the count; "sum": the sum.
_COUNT_STATS = {
    "modified_ratio": ("modified", "mean"),
    "mean_distance": ("distance", "mean"),
    "slots": ("slots", "sum"),
    "starved": ("starved", "sum"),
    "rounds_mean": ("rounds", "mean"),
    "sweeps": ("sweeps", "sum"),
}


@dataclass
class OpRecord:
    index: int
    seconds: float
    outcome: OpOutcome


def attempt(workload, state: dict, index: int) -> OpRecord:
    """Run and gate one op; an exception fails the op instead of the benchmark."""
    start = time.perf_counter()
    try:
        output = workload.run_op(state, index)
    except Exception as exc:  # the op boundary: count the failure, keep measuring
        traceback.print_exc(file=sys.stderr)
        outcome = OpOutcome(0, "", [f"exception {type(exc).__name__}: {exc}"], {})
        return OpRecord(index, time.perf_counter() - start, outcome)
    seconds = time.perf_counter() - start
    return OpRecord(index, seconds, workload.check(output))


def cycle_rates(ops: list[OpRecord], cycle: int) -> tuple[float, float]:
    """(ops per second, steps per second) of one cycle made of per-position medians.

    Op k of every cycle does the same kind of work, so the median time of
    each position over the cycles, summed, is the time of a typical cycle;
    a burst of load on the machine moves one sample, not the median.
    """
    seconds = sum(statistics.median(op.seconds for op in ops[k::cycle]) for k in range(cycle))
    steps = sum(statistics.median(op.outcome.steps for op in ops[k::cycle]) for k in range(cycle))
    return cycle / seconds, steps / seconds


def quality_medians(ops: list[OpRecord]) -> dict[str, float]:
    values: dict[str, list[float]] = {}
    for op in ops:
        for key, value in op.outcome.quality.items():
            values.setdefault(key, []).append(value)
    return {key: statistics.median(vals) for key, vals in values.items()}


def layer_metrics(tracer: Tracer, setup_run: int) -> dict[str, float]:
    """Per-layer metrics from the traced spans: ops for counts and times, set-up for `.s`."""
    cols = tracer.columns()
    selfs = self_times(cols["start"], cols["end"], cols["parent"])
    duration = cols["end"] - cols["start"]
    in_ops = cols["run"] != setup_run

    def spans(name: str, ops: bool = True) -> np.ndarray:
        return (cols["name_id"] == tracer.name_id_of(name)) & (in_ops if ops else ~in_ops)

    def count(name: str, key: str) -> tuple[float, int]:
        total, n = tracer.counts.get((name, key), (0.0, 0))
        return total, n

    out: dict[str, float] = {}
    for metric in PER_LAYER_UNITS:
        name, _, stat = metric.rpartition(".")
        if name in ("trace", "quality"):
            continue
        sel = spans(name)
        if stat == "s":
            out[metric] = float(duration[spans(name, ops=False)].sum())
        elif stat == "calls":
            out[metric] = float(sel.sum())
        elif stat == "self_s":
            out[metric] = float(selfs[sel].sum())
        elif stat in ("us_p50", "us_p99"):
            q = 50 if stat == "us_p50" else 99
            out[metric] = float(np.percentile(duration[sel], q) * 1e6) if sel.any() else 0.0
        elif stat == "us_per_sweep":
            sweeps, _ = count(name, "sweeps")
            out[metric] = float(duration[sel].sum() / sweeps * 1e6) if sweeps else 0.0
        elif stat == "online_share":
            slots, _ = count(name, "slots")
            out[metric] = count(name, "online")[0] / slots if slots else 0.0
        elif stat == "fallback_ratio":
            fallback, _ = count(name, "fallback")
            wanted = count(name, "online")[0] + fallback
            out[metric] = fallback / wanted if wanted else 0.0
        else:
            key, how = _COUNT_STATS[stat]
            total, n = count(name, key)
            out[metric] = total if how == "sum" else (total / n if n else 0.0)
    root = spans(ROOT_SPAN)
    wall = float(duration[root].sum())
    out["trace.wall_s"] = wall
    out["trace.accounted_ratio"] = float(selfs[in_ops & ~root].sum()) / wall if wall else 0.0
    out["trace.bookkeeping_s"] = float(selfs[spans(BOOKKEEPING_SPAN)].sum())
    return out


def traced_phase(workload, seed: int, scratch: Path, ops: list[OpRecord]):
    """Rerun one set-up and the first ops under the tracer.

    Returns the tracer, the absent probe names and the rerun ops.
    """
    tracer = Tracer()
    reruns = []
    with instrument(tracer) as absent:
        with tracer.span(ROOT_SPAN + ".setup"):
            state = workload.setup(seed, scratch)
        tracer.counts.clear()  # counts describe the ops only
        for op in ops[:workload.traced_ops]:
            tracer.run_id = op.index + 1
            with tracer.span(ROOT_SPAN):
                reruns.append(attempt(workload, state, op.index))
    return tracer, absent, reruns


def environment(cap: str, workload: str, seed: int) -> dict:
    blas = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"]
    except (TypeError, KeyError):
        pass
    root = Path(__file__).resolve().parent.parent
    commit = None
    if (root / ".git").exists():  # never let git search above the checkout
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "workload": workload,
        "seed": seed,
        "commit": commit,
        "source_sha256": source_digest(root / "src" / "guardedrl"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": cap,
    }


def source_digest(package_dir: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(package_dir.rglob("*.py")):
        h.update(path.relative_to(package_dir).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_benchmark(name: str, seed: int, seconds: float, trace: bool, out_dir: Path,
                  blas_threads: str) -> tuple[dict, dict]:
    """Run one workload; returns (result line, info line)."""
    workload = WORKLOADS[name]
    scratch = out_dir / f"scratch-{name}-{seed}-{int(trace)}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    setup_times, fingerprints, problems = [], [], []
    for _ in range(SETUP_REPEATS):
        state = None  # release the previous inputs so peak memory holds one set
        start = time.perf_counter()
        state = workload.setup(seed, scratch)
        setup_times.append(time.perf_counter() - start)
        fingerprint, setup_problems = workload.check_setup(state)
        fingerprints.append(fingerprint)
        problems += setup_problems
    if len(set(fingerprints)) != 1:
        problems.append("set-up is not deterministic for a fixed seed")

    ops: list[OpRecord] = []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or len(ops) < workload.traced_ops
           or len(ops) % workload.cycle):
        ops.append(attempt(workload, state, len(ops)))

    if trace:
        tracer, absent, reruns = traced_phase(workload, seed, scratch, ops)
    else:
        absent, reruns = [], [attempt(workload, state, 0)]
    for rerun in reruns:
        original = ops[rerun.index].outcome
        if not rerun.outcome.problems and rerun.outcome.digest != original.digest:
            original.problems.append("rerun output differs" + (" under the tracer" if trace else ""))

    ops_per_s, steps_per_s = cycle_rates(ops, workload.cycle)
    failed_ops = [op for op in ops + reruns if op.outcome.problems]
    traced = ops[:workload.traced_ops]
    quality = quality_medians(traced)
    if trace:
        metrics = layer_metrics(tracer, setup_run=0)
        metrics["trace.overhead_ratio"] = (
            sum(r.seconds for r in reruns) / sum(op.seconds for op in traced)
        )
        metrics["quality.eval_return_p50"] = quality.get("final_eval_return", 0.0)
        metrics["quality.td_error_tail_p50"] = quality.get("td_error_tail", 0.0)
        units = PER_LAYER_UNITS
        np.savez_compressed(out_dir / f"spans-{name}-{seed}.npz",
                            names=np.array(tracer.names), **tracer.columns())
    else:
        metrics = {
            "ops_per_s": ops_per_s,
            "steps_per_s": steps_per_s,
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END_UNITS
    shutil.rmtree(scratch)

    result = {
        "correct": not failed_ops and not problems,
        "attempted": len(ops) + len(reruns),
        "failed": len(failed_ops),
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }
    info = {
        "environment": environment(blas_threads, name, seed),
        "setup_s": setup_times,
        "op_seconds": [op.seconds for op in ops],
        "rerun_seconds": [op.seconds for op in reruns],
        "quality": quality,
        "digests": [op.outcome.digest for op in traced],
        "problems": problems + [
            f"op {op.index}: {p}" for op in failed_ops for p in op.outcome.problems
        ],
        "absent_layers": absent,
        "ops_per_s": ops_per_s,
        "steps_per_s": steps_per_s,
    }
    return result, info
