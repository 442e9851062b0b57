"""Batch experiment front-end: solve, train, sweep, and report.

One JSON config file drives everything; a handful of flat flags
(--seed, --variant, --steps, --out) override it for train runs. The
effective config (after overrides, with the dataset path pinned) is
echoed into the output directory so any run can be reproduced from its
own provenance record. Exit codes: 0 success, 1 runtime failure,
2 usage or parse failure. File formats are documented in
docs/formats.md.
"""

from __future__ import annotations

import argparse
import difflib
import json
import math
import os
import shutil
import statistics
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields
from pathlib import Path

from .envs import (
    GridWorldSpec,
    build_cliff_grid,
    build_random_safe_mdp,
    collect_offline_dataset,
    uniform_policy,
    uniform_safe_policy,
)
from .learner import LearnerConfig
from .mdp import ConvergenceError, check_count, check_range, max_norm_distance, save_problem, solve_guarded_value_iteration, solve_pruned_value_iteration
from .sampling import DssConfig, DtsConfig, OfflineDataset
from .trainer import VARIANTS, RunConfig, RunLog, run_training

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

REPORT_FIELDS = (
    "final_td_error",
    "final_ensemble_variance",
    "final_ttfv",
    "final_eval_return",
    "coverage",
    "support_kl",
    "action_novelty_rate",
)


def load_config(path: str | Path) -> dict:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError(f"config {path} must be a JSON object")
    return doc


# The JSON value kinds a config key accepts; a boolean is never a number.
KINDS = {"a number": (int, float), "an integer": (int,), "a string": (str,),
         "a boolean": (bool,), "an array": (list,), "a string or an array": (str, list)}
_FIELD_KINDS = {"float": "a number", "int": "an integer", "str": "a string", "bool": "a boolean"}
# Block name -> key -> kind: the block's dataclass fields (tuples and sets are
# arrays), except schedule horizons and the learner's discount, which always
# come from total_steps and env.gamma.
BLOCK_KEYS = {
    name: {f.name: _FIELD_KINDS.get(f.type, "an array") for f in fields(cls) if f.name != "horizon"}
    for name, cls in (("env", GridWorldSpec), ("learner", LearnerConfig), ("dts", DtsConfig),
                      ("dss", DssConfig))
}
del BLOCK_KEYS["learner"]["gamma"]
BLOCK_KEYS["env"]["map"] = "a string or an array"
BLOCK_KEYS["generate_offline"] = dict(episodes="an integer", max_ep_len="an integer",
                                      behavior="a string", seed="an integer",
                                      guardian_filter="a boolean")
BLOCK_KEYS["random_mdp"] = dict(num_states="an integer", num_actions="an integer",
                                safe_fraction="a number", seed="an integer", gamma="a number")
BLOCK_KEYS["sweep"] = dict(variants="an array", seeds="an array")
# The top level itself: RunConfig's scalar fields, the dataset path, the
# output directory and solve's tolerances. Other top-level keys are
# ignored, so one file can serve every subcommand.
TOP_LEVEL = "top-level"
BLOCK_KEYS[TOP_LEVEL] = {f.name: _FIELD_KINDS[f.type] for f in fields(RunConfig) if f.type in _FIELD_KINDS}
BLOCK_KEYS[TOP_LEVEL].update(offline_dataset="a string", output_dir="a string", tol="a number",
                             gap_tolerance="a number")
_RUN_FIELDS = {f.name for f in fields(RunConfig)}
# generate_offline behavior name -> its policy table on a grid's (mdp, spec).
BEHAVIORS = {
    "uniform_safe": lambda mdp, spec: uniform_safe_policy(spec),
    "uniform": lambda mdp, spec: uniform_policy(mdp.num_states, mdp.num_actions),
}


def config_block(doc: dict, name: str) -> dict:
    """A copy of the doc's `name` block ({} if absent), numbers as floats.

    Every key must be known and its value of the key's kind. For
    TOP_LEVEL the block is the doc's known top-level keys.
    """
    kinds = BLOCK_KEYS[name]
    block = {k: v for k, v in doc.items() if k in kinds} if name == TOP_LEVEL else doc.get(name, {})
    if not isinstance(block, dict):
        raise ValueError(f"config block {name!r} must be a JSON object")
    for key, value in block.items():
        if key not in kinds:
            close = difflib.get_close_matches(key, kinds, n=1, cutoff=0.0)[0]
            raise ValueError(f"unknown {name} key {key!r}; closest known key is {close!r} "
                             f"(known: {', '.join(kinds)})")
        kind = kinds[key]
        if not isinstance(value, KINDS[kind]) or (isinstance(value, bool) and kind != "a boolean"):
            raise ValueError(f"{name} key {key!r} must be {kind}, got {value!r}")
    return {key: float(value) if kinds[key] == "a number" else value for key, value in block.items()}


def output_dir(args: argparse.Namespace, doc: dict, default: str) -> Path:
    """--out if given, else the config's output_dir, else default."""
    if args.out is not None:
        return Path(args.out)
    return Path(config_block(doc, TOP_LEVEL).get("output_dir", default))


def grid_from_doc(doc: dict) -> GridWorldSpec:
    """The grid of the doc's env block: a map plus the numbers, or every field."""
    env = config_block(doc, "env")
    if "map" in env:
        numbers = {key: v for key, v in env.items() if BLOCK_KEYS["env"][key] == "a number"}
        for key in env:
            if key not in numbers and key != "map":
                raise ValueError(f"env key {key!r} cannot be given with 'map', which sets the geometry")
        return GridWorldSpec.from_ascii(env["map"], **numbers)
    for key in ("width", "height", "start", "goal"):
        if key not in env:
            raise ValueError(f"env block is missing key {key!r} "
                             "(give 'map', or 'width', 'height', 'start' and 'goal')")
    return GridWorldSpec(**env)


def reject_non_finite(value, path: str = "config") -> None:
    """Raise on the first NaN or +-Infinity in a parsed config value, naming its path."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{path} must be finite, got {value!r}")
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        reject_non_finite(item, f"{path}[{key!r}]")


def check_least(block: dict, name: str, **least: int) -> None:
    """Raise on the first of the given keys whose value in the `name` block is not an integer >= its least value."""
    for key, low in least.items():
        check_count(f"{name} key {key!r}", block.get(key, low), low)


def run_config_from_doc(doc: dict) -> RunConfig:
    """Parse a train config; every block and every number is checked before anything is built or written."""
    reject_non_finite(doc)
    for key in ("env", "total_steps"):
        if key not in doc:
            raise ValueError(f"config is missing required key {key!r}")
    top = config_block(doc, TOP_LEVEL)
    dts_doc = config_block(doc, "dts")
    dss_doc = config_block(doc, "dss")
    learner_doc = config_block(doc, "learner")
    gen = config_block(doc, "generate_offline")
    if "behavior" in gen and gen["behavior"] not in BEHAVIORS:
        raise ValueError(f"generate_offline key 'behavior' must be one of {', '.join(BEHAVIORS)}, "
                         f"got {gen['behavior']!r}")
    check_least(gen, "generate_offline", episodes=1, max_ep_len=1, seed=0)
    grid = grid_from_doc(doc)
    horizon = max(top["total_steps"], 1)
    return RunConfig(
        **{"variant": "guardian", "seed": 0, **{k: v for k, v in top.items() if k in _RUN_FIELDS}},
        grid=grid,
        learner=LearnerConfig(**learner_doc, gamma=grid.gamma),
        dts=DtsConfig(**{"delta_min": 1, "delta_max": 16, "beta": 2.0, **dts_doc}, horizon=horizon),
        dss=DssConfig(**{"lambda_min": 0.1, "lambda_max": 0.5, "k": 10.0 / horizon, **dss_doc},
                      horizon=horizon),
    )


def prepare_offline_dataset(doc: dict, grid: GridWorldSpec) -> OfflineDataset:
    """Roll out the "generate_offline" block of a parsed config in memory (deterministic per its seed)."""
    gen = doc.get("generate_offline")
    if gen is None:
        raise ValueError("no offline dataset: configured path missing and no generate_offline block")
    mdp, spec = build_cliff_grid(grid)
    return collect_offline_dataset(
        mdp,
        spec,
        BEHAVIORS[gen.get("behavior", "uniform_safe")](mdp, spec),
        n_episodes=gen.get("episodes", 100),
        max_ep_len=gen.get("max_ep_len", 100),
        seed=gen.get("seed", 0),
        guardian_filter=gen.get("guardian_filter", True),
        start_state=grid.start_state,
    )


def _train_one(doc: dict, out_dir: Path) -> dict:
    """Train one config; nothing reaches the disk until the run succeeded.

    An existing file named by "offline_dataset" is loaded; otherwise the
    dataset is generated in memory. After training, the run files and a
    generated dataset are written to a temporary sibling of out_dir and
    moved into place: the dataset to its configured path (default:
    <out_dir>/offline.jsonl), then the run files into out_dir,
    summary.json last. A failed run creates nothing, not even a missing
    parent of out_dir; an output location that cannot be created is
    reported after training.
    """
    cfg = run_config_from_doc(doc)
    configured = doc.get("offline_dataset")
    generated = not (configured and Path(configured).exists())
    offline = prepare_offline_dataset(doc, cfg.grid) if generated else OfflineDataset.load_jsonl(configured)
    dataset_path = Path(configured or out_dir / "offline.jsonl")
    doc = {**doc, "offline_dataset": str(dataset_path.resolve())}
    log = run_training(cfg, offline)
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}.", dir=out_dir.parent))
    try:
        log.save(staging)
        (staging / "effective_config.json").write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n")
        if generated:
            offline.save_jsonl(staging / "offline.jsonl")
            dataset_path.parent.mkdir(parents=True, exist_ok=True)
            shutil.move(staging / "offline.jsonl", dataset_path)
        out_dir.mkdir(exist_ok=True)
        for path in sorted(staging.iterdir(), key=lambda p: p.name == "summary.json"):
            path.replace(out_dir / path.name)
    finally:
        shutil.rmtree(staging, ignore_errors=True)
    return log.summary


def cmd_train(args: argparse.Namespace) -> int:
    doc = load_config(args.config)
    if args.seed is not None:
        doc["seed"] = args.seed
    if args.variant is not None:
        doc["variant"] = args.variant
    if args.steps is not None:
        doc["total_steps"] = args.steps
    out_dir = output_dir(args, doc, "runs/run")
    summary = _train_one(doc, out_dir)
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def sweep_from_doc(doc: dict) -> tuple[list[str], list[int]]:
    """The sweep block's variants (known names) and seeds (JSON integers >= 0), both non-empty."""
    sweep = config_block(doc, "sweep")
    variants, seeds = sweep.get("variants"), sweep.get("seeds")
    if not variants or not seeds:
        raise ValueError("config needs a sweep block with non-empty variants and seeds")
    for variant in variants:
        if variant not in VARIANTS:
            raise ValueError(f"sweep variants must be among {', '.join(VARIANTS)}, got {variant!r}")
    for seed in seeds:
        check_count("sweep seeds", seed, 0)
    for name, values in (("variants", variants), ("seeds", seeds)):
        for i, value in enumerate(values):
            if value in values[:i]:  # its runs would share one directory
                raise ValueError(f"sweep {name} must not repeat, got {value!r} more than once")
    return variants, seeds


def cmd_sweep(args: argparse.Namespace) -> int:
    doc = load_config(args.config)
    variants, seeds = sweep_from_doc(doc)
    base_out = output_dir(args, doc, "runs/sweep")
    runs = [(variant, seed) for variant in variants for seed in seeds]
    docs = [{**doc, "variant": variant, "seed": seed} for variant, seed in runs]
    out_dirs = [base_out / f"{variant}_seed{seed}" for variant, seed in runs]
    # One worker per core, never more than there are runs. A failed run
    # cancels the runs not yet started and is raised here.
    with ProcessPoolExecutor(min(os.cpu_count() or 1, len(runs))) as pool:
        for out_dir, _ in zip(out_dirs, pool.map(_train_one, docs, out_dirs)):
            print(out_dir)
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    doc = load_config(args.config)
    top = config_block(doc, TOP_LEVEL)
    tol, gap_tolerance = top.get("tol", 1e-8), top.get("gap_tolerance", 1e-6)
    check_range("top-level key 'tol'", tol, 0, math.inf, low_open=True, high_open=True)
    check_range("top-level key 'gap_tolerance'", gap_tolerance, 0, math.inf, high_open=True)
    reject_non_finite(doc)
    if "random_mdp" in doc:
        rm = config_block(doc, "random_mdp")
        for key in ("num_states", "num_actions"):
            if key not in rm:
                raise ValueError(f"random_mdp block is missing key {key!r}")
        check_least(rm, "random_mdp", num_states=1, num_actions=1, seed=0)
        mdp, spec = build_random_safe_mdp(**{"safe_fraction": 0.7, "seed": 0, **rm})
    elif "env" in doc:
        mdp, spec = build_cliff_grid(grid_from_doc(doc))
    else:
        raise ValueError("solve config needs an env or random_mdp block")
    out_dir = output_dir(args, doc, "runs/solve")
    try:
        result = solve_guarded_value_iteration(mdp, spec, tol=tol)
        oracle = solve_pruned_value_iteration(mdp, spec, tol=tol)
    except ConvergenceError as exc:
        print(f"solver failed to converge: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    gap = max_norm_distance(result.q, oracle)
    out_dir.mkdir(parents=True, exist_ok=True)
    save_problem(out_dir / "problem.json", mdp, spec)
    (out_dir / "q_guarded.json").write_text(json.dumps({"q": result.q.tolist()}))
    (out_dir / "q_pruned_oracle.json").write_text(json.dumps({"q": oracle.tolist()}))
    solution = {
        "gap": gap,
        "gap_tolerance": gap_tolerance,
        "iterations": result.iterations,
        "tol": tol,
        "within_tolerance": gap <= gap_tolerance,
    }
    (out_dir / "solution.json").write_text(json.dumps(solution, indent=2) + "\n")
    print(json.dumps(solution, indent=2))
    return EXIT_OK if gap <= gap_tolerance else EXIT_RUNTIME


def load_summary(directory: Path) -> dict:
    """A run's summary: an object with a string variant and each report field a finite number or null."""
    try:
        log = RunLog.load(directory)
        summary = log.summary
        if not summary or not log.records:
            raise ValueError("empty log")
        if not isinstance(summary, dict):
            raise ValueError(f"summary is a JSON {type(summary).__name__}, not an object")
        if not isinstance(summary.get("variant", ""), str):
            raise ValueError(f"summary key 'variant' must be a string, got {summary['variant']!r}")
        for key in REPORT_FIELDS:
            value = summary.get(key)
            if value is not None and (type(value) not in (int, float) or not math.isfinite(value)):
                raise ValueError(f"summary key {key!r} must be a finite number or null, got {value!r}")
    except (OSError, ValueError) as exc:  # json's decode error is a ValueError
        raise ValueError(f"missing or corrupt run log in {directory}: {exc}") from exc
    return summary


def cmd_report(args: argparse.Namespace) -> int:
    by_variant: dict[str, list[dict]] = {}
    for run_dir in args.run_dirs:
        summary = load_summary(Path(run_dir))
        by_variant.setdefault(summary.get("variant", "unknown"), []).append(summary)
    lines = ["variant,runs," + ",".join(REPORT_FIELDS)]
    for variant in sorted(by_variant):
        summaries = by_variant[variant]
        cells = [variant, str(len(summaries))]
        for fieldname in REPORT_FIELDS:
            values = [s[fieldname] for s in summaries if s.get(fieldname) is not None]
            cells.append(repr(float(statistics.median(values))) if values else "")
        lines.append(",".join(cells))
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="guardedrl",
        description="Batch experiments for projection-guarded tabular RL",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="exact guarded solve + pruned-MDP cross-check")
    p_solve.add_argument("config")
    p_solve.add_argument("--out", default=None, help="output directory")
    p_solve.set_defaults(func=cmd_solve)

    p_train = sub.add_parser("train", help="run one training configuration")
    p_train.add_argument("config")
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--variant", default=None)
    p_train.add_argument("--steps", type=int, default=None)
    p_train.add_argument("--out", default=None, help="output directory")
    p_train.set_defaults(func=cmd_train)

    p_sweep = sub.add_parser("sweep", help="run the config's variant x seed sweep")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--out", default=None, help="base output directory")
    p_sweep.set_defaults(func=cmd_sweep)

    p_report = sub.add_parser("report", help="aggregate run directories into a CSV")
    p_report.add_argument("run_dirs", nargs="+")
    p_report.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p_report.set_defaults(func=cmd_report)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except json.JSONDecodeError as exc:
        print(f"config parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}", file=sys.stderr)
        return EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
