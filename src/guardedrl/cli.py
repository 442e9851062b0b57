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
from .mdp import ConvergenceError, max_norm_distance, save_problem, solve_guarded_value_iteration, solve_pruned_value_iteration
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
    except OSError as exc:
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
    """Raise on the first of the given keys whose value in the `name` block is below its least value."""
    for key, low in least.items():
        if block.get(key, low) < low:
            raise ValueError(f"{name} key {key!r} must be >= {low}, got {block[key]!r}")


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


def prepare_offline_dataset(doc: dict, grid: GridWorldSpec, staging: Path) -> Path:
    """Locate or generate the offline dataset of a parsed config; returns its path.

    An existing file named by "offline_dataset" wins; otherwise a
    "generate_offline" block rolls one out (deterministic per its seed)
    into <staging>/offline.jsonl.
    """
    configured = doc.get("offline_dataset")
    if configured and Path(configured).exists():
        return Path(configured)
    gen = doc.get("generate_offline")
    if gen is None:
        raise ValueError("no offline dataset: configured path missing and no generate_offline block")
    mdp, spec = build_cliff_grid(grid)
    dataset = collect_offline_dataset(
        mdp,
        spec,
        BEHAVIORS[gen.get("behavior", "uniform_safe")](mdp, spec),
        n_episodes=gen.get("episodes", 100),
        max_ep_len=gen.get("max_ep_len", 100),
        seed=gen.get("seed", 0),
        guardian_filter=gen.get("guardian_filter", True),
        start_state=grid.start_state,
    )
    path = staging / "offline.jsonl"
    dataset.save_jsonl(path)
    return path


def _train_one(doc: dict, out_dir: Path) -> dict:
    """Train one config; its files reach out_dir only once the run succeeded.

    The generated dataset and the run files are written to a temporary
    sibling of out_dir and moved into place after training: the dataset
    to its configured path (default: <out_dir>/offline.jsonl), then the
    run files into out_dir, summary.json last. A failed run removes the
    sibling and leaves out_dir and the configured path untouched.
    """
    cfg = run_config_from_doc(doc)  # before anything is written
    out_dir.parent.mkdir(parents=True, exist_ok=True)
    staging = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}.", dir=out_dir.parent))
    try:
        dataset_path = prepare_offline_dataset(doc, cfg.grid, staging)
        offline = OfflineDataset.load_jsonl(dataset_path)
        generated = dataset_path.parent == staging
        final = Path(doc.get("offline_dataset") or out_dir / dataset_path.name) if generated else dataset_path
        doc = dict(doc)
        doc["offline_dataset"] = str(final.resolve())
        log = run_training(cfg, offline)
        log.save(staging)
        (staging / "effective_config.json").write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n")
        if generated:
            final.parent.mkdir(parents=True, exist_ok=True)
            shutil.move(dataset_path, final)
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


def _sweep_worker(payload: tuple[dict, str]) -> str:
    doc, out_dir = payload
    _train_one(doc, Path(out_dir))
    return out_dir


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
        if not isinstance(seed, int) or isinstance(seed, bool):
            raise ValueError(f"sweep seeds must be integers, got {seed!r}")
        if seed < 0:
            raise ValueError(f"sweep seeds must be >= 0, got {seed!r}")
    for name, values in (("variants", variants), ("seeds", seeds)):
        for i, value in enumerate(values):
            if value in values[:i]:  # its runs would share one directory
                raise ValueError(f"sweep {name} must not repeat, got {value!r} more than once")
    return variants, seeds


def cmd_sweep(args: argparse.Namespace) -> int:
    doc = load_config(args.config)
    variants, seeds = sweep_from_doc(doc)
    base_out = output_dir(args, doc, "runs/sweep")
    jobs = []
    for variant in variants:
        for seed in seeds:
            run_doc = dict(doc)
            run_doc["variant"] = variant
            run_doc["seed"] = seed
            jobs.append((run_doc, str(base_out / f"{variant}_seed{seed}")))
    workers = min(args.jobs, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for done in pool.map(_sweep_worker, jobs):
                print(done)
    else:
        for payload in jobs:
            print(_sweep_worker(payload))
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    doc = load_config(args.config)
    top = config_block(doc, TOP_LEVEL)
    tol, gap_tolerance = top.get("tol", 1e-8), top.get("gap_tolerance", 1e-6)
    if not 0.0 < tol < math.inf:
        raise ValueError(f"top-level key 'tol' must be finite and > 0, got {tol!r}")
    if not 0.0 <= gap_tolerance < math.inf:
        raise ValueError(f"top-level key 'gap_tolerance' must be finite and >= 0, got {gap_tolerance!r}")
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


def worker_count(text: str) -> int:
    """The --jobs value: an integer >= 1."""
    if int(text) < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {text}")
    return int(text)


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
    p_sweep.add_argument("--jobs", type=worker_count, default=1, help="parallel worker slots, >= 1")
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
