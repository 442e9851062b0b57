"""Batch experiment front-end: solve, train, sweep, and report.

One JSON config file drives everything; a handful of flat flags
(--seed, --variant, --steps, --out) override it for train runs. The
effective config (after overrides, with the dataset path pinned) is
echoed into the output directory so any run can be reproduced from its
own provenance record. Exit codes: 0 success, 1 runtime failure
(out of memory included: one line, `out of memory: <message>`), 2 usage
or parse failure. File formats are documented in docs/formats.md.
"""

from __future__ import annotations

import argparse
import contextlib
import difflib
import json
import math
import os
import shutil
import statistics
import sys
import tempfile
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, asdict, dataclass, fields
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
    try:
        doc = json.loads(text)
    except RecursionError as exc:  # nested deeper than the parser goes: a parse error like any other
        raise json.JSONDecodeError(str(exc), text, 0) from None
    if not isinstance(doc, dict):
        raise ValueError(f"config {path} must be a JSON object")
    return doc


# generate_offline behavior name -> its policy table on a grid's (mdp, spec).
BEHAVIORS = {
    "uniform_safe": lambda mdp, spec: uniform_safe_policy(spec),
    "uniform": lambda mdp, spec: uniform_policy(mdp.num_states, mdp.num_actions),
}


@dataclass(frozen=True)
class GenerateOfflineConfig:
    """The generate_offline block: behavior-policy rollouts on the env grid."""

    episodes: int = 100
    max_ep_len: int = 100
    behavior: str = "uniform_safe"
    seed: int = 0
    guardian_filter: bool = True

    def __post_init__(self):
        if self.behavior not in BEHAVIORS:
            raise ValueError(f"generate_offline key 'behavior' must be one of {', '.join(BEHAVIORS)}, "
                             f"got {self.behavior!r}")
        for key, least in (("episodes", 1), ("max_ep_len", 1), ("seed", 0)):
            check_count(f"generate_offline key {key!r}", getattr(self, key), least)


@dataclass(frozen=True)
class RandomMdpConfig:
    """solve's random_mdp block: the arguments of build_random_safe_mdp."""

    num_states: int
    num_actions: int
    safe_fraction: float = 0.7
    seed: int = 0
    gamma: float = 0.9

    def __post_init__(self):
        for key, least in (("num_states", 1), ("num_actions", 1), ("seed", 0)):
            check_count(f"random_mdp key {key!r}", getattr(self, key), least)


@dataclass(frozen=True)
class SolveTolerances:
    """solve's top-level keys: the solvers' stopping tolerance and the largest accepted gap between them."""

    tol: float = 1e-8
    gap_tolerance: float = 1e-6

    def __post_init__(self):
        check_range("top-level key 'tol'", self.tol, 0, math.inf, low_open=True, high_open=True)
        check_range("top-level key 'gap_tolerance'", self.gap_tolerance, 0, math.inf, high_open=True)


@dataclass(frozen=True)
class SweepConfig:
    """The sweep block: variants (known names) and seeds (JSON integers >= 0), both non-empty, neither repeating."""

    variants: tuple[str, ...] = ()
    seeds: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.variants or not self.seeds:
            raise ValueError("config needs a sweep block with non-empty variants and seeds")
        for variant in self.variants:
            if variant not in VARIANTS:
                raise ValueError(f"sweep variants must be among {', '.join(VARIANTS)}, got {variant!r}")
        for seed in self.seeds:
            check_count("sweep seeds", seed, 0)
        for name, values in (("variants", self.variants), ("seeds", self.seeds)):
            for i, value in enumerate(values):
                if value in values[:i]:  # its runs would share one directory
                    raise ValueError(f"sweep {name} must not repeat, got {value!r} more than once")


# The JSON value kinds a config key accepts; a boolean is never a number.
KINDS = {"a number": (int, float), "an integer": (int,), "a string": (str,),
         "a boolean": (bool,), "an array": (list,), "a string or an array": (str, list)}
_FIELD_KINDS = {"float": "a number", "int": "an integer", "str": "a string", "bool": "a boolean"}
# Block name -> key -> kind: the block's dataclass fields (tuples and sets are
# arrays), except schedule horizons and the learner's discount. Those are
# derived from total_steps and env.gamma, so no file may set them; the fields
# go (ROADMAP item 5) once perfbench stops passing them (item 1).
BLOCK_KEYS = {
    name: {f.name: _FIELD_KINDS.get(f.type, "an array") for f in fields(cls) if f.name != "horizon"}
    for name, cls in (("env", GridWorldSpec), ("learner", LearnerConfig), ("dts", DtsConfig),
                      ("dss", DssConfig), ("generate_offline", GenerateOfflineConfig),
                      ("random_mdp", RandomMdpConfig), ("sweep", SweepConfig))
}
del BLOCK_KEYS["learner"]["gamma"]
BLOCK_KEYS["env"]["map"] = "a string or an array"
# The top level itself: RunConfig's scalar fields, the dataset path, the
# output directory and solve's tolerances. Other top-level keys are
# ignored, so one file can serve every subcommand.
TOP_LEVEL = "top-level"
BLOCK_KEYS[TOP_LEVEL] = {f.name: _FIELD_KINDS[f.type] for cls in (RunConfig, SolveTolerances)
                         for f in fields(cls) if f.type in _FIELD_KINDS}
BLOCK_KEYS[TOP_LEVEL].update(offline_dataset="a string", output_dir="a string")


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


def parse_block(doc: dict, name: str, cls, hint: str = "", **preset):
    """The doc's `name` block (see config_block) as a cls; presets fill absent fields, then a missing one is refused."""
    block = {**preset, **config_block(doc, name)}
    for f in fields(cls):
        if f.default is MISSING and f.name not in block:
            raise ValueError(f"{name} block is missing key {f.name!r}{hint}")
    return cls(**{f.name: block[f.name] for f in fields(cls) if f.name in block})


def grid_from_doc(doc: dict) -> GridWorldSpec:
    """The grid of the doc's env block: a map plus the numbers, or every field."""
    env = config_block(doc, "env")
    if "map" in env:
        numbers = {key: v for key, v in env.items() if BLOCK_KEYS["env"][key] == "a number"}
        for key in env:
            if key not in numbers and key != "map":
                raise ValueError(f"env key {key!r} cannot be given with 'map', which sets the geometry")
        return GridWorldSpec.from_ascii(env["map"], **numbers)
    return parse_block(doc, "env", GridWorldSpec, " (give 'map', or 'width', 'height', 'start' and 'goal')")


def reject_non_finite(value, path: str = "config") -> None:
    """Raise on the first NaN or +-Infinity in a parsed config value, naming its path."""
    if isinstance(value, float) and not math.isfinite(value):
        raise ValueError(f"{path} must be finite, got {value!r}")
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, item in items:
        reject_non_finite(item, f"{path}[{key!r}]")


def run_config_from_doc(doc: dict) -> RunConfig:
    """Parse a train config; every block and every number is checked before anything is built or written."""
    reject_non_finite(doc)
    for key in ("env", "total_steps"):
        if key not in doc:
            raise ValueError(f"config is missing required key {key!r}")
    horizon = max(config_block(doc, TOP_LEVEL)["total_steps"], 1)
    grid = grid_from_doc(doc)
    parse_block(doc, "generate_offline", GenerateOfflineConfig)
    return parse_block(
        doc, TOP_LEVEL, RunConfig, variant="guardian", seed=0, grid=grid,
        learner=parse_block(doc, "learner", LearnerConfig, gamma=grid.gamma),
        dts=parse_block(doc, "dts", DtsConfig, delta_min=1, delta_max=16, beta=2.0, horizon=horizon),
        dss=parse_block(doc, "dss", DssConfig, lambda_min=0.1, lambda_max=0.5, k=10.0 / horizon, horizon=horizon),
    )


def prepare_offline_dataset(doc: dict, grid: GridWorldSpec) -> OfflineDataset:
    """Roll out the "generate_offline" block of a parsed config in memory (deterministic per its seed)."""
    if "generate_offline" not in doc:
        raise ValueError("no offline dataset: configured path missing and no generate_offline block")
    gen = parse_block(doc, "generate_offline", GenerateOfflineConfig)
    mdp, spec = build_cliff_grid(grid)
    return collect_offline_dataset(mdp, spec, BEHAVIORS[gen.behavior](mdp, spec), n_episodes=gen.episodes,
                                   max_ep_len=gen.max_ep_len, seed=gen.seed,
                                   guardian_filter=gen.guardian_filter, start_state=grid.start_state)


@contextlib.contextmanager
def _staged(out_dir: Path, last: str, moves: tuple[tuple[str, Path], ...] = ()):
    """Yield a temporary sibling of out_dir to write a command's files into, then move them into place.

    Each (name, path) of moves goes first, to that path; the other files
    go into out_dir, `last` last, after an earlier `last` there is removed.
    A failed write names the file it was placing (out_dir before that) and
    creates nothing: it removes the files it placed at new paths and every
    directory it made, out_dir's parents too.
    """
    # The missing directories the write may create, deepest first: a failed write removes those it left empty.
    missing = sorted({p.absolute() for d in (out_dir, *(path.parent for _, path in moves))
                      for p in (d, *d.parents) if not p.exists()}, key=lambda p: -len(p.parts))
    staging, target, placed = None, out_dir, []
    try:
        out_dir.parent.mkdir(parents=True, exist_ok=True)
        staging = Path(tempfile.mkdtemp(prefix=f".{out_dir.name}.", dir=out_dir.parent))
        yield staging
        for name, target in moves:
            target.parent.mkdir(parents=True, exist_ok=True)
            if not target.exists():  # another sweep run may have placed it there already
                placed.append(target)
            shutil.move(staging / name, target)
        target = out_dir / last
        out_dir.mkdir(exist_ok=True)
        target.unlink(missing_ok=True)  # an earlier write's `last` would vouch for a mix
        for path in sorted(staging.iterdir(), key=lambda p: p.name == last):
            target = out_dir / path.name
            if not target.exists():
                placed.append(target)
            path.replace(target)
    except OSError as exc:
        for path in placed:  # a file that replaced another stays
            with contextlib.suppress(OSError):
                path.unlink()
        # Name the OS error's path only if it is neither target nor staged (staging is removed below).
        paths = [Path(f) for f in (exc.filename, exc.filename2) if f is not None]
        if paths and all(p == target or p.parent == staging for p in paths):
            raise OSError(f"cannot write {target}: [Errno {exc.errno}] {exc.strerror}") from exc
        raise OSError(f"cannot write {target}: {exc}") from exc
    finally:
        if staging is not None:
            shutil.rmtree(staging, ignore_errors=True)
        for directory in missing:  # a successful write leaves none of them empty
            with contextlib.suppress(OSError):
                directory.rmdir()


def _train_one(doc: dict, cfg: RunConfig, out_dir: Path) -> dict:
    """Train the doc's parsed cfg; nothing reaches the disk until the run succeeded.

    An existing file named by "offline_dataset" is loaded; otherwise the
    dataset is generated in memory. After training, the run files go into
    out_dir through _staged, summary.json last, after a generated dataset
    has gone to its configured path (default: <out_dir>/offline.jsonl).
    """
    configured = doc.get("offline_dataset")
    generated = not (configured and Path(configured).exists())
    offline = prepare_offline_dataset(doc, cfg.grid) if generated else OfflineDataset.load_jsonl(configured)
    dataset_path = Path(configured or out_dir / "offline.jsonl")
    doc = {**doc, "offline_dataset": str(dataset_path.resolve())}
    log = run_training(cfg, offline)
    with _staged(out_dir, "summary.json", (("offline.jsonl", dataset_path),) if generated else ()) as staging:
        log.save(staging)
        (staging / "effective_config.json").write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n")
        if generated:
            offline.save_jsonl(staging / "offline.jsonl")
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
    summary = _train_one(doc, run_config_from_doc(doc), out_dir)
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_sweep(args: argparse.Namespace) -> int:
    doc = load_config(args.config)
    sweep = parse_block(doc, "sweep", SweepConfig)
    base_out = output_dir(args, doc, "runs/sweep")
    runs = [(variant, seed) for variant in sweep.variants for seed in sweep.seeds]
    docs = [{**doc, "variant": variant, "seed": seed} for variant, seed in runs]
    cfgs = [run_config_from_doc(run_doc) for run_doc in docs]  # every run is checked before a worker starts
    out_dirs = [base_out / f"{variant}_seed{seed}" for variant, seed in runs]
    # One worker per core, never more than there are runs. A failed run
    # cancels the runs not yet started and is raised here.
    with ProcessPoolExecutor(min(os.cpu_count() or 1, len(runs))) as pool:
        for out_dir, _ in zip(out_dirs, pool.map(_train_one, docs, cfgs, out_dirs)):
            print(out_dir)
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    doc = load_config(args.config)
    tols = parse_block(doc, TOP_LEVEL, SolveTolerances)
    reject_non_finite(doc)
    if "random_mdp" in doc:
        mdp, spec = build_random_safe_mdp(**asdict(parse_block(doc, "random_mdp", RandomMdpConfig)))
    elif "env" in doc:
        mdp, spec = build_cliff_grid(grid_from_doc(doc))
    else:
        raise ValueError("solve config needs an env or random_mdp block")
    out_dir = output_dir(args, doc, "runs/solve")
    try:
        result = solve_guarded_value_iteration(mdp, spec, tol=tols.tol)
        oracle = solve_pruned_value_iteration(mdp, spec, tol=tols.tol)
    except ConvergenceError as exc:
        print(f"solver failed to converge: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    gap = max_norm_distance(result.q, oracle)
    solution = {"gap": gap, "gap_tolerance": tols.gap_tolerance, "iterations": result.iterations,
                "tol": tols.tol, "within_tolerance": gap <= tols.gap_tolerance}
    with _staged(out_dir, "solution.json") as staging:
        save_problem(staging / "problem.json", mdp, spec)
        (staging / "q_guarded.json").write_text(json.dumps({"q": result.q.tolist()}))
        (staging / "q_pruned_oracle.json").write_text(json.dumps({"q": oracle.tolist()}))
        (staging / "solution.json").write_text(json.dumps(solution, indent=2) + "\n")
    print(json.dumps(solution, indent=2))
    return EXIT_OK if gap <= tols.gap_tolerance else EXIT_RUNTIME


def load_summary(directory: Path) -> dict:
    """A run's summary: an object with a known variant, if any, and each report field a finite number or null."""
    try:
        log = RunLog.load(directory)
        summary = log.summary
        if not summary or not log.records:
            raise ValueError("empty log")
        if not isinstance(summary, dict):
            raise ValueError(f"summary is a JSON {type(summary).__name__}, not an object")
        if not isinstance(summary.get("variant", ""), str):
            raise ValueError(f"summary key 'variant' must be a string, got {summary['variant']!r}")
        if "variant" in summary and summary["variant"] not in VARIANTS:  # a CSV cell must hold no comma or line break
            raise ValueError(f"summary key 'variant' must be one of {', '.join(VARIANTS)}, got {summary['variant']!r}")
        for key in REPORT_FIELDS:
            value = summary.get(key)
            if value is not None and (type(value) not in (int, float) or not math.isfinite(value)):
                raise ValueError(f"summary key {key!r} must be a finite number or null, got {value!r}")
    except (OSError, ValueError, RecursionError) as exc:  # json's decode error is a ValueError
        raise ValueError(f"missing or corrupt run log in {directory}: {exc}") from exc
    return summary


def cmd_report(args: argparse.Namespace) -> int:
    run_dirs: dict[Path, Path] = {}  # each directory once, under the first spelling given
    for run_dir in map(Path, args.run_dirs):
        run_dirs.setdefault(run_dir.resolve(), run_dir)
    if args.out and any(Path(args.out).resolve().is_relative_to(run_dir) for run_dir in run_dirs):
        raise ValueError(f"report --out {args.out} is inside a run directory that report reads; refusing to write there")
    by_variant: dict[str, list[dict]] = {}
    for run_dir in run_dirs.values():
        summary = load_summary(run_dir)
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
    except MemoryError as exc:
        print(f"out of memory: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
