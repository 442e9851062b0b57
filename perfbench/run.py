"""Benchmark entry point: one workload, one seed, one result line.

Run from the repository root:

    python3 perfbench/run.py --workload cliff_ablation --seed 1 --seconds 10 --trace 0

The last line of standard output is a JSON object with `correct`,
`attempted`, `failed` and `metrics` (end-to-end metrics with --trace 0,
per-layer metrics with --trace 1); the line before it records the
environment and the per-op detail. Span files and scratch data go to
`.perfbench/` under the repository root. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = "1"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> str:
    """Pin BLAS to one thread (<= nproc); must run before numpy is imported.

    The solver's matrix-vector products (S <= 300) were not faster on two
    threads, and one thread keeps BLAS thread scheduling out of the timings.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = BLAS_THREADS
    return BLAS_THREADS


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="a name from BENCHMARK.json")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    threads = cap_blas_threads()
    src = ROOT / "src"
    if not (src / "guardedrl" / "__init__.py").is_file():
        print(f"perfbench: guardedrl sources not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from bench import run_benchmark
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    result, info = run_benchmark(args.workload, args.seed, args.seconds, bool(args.trace),
                                 ROOT / ".perfbench", threads)
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
