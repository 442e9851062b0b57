"""In-memory span tracer that instruments guardedrl from outside the package.

Every probe names one public function (or class method) of a guardedrl
module. While `instrument` is active, each probed callable is replaced
by a wrapper that records a span (name, start, end, parent, run id) and,
for some probes, a few counts read from the call's arguments or result.
Functions that other guardedrl modules imported by name are replaced
there too, so calls made inside the package are seen. Nothing inside
`src/` is edited; leaving the context restores every original.

A probe whose module or attribute no longer exists is reported as an
absent layer instead of raising, and a count whose arguments no longer
have the expected shape is left out.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

import numpy as np

PACKAGE = "guardedrl"
# The benchmark opens this span around each traced op; it is the traced wall time.
ROOT_SPAN = "perfbench.op"
# Count extraction runs inside this span, so its cost is neither charged to
# the probed layer nor hidden in the caller's self time.
BOOKKEEPING_SPAN = "trace.bookkeeping"

# Raised by a count extractor when the probed function's arguments or result
# no longer have the shape it reads.
SHAPE_ERRORS = (AttributeError, TypeError, ValueError, IndexError, KeyError)

Counts = Callable[[tuple, dict, Any], dict[str, float]]


class Tracer:
    """Spans in flat columns, plus per-(span, key) count sums.

    Spans nest strictly (the program is single-threaded), so the parent
    of a new span is the innermost span still open.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[tuple[str, str], list[float]] = {}
        self.run_id = 0
        self._open: list[int] = []

    def open(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.name_id)
        self.name_id.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._open.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def name_id_of(self, name: str) -> int:
        """Id of a span name, or -1 if no span of that name was recorded."""
        return self._name_ids.get(name, -1)

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    def add_counts(self, name: str, values: dict[str, float]) -> None:
        for key, value in values.items():
            entry = self.counts.setdefault((name, key), [0.0, 0])
            entry[0] += value
            entry[1] += 1

    def columns(self) -> dict[str, np.ndarray]:
        return {
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "run": np.frombuffer(self.run, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }


def self_times(start: np.ndarray, end: np.ndarray, parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Children of one parent never overlap (spans nest strictly), so this
    is the part of the span's interval that no child covers.
    """
    duration = np.asarray(end, dtype=np.float64) - np.asarray(start, dtype=np.float64)
    parent = np.asarray(parent)
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=duration.size
    )
    return duration - covered


def max_repeat(keys: Iterable) -> int:
    """Largest number of times one key occurs; the learner folds repeats in that many rounds."""
    counts = Counter(keys)
    if not counts:
        raise ValueError("no keys")
    return max(counts.values())


def _arg(args: tuple, kwargs: dict, position: int, name: str) -> Any:
    return args[position] if len(args) > position else kwargs[name]


def projection_counts(args, kwargs, result) -> dict[str, float]:
    return {"modified": float(bool(result.was_modified)), "distance": float(result.distance)}


def batch_counts(args, kwargs, result) -> dict[str, float]:
    mask = np.asarray(result.online_mask, dtype=bool)
    return {
        "slots": float(mask.size),
        "online": float(mask.sum()),
        "fallback": float(result.fallback_count),
    }


def starved_counts(args, kwargs, result) -> dict[str, float]:
    _, starved = result
    return {"starved": float(starved)}


def critic_rounds(args, kwargs, result) -> dict[str, float]:
    batch = _arg(args, kwargs, 1, "batch")
    return {"rounds": float(max_repeat((int(tr.s), int(tr.a_exec)) for tr in batch))}


def actor_rounds(args, kwargs, result) -> dict[str, float]:
    states = _arg(args, kwargs, 1, "states")
    return {"rounds": float(max_repeat(int(s) for s in states))}


def sweep_counts(args, kwargs, result) -> dict[str, float]:
    return {"sweeps": float(result.iterations)}


@dataclass(frozen=True)
class Probe:
    module: str  # guardedrl submodule
    attr: str  # function name, or "Class.method"
    counts: Counts | None = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


# The layer map: one row per probed callable, grouped by module (= layer).
PROBES = (
    Probe("envs", "env_step"),
    Probe("envs", "collect_offline_dataset"),
    Probe("guardian", "project_action", projection_counts),
    Probe("sampling", "sample_hybrid_batch", batch_counts),
    Probe("sampling", "OnlineBuffer.window_draw"),
    Probe("sampling", "OfflineDataset.window_draw"),
    Probe("sampling", "OnlineBuffer.append"),
    Probe("sampling", "OfflineDataset.load_jsonl"),
    Probe("sampling", "derive_bc_policy"),
    Probe("learner", "compute_targets", starved_counts),
    Probe("learner", "update_critics", critic_rounds),
    Probe("learner", "update_actor", actor_rounds),
    Probe("learner", "soft_update_targets"),
    Probe("learner", "ensemble_variance"),
    Probe("metrics", "td_error_stats"),
    Probe("metrics", "shadow_rates"),
    Probe("trainer", "evaluate_policy"),
    Probe("trainer", "measure_ttfv"),
    Probe("trainer", "run_training"),
    Probe("mdp", "solve_guarded_value_iteration", sweep_counts),
    Probe("mdp", "solve_pruned_value_iteration"),
    Probe("mdp", "apply_guarded_bellman"),
)


def _wrap(tracer: Tracer, name: str, fn: Callable, counts: Counts | None) -> Callable:
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if counts is not None:
            with tracer.span(BOOKKEEPING_SPAN):
                try:
                    values = counts(args, kwargs, result)
                except SHAPE_ERRORS:
                    values = {}
                tracer.add_counts(name, values)
        return result

    return traced


def _install(tracer: Tracer, probe: Probe, undo: list) -> bool:
    try:
        module = importlib.import_module(f"{PACKAGE}.{probe.module}")
    except ImportError:
        return False
    owner_name, _, attr = probe.attr.rpartition(".")
    if owner_name:
        owner = getattr(module, owner_name, None)
        raw = vars(owner).get(attr) if isinstance(owner, type) else None
        if raw is None:
            return False
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(_wrap(tracer, probe.name, raw.__func__, probe.counts))
        elif callable(raw):
            replacement = _wrap(tracer, probe.name, raw, probe.counts)
        else:
            return False
        undo.append((owner, attr, raw))
        setattr(owner, attr, replacement)
        return True
    fn = getattr(module, attr, None)
    if not callable(fn):
        return False
    wrapped = _wrap(tracer, probe.name, fn, probe.counts)
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for key, value in list(vars(mod).items()):
            if value is fn:
                undo.append((mod, key, fn))
                setattr(mod, key, wrapped)
    return True


@contextmanager
def instrument(tracer: Tracer, probes: Iterable[Probe] = PROBES) -> Iterator[list[str]]:
    """Wrap every probe for the duration of the block; yields the absent probe names."""
    undo: list = []
    absent: list[str] = []
    try:
        for probe in probes:
            if not _install(tracer, probe, undo):
                absent.append(probe.name)
        yield absent
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
