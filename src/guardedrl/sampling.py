"""Hybrid offline/online data management with curriculum schedules.

Replay draws mix a static offline dataset with an online FIFO ring
buffer. The mixing weight follows a sigmoid annealing schedule and the
temporal window of each draw follows a power-law curriculum: a batch
slot first picks its source (per-sample Bernoulli with the current
mixing weight), then an anchor transition uniformly within the source,
then a transition uniformly from the contiguous intra-episode window of
the current curriculum length starting at the anchor. Windows never
cross episode boundaries.

A run keeps both sources in one ReplayStore: the learner's five columns
(s, a, r, s_next, done) with the offline rows first, then the ring's
slots, allocated once. One window-end array beside them bounds every
anchor's window. A batch is one vector of store rows and one gather per
column. The generator is consumed in this order, each step one
vectorized draw over the slots it concerns, taken in slot order:

  1. one uniform per slot for the source (online iff u < lambda);
  2. the online anchors, then the online in-window offsets;
  3. the offline anchors, then the offline in-window offsets; the
     offline slots include online requests that fell back because the
     online ring was empty.

A step with no slots draws nothing. The store is single-writer;
sampling takes place between writes.
"""

from __future__ import annotations

import contextlib
import json
import math
from array import array
from dataclasses import dataclass
from itertools import count, islice
from operator import itemgetter
from pathlib import Path
from typing import Sequence

import numpy as np

from .mdp import check_count, check_range


@dataclass
class TransitionRecord:
    """One transition as a row of scalars, in dataset row order.

    The package writes rows as columns; this type stays exported for
    code that builds rows one at a time (the benchmark's tests do).
    """

    s: int
    a_exec: int
    r: float
    s_next: int
    done: bool
    t: int
    episode: int


# Column name -> dtype of the learner's columns, in TransitionBatch field order.
_COLUMNS = {
    "s": np.int64,
    "a": np.int64,
    "r": np.float64,
    "s_next": np.int64,
    "done": np.bool_,
}
# A dataset row adds its step index t and its episode id.
_ROW_DTYPES = (*_COLUMNS.values(), np.int64, np.int64)
# array typecodes of the same row: compact buffers filled row by row.
_TYPECODES = "qqdqBqq"
# JSONL key of each row column, in the same order.
_JSONL_KEYS = ("s", "a", "r", "s2", "done", "t", "ep")
# One JSONL row: str() of a Python int or finite float is its JSON spelling.
_JSONL_ROW = "{" + ", ".join(f'"{key}": %s' for key in _JSONL_KEYS) + "}\n"
# What a JSONL value must be to fill a buffer of each typecode.
_EXPECTED = {"q": "an integer", "d": "a number", "B": "a boolean"}
# A done flag must be a JSON boolean (or 0/1); other values are rejected.
_FLAGS = {False: 0, True: 1}
# The type that a row key's buffer would store but the format refuses: a
# boolean in a numeric column, a float (0.0 hashes like False) as done.
_REFUSED = {key: float if key == "done" else bool for key in _JSONL_KEYS}
# A row's values in column order.
_ROW_VALUES = itemgetter(*_JSONL_KEYS)
# Lines the loader parses with one json.loads: 512 rows of the usual width
# are about 36 kB.
_CHUNK_LINES = 512
# Pseudo-count added to every (state, action) of the behavior-cloning policy.
BC_SMOOTHING = 0.01


def column_buffers() -> tuple[array, ...]:
    """Empty typed buffers, one per dataset row column (s, a, r, s_next, done, t, episode)."""
    return tuple(array(code) for code in _TYPECODES)


@dataclass(frozen=True, eq=False)  # columns are arrays: no elementwise ==
class TransitionBatch:
    """The learner's columns of equal-length transitions: the one batch type.

    Column a holds the executed action.
    """

    s: np.ndarray
    a: np.ndarray
    r: np.ndarray
    s_next: np.ndarray
    done: np.ndarray

    def __len__(self) -> int:
        return self.s.shape[0]

    def columns(self) -> tuple[np.ndarray, ...]:
        return (self.s, self.a, self.r, self.s_next, self.done)

    @classmethod
    def zeros(cls, n: int) -> "TransitionBatch":
        return cls(*(np.zeros(n, dtype=dtype) for dtype in _COLUMNS.values()))

    def take(self, index: np.ndarray) -> "TransitionBatch":
        """Rows at the given positions, in that order."""
        return TransitionBatch(*(col[index] for col in self.columns()))


@dataclass(frozen=True)
class DtsConfig:
    """Temporal curriculum: window length grows from delta_min to delta_max.

    Integers delta_max >= delta_min >= 1 and horizon >= 1; finite beta > 0.
    """

    delta_min: int
    delta_max: int
    beta: float
    horizon: int

    def __post_init__(self):
        check_count("delta_min", self.delta_min, 1)
        check_count("delta_max", self.delta_max, self.delta_min)
        check_range("beta", self.beta, 0, math.inf, low_open=True, high_open=True)
        check_count("horizon", self.horizon, 1)


@dataclass(frozen=True)
class DssConfig:
    """Mixing-weight annealing: sigmoid ramp from lambda_min toward lambda_max.

    0 <= lambda_min <= lambda_max <= 1; finite k > 0; integer horizon >= 1.
    """

    lambda_min: float
    lambda_max: float
    k: float
    horizon: int

    def __post_init__(self):
        check_range("lambda_min", self.lambda_min, 0, 1)
        check_range("lambda_max", self.lambda_max, self.lambda_min, 1)
        check_range("k", self.k, 0, math.inf, low_open=True, high_open=True)
        check_count("horizon", self.horizon, 1)


def dts_interval(t: int, cfg: DtsConfig) -> int:
    """Window length at step t: round(delta_min + (delta_max - delta_min) * (t/T)^beta).

    Clamped to [delta_min, delta_max]; t past the horizon clamps to
    delta_max. Non-decreasing in t. t is an integer >= 0.
    """
    check_count("t", t, 0)
    frac = min(t / cfg.horizon, 1.0)
    value = cfg.delta_min + (cfg.delta_max - cfg.delta_min) * frac**cfg.beta
    return int(min(max(round(value), cfg.delta_min), cfg.delta_max))


def _logistic(x: float) -> float:
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


def dss_mixing(t: int, cfg: DssConfig) -> float:
    """Online mixing weight at step t: lambda_min + span * sigmoid(k * (t - T/2)).

    Strictly increasing in t for k > 0 and confined to
    (lambda_min, lambda_max). t is an integer >= 0.
    """
    check_count("t", t, 0)
    return cfg.lambda_min + (cfg.lambda_max - cfg.lambda_min) * _logistic(cfg.k * (t - cfg.horizon / 2.0))


def _check_episode_continuity(data: TransitionBatch, t: np.ndarray, bounds: np.ndarray) -> None:
    """Raise on the first record that does not continue its predecessor's episode.

    bounds[i]:bounds[i + 1] are the rows of episode i. Within an episode
    done may only be set on the last record, t is consecutive and s
    equals the previous s_next.
    """
    if len(data) < 2:
        return
    inside = np.ones(len(data) - 1, dtype=bool)  # pair (k, k + 1) in one episode
    inside[bounds[1:-1] - 1] = False
    done_mid = inside & data.done[:-1]
    t_jump = inside & (t[1:] != t[:-1] + 1)
    chain_broken = inside & (data.s[1:] != data.s_next[:-1])
    bad = np.flatnonzero(done_mid | t_jump | chain_broken)
    if bad.size == 0:
        return
    k = int(bad[0])
    index = int(np.searchsorted(bounds, k, side="right")) - 1
    pos = k - int(bounds[index])
    if done_mid[k]:
        raise ValueError(f"episode {index}: done mid-episode at position {pos}")
    if t_jump[k]:
        raise ValueError(f"episode {index}: step index jumps at position {pos + 1}")
    raise ValueError(f"episode {index}: state chain broken at position {pos + 1}")


class OfflineDataset:
    """Static episode-structured transitions: the learner's columns plus t and episode."""

    def __init__(self, buffers: Sequence):
        """Dataset over row-ordered column buffers (s, a, r, s_next, done, t, episode).

        Each buffer holds one column's items in its dtype: the array
        buffers of column_buffers, or contiguous numpy arrays. Rows of
        one episode are contiguous; a change of episode id starts a new
        episode. The buffers are wrapped, not copied; zero rows are refused.
        """
        *columns, t, episode = (
            np.frombuffer(buf, dtype=dtype) for buf, dtype in zip(buffers, _ROW_DTYPES)
        )
        data = TransitionBatch(*columns)
        if len(data) == 0:
            raise ValueError("offline dataset is empty")
        starts = np.ones(len(data), dtype=bool)
        starts[1:] = episode[1:] != episode[:-1]
        bounds = np.append(np.flatnonzero(starts), len(data))
        _check_episode_continuity(data, t, bounds)
        self.transitions = data
        self.t = t
        self.episode = episode
        # One past the last row of each row's episode: an anchor's window end.
        self._end = np.repeat(bounds[1:], np.diff(bounds))

    def __len__(self) -> int:
        return len(self.transitions)

    def check_index_ranges(self, num_states: int, num_actions: int) -> None:
        """Raise on the first row whose s or s_next is outside [0, S) or a outside [0, A)."""
        data = self.transitions
        bad_s = (data.s < 0) | (data.s >= num_states)
        bad_s_next = (data.s_next < 0) | (data.s_next >= num_states)
        bad_a = (data.a < 0) | (data.a >= num_actions)
        bad = np.flatnonzero(bad_s | bad_s_next | bad_a)
        if bad.size == 0:
            return
        i = int(bad[0])
        if bad_s[i]:
            what = f"s = {int(data.s[i])} outside [0, {num_states})"
        elif bad_s_next[i]:
            what = f"s2 = {int(data.s_next[i])} outside [0, {num_states})"
        else:
            what = f"a = {int(data.a[i])} outside [0, {num_actions})"
        raise ValueError(
            f"offline row {i} (episode {int(self.episode[i])}, t {int(self.t[i])}): {what}"
        )

    def save_jsonl(self, path: str | Path) -> None:
        """Write one line per transition, the bytes of json.dumps on each row's dict.

        A non-finite "r", which load_jsonl refuses, raises ValueError
        naming the row before the file is opened.
        """
        cols = self.transitions
        bad = np.flatnonzero(~np.isfinite(cols.r))
        if bad.size:
            raise ValueError(f"row {bad[0]}: key 'r' must be finite, got {float(cols.r[bad[0]])!r}")
        columns = [col.tolist() for col in (*cols.columns(), self.t, self.episode)]
        columns[4] = [("false", "true")[flag] for flag in columns[4]]
        with open(path, "w") as fh:
            fh.writelines(map(_JSONL_ROW.__mod__, zip(*columns)))

    @classmethod
    def load_jsonl(cls, path: str | Path) -> "OfflineDataset":
        """Read one transition per line; a change of "ep" starts a new episode.

        Blank lines are skipped and keys beyond the seven are ignored. A
        line that is not a JSON object with every key, integer indices,
        a finite numeric "r" and a boolean (or 0/1) "done" raises ValueError
        naming path:line and the key: first a key whose value cannot be
        stored, then a boolean in a numeric column or a float "done", then
        a non-finite "r". A file that is not UTF-8 raises ValueError
        naming the path, and so does one without a transition. The problem
        named is the first one that reading one line at a time meets.

        The file is read once, in chunks of _CHUNK_LINES lines.
        """
        buffers = column_buffers()
        with open(path) as fh:
            for first in count(1, _CHUNK_LINES):  # every chunk but the last is full
                lines, stop = [], None
                try:
                    lines.extend(islice(fh, _CHUNK_LINES))  # keeps the lines read before a bad byte
                except UnicodeDecodeError as exc:
                    stop = f"{path}: {exc}"
                _extend_by_chunk(path, buffers, lines, first, stop)
                if not lines:
                    break
        if not buffers[0]:
            raise ValueError(f"{path}: no transitions")
        return cls(buffers)


def _extend_by_chunk(path: str | Path, buffers: tuple[array, ...], lines: list[str], first: int, stop: str | None) -> None:
    """Append the rows of lines, numbered from first; raise ValueError naming the first bad line, else stop if given.

    The lines are parsed as one array with a 0 between neighbours. A 0
    after a comma is invalid inside an object, a line without brackets
    opens no array, and a JSON string cannot span a line end, so each 0
    is an element of the outer array. 2n - 1 elements for n lines then
    mean that each line alone is one JSON value, and the even elements
    are those values in order. Other chunks are parsed line by line,
    skipping blank lines, up to the first line that is not JSON, which
    is named after the rows above it.
    """
    text = ",0,".join(lines)
    values = []
    if "[" not in text and "]" not in text:
        with contextlib.suppress(ValueError, RecursionError):
            values = json.loads("[" + text + "]")
    if len(values) == 2 * len(lines) - 1:
        values, linenos = values[::2], range(first, first + len(lines))
    else:
        values, linenos = [], []
        for lineno, line in enumerate(lines, first):
            if line := line.strip():
                try:
                    values.append(json.loads(line))
                except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep to parse
                    stop = f"{path}:{lineno}: not valid JSON: {getattr(exc, 'msg', exc)}"
                    break
                linenos.append(lineno)
    if values:
        try:
            columns = list(zip(*map(_ROW_VALUES, values)))
            flags = array("B", map(_FLAGS.__getitem__, columns[4]))
            chunk = [flags if code == "B" else array(code, column) for code, column in zip(_TYPECODES, columns)]
            bad = any(_REFUSED[key] in set(map(type, column)) for key, column in zip(_JSONL_KEYS, columns))
        except (KeyError, TypeError, OverflowError):
            bad = True
        if bad or not np.isfinite(np.frombuffer(chunk[2], dtype=np.float64)).all():
            lineno, problem = next((n, p) for n, v in zip(linenos, values) if (p := _row_problem(v)))
            raise ValueError(f"{path}:{lineno}: {problem}")
        for buf, part in zip(buffers, chunk):
            buf.extend(part)
    if stop:
        raise ValueError(stop)


def _row_problem(row) -> str | None:
    """Why a parsed line is not a row, or None for a row that _extend_by_chunk stores.

    The first of, in order: a missing or unstorable key in column order,
    a refused type in column order, a non-finite "r".
    """
    if not isinstance(row, dict):
        return f"expected a JSON object, got {type(row).__name__}"
    for key, code in zip(_JSONL_KEYS, _TYPECODES):
        if key not in row:
            return f"missing key {key!r}"
        try:
            array(code, [_FLAGS[row[key]] if code == "B" else row[key]])
        except (KeyError, TypeError, OverflowError):
            return f"key {key!r} must be {_EXPECTED[code]}, got {row[key]!r}"
    for key, code in zip(_JSONL_KEYS, _TYPECODES):
        if type(row[key]) is _REFUSED[key]:
            return f"key {key!r} must be {_EXPECTED[code]}, got {row[key]!r}"
    if not math.isfinite(row["r"]):
        # json reads NaN and Infinity, which are not JSON numbers.
        return f"key 'r' must be finite, got {row['r']!r}"
    return None


# Sentinel run end of a run still growing.
_OPEN_RUN = np.iinfo(np.int64).max


class ReplayStore:
    """A run's replay: the offline rows, then an online FIFO ring, in one set of columns.

    Rows [0, num_offline) hold the offline dataset (never empty) in its
    order, and these rows never change; a capacity that is not an
    integer >= 1 is refused. The online record with arrival
    number n (0 = first ever appended) sits in row
    num_offline + n % capacity; eviction is strictly FIFO, and online
    positions 0..online_count-1 count from the oldest retained
    record. A run is the arrivals up to and including one appended with
    last; a run's retained records are contiguous in arrival order. The
    window-end array holds, per offline row, the row one past its
    episode, and per ring slot, the arrival number one past its run
    (_OPEN_RUN while the run still grows).
    """

    def __init__(self, offline: OfflineDataset, capacity: int):
        n = len(offline)
        check_count("capacity", capacity, 1)
        self.num_offline = n
        self.capacity = capacity
        self.columns = TransitionBatch.zeros(n + capacity)
        for column, source in zip(self.columns.columns(), offline.transitions.columns()):
            column[:n] = source
        self._end = np.empty(n + capacity, dtype=np.int64)
        self._end[:n] = offline._end
        self._run_end = self._end[n:]  # the ring's part, by slot
        self._appended = 0
        self._run_start = 0

    @property
    def online_count(self) -> int:
        """Online records retained in the ring."""
        return min(self._appended, self.capacity)

    def append(self, s: int, a: int, r: float, s_next: int, done: bool, last: bool) -> None:
        """Write one executed transition into the ring, evicting the oldest when full; last closes its run."""
        n = self._appended
        row = self.num_offline + n % self.capacity
        columns = self.columns
        columns.s[row] = s
        columns.a[row] = a
        columns.r[row] = r
        columns.s_next[row] = s_next
        columns.done[row] = done
        self._end[row] = _OPEN_RUN
        self._appended = n + 1
        if last:
            retained = np.arange(max(self._run_start, n + 1 - self.online_count), n + 1)
            self._run_end[retained % self.capacity] = n + 1
            self._run_start = n + 1

    def offline_window(
        self, anchors: np.ndarray, delta: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Row drawn uniformly per offline anchor row from its episode window of length <= delta."""
        span = np.minimum(delta, self._end[anchors] - anchors)
        return anchors + rng.integers(0, span)

    def online_window(
        self, anchors: np.ndarray, delta: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Row drawn uniformly per online anchor position from its forward run of length <= delta.

        The window ends at the end of the anchor's run or at the newest
        record.
        """
        n = self._appended
        arrivals = anchors + (n - self.online_count)
        span = np.minimum(delta, np.minimum(self._run_end[arrivals % self.capacity], n) - arrivals)
        return self.num_offline + (arrivals + rng.integers(0, span)) % self.capacity


@dataclass
class HybridBatch:
    """Sampled column batch with per-slot provenance and offline-fallback count."""

    transitions: TransitionBatch
    online_mask: np.ndarray
    fallback_count: int


def sample_hybrid_batch(
    store: ReplayStore,
    lam: float,
    delta: int,
    batch_size: int,
    rng: np.random.Generator,
) -> HybridBatch:
    """Draw a batch mixing online and offline sources.

    Each slot independently samples from the online ring with
    probability lam, else offline; an empty ring falls back to offline
    and the fallback is counted. Within the chosen source an anchor is
    drawn uniformly and the returned transition uniformly from the
    anchor's in-episode window of length min(delta, available span);
    batch_size and delta are integers >= 1. Identical seed and store
    history reproduce identical batches; the generator order is given
    in the module docstring.
    """
    check_count("batch_size", batch_size, 1)
    check_range("lam", lam, 0, 1)
    check_count("delta", delta, 1)
    want_online = rng.random(batch_size) < lam
    online = store.online_count
    online_mask = want_online if online else np.zeros(batch_size, dtype=bool)
    n_online = int(np.count_nonzero(online_mask))
    rows = np.empty(batch_size, dtype=np.int64)
    if n_online:
        rows[online_mask] = store.online_window(rng.integers(online, size=n_online), delta, rng)
    offline_anchors = rng.integers(store.num_offline, size=batch_size - n_online)
    rows[~online_mask] = store.offline_window(offline_anchors, delta, rng)
    fallback = 0 if online else int(np.count_nonzero(want_online))
    return HybridBatch(store.columns.take(rows), online_mask, fallback)


def derive_bc_policy(off: OfflineDataset, num_states: int, num_actions: int) -> np.ndarray:
    """Behavior-cloning policy from offline action counts with additive smoothing.

    pi(a|s) = (count(s, a) + BC_SMOOTHING) / (count(s) + A * BC_SMOOTHING);
    unvisited states come out uniform. Smoothing keeps every probability
    strictly positive so KL divergences against this policy stay finite.
    """
    counts = np.zeros((num_states, num_actions))
    np.add.at(counts, (off.transitions.s, off.transitions.a), 1.0)
    smoothed = counts + BC_SMOOTHING
    return smoothed / smoothed.sum(axis=1, keepdims=True)
