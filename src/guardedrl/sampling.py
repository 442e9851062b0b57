"""Hybrid offline/online data management with curriculum schedules.

Replay draws mix a static offline dataset with an online FIFO ring
buffer. The mixing weight follows a sigmoid annealing schedule and the
temporal window of each draw follows a power-law curriculum: a batch
slot first picks its source (per-sample Bernoulli with the current
mixing weight), then an anchor transition uniformly within the source,
then a transition uniformly from the contiguous intra-episode window of
the current curriculum length starting at the anchor. Windows never
cross episode boundaries.

Both stores keep transitions as numpy columns (TransitionBatch), and a
batch is drawn with array operations. The generator is consumed in this
order, each step one vectorized draw over the slots it concerns, taken
in slot order:

  1. one uniform per slot for the source (online iff u < lambda);
  2. the online anchors, then the online in-window offsets;
  3. the offline anchors, then the offline in-window offsets; the
     offline slots include online requests that fell back because the
     online buffer was empty.

A step with no slots draws nothing. The online buffer is single-writer;
sampling takes place between writes.
"""

from __future__ import annotations

import json
import math
from array import array
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np


@dataclass
class TransitionRecord:
    """One sanitized transition; a_prop is the pre-projection proposal, if any."""

    s: int
    a_exec: int
    r: float
    s_next: int
    done: bool
    t: int
    episode: int
    a_prop: int | None = None


# Column name -> dtype, in TransitionBatch field order.
_COLUMNS = {
    "s": np.int64,
    "a": np.int64,
    "r": np.float64,
    "s_next": np.int64,
    "done": np.bool_,
    "t": np.int64,
    "episode": np.int64,
}


@dataclass(frozen=True, eq=False)  # columns are arrays: no elementwise ==
class TransitionBatch:
    """Transitions as equal-length columns: the one batch type of replay and learning.

    Column a holds the executed action (TransitionRecord.a_exec).
    """

    s: np.ndarray
    a: np.ndarray
    r: np.ndarray
    s_next: np.ndarray
    done: np.ndarray
    t: np.ndarray
    episode: np.ndarray

    def __len__(self) -> int:
        return self.s.shape[0]

    def columns(self) -> tuple[np.ndarray, ...]:
        return tuple(getattr(self, name) for name in _COLUMNS)

    @classmethod
    def zeros(cls, n: int) -> "TransitionBatch":
        return cls(*(np.zeros(n, dtype=dtype) for dtype in _COLUMNS.values()))

    @classmethod
    def from_records(cls, records: Sequence[TransitionRecord]) -> "TransitionBatch":
        """Fill each column straight from the records' attributes."""
        return cls(
            *(
                np.fromiter(map(attrgetter("a_exec" if name == "a" else name), records),
                            dtype=dtype, count=len(records))
                for name, dtype in _COLUMNS.items()
            )
        )

    def take(self, index: np.ndarray) -> "TransitionBatch":
        """Rows at the given positions, in that order."""
        return TransitionBatch(*(col[index] for col in self.columns()))

    def record(self, i: int) -> TransitionRecord:
        return TransitionRecord(
            s=int(self.s[i]),
            a_exec=int(self.a[i]),
            r=float(self.r[i]),
            s_next=int(self.s_next[i]),
            done=bool(self.done[i]),
            t=int(self.t[i]),
            episode=int(self.episode[i]),
        )


@dataclass(frozen=True)
class DtsConfig:
    """Temporal curriculum: window length grows from delta_min to delta_max."""

    delta_min: int
    delta_max: int
    beta: float
    horizon: int

    def __post_init__(self):
        if not 1 <= self.delta_min <= self.delta_max:
            raise ValueError("need 1 <= delta_min <= delta_max")
        if self.beta <= 0.0:
            raise ValueError("beta must be positive")
        if self.horizon < 1:
            raise ValueError("horizon must be a positive integer")


@dataclass(frozen=True)
class DssConfig:
    """Mixing-weight annealing: sigmoid ramp from lambda_min toward lambda_max."""

    lambda_min: float
    lambda_max: float
    k: float
    horizon: int

    def __post_init__(self):
        if not 0.0 <= self.lambda_min <= self.lambda_max <= 1.0:
            raise ValueError("need 0 <= lambda_min <= lambda_max <= 1")
        if self.k <= 0.0:
            raise ValueError("k must be positive")
        if self.horizon < 1:
            raise ValueError("horizon must be a positive integer")


def dts_interval(t: int, cfg: DtsConfig) -> int:
    """Window length at step t: round(delta_min + (delta_max - delta_min) * (t/T)^beta).

    Clamped to [delta_min, delta_max]; t past the horizon clamps to
    delta_max. Non-decreasing in t.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
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
    (lambda_min, lambda_max) for finite t.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    return cfg.lambda_min + (cfg.lambda_max - cfg.lambda_min) * _logistic(cfg.k * (t - cfg.horizon / 2.0))


def _check_episode_continuity(data: TransitionBatch, bounds: np.ndarray) -> None:
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
    t_jump = inside & (data.t[1:] != data.t[:-1] + 1)
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
    """Static episode-structured transition columns with O(1) flat access."""

    def __init__(self, episodes: Iterable[Iterable[TransitionRecord]]):
        episodes = [ep for ep in map(list, episodes) if ep]
        bounds = np.cumsum([0] + [len(ep) for ep in episodes])
        flat = [tr for ep in episodes for tr in ep]
        self._set_columns(TransitionBatch.from_records(flat), bounds)

    def _set_columns(self, data: TransitionBatch, bounds: np.ndarray) -> None:
        _check_episode_continuity(data, bounds)
        self.transitions = data
        self.num_episodes = len(bounds) - 1
        # One past the last row of each row's episode: an anchor's window end.
        self._end = np.repeat(bounds[1:], np.diff(bounds))

    def __len__(self) -> int:
        return len(self.transitions)

    def record(self, i: int) -> TransitionRecord:
        return self.transitions.record(i)

    def records(self) -> list[TransitionRecord]:
        return [self.record(i) for i in range(len(self))]

    def window_positions(
        self, anchors: np.ndarray, delta: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Uniform draw per anchor from its in-episode window of length <= delta."""
        span = np.minimum(delta, self._end[anchors] - anchors)
        return anchors + rng.integers(0, span)

    def take(self, positions: np.ndarray) -> TransitionBatch:
        return self.transitions.take(positions)

    def save_jsonl(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            rows = zip(*(col.tolist() for col in self.transitions.columns()))
            for s, a, r, s2, done, t, ep in rows:
                fh.write(
                    json.dumps({"s": s, "a": a, "r": r, "s2": s2, "done": done, "t": t, "ep": ep})
                    + "\n"
                )

    @classmethod
    def load_jsonl(cls, path: str | Path) -> "OfflineDataset":
        """Read one transition per line; a change of "ep" starts a new episode."""
        # Compact typed buffers, in column order, filled row by row.
        s, a, r, s2, done, t, ep = (array(code) for code in "qqdqBqq")
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                row = json.loads(line)
                s.append(int(row["s"]))
                a.append(int(row["a"]))
                r.append(float(row["r"]))
                s2.append(int(row["s2"]))
                done.append(bool(row["done"]))
                t.append(int(row["t"]))
                ep.append(int(row["ep"]))
        data = TransitionBatch(
            *(np.frombuffer(buf, dtype=dtype)
              for buf, dtype in zip((s, a, r, s2, done, t, ep), _COLUMNS.values()))
        )
        starts = np.ones(len(data), dtype=bool)
        starts[1:] = data.episode[1:] != data.episode[:-1]
        dataset = cls.__new__(cls)
        dataset._set_columns(data, np.append(np.flatnonzero(starts), len(data)))
        return dataset


# Sentinels: a record whose proposal was not recorded, and a run still growing.
_NO_PROPOSAL = -1
_OPEN_RUN = np.iinfo(np.int64).max


class OnlineBuffer:
    """Fixed-capacity ring of transition columns with strictly FIFO eviction.

    The record with arrival number n (0 = first ever appended) sits in
    slot n % capacity; positions 0..len-1 count from the oldest retained
    record. A run is a maximal stretch of arrivals with the same episode
    and consecutive t. Appends arrive in order and eviction is FIFO, so
    a run's retained records are contiguous, and each slot stores the
    arrival number one past its run's last record (_OPEN_RUN while the
    run still grows).
    """

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.capacity = capacity
        self._cols = TransitionBatch.zeros(capacity)
        self._a_prop = np.zeros(capacity, dtype=np.int64)
        self._run_end = np.zeros(capacity, dtype=np.int64)
        self._appended = 0
        self._run_start = 0

    def __len__(self) -> int:
        return min(self._appended, self.capacity)

    def append(self, tr: TransitionRecord) -> None:
        n = self._appended
        cols = self._cols
        last = (n - 1) % self.capacity
        if n and (tr.episode != cols.episode[last] or tr.t != cols.t[last] + 1):
            retained = np.arange(max(self._run_start, n - len(self)), n)
            self._run_end[retained % self.capacity] = n
            self._run_start = n
        i = n % self.capacity
        cols.s[i] = tr.s
        cols.a[i] = tr.a_exec
        cols.r[i] = tr.r
        cols.s_next[i] = tr.s_next
        cols.done[i] = tr.done
        cols.t[i] = tr.t
        cols.episode[i] = tr.episode
        self._a_prop[i] = _NO_PROPOSAL if tr.a_prop is None else tr.a_prop
        self._run_end[i] = _OPEN_RUN
        self._appended = n + 1

    def _slots(self, positions):
        """Ring slots of positions counted from the oldest retained record."""
        return (self._appended - len(self) + positions) % self.capacity

    def record(self, i: int) -> TransitionRecord:
        """i-th record in arrival order, 0 = oldest retained."""
        if not 0 <= i < len(self):
            raise IndexError(i)
        slot = self._slots(i)
        tr = self._cols.record(slot)
        a_prop = int(self._a_prop[slot])
        tr.a_prop = None if a_prop == _NO_PROPOSAL else a_prop
        return tr

    def records(self) -> list[TransitionRecord]:
        return [self.record(i) for i in range(len(self))]

    def window_positions(
        self, anchors: np.ndarray, delta: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Uniform draw per anchor from the forward same-episode run of length <= delta.

        The window ends at the episode boundary (or a break in t) or at
        the newest record.
        """
        oldest = self._appended - len(self)
        run_end = np.minimum(self._run_end[self._slots(anchors)], self._appended) - oldest
        span = np.minimum(delta, run_end - anchors)
        return anchors + rng.integers(0, span)

    def take(self, positions: np.ndarray) -> TransitionBatch:
        return self._cols.take(self._slots(positions))


@dataclass
class HybridBatch:
    """Sampled column batch with per-slot provenance and offline-fallback count."""

    transitions: TransitionBatch
    online_mask: np.ndarray
    fallback_count: int


def sample_hybrid_batch(
    off: OfflineDataset,
    on: OnlineBuffer,
    lam: float,
    delta: int,
    batch_size: int,
    rng: np.random.Generator,
) -> HybridBatch:
    """Draw a batch mixing online and offline sources.

    Each slot independently samples from the online buffer with
    probability lam, else offline; an empty online buffer falls back to
    offline and the fallback is counted. Within the chosen source an
    anchor is drawn uniformly and the returned transition uniformly from
    the anchor's in-episode window of length min(delta, available span).
    Identical seed and buffer history reproduce identical batches; the
    generator order is given in the module docstring.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lam must lie in [0, 1]")
    if delta < 1:
        raise ValueError("delta must be >= 1")
    if len(off) == 0:
        raise ValueError("offline dataset is empty; nothing to sample")
    want_online = rng.random(batch_size) < lam
    if len(on) > 0:
        online_mask, fallback = want_online, 0
    else:
        online_mask = np.zeros(batch_size, dtype=bool)
        fallback = int(np.count_nonzero(want_online))
    n_online = int(np.count_nonzero(online_mask))

    def draw(store, n: int) -> TransitionBatch:
        return store.take(store.window_positions(rng.integers(len(store), size=n), delta, rng))

    if n_online == 0:
        transitions = draw(off, batch_size)
    else:
        from_on = draw(on, n_online)
        from_off = draw(off, batch_size - n_online)
        columns = []
        for on_col, off_col in zip(from_on.columns(), from_off.columns()):
            col = np.empty(batch_size, dtype=on_col.dtype)
            col[online_mask] = on_col
            col[~online_mask] = off_col
            columns.append(col)
        transitions = TransitionBatch(*columns)
    return HybridBatch(transitions=transitions, online_mask=online_mask, fallback_count=fallback)


def derive_bc_policy(
    off: OfflineDataset, num_states: int, num_actions: int, smoothing: float = 0.01
) -> np.ndarray:
    """Behavior-cloning policy from offline action counts with additive smoothing.

    pi(a|s) = (count(s, a) + eps) / (count(s) + A * eps); states never
    visited come out uniform. Smoothing keeps every probability strictly
    positive so KL divergences against this policy stay finite.
    """
    if len(off) == 0:
        raise ValueError("offline dataset is empty")
    counts = np.zeros((num_states, num_actions))
    np.add.at(counts, (off.transitions.s, off.transitions.a), 1.0)
    smoothed = counts + smoothing
    return smoothed / smoothed.sum(axis=1, keepdims=True)
