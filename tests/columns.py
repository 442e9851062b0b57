"""Test helpers: transition columns and datasets from TransitionRecord rows, and replay rows by arrival."""

import numpy as np

from guardedrl.sampling import OfflineDataset, TransitionBatch

_FIELDS = ("s", "a_exec", "r", "s_next", "done", "t", "episode")  # dataset row order
_DTYPES = (np.int64, np.int64, np.float64, np.int64, np.bool_, np.int64, np.int64)


def row_columns(records):
    """One array per dataset row column (s, a, r, s_next, done, t, episode)."""
    return [np.array([getattr(tr, name) for tr in records], dtype=dtype)
            for name, dtype in zip(_FIELDS, _DTYPES)]


def columns_of(records):
    """TransitionBatch (the learner's five columns) with one row per record, in order."""
    return TransitionBatch(*row_columns(records)[:5])


def dataset_of(records):
    """OfflineDataset of the records, in order."""
    return OfflineDataset(row_columns(records))


def episode_count(dataset):
    """Episodes of a dataset: runs of rows with one episode id."""
    return 1 + int(np.count_nonzero(dataset.episode[1:] != dataset.episode[:-1]))


def ring_rows(store, appended):
    """Store rows of the online records a ring keeps after `appended` arrivals, oldest first."""
    arrivals = np.arange(max(0, appended - store.capacity), appended)
    return store.num_offline + arrivals % store.capacity
