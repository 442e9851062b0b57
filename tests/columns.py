"""Test helper: transition columns from TransitionRecord rows."""

import numpy as np

from guardedrl.sampling import TransitionBatch

_FIELDS = ("s", "a_exec", "r", "s_next", "done", "t", "episode")  # TransitionBatch order


def columns_of(records):
    """TransitionBatch with one row per record, in order.

    OfflineDataset(columns_of(records).columns()) is a dataset of the rows.
    """
    dtypes = [col.dtype for col in TransitionBatch.zeros(0).columns()]
    return TransitionBatch(*(np.array([getattr(tr, name) for tr in records], dtype=dtype)
                             for name, dtype in zip(_FIELDS, dtypes)))
