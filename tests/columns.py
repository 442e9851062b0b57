"""Test helpers: transition columns and datasets from TransitionRecord rows, replay rows by arrival,
a run's internals and the actor's reference objective."""

from types import SimpleNamespace

import numpy as np

from guardedrl import trainer
from guardedrl.learner import log_softmax
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


def record_run_internals(monkeypatch):
    """Make run_training keep what it builds: after a run, .store holds its last ReplayStore, read by a
    recording subclass installed in guardedrl.trainer; .members and .targets its Q ensemble's arrays, which
    td_error_stats receives at every interval, and .probs the policy table its last evaluate_policy call
    read (the final evaluation), both read by recording wrappers."""
    internals = SimpleNamespace(store=None, members=None, targets=None, probs=None)

    class ReplayStore(trainer.ReplayStore):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            internals.store = self

    monkeypatch.setattr(trainer, "ReplayStore", ReplayStore)
    evaluate_policy, td_error_stats = trainer.evaluate_policy, trainer.td_error_stats

    def recording_evaluate_policy(probs, *args, **kwargs):
        internals.probs = probs
        return evaluate_policy(probs, *args, **kwargs)

    def recording_td_error_stats(batch, members, targets, *args):
        internals.members, internals.targets = members, targets
        return td_error_stats(batch, members, targets, *args)

    monkeypatch.setattr(trainer, "evaluate_policy", recording_evaluate_policy)
    monkeypatch.setattr(trainer, "td_error_stats", recording_td_error_stats)
    return internals


def actor_loss(logits_row, qmin_row, alpha):
    """The actor's objective at one state, L = sum_a pi(a) * (alpha * log pi(a) - Qmin(s, a)),
    pi = softmax(logits): the reference that update_actor's analytic gradient is checked against."""
    logp = log_softmax(np.asarray(logits_row, dtype=np.float64))
    return float(np.sum(np.exp(logp) * (alpha * logp - np.asarray(qmin_row, dtype=np.float64))))
