"""Schedules, the replay store, hybrid sampling, and the BC policy."""

import math

import numpy as np
import pytest
from columns import columns_of, dataset_of

from guardedrl.sampling import (
    DssConfig,
    DtsConfig,
    OfflineDataset,
    ReplayStore,
    TransitionRecord,
    derive_bc_policy,
    dss_mixing,
    dts_interval,
    sample_hybrid_batch,
)


def tr(s=0, a=0, r=0.0, s_next=0, done=False, t=0, ep=0):
    return TransitionRecord(s=s, a_exec=a, r=r, s_next=s_next, done=done, t=t, episode=ep)


def chain_episode(ep, length, start=0, done_at_end=True):
    """Consecutive states start, start+1, ... so continuity holds."""
    return [
        tr(s=start + k, s_next=start + k + 1, t=k, ep=ep, done=done_at_end and k == length - 1)
        for k in range(length)
    ]


def last_flags(records):
    """Per record, whether it ends its run: the next record has a new episode id or a break in t.

    The final record's run stays open.
    """
    return [nxt is not None and (nxt.episode != rec.episode or nxt.t != rec.t + 1)
            for rec, nxt in zip(records, [*records[1:], None])]


def store_of(offline_records, online_records=(), capacity=64):
    """ReplayStore over a dataset of offline_records with online_records appended in order."""
    store = ReplayStore(dataset_of(offline_records), capacity)
    for rec, last in zip(online_records, last_flags(online_records)):
        store.append(rec.s, rec.a_exec, rec.r, rec.s_next, rec.done, last)
    return store


def online_batch(store):
    """The retained online records' columns, oldest first."""
    return store.columns.take(store.online_rows())


class TestDtsInterval:
    def setup_method(self):
        self.cfg = DtsConfig(delta_min=4, delta_max=64, beta=1.0, horizon=1000)

    def test_boundaries(self):
        assert dts_interval(0, self.cfg) == 4
        assert dts_interval(1000, self.cfg) == 64

    def test_midpoint_linear(self):
        assert dts_interval(500, self.cfg) == 34

    def test_clamps_past_horizon(self):
        assert dts_interval(5000, self.cfg) == 64

    def test_non_decreasing(self):
        cfg = DtsConfig(delta_min=2, delta_max=50, beta=2.5, horizon=777)
        values = [dts_interval(t, cfg) for t in range(0, 778)]
        assert all(b >= a for a, b in zip(values, values[1:]))
        assert all(2 <= v <= 50 for v in values)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            DtsConfig(delta_min=5, delta_max=4, beta=1.0, horizon=10)
        with pytest.raises(ValueError):
            DtsConfig(delta_min=1, delta_max=4, beta=0.0, horizon=10)
        for beta in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="beta must be finite and positive"):
                DtsConfig(delta_min=1, delta_max=4, beta=beta, horizon=10)


class TestDssMixing:
    def test_midpoint_is_average(self):
        cfg = DssConfig(lambda_min=0.1, lambda_max=0.5, k=0.02, horizon=1000)
        assert dss_mixing(500, cfg) == pytest.approx(0.3, abs=1e-12)

    def test_start_value_evaluates_logistic(self):
        # k * T/2 = 20 so lambda(0) = 0.1 + 0.4 * sigmoid(-20).
        cfg = DssConfig(lambda_min=0.1, lambda_max=0.5, k=0.04, horizon=1000)
        expected = 0.1 + 0.4 / (1.0 + math.exp(20.0))
        assert dss_mixing(0, cfg) == pytest.approx(expected, rel=1e-12)
        assert dss_mixing(0, cfg) == pytest.approx(0.1000000008, abs=1e-10)

    def test_strictly_increasing_and_bounded(self):
        cfg = DssConfig(lambda_min=0.2, lambda_max=0.8, k=0.01, horizon=500)
        values = [dss_mixing(t, cfg) for t in range(0, 501, 5)]
        assert all(b > a for a, b in zip(values, values[1:]))
        assert all(0.2 < v < 0.8 for v in values)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            DssConfig(lambda_min=0.6, lambda_max=0.5, k=1.0, horizon=10)
        with pytest.raises(ValueError):
            DssConfig(lambda_min=0.1, lambda_max=0.5, k=0.0, horizon=10)
        for k in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="k must be finite and positive"):
                DssConfig(lambda_min=0.1, lambda_max=0.5, k=k, horizon=10)


class TestOnlineBuffer:
    def test_fifo_eviction(self):
        store = store_of(chain_episode(0, 3), [tr(s=1), tr(s=2), tr(s=3)], capacity=2)
        assert store.online_count == 2
        assert online_batch(store).s.tolist() == [2, 3]

    def test_single_record_sampled_back(self):
        store = store_of(chain_episode(0, 3), [tr(s=9)], capacity=4)
        batch = sample_hybrid_batch(store, lam=1.0, delta=1, batch_size=1,
                                    rng=np.random.default_rng(0))
        assert batch.transitions.s[0] == 9
        assert batch.online_mask.all()

    def test_window_respects_episode_boundary_with_eviction(self):
        store = store_of(chain_episode(0, 3), chain_episode(0, 4) + chain_episode(1, 4, start=10),
                         capacity=5)
        # Oldest three of episode 0 evicted; ring = [ep0 t3 (s 3), ep1 t0..t3 (s 10..13)].
        rng = np.random.default_rng(1)
        anchors = np.zeros(50, dtype=np.int64)
        drawn = store.columns.s[store.online_window(anchors, delta=10, rng=rng)]
        assert np.all(drawn == 3)
        drawn = store.columns.s[store.online_window(anchors + 1, delta=10, rng=rng)]
        assert np.all((drawn >= 10) & (drawn <= 13))


class TestOfflineDataset:
    def test_rejects_broken_state_chain(self):
        episode = [tr(s=0, s_next=1, t=0), tr(s=5, s_next=2, t=1)]
        with pytest.raises(ValueError, match="state chain"):
            dataset_of(episode)

    def test_rejects_done_mid_episode(self):
        episode = [tr(s=0, s_next=1, t=0, done=True), tr(s=1, s_next=2, t=1)]
        with pytest.raises(ValueError, match="done mid-episode"):
            dataset_of(episode)

    def test_rejects_step_index_jump(self):
        episode = [tr(s=0, s_next=1, t=0), tr(s=1, s_next=2, t=2)]
        with pytest.raises(ValueError, match="step index"):
            dataset_of(episode)

    def test_jsonl_round_trip(self, tmp_path):
        ds = dataset_of(chain_episode(0, 5) + chain_episode(1, 3, start=7))
        path = tmp_path / "data.jsonl"
        ds.save_jsonl(path)
        loaded = OfflineDataset.load_jsonl(path)
        assert loaded.num_episodes == 2
        assert_same_rows(loaded, ds)

    def test_jsonl_line_format(self, tmp_path):
        ds = dataset_of([tr(s=5, a=3, r=-0.02, s_next=6, t=0, ep=0),
                         tr(s=6, a=1, r=1.0, s_next=7, done=True, t=1, ep=0)])
        path = tmp_path / "data.jsonl"
        ds.save_jsonl(path)
        assert path.read_text() == (
            '{"s": 5, "a": 3, "r": -0.02, "s2": 6, "done": false, "t": 0, "ep": 0}\n'
            '{"s": 6, "a": 1, "r": 1.0, "s2": 7, "done": true, "t": 1, "ep": 0}\n'
        )

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_save_rejects_non_finite_reward_before_opening(self, tmp_path, bad):
        ds = dataset_of([tr(s=0, s_next=1, t=0), tr(s=1, r=bad, s_next=2, t=1),
                         tr(s=2, s_next=3, t=2)])
        path = tmp_path / "data.jsonl"
        with pytest.raises(ValueError, match=rf"^row 1: key 'r' must be finite, got {bad!r}$"):
            ds.save_jsonl(path)
        assert not path.exists()

    def test_loader_validates_continuity(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"s": 0, "a": 0, "r": 0.0, "s2": 1, "done": false, "t": 0, "ep": 0}\n'
            '{"s": 4, "a": 0, "r": 0.0, "s2": 2, "done": false, "t": 1, "ep": 0}\n'
        )
        with pytest.raises(ValueError, match="state chain"):
            OfflineDataset.load_jsonl(path)

    def test_loader_reads_integer_flags(self, tmp_path):
        path = tmp_path / "flags.jsonl"
        path.write_text(
            '{"s": 0, "a": 0, "r": 0.0, "s2": 1, "done": 0, "t": 0, "ep": 0}\n'
            '{"s": 1, "a": 0, "r": 1.0, "s2": 2, "done": 1, "t": 1, "ep": 0}\n'
        )
        assert OfflineDataset.load_jsonl(path).transitions.done.tolist() == [False, True]

    @pytest.mark.parametrize("row, problem", [
        ('{"s": 1, "a": 0, "s2": 2, "done": false, "t": 1, "ep": 0}', "missing key 'r'"),
        ('{"s": 1, "a": 0, "r": "high", "s2": 2, "done": false, "t": 1, "ep": 0}', "key 'r'"),
        ('{"s": 1, "a": 0, "r": NaN, "s2": 2, "done": false, "t": 1, "ep": 0}', "key 'r'"),
        ('{"s": 1.5, "a": 0, "r": 0.0, "s2": 2, "done": false, "t": 1, "ep": 0}', "key 's'"),
        ('{"s": 1, "a": null, "r": 0.0, "s2": 2, "done": false, "t": 1, "ep": 0}', "key 'a'"),
        ('{"s": 1, "a": 0, "r": 0.0, "s2": 2, "done": "no", "t": 1, "ep": 0}', "key 'done'"),
        ('{"s": 1, "a": 0, "r": 0.0, "s2": 2, "done": false, "t": 1, "ep": 1e400}', "key 'ep'"),
        ('[1, 0, 0.0, 2, false, 1, 0]', "JSON object"),
        ('{"s": 1, "a": 0,', "not valid JSON"),
    ], ids=["missing", "text-r", "nan-r", "float-s", "null-a", "text-done", "inf-ep", "array", "cut"])
    def test_loader_names_line_and_key_of_a_bad_row(self, tmp_path, row, problem):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"s": 0, "a": 0, "r": 0.0, "s2": 1, "done": false, "t": 0, "ep": 0}\n\n' + row + "\n"
        )
        with pytest.raises(ValueError) as excinfo:
            OfflineDataset.load_jsonl(path)
        message = str(excinfo.value)
        assert f"{path}:3" in message and problem in message

    @pytest.mark.parametrize("row, problem", [
        ('7', "expected a JSON object, got int"),
        ('null', "expected a JSON object, got NoneType"),
        ('{"a": 0, "r": 0.0, "s2": 2, "done": false, "t": 1, "ep": 0}', "missing key 's'"),
        ('{"s": "1", "a": 0, "r": 0.0, "s2": 2, "done": false, "t": 1, "ep": 0}',
         "key 's' must be an integer, got '1'"),
        ('{"s": 1, "a": 0, "r": "high", "s2": 2, "done": false, "t": 1, "ep": 0}',
         "key 'r' must be a number, got 'high'"),
        ('{"s": 1, "a": 0, "r": 0.0, "s2": 2, "t": 1, "ep": 0}', "missing key 'done'"),
        ('{"s": 1, "a": 0, "r": 0.0, "s2": 2, "done": 2, "t": 1, "ep": 0}',
         "key 'done' must be a boolean, got 2"),
        ('{"s": 1, "a": 0, "r": 0.0, "s2": 2, "done": false, "t": 1}', "missing key 'ep'"),
        ('{"s": 1, "a": 0, "r": 0.0, "s2": 2, "done": false, "t": 1, "ep": 1.5}',
         "key 'ep' must be an integer, got 1.5"),
        ('{"s": 1, "a": 0, "r": 0.0, "s2": 2, "done": false, "t": 1, "ep": 1180591620717411303424}',
         "key 'ep' must be an integer, got 1180591620717411303424"),
        # The first failing column is named, whatever follows it.
        ('{"s": 1, "a": 0, "r": 0.0, "s2": 2, "done": null}', "key 'done' must be a boolean, got None"),
        # A boolean is not a number, though the buffers would store it as 1 or 0.
        ('{"s": true, "a": 0, "r": 0.0, "s2": 2, "done": false, "t": 1, "ep": 0}',
         "key 's' must be an integer, got True"),
        ('{"s": 1, "a": false, "r": 0.0, "s2": 2, "done": false, "t": 1, "ep": 0}',
         "key 'a' must be an integer, got False"),
        ('{"s": 1, "a": 0, "r": true, "s2": 2, "done": false, "t": 1, "ep": 0}',
         "key 'r' must be a number, got True"),
        ('{"s": 1, "a": 0, "r": 0.0, "s2": true, "done": false, "t": 1, "ep": 0}',
         "key 's2' must be an integer, got True"),
        ('{"s": 1, "a": 0, "r": 0.0, "s2": 2, "done": false, "t": true, "ep": 0}',
         "key 't' must be an integer, got True"),
        ('{"s": 1, "a": 0, "r": 0.0, "s2": 2, "done": true, "t": 1, "ep": false}',
         "key 'ep' must be an integer, got False"),
        # A float is not a flag, though 0.0 and 1.0 hash like False and True.
        ('{"s": 1, "a": 0, "r": 0.0, "s2": 2, "done": 0.0, "t": 1, "ep": 0}',
         "key 'done' must be a boolean, got 0.0"),
        ('{"s": 1, "a": 0, "r": 0.0, "s2": 2, "done": 1.0, "t": 1, "ep": 0}',
         "key 'done' must be a boolean, got 1.0"),
    ], ids=["number", "null", "missing-s", "text-s", "text-r", "missing-done", "two-done",
            "missing-ep", "float-ep", "huge-ep", "first-of-two", "boolean-s", "boolean-a",
            "boolean-r", "boolean-s2", "boolean-t", "boolean-ep", "float-done-0", "float-done-1"])
    def test_loader_message_of_a_bad_row_is_exact(self, tmp_path, row, problem):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"s": 0, "a": 0, "r": 0.0, "s2": 1, "done": false, "t": 0, "ep": 0}\n' + row + "\n")
        with pytest.raises(ValueError) as excinfo:
            OfflineDataset.load_jsonl(path)
        assert str(excinfo.value) == f"{path}:2: {problem}"

    @pytest.mark.parametrize("bad, problem", [
        (tr(s=-3, s_next=1, ep=1), r"s = -3 outside \[0, 5\)"),
        (tr(s=0, s_next=5, ep=1), r"s2 = 5 outside \[0, 5\)"),
        (tr(s=0, a=5, s_next=1, ep=1), r"a = 5 outside \[0, 5\)"),
    ], ids=["s", "s2", "a"])
    def test_index_range_check_names_first_bad_row(self, bad, problem):
        dataset_of(chain_episode(0, 3)).check_index_ranges(num_states=5, num_actions=5)
        ds = dataset_of(chain_episode(0, 3) + [bad])
        with pytest.raises(ValueError, match=r"offline row 3 \(episode 1, t 0\): " + problem):
            ds.check_index_ranges(num_states=5, num_actions=5)

    def test_window_stays_inside_episode(self):
        ds = dataset_of(chain_episode(0, 4) + chain_episode(1, 6, start=20))
        store = ReplayStore(ds, capacity=4)
        rng = np.random.default_rng(2)
        anchors = np.full(100, 2)  # anchor: episode 0, t=2
        rows = store.offline_window(anchors, delta=50, rng=rng)
        assert np.all(ds.episode[rows] == 0)
        assert np.all(ds.t[rows] >= 2)


def forward_run(records, anchor, delta):
    """Reference window: the anchor's same-episode, consecutive-t run, at most delta long."""
    first = records[anchor]
    span = 1
    while span < delta and anchor + span < len(records):
        nxt = records[anchor + span]
        if nxt.episode != first.episode or nxt.t != first.t + span:
            break
        span += 1
    return set(range(anchor, anchor + span))


def drawn_windows(window, num_anchors, delta, seeds=200):
    """For each anchor, the set of rows window(anchors, delta, rng) returns over many seeds."""
    anchors = np.arange(num_anchors)
    seen = [set() for _ in anchors]
    for seed in range(seeds):
        rows = window(anchors, delta, np.random.default_rng(seed))
        for anchor, row in zip(anchors, rows.tolist()):
            seen[anchor].add(row)
    return seen


def assert_same_columns(batch, expected):
    assert len(batch) == len(expected)
    for got, want in zip(batch.columns(), expected.columns()):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


def assert_same_rows(ds, expected):
    """Datasets with equal columns, step indices and episode ids."""
    assert_same_columns(ds.transitions, expected.transitions)
    for got, want in ((ds.t, expected.t), (ds.episode, expected.episode)):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)


class TestWindowSupport:
    """Every anchor draws exactly its expected window from both sources."""

    # Episode lengths include length-1 episodes; none divides the ring capacity.
    LENGTHS = (3, 1, 4, 1, 2, 5, 1, 3)

    def episodes(self):
        episodes, start = [], 0
        for ep, length in enumerate(self.LENGTHS):
            episodes.append(chain_episode(ep, length, start=start))
            start += length + 1
        return episodes

    @pytest.mark.parametrize("delta", [1, 3, 10])
    def test_ring_windows_at_every_fill_level(self, delta):
        store = store_of(chain_episode(0, 2), capacity=7)
        arrivals = [record for ep in self.episodes() for record in ep]
        # Same episode id but a gap in t, flagged by the caller: the window stops there too.
        arrivals += [tr(s=90, s_next=91, t=0, ep=50), tr(s=91, s_next=92, t=1, ep=50),
                     tr(s=95, s_next=96, t=5, ep=50)]
        for n, (rec, last) in enumerate(zip(arrivals, last_flags(arrivals)), start=1):
            store.append(rec.s, rec.a_exec, rec.r, rec.s_next, rec.done, last)
            retained = arrivals[max(0, n - store.capacity):n]
            assert_same_columns(online_batch(store), columns_of(retained))
            rows = store.online_rows().tolist()
            seen = drawn_windows(store.online_window, store.online_count, delta)
            for anchor in range(store.online_count):
                expected = {rows[pos] for pos in forward_run(retained, anchor, delta)}
                assert seen[anchor] == expected, (n, anchor)
            # The newest record's window is itself alone.
            assert seen[-1] == {rows[-1]}

    @pytest.mark.parametrize("delta", [1, 3, 10])
    def test_offline_windows_built_and_loaded(self, delta, tmp_path):
        records = [record for ep in self.episodes() for record in ep]
        built = dataset_of(records)
        built.save_jsonl(tmp_path / "data.jsonl")
        loaded = OfflineDataset.load_jsonl(tmp_path / "data.jsonl")
        for ds in (built, loaded):
            assert ds.num_episodes == len(self.LENGTHS)
            assert_same_rows(ds, built)
            assert_same_columns(ds.transitions, columns_of(records))
            store = ReplayStore(ds, capacity=3)
            assert_same_columns(store.columns.take(np.arange(len(ds))), columns_of(records))
            seen = drawn_windows(store.offline_window, len(ds), delta)
            for anchor in range(len(ds)):
                assert seen[anchor] == forward_run(records, anchor, delta), anchor


def two_store_draw(offline, retained, lam, delta, batch_size, rng):
    """Reference: the draw from two separate stores, merged column by column through the mask.

    offline and retained are record lists (retained: the ring's records,
    oldest first). Each store draws anchors, then in-window offsets, in
    the generator order of the sampling module; the merge fills the
    online slots from the online draw and the others from the offline
    draw.
    """
    def draw(records, n):
        anchors = rng.integers(len(records), size=n)
        spans = np.array([len(forward_run(records, a, delta)) for a in anchors.tolist()],
                         dtype=np.int64)
        positions = anchors + rng.integers(0, spans)
        return columns_of([records[p] for p in positions.tolist()])

    want_online = rng.random(batch_size) < lam
    if retained:
        online_mask, fallback = want_online, 0
    else:
        online_mask = np.zeros(batch_size, dtype=bool)
        fallback = int(np.count_nonzero(want_online))
    n_online = int(np.count_nonzero(online_mask))
    if n_online == 0:
        return draw(offline, batch_size), online_mask, fallback
    from_on = draw(retained, n_online)
    from_off = draw(offline, batch_size - n_online)
    merged = []
    for on_col, off_col in zip(from_on.columns(), from_off.columns()):
        col = np.empty(batch_size, dtype=on_col.dtype)
        col[online_mask] = on_col
        col[~online_mask] = off_col
        merged.append(col)
    return type(from_on)(*merged), online_mask, fallback


class TestStoreMatchesTwoStoreDraw:
    """One gather from the store equals the two-store draw and merge bit for bit."""

    CAPACITY = 7
    # Online arrivals per fill level. "wrapped": 10 arrivals in 7 slots, and
    # episode 2's run (arrivals 4..7) crosses the ring's end (slot 6 -> 0).
    FILLS = {"empty": 0, "partial": 4, "full": 7, "wrapped": 10}

    def offline_records(self):
        records, start = [], 0
        for ep, length in enumerate((5, 1, 3, 8, 2)):
            records += [tr(s=start + k, a=k % 3, r=0.25 * k - ep, s_next=start + k + 1, t=k, ep=ep,
                           done=k == length - 1 and ep % 2 == 0) for k in range(length)]
            start += length + 1
        return records

    def online_records(self, count):
        records, ep, t = [], 100, 0
        lengths = iter((3, 1, 4, 2, 5))
        length = next(lengths)
        for n in range(count):
            records.append(tr(s=200 + n, a=n % 5, r=0.5 - 0.125 * n, s_next=201 + n,
                              done=t == length - 1, t=t, ep=ep))
            t += 1
            if t == length:
                ep, t, length = ep + 1, 0, next(lengths)
        return records

    @pytest.mark.parametrize("fill", FILLS)
    @pytest.mark.parametrize("lam", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("delta", [1, 3, 10])
    def test_batches_equal_reference(self, fill, lam, delta):
        offline = self.offline_records()
        arrivals = self.online_records(self.FILLS[fill])
        retained = arrivals[-self.CAPACITY:] if arrivals else []
        store = store_of(offline, arrivals, capacity=self.CAPACITY)
        if fill == "wrapped":
            rows = store.online_rows()
            assert rows[0] > rows[-1]  # the oldest record sits past the newest
        rng, ref_rng = np.random.default_rng(31), np.random.default_rng(31)
        for _ in range(4):
            batch = sample_hybrid_batch(store, lam, delta, 48, rng)
            want, mask, fallback = two_store_draw(offline, retained, lam, delta, 48, ref_rng)
            assert_same_columns(batch.transitions, want)
            np.testing.assert_array_equal(batch.online_mask, mask)
            assert batch.fallback_count == fallback
        assert rng.random() == ref_rng.random()  # both consumed the same stream


class TestSampleHybridBatch:
    def setup_method(self):
        # Offline states 0..9 and 20..29; online states 40..51.
        self.store = store_of(chain_episode(0, 10) + chain_episode(1, 10, start=20),
                              chain_episode(5, 12, start=40))

    def test_lambda_zero_all_offline(self):
        batch = sample_hybrid_batch(self.store, lam=0.0, delta=4, batch_size=64,
                                    rng=np.random.default_rng(3))
        assert not batch.online_mask.any()
        assert batch.fallback_count == 0

    def test_lambda_one_all_online(self):
        batch = sample_hybrid_batch(self.store, lam=1.0, delta=4, batch_size=64,
                                    rng=np.random.default_rng(4))
        assert batch.online_mask.all()

    def test_empty_buffer_falls_back_with_count(self):
        empty = store_of(chain_episode(0, 10) + chain_episode(1, 10, start=20), capacity=8)
        batch = sample_hybrid_batch(empty, lam=1.0, delta=4, batch_size=32,
                                    rng=np.random.default_rng(5))
        assert not batch.online_mask.any()
        assert batch.fallback_count == 32

    def test_empty_offline_rejected(self):
        with pytest.raises(ValueError, match="offline dataset is empty"):
            ReplayStore(dataset_of([]), capacity=8)

    def test_online_fraction_concentrates(self):
        batch = sample_hybrid_batch(self.store, lam=0.5, delta=4, batch_size=4000,
                                    rng=np.random.default_rng(7))
        fraction = batch.online_mask.mean()
        assert abs(fraction - 0.5) <= 3 * math.sqrt(0.25 / 4000)

    def test_identical_seed_reproduces_batches(self):
        first = sample_hybrid_batch(self.store, lam=0.5, delta=4, batch_size=32,
                                    rng=np.random.default_rng(8))
        second = sample_hybrid_batch(self.store, lam=0.5, delta=4, batch_size=32,
                                     rng=np.random.default_rng(8))
        for a, b in zip(first.transitions.columns(), second.transitions.columns()):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(first.online_mask, second.online_mask)

    def test_interleaved_push_sample_reproducible(self):
        offline = chain_episode(0, 10) + chain_episode(1, 10, start=20)

        def run():
            store = store_of(offline, capacity=16)
            rng = np.random.default_rng(9)
            seen = []
            arrivals = chain_episode(0, 20, start=40)
            for rec, last in zip(arrivals, last_flags(arrivals)):
                store.append(rec.s, rec.a_exec, rec.r, rec.s_next, rec.done, last)
                batch = sample_hybrid_batch(store, lam=0.7, delta=3, batch_size=4, rng=rng)
                seen.extend(zip(batch.transitions.s.tolist(), batch.online_mask.tolist()))
            return seen

        assert run() == run()

    def test_provenance_tags_match_source(self):
        batch = sample_hybrid_batch(self.store, lam=0.5, delta=4, batch_size=200,
                                    rng=np.random.default_rng(10))
        for s, online in zip(batch.transitions.s, batch.online_mask):
            assert 40 <= s <= 51 if online else s < 30


class TestDeriveBcPolicy:
    def test_concentrated_counts_smoothed(self):
        records = [tr(s=0, a=2, s_next=1, t=0, ep=ep) for ep in range(100)]
        ds = dataset_of(records)
        bc = derive_bc_policy(ds, num_states=2, num_actions=4)
        assert bc[0, 2] == pytest.approx(100.01 / 100.04, abs=1e-12)
        assert bc[0, 0] == pytest.approx(0.01 / 100.04, abs=1e-12)

    def test_unvisited_state_uniform(self):
        ds = dataset_of([tr(s=0, a=1, s_next=1)])
        bc = derive_bc_policy(ds, num_states=3, num_actions=4)
        np.testing.assert_allclose(bc[2], np.full(4, 0.25))

    def test_rows_normalized(self):
        rng = np.random.default_rng(11)
        records = []
        for ep in range(30):
            s = 0
            for t in range(10):
                records.append(tr(s=s, a=int(rng.integers(3)), s_next=s + 1, t=t, ep=ep))
                s += 1
        bc = derive_bc_policy(dataset_of(records), num_states=12, num_actions=3)
        np.testing.assert_allclose(bc.sum(axis=1), np.ones(12), atol=1e-12)
