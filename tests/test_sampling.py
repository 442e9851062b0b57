"""Schedules, buffers, hybrid sampling, and the BC policy."""

import math

import numpy as np
import pytest

from guardedrl.sampling import (
    DssConfig,
    DtsConfig,
    OfflineDataset,
    OnlineBuffer,
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


class TestOnlineBuffer:
    def test_fifo_eviction(self):
        buf = OnlineBuffer(capacity=2)
        a, b, c = tr(s=1), tr(s=2), tr(s=3)
        for record in (a, b, c):
            buf.append(record)
        assert len(buf) == 2
        assert [buf.record(0).s, buf.record(1).s] == [2, 3]

    def test_single_record_sampled_back(self):
        buf = OnlineBuffer(capacity=4)
        buf.append(tr(s=9))
        off = OfflineDataset([chain_episode(0, 3)])
        batch = sample_hybrid_batch(off, buf, lam=1.0, delta=1, batch_size=1,
                                    rng=np.random.default_rng(0))
        assert batch.transitions.s[0] == 9
        assert batch.online_mask.all()

    def test_window_respects_episode_boundary_with_eviction(self):
        buf = OnlineBuffer(capacity=5)
        for record in chain_episode(0, 4) + chain_episode(1, 4, start=10):
            buf.append(record)
        # Oldest three of episode 0 evicted; buffer = [ep0 t3, ep1 t0..t2].
        rng = np.random.default_rng(1)
        drawn = buf.take(buf.window_positions(np.zeros(50, dtype=np.int64), delta=10, rng=rng))
        assert np.all(drawn.episode == 0)
        drawn = buf.take(buf.window_positions(np.ones(50, dtype=np.int64), delta=10, rng=rng))
        assert np.all(drawn.episode == 1)


class TestOfflineDataset:
    def test_rejects_broken_state_chain(self):
        episode = [tr(s=0, s_next=1, t=0), tr(s=5, s_next=2, t=1)]
        with pytest.raises(ValueError, match="state chain"):
            OfflineDataset([episode])

    def test_rejects_done_mid_episode(self):
        episode = [tr(s=0, s_next=1, t=0, done=True), tr(s=1, s_next=2, t=1)]
        with pytest.raises(ValueError, match="done mid-episode"):
            OfflineDataset([episode])

    def test_rejects_step_index_jump(self):
        episode = [tr(s=0, s_next=1, t=0), tr(s=1, s_next=2, t=2)]
        with pytest.raises(ValueError, match="step index"):
            OfflineDataset([episode])

    def test_jsonl_round_trip(self, tmp_path):
        ds = OfflineDataset([chain_episode(0, 5), chain_episode(1, 3, start=7)])
        path = tmp_path / "data.jsonl"
        ds.save_jsonl(path)
        loaded = OfflineDataset.load_jsonl(path)
        assert len(loaded) == len(ds)
        assert loaded.num_episodes == 2
        for i in range(len(ds)):
            a, b = ds.record(i), loaded.record(i)
            assert (a.s, a.a_exec, a.r, a.s_next, a.done, a.t, a.episode) == (
                b.s, b.a_exec, b.r, b.s_next, b.done, b.t, b.episode
            )

    def test_jsonl_line_format(self, tmp_path):
        ds = OfflineDataset([[tr(s=5, a=3, r=-0.02, s_next=6, t=0, ep=0),
                              tr(s=6, a=1, r=1.0, s_next=7, done=True, t=1, ep=0)]])
        path = tmp_path / "data.jsonl"
        ds.save_jsonl(path)
        assert path.read_text() == (
            '{"s": 5, "a": 3, "r": -0.02, "s2": 6, "done": false, "t": 0, "ep": 0}\n'
            '{"s": 6, "a": 1, "r": 1.0, "s2": 7, "done": true, "t": 1, "ep": 0}\n'
        )

    def test_loader_validates_continuity(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(
            '{"s": 0, "a": 0, "r": 0.0, "s2": 1, "done": false, "t": 0, "ep": 0}\n'
            '{"s": 4, "a": 0, "r": 0.0, "s2": 2, "done": false, "t": 1, "ep": 0}\n'
        )
        with pytest.raises(ValueError, match="state chain"):
            OfflineDataset.load_jsonl(path)

    def test_window_stays_inside_episode(self):
        ds = OfflineDataset([chain_episode(0, 4), chain_episode(1, 6, start=20)])
        rng = np.random.default_rng(2)
        anchors = np.full(100, 2)  # anchor: episode 0, t=2
        drawn = ds.take(ds.window_positions(anchors, delta=50, rng=rng))
        assert np.all(drawn.episode == 0)
        assert np.all(drawn.t >= 2)


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


def drawn_windows(store, delta, seeds=200):
    """For each anchor, the set of positions window_positions returns over many seeds."""
    anchors = np.arange(len(store))
    seen = [set() for _ in anchors]
    for seed in range(seeds):
        positions = store.window_positions(anchors, delta, np.random.default_rng(seed))
        for anchor, pos in zip(anchors, positions.tolist()):
            seen[anchor].add(pos)
    return seen


def assert_columns_match_records(batch, records):
    assert len(batch) == len(records)
    for i, record in enumerate(records):
        assert batch.record(i) == TransitionRecord(
            s=record.s, a_exec=record.a_exec, r=record.r, s_next=record.s_next,
            done=record.done, t=record.t, episode=record.episode,
        )


class TestWindowSupport:
    """Every anchor draws exactly its expected window in both stores."""

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
        buf = OnlineBuffer(capacity=7)
        arrivals = [record for ep in self.episodes() for record in ep]
        # Same episode id but a gap in t: the window must stop at the gap too.
        arrivals += [tr(s=90, s_next=91, t=0, ep=50), tr(s=91, s_next=92, t=1, ep=50),
                     tr(s=95, s_next=96, t=5, ep=50)]
        for n, record in enumerate(arrivals, start=1):
            buf.append(record)
            retained = arrivals[max(0, n - buf.capacity):n]
            assert buf.records() == retained
            assert_columns_match_records(buf.take(np.arange(len(buf))), retained)
            seen = drawn_windows(buf, delta)
            for anchor in range(len(buf)):
                assert seen[anchor] == forward_run(retained, anchor, delta), (n, anchor)
            # The newest record's window is itself alone.
            assert seen[-1] == {len(buf) - 1}

    @pytest.mark.parametrize("delta", [1, 3, 10])
    def test_offline_windows_built_and_loaded(self, delta, tmp_path):
        built = OfflineDataset(self.episodes())
        built.save_jsonl(tmp_path / "data.jsonl")
        loaded = OfflineDataset.load_jsonl(tmp_path / "data.jsonl")
        records = [record for ep in self.episodes() for record in ep]
        for ds in (built, loaded):
            assert ds.num_episodes == len(self.LENGTHS)
            assert_columns_match_records(ds.transitions, records)
            seen = drawn_windows(ds, delta)
            for anchor in range(len(ds)):
                assert seen[anchor] == forward_run(records, anchor, delta), anchor


class TestSampleHybridBatch:
    def setup_method(self):
        self.off = OfflineDataset([chain_episode(0, 10), chain_episode(1, 10, start=20)])
        self.on = OnlineBuffer(capacity=64)
        for record in chain_episode(5, 12, start=40):
            self.on.append(record)

    def test_lambda_zero_all_offline(self):
        batch = sample_hybrid_batch(self.off, self.on, lam=0.0, delta=4, batch_size=64,
                                    rng=np.random.default_rng(3))
        assert not batch.online_mask.any()
        assert batch.fallback_count == 0

    def test_lambda_one_all_online(self):
        batch = sample_hybrid_batch(self.off, self.on, lam=1.0, delta=4, batch_size=64,
                                    rng=np.random.default_rng(4))
        assert batch.online_mask.all()

    def test_empty_buffer_falls_back_with_count(self):
        empty = OnlineBuffer(capacity=8)
        batch = sample_hybrid_batch(self.off, empty, lam=1.0, delta=4, batch_size=32,
                                    rng=np.random.default_rng(5))
        assert not batch.online_mask.any()
        assert batch.fallback_count == 32

    def test_empty_offline_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            sample_hybrid_batch(OfflineDataset([]), self.on, lam=0.5, delta=4,
                                batch_size=4, rng=np.random.default_rng(6))

    def test_online_fraction_concentrates(self):
        batch = sample_hybrid_batch(self.off, self.on, lam=0.5, delta=4, batch_size=4000,
                                    rng=np.random.default_rng(7))
        fraction = batch.online_mask.mean()
        assert abs(fraction - 0.5) <= 3 * math.sqrt(0.25 / 4000)

    def test_identical_seed_reproduces_batches(self):
        first = sample_hybrid_batch(self.off, self.on, lam=0.5, delta=4, batch_size=32,
                                    rng=np.random.default_rng(8))
        second = sample_hybrid_batch(self.off, self.on, lam=0.5, delta=4, batch_size=32,
                                     rng=np.random.default_rng(8))
        for a, b in zip(first.transitions.columns(), second.transitions.columns()):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(first.online_mask, second.online_mask)

    def test_interleaved_push_sample_reproducible(self):
        def run():
            buf = OnlineBuffer(capacity=16)
            rng = np.random.default_rng(9)
            seen = []
            for i, record in enumerate(chain_episode(0, 20)):
                buf.append(record)
                batch = sample_hybrid_batch(self.off, buf, lam=0.7, delta=3,
                                            batch_size=4, rng=rng)
                seen.extend(zip(batch.transitions.episode.tolist(), batch.transitions.t.tolist()))
            return seen

        assert run() == run()

    def test_provenance_tags_match_source(self):
        batch = sample_hybrid_batch(self.off, self.on, lam=0.5, delta=4, batch_size=200,
                                    rng=np.random.default_rng(10))
        for episode, online in zip(batch.transitions.episode, batch.online_mask):
            assert episode == 5 if online else episode in (0, 1)


class TestDeriveBcPolicy:
    def test_concentrated_counts_smoothed(self):
        episodes = []
        for ep in range(100):
            episodes.append([tr(s=0, a=2, s_next=1, t=0, ep=ep)])
        ds = OfflineDataset(episodes)
        bc = derive_bc_policy(ds, num_states=2, num_actions=4)
        assert bc[0, 2] == pytest.approx(100.01 / 100.04, abs=1e-12)
        assert bc[0, 0] == pytest.approx(0.01 / 100.04, abs=1e-12)

    def test_unvisited_state_uniform(self):
        ds = OfflineDataset([[tr(s=0, a=1, s_next=1)]])
        bc = derive_bc_policy(ds, num_states=3, num_actions=4)
        np.testing.assert_allclose(bc[2], np.full(4, 0.25))

    def test_rows_normalized(self):
        rng = np.random.default_rng(11)
        episodes = []
        for ep in range(30):
            s = 0
            records = []
            for t in range(10):
                records.append(tr(s=s, a=int(rng.integers(3)), s_next=s + 1, t=t, ep=ep))
                s += 1
            episodes.append(records)
        bc = derive_bc_policy(OfflineDataset(episodes), num_states=12, num_actions=3)
        np.testing.assert_allclose(bc.sum(axis=1), np.ones(12), atol=1e-12)
