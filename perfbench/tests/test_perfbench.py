"""Tests of the benchmark's own arithmetic, tracer and correctness gate.

Run from the repository root: python3 -m pytest perfbench/tests
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest

import guardedrl
from guardedrl import RunLog, TransitionRecord
from bench import END_TO_END_UNITS, PER_LAYER_UNITS, layer_metrics
from tracer import ROOT_SPAN, Probe, Tracer, critic_rounds, instrument, max_repeat, self_times
from workloads import WORKLOADS, check_training


def test_self_time_subtracts_direct_children():
    # root [0, 10] holds a [1, 6] and b [7, 9]; a holds c [2, 3] and d [4, 5.5].
    start = np.array([0.0, 1.0, 2.0, 4.0, 7.0])
    end = np.array([10.0, 6.0, 3.0, 5.5, 9.0])
    parent = np.array([-1, 0, 1, 1, 0])
    np.testing.assert_allclose(self_times(start, end, parent), [3.0, 2.5, 1.0, 1.5, 2.0])
    assert self_times(start, end, parent).sum() == pytest.approx(end[0] - start[0])


def test_tracer_nests_spans_and_accounts_for_the_root():
    tracer = Tracer()
    with tracer.span(ROOT_SPAN):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
    cols = tracer.columns()
    assert list(cols["parent"]) == [-1, 0, 1]
    selfs = self_times(cols["start"], cols["end"], cols["parent"])
    assert selfs.sum() == pytest.approx(cols["end"][0] - cols["start"][0])


def _record(s, a):
    return TransitionRecord(s=s, a_exec=a, r=0.0, s_next=s, done=False, t=0, episode=0)


def test_rounds_count_the_most_repeated_key():
    batch = [_record(1, 0), _record(1, 0), _record(2, 0), _record(1, 0), _record(1, 3)]
    assert critic_rounds((None, batch, None, None), {}, None) == {"rounds": 3.0}
    assert max_repeat([4, 4, 7]) == 2
    with pytest.raises(AttributeError):  # a batch of another shape: the count is left out
        critic_rounds((None, [(1, 0)], None, None), {}, None)


def test_gate_fails_a_non_finite_summary():
    log = RunLog(records=[{"step": 0, "td_error": 0.1}],
                 summary={"total_steps": 0, "executed_violations": 0, "final_eval_return": math.nan})
    assert check_training("offline_only", log).problems == ["non-finite .summary.final_eval_return"]
    log.summary["final_eval_return"] = 1.0
    assert check_training("offline_only", log).problems == []
    log.summary["executed_violations"] = 2
    assert check_training("guardian", log).problems == ["executed_violations=2 under guardian"]


def test_instrument_wraps_imported_names_restores_them_and_reports_absent_layers():
    original = guardedrl.trainer.env_step
    tracer = Tracer()
    probes = (Probe("envs", "env_step"), Probe("envs", "no_such_function"), Probe("nope", "f"),
              Probe("sampling", "OfflineDataset.load_jsonl"))
    with instrument(tracer, probes) as absent:
        assert guardedrl.trainer.env_step is not original
        assert guardedrl.envs.env_step is guardedrl.trainer.env_step
        assert isinstance(vars(guardedrl.OfflineDataset)["load_jsonl"], classmethod)
    assert absent == ["envs.no_such_function", "nope.f"]
    assert guardedrl.trainer.env_step is original
    assert guardedrl.envs.env_step is original


def test_traced_op_matches_untraced_and_accounts_for_its_time(tmp_path):
    workload = WORKLOADS["solve_oracle"]
    state = workload.setup(5, tmp_path)
    plain = workload.check(workload.run_op(state, 1))
    tracer = Tracer()
    with instrument(tracer):
        tracer.run_id = 1
        with tracer.span(ROOT_SPAN):
            traced = workload.check(workload.run_op(state, 1))
    assert traced.digest == plain.digest and not traced.problems
    metrics = layer_metrics(tracer, setup_run=0)
    assert metrics["mdp.solve_guarded_value_iteration.calls"] == 1
    assert metrics["mdp.apply_guarded_bellman.calls"] == metrics["mdp.solve_guarded_value_iteration.sweeps"]
    assert metrics["trace.accounted_ratio"] == pytest.approx(1.0, abs=0.01)


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    doc = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER_UNITS
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
