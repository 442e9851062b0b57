"""Subcommand behavior, exit-code discipline, and file outputs."""

import json
import statistics

import pytest

from guardedrl.cli import main
from guardedrl.trainer import RunLog

CLIFF_MAP = ["...", "S.G", "XXX"]


def base_train_config(tmp_path, total_steps=150, seed=0):
    return {
        "env": {
            "map": CLIFF_MAP,
            "step_reward": -0.02,
            "goal_reward": 1.0,
            "hazard_reward": -1.0,
            "slip_prob": 0.0,
            "gamma": 0.95,
        },
        "learner": {"alpha": 0.01, "tau": 0.05, "critic_lr": 0.2, "actor_lr": 0.2},
        "dts": {"delta_min": 1, "delta_max": 8, "beta": 2.0},
        "dss": {"lambda_min": 0.1, "lambda_max": 0.5, "k": 0.05},
        "variant": "guardian",
        "total_steps": total_steps,
        "seed": seed,
        "batch_size": 16,
        "eval_every": 50,
        "eval_episodes": 2,
        "eval_max_len": 30,
        "ttfv_episodes": 2,
        "ttfv_max_steps": 40,
        "max_episode_len": 50,
        "online_buffer_capacity": 1000,
        "generate_offline": {"episodes": 40, "max_ep_len": 30, "behavior": "uniform_safe", "seed": 1},
        "output_dir": str(tmp_path / "run"),
    }


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


class TestSolve:
    def test_gamma_zero_corridor_exact(self, tmp_path):
        doc = {
            "env": {"map": ["S.G"], "gamma": 0.0},
            "output_dir": str(tmp_path / "solve"),
        }
        assert main(["solve", write_config(tmp_path, doc)]) == 0
        solution = json.loads((tmp_path / "solve" / "solution.json").read_text())
        assert solution["gap"] == 0.0
        assert solution["within_tolerance"] is True

    def test_random_mdp_default_tolerance(self, tmp_path):
        doc = {
            "random_mdp": {"num_states": 12, "num_actions": 4, "safe_fraction": 0.6,
                           "seed": 3, "gamma": 0.9},
            "output_dir": str(tmp_path / "solve"),
        }
        assert main(["solve", write_config(tmp_path, doc)]) == 0
        solution = json.loads((tmp_path / "solve" / "solution.json").read_text())
        assert solution["gap"] <= 1e-6

    def test_malformed_json_exit_2_with_position(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"env": {,}')
        assert main(["solve", str(path)]) == 2
        err = capsys.readouterr().err
        assert "line" in err and "column" in err

    def test_missing_blocks_is_runtime_failure(self, tmp_path):
        assert main(["solve", write_config(tmp_path, {"tol": 1e-8})]) == 1

    def test_unknown_env_key_exits_1_before_writing(self, tmp_path, capsys):
        doc = {"env": {"map": ["S.G"], "slip": 0.5}, "output_dir": str(tmp_path / "solve")}
        assert main(["solve", write_config(tmp_path, doc)]) == 1
        assert "unknown env key 'slip'; closest known key is 'slip_prob'" in capsys.readouterr().err
        assert not (tmp_path / "solve").exists()


class TestTrain:
    def test_zero_steps_summary_only(self, tmp_path, capsys):
        doc = base_train_config(tmp_path)
        code = main(["train", write_config(tmp_path, doc), "--steps", "0"])
        assert code == 0
        log = RunLog.load(tmp_path / "run")
        assert [rec["step"] for rec in log.records] == [0]
        assert json.loads(capsys.readouterr().out)["total_steps"] == 0

    def test_identical_runs_byte_identical_logs(self, tmp_path):
        doc = base_train_config(tmp_path, total_steps=120)
        cfg = write_config(tmp_path, doc)
        assert main(["train", cfg, "--out", str(tmp_path / "a")]) == 0
        assert main(["train", cfg, "--out", str(tmp_path / "b")]) == 0
        log_a = (tmp_path / "a" / "log.jsonl").read_bytes()
        log_b = (tmp_path / "b" / "log.jsonl").read_bytes()
        assert log_a == log_b

    def test_guardian_summary_reports_zero_violations(self, tmp_path):
        doc = base_train_config(tmp_path, total_steps=200)
        code = main(["train", write_config(tmp_path, doc), "--variant", "guardian"])
        assert code == 0
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["executed_violations"] == 0

    def test_effective_config_reproduces_run(self, tmp_path):
        doc = base_train_config(tmp_path, total_steps=100)
        assert main(["train", write_config(tmp_path, doc), "--out", str(tmp_path / "a")]) == 0
        effective = str(tmp_path / "a" / "effective_config.json")
        assert main(["train", effective, "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "log.jsonl").read_bytes() == (
            tmp_path / "b" / "log.jsonl"
        ).read_bytes()

    def test_override_flags_apply(self, tmp_path):
        doc = base_train_config(tmp_path, total_steps=60)
        code = main(["train", write_config(tmp_path, doc), "--seed", "9",
                     "--variant", "no_guard", "--steps", "80"])
        assert code == 0
        summary = json.loads((tmp_path / "run" / "summary.json").read_text())
        assert summary["seed"] == 9
        assert summary["variant"] == "no_guard"
        assert summary["total_steps"] == 80

    def test_missing_dataset_and_generator_fails(self, tmp_path):
        doc = base_train_config(tmp_path)
        del doc["generate_offline"]
        assert main(["train", write_config(tmp_path, doc)]) == 1

    @pytest.mark.parametrize("line, problem", [
        ('{"s": 3, "a": 1, "s2": 4, "done": false, "t": 0, "ep": 0}', "offline.jsonl:1: missing key 'r'"),
        ('{"s": -3, "a": 1, "r": 0.0, "s2": 4, "done": false, "t": 0, "ep": 0}', "s = -3 outside [0, 9)"),
    ], ids=["missing-key", "negative-state"])
    def test_bad_dataset_row_exits_1_with_diagnostic(self, tmp_path, capsys, line, problem):
        dataset = tmp_path / "offline.jsonl"
        dataset.write_text(line + "\n")
        doc = base_train_config(tmp_path)
        del doc["generate_offline"]
        doc["offline_dataset"] = str(dataset)
        assert main(["train", write_config(tmp_path, doc)]) == 1
        assert problem in capsys.readouterr().err

    @pytest.mark.parametrize("edit, problem", [
        (lambda doc: doc["learner"].update(alpah=0.1),
         "unknown learner key 'alpah'; closest known key is 'alpha'"),
        (lambda doc: doc["learner"].update(backup_mode="unguarded"),
         "unknown learner key 'backup_mode'"),
        (lambda doc: doc["dss"].update(lamda_max=0.4),
         "unknown dss key 'lamda_max'; closest known key is 'lambda_max'"),
        (lambda doc: doc["dts"].update(horizon=99), "unknown dts key 'horizon'"),
        (lambda doc: doc.pop("total_steps"), "config is missing required key 'total_steps'"),
        (lambda doc: doc.pop("env"), "config is missing required key 'env'"),
        (lambda doc: doc["env"].update(slip=0.5),
         "unknown env key 'slip'; closest known key is 'slip_prob'"),
        (lambda doc: doc["generate_offline"].update(episode=10),
         "unknown generate_offline key 'episode'; closest known key is 'episodes'"),
        (lambda doc: doc.update(env={"width": 3}), "env block is missing key 'height'"),
        (lambda doc: doc["learner"].update(alpha="x"), "learner key 'alpha' must be a number, got 'x'"),
        (lambda doc: doc["dts"].update(delta_max=8.5), "dts key 'delta_max' must be an integer, got 8.5"),
        (lambda doc: doc["dss"].update(k=True), "dss key 'k' must be a number, got True"),
        (lambda doc: doc["generate_offline"].update(guardian_filter="yes"),
         "generate_offline key 'guardian_filter' must be a boolean, got 'yes'"),
    ], ids=["learner-typo", "backup-mode", "dss-typo", "dts-horizon", "no-total-steps", "no-env",
            "env-typo", "generate-offline-typo", "env-incomplete", "learner-wrong-type",
            "dts-float-integer", "dss-boolean-number", "generate-offline-wrong-type"])
    def test_bad_config_exits_1_before_writing(self, tmp_path, capsys, edit, problem):
        doc = base_train_config(tmp_path)
        edit(doc)
        out = tmp_path / "out"
        assert main(["train", write_config(tmp_path, doc), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert problem in err
        assert err.count("\n") == 1
        assert not out.exists()


class TestSweepAndReport:
    def run_sweep(self, tmp_path):
        doc = base_train_config(tmp_path, total_steps=80)
        doc["sweep"] = {"variants": ["guardian", "no_guard"], "seeds": [0, 1, 2]}
        doc["output_dir"] = str(tmp_path / "sweep")
        assert main(["sweep", write_config(tmp_path, doc)]) == 0
        return sorted(str(p) for p in (tmp_path / "sweep").iterdir())

    def test_sweep_plus_report_medians(self, tmp_path, capsys):
        run_dirs = self.run_sweep(tmp_path)
        assert len(run_dirs) == 6
        capsys.readouterr()
        assert main(["report", *run_dirs]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out[0].startswith("variant,runs,final_td_error")
        assert len(out) == 3  # header + 2 variants

        rows = {line.split(",")[0]: line.split(",") for line in out[1:]}
        summaries = {}
        for run_dir in run_dirs:
            s = json.loads((tmp_path / run_dir / "summary.json").read_text())
            summaries.setdefault(s["variant"], []).append(s)
        for variant, row in rows.items():
            assert int(row[1]) == 3
            expected = statistics.median(s["final_td_error"] for s in summaries[variant])
            assert float(row[2]) == pytest.approx(expected, rel=1e-12)

    def test_report_single_run(self, tmp_path, capsys):
        doc = base_train_config(tmp_path, total_steps=60)
        assert main(["train", write_config(tmp_path, doc)]) == 0
        capsys.readouterr()
        assert main(["report", str(tmp_path / "run")]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 2
        assert out[1].split(",")[1] == "1"

    def test_report_no_args_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["report"])
        assert excinfo.value.code == 2

    def test_report_corrupt_dir_names_path(self, tmp_path, capsys):
        bad = tmp_path / "not_a_run"
        bad.mkdir()
        assert main(["report", str(bad)]) == 1
        assert "not_a_run" in capsys.readouterr().err

    def test_sweep_without_block_fails(self, tmp_path):
        doc = base_train_config(tmp_path)
        assert main(["sweep", write_config(tmp_path, doc)]) == 1

    def test_parallel_sweep_matches_serial(self, tmp_path):
        doc = base_train_config(tmp_path, total_steps=60)
        doc["sweep"] = {"variants": ["guardian"], "seeds": [0, 1]}
        doc["output_dir"] = str(tmp_path / "serial")
        assert main(["sweep", write_config(tmp_path, doc, "serial.json")]) == 0
        doc["output_dir"] = str(tmp_path / "parallel")
        assert main(["sweep", write_config(tmp_path, doc, "parallel.json"), "--jobs", "2"]) == 0
        for seed in (0, 1):
            a = (tmp_path / "serial" / f"guardian_seed{seed}" / "log.jsonl").read_bytes()
            b = (tmp_path / "parallel" / f"guardian_seed{seed}" / "log.jsonl").read_bytes()
            assert a == b
