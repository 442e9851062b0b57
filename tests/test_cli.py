"""Subcommand behavior, exit-code discipline, and file outputs."""

import hashlib
import json
import re
import statistics
from pathlib import Path

import pytest

from guardedrl.cli import main, run_config_from_doc, sweep_from_doc
from guardedrl.mdp import ConvergenceError, solve_pruned_value_iteration
from guardedrl.sampling import OfflineDataset
from guardedrl.trainer import RunLog

CLIFF_MAP = ["...", "S.G", "XXX"]
REPO = Path(__file__).resolve().parent.parent


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

    @pytest.mark.parametrize("command", ["solve", "train"])
    def test_non_object_config_exits_1(self, tmp_path, capsys, command):
        assert main([command, write_config(tmp_path, [1, 2])]) == 1
        assert "must be a JSON object" in capsys.readouterr().err

    def test_unknown_env_key_exits_1_before_writing(self, tmp_path, capsys):
        doc = {"env": {"map": ["S.G"], "slip": 0.5}, "output_dir": str(tmp_path / "solve")}
        assert main(["solve", write_config(tmp_path, doc)]) == 1
        assert "unknown env key 'slip'; closest known key is 'slip_prob'" in capsys.readouterr().err
        assert not (tmp_path / "solve").exists()

    @pytest.mark.parametrize("edit, problem", [
        (lambda doc: doc["random_mdp"].pop("num_states"),
         "random_mdp block is missing key 'num_states'"),
        (lambda doc: doc["random_mdp"].update(num_actions="4"),
         "random_mdp key 'num_actions' must be an integer, got '4'"),
        (lambda doc: doc["random_mdp"].update(num_state=12),
         "unknown random_mdp key 'num_state'; closest known key is 'num_states'"),
        (lambda doc: doc.update(random_mdp=[12, 4]), "config block 'random_mdp' must be a JSON object"),
        (lambda doc: doc.update(tol="small"), "top-level key 'tol' must be a number, got 'small'"),
        (lambda doc: doc.update(output_dir=5), "top-level key 'output_dir' must be a string, got 5"),
        (lambda doc: doc["random_mdp"].update(seed=-1), "random_mdp key 'seed' must be >= 0, got -1"),
        (lambda doc: doc["random_mdp"].update(num_states=0),
         "random_mdp key 'num_states' must be >= 1, got 0"),
        (lambda doc: doc["random_mdp"].update(num_actions=0),
         "random_mdp key 'num_actions' must be >= 1, got 0"),
        (lambda doc: doc["random_mdp"].update(num_states=-2),
         "random_mdp key 'num_states' must be >= 1, got -2"),
    ], ids=["no-num-states", "text-num-actions", "random-mdp-typo", "random-mdp-array",
            "text-tol", "number-output-dir", "negative-seed", "no-states", "no-actions",
            "negative-states"])
    def test_bad_random_mdp_config_exits_1_before_writing(self, tmp_path, capsys, edit, problem):
        doc = {"random_mdp": {"num_states": 12, "num_actions": 4}, "output_dir": str(tmp_path / "solve")}
        edit(doc)
        assert main(["solve", write_config(tmp_path, doc)]) == 1
        err = capsys.readouterr().err
        assert problem in err
        assert err.count("\n") == 1
        assert not (tmp_path / "solve").exists()

    @pytest.mark.parametrize("key, value, rule", [
        ("tol", 0, "(0, inf), got 0.0"),
        ("tol", -1, "(0, inf), got -1.0"),
        ("tol", float("nan"), "(0, inf), got nan"),
        ("tol", float("inf"), "(0, inf), got inf"),
        ("gap_tolerance", -1e-6, "[0, inf), got -1e-06"),
        ("gap_tolerance", float("nan"), "[0, inf), got nan"),
        ("gap_tolerance", float("inf"), "[0, inf), got inf"),
    ], ids=["tol-zero", "tol-negative", "tol-nan", "tol-inf", "gap-negative", "gap-nan", "gap-inf"])
    def test_bad_tolerance_exits_1_before_writing(self, tmp_path, capsys, key, value, rule):
        # json writes NaN and Infinity, and Python's json reads them back.
        doc = {"random_mdp": {"num_states": 12, "num_actions": 4}, key: value,
               "output_dir": str(tmp_path / "solve")}
        assert main(["solve", write_config(tmp_path, doc)]) == 1
        err = capsys.readouterr().err
        assert err == f"top-level key {key!r} must lie in {rule}\n"
        assert not (tmp_path / "solve").exists()

    @pytest.mark.parametrize("doc, problem", [
        ({"env": {"map": ["S.G"], "step_reward": float("inf")}},
         "config['env']['step_reward'] must be finite, got inf"),
        ({"random_mdp": {"num_states": 12, "num_actions": 4, "gamma": float("nan")}},
         "config['random_mdp']['gamma'] must be finite, got nan"),
        ({"random_mdp": {"num_states": 12, "num_actions": 4}, "notes": {"limits": [0, -float("inf")]}},
         "config['notes']['limits'][1] must be finite, got -inf"),
    ], ids=["env-reward-inf", "random-mdp-gamma-nan", "ignored-nested-minus-inf"])
    def test_non_finite_number_exits_1_before_writing(self, tmp_path, capsys, doc, problem):
        # json writes NaN and Infinity, and Python's json reads them back.
        doc["output_dir"] = str(tmp_path / "solve")
        assert main(["solve", write_config(tmp_path, doc)]) == 1
        assert capsys.readouterr().err == problem + "\n"
        assert not (tmp_path / "solve").exists()

    def test_zero_gap_tolerance_is_allowed(self, tmp_path):
        doc = {"env": {"map": ["S.G"], "gamma": 0.0}, "gap_tolerance": 0,
               "output_dir": str(tmp_path / "solve")}
        assert main(["solve", write_config(tmp_path, doc)]) == 0
        assert json.loads((tmp_path / "solve" / "solution.json").read_text())["gap_tolerance"] == 0.0

    def test_convergence_failure_leaves_no_directory(self, tmp_path, monkeypatch, capsys):
        def fail(mdp, spec, tol):
            raise ConvergenceError("no convergence within 3 sweeps", residual=0.5)

        monkeypatch.setattr("guardedrl.cli.solve_pruned_value_iteration", fail)
        doc = {"random_mdp": {"num_states": 12, "num_actions": 4}, "output_dir": str(tmp_path / "solve")}
        assert main(["solve", write_config(tmp_path, doc)]) == 1
        assert capsys.readouterr().err == "solver failed to converge: no convergence within 3 sweeps\n"
        assert not (tmp_path / "solve").exists()

    def test_gap_above_tolerance_writes_files_and_exits_1(self, tmp_path, monkeypatch):
        pruned = solve_pruned_value_iteration
        monkeypatch.setattr("guardedrl.cli.solve_pruned_value_iteration",
                            lambda mdp, spec, tol: pruned(mdp, spec, tol) + 1e-3)
        doc = {"random_mdp": {"num_states": 12, "num_actions": 4}, "output_dir": str(tmp_path / "solve")}
        assert main(["solve", write_config(tmp_path, doc)]) == 1
        out = tmp_path / "solve"
        assert sorted(p.name for p in out.iterdir()) == [
            "problem.json", "q_guarded.json", "q_pruned_oracle.json", "solution.json"]
        solution = json.loads((out / "solution.json").read_text())
        assert solution["within_tolerance"] is False and solution["gap"] > solution["gap_tolerance"]

    def test_unknown_top_level_key_is_ignored(self, tmp_path):
        doc = {"env": {"map": ["S.G"], "gamma": 0.0}, "notes": {"any": "thing"},
               "output_dir": str(tmp_path / "solve")}
        assert main(["solve", write_config(tmp_path, doc)]) == 0


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
        (lambda doc: doc.update(batch_size="x"), "top-level key 'batch_size' must be an integer, got 'x'"),
        (lambda doc: doc.update(total_steps=150.0),
         "top-level key 'total_steps' must be an integer, got 150.0"),
        (lambda doc: doc.update(variant=["guardian"]),
         "top-level key 'variant' must be a string, got ['guardian']"),
        (lambda doc: doc.update(stochastic_eval=1),
         "top-level key 'stochastic_eval' must be a boolean, got 1"),
        (lambda doc: doc.update(offline_dataset=7), "top-level key 'offline_dataset' must be a string, got 7"),
        (lambda doc: doc.update(env={"width": 3, "height": 3, "start": [0], "goal": [2, 1]}),
         "start cell must be two integers [x, y], got [0]"),
        (lambda doc: doc.update(env={"width": 3, "height": 3, "start": [0, 1], "goal": [2, 1.5]}),
         "goal cell must be two integers [x, y], got [2, 1.5]"),
        (lambda doc: doc.update(env={"width": 3, "height": 3, "start": [0, 1], "goal": [2, 1],
                                     "hazards": [[1, 0], 4]}),
         "hazard cell must be two integers [x, y], got 4"),
        (lambda doc: doc["env"].update(map=[1, 2]), "ASCII map rows must be strings"),
        (lambda doc: doc["env"].update(goal=[0, 0]),
         "env key 'goal' cannot be given with 'map', which sets the geometry"),
        (lambda doc: doc["env"].update(width=5, hazards=[]),
         "env key 'width' cannot be given with 'map', which sets the geometry"),
        # The backup has one entropy sign and the learner discounts by env.gamma.
        (lambda doc: doc["learner"].update(entropy_sign="penalty"), "unknown learner key 'entropy_sign'"),
        (lambda doc: doc["learner"].update(gamma=0.9), "unknown learner key 'gamma'"),
        (lambda doc: doc["generate_offline"].update(behavior="bogus"),
         "generate_offline key 'behavior' must be one of uniform_safe, uniform, got 'bogus'"),
        (lambda doc: doc["generate_offline"].update(episodes=0),
         "generate_offline key 'episodes' must be >= 1, got 0"),
        (lambda doc: doc["generate_offline"].update(max_ep_len=-2),
         "generate_offline key 'max_ep_len' must be >= 1, got -2"),
        (lambda doc: doc["generate_offline"].update(seed=-1),
         "generate_offline key 'seed' must be >= 0, got -1"),
        (lambda doc: doc.update(seed=-3), "seed must be >= 0, got -3"),
        (lambda doc: doc["env"].update(map=["S.S", "..G"]), "map needs exactly one S and one G"),
    ], ids=["learner-typo", "backup-mode", "dss-typo", "dts-horizon", "no-total-steps", "no-env",
            "env-typo", "generate-offline-typo", "env-incomplete", "learner-wrong-type",
            "dts-float-integer", "dss-boolean-number", "generate-offline-wrong-type",
            "top-level-wrong-type", "float-total-steps", "array-variant", "integer-flag",
            "number-dataset-path", "env-short-cell", "env-float-cell", "env-scalar-hazard",
            "env-number-rows", "env-map-and-goal", "env-map-and-width", "entropy-sign",
            "learner-gamma", "unknown-behavior", "no-episodes", "negative-episode-length",
            "negative-generator-seed", "negative-seed", "env-map-two-starts"])
    def test_bad_config_exits_1_before_writing(self, tmp_path, capsys, edit, problem):
        doc = base_train_config(tmp_path)
        edit(doc)
        out = tmp_path / "deep" / "nested" / "run"
        assert main(["train", write_config(tmp_path, doc), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert problem in err
        assert err.count("\n") == 1
        assert not (tmp_path / "deep").exists()

    def test_unreadable_config_exits_1(self, tmp_path, capsys):
        missing = tmp_path / "missing.json"
        assert main(["train", str(missing), "--out", str(tmp_path / "run")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"cannot read config {missing}: ")
        assert err.count("\n") == 1
        assert not (tmp_path / "run").exists()

    def test_negative_seed_flag_exits_1_before_writing(self, tmp_path, capsys):
        out = tmp_path / "deep" / "nested" / "run"
        assert main(["train", write_config(tmp_path, base_train_config(tmp_path)), "--seed", "-4",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == "seed must be >= 0, got -4\n"
        assert not (tmp_path / "deep").exists()

    def test_unknown_variant_flag_exits_1_before_writing(self, tmp_path, capsys):
        out = tmp_path / "deep" / "nested" / "run"
        assert main(["train", write_config(tmp_path, base_train_config(tmp_path)), "--variant", "bogus",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            "variant must be one of guardian, exec_mask_only, no_guard, offline_only, got 'bogus'\n")
        assert not (tmp_path / "deep").exists()

    @pytest.mark.parametrize("command", ["train", "sweep"])
    @pytest.mark.parametrize("edit, problem", [
        (lambda doc: doc["dts"].update(beta=float("inf")), "config['dts']['beta'] must be finite, got inf"),
        (lambda doc: doc["learner"].update(alpha=float("nan")),
         "config['learner']['alpha'] must be finite, got nan"),
        (lambda doc: doc["dss"].update(k=-float("inf")), "config['dss']['k'] must be finite, got -inf"),
        (lambda doc: doc.update(tol=float("nan")), "config['tol'] must be finite, got nan"),
        (lambda doc: doc.update(notes={"limits": [0, -float("inf")]}),
         "config['notes']['limits'][1] must be finite, got -inf"),
    ], ids=["beta-inf", "alpha-nan", "k-minus-inf", "ignored-top-level-nan", "ignored-nested-inf"])
    def test_non_finite_config_number_exits_1_before_writing(self, tmp_path, capsys, command, edit,
                                                             problem):
        # json writes NaN and Infinity, and Python's json reads them back.
        doc = base_train_config(tmp_path, total_steps=0)
        doc["sweep"] = {"variants": ["guardian"], "seeds": [0]}
        edit(doc)
        out = tmp_path / "out"
        assert main([command, write_config(tmp_path, doc), "--out", str(out)]) == 1
        assert capsys.readouterr().err == problem + "\n"
        assert not out.exists()

    # A numpy RuntimeWarning would reach stderr ahead of the diagnostic;
    # "error" turns any warning into a failure of these tests.
    @pytest.mark.filterwarnings("error")
    def test_non_finite_run_exits_1_without_logs(self, tmp_path, capsys):
        doc = base_train_config(tmp_path, total_steps=60)
        doc["learner"]["alpha"] = 1e300
        assert main(["train", write_config(tmp_path, doc)]) == 1
        assert re.fullmatch(r"step \d+: \w+ is nan; the run diverged\n", capsys.readouterr().err)
        assert not (tmp_path / "run" / "log.jsonl").exists()
        assert not (tmp_path / "run" / "summary.json").exists()

    @pytest.mark.filterwarnings("error")
    def test_failed_run_leaves_no_output_directory(self, tmp_path, capsys):
        # The generated dataset stays in memory until training succeeds; a
        # run that fails must leave neither its directory nor a staging copy.
        doc = base_train_config(tmp_path, total_steps=60)
        doc["learner"]["alpha"] = 1e300
        cfg = write_config(tmp_path, doc)
        assert main(["train", cfg, "--out", str(tmp_path / "out")]) == 1
        assert re.fullmatch(r"step \d+: \w+ is nan; the run diverged\n", capsys.readouterr().err)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("dataset", ["out/offline.jsonl", "data/offline.jsonl"],
                             ids=["in-run-dir", "elsewhere"])
    def test_failed_run_leaves_no_generated_dataset(self, tmp_path, dataset):
        # A dataset generated for a configured path reaches it only with a
        # successful run.
        doc = base_train_config(tmp_path, total_steps=60)
        doc["learner"]["alpha"] = 1e300
        doc["offline_dataset"] = str(tmp_path / dataset)
        cfg = write_config(tmp_path, doc)
        assert main(["train", cfg, "--out", str(tmp_path / "out")]) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.filterwarnings("error")
    def test_failed_run_leaves_no_parent_directories(self, tmp_path, capsys):
        doc = base_train_config(tmp_path, total_steps=60)
        doc["learner"]["alpha"] = 1e300
        out = tmp_path / "deep" / "nested" / "run"
        assert main(["train", write_config(tmp_path, doc), "--out", str(out)]) == 1
        assert re.fullmatch(r"step \d+: \w+ is nan; the run diverged\n", capsys.readouterr().err)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_bad_configured_dataset_leaves_no_parent_directories(self, tmp_path, capsys):
        dataset = tmp_path / "data.jsonl"
        dataset.write_text('{"s": 3, "a": 1, "s2": 4, "done": false, "t": 0, "ep": 0}\n')
        doc = base_train_config(tmp_path, total_steps=60)
        del doc["generate_offline"]
        doc["offline_dataset"] = str(dataset)
        out = tmp_path / "deep" / "nested" / "run"
        assert main(["train", write_config(tmp_path, doc), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"{dataset}:1: missing key 'r'\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "data.jsonl"]

    def test_generated_dataset_is_never_reloaded(self, tmp_path, monkeypatch):
        # A generated dataset is trained on in memory and written once.
        def refuse(path):
            raise AssertionError(f"load_jsonl({path}) called for a generated dataset")

        monkeypatch.setattr(OfflineDataset, "load_jsonl", refuse)
        doc = base_train_config(tmp_path, total_steps=60)
        assert main(["train", write_config(tmp_path, doc)]) == 0
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
            "effective_config.json", "log.jsonl", "offline.jsonl", "summary.json"]

    @pytest.mark.parametrize("which", ["config", "dataset"])
    def test_non_utf8_input_names_its_file(self, tmp_path, capsys, which):
        doc = base_train_config(tmp_path, total_steps=60)
        bad = tmp_path / "bad.bin"
        if which == "config":
            bad.write_bytes(b"\xff\xfe" + json.dumps(doc).encode())
            cfg = str(bad)
        else:
            row = '{"s": 3, "a": 1, "r": 0.0, "s2": 4, "done": false, "t": 0, "ep": 0}\n'
            bad.write_bytes(row.encode() + b"\xff\n")
            del doc["generate_offline"]
            doc["offline_dataset"] = str(bad)
            cfg = write_config(tmp_path, doc)
        assert main(["train", cfg, "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert str(bad) in err
        assert "can't decode byte 0xff" in err
        assert not (tmp_path / "out").exists()

    def test_generated_dataset_moves_to_configured_path(self, tmp_path):
        doc = base_train_config(tmp_path, total_steps=60)
        configured = tmp_path / "data" / "offline.jsonl"
        doc["offline_dataset"] = str(configured)
        assert main(["train", write_config(tmp_path, doc)]) == 0
        assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
            "effective_config.json", "log.jsonl", "summary.json"]
        pinned = json.loads((tmp_path / "run" / "effective_config.json").read_text())
        assert pinned["offline_dataset"] == str(configured.resolve())
        # The second run reads the file the first one moved into place.
        assert main(["train", write_config(tmp_path, doc), "--out", str(tmp_path / "again")]) == 0
        assert (tmp_path / "again" / "log.jsonl").read_bytes() == (
            tmp_path / "run" / "log.jsonl").read_bytes()

    def test_rerun_into_existing_directory_replaces_run_files(self, tmp_path):
        doc = base_train_config(tmp_path, total_steps=60)
        out = tmp_path / "run"
        out.mkdir()
        (out / "notes.txt").write_text("kept")
        (out / "summary.json").write_text("stale")
        assert main(["train", write_config(tmp_path, doc)]) == 0
        assert sorted(p.name for p in out.iterdir()) == [
            "effective_config.json", "log.jsonl", "notes.txt", "offline.jsonl", "summary.json"]
        assert (out / "notes.txt").read_text() == "kept"
        assert RunLog.load(out).summary["total_steps"] == 60
        pinned = json.loads((out / "effective_config.json").read_text())["offline_dataset"]
        assert pinned == str((out / "offline.jsonl").resolve())
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "run"]


class TestGoldenRuns:
    """Run logs of a fixed config, pinned byte for byte across code changes."""

    DIGESTS = {  # sha256 of log.jsonl + summary.json
        "guardian": "54d354f9157fa1c1fe7766b013c2e00f13d3df66b9ca03a8e1c64c11d0aeca72",
        "exec_mask_only": "1f5c676feb4cd7f8740deb768c9bb16769a872fd9365ab56b9cd277579f85e0d",
        "no_guard": "cb8076af8aeed795a9362f27b6e16bf24fd0c86d5bff80e0ce7d2fd0777e2725",
        "offline_only": "e269e7f3feb3e7c672222565d64b2bed8463e687cdf8f4ba72e0b43632ebab3d",
        # The guardian variant with one option changed (see OPTIONS).
        "guardian+stochastic_eval": "21426edab35fa401e2e8907aa1e366aac29ab617905ca4d874db3c3c5a742896",
    }
    OPTIONS = {
        "stochastic_eval": lambda doc: doc.update(stochastic_eval=True),
    }

    @pytest.mark.parametrize("case", list(DIGESTS))
    def test_cliff_run_log_digest(self, tmp_path, case):
        # Criterion-7 settings on the 5x5 slippery cliff, shortened to 300 steps.
        variant, _, option = case.partition("+")
        doc = {
            "env": {"map": [".....", ".....", ".....", "S...G", "XXXXX"], "step_reward": -0.02,
                    "goal_reward": 1.0, "hazard_reward": -1.0, "slip_prob": 0.2, "gamma": 0.95},
            "learner": {"alpha": 0.02, "tau": 0.05, "critic_lr": 0.3, "actor_lr": 0.2},
            "dts": {"delta_min": 1, "delta_max": 8, "beta": 2.0},
            "total_steps": 300, "seed": 0, "batch_size": 32, "eval_every": 100,
            "eval_episodes": 5, "eval_max_len": 60, "max_episode_len": 60,
            "generate_offline": {"episodes": 50, "max_ep_len": 60, "seed": 999},
        }
        if option:
            self.OPTIONS[option](doc)
        out = tmp_path / variant
        assert main(["train", write_config(tmp_path, doc), "--variant", variant,
                     "--out", str(out)]) == 0
        data = (out / "log.jsonl").read_bytes() + (out / "summary.json").read_bytes()
        assert hashlib.sha256(data).hexdigest() == self.DIGESTS[case]


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

    def test_report_out_writes_the_printed_csv(self, tmp_path, capsys):
        doc = base_train_config(tmp_path, total_steps=0)
        assert main(["train", write_config(tmp_path, doc)]) == 0
        capsys.readouterr()
        assert main(["report", str(tmp_path / "run")]) == 0
        printed = capsys.readouterr().out
        csv = tmp_path / "deep" / "report.csv"
        assert main(["report", str(tmp_path / "run"), "--out", str(csv)]) == 0
        assert capsys.readouterr().out == ""
        assert csv.read_text() == printed

    def test_report_no_args_usage_error(self):
        with pytest.raises(SystemExit) as excinfo:
            main(["report"])
        assert excinfo.value.code == 2

    def test_report_corrupt_dir_names_path(self, tmp_path, capsys):
        bad = tmp_path / "not_a_run"
        bad.mkdir()
        assert main(["report", str(bad)]) == 1
        assert "not_a_run" in capsys.readouterr().err

    def test_report_empty_log_exits_1(self, tmp_path, capsys):
        run = tmp_path / "run"
        run.mkdir()
        (run / "log.jsonl").write_text("")
        (run / "summary.json").write_text(json.dumps({"variant": "guardian"}))
        assert main(["report", str(run)]) == 1
        assert capsys.readouterr().err == f"missing or corrupt run log in {run}: empty log\n"

    @pytest.mark.parametrize("summary, problem", [
        ([1, 2], "summary is a JSON list, not an object"),
        ({"variant": ["guardian"]}, "summary key 'variant' must be a string, got ['guardian']"),
        ({"variant": "guardian", "coverage": "abc"},
         "summary key 'coverage' must be a finite number or null, got 'abc'"),
        ({"variant": "guardian", "support_kl": True},
         "summary key 'support_kl' must be a finite number or null, got True"),
        ({"variant": "guardian", "final_ttfv": float("nan")},
         "summary key 'final_ttfv' must be a finite number or null, got nan"),
    ], ids=["array-summary", "array-variant", "text-field", "boolean-field", "nan-field"])
    def test_report_malformed_summary_names_directory(self, tmp_path, capsys, summary, problem):
        run = tmp_path / "run"
        run.mkdir()
        (run / "log.jsonl").write_text('{"step": 0}\n')
        (run / "summary.json").write_text(json.dumps(summary))
        assert main(["report", str(run)]) == 1
        assert capsys.readouterr().err == f"missing or corrupt run log in {run}: {problem}\n"

    # sweep sizes its own worker pool: --jobs, whatever its value, is an
    # unrecognized argument.
    @pytest.mark.parametrize("jobs", ["0", "-3", "2"])
    def test_sweep_jobs_below_one_is_usage_error(self, tmp_path, capsys, jobs):
        doc = base_train_config(tmp_path, total_steps=0)
        doc["sweep"] = {"variants": ["guardian"], "seeds": [0]}
        with pytest.raises(SystemExit) as excinfo:
            main(["sweep", write_config(tmp_path, doc), "--jobs", jobs])
        assert excinfo.value.code == 2
        assert capsys.readouterr().err.endswith(f"error: unrecognized arguments: --jobs {jobs}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    @pytest.mark.parametrize("cpus, started", [(1, [1]), (2, [2]), (64, [2]), (None, [1])])
    def test_sweep_starts_at_most_one_worker_per_run(self, tmp_path, monkeypatch, cpus, started):
        # The pool is replaced by one that runs jobs in-process: many cores
        # must not fork more processes than the sweep has runs.
        workers = []

        class InProcessPool:
            def __init__(self, max_workers):
                workers.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr("guardedrl.cli.ProcessPoolExecutor", InProcessPool)
        monkeypatch.setattr("guardedrl.cli.os.cpu_count", lambda: cpus)
        doc = base_train_config(tmp_path, total_steps=0)
        doc["sweep"] = {"variants": ["guardian", "no_guard"], "seeds": [0]}
        doc["output_dir"] = str(tmp_path / "sweep")
        assert main(["sweep", write_config(tmp_path, doc)]) == 0
        assert workers == started
        assert sorted(p.name for p in (tmp_path / "sweep").iterdir()) == [
            "guardian_seed0", "no_guard_seed0"]

    def test_sweep_without_block_fails(self, tmp_path):
        doc = base_train_config(tmp_path)
        assert main(["sweep", write_config(tmp_path, doc)]) == 1

    @pytest.mark.parametrize("sweep, problem", [
        ({"variants": ["guardian"], "seeds": [1.7]}, "sweep seeds must be an integer, got 1.7"),
        ({"variants": ["guardian"], "seeds": [True]}, "sweep seeds must be an integer, got True"),
        ({"variants": "guardian", "seeds": [0]},
         "sweep key 'variants' must be an array, got 'guardian'"),
        ({"variants": ["guardian", "guardain"], "seeds": [0]},
         "sweep variants must be among guardian, exec_mask_only, no_guard, offline_only, "
         "got 'guardain'"),
        ({"variants": [], "seeds": [0]}, "non-empty variants and seeds"),
        ({"variants": ["guardian"], "seed": [0]}, "unknown sweep key 'seed'"),
        # A repeated pair would train into one directory again and again.
        ({"variants": ["guardian", "no_guard", "guardian"], "seeds": [0]},
         "sweep variants must not repeat, got 'guardian' more than once"),
        ({"variants": ["guardian"], "seeds": [0, 3, 3]}, "sweep seeds must not repeat, got 3 more than once"),
        ({"variants": ["guardian"], "seeds": [0, -1]}, "sweep seeds must be >= 0, got -1"),
    ], ids=["float-seed", "boolean-seed", "string-variants", "unknown-variant", "no-variants",
            "sweep-typo", "repeated-variant", "repeated-seed", "negative-seed"])
    def test_bad_sweep_block_exits_1_before_writing(self, tmp_path, capsys, sweep, problem):
        doc = base_train_config(tmp_path, total_steps=0)
        doc["sweep"] = sweep
        out = tmp_path / "sweep"
        assert main(["sweep", write_config(tmp_path, doc), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert problem in err
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    def test_failed_sweep_leaves_no_base_directory(self, tmp_path, capsys):
        doc = base_train_config(tmp_path, total_steps=60)
        doc["learner"]["alpha"] = 1e300
        doc["sweep"] = {"variants": ["guardian", "no_guard"], "seeds": [0]}
        assert main(["sweep", write_config(tmp_path, doc), "--out", str(tmp_path / "sw" / "base")]) == 1
        assert re.fullmatch(r"step \d+: \w+ is nan; the run diverged\n", capsys.readouterr().err)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json"]

    def test_parallel_sweep_matches_serial(self, tmp_path, capsys):
        # Each run of the sweep's worker pool writes the files that an
        # in-process `train` of the same variant and seed writes.
        doc = base_train_config(tmp_path, total_steps=60)
        doc["sweep"] = {"variants": ["guardian", "no_guard"], "seeds": [0, 1]}
        doc["output_dir"] = str(tmp_path / "sweep")
        cfg = write_config(tmp_path, doc)
        assert main(["sweep", cfg]) == 0
        runs = [(variant, seed) for variant in ("guardian", "no_guard") for seed in (0, 1)]
        assert capsys.readouterr().out == "".join(f"{tmp_path / 'sweep'}/{v}_seed{s}\n" for v, s in runs)
        for variant, seed in runs:
            serial = tmp_path / f"train_{variant}_{seed}"
            assert main(["train", cfg, "--variant", variant, "--seed", str(seed), "--out", str(serial)]) == 0
            for name in ("log.jsonl", "summary.json"):
                swept = tmp_path / "sweep" / f"{variant}_seed{seed}" / name
                assert swept.read_bytes() == (serial / name).read_bytes()


def json_block_after(path, marker):
    """The first ```json block after the line holding marker in a Markdown file of the repo."""
    text = (REPO / path).read_text()
    start = text.index("```json\n", text.index(marker)) + len("```json\n")
    return json.loads(text[start:text.index("```", start)])


class TestDocumentedConfigs:
    """The configs shown in README and docs/formats.md parse as written."""

    def test_readme_training_config(self):
        cfg = run_config_from_doc(json_block_after("README.md", "A minimal training config:"))
        assert (cfg.variant, cfg.total_steps, cfg.learner.gamma) == ("guardian", 8000, 0.95)

    def test_formats_experiment_config(self):
        doc = json_block_after("docs/formats.md", "## Experiment config (JSON)")
        cfg = run_config_from_doc(doc)
        assert (cfg.variant, cfg.total_steps, cfg.learner.gamma) == ("guardian", 8000, 0.95)
        assert sweep_from_doc(doc) == (["guardian", "exec_mask_only"], [0, 1, 2])
