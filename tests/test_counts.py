"""Every count the library takes goes through mdp.check_count.

A size, budget, step or seed that is not an integer (a bool, a float,
NaN or an infinity) or that lies below its bound raises one ValueError
naming the field; numpy integers are counts too.
"""

import math
import re

import numpy as np
import pytest

from guardedrl.cli import GenerateOfflineConfig, RandomMdpConfig, SweepConfig, parse_block
from guardedrl.envs import (
    GridWorldSpec,
    build_cliff_grid,
    build_random_safe_mdp,
    collect_offline_dataset,
    uniform_safe_policy,
)
from guardedrl.learner import LearnerConfig, softmax
from guardedrl.mdp import check_count, solve_guarded_value_iteration, solve_pruned_value_iteration
from guardedrl.sampling import (
    DssConfig,
    DtsConfig,
    ReplayStore,
    dss_mixing,
    dts_interval,
    sample_hybrid_batch,
)
from guardedrl.trainer import RunConfig, evaluate_policy, measure_ttfv, run_training

NOT_INTEGERS = [True, 2.5, 5.0, math.nan, math.inf, -math.inf]

GRID_FIELDS = dict(width=3, height=2, start=(0, 1), goal=(2, 1), hazards={(1, 0)})
GRID = GridWorldSpec(**GRID_FIELDS)
MDP, SPEC = build_cliff_grid(GRID)
PROBS = softmax(np.zeros((MDP.num_states, MDP.num_actions)))
DTS_FIELDS = dict(delta_min=2, delta_max=4, beta=2.0, horizon=10)
DSS_FIELDS = dict(lambda_min=0.1, lambda_max=0.5, k=1.0, horizon=10)


def dataset(n_episodes=3, max_ep_len=10, seed=0):
    return collect_offline_dataset(MDP, SPEC, uniform_safe_policy(SPEC), n_episodes=n_episodes,
                                   max_ep_len=max_ep_len, seed=seed, start_state=GRID.start_state)


def random_mdp(num_states=3, num_actions=2, seed=0):
    return build_random_safe_mdp(num_states, num_actions, 0.5, seed)


def run_config(**change):
    fields = dict(variant="guardian", grid=GRID, learner=LearnerConfig(gamma=GRID.gamma),
                  dts=DtsConfig(**DTS_FIELDS), dss=DssConfig(**DSS_FIELDS), total_steps=10, seed=0)
    return RunConfig(**{**fields, **change})


def evaluate(episodes=2, max_len=5):
    return evaluate_policy(PROBS, MDP, SPEC, episodes, max_len, guard_on=True, seed=0,
                           start_state=GRID.start_state)


def ttfv(episodes=2, max_steps=5):
    return measure_ttfv(PROBS, MDP, SPEC, episodes, max_steps, guard_on=True, seed=0,
                        start_state=GRID.start_state)


def batch(delta=2, batch_size=8):
    return sample_hybrid_batch(ReplayStore(dataset(), 4), 0.5, delta, batch_size, np.random.default_rng(0))


def field_site(name, least, base, call):
    """A count passed as the keyword `name`: (name, least, valid value, call(value))."""
    return name, least, base, lambda value: call(**{name: value})


def block_site(block, cls, key, least, base, **given):
    """A count of a config block's dataclass, named in its messages as "<block> key '<key>'"."""
    return f"{block} key {key!r}", least, base, lambda value: cls(**{**given, key: value})


RUN_DEFAULTS = dict(batch_size=64, updates_per_step=1, eval_every=1000,
                    eval_episodes=10, eval_max_len=100, ttfv_episodes=5, ttfv_max_steps=200,
                    max_episode_len=200, online_buffer_capacity=10_000)

# (id, (name in the message, least value, a valid value, call with the count)).
SITES = [
    ("RunConfig.total_steps", field_site("total_steps", 0, 10, run_config)),
    ("RunConfig.seed", field_site("seed", 0, 3, run_config)),
    ("RunConfig.ensemble_size", field_site("ensemble_size", 2, 2, run_config)),
    *((f"RunConfig.{name}", field_site(name, 1, base, run_config)) for name, base in RUN_DEFAULTS.items()),
    ("DtsConfig.delta_min", field_site("delta_min", 1, 2, lambda **c: DtsConfig(**{**DTS_FIELDS, **c}))),
    ("DtsConfig.delta_max", field_site("delta_max", 2, 4, lambda **c: DtsConfig(**{**DTS_FIELDS, **c}))),
    ("DtsConfig.horizon", field_site("horizon", 1, 10, lambda **c: DtsConfig(**{**DTS_FIELDS, **c}))),
    ("DssConfig.horizon", field_site("horizon", 1, 10, lambda **c: DssConfig(**{**DSS_FIELDS, **c}))),
    ("GridWorldSpec.width", field_site("width", 1, 3, lambda **c: GridWorldSpec(**{**GRID_FIELDS, **c}))),
    ("GridWorldSpec.height", field_site("height", 1, 2, lambda **c: GridWorldSpec(**{**GRID_FIELDS, **c}))),
    ("ReplayStore.capacity", ("capacity", 1, 4, lambda value: ReplayStore(dataset(), value))),
    ("sample_hybrid_batch.batch_size", field_site("batch_size", 1, 8, batch)),
    ("sample_hybrid_batch.delta", field_site("delta", 1, 2, batch)),
    ("dts_interval.t", ("t", 0, 3, lambda value: dts_interval(value, DtsConfig(**DTS_FIELDS)))),
    ("dss_mixing.t", ("t", 0, 3, lambda value: dss_mixing(value, DssConfig(**DSS_FIELDS)))),
    ("collect_offline_dataset.n_episodes", field_site("n_episodes", 1, 3, dataset)),
    ("collect_offline_dataset.max_ep_len", field_site("max_ep_len", 1, 10, dataset)),
    ("collect_offline_dataset.seed", field_site("seed", 0, 5, dataset)),
    ("build_random_safe_mdp.num_states", field_site("num_states", 1, 3, random_mdp)),
    ("build_random_safe_mdp.num_actions", field_site("num_actions", 1, 2, random_mdp)),
    ("build_random_safe_mdp.seed", field_site("seed", 0, 5, random_mdp)),
    ("evaluate_policy.episodes", field_site("episodes", 1, 2, evaluate)),
    ("evaluate_policy.max_len", field_site("max_len", 1, 5, evaluate)),
    ("measure_ttfv.episodes", field_site("episodes", 1, 2, ttfv)),
    ("measure_ttfv.max_steps", field_site("max_steps", 1, 5, ttfv)),
    ("solve_guarded_value_iteration.max_iters",
     ("max_iters", 1, 1000, lambda value: solve_guarded_value_iteration(MDP, SPEC, max_iters=value))),
    ("solve_pruned_value_iteration.max_iters",
     ("max_iters", 1, 1000, lambda value: solve_pruned_value_iteration(MDP, SPEC, max_iters=value))),
    # GenerateOfflineConfig.episodes; the id is kept so that the test names stay stable.
    ("check_least", block_site("generate_offline", GenerateOfflineConfig, "episodes", 1, 3)),
    ("GenerateOfflineConfig.max_ep_len", block_site("generate_offline", GenerateOfflineConfig, "max_ep_len", 1, 10)),
    ("GenerateOfflineConfig.seed", block_site("generate_offline", GenerateOfflineConfig, "seed", 0, 5)),
    *((f"RandomMdpConfig.{key}", block_site("random_mdp", RandomMdpConfig, key, least, 3, num_states=3, num_actions=2))
      for key, least in (("num_states", 1), ("num_actions", 1), ("seed", 0))),
    ("sweep seeds", ("sweep seeds", 0, 2,
                     lambda value: parse_block({"sweep": {"variants": ["guardian"], "seeds": [value]}}, "sweep",
                                               SweepConfig))),
]
SITE_IDS = [site_id for site_id, _ in SITES]
SITE_ARGS = [site for _, site in SITES]


@pytest.mark.parametrize("site", SITE_ARGS, ids=SITE_IDS)
@pytest.mark.parametrize("value", NOT_INTEGERS, ids=repr)
def test_site_refuses_a_non_integer(site, value):
    name, _, _, call = site
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be an integer, got {value!r}')}$"):
        call(value)


@pytest.mark.parametrize("site", SITE_ARGS, ids=SITE_IDS)
def test_site_refuses_a_count_below_its_bound(site):
    name, least, _, call = site
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be >= {least}, got {least - 1}')}$"):
        call(least - 1)


@pytest.mark.parametrize("site", SITE_ARGS, ids=SITE_IDS)
def test_site_accepts_a_numpy_integer(site):
    _, _, base, call = site
    call(np.int64(base))


def test_a_run_with_numpy_counts_writes_the_same_files(tmp_path):
    plain = run_training(run_config(seed=3, total_steps=10, batch_size=4), dataset())
    numpy = run_training(run_config(seed=np.int64(3), total_steps=np.int64(10), batch_size=np.int64(4)),
                         dataset())
    plain.save(tmp_path / "plain")
    numpy.save(tmp_path / "numpy")
    for name in ("log.jsonl", "summary.json"):
        assert (tmp_path / "numpy" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes()


class TestCheckCount:
    @pytest.mark.parametrize("value", [0, 7, np.int64(7), np.int32(0), np.uint8(3)], ids=repr)
    def test_accepts_integers_at_or_above_the_bound(self, value):
        check_count("n", value, 0)

    @pytest.mark.parametrize("value", [*NOT_INTEGERS, np.bool_(True), np.float64(2.0), "3", None],
                             ids=repr)
    def test_refuses_what_is_not_an_integer(self, value):
        with pytest.raises(ValueError, match=f"^{re.escape(f'n must be an integer, got {value!r}')}$"):
            check_count("n", value, 0)

    def test_names_the_bound(self):
        with pytest.raises(ValueError, match=r"^n must be >= 3, got np\.int64\(2\)$"):
            check_count("n", np.int64(2), 3)
