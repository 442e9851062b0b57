"""Every bounded real parameter the library takes goes through mdp.check_range.

A value outside its interval, NaN included, raises one ValueError that
names the parameter, the interval and the value:
"<name> must lie in <interval>, got <value!r>". A bool or a value that is
not a real number raises "<name> must be a real number, got <value!r>"
before any comparison.
"""

import argparse
import json
import math
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest

from guardedrl.cli import cmd_solve
from guardedrl.envs import (
    GridWorldSpec,
    build_cliff_grid,
    build_random_safe_mdp,
    collect_offline_dataset,
    uniform_safe_policy,
)
from guardedrl.learner import INIT_NOISE, LearnerConfig, soft_update_targets
from guardedrl.mdp import TabularMdp, check_range, solve_guarded_value_iteration, solve_pruned_value_iteration
from guardedrl.sampling import DssConfig, DtsConfig, ReplayStore, sample_hybrid_batch

GRID_FIELDS = dict(width=3, height=2, start=(0, 1), goal=(2, 1), hazards={(1, 0)})
GRID = GridWorldSpec(**GRID_FIELDS)
MDP, SPEC = build_cliff_grid(GRID)
DTS_FIELDS = dict(delta_min=2, delta_max=4, beta=2.0, horizon=10)
DSS_FIELDS = dict(lambda_min=0.1, lambda_max=0.5, k=1.0, horizon=10)


def site(name, low, high, call, *, low_open=False, high_open=False, kind="a real number"):
    """(name in the message, low, high, low_open, high_open, call(value), kind).

    kind is what the refusal of a non-real value says the value must be.
    """
    return name, low, high, low_open, high_open, call, kind


def field(name, low, high, make, **open_ends):
    """A site whose value is passed as the keyword `name` to make."""
    return site(name, low, high, lambda value: make(**{name: value}), **open_ends)


def solve(**top):
    """Run `guardedrl solve` on a 3-state random MDP with the given top-level keys."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        doc = {"random_mdp": {"num_states": 3, "num_actions": 2}, "output_dir": str(Path(tmp) / "solve"), **top}
        path.write_text(json.dumps(doc))
        cmd_solve(argparse.Namespace(config=str(path), out=None))


def grid(**change):
    return GridWorldSpec(**{**GRID_FIELDS, **change})


def dss(**change):
    return DssConfig(**{**DSS_FIELDS, **change})


def dataset():
    return collect_offline_dataset(MDP, SPEC, uniform_safe_policy(SPEC), n_episodes=3, max_ep_len=10,
                                   seed=0, start_state=GRID.start_state)


def polyak(tau):
    members = np.random.default_rng(0).uniform(-INIT_NOISE, INIT_NOISE, size=(2, 2, 2))
    soft_update_targets(members, members.copy(), tau)


def batch(lam):
    sample_hybrid_batch(ReplayStore(dataset(), 4), lam, 2, 8, np.random.default_rng(0))


# (id, site): one row per check_range call in src/.
SITES = [
    ("TabularMdp.gamma",
     field("gamma", 0, 1, lambda gamma: TabularMdp(MDP.transition, MDP.reward, gamma), high_open=True)),
    ("solve_guarded_value_iteration.tol",
     field("tol", 0, math.inf, lambda tol: solve_guarded_value_iteration(MDP, SPEC, tol=tol),
           low_open=True, high_open=True)),
    ("solve_pruned_value_iteration.tol",
     field("tol", 0, math.inf, lambda tol: solve_pruned_value_iteration(MDP, SPEC, tol=tol),
           low_open=True, high_open=True)),
    ("GridWorldSpec.slip_prob", field("slip_prob", 0, 1, grid, high_open=True)),
    ("GridWorldSpec.gamma", field("gamma", 0, 1, grid, high_open=True)),
    ("build_random_safe_mdp.safe_fraction",
     field("safe_fraction", 0, 1, lambda safe_fraction: build_random_safe_mdp(3, 2, safe_fraction, seed=0),
           low_open=True)),
    ("LearnerConfig.alpha", field("alpha", 0, math.inf, LearnerConfig, high_open=True)),
    ("LearnerConfig.tau", field("tau", 0, 1, LearnerConfig, low_open=True)),
    ("LearnerConfig.gamma", field("gamma", 0, 1, LearnerConfig, high_open=True)),
    ("LearnerConfig.critic_lr", field("critic_lr", 0, 1, LearnerConfig, low_open=True)),
    ("LearnerConfig.actor_lr", field("actor_lr", 0, 1, LearnerConfig, low_open=True)),
    ("soft_update_targets.tau", site("tau", 0, 1, polyak, low_open=True)),
    ("DtsConfig.beta",
     field("beta", 0, math.inf, lambda beta: DtsConfig(**{**DTS_FIELDS, "beta": beta}),
           low_open=True, high_open=True)),
    ("DssConfig.lambda_min", field("lambda_min", 0, 1, lambda lambda_min: dss(lambda_min=lambda_min,
                                                                              lambda_max=1.0))),
    ("DssConfig.lambda_max", field("lambda_max", 0.1, 1, dss)),
    ("DssConfig.k", field("k", 0, math.inf, dss, low_open=True, high_open=True)),
    ("sample_hybrid_batch.lam", site("lam", 0, 1, batch)),
    # SolveTolerances' two checks, reached through `guardedrl solve`: the config
    # parse refuses a non-number before check_range sees it.
    ("solve top-level tol",
     site("top-level key 'tol'", 0, math.inf, lambda tol: solve(tol=tol), low_open=True, high_open=True,
          kind="a number")),
    ("solve top-level gap_tolerance",
     site("top-level key 'gap_tolerance'", 0, math.inf, lambda gap: solve(gap_tolerance=gap), high_open=True,
          kind="a number")),
]
SITE_IDS = [site_id for site_id, _ in SITES]
SITE_ARGS = [row for _, row in SITES]


def interval(low, high, low_open, high_open):
    return f"{'(' if low_open else '['}{low}, {high}{')' if high_open else ']'}"


def refuses(row, value):
    name, low, high, low_open, high_open, call, _ = row
    text = f"{name} must lie in {interval(low, high, low_open, high_open)}, got {value!r}"
    with pytest.raises(ValueError, match=f"^{re.escape(text)}$"):
        call(value)


def outside(row):
    """The values nearest each bound on its outer side: the bound itself when open."""
    _, low, high, low_open, high_open, _, _ = row
    values = [float(low) if low_open else math.nextafter(low, -math.inf)]
    if high < math.inf:
        values.append(float(high) if high_open else math.nextafter(high, math.inf))
    return values


@pytest.mark.parametrize("row", SITE_ARGS, ids=SITE_IDS)
def test_site_refuses_nan(row):
    refuses(row, math.nan)


@pytest.mark.parametrize("row", SITE_ARGS, ids=SITE_IDS)
@pytest.mark.parametrize("value", [math.inf, -math.inf], ids=repr)
def test_site_refuses_an_infinity_outside_its_interval(row, value):
    _, low, high, _, high_open, _, _ = row
    assert value < low or value > high or (value == high and high_open)
    refuses(row, value)


@pytest.mark.parametrize("row", SITE_ARGS, ids=SITE_IDS)
def test_site_refuses_a_value_just_past_each_bound(row):
    for value in outside(row):
        refuses(row, value)


@pytest.mark.parametrize("row", SITE_ARGS, ids=SITE_IDS)
def test_site_accepts_each_closed_bound(row):
    _, low, high, low_open, high_open, call, _ = row
    for bound, is_open in ((low, low_open), (high, high_open)):
        if not is_open:
            call(float(bound))


@pytest.mark.parametrize("row", SITE_ARGS, ids=SITE_IDS)
@pytest.mark.parametrize("value", [True, "0.5", None], ids=repr)
def test_site_refuses_a_non_real(row, value):
    name, _, _, _, _, call, kind = row
    with pytest.raises(ValueError, match=f"^{re.escape(f'{name} must be {kind}, got {value!r}')}$"):
        call(value)


class TestCheckRange:
    @pytest.mark.parametrize("low_open, high_open, text", [
        (False, False, "[0, 1]"), (True, False, "(0, 1]"), (False, True, "[0, 1)"), (True, True, "(0, 1)"),
    ])
    def test_names_the_interval_and_the_value(self, low_open, high_open, text):
        with pytest.raises(ValueError, match=f"^{re.escape(f'x must lie in {text}, got 1.5')}$"):
            check_range("x", 1.5, 0, 1, low_open=low_open, high_open=high_open)

    @pytest.mark.parametrize("value", [0, 0.5, 1, np.float64(0.25), np.float32(0.5), np.int64(1)], ids=repr)
    def test_accepts_values_inside_a_closed_interval(self, value):
        check_range("x", value, 0, 1)

    @pytest.mark.parametrize("value", [True, False, np.bool_(True), "0.5", None, np.array([0.5]), np.array(0.5)],
                             ids=repr)
    def test_refuses_a_bool_or_a_non_real_before_comparing(self, value):
        with pytest.raises(ValueError, match=f"^{re.escape(f'x must be a real number, got {value!r}')}$"):
            check_range("x", value, 0, 1)

    @pytest.mark.parametrize("value", [0, 1, math.nan], ids=repr)
    def test_open_ends_refuse_their_bounds_and_nan(self, value):
        with pytest.raises(ValueError, match=f"^{re.escape(f'x must lie in (0, 1), got {value!r}')}$"):
            check_range("x", value, 0, 1, low_open=True, high_open=True)

    def test_shows_a_numpy_value_as_its_repr(self):
        with pytest.raises(ValueError, match=r"^x must lie in \[0, inf\), got np\.float64\(-0\.5\)$"):
            check_range("x", np.float64(-0.5), 0, math.inf, high_open=True)
