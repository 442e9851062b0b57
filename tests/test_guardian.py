"""Projection and safe-renormalization contracts."""

import numpy as np
import pytest

from guardedrl.envs import GRID_DISPLACEMENTS, NOOP, UP
from guardedrl.guardian import ProjectionResult, project_action, renormalize_policy_safe
from guardedrl.mdp import SafetySpec


def grid_spec(safe_row):
    """Single-state spec over the five grid actions."""
    return SafetySpec(safe=[safe_row], action_embedding=GRID_DISPLACEMENTS.copy())


class TestProjectAction:
    def test_safe_proposal_is_identity(self):
        spec = grid_spec([True] * 5)
        result = project_action(0, 2, spec)
        assert result == ProjectionResult(exec_action=2, was_modified=False, distance=0.0)

    def test_up_unsafe_projects_to_noop(self):
        # Squared distances from UP (0,1): DOWN 4, LEFT 2, RIGHT 2, NOOP 1.
        spec = grid_spec([False, True, True, True, True])
        result = project_action(0, UP, spec)
        assert result.exec_action == NOOP
        assert result.was_modified
        assert result.distance == 1.0

    def test_equidistant_tie_breaks_to_lowest_id(self):
        # From UP, LEFT and RIGHT are both at squared distance 2.
        spec = grid_spec([False, False, True, True, False])
        result = project_action(0, UP, spec)
        assert result.exec_action == 2

    def test_idempotent_and_always_safe(self):
        rng = np.random.default_rng(0)
        for trial in range(200):
            num_actions = int(rng.integers(2, 7))
            safe = rng.random(num_actions) < 0.5
            if not safe.any():
                safe[int(rng.integers(num_actions))] = True
            spec = SafetySpec(safe=[safe], action_embedding=rng.normal(size=(num_actions, 3)))
            a_raw = int(rng.integers(num_actions))
            first = project_action(0, a_raw, spec)
            assert spec.safe[0, first.exec_action]
            second = project_action(0, first.exec_action, spec)
            assert second.exec_action == first.exec_action
            assert not second.was_modified
            assert second.distance == 0.0

    def test_out_of_range_action_rejected(self):
        spec = grid_spec([True] * 5)
        with pytest.raises(ValueError):
            project_action(0, 9, spec)


def renormalize_row(dist, safe_row):
    """One-row call of the batched renormalization: (probs row, starved flag)."""
    probs, starved = renormalize_policy_safe(np.array([dist], dtype=np.float64),
                                             np.array([safe_row], dtype=bool))
    assert probs.shape == (1, len(dist)) and starved.shape == (1,)
    return probs[0], bool(starved[0])


class TestRenormalizePolicySafe:
    def test_all_safe_is_identity(self):
        dist = np.array([0.1, 0.2, 0.3, 0.25, 0.15])
        probs, starved = renormalize_row(dist, [True] * 5)
        assert not starved
        np.testing.assert_allclose(probs, dist)

    def test_unsafe_mass_redistributed(self):
        probs, starved = renormalize_row([0.5, 0.3, 0.2], [False, True, True])
        assert not starved
        np.testing.assert_allclose(probs, [0.0, 0.6, 0.4])

    def test_starvation_falls_back_to_uniform(self):
        probs, starved = renormalize_row([1.0, 0.0, 0.0], [False, True, True])
        assert starved
        np.testing.assert_allclose(probs, [0.0, 0.5, 0.5])

    def test_identity_on_compliant_support(self):
        # Zero mass on the unsafe action: renormalization changes nothing.
        dist = np.array([0.0, 0.25, 0.5, 0.25])
        probs, starved = renormalize_row(dist, [False, True, True, True])
        assert not starved
        np.testing.assert_allclose(probs, dist, atol=1e-12)

    def test_contract_on_random_instances(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            num_actions = int(rng.integers(2, 8))
            safe = rng.random(num_actions) < 0.5
            if not safe.any():
                safe[int(rng.integers(num_actions))] = True
            dist = rng.dirichlet(np.ones(num_actions))
            probs, _ = renormalize_row(dist, safe)
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)
            assert np.all(probs[~safe] == 0.0)

    def test_batch_rows_match_one_row_calls(self):
        # Starved and unstarved rows mixed in one table: each row comes out
        # exactly as it does alone, and only the starved rows are flagged.
        rng = np.random.default_rng(2)
        safe = rng.random((40, 5)) < 0.5
        safe[~safe.any(axis=1), 0] = True
        dist = rng.dirichlet(np.ones(5), size=40)
        for i in range(0, 40, 3):
            if not safe[i].all():
                dist[i] = np.where(safe[i], 0.0, 1.0) / np.count_nonzero(~safe[i])
        probs, starved = renormalize_policy_safe(dist, safe)
        assert 0 < starved.sum() < 40
        for i in range(40):
            row, row_starved = renormalize_row(dist[i], safe[i])
            np.testing.assert_array_equal(probs[i], row)
            assert starved[i] == row_starved

