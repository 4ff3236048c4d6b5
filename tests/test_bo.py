"""Tuner behavior: convergence on cheap analytic objectives, failure
penalties, determinism, and the Pareto filter."""

from __future__ import annotations

import numpy as np
import pytest

from cfplan.bo import PENALTY, BoResult, bo_minimize, pareto_non_dominated
from cfplan.fields import OverlapError
from cfplan.params import BoundsBox
from cfplan.scene import PlacementFailure

UNIT_2D = BoundsBox(low=[-1.0, -1.0], high=[1.0, 1.0])


def quadratic_1d(x):
    return float((x[0] - 0.3) ** 2)


class TestConvergence:
    def test_quadratic_1d(self):
        bounds = BoundsBox(low=[-2.0], high=[2.0])
        result = bo_minimize(quadratic_1d, bounds, n_init=4, n_iter=20, seed=0)
        assert abs(result.best_p[0] - 0.3) <= 0.05

    def test_quadratic_2d_multiple_seeds(self):
        def f(x):
            return float((x[0] - 0.2) ** 2 + (x[1] + 0.4) ** 2)

        wins = 0
        for seed in range(5):
            result = bo_minimize(f, UNIT_2D, n_init=6, n_iter=24, seed=seed)
            wins += result.best_y <= 0.01
        assert wins >= 4

    def test_beats_random_init(self):
        def f(x):
            return float(np.sum((x - 0.37) ** 2))

        bounds = BoundsBox(low=np.zeros(3), high=np.ones(3))
        guided = bo_minimize(f, bounds, n_init=6, n_iter=20, seed=1)
        init_only = bo_minimize(f, bounds, n_init=6, n_iter=0, seed=1)
        assert guided.best_y <= init_only.best_y


class TestBookkeeping:
    def test_observation_count(self):
        result = bo_minimize(quadratic_1d, BoundsBox(low=[-1.0], high=[1.0]), n_init=3, n_iter=7, seed=0)
        assert len(result.observations) == 10

    def test_init_only(self):
        result = bo_minimize(quadratic_1d, BoundsBox(low=[-1.0], high=[1.0]), n_init=5, n_iter=0, seed=2)
        assert len(result.observations) == 5
        ys = [y for _, y in result.observations]
        assert result.best_y == min(ys)

    def test_best_is_argmin(self):
        result = bo_minimize(quadratic_1d, BoundsBox(low=[-1.0], high=[1.0]), n_init=4, n_iter=8, seed=3)
        ys = [y for _, y in result.observations]
        assert result.best_y == min(ys)
        assert quadratic_1d(result.best_p) == result.best_y

    def test_points_inside_bounds(self):
        bounds = BoundsBox(low=[0.5, -0.5], high=[0.7, 0.5])
        result = bo_minimize(lambda x: float(x @ x), bounds, n_init=4, n_iter=10, seed=0)
        for p, _ in result.observations:
            assert bounds.contains(p, atol=1e-9)

    def test_deterministic(self):
        a = bo_minimize(quadratic_1d, BoundsBox(low=[-1.0], high=[1.0]), n_init=4, n_iter=10, seed=7)
        b = bo_minimize(quadratic_1d, BoundsBox(low=[-1.0], high=[1.0]), n_init=4, n_iter=10, seed=7)
        assert a.best_y == b.best_y
        assert all(
            np.array_equal(pa, pb) and ya == yb
            for (pa, ya), (pb, yb) in zip(a.observations, b.observations)
        )

    def test_seed_changes_draws(self):
        a = bo_minimize(quadratic_1d, BoundsBox(low=[-1.0], high=[1.0]), n_init=4, n_iter=0, seed=0)
        b = bo_minimize(quadratic_1d, BoundsBox(low=[-1.0], high=[1.0]), n_init=4, n_iter=0, seed=1)
        assert not np.array_equal(
            np.stack([p for p, _ in a.observations]),
            np.stack([p for p, _ in b.observations]),
        )

    def test_result_type(self):
        result = bo_minimize(quadratic_1d, BoundsBox(low=[-1.0], high=[1.0]), n_init=2, n_iter=0)
        assert isinstance(result, BoResult)


class TestFailures:
    def test_exception_becomes_penalty(self):
        def sometimes(x):
            if x[0] > 0.0:
                raise RuntimeError("unstable rollout")
            return float(x[0] ** 2)

        result = bo_minimize(sometimes, BoundsBox(low=[-1.0], high=[1.0]), n_init=6, n_iter=6, seed=0)
        ys = [y for _, y in result.observations]
        assert PENALTY in ys
        assert result.best_y < PENALTY

    def test_nonfinite_becomes_penalty(self):
        def leaky(x):
            return float("nan") if x[0] > 0.0 else float(x[0] ** 2)

        result = bo_minimize(leaky, BoundsBox(low=[-1.0], high=[1.0]), n_init=6, n_iter=4, seed=0)
        assert all(np.isfinite(y) for _, y in result.observations)

    def test_all_failures_still_returns(self):
        def broken(x):
            raise RuntimeError("never works")

        result = bo_minimize(broken, BoundsBox(low=[-1.0], high=[1.0]), n_init=3, n_iter=3, seed=0)
        assert result.best_y == PENALTY
        assert len(result.observations) == 6

    @pytest.mark.parametrize(
        "error",
        [ValueError, np.linalg.LinAlgError, OverlapError, ZeroDivisionError, FloatingPointError, PlacementFailure],
    )
    def test_failed_evaluations_become_penalties(self, error):
        def failing(x):
            if x[0] > 0.0:
                raise error("failed evaluation")
            return float(x[0] ** 2)

        result = bo_minimize(failing, BoundsBox(low=[-1.0], high=[1.0]), n_init=4, n_iter=2, seed=0)
        assert PENALTY in [y for _, y in result.observations]

    @pytest.mark.parametrize("error", [TypeError, NameError, AttributeError, ImportError, KeyError])
    def test_faults_of_the_program_propagate(self, error):
        # a fault such as a name missing behind a deferred import must not
        # become a penalty; it stops the run at the evaluation that hits it
        calls = []

        def faulty(x):
            calls.append(x)
            if len(calls) == 5:  # the first guided evaluation
                raise error("fault")
            return float(x[0] ** 2)

        with pytest.raises(error, match="fault"):
            bo_minimize(faulty, BoundsBox(low=[-1.0], high=[1.0]), n_init=4, n_iter=3, seed=0)
        assert len(calls) == 5


class TestArgumentValidation:
    def test_n_init_too_small(self):
        with pytest.raises(ValueError):
            bo_minimize(quadratic_1d, BoundsBox(low=[-1.0], high=[1.0]), n_init=1, n_iter=5)

    def test_negative_n_iter(self):
        with pytest.raises(ValueError):
            bo_minimize(quadratic_1d, BoundsBox(low=[-1.0], high=[1.0]), n_init=4, n_iter=-1)


def brute_pareto(objs: np.ndarray) -> np.ndarray:
    n = objs.shape[0]
    keep = np.ones(n, dtype=bool)
    for i in range(n):
        for j in range(n):
            if i != j and np.all(objs[j] <= objs[i]) and np.any(objs[j] < objs[i]):
                keep[i] = False
                break
    return keep


class TestPareto:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        objs = rng.normal(size=(rng.integers(2, 120), 2))
        assert np.array_equal(pareto_non_dominated(objs), brute_pareto(objs))

    def test_duplicates_all_kept(self):
        objs = np.array([[1.0, 2.0], [1.0, 2.0], [0.5, 3.0]])
        assert np.array_equal(pareto_non_dominated(objs), [True, True, True])

    def test_single_row(self):
        assert np.array_equal(pareto_non_dominated(np.array([[1.0, 2.0]])), [True])

    def test_chunking_invisible(self):
        # 600 mutually non-dominated points on x + y = 1 survive the champion
        # prefilter, so the quadratic pass runs two blocks of PARETO_CHUNK = 512;
        # each shifted copy is dominated only by its origin, often in the other block
        rng = np.random.default_rng(42)
        x = rng.uniform(0.0, 1.0, 600)
        front = np.column_stack([x, 1.0 - x])
        dominated = front[:40] + rng.uniform(1e-7, 1e-6, (40, 2))
        objs = rng.permutation(np.vstack([front, dominated]))
        le = (objs[None, :, :] <= objs[:, None, :]).all(axis=2)
        lt = (objs[None, :, :] < objs[:, None, :]).any(axis=2)
        assert np.array_equal(pareto_non_dominated(objs), ~(le & lt).any(axis=1))

    def test_three_objectives(self):
        rng = np.random.default_rng(5)
        objs = rng.normal(size=(80, 3))
        assert np.array_equal(pareto_non_dominated(objs), brute_pareto(objs))
