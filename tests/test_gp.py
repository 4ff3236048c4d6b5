"""Surrogate model: exact agreement with a dense direct solve, degenerate-data
handling, and normalization behavior."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from cfplan.gp import (
    DegenerateData,
    gp_fit,
    gp_predict_batch,
    matern52,
)
from cfplan.params import BoundsBox


def dense_predict(model, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Direct solve against the full covariance with numpy only, using the
    model's fitted hyperparameters."""
    qn = (np.asarray(query, dtype=float) - model.x_lo) / model.x_width
    k_train = model.signal_var * matern52(cdist(model.xn, model.xn), model.length_scale)
    k_train[np.diag_indices_from(k_train)] += model.noise_var
    k_cross = model.signal_var * matern52(cdist(qn, model.xn), model.length_scale)
    k_inv = np.linalg.inv(k_train)
    mean = model.y_mean + model.y_scale * (k_cross @ k_inv @ model.y)
    var = model.signal_var - np.einsum("ij,jk,ik->i", k_cross, k_inv, k_cross)
    std = model.y_scale * np.sqrt(np.maximum(var, 0.0))
    return mean, std


def toy_observations(n=14, d=2, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1.0, 2.0, size=(n, d))
    y = np.sin(x[:, 0] * 2.0) + 0.3 * (x[:, 1] ** 2 if d > 1 else 0.0)
    return [(x[i], float(y[i])) for i in range(n)]


class TestKernel:
    def test_unit_at_zero(self):
        assert matern52(np.zeros((2, 2)), 0.7) == pytest.approx(np.ones((2, 2)))

    def test_monotone_decay(self):
        r = np.linspace(0.0, 4.0, 50)
        k = matern52(r, 1.0)
        assert np.all(np.diff(k) < 0.0)
        assert k[-1] < 0.1

    def test_length_scale_stretches(self):
        assert matern52(np.array(2.0), 2.0) == pytest.approx(
            float(matern52(np.array(1.0), 1.0))
        )


class TestDenseAgreement:
    @pytest.mark.parametrize("seed", range(4))
    def test_mean_and_std(self, seed):
        model = gp_fit(toy_observations(seed=seed))
        rng = np.random.default_rng(100 + seed)
        query = rng.uniform(-1.0, 2.0, size=(25, 2))
        mean, std = gp_predict_batch(model, query)
        mean_ref, std_ref = dense_predict(model, query)
        scale = float(np.abs(mean_ref).max())
        assert np.all(np.abs(mean - mean_ref) <= 1e-8 * max(scale, 1.0))
        assert np.all(np.abs(std - std_ref) <= 1e-8 * max(float(std_ref.max()), 1.0))


class TestFitBehavior:
    def test_interpolates_smooth_data(self):
        obs = toy_observations(n=20, d=1, seed=2)
        model = gp_fit(obs)
        x = np.stack([p for p, _ in obs])
        y = np.array([v for _, v in obs])
        mean, _ = gp_predict_batch(model, x)
        assert float(np.abs(mean - y).max()) < 0.05

    def test_prediction_beats_prior_mean(self):
        obs = toy_observations(n=20, d=2, seed=3)
        model = gp_fit(obs)
        x = np.stack([p for p, _ in obs])
        y = np.array([v for _, v in obs])
        mean, _ = gp_predict_batch(model, x)
        assert float(np.abs(mean - y).mean()) < float(np.abs(y.mean() - y).mean())

    def test_std_nonnegative_and_shrinks_at_data(self):
        obs = toy_observations(n=16, d=2, seed=1)
        model = gp_fit(obs)
        x = np.stack([p for p, _ in obs])
        _, std_at_data = gp_predict_batch(model, x)
        _, std_far = gp_predict_batch(model, np.array([[50.0, 50.0]]))
        assert np.all(std_at_data >= 0.0)
        assert float(std_at_data.mean()) < float(std_far[0])

    def test_duplicate_inputs_survive(self):
        x = np.array([[0.0], [0.0], [1.0], [1.0], [2.0]])
        y = [0.0, 0.1, 1.0, 0.9, 4.0]
        model = gp_fit(list(zip(x, y)))
        mean, std = gp_predict_batch(model, x)
        assert np.all(np.isfinite(mean)) and np.all(np.isfinite(std))

    def test_incumbent(self):
        obs = [(np.array([0.0]), 3.0), (np.array([1.0]), -2.0), (np.array([2.0]), 5.0)]
        model = gp_fit(obs)
        x_best, y_best = model.incumbent
        assert y_best == -2.0
        assert np.array_equal(x_best, [1.0])


class TestConstantData:
    def test_flat_targets(self):
        obs = [(np.array([float(i), 0.0]), 7.5) for i in range(6)]
        model = gp_fit(obs)
        assert model.constant
        mean, std = gp_predict_batch(model, np.array([[0.0, 0.0], [3.3, -1.0]]))
        assert np.allclose(mean, 7.5, atol=1e-9)
        assert np.all(std >= 0.0)

    def test_single_observation(self):
        model = gp_fit([(np.array([0.5, 0.5]), 2.0)])
        mean, _ = gp_predict_batch(model, np.array([0.9, 0.1]))  # one 1-D point
        assert mean.shape == (1,)
        assert mean[0] == pytest.approx(2.0, abs=1e-9)


class TestDegenerate:
    def test_empty_raises(self):
        with pytest.raises(DegenerateData):
            gp_fit([])

    def test_nan_target_raises(self):
        with pytest.raises(DegenerateData):
            gp_fit([(np.zeros(2), np.nan), (np.ones(2), 1.0)])

    def test_inf_input_raises(self):
        with pytest.raises(DegenerateData):
            gp_fit([(np.array([np.inf, 0.0]), 1.0), (np.ones(2), 1.0)])


class TestNormalization:
    def test_explicit_bounds(self):
        obs = toy_observations(n=15, d=2, seed=4)
        bounds = BoundsBox(low=[-1.0, -1.0], high=[2.0, 2.0])
        model = gp_fit(obs, bounds=bounds)
        assert np.array_equal(model.x_lo, bounds.low)
        x = np.stack([p for p, _ in obs])
        y = np.array([v for _, v in obs])
        mean, _ = gp_predict_batch(model, x)
        assert float(np.abs(mean - y).max()) < 0.2

    def test_bounds_dim_mismatch(self):
        with pytest.raises(ValueError):
            gp_fit(toy_observations(d=2), bounds=BoundsBox(low=[0.0], high=[1.0]))

    def test_output_shift_and_scale_equivariance(self):
        obs = toy_observations(n=15, d=2, seed=5)
        shifted = [(p, 3.0 * v + 10.0) for p, v in obs]
        q = np.random.default_rng(9).uniform(-1, 2, size=(10, 2))
        mean_a, std_a = gp_predict_batch(gp_fit(obs), q)
        mean_b, std_b = gp_predict_batch(gp_fit(shifted), q)
        assert np.allclose(mean_b, 3.0 * mean_a + 10.0, atol=1e-7)
        assert np.allclose(std_b, 3.0 * std_a, atol=1e-7)
