"""Parameter vector layout, validation, and bounds boxes."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cfplan.fields import GainSet
from cfplan.params import (
    GAIN_NAMES,
    BoundsBox,
    agent_count,
    agent_gains,
    default_bounds,
    detection_radius,
    join_params,
    param_dim,
    split_params,
    validate_params,
)
from tests.conftest import make_params


class TestLayout:
    def test_dim(self):
        assert param_dim(7) == 36
        assert param_dim(1) == 6

    @pytest.mark.parametrize("n", [1, 2, 7, 40])
    def test_agent_count_inverts_param_dim(self, n):
        assert agent_count(param_dim(n)) == n

    def test_block_by_gain_order(self):
        p = np.arange(param_dim(3), dtype=float)
        blocks = split_params(p, 3)
        assert np.array_equal(blocks["k_p"], [0, 1, 2])
        assert np.array_equal(blocks["k_v"], [3, 4, 5])
        assert np.array_equal(blocks["k_cf"], [6, 7, 8])
        assert np.array_equal(blocks["k_manip"], [9, 10, 11])
        assert np.array_equal(blocks["k_r"], [12, 13, 14])
        assert np.array_equal(blocks["r_d"], [15])

    def test_agent_gains_picks_column(self):
        p = np.arange(param_dim(3), dtype=float)
        g = agent_gains(p, 1, 3)
        assert g == GainSet(k_p=1.0, k_v=4.0, k_cf=7.0, k_manip=10.0, k_r=13.0)

    def test_agent_index_bounds(self):
        p = np.zeros(param_dim(2))
        with pytest.raises(ValueError):
            agent_gains(p, 2, 2)
        with pytest.raises(ValueError):
            agent_gains(p, -1, 2)

    def test_wrong_length_raises(self):
        with pytest.raises(ValueError):
            split_params(np.zeros(10), 3)

    @given(seed=st.integers(0, 1000))
    def test_join_split_roundtrip(self, seed):
        rng = np.random.default_rng(seed)
        gains = [
            GainSet(*(float(v) for v in rng.uniform(0, 5, size=5))) for _ in range(4)
        ]
        r_d = float(rng.uniform(0.05, 1.0))
        p = join_params(gains, r_d)
        assert detection_radius(p) == r_d
        for i, g in enumerate(gains):
            assert agent_gains(p, i, 4) == g

    def test_make_params_helper_layout(self):
        p = make_params(n_agents=2, k_p=1, k_v=2, k_cf=3, k_manip=4, k_r=5, r_d=0.5)
        assert np.array_equal(p, [1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 0.5])


class TestValidate:
    def test_accepts_all_zero(self):
        p = validate_params(np.zeros(param_dim(7)), 7)
        assert p.shape == (36,)

    def test_rejects_negative_gain(self):
        p = np.zeros(param_dim(2))
        p[3] = -0.1
        with pytest.raises(ValueError):
            validate_params(p, 2)

    def test_rejects_negative_radius(self):
        p = np.zeros(param_dim(2))
        p[-1] = -0.01
        with pytest.raises(ValueError):
            validate_params(p, 2)

    def test_rejects_nonfinite(self):
        p = np.zeros(param_dim(2))
        p[0] = np.nan
        with pytest.raises(ValueError):
            validate_params(p, 2)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            validate_params(np.zeros(35), 7)


class TestBounds:
    def test_default_box(self):
        b = default_bounds()
        assert b.dim == 36
        assert np.all(b.low[:-1] == 0.0)
        assert np.all(b.high[:-1] == 200.0)
        assert b.low[-1] == 0.05
        assert b.high[-1] == 1.0

    def test_contains_and_clip(self):
        b = BoundsBox(low=np.zeros(3), high=np.ones(3))
        assert b.contains([0.5, 0.0, 1.0])
        assert not b.contains([1.5, 0.0, 0.0])
        assert np.array_equal(b.clip([2.0, -1.0, 0.5]), [1.0, 0.0, 0.5])

    def test_contains_tolerance(self):
        b = BoundsBox(low=np.zeros(2), high=np.ones(2))
        assert not b.contains([1.0 + 1e-9, 0.0])
        assert b.contains([1.0 + 1e-9, 0.0], atol=1e-8)

    def test_widths(self):
        b = BoundsBox(low=[0.0, 1.0], high=[2.0, 5.0])
        assert np.array_equal(b.widths, [2.0, 4.0])

    def test_rejects_crossed_bounds(self):
        with pytest.raises(ValueError):
            BoundsBox(low=[0.0, 1.0], high=[1.0, 1.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_bounds(self, bad):
        # NaN compares False with everything, so lo >= hi alone lets it through
        with pytest.raises(ValueError, match="must be finite"):
            BoundsBox(low=[0.0, 1.0], high=[1.0, bad])
        with pytest.raises(ValueError, match="must be finite"):
            BoundsBox(low=[bad, 1.0], high=[1.0, 2.0])

    def test_gain_names_cover_gainset(self):
        g = GainSet(k_p=1, k_v=2, k_cf=3, k_manip=4, k_r=5)
        for name in GAIN_NAMES:
            assert hasattr(g, name)
