"""Run configuration: defaults, JSON merging, and loud rejection of typos."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from cfplan.config import (
    RunConfig,
    default_run_config,
    load_run_config,
    run_config_from_dict,
)
from cfplan.scene import Cuboid, Cylinder, SphereShape


class TestDefaults:
    def test_default_sections(self):
        cfg = default_run_config()
        assert cfg.planner.n_agents == 7
        assert cfg.agent_weights.goal_distance == 5.0
        assert cfg.trajectory_weights.goal_deviation == 10.0
        assert cfg.bounds.dim == 36
        assert cfg.n_init == 8
        assert cfg.n_iter == 48
        assert cfg.knn_k == 3

    def test_empty_dict_equals_defaults(self):
        cfg = run_config_from_dict({})
        ref = default_run_config()
        assert cfg.planner == ref.planner
        assert cfg.agent_weights == ref.agent_weights
        assert np.array_equal(cfg.bounds.low, ref.bounds.low)

    def test_none_path_gives_defaults(self):
        cfg = load_run_config(None)
        assert isinstance(cfg, RunConfig)
        assert cfg.n_iter == 48


class TestMerging:
    def test_partial_planner_override(self):
        cfg = run_config_from_dict({"planner": {"horizon": 25, "dt": 0.02}})
        assert cfg.planner.horizon == 25
        assert cfg.planner.dt == 0.02
        assert cfg.planner.replan_every == 5  # untouched default

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "1e999"])
    def test_non_finite_jacobian_rejected(self, tmp_path, literal):
        path = tmp_path / "run.json"
        rows = [[literal, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        path.write_text(json.dumps({"planner": {"jacobian": rows}}).replace(f'"{literal}"', literal))
        with pytest.raises(ValueError, match=f"{path}: jacobian must hold only finite numbers"):
            load_run_config(path)

    @pytest.mark.parametrize(
        "rows",
        [[["1.5", True, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, None, 0], [0, 0, 1]], "eye"],
    )
    def test_non_number_jacobian_rejected(self, rows):
        # strings and bools would load as numbers through np.asarray
        with pytest.raises(ValueError, match="^jacobian must hold only numbers"):
            run_config_from_dict({"planner": {"jacobian": rows}})

    def test_jacobian_list_converted(self):
        jac = [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]
        cfg = run_config_from_dict({"planner": {"jacobian": jac}})
        assert cfg.planner.jacobian.shape == (3, 2)

    def test_tuner_budget(self):
        cfg = run_config_from_dict({"tuner": {"n_init": 4, "n_iter": 10}})
        assert cfg.n_init == 4
        assert cfg.n_iter == 10

    def test_weights_override(self):
        cfg = run_config_from_dict({"trajectory_weights": {"clearance": 0.1}})
        assert cfg.trajectory_weights.clearance == 0.1
        assert cfg.trajectory_weights.path_length == 0.3

    def test_knn_k(self):
        assert run_config_from_dict({"knn_k": 5}).knn_k == 5

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize("name", ["dt", "mass", "v_max", "goal_tolerance"])
    def test_non_finite_planner_reals_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a finite real number"):
            run_config_from_dict({"planner": {name: value}})

    @pytest.mark.parametrize("name", ["dt", "mass", "v_max", "goal_tolerance"])
    def test_non_positive_planner_reals_name_the_field(self, name):
        with pytest.raises(ValueError, match=f"^{name} must be positive"):
            run_config_from_dict({"planner": {name: 0.0}})


class TestBoundsSection:
    def test_shorthand(self):
        cfg = run_config_from_dict(
            {"bounds": {"gain_high": 50.0, "r_d_range": [0.1, 0.5]}}
        )
        assert cfg.bounds.high[0] == 50.0
        assert cfg.bounds.low[-1] == 0.1
        assert cfg.bounds.high[-1] == 0.5

    def test_explicit_arrays(self):
        low = [0.0] * 36
        high = [10.0] * 35 + [0.9]
        cfg = run_config_from_dict({"bounds": {"low": low, "high": high}})
        assert cfg.bounds.high[-1] == 0.9

    def test_shorthand_tracks_n_agents(self):
        cfg = run_config_from_dict({"planner": {"n_agents": 3}})
        assert cfg.bounds.dim == 16

    def test_bounds_for_other_agent_count_rejected(self):
        bounds = {"low": [0.0] * 36, "high": [1.0] * 36}
        with pytest.raises(ValueError, match="bounds hold 36 entries, but 5 agents need 26"):
            run_config_from_dict({"planner": {"n_agents": 5}, "bounds": bounds})

    def test_mixed_keys_rejected(self):
        with pytest.raises(ValueError):
            run_config_from_dict({"bounds": {"low": [0.0], "gain_high": 5.0}})

    def test_integer_shorthand(self):
        cfg = run_config_from_dict({"bounds": {"gain_high": 50, "r_d_range": [0, 1]}})
        assert cfg.bounds.high[0] == 50.0
        assert (cfg.bounds.low[-1], cfg.bounds.high[-1]) == (0.0, 1.0)

    @pytest.mark.parametrize(
        "bounds",
        [
            {"gain_high": "50"},
            {"gain_high": True},
            {"r_d_range": [0.1, None]},
            {"low": [0.0] * 36, "high": [10.0] * 35 + ["0.9"]},
        ],
    )
    def test_non_numbers_rejected(self, bounds):
        with pytest.raises(ValueError, match="bounds must hold only numbers"):
            run_config_from_dict({"bounds": bounds})

    @pytest.mark.parametrize(
        "text",
        [
            '{"gain_high": NaN}',
            '{"r_d_range": [0.05, Infinity]}',
            '{"r_d_range": [-Infinity, 1.0]}',
            '{"gain_high": 1e999}',
        ],
    )
    def test_non_finite_numbers_rejected(self, tmp_path, text):
        # json reads these as floats, and NaN passes a lo >= hi check
        path = tmp_path / "run.json"
        path.write_text(f'{{"bounds": {text}}}')
        with pytest.raises(ValueError, match="low and high must be finite"):
            load_run_config(path)


    @pytest.mark.parametrize(
        "bounds", [{"r_d_range": [-0.5, 1.0]}, {"low": [-1.0] + [0.0] * 35, "high": [1.0] * 36}]
    )
    def test_negative_low_rejected(self, bounds):
        # validate_params refuses every draw with a negative entry
        with pytest.raises(ValueError, match="^bounds must not reach below 0"):
            run_config_from_dict({"bounds": bounds})


class TestRandomizerSection:
    def test_workspace_and_counts(self):
        cfg = run_config_from_dict(
            {
                "randomizer": {
                    "workspace": {"min": [-1, -1, 0], "max": [1, 1, 2]},
                    "min_count": 2,
                    "max_count": 4,
                }
            }
        )
        assert np.array_equal(cfg.randomizer.workspace.max, [1, 1, 2])
        assert cfg.randomizer.min_count == 2

    def test_fixed_shapes_tagged_by_kind(self):
        cfg = run_config_from_dict(
            {
                "randomizer": {
                    "fixed_shapes": [
                        {"kind": "cuboid", "center": [0, 0, 0.5], "half_extents": [0.1, 0.1, 0.1]},
                        {"kind": "sphere", "center": [0.3, 0, 0.5], "radius": 0.05},
                        {
                            "kind": "cylinder",
                            "center": [0, 0.3, 0.5],
                            "axis": [0, 0, 1],
                            "radius": 0.04,
                            "half_length": 0.1,
                        },
                    ]
                }
            }
        )
        kinds = tuple(type(s) for s in cfg.randomizer.fixed_shapes)
        assert kinds == (Cuboid, SphereShape, Cylinder)

    def test_unknown_shape_kind(self):
        with pytest.raises(ValueError, match="shape kind"):
            run_config_from_dict(
                {"randomizer": {"fixed_shapes": [{"kind": "torus", "center": [0, 0, 0]}]}}
            )

    def test_tuple_ranges_coerced(self):
        cfg = run_config_from_dict(
            {"randomizer": {"sphere_radius_range": [0.01, 0.02]}}
        )
        assert cfg.randomizer.sphere_radius_range == (0.01, 0.02)


class TestRejection:
    def test_unknown_top_key(self):
        with pytest.raises(ValueError, match="unknown run config keys"):
            run_config_from_dict({"plannner": {}})

    def test_unknown_planner_key(self):
        with pytest.raises(ValueError, match="planner"):
            run_config_from_dict({"planner": {"horizzon": 10}})

    def test_unknown_tuner_key(self):
        with pytest.raises(ValueError, match="tuner"):
            run_config_from_dict({"tuner": {"iters": 5}})

    @pytest.mark.parametrize(
        "data", [{"knn_k": 0}, {"tuner": {"n_init": 1}}, {"tuner": {"n_iter": -3}}]
    )
    def test_out_of_range_run_integers(self, tmp_path, data):
        # the limits knn_predict and bo_minimize enforce, checked at load
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="n_init >= 2, tuner.n_iter >= 0 and knn_k >= 1"):
            load_run_config(path)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("sphere_radius_range", [0.1, -0.2]),
            ("cuboid_half_range", [0.1, -0.2]),
            ("cylinder_radius_range", [0.07, 0.03]),
            ("cylinder_half_length_range", [0.0, 0.1]),
            ("voxel_radius", 0),
            ("voxel_radius", -0.05),
            ("max_rejections", -5),
            ("min_clearance", -1.0),
        ],
    )
    def test_randomizer_faults_fail_at_load(self, key, value):
        # each loaded before, and failed later (a reversed range or a zero
        # voxel radius at the first scene) or ran with a meaningless setting
        with pytest.raises(ValueError, match=key):
            run_config_from_dict({"randomizer": {key: value}})

    @pytest.mark.parametrize(
        "key, value", [("knn_k", True), ("knn_k", 2.5), ("n_init", 3.0), ("n_iter", "0")]
    )
    def test_run_config_checks_its_integers(self, key, value):
        # built directly, without the JSON loader
        with pytest.raises(ValueError, match=f"{key} must be an integer"):
            dataclasses.replace(default_run_config(), **{key: value})

    def test_run_integer_limits_are_legal(self):
        cfg = run_config_from_dict({"knn_k": 1, "tuner": {"n_init": 2, "n_iter": 0}})
        assert (cfg.knn_k, cfg.n_init, cfg.n_iter) == (1, 2, 0)

    def test_invalid_merged_values_propagate(self):
        with pytest.raises(ValueError):
            run_config_from_dict({"planner": {"horizon": 0}})


class TestLoadFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"planner": {"max_steps": 500}, "knn_k": 7}))
        cfg = load_run_config(path)
        assert cfg.planner.max_steps == 500
        assert cfg.knn_k == 7

    def test_rejects_non_object_root(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(ValueError, match="JSON object"):
            load_run_config(path)

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"planner": {"dt": -1}}, "dt must be positive"),
            ({"planner": {"dt": 10**400}}, "dt must be a finite real number"),
            ({"planner": {"jacobian": [[1, 0], [0, 1], [0, 10**400]]}}, "jacobian does not convert"),
            ({"bounds": {"gain_high": 10**400}}, "bounds: int too large to convert to float"),
            ({"agent_weights": {"obstacle": 10**400}}, "obstacle must be a finite real number"),
            ({"randomizer": {"start": [0, 0, 10**400]}}, "int too large to convert to float"),
            ({"bounds": {"low": [0.0] * 36}}, "bounds: missing key 'high'"),
        ],
    )
    def test_rejection_names_the_file(self, tmp_path, data, message):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match=f"^{path}: .*{message}"):
            load_run_config(path)

    def test_rejects_bad_json(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text("{nope")
        with pytest.raises(ValueError):
            load_run_config(path)
