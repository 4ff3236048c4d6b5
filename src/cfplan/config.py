"""One JSON file configures a whole run: planner settings, cost weights,
tuner bounds and budget, scene randomizer, and the k of the gain predictor.
Every key is optional; missing sections keep their defaults, unknown keys are
rejected so typos fail loudly."""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path

from .cost import AgentCostWeights, TrajectoryCostWeights
from .io import check_json_numbers, naming
from .params import BoundsBox, default_bounds, param_dim
from .planner import PlannerConfig
from .scene import (
    Cuboid,
    Cylinder,
    SceneRandomizerConfig,
    SphereShape,
    WorkspaceBounds,
    default_desk_randomizer,
    integer,
)


@dataclass(frozen=True)
class RunConfig:
    planner: PlannerConfig
    agent_weights: AgentCostWeights
    trajectory_weights: TrajectoryCostWeights
    bounds: BoundsBox
    randomizer: SceneRandomizerConfig
    n_init: int = 8
    n_iter: int = 48
    knn_k: int = 3

    def __post_init__(self):
        integer("tuner.n_init", self.n_init)
        integer("tuner.n_iter", self.n_iter)
        integer("knn_k", self.knn_k)
        # the limits bo_minimize and knn_predict enforce, checked at load
        if self.n_init < 2 or self.n_iter < 0 or self.knn_k < 1:
            raise ValueError(
                f"need tuner.n_init >= 2, tuner.n_iter >= 0 and knn_k >= 1, got "
                f"{self.n_init}, {self.n_iter} and {self.knn_k}"
            )
        if self.bounds.dim != param_dim(self.planner.n_agents):
            raise ValueError(
                f"bounds hold {self.bounds.dim} entries, but {self.planner.n_agents} "
                f"agents need {param_dim(self.planner.n_agents)}"
            )
        if self.bounds.low.min() < 0.0:  # validate_params refuses every such draw
            raise ValueError(f"bounds must not reach below 0, got low {self.bounds.low.min()!r}")


def default_run_config() -> RunConfig:
    return RunConfig(
        planner=PlannerConfig(),
        agent_weights=AgentCostWeights(),
        trajectory_weights=TrajectoryCostWeights(),
        bounds=default_bounds(),
        randomizer=default_desk_randomizer(),
    )


def _check_keys(section: str, data: dict, allowed) -> None:
    unknown = set(data) - set(allowed)
    if unknown:
        raise ValueError(f"unknown {section} config keys: {sorted(unknown)}")


def _merge_dataclass(section: str, default, data: dict):
    names = [f.name for f in dataclasses.fields(default)]
    _check_keys(section, data, names)
    return dataclasses.replace(default, **data)


def _bounds_from_dict(data: dict, n_agents: int) -> BoundsBox:
    check_json_numbers("bounds", data)
    explicit = "low" in data or "high" in data
    _check_keys("bounds", data, ("low", "high") if explicit else ("gain_high", "r_d_range"))
    with naming("bounds"):
        if explicit:
            return BoundsBox(data["low"], data["high"])
        return default_bounds(n_agents, **data)


#: constructor and its arguments, in order, for each fixed shape kind
_SHAPES = {
    "cuboid": (Cuboid, ("center", "half_extents")),
    "sphere": (SphereShape, ("center", "radius")),
    "cylinder": (Cylinder, ("center", "axis", "radius", "half_length")),
}


def _shape_from_dict(data: dict):
    if not isinstance(data, dict):
        raise ValueError(f"each of fixed_shapes must be a JSON object, got {data!r}")
    kind = data.get("kind")
    if not isinstance(kind, str) or kind not in _SHAPES:
        raise ValueError(f"unknown shape kind: {kind!r}")
    make, keys = _SHAPES[kind]
    _check_keys(f"{kind} shape", data, ("kind", *keys))
    missing = [k for k in keys if k not in data]
    if missing:
        raise ValueError(f"{kind} shape config lacks keys: {missing}")
    return make(*(data[k] for k in keys))


def _workspace_from_dict(data: dict) -> WorkspaceBounds:
    _check_keys("workspace", data, ("min", "max"))
    return WorkspaceBounds(data["min"], data["max"])


def _randomizer_from_dict(data: dict) -> SceneRandomizerConfig:
    data = dict(data)
    if "workspace" in data:
        data["workspace"] = _workspace_from_dict(data["workspace"])
    if "goal_region" in data:
        data["goal_region"] = _workspace_from_dict(data["goal_region"])
    if "fixed_shapes" in data:
        data["fixed_shapes"] = tuple(_shape_from_dict(s) for s in data["fixed_shapes"])
    return _merge_dataclass("randomizer", default_desk_randomizer(), data)


def run_config_from_dict(data: dict) -> RunConfig:
    _check_keys(
        "run",
        data,
        (
            "planner",
            "agent_weights",
            "trajectory_weights",
            "bounds",
            "randomizer",
            "tuner",
            "knn_k",
        ),
    )
    planner = _merge_dataclass("planner", PlannerConfig(), data.get("planner", {}))
    tuner = dict(data.get("tuner", {}))
    _check_keys("tuner", tuner, ("n_init", "n_iter"))
    return RunConfig(
        planner=planner,
        agent_weights=_merge_dataclass(
            "agent_weights", AgentCostWeights(), data.get("agent_weights", {})
        ),
        trajectory_weights=_merge_dataclass(
            "trajectory_weights",
            TrajectoryCostWeights(),
            data.get("trajectory_weights", {}),
        ),
        bounds=_bounds_from_dict(data.get("bounds", {}), planner.n_agents),
        randomizer=_randomizer_from_dict(data.get("randomizer", {})),
        n_init=tuner.get("n_init", RunConfig.n_init),
        n_iter=tuner.get("n_iter", RunConfig.n_iter),
        knn_k=data.get("knn_k", RunConfig.knn_k),
    )


def load_run_config(path=None) -> RunConfig:
    if path is None:
        return default_run_config()
    with naming(path):
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not isinstance(data, dict):
            raise ValueError("config root must be a JSON object")
        return run_config_from_dict(data)
