"""Circular-field motion planning with tuned, scene-conditioned gains.

The pipeline: decompose a scene into sphere obstacles, plan with a committee
of predictive agents steering by circular (Lorentz-style) force fields, tune
the per-agent gains per scene with Bayesian optimization, and reuse tuned
gains on new scenes via nearest neighbors over a point-cloud descriptor.
"""

from .bo import BoResult, bo_minimize
from .cost import AgentCostWeights, TrajectoryCostWeights, agent_cost, agent_costs, trajectory_cost
from .fields import (
    AgentKinematics,
    GainSet,
    OverlapError,
    attractive_force,
    circular_field_force,
    manipulability_force,
    repulsive_force,
    steering_force,
)
from .gp import gp_fit
from .heuristics import HeuristicKind, agent_heuristic, compute_current
from .inference import SceneDescriptor, featurize, knn_predict
from .labeling import (
    LabeledSample,
    build_dataset,
    label_scene,
    label_scene_set,
    load_dataset,
    scene_surface_cloud,
    tune_scene,
    write_dataset,
)
from .params import BoundsBox, default_bounds, param_dim, validate_params
from .planner import (
    Committee,
    PlanResult,
    PlannerConfig,
    RandomRows,
    Trajectory,
    execute,
    plan_step,
    rollout,
)
from .scene import (
    Cuboid,
    Cylinder,
    DepthImage,
    PlacementFailure,
    PointCloud,
    Scene,
    SceneRandomizerConfig,
    SphereObstacle,
    SphereShape,
    WorkspaceBounds,
    decompose_primitive,
    default_desk_randomizer,
    depth_to_cloud,
    obstruction_scene,
    randomize_scene,
    sample_scene_shapes,
    subsample,
    voxelize_point_cloud,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
