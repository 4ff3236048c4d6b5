"""The benchmark's three workloads: input generation, the timed operation,
and the checks of its outputs.

Every input is drawn from ``numpy.random.default_rng([tag, seed, index])``,
so operation ``index`` of a run with workload seed ``seed`` always sees the
same scene and tuner seed.  The program receives only these inputs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as stdio
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import common
import oracles
from cfplan import bo, cli, cost, inference, io, labeling, planner, scene
from cfplan.params import default_bounds

PLANNER_CFG = planner.PlannerConfig(**common.PLANNER)
AGENT_W = cost.AgentCostWeights()
TRAJ_W = cost.TrajectoryCostWeights()
BOUNDS = default_bounds(PLANNER_CFG.n_agents)
DESK = scene.default_desk_randomizer()

CLEARANCE_TOL = 1e-9  # stored vs brute-force clearance, metres
COST_RTOL = 1e-9  # program vs re-implemented cost, relative
SPEED_RTOL = 1e-9  # step length vs v_max * dt, relative
KNN_K = 3  # neighbours for plan --infer, written into the run config


class CheckFailed(AssertionError):
    """An output disagrees with its oracle or breaks a property of the method."""


def require(ok, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


@dataclass
class Plan:
    """A final plan as the checks and quality metrics see it."""

    scene: scene.Scene
    positions: np.ndarray
    clearances: np.ndarray
    reached: bool
    steps_used: int
    min_clearance: float
    cost: float  # as computed by the program


@dataclass
class Outcome:
    digest: str  # hash of everything the operation returned or wrote
    detail: object = None  # what the checks need beyond the digest
    sim_steps: int = 0  # integration steps, counted from the returned results
    plans: list[Plan] = field(default_factory=list)  # filled in by the checks


def sim_steps(steps_used: int, replans: int) -> int:
    """Integration steps of one execution: committed steps plus every
    replan's rollouts (agents x horizon each)."""
    return steps_used + replans * PLANNER_CFG.n_agents * PLANNER_CFG.horizon


def check_plan(plan: Plan, must_reach: bool) -> None:
    """Properties every final plan must have, against the oracles.

    Every final plan keeps clear of every sphere.  ``must_reach`` also
    requires it to end within the goal tolerance; without it, a plan may use
    every step and stop short, or stay trapped near the start, as tuned and
    inferred plans of a working planner sometimes do, but must report that
    truthfully.
    """
    sc, x = plan.scene, plan.positions
    centers, radii = scene.scene_arrays(sc)
    require(np.array_equal(x[0], sc.start), "plan does not start at the scene start")
    require(plan.steps_used == x.shape[0] - 1, "steps_used disagrees with the samples")
    end = float(np.sqrt(((x[-1] - sc.goal) ** 2).sum()))
    require(plan.reached == (end <= PLANNER_CFG.goal_tolerance), f"reached={plan.reached} but the plan ends {end:.4f} m from the goal")
    require(plan.reached or plan.steps_used == PLANNER_CFG.max_steps, "plan stopped early without reaching the goal")
    require(plan.reached or not must_reach, f"plan ends {end:.4f} m from the goal")
    step = np.sqrt((np.diff(x, axis=0) ** 2).sum(axis=1))
    v_cap = PLANNER_CFG.v_max * PLANNER_CFG.dt * (1.0 + SPEED_RTOL)
    require(step.size == 0 or float(step.max()) <= v_cap, "a step exceeds v_max")
    brute = oracles.brute_clearances(x, centers, radii)
    require(
        float(np.abs(brute - plan.clearances).max()) <= CLEARANCE_TOL,
        "stored clearances differ from the brute-force scan",
    )
    require(plan.min_clearance == float(plan.clearances.min()), "min_clearance is not the minimum")
    require(plan.min_clearance > 0.0, f"plan collides: min clearance {plan.min_clearance:.4f} m")
    want = oracles.trajectory_cost(x, sc.goal, centers, radii)
    require(
        abs(plan.cost - want) <= COST_RTOL * max(abs(want), 1.0),
        f"cost {plan.cost!r} differs from the re-implemented {want!r}",
    )


def plan_from_result(sc: scene.Scene, result: planner.PlanResult, c: float) -> Plan:
    t = result.trajectory
    return Plan(sc, t.positions, t.clearances, result.reached, result.steps_used, result.min_clearance, c)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


class Workload:
    name = ""
    tag = 0  # keeps the input streams of the workloads apart

    def __init__(self, seed: int):
        self.seed = seed

    def rng(self, index: int) -> np.random.Generator:
        return np.random.default_rng([self.tag, self.seed, index])

    def make_inputs(self, index: int, out_dir: Path):
        raise NotImplementedError

    def run(self, inputs) -> Outcome:
        raise NotImplementedError

    def check(self, inputs, outcome: Outcome, first: bool) -> None:
        """Check ``outcome``; ``first`` asks for the costlier checks that run
        once per benchmark run (re-execution, descriptor and k-NN oracles)."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# obstruction-tune


@dataclass
class TuneInputs:
    scene: scene.Scene
    tuner_seed: int


class ObstructionTune(Workload):
    """BO tuning of one midpoint-obstruction scene (one sphere on the middle
    of a 0.8 m start-goal segment), then re-executing the best parameters.
    The seed shifts the whole scene, sizes the sphere and picks the tuner
    seed."""

    name = "obstruction-tune"
    tag = 1
    n_init, n_iter = 4, 2

    def make_inputs(self, index, out_dir):
        rng = self.rng(index)
        mid = np.array([0.0, 0.0, 0.5]) + rng.uniform(-0.1, 0.1, 3)
        half = np.array([0.4, 0.0, 0.0])
        sc = scene.Scene(
            obstacles=(scene.SphereObstacle(mid, rng.uniform(0.145, 0.155)),),
            start=mid - half,
            goal=mid + half,
            workspace=scene.WorkspaceBounds((-1.2, -1.2, -0.2), (1.2, 1.2, 1.2)),
        )
        return TuneInputs(sc, int(rng.integers(0, 2**31 - 1)))

    def run(self, inputs):
        sc = inputs.scene
        steps = 0

        def objective(p):
            nonlocal steps
            result = planner.execute(sc, p, PLANNER_CFG, AGENT_W)
            steps += sim_steps(result.steps_used, len(result.best_agent_history))
            return cost.trajectory_cost(result.trajectory, sc, TRAJ_W)

        tuned = bo.bo_minimize(objective, BOUNDS, self.n_init, self.n_iter, inputs.tuner_seed)
        final = planner.execute(sc, tuned.best_p, PLANNER_CFG, AGENT_W)
        final_cost = cost.trajectory_cost(final.trajectory, sc, TRAJ_W)
        return Outcome(
            _digest(tuned.best_p, np.array([tuned.best_y, final_cost]), final.trajectory.positions),
            (tuned, plan_from_result(sc, final, final_cost)),
            steps + sim_steps(final.steps_used, len(final.best_agent_history)),
        )

    def check(self, inputs, outcome, first):
        tuned, plan = outcome.detail
        ys = [y for _, y in tuned.observations]
        require(len(ys) == self.n_init + self.n_iter, "wrong number of evaluations")
        require(tuned.best_y == min(ys), "best_y is not the minimum observation")
        require(BOUNDS.contains(tuned.best_p), "best_p lies outside the bounds")
        require(plan.cost == tuned.best_y, "re-executing best_p does not reproduce best_y")
        # a short tuning's best plan on a working planner often stops short
        # of the goal (see README.md, Checks), so reaching is not required
        check_plan(plan, must_reach=False)
        outcome.plans.append(plan)


# ---------------------------------------------------------------------------
# desk-label


@dataclass
class LabelInputs:
    scene: scene.Scene
    scene_id: int
    tuner_seed: int
    out_path: Path


class DeskLabel(Workload):
    """``label_scene_set`` on one randomized desk scene, writing the JSONL
    dataset and reading it back with ``load_dataset``."""

    name = "desk-label"
    tag = 2
    n_init, n_iter = 8, 12  # the criterion-9 budget

    def make_inputs(self, index, out_dir):
        rng = self.rng(index)
        desk_seed = int(rng.integers(common.LABEL_SEED_BASE, common.QUERY_SEED_BASE))
        sc = scene.randomize_scene(DESK, desk_seed)
        return LabelInputs(sc, desk_seed, int(rng.integers(0, 2**31 - 1)), out_dir / "labels.jsonl")

    def run(self, inputs):
        summary = labeling.label_scene_set(
            [inputs.scene],
            scene_ids=[inputs.scene_id],
            seeds=[inputs.tuner_seed],
            planner_cfg=PLANNER_CFG,
            agent_weights=AGENT_W,
            traj_weights=TRAJ_W,
            out_path=inputs.out_path,
            bounds=BOUNDS,
            n_init=self.n_init,
            n_iter=self.n_iter,
        )
        samples = labeling.load_dataset(inputs.out_path)
        return Outcome(_digest(inputs.out_path.read_bytes()), (summary, samples))

    def check(self, inputs, outcome, first):
        sc, (summary, samples) = inputs.scene, outcome.detail
        centers, radii = scene.scene_arrays(sc)
        require(summary["n_attempted"] == 1, "summary miscounts the scenes")
        require(summary["n_succeeded"] == len(samples), "summary disagrees with the file")
        for sample in samples:
            require(sample.scene_id == inputs.scene_id, "label carries the wrong scene id")
            require(sample.points.shape == (labeling.CLOUD_SIZE, 3), "cloud is not 2500 x 3")
            require(oracles.on_sphere_surfaces(sample.points, centers, radii).all(), "cloud point off every sphere surface")
            require(sample.p_star.shape == (BOUNDS.dim,), "label has the wrong parameter count")
            require(BOUNDS.contains(sample.p_star), "label lies outside the bounds")
            # labels are stored only for tuned plans that reached the goal:
            # re-executing one must reproduce its cost bit for bit
            result = planner.execute(sc, sample.p_star, PLANNER_CFG, AGENT_W)
            c = cost.trajectory_cost(result.trajectory, sc, TRAJ_W)
            require(c == sample.best_cost, "re-executing a label does not reproduce its cost")
            plan = plan_from_result(sc, result, c)
            check_plan(plan, must_reach=True)
            outcome.plans.append(plan)


# ---------------------------------------------------------------------------
# desk-plan


@dataclass
class PlanInputs:
    scene_path: Path
    config_path: Path
    traj_path: Path


class DeskPlan(Workload):
    """``cfplan plan --infer`` on one unseen desk scene, driven in process
    through ``cfplan.cli.main``, against the stored labeled dataset."""

    name = "desk-plan"
    tag = 3

    def make_inputs(self, index, out_dir):
        rng = self.rng(index)
        desk_seed = int(rng.integers(common.QUERY_SEED_BASE, 2 * common.QUERY_SEED_BASE))
        scene_path = out_dir / "scene.json"
        io.save_scene(scene.randomize_scene(DESK, desk_seed), scene_path)
        config_path = out_dir / "run.json"
        config_path.write_text(json.dumps({"planner": common.PLANNER, "knn_k": KNN_K}), encoding="utf-8")
        return PlanInputs(scene_path, config_path, out_dir / "traj.csv")

    def argv(self, inputs):
        return [
            "plan",
            "--scene", str(inputs.scene_path),
            "--infer", str(common.DATASET),
            "--config", str(inputs.config_path),
            "--traj", str(inputs.traj_path),
        ]  # fmt: skip

    def run(self, inputs):
        out = stdio.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(stdio.StringIO()):
            code = cli.main(self.argv(inputs))
        text = out.getvalue()
        traj = inputs.traj_path.read_bytes() if inputs.traj_path.exists() else b""
        printed = json.loads(text.strip().splitlines()[-1])
        steps = sim_steps(printed["steps_used"], len(printed["best_agent_history"]))
        return Outcome(_digest(text.encode(), traj), (code, printed), steps)

    def check(self, inputs, outcome, first):
        code, printed = outcome.detail
        require(code == (0 if printed["reached"] else 1), f"cfplan plan exited {code}")
        rows = np.loadtxt(inputs.traj_path, delimiter=",", skiprows=1, ndmin=2)
        sc = _read_scene(inputs.scene_path)
        require(np.array_equal(rows[:, 0], np.arange(rows.shape[0]) * PLANNER_CFG.dt), "bad sample times")
        plan = Plan(
            sc,
            rows[:, 1:4],
            rows[:, 4],
            bool(printed["reached"]),
            int(printed["steps_used"]),
            float(printed["min_clearance"]),
            float(printed["cost"]),
        )
        # an inferred plan may stop short of the goal or stay trapped near the
        # start (see README.md, Checks), so reaching is not required
        check_plan(plan, must_reach=False)
        outcome.plans.append(plan)
        if first:
            self._check_inference(inputs, sc, plan)

    def _check_inference(self, inputs, sc, plan):
        """Recompute the inferred plan through the library, with the
        descriptor and k-NN checked against the oracles."""
        dataset = labeling.load_dataset(common.DATASET)
        ws = sc.workspace
        cloud = labeling.scene_surface_cloud(sc, seed=0)
        centers, radii = scene.scene_arrays(sc)
        require(oracles.on_sphere_surfaces(cloud.points, centers, radii).all(), "query cloud off the spheres")
        query = inference.featurize(cloud, ws)
        want_q = oracles.descriptor(cloud.points, ws.min, ws.max)
        require(np.allclose(query.vector(), want_q, rtol=0.0, atol=1e-12), "featurize differs from the descriptor oracle")
        vectors = [oracles.descriptor(s.points, ws.min, ws.max) for s in dataset]
        p = inference.knn_predict(query, dataset, ws, k=KNN_K)
        want_p = oracles.idw_knn(want_q, vectors, [s.p_star for s in dataset], KNN_K)
        require(np.allclose(p, want_p, rtol=1e-9, atol=1e-9), "knn_predict differs from the IDW oracle")
        result = planner.execute(sc, BOUNDS.clip(p), PLANNER_CFG, AGENT_W)
        t = result.trajectory
        require(
            np.array_equal(t.positions, plan.positions) and np.array_equal(t.clearances, plan.clearances),
            "re-executing the inferred parameters does not reproduce the CLI's plan",
        )


def _read_scene(path: Path) -> scene.Scene:
    """Read a scene file without cfplan.io, so the check does not trust it."""
    data = json.loads(path.read_text(encoding="utf-8"))
    return scene.Scene(
        obstacles=tuple(scene.SphereObstacle(o["center"], o["radius"]) for o in data["obstacles"]),
        start=data["start"],
        goal=data["goal"],
        workspace=scene.WorkspaceBounds(data["workspace"]["min"], data["workspace"]["max"]),
    )


WORKLOADS = {w.name: w for w in (ObstructionTune, DeskLabel, DeskPlan)}
