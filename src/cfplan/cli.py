"""Command line entry points.

Subcommands:

- ``gen-scenes``: randomize scenes to a directory of JSON files
- ``label``: tune gains for each scene in a directory, write a JSONL dataset
  plus a JSON summary
- ``plan``: plan one scene with given or inferred parameters, optionally
  writing the trajectory CSV and an SVG rendering
- ``infer``: predict parameters for a point-cloud CSV from a dataset

Flags name only files, counts and seeds: every other setting of a run, the
tuner budget and the predictor's k included, comes from the run config.

stdout carries machine-readable JSON only; progress notes and file-written
confirmations go to stderr.  Exit codes: 0 on success, 1 when a requested
plan does not reach the goal, 2 on usage or input errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import io
from .config import RunConfig, load_run_config
from .cost import trajectory_cost
from .inference import featurize, knn_predict
from .labeling import label_scene_set, load_dataset, scene_surface_cloud
from .params import agent_count, param_dim, validate_params
from .planner import execute
from .plot import save_plan_svg
from .scene import PlacementFailure, randomize_scene


def _note(msg: str) -> None:
    print(msg, file=sys.stderr)


def _load_config(args) -> RunConfig:
    return load_run_config(args.config)


def _infer(cloud, workspace, cfg: RunConfig, dataset_path):
    """Gains for ``cloud`` by k-NN over the dataset at ``dataset_path``,
    clipped to the config's bounds: the one inference step of ``plan
    --infer`` and ``infer``.  Labels for another agent count are rejected."""
    dataset = load_dataset(dataset_path)
    n_agents = cfg.planner.n_agents
    if dataset and dataset[0].p_star.size != param_dim(n_agents):
        raise ValueError(
            f"{dataset_path}: labels are for {agent_count(dataset[0].p_star.size)} agents, "
            f"the config plans for {n_agents}"
        )
    p = knn_predict(featurize(cloud, workspace), dataset, workspace, k=cfg.knn_k)
    return validate_params(cfg.bounds.clip(p), n_agents)


def cmd_gen_scenes(args) -> int:
    if args.count < 0:
        raise ValueError("--count must be non-negative")
    cfg = _load_config(args)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    files = []
    width = len(str(args.count - 1))  # zero-padded, so that names sort in the order drawn
    for i in range(args.count):
        scene = randomize_scene(cfg.randomizer, args.seed + i)
        path = out_dir / f"scene_{args.seed}_{i:0{width}d}.json"
        io.save_scene(scene, path)
        files.append(path.name)
        _note(f"wrote {path} ({scene.radii.size} spheres)")
    print(json.dumps({"count": args.count, "seed": args.seed, "files": files}))
    return 0


def cmd_label(args) -> int:
    cfg = _load_config(args)
    scene_dir = Path(args.scenes)
    paths = sorted(scene_dir.glob("*.json"))
    if not paths:
        raise ValueError(f"no scene files found in {scene_dir}")
    scenes = [io.load_scene(path) for path in paths]
    seeds = [args.seed + i for i in range(len(paths))]

    def on_scene(idx, total, scene_id, stored):
        _note(f"[{idx + 1}/{total}] {paths[idx].name}: stored={stored}")

    summary = label_scene_set(
        scenes,
        scene_ids=list(range(len(paths))),
        seeds=seeds,
        planner_cfg=cfg.planner,
        agent_weights=cfg.agent_weights,
        traj_weights=cfg.trajectory_weights,
        out_path=args.out,
        bounds=cfg.bounds,
        n_init=cfg.n_init,
        n_iter=cfg.n_iter,
        on_scene=on_scene,
    )
    for row, path in zip(summary["per_scene"], paths):
        row["file"] = path.name
    summary_path = args.summary if args.summary else f"{args.out}.summary.json"
    Path(summary_path).write_text(json.dumps(summary, indent=2) + "\n", encoding="utf-8")
    _note(
        f"labeled {summary['n_succeeded']}/{summary['n_attempted']} scenes "
        f"-> {args.out} (summary: {summary_path})"
    )
    print(json.dumps(summary))
    return 0


def cmd_plan(args) -> int:
    cfg = _load_config(args)
    scene = io.load_scene(args.scene)
    if args.params is not None:
        p = io.load_params(args.params)
        with io.naming(args.params):
            p = validate_params(p, cfg.planner.n_agents)
    else:
        p = _infer(scene_surface_cloud(scene, seed=0), scene.workspace, cfg, args.infer)
    result = execute(scene, p, cfg.planner, cfg.agent_weights)
    cost = trajectory_cost(result.trajectory, scene, cfg.trajectory_weights)
    if args.traj:
        io.save_trajectory_csv(result.trajectory, args.traj)
        _note(f"wrote {args.traj}")
    if args.plot:
        save_plan_svg(scene, result.trajectory, args.plot)
        _note(f"wrote {args.plot}")
    print(
        json.dumps(
            {
                "reached": result.reached,
                "steps_used": result.steps_used,
                "min_clearance": result.min_clearance,
                "cost": cost,
                "best_agent_history": [list(t) for t in result.best_agent_history],
            }
        )
    )
    return 0 if result.reached else 1


def cmd_infer(args) -> int:
    cfg = _load_config(args)
    p = _infer(io.load_cloud_csv(args.cloud), cfg.randomizer.workspace, cfg, args.dataset)
    if args.out:
        io.save_params(p, args.out)
        _note(f"wrote {args.out}")
    print(json.dumps(p.tolist()))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfplan",
        description="Circular-field planning, per-scene gain tuning, and gain inference.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-scenes", help="randomize scenes into a directory")
    gen.add_argument("--count", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument("--config", default=None, help="run config JSON")
    gen.set_defaults(func=cmd_gen_scenes)

    label = sub.add_parser("label", help="tune gains for every scene in a directory")
    label.add_argument("--scenes", required=True, help="directory of scene JSON files")
    label.add_argument("--out", required=True, help="output dataset (JSON lines)")
    label.add_argument("--seed", type=int, default=0)
    label.add_argument("--summary", default=None, help="summary JSON path")
    label.add_argument("--config", default=None)
    label.set_defaults(func=cmd_label)

    plan = sub.add_parser("plan", help="plan one scene")
    plan.add_argument("--scene", required=True)
    source = plan.add_mutually_exclusive_group(required=True)
    source.add_argument("--params", default=None, help="parameter JSON file")
    source.add_argument("--infer", default=None, help="dataset to infer parameters from")
    plan.add_argument("--traj", default=None, help="trajectory CSV path")
    plan.add_argument("--plot", default=None, help="SVG output path")
    plan.add_argument("--config", default=None)
    plan.set_defaults(func=cmd_plan)

    infer = sub.add_parser("infer", help="predict parameters for a point cloud")
    infer.add_argument("--cloud", required=True, help="point cloud CSV")
    infer.add_argument("--dataset", required=True, help="labeled dataset JSONL")
    infer.add_argument("--out", default=None, help="parameter JSON output")
    infer.add_argument("--config", default=None)
    infer.set_defaults(func=cmd_infer)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, PlacementFailure) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
