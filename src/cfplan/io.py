"""File formats.

- scene: JSON with obstacles (center/radius), start, goal, workspace box;
  written from and read into the scene's center and radius arrays, with no
  per-sphere object on the way
- point cloud: CSV with an ``x,y,z`` header row
- depth image: binary PGM (P5, maxval 65535) holding millimeters as
  little-endian 16-bit words, plus a JSON sidecar with intrinsics and the
  camera-to-base transform
- trajectory: CSV with a ``t,x,y,z,clearance`` header row
- parameters: JSON array of floats

Loaders validate and raise ValueError with the offending path in the message;
a JSON number field rejects the strings, bools and nulls ``float()`` takes.
"""

from __future__ import annotations

import json
from itertools import chain
from pathlib import Path

import numpy as np

from .planner import Trajectory
from .scene import DepthImage, PointCloud, Scene, WorkspaceBounds, validate_scene


def check_json_numbers(name: str, value) -> None:
    """Raise ValueError unless every leaf of ``value``, through nested lists
    and objects, is a number."""
    items = [value]
    while items:
        item = items.pop()
        if isinstance(item, dict):
            items.extend(item.values())
        elif isinstance(item, list):
            types = set(map(type, item))
            if types <= {int, float}:  # all plain numbers
                continue
            if types == {dict}:  # objects, such as obstacles: check their values at once
                items.append(list(chain.from_iterable(map(dict.values, item))))
            elif types == {list}:  # rows, such as a point cloud's: check their entries at once
                items.append(list(chain.from_iterable(item)))
            elif types <= {int, float, list}:  # numbers and rows: check the rows' entries at once
                items.append(list(chain.from_iterable(x for x in item if type(x) is list)))
            else:
                items.extend(item)
        elif isinstance(item, bool) or not isinstance(item, (int, float)):
            raise ValueError(f"{name} must hold only numbers, got {item!r}")


def scene_to_dict(scene: Scene) -> dict:
    return {
        "obstacles": [
            {"center": c, "radius": r}
            for c, r in zip(scene.centers.tolist(), scene.radii.tolist())
        ],
        "start": scene.start.tolist(),
        "goal": scene.goal.tolist(),
        "workspace": {
            "min": scene.workspace.min.tolist(),
            "max": scene.workspace.max.tolist(),
        },
    }


def scene_from_dict(data: dict) -> Scene:
    """The scene of a ``scene_to_dict`` record: every leaf checked to be a
    number, then the obstacles converted to arrays in one pass."""
    try:
        for key in ("obstacles", "start", "goal", "workspace"):
            check_json_numbers(key, data[key])
        obstacles = data["obstacles"]
        scene = Scene.from_arrays(
            np.array([o["center"] for o in obstacles], dtype=float).reshape(-1, 3),
            np.array([o["radius"] for o in obstacles], dtype=float),
            data["start"],
            data["goal"],
            WorkspaceBounds(data["workspace"]["min"], data["workspace"]["max"]),
        )
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"malformed scene record: {exc}") from exc
    validate_scene(scene)
    return scene


#: one obstacle of ``save_scene``'s text; ``%r`` formats a float as json does
_OBSTACLE = (
    '    {\n      "center": [\n        %r,\n        %r,\n        %r\n      ],'
    '\n      "radius": %r\n    }'
)


def _json_vector(v: np.ndarray, pad: str) -> str:
    """``v`` as an indented json array whose closing bracket sits at ``pad``."""
    return "[\n" + ",\n".join(f"{pad}  {x!r}" for x in v.tolist()) + f"\n{pad}]"


def save_scene(scene: Scene, path) -> None:
    """Write ``scene_to_dict(scene)`` as ``json.dumps(..., indent=2)`` lays
    it out, plus a newline, byte for byte.  The text is formatted directly:
    ``indent`` makes ``json`` use its pure-Python encoder, which takes
    nearly twice as long on a desk scene."""
    obstacles = ",\n".join(
        _OBSTACLE % (*c, r) for c, r in zip(scene.centers.tolist(), scene.radii.tolist())
    )
    obstacles = f"[\n{obstacles}\n  ]" if obstacles else "[]"
    ws = scene.workspace
    text = (
        f'{{\n  "obstacles": {obstacles},\n'
        f'  "start": {_json_vector(scene.start, "  ")},\n'
        f'  "goal": {_json_vector(scene.goal, "  ")},\n'
        f'  "workspace": {{\n'
        f'    "min": {_json_vector(ws.min, "    ")},\n'
        f'    "max": {_json_vector(ws.max, "    ")}\n'
        "  }\n}\n"
    )
    Path(path).write_text(text, encoding="utf-8")


def load_scene(path) -> Scene:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        return scene_from_dict(data)
    except (json.JSONDecodeError, ValueError) as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_cloud_csv(cloud: PointCloud, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("x,y,z\n")
        for x, y, z in cloud.points.tolist():
            fh.write(f"{x!r},{y!r},{z!r}\n")


def load_cloud_csv(path) -> PointCloud:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if [c.strip() for c in header.split(",")] != ["x", "y", "z"]:
            raise ValueError(f"{path}: expected an 'x,y,z' header, got {header!r}")
        try:
            rows = [
                [float(c) for c in line.strip().split(",")]
                for line in fh
                if line.strip()
            ]
        except ValueError as exc:
            raise ValueError(f"{path}: bad point row: {exc}") from exc
    for row in rows:
        if len(row) != 3:
            raise ValueError(f"{path}: point rows must have three columns")
    return PointCloud(np.array(rows, dtype=float).reshape(-1, 3))


def save_trajectory_csv(traj: Trajectory, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("t,x,y,z,clearance\n")
        rows = zip(traj.times.tolist(), traj.positions.tolist(), traj.clearances.tolist())
        for t, (x, y, z), c in rows:
            fh.write(f"{t!r},{x!r},{y!r},{z!r},{c!r}\n")


def load_trajectory_csv(path) -> Trajectory:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        if [c.strip() for c in header.split(",")] != ["t", "x", "y", "z", "clearance"]:
            raise ValueError(f"{path}: expected a 't,x,y,z,clearance' header")
        try:
            rows = np.array(
                [[float(c) for c in line.split(",")] for line in fh if line.strip()]
            )
        except ValueError as exc:
            raise ValueError(f"{path}: bad trajectory row: {exc}") from exc
    if rows.size == 0 or rows.shape[1] != 5:
        raise ValueError(f"{path}: trajectory rows must have five columns")
    return Trajectory(times=rows[:, 0], positions=rows[:, 1:4], clearances=rows[:, 4])


def save_params(p: np.ndarray, path) -> None:
    Path(path).write_text(
        json.dumps(np.asarray(p, dtype=float).tolist()) + "\n", encoding="utf-8"
    )


def load_params(path) -> np.ndarray:
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        check_json_numbers("parameters", data)
    except ValueError as exc:  # json.JSONDecodeError included
        raise ValueError(f"{path}: {exc}") from exc
    arr = np.asarray(data, dtype=float)
    if arr.ndim != 1:
        raise ValueError(f"{path}: parameters must be a flat JSON array")
    return arr


# ---------------------------------------------------------------------------
# depth images: binary PGM in millimeters + JSON sidecar


def _sidecar_path(pgm_path) -> Path:
    return Path(pgm_path).with_suffix(".json")


def save_depth_image(image: DepthImage, pgm_path) -> None:
    mm = np.clip(np.round(image.depths * 1000.0), 0, 65535).astype("<u2")
    with open(pgm_path, "wb") as fh:
        fh.write(f"P5\n{image.width} {image.height}\n65535\n".encode("ascii"))
        fh.write(mm.tobytes())
    sidecar = {
        "fx": image.fx,
        "fy": image.fy,
        "cx": image.cx,
        "cy": image.cy,
        "rotation": image.rotation.tolist(),
        "translation": image.translation.tolist(),
    }
    _sidecar_path(pgm_path).write_text(json.dumps(sidecar, indent=2) + "\n", encoding="utf-8")


def _read_pgm_tokens(blob: bytes, count: int) -> tuple[list[bytes], int]:
    """First ``count`` whitespace-separated header tokens (comments stripped)
    and the offset of the byte right after the single whitespace that
    terminates the last one."""
    tokens: list[bytes] = []
    i = 0
    while len(tokens) < count:
        while i < len(blob) and blob[i : i + 1].isspace():
            i += 1
        if i < len(blob) and blob[i : i + 1] == b"#":
            while i < len(blob) and blob[i : i + 1] != b"\n":
                i += 1
            continue
        start = i
        while i < len(blob) and not blob[i : i + 1].isspace():
            i += 1
        if start == i:
            raise ValueError("truncated PGM header")
        tokens.append(blob[start:i])
    return tokens, i + 1


def load_depth_image(pgm_path, sidecar_path=None) -> DepthImage:
    path = Path(pgm_path)
    blob = path.read_bytes()
    try:
        (magic, w, h, maxval), offset = _read_pgm_tokens(blob, 4)
        if magic != b"P5":
            raise ValueError(f"expected a P5 PGM, got magic {magic!r}")
        width, height, maxval = int(w), int(h), int(maxval)
        if maxval != 65535:
            raise ValueError("depth PGM must be 16-bit (maxval 65535)")
        raw = blob[offset : offset + 2 * width * height]
        if len(raw) != 2 * width * height:
            raise ValueError("pixel payload shorter than width*height")
        mm = np.frombuffer(raw, dtype="<u2").reshape(height, width)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    sidecar_file = Path(sidecar_path) if sidecar_path is not None else _sidecar_path(path)
    try:
        meta = json.loads(sidecar_file.read_text(encoding="utf-8"))
        for key in ("fx", "fy", "cx", "cy", "rotation", "translation"):
            check_json_numbers(key, meta[key])
        return DepthImage(
            depths=mm.astype(float) / 1000.0,
            fx=float(meta["fx"]),
            fy=float(meta["fy"]),
            cx=float(meta["cx"]),
            cy=float(meta["cy"]),
            rotation=np.asarray(meta["rotation"], dtype=float),
            translation=np.asarray(meta["translation"], dtype=float),
        )
    except (KeyError, TypeError, ValueError) as exc:  # json.JSONDecodeError included
        raise ValueError(f"{sidecar_file}: bad depth sidecar: {exc}") from exc
