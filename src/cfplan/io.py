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

Loading rule: a loader reads every number array through ``json_array``
(from ``cfplan.scene``), which checks that each leaf is a number, rejecting
the strings, bools and nulls ``float()`` takes, then the shape and that every
entry is finite; and it reads inside ``naming``, so that any KeyError,
TypeError, ValueError or OverflowError becomes a ValueError whose message
starts with the file's path (``path:line`` for a dataset record).  Scene
files check their obstacles as whole arrays in ``scene_from_dict`` instead.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .planner import Trajectory
from .scene import (
    DepthImage,
    PointCloud,
    Scene,
    WorkspaceBounds,
    check_json_numbers,
    json_array,
    validate_scene,
)


@contextmanager
def naming(where):
    """Re-raise any KeyError, TypeError, ValueError or OverflowError of the
    block as a ValueError whose message starts with ``where``."""
    try:
        yield
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        detail = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        raise ValueError(f"{where}: {detail}") from exc


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
    with naming(path):
        return scene_from_dict(json.loads(Path(path).read_text(encoding="utf-8")))


def _write_rows(path, header: str, rows) -> None:
    """A CSV of ``header`` and one line per row, each float as its repr."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


def _read_rows(path, header: str) -> np.ndarray:
    """The rows of a ``_write_rows`` CSV as a finite (n, columns) array."""
    names = header.split(",")
    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline().strip()
        if [c.strip() for c in first.split(",")] != names:
            raise ValueError(f"expected the header {header!r}, got {first!r}")
        rows = [[float(c) for c in line.split(",")] for line in fh if line.strip()]
    return json_array("rows", rows or np.zeros((0, len(names))), (-1, len(names)))


def save_cloud_csv(cloud: PointCloud, path) -> None:
    _write_rows(path, "x,y,z", cloud.points.tolist())


def load_cloud_csv(path) -> PointCloud:
    with naming(path):
        return PointCloud(_read_rows(path, "x,y,z"))


def save_trajectory_csv(traj: Trajectory, path) -> None:
    rows = np.column_stack((traj.times, traj.positions, traj.clearances))
    _write_rows(path, "t,x,y,z,clearance", rows.tolist())


def load_trajectory_csv(path) -> Trajectory:
    with naming(path):
        rows = _read_rows(path, "t,x,y,z,clearance")
        if not rows.size:
            raise ValueError("a trajectory needs at least one row")
        return Trajectory(times=rows[:, 0], positions=rows[:, 1:4], clearances=rows[:, 4])


def save_params(p: np.ndarray, path) -> None:
    Path(path).write_text(
        json.dumps(np.asarray(p, dtype=float).tolist()) + "\n", encoding="utf-8"
    )


def load_params(path) -> np.ndarray:
    with naming(path):
        return json_array("parameters", json.loads(Path(path).read_text(encoding="utf-8")), (-1,))


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
    with naming(path):
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
    sidecar_file = Path(sidecar_path) if sidecar_path is not None else _sidecar_path(path)
    with naming(f"{sidecar_file}: bad depth sidecar"):
        meta = json.loads(sidecar_file.read_text(encoding="utf-8"))
        return DepthImage(
            mm.astype(float) / 1000.0,
            *(float(json_array(k, meta[k], ())) for k in ("fx", "fy", "cx", "cy")),
            rotation=json_array("rotation", meta["rotation"], (3, 3)),
            translation=json_array("translation", meta["translation"], (3,)),
        )
