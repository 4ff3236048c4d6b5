"""Minimal SVG rendering of a plan: three axis-aligned projections with the
workspace box, obstacle disks, the trajectory polyline and start/goal marks.
Output is plain deterministic SVG text, no plotting dependencies."""

from __future__ import annotations

from .planner import Trajectory
from .scene import Scene

_PANEL = 300.0
_PAD = 34.0
_PROJECTIONS = ((0, 1, "x", "y"), (0, 2, "x", "z"), (1, 2, "y", "z"))


def _panel(scene: Scene, traj: Trajectory, ax: int, ay: int, lx: str, ly: str, x0: float) -> str:
    ws = scene.workspace
    span = max(float(ws.max[ax] - ws.min[ax]), float(ws.max[ay] - ws.min[ay]))
    scale = _PANEL / span

    def sx(v: float) -> float:
        return x0 + (v - float(ws.min[ax])) * scale

    def sy(v: float) -> float:
        # flip: SVG y grows downward
        return _PAD + _PANEL - (v - float(ws.min[ay])) * scale

    parts = [
        f'<rect x="{x0:.1f}" y="{_PAD:.1f}" '
        f'width="{(ws.max[ax] - ws.min[ax]) * scale:.1f}" '
        f'height="{(ws.max[ay] - ws.min[ay]) * scale:.1f}" '
        f'fill="none" stroke="#888" stroke-width="1"/>',
        f'<text x="{x0 + 4:.1f}" y="{_PAD - 8:.1f}" font-size="13" '
        f'font-family="sans-serif" fill="#333">{lx}-{ly}</text>',
    ]
    for center, radius in zip(scene.centers, scene.radii):
        parts.append(
            f'<circle cx="{sx(center[ax]):.2f}" cy="{sy(center[ay]):.2f}" '
            f'r="{radius * scale:.2f}" fill="#d9534f" fill-opacity="0.25" '
            f'stroke="#d9534f" stroke-width="0.5"/>'
        )
    pts = " ".join(
        f"{sx(p[ax]):.2f},{sy(p[ay]):.2f}" for p in traj.positions
    )
    parts.append(
        f'<polyline points="{pts}" fill="none" stroke="#1f6feb" stroke-width="1.5"/>'
    )
    parts.append(
        f'<circle cx="{sx(scene.start[ax]):.2f}" cy="{sy(scene.start[ay]):.2f}" '
        f'r="4" fill="#28a745"/>'
    )
    gx, gy = sx(scene.goal[ax]), sy(scene.goal[ay])
    parts.append(
        f'<path d="M {gx - 4:.2f} {gy - 4:.2f} L {gx + 4:.2f} {gy + 4:.2f} '
        f'M {gx - 4:.2f} {gy + 4:.2f} L {gx + 4:.2f} {gy - 4:.2f}" '
        f'stroke="#b01aae" stroke-width="2.5" fill="none"/>'
    )
    return "\n".join(parts)


def plan_svg(scene: Scene, traj: Trajectory) -> str:
    """Render the scene and trajectory as an SVG document string."""
    width = 3 * (_PANEL + _PAD) + _PAD
    height = _PANEL + 2 * _PAD
    panels = [
        _panel(scene, traj, ax, ay, lx, ly, _PAD + i * (_PANEL + _PAD))
        for i, (ax, ay, lx, ly) in enumerate(_PROJECTIONS)
    ]
    body = "\n".join(panels)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">\n'
        f'<rect width="100%" height="100%" fill="white"/>\n{body}\n</svg>\n'
    )


def save_plan_svg(scene: Scene, traj: Trajectory, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(plan_svg(scene, traj))
