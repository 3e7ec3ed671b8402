"""SVG rendering of robot paths and braid diagrams.

Two views: ``render_paths_svg`` draws the workspace from above with one
colored polyline per robot, and ``render_braid_svg`` draws the braid the
team weaves on one projection plane, strands ordered left to right by
rank and time running upward.  At every crossing the under strand gets a
short gap so over/under is visible, mirroring the sign of the recorded
letter.  Plain SVG strings, no rendering dependencies; tests assert on
element structure.
"""

from __future__ import annotations

import colorsys
import math
from typing import Sequence

import numpy as np

from .errors import InputError
from .geometry import ProjectionAxis, Trajectory, build_space_time, extract_crossings

__all__ = ["strand_palette", "render_paths_svg", "render_braid_svg"]

# Canvas sizes in pixels: the longer side of the paths view, and the braid view.
PATHS_SIZE = 640
BRAID_WIDTH, BRAID_HEIGHT = 640, 480


def strand_palette(n: int) -> list[str]:
    """n visually spread hex colors, stable across calls."""
    colors = []
    for k in range(n):
        r, g, b = colorsys.hls_to_rgb((k / max(n, 1)) % 1.0, 0.45, 0.85)
        colors.append(f"#{int(r * 255):02x}{int(g * 255):02x}{int(b * 255):02x}")
    return colors


def _fmt(x: float) -> str:
    return f"{x:.2f}"


def render_paths_svg(
    trajectories: Sequence[Trajectory],
    *,
    workspace: tuple[float, float, float, float] | None = None,
    bases: Sequence[tuple[float, float]] | None = None,
    targets: Sequence[tuple[float, float]] | None = None,
) -> str:
    """Top-down view: workspace rectangle, paths, bases, and targets."""
    if not trajectories:
        raise InputError("nothing to plot")
    trajs = sorted(trajectories, key=lambda t: t.robot_id)
    pts = np.vstack([t.positions() for t in trajs])
    extra = [p for group in (bases, targets) if group for p in group]
    if extra:
        pts = np.vstack([pts, np.asarray(extra, dtype=float)])
    if workspace is not None:
        xmin, xmax, ymin, ymax = workspace
    else:
        xmin, ymin = pts.min(axis=0)
        xmax, ymax = pts.max(axis=0)
    span_x = max(xmax - xmin, 1e-9)
    span_y = max(ymax - ymin, 1e-9)
    margin = 0.05 * max(span_x, span_y)
    xmin, xmax = xmin - margin, xmax + margin
    ymin, ymax = ymin - margin, ymax + margin
    span_x, span_y = xmax - xmin, ymax - ymin

    pad = 20.0
    scale = (PATHS_SIZE - 2 * pad) / max(span_x, span_y)
    width = 2 * pad + span_x * scale
    height = 2 * pad + span_y * scale

    def px(x: float) -> float:
        return pad + (x - xmin) * scale

    def py(y: float) -> float:
        return height - pad - (y - ymin) * scale

    colors = strand_palette(len(trajs))
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="white"/>',
    ]
    if workspace is not None:
        wx0, wx1 = px(workspace[0]), px(workspace[1])
        wy0, wy1 = py(workspace[3]), py(workspace[2])
        parts.append(
            f'<rect class="workspace" x="{_fmt(wx0)}" y="{_fmt(wy0)}" '
            f'width="{_fmt(wx1 - wx0)}" height="{_fmt(wy1 - wy0)}" '
            f'fill="none" stroke="#888888" stroke-width="1"/>'
        )
    if bases:
        for k, (bx, by) in enumerate(bases):
            parts.append(
                f'<rect class="base" x="{_fmt(px(bx) - 4)}" y="{_fmt(py(by) - 4)}" '
                f'width="8" height="8" fill="none" stroke="#444444" stroke-width="1.5"/>'
            )
    for color, traj in zip(colors, trajs):
        coords = traj.positions()
        points = " ".join(f"{_fmt(px(x))},{_fmt(py(y))}" for x, y in coords)
        parts.append(
            f'<polyline class="path" data-robot="{traj.robot_id}" points="{points}" '
            f'fill="none" stroke="{color}" stroke-width="2"/>'
        )
        x0, y0 = coords[0]
        parts.append(
            f'<circle class="start" data-robot="{traj.robot_id}" '
            f'cx="{_fmt(px(x0))}" cy="{_fmt(py(y0))}" r="4" fill="{color}"/>'
        )
        parts.append(
            f'<text class="label" x="{_fmt(px(x0) + 6)}" y="{_fmt(py(y0) - 6)}" '
            f'font-size="11" fill="#222222">{traj.robot_id}</text>'
        )
    if targets:
        for color, (tx, ty) in zip(colors, targets):
            cx, cy = px(tx), py(ty)
            parts.append(
                f'<g class="target" stroke="{color}" stroke-width="2">'
                f'<line x1="{_fmt(cx - 5)}" y1="{_fmt(cy - 5)}" '
                f'x2="{_fmt(cx + 5)}" y2="{_fmt(cy + 5)}"/>'
                f'<line x1="{_fmt(cx - 5)}" y1="{_fmt(cy + 5)}" '
                f'x2="{_fmt(cx + 5)}" y2="{_fmt(cy - 5)}"/>'
                f"</g>"
            )
    parts.append("</svg>")
    return "\n".join(parts)


def render_braid_svg(trajectories: Sequence[Trajectory], angle: float) -> str:
    """Braid diagram on one projection plane: strands by rank, time upward."""
    if not trajectories:
        raise InputError("nothing to plot")
    if not math.isfinite(angle):
        raise InputError("projection angle must be finite")
    trajs = sorted(trajectories, key=lambda t: t.robot_id)
    axis = ProjectionAxis(angle)
    lifted = build_space_time(trajs)
    U = axis.u(lifted.xy)
    if lifted.horizon > 0:
        grid = lifted.grid
        events = extract_crossings(lifted, axis)
    else:
        # A stationary team is drawn as straight strands over a unit time span.
        grid = np.array([0.0, 1.0])
        U = np.repeat(U, 2, axis=1)
        events = []
    horizon = float(grid[-1])

    umin, umax = float(U.min()), float(U.max())
    span_u = max(umax - umin, 1e-9)
    pad = 40.0

    def px(u: float) -> float:
        return pad + (u - umin) / span_u * (BRAID_WIDTH - 2 * pad)

    def py(t: float) -> float:
        return BRAID_HEIGHT - pad - (t / horizon) * (BRAID_HEIGHT - 2 * pad)

    colors = strand_palette(len(trajs))
    id_row = {t.robot_id: k for k, t in enumerate(trajs)}
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{BRAID_WIDTH}" height="{BRAID_HEIGHT}" '
        f'viewBox="0 0 {BRAID_WIDTH} {BRAID_HEIGHT}">',
        f'<rect x="0" y="0" width="{BRAID_WIDTH}" height="{BRAID_HEIGHT}" fill="white"/>',
        f'<text class="axis-label" x="{pad:.0f}" y="{pad / 2:.0f}" font-size="12" '
        f'fill="#222222">projection angle {angle:.4g} rad, time upward</text>',
    ]
    for color, traj in zip(colors, trajs):
        row = id_row[traj.robot_id]
        points = " ".join(f"{_fmt(px(U[row, k]))},{_fmt(py(grid[k]))}" for k in range(len(grid)))
        parts.append(
            f'<polyline class="strand" data-robot="{traj.robot_id}" points="{points}" '
            f'fill="none" stroke="{color}" stroke-width="2"/>'
        )
    window = 0.02 * horizon
    for ev in events:
        left = ev.order_before[ev.letter.index - 1]
        right = ev.order_before[ev.letter.index]
        over = left if ev.letter.sign > 0 else right
        under = right if ev.letter.sign > 0 else left
        t0, t1 = max(ev.time - window, 0.0), min(ev.time + window, horizon)
        su0 = float(np.interp(t0, grid, U[id_row[under]]))
        su1 = float(np.interp(t1, grid, U[id_row[under]]))
        so0 = float(np.interp(t0, grid, U[id_row[over]]))
        so1 = float(np.interp(t1, grid, U[id_row[over]]))
        parts.append(
            f'<g class="crossing" data-ids="{ev.i},{ev.j}" data-time="{ev.time:.6g}" '
            f'data-letter="{ev.letter}">'
            f'<line class="gap" x1="{_fmt(px(su0))}" y1="{_fmt(py(t0))}" '
            f'x2="{_fmt(px(su1))}" y2="{_fmt(py(t1))}" stroke="white" stroke-width="7"/>'
            f'<line class="over" x1="{_fmt(px(so0))}" y1="{_fmt(py(t0))}" '
            f'x2="{_fmt(px(so1))}" y2="{_fmt(py(t1))}" '
            f'stroke="{colors[id_row[over]]}" stroke-width="2"/>'
            f"</g>"
        )
    parts.append("</svg>")
    return "\n".join(parts)
