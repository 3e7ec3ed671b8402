"""Shared test inputs: positions of a ``Trajectory`` between its waypoints,
for clearance tests, and lattice teams, for degenerate geometry."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from braidplan.geometry import Trajectory

LATTICE_PATH = st.lists(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=2, max_size=5
)
LATTICE_ANGLES = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi, 1.0)


def lattice_team(paths: list[list[tuple[int, int]]]) -> list[Trajectory]:
    """Robots 1, 2, ... through integer waypoints at integer times, so exact
    ties and simultaneous crossings are common."""
    return [
        Trajectory(rid, tuple((float(x), float(y), float(t)) for t, (x, y) in enumerate(path)))
        for rid, path in enumerate(paths, start=1)
    ]


def position_at(traj: Trajectory, t: float) -> tuple[float, float]:
    """Linear interpolation between waypoints; held at the ends."""
    ts = traj.times()
    pts = traj.positions()
    return float(np.interp(t, ts, pts[:, 0])), float(np.interp(t, ts, pts[:, 1]))
