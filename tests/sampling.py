"""Shared test inputs: positions of a ``Trajectory`` between its waypoints,
for clearance tests, float teams, for geometry in general position, and
lattice teams, for degenerate geometry."""

from __future__ import annotations

import math

import numpy as np
from hypothesis import strategies as st

from braidplan.geometry import Trajectory

LATTICE_PATH = st.lists(
    st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=2, max_size=5
)
LATTICE_ANGLES = (0.0, math.pi / 4, math.pi / 2, 3 * math.pi / 4, math.pi, 1.0)


def float_team(rng, n, waypoints=4, horizon=8.0) -> list[Trajectory]:
    """Robots 1..n through uniform random waypoints in a 10 x 10 square at
    random times, so ties and simultaneous crossings are almost surely absent."""
    paths = []
    for rid in range(1, n + 1):
        times = sorted(rng.uniform(0.5, horizon) for _ in range(waypoints - 1))
        ts = [0.0] + times
        pts = [(rng.uniform(0, 10), rng.uniform(0, 10), t) for t in ts]
        paths.append(Trajectory(rid, tuple(pts)))
    return paths


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
