"""Positions of a ``Trajectory`` between its waypoints, for clearance tests."""

from __future__ import annotations

import numpy as np

from braidplan.geometry import Trajectory


def position_at(traj: Trajectory, t: float) -> tuple[float, float]:
    """Linear interpolation between waypoints; held at the ends."""
    ts = traj.times()
    pts = traj.positions()
    return float(np.interp(t, ts, pts[:, 0])), float(np.interp(t, ts, pts[:, 1]))
