"""Shared test inputs and oracles on the permutation grid: random rank
pairs, inversion counts, breadth-first distances with no braid checks, and
a square workspace."""

from __future__ import annotations

import random
from collections import deque

from braidplan.planner import PermutationState
from braidplan.workspace import WorkspaceConfig


def random_perms(rng: random.Random, n: int) -> PermutationState:
    p1 = list(range(1, n + 1))
    p2 = list(range(1, n + 1))
    rng.shuffle(p1)
    rng.shuffle(p2)
    return PermutationState(tuple(p1), tuple(p2))


def inversions(p: tuple[int, ...], q: tuple[int, ...]) -> int:
    """Adjacent swaps needed to re-rank p into q (Kendall tau)."""
    seq = [p[r] for r in sorted(range(len(p)), key=lambda r: q[r])]
    return sum(1 for x in range(len(seq)) for y in range(x + 1, len(seq)) if seq[x] > seq[y])


def grid_distances(start: tuple[tuple[int, ...], tuple[int, ...]]) -> dict[tuple, int]:
    """Fewest swaps of adjacent ranks, on either axis and with no braid
    check, from ``start`` = (pi1, pi2) to every rank pair, by a from-scratch
    breadth-first search that shares no code with the planner."""

    def neighbors(state):
        pi1, pi2 = state
        for axis, pi in ((1, pi1), (2, pi2)):
            for r in range(1, len(pi)):
                swapped = tuple(r + 1 if v == r else (r if v == r + 1 else v) for v in pi)
                yield (swapped, pi2) if axis == 1 else (pi1, swapped)

    dist = {start: 0}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        for nxt in neighbors(state):
            if nxt not in dist:
                dist[nxt] = dist[state] + 1
                queue.append(nxt)
    return dist


def workspace_config(side: float = 12.0) -> WorkspaceConfig:
    return WorkspaceConfig(
        xmin=0.0, xmax=side, ymin=0.0, ymax=side,
        cell_size=1.0, d_safe=1.0, speed=1.0,
    )
