"""The benchmark's workloads: which task sequences each one plans.

A workload is a list of units, each a scenario that ``run_task_sequence``
plans, executes and verifies from a fresh braid table.  One round runs every
unit once, in an order drawn from the seed.

Plan time is heavy-tailed: a query that hits the planner's 20k-expansion
stall costs 7-17 s, a quarter to a half of a run, while a typical n = 8
query costs 0.03 s.  Drawing new n = 8 or n = 10 scenarios per seed would change how many
stalls a run contains and swamp every metric, so those two workloads plan a
fixed battery and the seed only shuffles the order of its independent units.
The n = 3 workload has no such tail, so its scenarios come from the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    tail_percentile: float
    """Percentile reported as ``plan_tail_ms``: the highest with at least ten
    episodes of a run beyond it, except on ``trio-long`` (see below)."""

    def unit_specs(self, seed: int) -> list[tuple[int, int, int]]:
        """``(n, num_sets, scenario_seed)`` per unit, in round order."""
        if self.name == "trio-long":
            return [(3, 1000, 3 * seed + k) for k in range(3)]
        if self.name == "team8-carry":
            specs = [(8, 11, 11), (8, 33, 12), (8, 33, 13)]
        elif self.name == "fresh-n10":
            specs = [(10, 1, s) for s in range(1000, 1060)]
        else:
            raise ValueError(f"unknown workload {self.name!r}")
        random.Random(seed).shuffle(specs)
        return specs

    def scenarios(self, seed: int) -> list:
        # Imported here so that run.py can read the workload names without
        # importing braidplan; the worker times that import as set-up.
        from braidplan.harness import make_scenario

        return [make_scenario(n, sets, s) for n, sets, s in self.unit_specs(seed)]


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's 3-robot hardware team on long missions.  Planning is
        # cheap here, so execution, separation sampling and verification show.
        # Above p99 its sub-millisecond plan times are one-off stalls of the
        # host: p99.8 spread 40-50% between runs, p99 6%.
        Workload("trio-long", 99.0),
        # Carried braid tables at n = 8: each episode plans against the tangle
        # the earlier ones left; two episodes reach the 20k-expansion stall.
        Workload("team8-carry", 87.0),
        # Independent n = 10 missions from a clean table: the largest team and
        # braid tables; two queries stall although the table is clean.
        Workload("fresh-n10", 83.0),
    )
}
