"""Entanglement-free path planning for teams of tethered robots.

Robots dragging cables from fixed bases can tangle: whether they do is a
topological property of the braid their trajectories weave over time, not
of any instantaneous configuration.  This package tracks those braids
exactly for every robot pair and triplet, rejects the patterns that
tighten into entanglement, and plans team motions on a permutation grid
so that the guarantee holds along the whole trajectory, episode after
episode.

Layers, bottom up:

* ``braid``: braid words on two and three strands, an exact matrix
  representation, and the forbidden-pattern membership tests.
* ``geometry``: timed trajectories, space-time lifting, and crossing
  extraction on arbitrary projection planes.
* ``planner``: best-first search over rank permutations with incremental
  braid bookkeeping.
* ``workspace``: the grid-to-workspace mapping, trajectory synthesis,
  and braid carryover between planning episodes.
* ``harness``: scenario running, separation sampling, and the
  independent multi-angle verifier.
* ``cli`` and ``plot``: file contracts, subcommands, and SVG output.
"""

from .braid import (
    BraidLetter,
    BraidWord,
    LaurentMatrix,
    LaurentPoly,
    PairBraidState,
    TripletBraidState,
    burau,
    forbidden_triplet_matrices,
    free_reduce,
    identity_pair,
    identity_triplet,
    is_forbidden_triplet,
    pair_state,
    triplet_state_from_word,
    update_pair,
    update_triplet,
)
from .errors import (
    ConfigurationError,
    DegenerateInputError,
    EntanglementAlarm,
    InputError,
)
from .geometry import (
    CrossingEvent,
    ProjectionAxis,
    SpaceTimeTrajectory,
    Trajectory,
    build_space_time,
    extract_crossings,
    sub_braid,
    sub_events,
)
from .harness import (
    EntanglementReport,
    RunMetrics,
    Scenario,
    SetResult,
    SimulationResult,
    Violation,
    make_scenario,
    random_targets,
    run_task_sequence,
    simulate,
    verify,
)
from .planner import (
    AXIS_ANGLES,
    BraidTable,
    PermutationState,
    PlanResult,
    SearchTrace,
    SwapAction,
    action_space,
    braid_letter_for_action,
    heuristic,
    plan,
)
from .plot import render_braid_svg, render_paths_svg
from .workspace import (
    WorkspaceConfig,
    carry_over_braids,
    grid_cells,
    map_path,
    ranks_from_positions,
)

__version__ = "0.1.0"

__all__ = [
    "AXIS_ANGLES",
    "BraidLetter",
    "BraidTable",
    "BraidWord",
    "ConfigurationError",
    "CrossingEvent",
    "DegenerateInputError",
    "EntanglementAlarm",
    "EntanglementReport",
    "InputError",
    "LaurentMatrix",
    "LaurentPoly",
    "PairBraidState",
    "PermutationState",
    "PlanResult",
    "ProjectionAxis",
    "RunMetrics",
    "Scenario",
    "SearchTrace",
    "SetResult",
    "SimulationResult",
    "SpaceTimeTrajectory",
    "SwapAction",
    "Trajectory",
    "TripletBraidState",
    "Violation",
    "WorkspaceConfig",
    "action_space",
    "braid_letter_for_action",
    "build_space_time",
    "burau",
    "carry_over_braids",
    "extract_crossings",
    "forbidden_triplet_matrices",
    "free_reduce",
    "grid_cells",
    "heuristic",
    "identity_pair",
    "identity_triplet",
    "pair_state",
    "triplet_state_from_word",
    "is_forbidden_triplet",
    "make_scenario",
    "map_path",
    "plan",
    "random_targets",
    "ranks_from_positions",
    "render_braid_svg",
    "render_paths_svg",
    "run_task_sequence",
    "simulate",
    "sub_braid",
    "sub_events",
    "update_pair",
    "update_triplet",
    "verify",
]
