"""Entanglement-free path planning for teams of tethered robots.

Robots dragging cables from fixed bases can tangle: whether they do is a
topological property of the braid their trajectories weave over time, not
of any instantaneous configuration.  This package tracks those braids
exactly for every robot pair and triplet, rejects the patterns that
tighten into entanglement, and plans team motions on a permutation grid
so that the guarantee holds along the whole trajectory, episode after
episode.

Layers, bottom up:

* ``braid``: braid words on two and three strands, an exact integer key
  for three-strand braids (a 2x2 matrix and the exponent sum), and the
  checked braid states: a pair's crossing count, a triplet's small int id.
* ``geometry``: timed trajectories, space-time lifting, and crossing
  extraction on arbitrary projection planes.
* ``planner``: best-first search over rank permutations with incremental
  braid bookkeeping.
* ``workspace``: the grid-to-workspace mapping and trajectory synthesis.
* ``harness``: scenario running, exact separation checks, and the
  independent multi-angle verifier, which folds executed crossings into
  braid tables and carries them between planning episodes.
* ``cli`` and ``plot``: file contracts, subcommands, and SVG output.

Import each name from its submodule, e.g. ``from braidplan.planner import plan``.
"""

__version__ = "0.1.0"
