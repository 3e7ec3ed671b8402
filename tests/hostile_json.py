"""Hostile JSON for property tests: one key or nested value of a valid
document replaced at random."""

from __future__ import annotations

import copy

from hypothesis import strategies as st

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda inner: (
        st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner, max_size=4)
    ),
    max_leaves=8,
)


@st.composite
def hostile(draw, doc):
    """``doc`` with one value, or one key's name, replaced anywhere in its tree."""
    holder = [copy.deepcopy(doc)]
    parent, key = holder, 0
    while draw(st.booleans()):
        node = parent[key]
        if not isinstance(node, (dict, list)) or not node:
            break
        keys = sorted(node) if isinstance(node, dict) else range(len(node))
        parent, key = node, draw(st.sampled_from(keys))
    if isinstance(parent, dict) and draw(st.booleans()):
        parent[draw(st.text(max_size=6))] = parent.pop(key)
    else:
        parent[key] = draw(JSON_VALUES)
    return holder[0]
