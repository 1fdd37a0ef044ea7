"""Hypothesis strategies shared by the property tests."""

import numpy as np
from hypothesis import strategies as st

from webfem.geometry import Complement, Conjunction, Disjunction, Disk, HalfPlane

_coord = st.floats(-1.0, 1.0)
_leaves = st.one_of(
    st.builds(Disk, st.tuples(_coord, _coord), st.floats(0.15, 1.2)),
    st.builds(HalfPlane,
              st.tuples(_coord, _coord).filter(lambda n: np.hypot(*n) > 0.1),
              st.floats(-0.8, 0.8)))


def r_trees(depth):
    """R-function trees of at most ``depth`` operations above the leaves."""
    if depth == 0:
        return _leaves
    sub = r_trees(depth - 1)
    return st.one_of(_leaves, st.builds(Conjunction, sub, sub),
                     st.builds(Disjunction, sub, sub),
                     st.builds(Complement, sub))
