import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from reachtrack.scenarios import TargetPath, TargetSpec

corners = st.tuples(*[st.floats(-3.0, 3.0)] * 3)
sizes = st.tuples(*[st.floats(0.01, 2.0)] * 3)
steps = st.lists(st.floats(0.0, 3.0), min_size=1, max_size=12)
seeds = st.integers(0, 2**32 - 1)


def _path(lo, size, seed, mode="walk"):
    hi = tuple(a + b for a, b in zip(lo, size))
    return TargetPath(TargetSpec(mode=mode, box_lo=lo, box_hi=hi),
                      np.random.default_rng(seed))


@given(lo=corners, size=sizes, dists=steps, seed=seeds)
@settings(max_examples=200, deadline=None)
def test_advance_stays_in_box_and_moves_at_most_dist(lo, size, dists, seed):
    """Each step stays inside the target box (to rounding) and moves at most
    its path length in a straight line; waypoint corners only shorten it."""
    path = _path(lo, size, seed)
    pos = path.pos.copy()
    for dist in dists:
        nxt = path.advance(dist)
        assert np.all(nxt >= path.lo - 1e-12) and np.all(nxt <= path.hi + 1e-12)
        assert np.linalg.norm(nxt - pos) <= dist + 1e-12
        pos = nxt


@given(lo=corners, size=sizes, dists=steps, seed=seeds)
@settings(max_examples=100, deadline=None)
def test_zero_step_and_stationary_target_hold_position(lo, size, dists, seed):
    path = _path(lo, size, seed)
    for dist in dists:
        pos = path.pos.copy()
        assert np.array_equal(path.advance(0.0), pos)
        path.advance(dist)
    still = _path(lo, size, seed, mode="stationary")
    pos = still.pos.copy()
    for dist in dists:
        assert np.array_equal(still.advance(dist), pos)
