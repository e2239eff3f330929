import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachtrack.geometry import (
    point_aabb_distance,
    point_segment_distance,
    segment_aabb_distance,
    segment_aabb_intersects,
    segment_distances,
    signed_point_cone_distance,
)

coords = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
vec3 = st.tuples(coords, coords, coords)


def test_point_segment_distance_basic():
    assert point_segment_distance(np.array([0.0, 1.0, 0.0]),
                                  [-1, 0, 0], [1, 0, 0]) == pytest.approx(1.0)
    # Beyond the endpoint: distance to the endpoint.
    assert point_segment_distance(np.array([2.0, 1.0, 0.0]),
                                  [-1, 0, 0], [1, 0, 0]) == pytest.approx(np.sqrt(2.0))
    # Degenerate segment.
    assert point_segment_distance(np.array([3.0, 4.0, 0.0]),
                                  [0, 0, 0], [0, 0, 0]) == pytest.approx(5.0)


def test_point_segment_distance_batch_matches_scalar(rng):
    a, b = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
    pts = rng.uniform(-2, 2, (40, 3))
    batch = point_segment_distance(pts, a, b)
    for p, d in zip(pts, batch):
        assert d == pytest.approx(point_segment_distance(p, a, b), abs=1e-12)


def test_segment_segment_distance_cases():
    ends = np.array([
        [[0, 0, 0], [1, 0, 0], [0, 1, 0], [1, 1, 0]],          # parallel, unit-separated
        [[-1, 0, 0], [1, 0, 0], [0, -1, 1], [0, 1, 1]],        # crossing
        [[0, 0, 0], [1, 0, 0], [1, 0, 0], [2, 5, 0]],          # sharing an endpoint
        # Short perpendicular segments meeting at the origin are not parallel.
        [[0, 4.3e-5, 0], [0, 0, 0], [0, 0, 0], [0, 0, 0.002]],
        # A very short segment is not a point: it ends on the other one.
        [[0, 0, 1.4e-8], [0, 0, 0], [0, 0, 0], [0, 0, 0]],
        [[0, 0, 0], [0, 0, 0], [0, 0, 1.4e-8], [0, 0, 0]],
    ], dtype=float)
    d = segment_distances(ends[:, 0], ends[:, 1], ends[:, 2], ends[:, 3])
    assert d[:3] == pytest.approx([1.0, 1.0, 0.0])
    assert np.all(d[3:] == 0.0)


def test_segment_distances_rows_match_pairs(rng):
    """A row of a batch equals the same pair alone, degenerate rows included."""
    ends = rng.uniform(-1, 1, (200, 4, 3))
    ends[:20, 1] = ends[:20, 0]                  # segment 1 a point
    ends[20:40, 3] = ends[20:40, 2]              # segment 2 a point
    ends[40:50, 1], ends[40:50, 3] = ends[40:50, 0], ends[40:50, 2]
    ends[50:70, 3] = ends[50:70, 2] + (ends[50:70, 1] - ends[50:70, 0])   # parallel
    rows = segment_distances(ends[:, 0], ends[:, 1], ends[:, 2], ends[:, 3])
    for row, (p1, q1, p2, q2) in zip(rows, ends):
        assert row == segment_distances(p1, q1, p2, q2)


@given(p1=vec3, q1=vec3, p2=vec3, q2=vec3)
@settings(max_examples=150, deadline=None)
def test_segment_segment_distance_vs_sampling(p1, q1, p2, q2):
    d = segment_distances(*np.array([[p1, q1, p2, q2]], dtype=float).transpose(1, 0, 2))[0]
    ts = np.linspace(0.0, 1.0, 25)
    a = np.asarray(p1) + ts[:, None] * (np.asarray(q1) - np.asarray(p1))
    b = np.asarray(p2) + ts[:, None] * (np.asarray(q2) - np.asarray(p2))
    sampled = np.linalg.norm(a[:, None, :] - b[None, :, :], axis=2).min()
    assert d <= sampled + 1e-9
    assert d >= sampled - 0.5  # sampling is coarse; d is never wildly below


def test_point_aabb_distance():
    lo, hi = np.zeros(3), np.ones(3)
    assert point_aabb_distance(np.array([0.5, 0.5, 0.5]), lo, hi) == 0.0
    assert point_aabb_distance(np.array([2.0, 0.5, 0.5]), lo, hi) == pytest.approx(1.0)
    assert point_aabb_distance(np.array([2.0, 2.0, 0.5]), lo, hi) == pytest.approx(np.sqrt(2))


def test_segment_aabb_intersects():
    lo, hi = np.zeros(3), np.ones(3)
    assert segment_aabb_intersects([-1, 0.5, 0.5], [2, 0.5, 0.5], lo, hi)
    assert not segment_aabb_intersects([-1, 2.0, 0.5], [2, 2.0, 0.5], lo, hi)
    # Fully inside.
    assert segment_aabb_intersects([0.2, 0.2, 0.2], [0.8, 0.8, 0.8], lo, hi)


def test_segment_aabb_distance_matches_sampling(rng):
    lo, hi = np.array([-0.5, -0.5, -0.5]), np.array([0.5, 0.5, 0.5])
    for _ in range(30):
        a = rng.uniform(-2, 2, 3)
        b = rng.uniform(-2, 2, 3)
        d = segment_aabb_distance(a, b, lo, hi)
        ts = np.linspace(0, 1, 2001)
        pts = a + ts[:, None] * (b - a)
        sampled = point_aabb_distance(pts, lo, hi).min()
        assert d == pytest.approx(sampled, abs=1e-5)


class TestConeDistance:
    apex = np.zeros(3)
    axis = np.array([0.0, 0.0, 1.0])
    length = 1.0
    base_radius = 0.1

    def signed(self, p):
        return signed_point_cone_distance(np.asarray(p, dtype=float), self.apex,
                                          self.axis, self.length, self.base_radius)

    def test_point_on_axis_midway_penetrates_to_lateral_surface(self):
        # At (0,0,0.5): nearest boundary is the lateral surface.
        expected = -0.5 * self.base_radius / np.hypot(self.length, self.base_radius)
        assert self.signed([0.0, 0.0, 0.5]) == pytest.approx(expected, abs=1e-12)

    def test_point_behind_apex_distance_to_apex(self):
        assert self.signed([0.0, 0.0, -2.0]) == pytest.approx(2.0, abs=1e-12)

    def test_point_beyond_base_distance_to_disk(self):
        assert self.signed([0.0, 0.0, 1.7]) == pytest.approx(0.7, abs=1e-12)

    def test_point_radially_outside(self):
        # At the base plane, radius 0.5: distance to the base edge corner region.
        d = self.signed([0.5, 0.0, 1.0])
        assert d == pytest.approx(0.4, abs=1e-12)

    def test_sign_flip_crossing_lateral_surface(self):
        outside = self.signed([0.2, 0.0, 0.9])
        inside = self.signed([0.0, 0.0, 0.9])
        assert outside > 0.0 > inside

    def test_batch_matches_scalar(self, rng):
        pts = rng.uniform(-1, 2, (50, 3))
        batch = signed_point_cone_distance(pts, self.apex, self.axis,
                                           self.length, self.base_radius)
        for p, d in zip(pts, batch):
            assert d == pytest.approx(self.signed(p), abs=1e-12)

    def test_cone_batch_matches_single_cones(self, rng):
        """Apex, axis and length broadcast over a leading cone axis; rows equal
        single-cone calls exactly, also for a base edge shorter than 1e-9 m."""
        pts = rng.uniform(-1, 2, (30, 3))
        apexes = rng.uniform(-0.5, 0.5, (6, 3))
        axes = rng.normal(size=(6, 3))
        axes /= np.linalg.norm(axes, axis=1)[:, None]
        lengths = rng.uniform(0.5, 1.5, 6)
        for radius in (self.base_radius, 1e-10):
            rows = signed_point_cone_distance(pts, apexes[:, None], axes[:, None],
                                              lengths[:, None], radius)
            assert rows.shape == (6, 30)
            for row, apex, axis, length in zip(rows, apexes, axes, lengths):
                single = signed_point_cone_distance(pts, apex, axis, length, radius)
                assert np.array_equal(row, single)
                for p, d in zip(pts, single):
                    assert d == signed_point_cone_distance(p, apex, axis, length, radius)
