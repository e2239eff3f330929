import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachtrack.world import (
    NO_OCCUPANCY_DISTANCE,
    Box,
    GridTooSmallError,
    ObstacleBody,
    OccupancyGrid,
    PlacedBody,
    SightCone,
    Sphere,
    capsule_body_distance,
    cone_grid_distance,
    min_body_distance,
    point_grid_distance,
    rasterize,
    segment_visibility,
)


def _grid_with_cells(origin, res, dims, occupied):
    grid = OccupancyGrid.empty(origin, res, dims)
    for idx in occupied:
        grid.cells[idx] = True
    return grid


class TestRasterize:
    def test_empty_scene_all_free(self):
        grid = rasterize([], (0, 0, 0), 0.1, (8, 8, 8))
        assert not grid.cells.any()

    def test_aligned_unit_box_count(self):
        # A 1 m box exactly aligned to a 0.1 m grid: interior voxels plus at
        # most one boundary layer of rounding.
        body = PlacedBody(shape=Box(half_extents=np.full(3, 0.5)),
                          center=np.array([1.0, 1.0, 1.0]), body_id="cube")
        grid = rasterize([body], (0, 0, 0), 0.1, (20, 20, 20))
        count = int(grid.cells.sum())
        interior = int(round(1.0 ** 3 / 0.1 ** 3))
        shell = 12 ** 3  # one extra voxel layer on each side
        assert interior <= count <= shell

    def test_voxel_oracle_point_in_box(self):
        body = PlacedBody(shape=Box(half_extents=np.array([0.3, 0.2, 0.1])),
                          center=np.array([0.55, 0.45, 0.35]), body_id="b")
        grid = rasterize([body], (0, 0, 0), 0.1, (10, 10, 10))
        lo, hi = body.shape.aabb(body.center)
        # Every voxel whose center lies strictly inside the box must be set;
        # every voxel farther than half a diagonal from the box must be free.
        for idx in np.ndindex(grid.dims):
            c = grid.cell_center(idx)
            if np.all(c > lo) and np.all(c < hi):
                assert grid.cells[idx]
            if np.any(c < lo - 0.06) or np.any(c > hi + 0.06):
                assert not grid.cells[idx]

    def test_sphere_voxelization(self):
        body = PlacedBody(shape=Sphere(radius=0.25),
                          center=np.array([0.5, 0.5, 0.5]), body_id="s")
        grid = rasterize([body], (0, 0, 0), 0.1, (10, 10, 10))
        # Center voxel occupied, corner voxels free.
        assert grid.cells[grid.index_of([0.5, 0.5, 0.5])]
        assert not grid.cells[0, 0, 0]

    def test_obstacle_inside_target_exclusion_all_free(self):
        body = PlacedBody(shape=Sphere(radius=0.05),
                          center=np.array([0.5, 0.5, 0.5]), body_id="s")
        target = PlacedBody(shape=Sphere(radius=0.2),
                            center=np.array([0.5, 0.5, 0.5]), body_id="target")
        grid = rasterize([body], (0, 0, 0), 0.1, (10, 10, 10), target_body=target)
        assert not grid.cells.any()

    def test_capsule_exclusion_clears_near_arm(self):
        body = PlacedBody(shape=Box(half_extents=np.full(3, 0.05)),
                          center=np.array([0.5, 0.5, 0.5]), body_id="b")
        capsule = (np.array([0.5, 0.5, 0.0]), np.array([0.5, 0.5, 1.0]), 0.05)
        grid = rasterize([body], (0, 0, 0), 0.1, (10, 10, 10),
                         exclude_capsules=[capsule])
        assert not grid.cells.any()

    def test_out_of_bounds_body_clipped_by_default(self):
        body = PlacedBody(shape=Box(half_extents=np.full(3, 0.3)),
                          center=np.array([0.0, 0.5, 0.5]), body_id="edge")
        grid = rasterize([body], (0, 0, 0), 0.1, (10, 10, 10))
        assert grid.cells.any()

    def test_strict_raises_naming_body(self):
        body = PlacedBody(shape=Box(half_extents=np.full(3, 0.3)),
                          center=np.array([0.0, 0.5, 0.5]), body_id="edge-case")
        with pytest.raises(GridTooSmallError, match="edge-case"):
            rasterize([body], (0, 0, 0), 0.1, (10, 10, 10), strict=True)

    def test_deterministic(self):
        body = PlacedBody(shape=Sphere(radius=0.2),
                          center=np.array([0.41, 0.52, 0.6]), body_id="s")
        a = rasterize([body], (0, 0, 0), 0.1, (10, 10, 10))
        b = rasterize([body], (0, 0, 0), 0.1, (10, 10, 10))
        assert np.array_equal(a.cells, b.cells)


class TestPointGridDistance:
    def test_empty_grid_sentinel(self):
        grid = OccupancyGrid.empty((0, 0, 0), 0.1, (4, 4, 4))
        assert point_grid_distance(grid, [0.2, 0.2, 0.2]) == NO_OCCUPANCY_DISTANCE

    def test_single_voxel_closed_form(self):
        grid = _grid_with_cells((0, 0, 0), 0.1, (10, 10, 10), [(5, 5, 5)])
        center = grid.cell_center((5, 5, 5))
        p = center + np.array([1.0, 0.0, 0.0])
        expected = 1.0 - 0.1 * math.sqrt(3) / 2
        assert point_grid_distance(grid, p) == pytest.approx(expected, abs=1e-12)

    def test_at_voxel_center_negative(self):
        grid = _grid_with_cells((0, 0, 0), 0.1, (10, 10, 10), [(5, 5, 5)])
        expected = -0.1 * math.sqrt(3) / 2
        assert point_grid_distance(grid, grid.cell_center((5, 5, 5))) == pytest.approx(
            expected, abs=1e-12)

    def test_brute_force_exact_equality(self, rng):
        for _ in range(20):
            dims = tuple(rng.integers(2, 12, 3))
            grid = OccupancyGrid.empty(rng.uniform(-1, 1, 3), 0.07, dims)
            mask = rng.random(dims) < 0.1
            grid.cells[:] = mask
            p = rng.uniform(-1.5, 1.5, 3)
            got = point_grid_distance(grid, p)
            expected = _brute_point_distance(grid, p)
            assert got == expected  # exact, not approx

    def test_batch_rows_equal_single_calls_and_brute_force(self, rng):
        for _ in range(10):
            dims = tuple(rng.integers(2, 12, 3))
            grid = OccupancyGrid.empty(rng.uniform(-1, 1, 3), 0.07, dims)
            grid.cells[:] = rng.random(dims) < 0.1
            pts = rng.uniform(-1.5, 1.5, (25, 3))
            rows = point_grid_distance(grid, pts)
            assert rows.shape == (25,)
            for p, row in zip(pts, rows):
                assert row == point_grid_distance(grid, p) == _brute_point_distance(grid, p)

    def test_batch_on_empty_grid_is_sentinel(self):
        grid = OccupancyGrid.empty((0, 0, 0), 0.1, (4, 4, 4))
        rows = point_grid_distance(grid, np.zeros((3, 3)))
        assert rows.shape == (3,) and np.all(rows == NO_OCCUPANCY_DISTANCE)

    def test_sign_changes_once_along_ray(self):
        grid = _grid_with_cells((0, 0, 0), 0.1, (10, 10, 10), [(5, 5, 5)])
        center = grid.cell_center((5, 5, 5))
        ts = np.linspace(0.0, 1.0, 200)
        signs = [point_grid_distance(grid, center + t * np.array([1.0, 0, 0])) > 0
                 for t in ts]
        flips = sum(1 for a, b in zip(signs, signs[1:]) if a != b)
        assert flips == 1


def _brute_point_distance(grid, p):
    best = NO_OCCUPANCY_DISTANCE
    half_diag = grid.resolution * math.sqrt(3.0) / 2.0
    for idx in np.ndindex(grid.dims):
        if not grid.cells[idx]:
            continue
        c = grid.cell_center(idx)
        dx, dy, dz = c[0] - p[0], c[1] - p[1], c[2] - p[2]
        d = math.sqrt(dx * dx + dy * dy + dz * dz) - half_diag
        if d < best:
            best = d
    return best


def _brute_cone_distance(grid, cone):
    from reachtrack.geometry import signed_point_cone_distance
    best = NO_OCCUPANCY_DISTANCE
    half_diag = grid.resolution * math.sqrt(3.0) / 2.0
    for idx in np.ndindex(grid.dims):
        if not grid.cells[idx]:
            continue
        d = signed_point_cone_distance(grid.cell_center(idx), cone.apex,
                                       cone.axis, cone.length, cone.base_radius)
        d -= half_diag
        if d < best:
            best = d
    return best


class TestConeGridDistance:
    def _cone(self):
        return SightCone(apex=np.array([0.5, 0.5, 0.0]),
                         axis=np.array([0.0, 0.0, 1.0]),
                         length=1.0, base_radius=0.1)

    def test_empty_grid_sentinel(self):
        grid = OccupancyGrid.empty((0, 0, 0), 0.1, (10, 10, 10))
        assert cone_grid_distance(grid, self._cone()) == NO_OCCUPANCY_DISTANCE

    def test_voxel_on_axis_midway_penetrates(self):
        grid = OccupancyGrid.empty((0, 0, 0), 0.1, (10, 10, 10))
        idx = (5, 5, 5)
        grid.cells[idx] = True
        center = grid.cell_center(idx)  # (0.55, 0.55, 0.55)
        # Apex directly below the voxel center: the center sits on the axis
        # midway, penetrating; magnitude is the distance to the lateral
        # surface plus the half-diagonal inflation.
        cone = SightCone(apex=np.array([center[0], center[1], 0.05]),
                         axis=np.array([0.0, 0.0, 1.0]),
                         length=1.0, base_radius=0.1)
        x = center[2] - 0.05
        d_lat = _point_to_2d_segment(x, 0.0, 0, 0, 1.0, 0.1)
        d_base = _point_to_2d_segment(x, 0.0, 1.0, 0.0, 1.0, 0.1)
        expected = -(min(d_lat, d_base) + 0.1 * math.sqrt(3) / 2)
        assert cone_grid_distance(grid, cone) == pytest.approx(expected, abs=1e-12)

    def test_voxel_behind_apex_positive(self):
        grid = OccupancyGrid.empty((0, -2, -2), 0.1, (10, 10, 10))
        idx = grid.index_of([0.5, -1.5, -1.5])
        grid.cells[idx] = True
        center = grid.cell_center(idx)
        cone = self._cone()
        expected = (np.linalg.norm(center - cone.apex) - 0.1 * math.sqrt(3) / 2)
        assert cone_grid_distance(grid, cone) == pytest.approx(expected, abs=1e-9)

    def test_brute_force_exact_equality(self, rng):
        for _ in range(15):
            dims = tuple(rng.integers(2, 10, 3))
            grid = OccupancyGrid.empty(rng.uniform(-1, 0, 3), 0.09, dims)
            grid.cells[:] = rng.random(dims) < 0.15
            axis = rng.normal(size=3)
            axis /= np.linalg.norm(axis)
            cone = SightCone(apex=rng.uniform(-1, 1, 3), axis=axis,
                             length=rng.uniform(0.5, 1.5),
                             base_radius=rng.uniform(0.05, 0.2))
            assert cone_grid_distance(grid, cone) == _brute_cone_distance(grid, cone)

    def test_batch_rows_equal_single_calls_and_brute_force(self, rng):
        for _ in range(8):
            dims = tuple(rng.integers(2, 10, 3))
            grid = OccupancyGrid.empty(rng.uniform(-1, 0, 3), 0.09, dims)
            grid.cells[:] = rng.random(dims) < 0.15
            axes = rng.normal(size=(12, 3))
            axes /= np.linalg.norm(axes, axis=1)[:, None]
            apexes = rng.uniform(-1, 1, (12, 3))
            lengths = rng.uniform(0.5, 1.5, 12)
            rows = cone_grid_distance(grid, SightCone(apex=apexes, axis=axes, length=lengths,
                                                      base_radius=0.1))
            assert rows.shape == (12,)
            for apex, axis, length, row in zip(apexes, axes, lengths, rows):
                cone = SightCone(apex=apex, axis=axis, length=length, base_radius=0.1)
                assert row == cone_grid_distance(grid, cone) == _brute_cone_distance(grid, cone)

    def test_batch_on_empty_grid_is_sentinel(self):
        grid = OccupancyGrid.empty((0, 0, 0), 0.1, (10, 10, 10))
        cones = SightCone(apex=np.zeros((2, 3)), axis=np.tile([0.0, 0.0, 1.0], (2, 1)),
                          length=np.ones(2), base_radius=0.1)
        rows = cone_grid_distance(grid, cones)
        assert rows.shape == (2,) and np.all(rows == NO_OCCUPANCY_DISTANCE)


def _point_to_2d_segment(px, py, ax, ay, bx, by):
    dx, dy = bx - ax, by - ay
    t = max(0.0, min(1.0, ((px - ax) * dx + (py - ay) * dy) / (dx * dx + dy * dy)))
    return math.hypot(px - (ax + t * dx), py - (ay + t * dy))


class TestVisibility:
    def test_no_obstacles_visible(self):
        assert segment_visibility([], [0, 0, 0], [1, 1, 1])

    def test_sphere_on_midpoint_blocks(self):
        body = PlacedBody(shape=Sphere(0.1), center=np.array([0.5, 0.0, 0.0]),
                          body_id="s")
        assert not segment_visibility([body], [0, 0, 0], [1, 0, 0])

    def test_sphere_offset_laterally_clear(self):
        # Offset by more than its radius from the segment.
        body = PlacedBody(shape=Sphere(0.1), center=np.array([0.5, 0.2, 0.0]),
                          body_id="s")
        assert segment_visibility([body], [0, 0, 0], [1, 0, 0])

    def test_box_blocks(self):
        body = PlacedBody(shape=Box(half_extents=np.full(3, 0.1)),
                          center=np.array([0.5, 0.0, 0.0]), body_id="b")
        assert not segment_visibility([body], [0, 0, 0], [1, 0, 0])


class TestObstacleBody:
    def test_piecewise_motion_and_stop(self):
        body = ObstacleBody(body_id="o", shape=Sphere(0.1),
                            waypoints=[[0, 0, 0], [1, 0, 0]], speeds=[0.5],
                            start_time=1.0)
        assert np.allclose(body.position_at(0.0), [0, 0, 0])
        assert np.allclose(body.position_at(1.0), [0, 0, 0])
        assert np.allclose(body.position_at(2.0), [0.5, 0, 0])
        assert np.allclose(body.position_at(3.0), [1.0, 0, 0])
        assert np.allclose(body.position_at(50.0), [1.0, 0, 0])  # remains

    def test_negative_speed_rejected(self):
        with pytest.raises(ValueError):
            ObstacleBody(body_id="o", shape=Sphere(0.1),
                         waypoints=[[0, 0, 0], [1, 0, 0]], speeds=[-1.0])


class TestGroundTruth:
    def test_capsule_sphere_distance(self):
        body = PlacedBody(shape=Sphere(0.2), center=np.array([0.0, 1.0, 0.0]),
                          body_id="s")
        d = capsule_body_distance(np.array([-1.0, 0, 0]), np.array([1.0, 0, 0]),
                                  0.1, body)
        assert d == pytest.approx(1.0 - 0.2 - 0.1, abs=1e-12)

    def test_min_body_distance_penetration(self):
        body = PlacedBody(shape=Sphere(0.3), center=np.array([0.0, 0.2, 0.0]),
                          body_id="s")
        caps = [(np.array([-1.0, 0, 0]), np.array([1.0, 0, 0]), 0.1)]
        assert min_body_distance(caps, [body]) == pytest.approx(0.2 - 0.3 - 0.1, abs=1e-12)


@given(seed=st.integers(0, 2**31 - 1))
@settings(max_examples=30, deadline=None)
def test_distance_brute_force_property(seed):
    rng = np.random.default_rng(seed)
    dims = tuple(rng.integers(2, 9, 3))
    grid = OccupancyGrid.empty(rng.uniform(-1, 1, 3), float(rng.uniform(0.05, 0.2)), dims)
    grid.cells[:] = rng.random(dims) < 0.2
    p = rng.uniform(-2, 2, 3)
    assert point_grid_distance(grid, p) == _brute_point_distance(grid, p)
