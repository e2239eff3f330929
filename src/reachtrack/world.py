"""Ground-truth scene bodies and the planner-facing binary occupancy grid.

The planner sees only the voxel grid; collision and visibility *metrics* are
computed against the analytic shapes, mirroring the sensing/control split of
the system flow. Voxels are inflated by half their diagonal in all distance
queries, so the grid never reports more clearance than the truth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .geometry import (
    point_aabb_distance,
    point_segment_distance,
    segment_aabb_distance,
    segment_aabb_intersects,
    segment_sphere_intersects,
    signed_point_cone_distance,
)

# Distance reported when the grid has no occupied cell; large enough that
# every distance-thresholded term treats it as "deactivated".
NO_OCCUPANCY_DISTANCE = 1e6


class GridTooSmallError(ValueError):
    def __init__(self, body_id: str):
        super().__init__(f"grid does not cover body '{body_id}'")
        self.body_id = body_id


@dataclass(frozen=True)
class Sphere:
    radius: float

    def aabb(self, center: np.ndarray):
        r = self.radius
        return center - r, center + r


@dataclass(frozen=True)
class Box:
    """Axis-aligned box given by its half extents."""

    half_extents: np.ndarray

    def aabb(self, center: np.ndarray):
        h = np.asarray(self.half_extents, dtype=float)
        return center - h, center + h


@dataclass(frozen=True)
class PlacedBody:
    """A shape at a world position for one simulation tick."""

    shape: Sphere | Box
    center: np.ndarray
    body_id: str = "body"


@dataclass
class ObstacleBody:
    """Moving obstacle: a shape following a piecewise-linear path.

    speeds[i] is the travel speed on the segment waypoints[i] -> waypoints[i+1];
    the body waits at the first waypoint until start_time and remains at the
    last waypoint forever (a zero-length path is a static body).
    """

    body_id: str
    shape: Sphere | Box
    waypoints: np.ndarray          # (n, 3)
    speeds: np.ndarray             # (n-1,)
    start_time: float = 0.0

    def __post_init__(self):
        self.waypoints = np.atleast_2d(np.asarray(self.waypoints, dtype=float))
        self.speeds = np.atleast_1d(np.asarray(self.speeds, dtype=float))
        if np.any(self.speeds < 0.0):
            raise ValueError("obstacle speeds must be >= 0")

    def position_at(self, t: float) -> np.ndarray:
        t = t - self.start_time
        if t <= 0.0 or len(self.waypoints) == 1:
            return self.waypoints[0].copy()
        pos = self.waypoints[0]
        for i in range(len(self.waypoints) - 1):
            a, b = self.waypoints[i], self.waypoints[i + 1]
            seg = np.linalg.norm(b - a)
            speed = self.speeds[min(i, len(self.speeds) - 1)]
            if speed <= 0.0 or seg == 0.0:
                return a.copy()
            dur = seg / speed
            if t <= dur:
                return a + (t / dur) * (b - a)
            t -= dur
            pos = b
        return pos.copy()

    def at(self, t: float) -> PlacedBody:
        return PlacedBody(shape=self.shape, center=self.position_at(t), body_id=self.body_id)


@dataclass
class OccupancyGrid:
    """Binary voxel grid over an axis-aligned workspace box."""

    origin: np.ndarray
    resolution: float
    dims: tuple[int, int, int]
    cells: np.ndarray
    _occupied_centers: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float).reshape(3)
        self.dims = tuple(int(d) for d in self.dims)
        if any(d <= 0 for d in self.dims):
            raise ValueError("grid dims must be positive")
        if not self.resolution > 0.0:
            raise ValueError("grid resolution must be positive")
        self.cells = np.asarray(self.cells, dtype=bool).reshape(self.dims)

    @classmethod
    def empty(cls, origin, resolution: float, dims) -> "OccupancyGrid":
        dims = tuple(int(d) for d in dims)
        return cls(origin=origin, resolution=resolution, dims=dims,
                   cells=np.zeros(dims, dtype=bool))

    @property
    def half_diagonal(self) -> float:
        return self.resolution * np.sqrt(3.0) / 2.0

    @property
    def upper(self) -> np.ndarray:
        return self.origin + self.resolution * np.asarray(self.dims, dtype=float)

    def cell_center(self, idx) -> np.ndarray:
        return self.origin + (np.asarray(idx, dtype=float) + 0.5) * self.resolution

    def index_of(self, point) -> tuple[int, int, int]:
        rel = (np.asarray(point, dtype=float) - self.origin) / self.resolution
        return tuple(int(np.floor(v)) for v in rel)

    def contains_box(self, lo, hi) -> bool:
        return bool(np.all(np.asarray(lo) >= self.origin - 1e-12)
                    and np.all(np.asarray(hi) <= self.upper + 1e-12))

    def occupied_centers(self) -> np.ndarray:
        """Centers of occupied voxels, (k, 3); cached (grid is per-tick immutable)."""
        if self._occupied_centers is None:
            idx = np.argwhere(self.cells)
            self._occupied_centers = self.origin + (idx + 0.5) * self.resolution
        return self._occupied_centers


def rasterize(bodies, origin, resolution: float, dims,
              exclude_capsules=(), target_body: PlacedBody | None = None,
              strict: bool = False) -> OccupancyGrid:
    """Voxelize placed bodies, excluding manipulator and target volumes.

    A voxel is occupied iff its cube intersects a body and its center is not
    inside any exclusion volume (link capsules and the target body, each
    inflated by one voxel diagonal). Bodies outside the grid are clipped
    silently unless strict=True, which raises GridTooSmallError naming the
    first body not fully covered by the grid.
    """
    grid = OccupancyGrid.empty(origin, resolution, dims)
    half = resolution / 2.0
    for body in bodies:
        lo, hi = body.shape.aabb(body.center)
        if strict and not grid.contains_box(lo, hi):
            raise GridTooSmallError(body.body_id)
        window = _index_window(grid, lo, hi)
        if window is None:
            continue
        (i0, j0, k0), (i1, j1, k1) = window
        xs = grid.origin[0] + (np.arange(i0, i1) + 0.5) * resolution
        ys = grid.origin[1] + (np.arange(j0, j1) + 0.5) * resolution
        zs = grid.origin[2] + (np.arange(k0, k1) + 0.5) * resolution
        cx, cy, cz = body.center
        if isinstance(body.shape, Box):
            hx, hy, hz = np.asarray(body.shape.half_extents, dtype=float)
            mask = ((np.abs(xs - cx) <= hx + half)[:, None, None]
                    & (np.abs(ys - cy) <= hy + half)[None, :, None]
                    & (np.abs(zs - cz) <= hz + half)[None, None, :])
        else:
            dx = np.maximum(np.abs(xs - cx) - half, 0.0)
            dy = np.maximum(np.abs(ys - cy) - half, 0.0)
            dz = np.maximum(np.abs(zs - cz) - half, 0.0)
            d2 = (dx[:, None, None] ** 2 + dy[None, :, None] ** 2
                  + dz[None, None, :] ** 2)
            mask = d2 <= body.shape.radius ** 2
        grid.cells[i0:i1, j0:j1, k0:k1] |= mask

    if grid.cells.any() and (len(exclude_capsules) or target_body is not None):
        idx = np.argwhere(grid.cells)
        centers = grid.origin + (idx + 0.5) * resolution
        diag = 2.0 * grid.half_diagonal
        keep = np.ones(len(idx), dtype=bool)
        for a, b, r in exclude_capsules:
            keep &= point_segment_distance(centers, a, b) > r + diag
        if target_body is not None:
            if isinstance(target_body.shape, Box):
                lo, hi = target_body.shape.aabb(target_body.center)
                keep &= point_aabb_distance(centers, lo, hi) > diag
            else:
                keep &= (point_segment_distance(centers, target_body.center,
                                                target_body.center)
                         > target_body.shape.radius + diag)
        drop = idx[~keep]
        grid.cells[drop[:, 0], drop[:, 1], drop[:, 2]] = False
    return grid


def _index_window(grid: OccupancyGrid, lo, hi):
    i0 = np.floor((np.asarray(lo) - grid.origin) / grid.resolution).astype(int)
    i1 = np.floor((np.asarray(hi) - grid.origin) / grid.resolution).astype(int) + 1
    i0 = np.maximum(i0, 0)
    i1 = np.minimum(i1, np.asarray(grid.dims))
    if np.any(i0 >= i1):
        return None
    return tuple(i0), tuple(i1)


def point_grid_distance(grid: OccupancyGrid, p):
    """Conservative signed distance from a point to the occupied cells.

    Distance to the nearest occupied voxel center minus half the voxel
    diagonal; negative inside the inflated occupancy. Returns the
    NO_OCCUPANCY_DISTANCE sentinel for an empty grid. A (3,) point gives a
    float, (n, 3) points give (n,) distances.
    """
    p = np.asarray(p, dtype=float)
    centers = grid.occupied_centers()
    d = np.full(p.shape[:-1], NO_OCCUPANCY_DISTANCE)
    if len(centers):
        q = p[..., None, :]
        dx = centers[:, 0] - q[..., 0]
        dy = centers[:, 1] - q[..., 1]
        dz = centers[:, 2] - q[..., 2]
        d = (np.sqrt(dx * dx + dy * dy + dz * dz) - grid.half_diagonal).min(axis=-1)
    return d if d.ndim else float(d)


@dataclass(frozen=True)
class SightCone:
    """Finite viewing cone from the camera to the target.

    One cone has a (3,) apex and axis and a scalar length; n cones of one
    base radius have (n, 3) apexes and axes and (n,) lengths.
    """

    apex: np.ndarray
    axis: np.ndarray
    length: float | np.ndarray
    base_radius: float

    def __post_init__(self):
        apex = np.asarray(self.apex, dtype=float)
        axis = np.asarray(self.axis, dtype=float)
        if apex.shape[-1:] != (3,) or axis.shape != apex.shape \
                or np.shape(self.length) != apex.shape[:-1]:
            raise ValueError("cone apex and axis must be (3,) or (n, 3), one length per cone")
        object.__setattr__(self, "apex", apex)
        object.__setattr__(self, "axis", axis)
        if not np.all(np.asarray(self.length) > 0.0):
            raise ValueError("cone length must be positive")
        if not self.base_radius > 0.0:
            raise ValueError("cone base_radius must be positive")
        if np.any(np.abs(np.linalg.norm(axis, axis=-1) - 1.0) > 1e-12):
            raise ValueError("cone axis must be a unit vector")


def cone_grid_distance(grid: OccupancyGrid, cone: SightCone):
    """Signed distance from the occupied cells to the sight cone.

    Positive when the nearest (inflated) occupied voxel is outside the cone
    solid, negative penetration depth when inside; sentinel on an empty grid.
    One cone gives a float, a batch of n cones gives (n,) distances.
    """
    centers = grid.occupied_centers()
    d = np.full(cone.apex.shape[:-1], NO_OCCUPANCY_DISTANCE)
    if len(centers):
        d = signed_point_cone_distance(centers, cone.apex[..., None, :], cone.axis[..., None, :],
                                       np.asarray(cone.length)[..., None], cone.base_radius)
        d = (d - grid.half_diagonal).min(axis=-1)
    return d if d.ndim else float(d)


def segment_visibility(bodies, a, b) -> bool:
    """True iff segment a-b meets no ground-truth body (analytic shapes)."""
    for body in bodies:
        if isinstance(body.shape, Box):
            lo, hi = body.shape.aabb(body.center)
            if segment_aabb_intersects(a, b, lo, hi):
                return False
        else:
            if segment_sphere_intersects(a, b, body.center, body.shape.radius):
                return False
    return True


# -- analytic ground-truth queries (metrics side of the sensing split) ------

def capsule_body_distance(a, b, radius: float, body: PlacedBody) -> float:
    """Surface-to-surface distance from a capsule to an analytic body."""
    if isinstance(body.shape, Box):
        lo, hi = body.shape.aabb(body.center)
        return segment_aabb_distance(a, b, lo, hi) - radius
    return float(point_segment_distance(body.center, a, b)) - body.shape.radius - radius


def min_body_distance(capsules, bodies) -> float:
    """Minimum capsule-to-body distance over all pairs (inf when empty)."""
    worst = float("inf")
    for a, b, r in capsules:
        for body in bodies:
            d = capsule_body_distance(a, b, r, body)
            if d < worst:
                worst = d
    return worst
