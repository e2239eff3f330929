"""Distance and intersection primitives for capsules, boxes, spheres, cones.

Point-vs-set routines have batch variants operating on (n, 3) arrays; these
are the hot path for occupancy-grid queries.
"""

from __future__ import annotations

import numpy as np


def point_segment_distance(points: np.ndarray, a, b) -> np.ndarray:
    """Distances from points (n, 3) or (3,) to the segment a-b."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    a = np.asarray(a, dtype=float)
    d = np.asarray(b, dtype=float) - a
    dd = float(d @ d)
    if dd < 1e-18:
        diff = pts - a
    else:
        t = np.clip((pts - a) @ d / dd, 0.0, 1.0)
        diff = pts - (a + t[:, None] * d)
    dist = np.sqrt(diff[:, 0] ** 2 + diff[:, 1] ** 2 + diff[:, 2] ** 2)
    return dist if np.ndim(points) == 2 else float(dist[0])


def _point_on_segment_distance(x, p, d, dd):
    """Distances from points x to segments p + t d, t in [0, 1]; dd = d . d."""
    t = np.clip(((x - p) * d).sum(axis=-1) / np.where(dd > 0.0, dd, 1.0), 0.0, 1.0)
    diff = x - p - t[..., None] * d
    return np.sqrt((diff * diff).sum(axis=-1))


def segment_distances(p1, q1, p2, q2) -> np.ndarray:
    """Minimum distances between segments p1-q1 and p2-q2, over any leading
    axes of the (..., 3) endpoint arrays.

    The closest pair has an endpoint of one segment in it, or is the pair of
    closest points of the two lines when both lie inside the segments. Every
    candidate is a distance between points of the segments, so the smallest
    is the answer, also for parallel and zero-length segments.
    """
    p1, q1, p2, q2 = (np.asarray(v, dtype=float) for v in (p1, q1, p2, q2))
    d1 = q1 - p1
    d2 = q2 - p2
    a = (d1 * d1).sum(axis=-1)
    e = (d2 * d2).sum(axis=-1)
    best = np.minimum(
        np.minimum(_point_on_segment_distance(p1, p2, d2, e),
                   _point_on_segment_distance(q1, p2, d2, e)),
        np.minimum(_point_on_segment_distance(p2, p1, d1, a),
                   _point_on_segment_distance(q2, p1, d1, a)))
    r = p1 - p2
    b = (d1 * d2).sum(axis=-1)
    c = (d1 * r).sum(axis=-1)
    f = (d2 * r).sum(axis=-1)
    denom = a * e - b * b
    safe = np.where(denom > 0.0, denom, 1.0)
    s = (b * f - c * e) / safe
    t = (a * f - b * c) / safe
    inside = (denom > 0.0) & (s >= 0.0) & (s <= 1.0) & (t >= 0.0) & (t <= 1.0)
    diff = r + s[..., None] * d1 - t[..., None] * d2
    return np.where(inside, np.minimum(best, np.sqrt((diff * diff).sum(axis=-1))), best)


def point_aabb_distance(points: np.ndarray, lo, hi) -> np.ndarray:
    """Distances from points (n, 3) or (3,) to an axis-aligned box [lo, hi]
    (0 inside)."""
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    d = np.maximum(np.maximum(lo - pts, pts - hi), 0.0)
    dist = np.sqrt(d[:, 0] ** 2 + d[:, 1] ** 2 + d[:, 2] ** 2)
    return dist if np.ndim(points) == 2 else float(dist[0])


def segment_aabb_intersects(a, b, lo, hi) -> bool:
    """Slab test: does segment a-b meet the closed box [lo, hi]?"""
    a = np.asarray(a, dtype=float)
    d = np.asarray(b, dtype=float) - a
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    tmin, tmax = 0.0, 1.0
    for i in range(3):
        if abs(d[i]) < 1e-14:
            if a[i] < lo[i] or a[i] > hi[i]:
                return False
        else:
            t1 = (lo[i] - a[i]) / d[i]
            t2 = (hi[i] - a[i]) / d[i]
            if t1 > t2:
                t1, t2 = t2, t1
            tmin = max(tmin, t1)
            tmax = min(tmax, t2)
            if tmin > tmax:
                return False
    return True


def segment_aabb_distance(a, b, lo, hi, tol: float = 1e-10) -> float:
    """Minimum distance from segment a-b to the box [lo, hi].

    dist(p(t), box) is convex in t, so golden-section search converges to
    the global minimum.
    """
    if segment_aabb_intersects(a, b, lo, hi):
        return 0.0
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)

    def f(t):
        return point_aabb_distance(a + t * (b - a), lo, hi)

    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0
    t_lo, t_hi = 0.0, 1.0
    t1 = t_hi - inv_phi * (t_hi - t_lo)
    t2 = t_lo + inv_phi * (t_hi - t_lo)
    f1, f2 = f(t1), f(t2)
    while t_hi - t_lo > tol:
        if f1 <= f2:
            t_hi, t2, f2 = t2, t1, f1
            t1 = t_hi - inv_phi * (t_hi - t_lo)
            f1 = f(t1)
        else:
            t_lo, t1, f1 = t1, t2, f2
            t2 = t_lo + inv_phi * (t_hi - t_lo)
            f2 = f(t2)
    return float(min(f1, f2))


def signed_point_cone_distance(points, apex, axis, length,
                               base_radius: float) -> np.ndarray:
    """Signed distance from points to a finite solid cone.

    The cone has its apex at `apex`, extends along unit `axis` for `length`
    meters and is capped by a flat base disk of radius `base_radius`.
    Negative values are penetration depths (distance to the nearest boundary
    surface, i.e. the lateral surface or the base disk).

    Points (..., 3) broadcast against apex (..., 3), axis (..., 3) and
    length (...), so one call can measure many points against many cones;
    one (3,) point against one cone gives a float.
    """
    rel = np.asarray(points, dtype=float) - np.asarray(apex, dtype=float)
    axis = np.asarray(axis, dtype=float)
    length = np.asarray(length, dtype=float)
    # Fixed-order elementwise arithmetic: batch and per-point calls must
    # produce bit-identical values (the grid queries are oracle-checked
    # against per-voxel scans for exact equality).
    x = rel[..., 0] * axis[..., 0] + rel[..., 1] * axis[..., 1] + rel[..., 2] * axis[..., 2]
    rx = rel[..., 0] - x * axis[..., 0]
    ry = rel[..., 1] - x * axis[..., 1]
    rz = rel[..., 2] - x * axis[..., 2]
    rho = np.sqrt(rx * rx + ry * ry + rz * rz)

    # 2D formulation in (x, rho): the solid is the triangle 0<=x<=length,
    # rho <= base_radius*x/length; its boundary is the lateral edge
    # (0,0)-(length, base_radius) and the base edge (length,0)-(length, base_radius).
    d_lat = _dist2d_to_segment(x, rho, 0.0, 0.0, length, base_radius)
    d_base = _dist2d_to_segment(x, rho, length, 0.0, length, base_radius)
    d_boundary = np.minimum(d_lat, d_base)
    inside = (x >= 0.0) & (x <= length) & (rho * length <= base_radius * x)
    signed = np.where(inside, -d_boundary, d_boundary)
    return signed if signed.ndim else float(signed)


def _dist2d_to_segment(px, py, ax, ay, bx, by):
    dx, dy = bx - ax, by - ay
    dd = dx * dx + dy * dy
    point = dd < 1e-18
    t = np.where(point, 0.0, np.clip(((px - ax) * dx + (py - ay) * dy)
                                     / np.where(point, 1.0, dd), 0.0, 1.0))
    ex = px - (ax + t * dx)
    ey = py - (ay + t * dy)
    return np.sqrt(ex * ex + ey * ey)


def segment_sphere_intersects(a, b, center, radius: float) -> bool:
    return point_segment_distance(np.asarray(center, dtype=float), a, b) <= radius
