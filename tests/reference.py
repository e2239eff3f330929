"""Reference implementations for the oracle tests.

Sequential reference solvers: the IK loop one burst at a time, every burst
a batch of one (`dls_burst`), every collision test scalar. The batched
solvers in `reachtrack.ik` must agree with them.

The planner objective one pose at a time: each term from `compose_pose_delta`,
a single `SightCone`, single-point grid and map queries and `rescale`. The
batched evaluator in `reachtrack.planner` must agree with it.

The Rodrigues rotation matrix, as an independent check of the FK core."""

from dataclasses import replace

import numpy as np

from reachtrack import kinematics as kin
from reachtrack.ik import _PERTURB_SEED, _constraints_ok, _repulsion, _settings
from reachtrack._fastkin import dls_burst
from reachtrack.planner import rescale
from reachtrack.transforms import Pose6, compose_pose_delta
from reachtrack.world import SightCone, cone_grid_distance, point_grid_distance


def axis_angle_to_matrix(axis, angle):
    """Rodrigues rotation about a unit axis."""
    x, y, z = axis
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def sequential_ik_solve(chain, target, q_prev, grid, params):
    """`ik_solve` as a loop of bursts: from q_prev, then from perturbed
    seeds, each repaired in the nullspace when it fails the constraints."""
    target_p = np.asarray(target.p, dtype=float)
    if np.linalg.norm(target_p - chain.base_position()) > chain.max_reach():
        return None
    target_rot = target.rotation()
    centers, inflation = None, 0.0
    if grid is not None and len(grid.occupied_centers()):
        centers, inflation = grid.occupied_centers(), grid.half_diagonal
    lo = chain.joint_limits[:, 0].copy()
    hi = chain.joint_limits[:, 1].copy()
    if np.isfinite(params.speed_cap):
        lo = np.maximum(lo, q_prev - params.speed_cap)
        hi = np.minimum(hi, q_prev + params.speed_cap)
    q_prev = np.clip(np.asarray(q_prev, dtype=float), lo, hi)
    settings = _settings(params)
    rng = np.random.default_rng(_PERTURB_SEED)
    margin = params.clearance_margin
    budget = params.max_iterations
    q_start = q_prev.copy()
    while budget > 0:
        q, converged, used = dls_burst(chain, q_start, target_rot, target_p,
                                       min(budget, params.burst_iterations), lo, hi,
                                       **settings)
        budget -= max(used, 1)
        if converged:
            frames = kin._frame_chain(chain, q)[2]
            if _constraints_ok(chain, q, centers, inflation, margin, frames):
                return q
            for _ in range(params.repair_steps):
                if budget <= 0:
                    break
                origins, axes_w, frames, camera = kin._frame_chain(chain, q)
                jac = kin._jacobian_from(origins, axes_w, camera[:3, 3])
                jjt = jac @ jac.T
                jjt[np.diag_indices_from(jjt)] += params.damping
                jsharp = jac.T @ np.linalg.inv(jjt)
                z = -params.continuity_weight * (q - q_prev)
                if centers is not None and params.collision_weight > 0.0:
                    z = z + params.collision_weight * _repulsion(
                        chain, q, centers, inflation, 2.0 * margin)
                z = (np.eye(kin.NUM_JOINTS) - jsharp @ jac) @ z
                if np.max(np.abs(z)) < 1e-12:
                    break
                q, converged, used = dls_burst(chain, np.clip(q + z, lo, hi), target_rot,
                                               target_p, min(budget, 25), lo, hi, **settings)
                budget -= max(used, 1)
                if not converged:
                    break
                frames = kin._frame_chain(chain, q)[2]
                if _constraints_ok(chain, q, centers, inflation, margin, frames):
                    return q
        span = np.minimum(hi - q_prev, q_prev - lo)
        q_start = np.clip(q_prev + rng.uniform(-1.0, 1.0, kin.NUM_JOINTS) * span, lo, hi)
    return None


def sequential_ik_reachable(chain, target, seed, restarts, params):
    """`ik_reachable` one restart at a time, stopping at the first success."""
    params = replace(params, speed_cap=float("inf"), continuity_weight=0.0)
    rng = np.random.default_rng(seed)
    for _ in range(restarts):
        if sequential_ik_solve(chain, target, chain.random_config(rng), None,
                               params) is not None:
            return True
    return False


def sequential_position_reachable(chain, p, seed, restarts):
    """`position_reachable` one start at a time."""
    lo, hi = chain.joint_limits[:, 0], chain.joint_limits[:, 1]
    rng = np.random.default_rng(seed)
    for _ in range(restarts):
        _, ok, _ = dls_burst(chain, chain.random_config(rng), np.eye(3), np.asarray(p, float),
                             30, lo, hi, pos_tol=2e-3, rot_tol=1e9, damping=1e-3,
                             clamp_pos=0.3, clamp_rot=0.5, use_rot=False)
        if ok:
            return True
    return False


def sequential_score_cells(chain, centers, flat_indices, eulers, seed, restarts, params):
    """`reachability._score_cells` one orientation and one restart at a time."""
    n = len(eulers)
    scores = np.zeros(len(centers))
    for row, (center, flat) in enumerate(zip(centers, flat_indices)):
        if np.linalg.norm(center - chain.base_position()) > chain.max_reach():
            continue
        probe = np.random.SeedSequence(entropy=seed, spawn_key=(int(flat), n))
        if not sequential_position_reachable(chain, center, probe, 6):
            continue
        hits = sum(sequential_ik_reachable(
            chain, Pose6(p=center, r=eulers[k]),
            np.random.SeedSequence(entropy=seed, spawn_key=(int(flat), k)), restarts, params)
            for k in range(n))
        scores[row] = hits / n
    return scores


def term_track(params, inp, pose):
    to_target = inp.x_target.p - pose.p
    d = float(np.linalg.norm(to_target))
    if d <= 1e-9:
        theta = 0.0  # target at the camera origin: centering error defined as 0
    else:
        view = pose.view_axis()
        u = to_target / d
        theta = float(np.arctan2(np.linalg.norm(np.cross(view, u)), np.dot(view, u)))
    return rescale(params.w_d, abs(params.d_des - d)) + rescale(params.w_theta, theta)


def term_occl(params, inp, pose):
    length = float(np.linalg.norm(inp.x_target.p - pose.p))
    if length <= 1e-9:
        return 0.0
    cone = SightCone(apex=pose.p, axis=(inp.x_target.p - pose.p) / length,
                     length=length, base_radius=params.cone_base_radius)
    d = cone_grid_distance(inp.grid, cone)
    return rescale(params.w_occl, d) if d < params.u_occl else 0.0


def term_col(params, inp, pose):
    d = point_grid_distance(inp.grid, pose.p)
    return rescale(params.w_col, d) if d < params.u_col else 0.0


def term_reach(params, inp, pose):
    v = inp.reach_map.query(pose.p) if inp.reach_map is not None else 0.0
    return rescale(params.w_reach, v) if v < params.u_reach else 0.0


def reference_objective(params, inp, delta):
    """The objective at x_ee (+) delta as a sum of the enabled scalar terms."""
    pose = compose_pose_delta(inp.x_ee, delta)
    total = term_track(params, inp, pose)
    if params.enable_occl:
        total += term_occl(params, inp, pose)
    if params.enable_col:
        total += term_col(params, inp, pose)
    if params.enable_reach:
        total += term_reach(params, inp, pose)
    return total
