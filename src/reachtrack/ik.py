"""Real-time inverse kinematics for the camera pose.

Damped-least-squares bursts on the pose error alternate with nullspace
repair steps on joint-space continuity and obstacle clearance. A solution
must satisfy the pose tolerance, joint limits, the per-tick joint-speed
cap, self-collision freedom and the grid clearance margin; otherwise the
call fails and the caller holds the previous configuration.

The bursts run on the batched core of `_fastkin`. `ik_solve` runs the
bursts from its restart starts speculatively, side by side, and keeps the
first that converges, which is the burst the one-at-a-time loop would
reach. The map builder solves a whole cell as one `dls_rows` loop
(`reach_rows`): each orientation's restarts are a group that stops at its
first hit, the self-collision test reads the iteration's own link frames,
and a rejected or spent burst restarts from its next seed inside the loop.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from . import kinematics as kin
from ._fastkin import dls_burst, dls_rows
from .transforms import Pose6
from .world import OccupancyGrid

# Fixed seed for restart perturbations: identical inputs, identical outputs.
_PERTURB_SEED = 0x5EED


@dataclass(frozen=True)
class IkParams:
    pos_tolerance: float = 1e-3        # m
    rot_tolerance: float = 1e-2        # rad
    max_iterations: int = 400          # total DLS iteration budget per call
    burst_iterations: int = 60         # iterations per descent burst
    repair_steps: int = 5              # nullspace steps per converged pose
    continuity_weight: float = 0.1
    collision_weight: float = 1.0
    clearance_margin: float = 0.03     # m over the grid's conservative distance
    speed_cap: float = 0.15            # rad per tick, inf disables
    damping: float = 1e-3
    error_clamp_pos: float = 0.2       # m
    error_clamp_rot: float = 0.5       # rad

    def __post_init__(self):
        if not (self.pos_tolerance > 0.0 and self.rot_tolerance > 0.0):
            raise ValueError("tolerances must be positive")
        if self.continuity_weight < 0.0 or self.collision_weight < 0.0:
            raise ValueError("weights must be >= 0")
        for name in ("damping", "speed_cap", "error_clamp_pos", "error_clamp_rot"):
            value = getattr(self, name)
            if not (isinstance(value, Real) and value > 0.0):
                raise ValueError(f"{name} must be a positive number")
        for name, least in (("max_iterations", 1), ("burst_iterations", 1), ("repair_steps", 0)):
            value = getattr(self, name)
            if not (isinstance(value, Integral) and value >= least):
                raise ValueError(f"{name} must be an integer >= {least}")


def _clearance(chain, q, centers, inflation, link_frames=None):
    if centers is None or len(centers) == 0:
        return float("inf")
    return kin.min_capsule_point_clearance(chain, q, centers, inflation,
                                           link_frames=link_frames)


def _clearance_cost(chain, q, centers, inflation, limit):
    d = _clearance(chain, q, centers, inflation)
    short = limit - d
    return short * short if short > 0.0 else 0.0


def _repulsion(chain, q, centers, inflation, limit, h: float = 1e-4):
    """Forward-difference gradient of the clearance shortfall cost, negated."""
    base = _clearance_cost(chain, q, centers, inflation, limit)
    grad = np.zeros(kin.NUM_JOINTS)
    for i in range(kin.NUM_JOINTS):
        qp = q.copy()
        qp[i] += h
        grad[i] = (_clearance_cost(chain, qp, centers, inflation, limit) - base) / h
    return -grad


def _constraints_ok(chain, q, centers, inflation, margin, frames) -> bool:
    if kin.self_collision(chain, q, link_frames=frames):
        return False
    return _clearance(chain, q, centers, inflation, frames) >= margin


def _settings(params: IkParams) -> dict:
    """The `dls_rows` keywords of an IK parameter set."""
    return dict(pos_tol=params.pos_tolerance, rot_tol=params.rot_tolerance,
                damping=params.damping, clamp_pos=params.error_clamp_pos,
                clamp_rot=params.error_clamp_rot)


def _perturbations(n: int) -> np.ndarray:
    """The first n restart draws u_1..u_n in [-1, 1]^7; restart k starts from
    clip(q_prev + u_k * span). The same draws for every call and every row."""
    return np.random.default_rng(_PERTURB_SEED).uniform(-1.0, 1.0, (n, kin.NUM_JOINTS))


def _first_converged(chain, params, target_rot, target_p, q_prev, span, lo, hi,
                     budget: int, k: int):
    """Bursts from starts k, k+1, ... run side by side, each with the budget
    it has in the sequential loop if every earlier burst fails to converge
    (a failed burst spends `burst_iterations`). Returns (q, budget left,
    index of the next start) of the first burst that converges, or None."""
    cost = max(params.burst_iterations, 1)
    n = -(-budget // cost)
    budgets = np.minimum(params.burst_iterations, budget - cost * np.arange(n))
    seeds = np.clip(q_prev + _perturbations(k + n - 1) * span, lo, hi)
    starts = np.vstack([q_prev, seeds])[k:]
    q, converged, used = dls_rows(chain, starts, target_rot, target_p, budgets, lo, hi,
                                  first=True, **_settings(params))
    hit = np.flatnonzero(converged)
    if not len(hit):
        return None
    j = int(hit[0])
    return q[j], budget - cost * j - max(int(used[j]), 1), k + j + 1


def ik_solve(chain: kin.KinematicChain, target: Pose6, q_prev: np.ndarray,
             grid: OccupancyGrid | None, params: IkParams) -> np.ndarray | None:
    """Solve for a joint configuration reaching `target` from `q_prev`.

    Returns the configuration on success, None on failure (the caller holds
    q_prev). Deterministic for identical inputs.

    Sequentially, a call is a loop of DLS bursts: from q_prev first, then
    from perturbed seeds, until a burst converges to a pose that passes the
    constraints or nullspace repair, or the iteration budget runs out. The
    starts of that loop do not depend on the bursts' outcomes, so the bursts
    still to come run speculatively as one batch; the first one to converge
    is the one the sequential loop would reach, with the same budget.
    """
    target_p = np.ascontiguousarray(target.p)
    if np.linalg.norm(target_p - chain.base_position()) > chain.max_reach():
        return None
    target_rot = np.ascontiguousarray(target.rotation())
    centers = None
    inflation = 0.0
    if grid is not None:
        occ = grid.occupied_centers()
        if len(occ):
            centers = occ
            inflation = grid.half_diagonal

    lo = chain.joint_limits[:, 0].copy()
    hi = chain.joint_limits[:, 1].copy()
    if np.isfinite(params.speed_cap):
        lo = np.maximum(lo, q_prev - params.speed_cap)
        hi = np.minimum(hi, q_prev + params.speed_cap)
    q_prev = np.clip(np.asarray(q_prev, dtype=float), lo, hi)
    span = np.minimum(hi - q_prev, q_prev - lo)

    settings = _settings(params)
    margin = params.clearance_margin
    repair_limit = 2.0 * margin
    budget = params.max_iterations
    k = 0                                   # the next start: q_prev, then seed k
    while budget > 0:
        found = _first_converged(chain, params, target_rot, target_p, q_prev, span,
                                 lo, hi, budget, k)
        if found is None:
            return None
        q, budget, k = found
        frames = kin._frame_chain(chain, q)[2]
        if _constraints_ok(chain, q, centers, inflation, margin, frames):
            return q
        # Nullspace repair: hold the pose, walk the redundancy toward
        # continuity and clearance.
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
                    chain, q, centers, inflation, repair_limit)
            z = (np.eye(kin.NUM_JOINTS) - jsharp @ jac) @ z
            if np.max(np.abs(z)) < 1e-12:
                break
            q_repair = np.clip(q + z, lo, hi)
            q, converged, used = dls_burst(chain, q_repair, target_rot, target_p,
                                           min(budget, 25), lo, hi, **settings)
            budget -= max(used, 1)
            if not converged:
                break
            frames = kin._frame_chain(chain, q)[2]
            if _constraints_ok(chain, q, centers, inflation, margin, frames):
                return q
    return None


def reach_rows(chain: kin.KinematicChain, q0: np.ndarray, target_rot: np.ndarray,
               target_p: np.ndarray, params: IkParams):
    """Per target: does `ik_solve` from any of its starts q0 (G, R, 7) reach
    the target (G, 3, 3) and (G, 3), with no grid, no speed cap and no
    continuity weight? Returns (hit (G,), q (G, 7)), where q holds one
    solution of each hit target.

    Without a grid and a continuity pull the nullspace repair never moves,
    so a start is a loop of bursts: a burst that converges to a pose free of
    self-collision is a hit; any other burst restarts from the next
    perturbed seed with the budget it has left. All of it is one `dls_rows`
    loop, the R starts of a target one group: the self-collision test runs
    inside the iterations on the iteration's own link frames, a rejected or
    spent burst restarts in place, and the first accepted burst ends its
    target's other starts at once. A start's bursts do not depend on the
    others, so `hit` is what running every start to its end would give, and
    the loop runs at most `max_iterations` iterations.
    """
    lo, hi = chain.joint_limits[:, 0], chain.joint_limits[:, 1]
    q0 = np.asarray(q0, dtype=float)
    n_targets, n_starts, _ = q0.shape
    q0 = np.clip(q0.reshape(-1, kin.NUM_JOINTS), lo, hi)
    group = np.repeat(np.arange(n_targets), n_starts)
    span = np.minimum(hi - q0, q0 - lo)
    draws = _perturbations(params.max_iterations)
    left = np.full(len(q0), params.max_iterations)
    restarts = np.zeros(len(q0), dtype=int)

    def collision_free(q, links):
        return ~kin.self_collision_rows(chain, q, links)

    def next_start(rows, used):
        left[rows] -= np.maximum(used, 1)
        again = left[rows] > 0
        rows = rows[again]
        restarts[rows] += 1
        starts = np.clip(q0[rows] + draws[restarts[rows] - 1] * span[rows], lo, hi)
        return again, starts, np.minimum(left[rows], params.burst_iterations)

    q, converged, _ = dls_rows(chain, q0, target_rot[group], target_p[group],
                               np.minimum(left, params.burst_iterations), lo, hi,
                               groups=group, accept=collision_free, restart=next_start,
                               **_settings(params))
    hit = np.zeros(n_targets, dtype=bool)
    hit[group[converged]] = True
    solution = np.full((n_targets, kin.NUM_JOINTS), np.nan)
    solution[group[converged]] = q[converged]
    return hit, solution


def position_reachable(chain: kin.KinematicChain, p: np.ndarray, seed,
                       restarts: int = 4, iterations: int = 30,
                       tol: float = 2e-3) -> bool:
    """Cheap position-only feasibility probe (orientation free).

    Used by the reachability builder to skip whole cells: if no joint
    configuration places the camera at p, no orientation sample can succeed.
    The random starts run side by side.
    """
    p = np.ascontiguousarray(np.asarray(p, dtype=float))
    if np.linalg.norm(p - chain.base_position()) > chain.max_reach():
        return False
    lo, hi = chain.joint_limits[:, 0], chain.joint_limits[:, 1]
    q0 = np.random.default_rng(seed).uniform(lo, hi, (restarts, kin.NUM_JOINTS))
    _, ok, _ = dls_rows(chain, q0, np.eye(3), p, iterations, lo, hi, pos_tol=tol,
                        rot_tol=1e9, damping=1e-3, clamp_pos=0.3, clamp_rot=0.5,
                        use_rot=False, first=True)
    return bool(ok.any())


def ik_reachable(chain: kin.KinematicChain, target: Pose6, seed,
                 restarts: int, params: IkParams | None = None) -> bool:
    """True iff any of `restarts` randomly seeded attempts reaches `target`.

    Attempts use an empty grid and no continuity constraint; used by the
    reachability-map builder. Deterministic given the seed.
    """
    if restarts < 1:
        raise ValueError("restarts must be >= 1")
    if params is None:
        params = IkParams(max_iterations=80)
    if np.linalg.norm(target.p - chain.base_position()) > chain.max_reach():
        return False
    lo, hi = chain.joint_limits[:, 0], chain.joint_limits[:, 1]
    q0 = np.random.default_rng(seed).uniform(lo, hi, (1, restarts, kin.NUM_JOINTS))
    p = np.asarray(target.p, dtype=float)[None]
    return bool(reach_rows(chain, q0, target.rotation()[None], p, params)[0][0])
