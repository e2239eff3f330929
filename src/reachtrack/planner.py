"""Per-tick camera-pose optimization.

The objective is the sum of a tracking term (distance and centering error),
an occlusion term (signed sight-cone clearance), a collision term (signed
end-effector clearance) and a reachability term, each shaped by the cubic
rescale function and the latter three clamped to zero past a deactivation
threshold. The decision variable is the bounded per-tick pose change.

`objective_batch` is the one evaluator: it scores (n, 6) candidate deltas
at once through the batched grid queries of `world`. A single `objective`
call is a batch of one, and each central-difference gradient of the SLSQP
descent is one 12-row batch.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from numbers import Integral, Real

import numpy as np

from .reachability import ReachabilityMap
from .transforms import Pose6
from .world import (
    NO_OCCUPANCY_DISTANCE,
    OccupancyGrid,
    SightCone,
    cone_grid_distance,
    point_grid_distance,
)

_DEGENERATE_CONE = 1e-9


@dataclass(frozen=True)
class RescaleWeights:
    w0: float
    w1: float
    w2: float

    @classmethod
    def of(cls, seq) -> "RescaleWeights":
        w0, w1, w2 = (float(v) for v in seq)
        return cls(w0, w1, w2)


def rescale(w: RescaleWeights, x):
    """Cubic shaping: w0 * (w1*x + w2)**3, sign-preserving, elementwise on arrays."""
    y = w.w1 * x + w.w2
    return w.w0 * y * y * y


@dataclass
class PlannerParams:
    """Weights, bounds and thresholds of the pose optimization."""

    delta_lower: np.ndarray
    delta_upper: np.ndarray
    w_d: RescaleWeights
    w_theta: RescaleWeights
    w_occl: RescaleWeights
    w_col: RescaleWeights
    w_reach: RescaleWeights
    d_des: float
    u_occl: float
    u_col: float
    u_reach: float
    cone_base_radius: float = 0.10
    max_evaluations: int = 260
    step_tolerance: float = 1e-4
    fd_step: float = 1e-6
    enable_occl: bool = True
    enable_col: bool = True
    enable_reach: bool = True

    def __post_init__(self):
        self.delta_lower = np.asarray(self.delta_lower, dtype=float).reshape(6)
        self.delta_upper = np.asarray(self.delta_upper, dtype=float).reshape(6)
        if not np.all(self.delta_lower < self.delta_upper):
            raise ValueError("delta bounds must satisfy lower < upper componentwise")
        if not self.d_des > 0.0:
            raise ValueError("d_des must be positive")
        if not (self.u_occl > 0.0 and self.u_col > 0.0 and self.u_reach > 0.0):
            raise ValueError("deactivation thresholds must be positive")
        for name in ("cone_base_radius", "step_tolerance", "fd_step"):
            value = getattr(self, name)
            if not (isinstance(value, Real) and value > 0.0):
                raise ValueError(f"{name} must be a positive number")
        if not (isinstance(self.max_evaluations, Integral) and self.max_evaluations >= 1):
            raise ValueError("max_evaluations must be a positive integer")

    @classmethod
    def paper_table1(cls, **overrides) -> "PlannerParams":
        """The shipped default profile ("paper-table1")."""
        params = cls(
            delta_lower=[-0.05, -0.05, -0.05, -0.2, -0.2, -0.2],
            delta_upper=[0.05, 0.05, 0.05, 0.2, 0.2, 0.2],
            w_d=RescaleWeights(0.5, 1.0, 0.0),
            w_theta=RescaleWeights(7.5, 1.5, 0.0),
            w_occl=RescaleWeights(-1.0, 5.0, -1.5),
            w_col=RescaleWeights(-1.0, 1.5, -1.5),
            w_reach=RescaleWeights(-5.0, 100.0, -50.0),
            d_des=1.0,
            u_occl=0.3,
            u_col=1.0,
            u_reach=0.5,
        )
        return replace(params, **overrides) if overrides else params


PROFILES = {"paper-table1": PlannerParams.paper_table1}


@dataclass
class PlannerInput:
    """Planner state for one tick: current camera pose, target estimate,
    occupancy grid and the reachability map handle."""

    x_ee: Pose6
    x_target: Pose6
    grid: OccupancyGrid
    reach_map: ReachabilityMap | None = None


# -- objective ---------------------------------------------------------------

def _batch_euler_to_matrix(r: np.ndarray) -> np.ndarray:
    rx, ry, rz = r[:, 0], r[:, 1], r[:, 2]
    cx, sx = np.cos(rx), np.sin(rx)
    cy, sy = np.cos(ry), np.sin(ry)
    cz, sz = np.cos(rz), np.sin(rz)
    m = np.empty((len(r), 3, 3))
    m[:, 0, 0] = cy * cz
    m[:, 0, 1] = -cy * sz
    m[:, 0, 2] = sy
    m[:, 1, 0] = sx * sy * cz + cx * sz
    m[:, 1, 1] = -sx * sy * sz + cx * cz
    m[:, 1, 2] = -sx * cy
    m[:, 2, 0] = -cx * sy * cz + sx * sz
    m[:, 2, 1] = cx * sy * sz + sx * cz
    m[:, 2, 2] = cx * cy
    return m


def objective_batch(inp: PlannerInput, params: PlannerParams,
                    deltas: np.ndarray) -> np.ndarray:
    """Objective values at the candidate poses x_ee (+) delta, deltas (n, 6).

    Every row is computed on its own, so a row's value does not depend on
    the other rows of the batch.
    """
    deltas = np.asarray(deltas, dtype=float).reshape(-1, 6)
    pos = inp.x_ee.p + deltas[:, :3]
    rot = _batch_euler_to_matrix(deltas[:, 3:]) @ inp.x_ee.rotation()
    view = rot[:, :, 2]
    to_target = inp.x_target.p - pos
    d = np.sqrt((to_target ** 2).sum(axis=1))
    # A target at the camera origin has no sight line: its centering error
    # counts as 0 and its occlusion term is off.
    safe = d > _DEGENERATE_CONE
    u = np.where(safe[:, None], to_target / np.where(safe, d, 1.0)[:, None], 0.0)
    cross = np.cross(view, u)
    dot = (view * u).sum(axis=1)
    theta = np.where(safe, np.arctan2(np.sqrt((cross ** 2).sum(axis=1)), dot), 0.0)
    total = rescale(params.w_d, np.abs(params.d_des - d))
    total += rescale(params.w_theta, theta)

    if params.enable_occl:
        occl_d = np.full(len(d), NO_OCCUPANCY_DISTANCE)
        occl_d[safe] = cone_grid_distance(inp.grid, SightCone(
            apex=pos[safe], axis=u[safe], length=d[safe], base_radius=params.cone_base_radius))
        total += np.where(occl_d < params.u_occl, rescale(params.w_occl, occl_d), 0.0)
    if params.enable_col:
        col_d = point_grid_distance(inp.grid, pos)
        total += np.where(col_d < params.u_col, rescale(params.w_col, col_d), 0.0)
    if params.enable_reach:
        v = (inp.reach_map.query_batch(pos) if inp.reach_map is not None
             else np.zeros(len(pos)))
        total += np.where(v < params.u_reach, rescale(params.w_reach, v), 0.0)
    return total


def objective(inp: PlannerInput, params: PlannerParams, delta) -> float:
    """Objective value at the candidate pose x_ee (+) delta: a batch of one."""
    return float(objective_batch(inp, params, np.asarray(delta, dtype=float)[None])[0])


# -- optimization ------------------------------------------------------------

@dataclass
class PlanResult:
    delta: np.ndarray
    objective: float
    evaluations: int
    degraded: bool = False


def _probe_deltas(params: PlannerParams) -> np.ndarray:
    """Deterministic coarse probes: box face centers plus position corners."""
    lo, hi = params.delta_lower, params.delta_upper
    probes = []
    for i in range(6):
        for v in (lo[i], hi[i]):
            d = np.zeros(6)
            d[i] = v
            probes.append(d)
    for sx in (lo[0], hi[0]):
        for sy in (lo[1], hi[1]):
            for sz in (lo[2], hi[2]):
                probes.append(np.array([sx, sy, sz, 0.0, 0.0, 0.0]))
    return np.array(probes)


def plan_step(inp: PlannerInput, params: PlannerParams,
              eval_cap: int | None = None) -> PlanResult:
    """Minimize the objective over the bounded pose delta.

    SLSQP with central-difference gradients, started at delta = 0; a coarse
    deterministic probe set seeds a second descent when it finds a better
    basin. The result never leaves the box and never has a higher objective
    than the zero delta (holding the pose is always feasible).

    SciPy is imported here, not at module load, so map builds and the CLI
    never load it: the first call of a process pays the import, and in
    `reachtrack run` the first tick's `plan_ms` includes it.
    """
    from scipy.optimize import minimize

    budget = params.max_evaluations if eval_cap is None else int(eval_cap)
    lo, hi = params.delta_lower, params.delta_upper
    evals = 0

    def f(x):
        nonlocal evals
        evals += 1
        return objective(inp, params, x)

    def grad(x):
        nonlocal evals
        h = params.fd_step
        steps = h * np.eye(6)
        v = objective_batch(inp, params, np.concatenate([x + steps, x - steps]))
        evals += 12
        return (v[:6] - v[6:]) / (2.0 * h)

    zero = np.zeros(6)
    f0 = f(zero)
    bounds = list(zip(lo, hi))

    # ~15 evaluations per SLSQP iteration (gradient + line search). The
    # function tolerance is kept tight; termination is effectively the
    # step/iteration budget or full convergence.
    ftol = min(1e-8, params.step_tolerance)
    maxiter1 = max(5, budget // 15)
    res = minimize(f, zero, jac=grad, bounds=bounds, method="SLSQP",
                   options={"maxiter": maxiter1, "ftol": ftol})
    best_x = np.clip(res.x, lo, hi)
    best_f = f(best_x)
    degraded = bool(res.status == 9)  # iteration limit

    probes = _probe_deltas(params)
    probe_f = objective_batch(inp, params, probes)
    evals += len(probes)
    k = int(np.argmin(probe_f))
    if probe_f[k] < best_f and evals < budget:
        maxiter2 = max(5, (budget - evals) // 15)
        res2 = minimize(f, probes[k], jac=grad, bounds=bounds, method="SLSQP",
                        options={"maxiter": maxiter2, "ftol": ftol})
        x2 = np.clip(res2.x, lo, hi)
        f2 = f(x2)
        if f2 < best_f:
            best_x, best_f = x2, f2
            degraded = bool(res2.status == 9)
    if probe_f[k] < best_f:
        best_x, best_f = probes[k].copy(), float(probe_f[k])

    if best_f > f0:
        best_x, best_f = zero, f0
    if evals >= budget:
        degraded = True
    return PlanResult(delta=best_x, objective=float(best_f),
                      evaluations=evals, degraded=degraded)
