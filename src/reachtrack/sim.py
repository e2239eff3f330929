"""Closed-loop simulation engine: sense, plan, solve, check, record.

Each tick advances the ground-truth scene, updates the target estimate from
synthetic visibility, rasterizes the occupancy grid, optimizes the pose
delta, runs IK (holding the previous configuration on failure) and checks
ground-truth collision. A collision terminates the run at that tick; rate
metrics are computed over the elapsed ticks only.
"""

from __future__ import annotations

import csv
import json
import time
from dataclasses import dataclass, replace

import numpy as np

from . import kinematics as kin
from .ik import IkParams, ik_solve
from .planner import PlannerInput, PlannerParams, plan_step
from .reachability import ReachabilityMap
from .scenarios import AblationMask, ScenarioSpec, TargetPath, generate_obstacles
from .transforms import Pose6, compose_pose_delta
from .world import (
    PlacedBody,
    Sphere,
    min_body_distance,
    rasterize,
    segment_visibility,
)

# Ablation rows of the results tables, in presentation order.
TABLE_CONFIGS = (
    AblationMask(occl=True, col=False, reach=False),
    AblationMask(occl=True, col=True, reach=False),
    AblationMask(occl=True, col=False, reach=True),
    AblationMask(occl=True, col=True, reach=True),
)

AGGREGATE_COLUMNS = ("case", "objective", "collision_failures",
                     "avg_elapsed_steps", "ik_failure_rate", "tracking_rate")

STEP_COLUMNS = ("tick", "target_visible", "ik_failed", "collision",
                "min_obstacle_distance", "objective", "reach_score",
                "raster_ms", "plan_ms", "ik_ms")


@dataclass
class StepRecord:
    tick: int
    target_visible: bool
    ik_failed: bool
    collision: bool
    min_obstacle_distance: float
    objective: float
    reach_score: float
    raster_ms: float
    plan_ms: float
    ik_ms: float


@dataclass
class RunMetrics:
    collided: bool
    elapsed: int
    ik_failure_rate: float
    tracking_rate: float
    collision_speed: float | None = None   # speed of the obstacle that hit

    @classmethod
    def from_records(cls, records: list[StepRecord],
                     collision_speed: float | None) -> "RunMetrics":
        n = len(records)
        return cls(
            collided=bool(records and records[-1].collision),
            elapsed=n,
            ik_failure_rate=float(np.mean([r.ik_failed for r in records])) if n else 0.0,
            tracking_rate=float(np.mean([r.target_visible for r in records])) if n else 0.0,
            collision_speed=collision_speed,
        )


@dataclass
class AggregateRow:
    case: str
    objective: str
    collision_failures: int
    avg_elapsed_steps: float
    ik_failure_rate: float
    tracking_rate: float

    def as_tuple(self):
        return (self.case, self.objective, self.collision_failures,
                self.avg_elapsed_steps, self.ik_failure_rate, self.tracking_rate)


def aggregate(case: str, objective_label: str, runs: list[RunMetrics]) -> AggregateRow:
    """The four columns of the results tables for one configuration."""
    return AggregateRow(
        case=case,
        objective=objective_label,
        collision_failures=sum(r.collided for r in runs),
        avg_elapsed_steps=float(np.mean([r.elapsed for r in runs])),
        ik_failure_rate=float(np.mean([r.ik_failure_rate for r in runs])),
        tracking_rate=float(np.mean([r.tracking_rate for r in runs])),
    )


@dataclass
class SimState:
    """Mutable per-run loop state."""

    t: float
    q: np.ndarray
    camera: Pose6
    estimate: Pose6
    target_path: TargetPath
    obstacles: list
    terminated: bool = False


def _look_at(position: np.ndarray, target: np.ndarray) -> Pose6:
    z = target - position
    z = z / np.linalg.norm(z)
    up = np.array([0.0, 0.0, 1.0])
    if abs(z @ up) > 0.99:
        up = np.array([1.0, 0.0, 0.0])
    x = np.cross(up, z)
    x /= np.linalg.norm(x)
    y = np.cross(z, x)
    frame = np.eye(4)
    frame[:3, 0], frame[:3, 1], frame[:3, 2], frame[:3, 3] = x, y, z, position
    return Pose6.from_matrix(frame)


def initial_configuration(chain: kin.KinematicChain, target0: np.ndarray,
                          d_des: float, ik_params: IkParams,
                          rng: np.random.Generator) -> np.ndarray:
    """Seed the run already tracking: solve a look-at pose at the desired
    distance, falling back to the home configuration."""
    anchor = chain.base_position() + np.array([0.0, 0.0, 0.2])
    direction = anchor - target0
    direction /= np.linalg.norm(direction)
    pose = _look_at(target0 + d_des * direction, target0)
    params = replace(ik_params, speed_cap=float("inf"), max_iterations=120)
    for _ in range(10):
        q0 = chain.random_config(rng) if _ else chain.home.copy()
        q = ik_solve(chain, pose, q0, None, params)
        if q is not None:
            return q
    return chain.home.copy()


def _visible(camera: Pose6, target_p: np.ndarray, bodies, cam_model) -> bool:
    rel = target_p - camera.p
    d = float(np.linalg.norm(rel))
    if d < cam_model.range_min or d > cam_model.range_max:
        return False
    view = camera.view_axis()
    cos = float(np.dot(view, rel / d))
    if np.arccos(np.clip(cos, -1.0, 1.0)) > cam_model.fov_half_angle:
        return False
    return segment_visibility(bodies, camera.p, target_p)


def init_run(spec: ScenarioSpec, chain: kin.KinematicChain,
             planner_params: PlannerParams, ik_params: IkParams,
             run_seed) -> SimState:
    ss = np.random.SeedSequence(entropy=spec.seed, spawn_key=(int(run_seed),))
    rng_target, rng_obstacles, rng_init = (np.random.default_rng(s) for s in ss.spawn(3))
    target_path = TargetPath(spec.target, rng_target)
    target0 = target_path.pos.copy()
    q0 = initial_configuration(chain, target0, planner_params.d_des, ik_params, rng_init)
    camera0 = kin.forward_kinematics(chain, q0).camera_pose
    obstacles = generate_obstacles(spec, rng_obstacles,
                                   los_a=camera0.p, los_b=target0)
    return SimState(t=0.0, q=q0, camera=camera0,
                    estimate=Pose6(p=target0, r=np.zeros(3)),
                    target_path=target_path, obstacles=obstacles)


def step(state: SimState, spec: ScenarioSpec, chain: kin.KinematicChain,
         planner_params: PlannerParams, ik_params: IkParams,
         rmap: ReachabilityMap | None, tick: int) -> StepRecord:
    """Advance the closed loop one tick and record its outcome."""
    if state.terminated:
        raise RuntimeError("run already terminated")
    state.t += spec.dt
    target_p = state.target_path.advance(spec.target.speed * spec.dt)
    bodies = [o.at(state.t) for o in state.obstacles]

    visible = _visible(state.camera, target_p, bodies, spec.camera)
    if visible:
        # Most recent target position is kept while the target is unseen.
        state.estimate = Pose6(p=target_p.copy(), r=state.estimate.r)

    t0 = time.perf_counter()
    frames = kin._frame_chain(chain, state.q)[2]
    grid = rasterize(
        bodies, spec.workspace_lo, spec.grid_resolution,
        _grid_dims(spec),
        exclude_capsules=kin.world_capsules(chain, state.q, link_frames=frames),
        target_body=PlacedBody(shape=Sphere(spec.target.body_radius),
                               center=target_p, body_id="target"),
    )
    raster_ms = (time.perf_counter() - t0) * 1e3

    inp = PlannerInput(x_ee=state.camera, x_target=state.estimate,
                       grid=grid, reach_map=rmap)
    t0 = time.perf_counter()
    plan = plan_step(inp, planner_params)
    plan_ms = (time.perf_counter() - t0) * 1e3

    desired = compose_pose_delta(state.camera, plan.delta)
    t0 = time.perf_counter()
    q_new = ik_solve(chain, desired, state.q, grid, ik_params)
    ik_ms = (time.perf_counter() - t0) * 1e3
    ik_failed = q_new is None
    if not ik_failed:
        state.q = q_new
        state.camera = kin.forward_kinematics(chain, state.q).camera_pose

    capsules = kin.world_capsules(chain, state.q)
    min_dist = min_body_distance(capsules, bodies) if bodies else float("inf")
    collision = bool(bodies) and min_dist <= 0.0
    if collision:
        state.terminated = True

    reach_score = rmap.query(state.camera.p) if rmap is not None else 0.0
    return StepRecord(
        tick=tick, target_visible=visible, ik_failed=ik_failed, collision=collision,
        min_obstacle_distance=float(min_dist), objective=plan.objective,
        reach_score=float(reach_score), raster_ms=raster_ms, plan_ms=plan_ms,
        ik_ms=ik_ms,
    )


def _grid_dims(spec: ScenarioSpec):
    lo = np.asarray(spec.workspace_lo, dtype=float)
    hi = np.asarray(spec.workspace_hi, dtype=float)
    return tuple(int(np.ceil((hi[i] - lo[i]) / spec.grid_resolution - 1e-9))
                 for i in range(3))


def _planner_for(spec: ScenarioSpec, base: PlannerParams) -> PlannerParams:
    return replace(base, enable_occl=spec.ablation.occl,
                   enable_col=spec.ablation.col, enable_reach=spec.ablation.reach)


def single_run(spec: ScenarioSpec, chain: kin.KinematicChain,
               planner_params: PlannerParams, ik_params: IkParams,
               rmap: ReachabilityMap | None, run_index: int,
               collect_steps: bool = False):
    """One seeded closed-loop run; returns (RunMetrics, records or None)."""
    params = _planner_for(spec, planner_params)
    state = init_run(spec, chain, params, ik_params, run_index)
    records = []
    for tick in range(spec.horizon):
        rec = step(state, spec, chain, params, ik_params, rmap, tick)
        records.append(rec)
        if rec.collision:
            break
    speed = None
    if records and records[-1].collision:
        bodies = [o.at(state.t) for o in state.obstacles]
        capsules = kin.world_capsules(chain, state.q)
        dists = [min_body_distance(capsules, [b]) for b in bodies]
        culprit = int(np.argmin(dists))
        speed = float(state.obstacles[culprit].speeds[0])
    metrics = RunMetrics.from_records(records, speed)
    return metrics, (records if collect_steps else None)


def _run_chunk(spec, chain, planner_params, ik_params, rmap, indices, collect_steps):
    return [single_run(spec, chain, planner_params, ik_params, rmap, i,
                       collect_steps) for i in indices]


def run(spec: ScenarioSpec, chain: kin.KinematicChain,
        planner_params: PlannerParams, ik_params: IkParams,
        rmap: ReachabilityMap | None, workers: int = 1,
        collect_steps: bool = False):
    """Execute spec.runs independent seeded runs.

    Returns (metrics list, step-record lists or Nones). Results are ordered
    by run index and independent of the worker count.
    """
    indices = list(range(spec.runs))
    if workers <= 1 or spec.runs == 1:
        results = _run_chunk(spec, chain, planner_params, ik_params, rmap,
                             indices, collect_steps)
    else:
        from concurrent.futures import ProcessPoolExecutor
        chunks = np.array_split(np.asarray(indices), workers)
        results = [None] * spec.runs
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [(chunk, pool.submit(_run_chunk, spec, chain, planner_params,
                                           ik_params, rmap, list(chunk), collect_steps))
                       for chunk in chunks if len(chunk)]
            for chunk, fut in futures:
                for idx, res in zip(chunk, fut.result()):
                    results[int(idx)] = res
    metrics = [m for m, _ in results]
    steps = [s for _, s in results]
    return metrics, steps


# -- exports -----------------------------------------------------------------

def speed_histogram(runs: list[RunMetrics], bins: int = 4,
                    speed_range=(0.8, 1.2)):
    """Collision-failure counts binned by the colliding obstacle's speed."""
    edges = np.linspace(speed_range[0], speed_range[1], bins + 1)
    counts = np.zeros(bins, dtype=int)
    for r in runs:
        if r.collided and r.collision_speed is not None:
            k = int(np.clip(np.searchsorted(edges, r.collision_speed, side="right") - 1,
                            0, bins - 1))
            counts[k] += 1
    return edges, counts


def write_steps_csv(path, records: list[StepRecord], config_hash: str = "") -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# config={config_hash or '-'}\n")
        writer = csv.writer(fh)
        writer.writerow(STEP_COLUMNS)
        for r in records:
            writer.writerow([r.tick, int(r.target_visible), int(r.ik_failed),
                             int(r.collision), f"{r.min_obstacle_distance:.6f}",
                             f"{r.objective:.9g}", f"{r.reach_score:.6f}",
                             f"{r.raster_ms:.3f}", f"{r.plan_ms:.3f}", f"{r.ik_ms:.3f}"])


def write_aggregate_csv(path, rows: list[AggregateRow], config_hash: str = "") -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# config={config_hash or '-'}\n")
        writer = csv.writer(fh)
        writer.writerow(AGGREGATE_COLUMNS)
        for row in rows:
            case, objective, failures, elapsed, ik_rate, tracking = row.as_tuple()
            writer.writerow([case, objective, failures, f"{elapsed:.1f}",
                             f"{ik_rate:.3f}", f"{tracking:.3f}"])


def write_aggregate_json(path, rows: list[AggregateRow], config_hash: str = "") -> None:
    payload = {
        "config": config_hash or "-",
        "columns": list(AGGREGATE_COLUMNS),
        "rows": [row.as_tuple() for row in rows],
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")


def write_histogram_csv(path, edges: np.ndarray, counts: np.ndarray,
                        config_hash: str = "") -> None:
    with open(path, "w", newline="") as fh:
        fh.write(f"# config={config_hash or '-'}\n")
        writer = csv.writer(fh)
        writer.writerow(["speed_lo", "speed_hi", "collision_failures"])
        for i, c in enumerate(counts):
            writer.writerow([f"{edges[i]:.2f}", f"{edges[i + 1]:.2f}", int(c)])
