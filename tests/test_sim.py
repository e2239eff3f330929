"""Closed-loop determinism: a seeded `sim.run` gives the same runs and step
records whatever the worker count, and again when run a second time."""

from dataclasses import replace

import numpy as np
import pytest

from reachtrack import sim
from reachtrack.ik import IkParams
from reachtrack.planner import PlannerParams
from reachtrack.scenarios import AblationMask, ObstacleSpec, ScenarioSpec
from reachtrack.world import Box, ObstacleBody, rasterize

CROSSING_POINTS = ([-1.0, 1.2, 1.4], [-0.9, 1.0, 1.7])


def _spec():
    """Two 3-tick kind-1 runs, no map; two boxes cross the arm-target
    corridor along x, 1 m before their crossing points at t = 0, so the
    occupancy grid holds voxels on every tick."""
    bodies = tuple(
        ObstacleBody(body_id=f"crossing-{i}", shape=Box(half_extents=np.full(3, 0.125)),
                     waypoints=[np.add(c, [-1.0, 0, 0]), np.add(c, [1.0, 0, 0])],
                     speeds=[1.0])
        for i, c in enumerate(CROSSING_POINTS))
    return ScenarioSpec(kind=1, horizon=3, runs=2, seed=5,
                        ablation=AblationMask.from_label("track+occl+col"),
                        obstacles=ObstacleSpec(count=2), explicit_obstacles=bodies)


def _run(chain, workers):
    return sim.run(_spec(), chain, PlannerParams.paper_table1(), IkParams(), None,
                   workers=workers, collect_steps=True)


def _untimed(steps):
    return [[replace(r, raster_ms=0.0, plan_ms=0.0, ik_ms=0.0) for r in records]
            for records in steps]


@pytest.fixture(scope="module")
def serial(mounted_chain):
    return _run(mounted_chain, workers=1)


def test_bodies_occupy_the_grid_on_every_tick():
    spec = _spec()
    for tick in range(1, spec.horizon + 1):
        grid = rasterize([b.at(tick * spec.dt) for b in spec.explicit_obstacles],
                         spec.workspace_lo, spec.grid_resolution, sim._grid_dims(spec))
        assert grid.cells.any()


def test_worker_count_does_not_change_runs(serial, mounted_chain):
    metrics, steps = serial
    assert [m.elapsed for m in metrics] == [3, 3]
    metrics2, steps2 = _run(mounted_chain, workers=2)
    assert metrics2 == metrics
    assert _untimed(steps2) == _untimed(steps)


def test_same_seed_same_step_records(serial, mounted_chain):
    metrics, steps = serial
    again_metrics, again_steps = _run(mounted_chain, workers=1)
    assert again_metrics == metrics
    assert _untimed(again_steps) == _untimed(steps)
    assert all(np.isfinite(r.min_obstacle_distance) for records in steps for r in records)
