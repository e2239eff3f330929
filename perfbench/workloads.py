"""The benchmark's workloads and the timed loop that runs them.

Each workload is one closed-loop client: the next operation starts when the
previous one ends. An operation is one closed-loop tick (`sim.step`, driven
by `sim.run`) or one map cell (`reachability._score_cells`). Work is done in
passes; pass p draws its inputs from the workload seed and p, so a run is a
sequence of independent seeded inputs, as many as fit in the measured time.
"""

from __future__ import annotations

import sys
import time
import traceback
from dataclasses import dataclass, replace

import numpy as np

from reachtrack import reachability, sim
from reachtrack.config import default_config
from reachtrack.scenarios import AblationMask, crossing_obstacles
from reachtrack.transforms import matrix_to_euler_xyz


@dataclass(frozen=True)
class Loop:
    """Closed-loop episodes of kind-1 scenarios whose crossing obstacles are
    in the workspace from the first tick (see `crossing_bodies`)."""

    name: str
    obstacles: int
    target: str                    # "walk" | "stationary"
    ablation: str                  # objective terms, e.g. "track+occl+col"
    horizon: int                   # ticks per episode; one episode per pass


@dataclass(frozen=True)
class Slab:
    """Cells of the shipped reachability box, scored at the shipped settings."""

    name: str
    cells: tuple                   # (i, j, k) cell indices, in scoring order


WORKLOADS = {w.name: w for w in (
    Loop("loop-crossing", obstacles=2, target="walk", ablation="track+occl+col",
         horizon=5),
    # Four cells of the x-row (j=10, k=16) through the arm's workspace. End
    # cell 23 fails the position probe for every seed; cells 7-17 pass it
    # and are scored in full. The marginal cells 1-5 and 19-22, whose probe
    # outcome depends on the seed, are left out. Small passes mean many
    # build seeds per run, so a run averages over them.
    Slab("map-slab", cells=tuple((i, 10, 16) for i in (23, 11, 7, 15))),
)}

SMOKE = {"horizon": 3, "cells": 2}
LEAD_M = (0.6, 1.6)                # body's distance before its crossing point at tick 0
WARM_UP = 2**31                    # pass index of the untimed warm-up


def pass_seed(seed: int, p: int) -> int:
    """Input seed of pass p of a run with workload seed `seed`."""
    return int(np.random.SeedSequence([seed, p]).generate_state(1)[0])


def crossing_bodies(spec, seed: int) -> tuple:
    """The bodies `crossing_obstacles` draws for `seed`, re-timed so that at
    tick 0 each is LEAD_M metres (drawn uniformly) before its crossing point,
    the middle of its path, and moving toward it. With the shipped start
    delays the earliest body enters the workspace after ~0.27 s, later than
    a short episode ends. Re-timed, every body is in the occupancy grid on
    every tick, so the occlusion and collision terms and the IK clearance
    run on real obstacles. The crossing points lie on the arm-target
    corridor; stopping short of them keeps collisions, which end an episode
    at its first ticks, rare."""
    rng = np.random.default_rng(seed)
    bodies = []
    for body in crossing_obstacles(spec, rng):
        half_path = np.linalg.norm(body.waypoints[-1] - body.waypoints[0]) / 2.0
        lead = rng.uniform(*LEAD_M)
        bodies.append(replace(body, start_time=(lead - half_path) / body.speeds[0]))
    return tuple(bodies)


class LoopBench:
    """One seeded `sim.run` episode per pass; one operation is one `sim.step`."""

    op_owner, op_attr = sim, "step"

    def __init__(self, wl: Loop, seed: int, smoke: bool):
        cfg = default_config()
        base = cfg.scenario
        self.wl = wl
        self.seed = seed
        self.chain, self.planner, self.ik = cfg.chain, cfg.planner, cfg.ik
        self.spec = replace(
            base, kind=1,
            obstacles=replace(base.obstacles, count=wl.obstacles),
            target=replace(base.target, mode=wl.target),
            ablation=AblationMask.from_label(wl.ablation),
            horizon=SMOKE["horizon"] if smoke else wl.horizon, runs=1)

    def episode(self, p: int):
        """The scenario of pass p, obstacles included."""
        spec = replace(self.spec, seed=pass_seed(self.seed, p))
        return replace(spec, explicit_obstacles=crossing_bodies(spec, spec.seed))

    def warm_up(self) -> None:
        """Two untimed ticks, so lazy imports and first-call costs are paid."""
        spec = replace(self.episode(WARM_UP), horizon=2)
        sim.run(spec, self.chain, self.planner, self.ik, None)

    def run_pass(self, p: int, stop=None):
        """Per-episode `RunMetrics` of pass p; a loop pass is never cut short."""
        metrics, _ = sim.run(self.episode(p), self.chain, self.planner, self.ik, None)
        return metrics

    @staticmethod
    def ops(result) -> int:
        return sum(m.elapsed for m in result) if result else 0

    def fidelity(self, results) -> dict:
        """The paper's table columns over every episode of every pass."""
        row = sim.aggregate("s1", self.wl.ablation,
                            [m for r in results if r for m in r])
        return {"tracking_rate": (row.tracking_rate, "share"),
                "ik_failure_rate": (row.ik_failure_rate, "share"),
                "collision_failures": (float(row.collision_failures), "count"),
                "avg_elapsed_steps": (row.avg_elapsed_steps, "count")}


class SlabBench:
    """`reachability._score_cells` one cell at a time, exactly as `build_map`
    scores that cell of the shipped box; one operation is one cell. Pass p
    is a build with its own seed, so its orientation samples and restarts
    differ from every other pass."""

    op_owner, op_attr = reachability, "_score_cells"

    def __init__(self, wl: Slab, seed: int, smoke: bool):
        cfg = default_config()
        rc = cfg.reachability
        self.rc = rc
        self.seed = seed
        self.chain = cfg.chain
        self.ik_params = replace(cfg.ik, max_iterations=rc.ik_max_iterations)
        lo, hi = np.asarray(rc.box_lo, dtype=float), np.asarray(rc.box_hi, dtype=float)
        dims = tuple(int(np.ceil((hi[i] - lo[i]) / rc.resolution - 1e-9)) for i in range(3))
        cells = np.array(wl.cells[:SMOKE["cells"]] if smoke else wl.cells)
        self.flat = np.ravel_multi_index(cells.T, dims)
        self.centers = lo + (cells + 0.5) * rc.resolution

    def warm_up(self) -> None:
        """The first cell once, untimed, with a seed no pass uses."""
        self.run_pass(WARM_UP, stop=lambda done: True)

    def run_pass(self, p: int, stop=None):
        """Scores of pass p's cells, in order, until `stop(cells_done)`."""
        build_seed = pass_seed(self.seed, p)
        eulers = np.array([matrix_to_euler_xyz(m) for m in
                           reachability.sample_orientations(self.rc.orientations, build_seed)])
        scores = []
        for c in range(len(self.flat)):
            if scores and stop is not None and stop(len(scores)):
                break
            scores.append(float(reachability._score_cells(
                self.chain, self.centers[c:c + 1], self.flat[c:c + 1], eulers,
                build_seed, self.rc.restarts, self.ik_params)[0]))
        return scores

    @staticmethod
    def ops(result) -> int:
        return len(result) if result else 0

    def fidelity(self, results) -> dict:
        scores = [s for r in results if r for s in r]
        return {"map_mean_score": (float(np.mean(scores)) if scores else 0.0, "share")}


def make_bench(name: str, seed: int, smoke: bool):
    wl = WORKLOADS[name]
    if isinstance(wl, Loop):
        return LoopBench(wl, seed, smoke)
    return SlabBench(wl, seed, smoke)


def machine_ms() -> float:
    """Time of a fixed snippet of tiny numpy calls and Python loops, the mix
    the workloads run. It tracks how fast the host runs this process now."""
    a = np.eye(3)
    t0 = time.perf_counter()
    for _ in range(300):
        np.dot(a, a)
        sum(range(50))
    return (time.perf_counter() - t0) * 1e3


def measure(bench, clock, seconds: float, after=None):
    """Run passes until `seconds` have passed on the clock, at least one.
    A slab pass after the first stops between cells at the deadline.
    `after(p, result)` runs after each pass, inside the same deadline.
    Returns the pass results, the clock time each pass took, and
    `machine_ms()` after each pass, taken with the clock stopped."""
    results, times, machine = [], [], []
    deadline = clock.now() + seconds
    while not results or clock.now() < deadline:
        t0 = clock.now()
        results.append(_run(bench, len(results),
                            lambda done: bool(results) and clock.now() >= deadline))
        times.append(clock.now() - t0)
        with clock.excluded():
            machine.append(machine_ms())
        if after is not None:
            after(len(results) - 1, results[-1])
    return results, times, machine


def replay(bench, p: int, result):
    """Pass p again, to the size `result` had."""
    return _run(bench, p, lambda done, n=bench.ops(result): done >= n)


def _run(bench, p, stop):
    """One pass; a pass that raises is logged and recorded as None (its
    failed operation is already counted)."""
    try:
        return bench.run_pass(p, stop)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None
