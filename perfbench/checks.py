"""Output checks on the program's results, run outside the measured time.

Each check returns None when the output is correct and a short reason
otherwise. `Checker` wraps the calls the workloads make so every planner
result, every successful IK solution and every slab score is checked as it
is produced, with the benchmark clock stopped and span recording off.
"""

from __future__ import annotations

import collections
import contextlib

import numpy as np

from reachtrack import ik, kinematics, planner, reachability, sim
from reachtrack.transforms import rotation_log

TOL = 1e-9


def ik_error(chain, target, q_prev, params, q) -> str | None:
    """A successful `ik_solve` result must reach `target` within the
    `IkParams` tolerances (verified by forward kinematics), stay inside the
    joint limits and move no joint more than the speed cap from `q_prev`."""
    q = np.asarray(q, dtype=float)
    if q.shape != (kinematics.NUM_JOINTS,) or not np.all(np.isfinite(q)):
        return "ik-not-finite"
    lo, hi = chain.joint_limits[:, 0], chain.joint_limits[:, 1]
    if np.any(q < lo - TOL) or np.any(q > hi + TOL):
        return "ik-joint-limits"
    if np.isfinite(params.speed_cap) and \
            np.max(np.abs(q - np.asarray(q_prev, dtype=float))) > params.speed_cap + TOL:
        return "ik-speed-cap"
    frame = kinematics.camera_frame(chain, q)
    if np.linalg.norm(frame[:3, 3] - target.p) > params.pos_tolerance + TOL:
        return "ik-position"
    angle = np.linalg.norm(rotation_log(target.rotation() @ frame[:3, :3].T))
    if angle > params.rot_tolerance + TOL:
        return "ik-rotation"
    return None


def plan_error(inp, params, result, objective) -> str | None:
    """A `PlanResult.delta` must lie in the delta box and its objective must
    be no worse than holding the pose (the zero delta)."""
    delta = np.asarray(result.delta, dtype=float)
    if delta.shape != (6,) or not np.all(np.isfinite(delta)):
        return "plan-not-finite"
    if np.any(delta < params.delta_lower - TOL) or np.any(delta > params.delta_upper + TOL):
        return "plan-outside-delta-box"
    hold = objective(inp, params, np.zeros(6))
    if not result.objective <= hold + TOL * max(1.0, abs(hold)):
        return "plan-worse-than-hold"
    return None


def grid_error(grid) -> str | None:
    """Every loop tick has obstacles crossing the workspace, so its occupancy
    grid must hold occupied voxels; an empty grid would leave the occlusion
    and collision terms unexercised."""
    return None if grid.cells.any() else "grid-empty"


def slab_error(score: float, n_orientations: int) -> str | None:
    """A cell score is a hit ratio: in [0, 1] on the 1/n_orientations lattice."""
    if not 0.0 <= score <= 1.0:
        return "slab-score-range"
    hits = score * n_orientations
    if abs(hits - round(hits)) > 1e-6:
        return "slab-score-lattice"
    return None


class Checker:
    """Wraps `sim.rasterize`, `sim.plan_step`, `sim.ik_solve`, `ik.ik_solve`
    and `reachability._score_cells` with checks.

    Failures are charged to the operation in progress through
    `op_timer.fail()`; `reasons` counts them by check.
    """

    def __init__(self, clock, op_timer, tracer=None):
        self.clock = clock
        self.op_timer = op_timer
        self.tracer = tracer
        self.checked = collections.Counter()
        self.reasons = collections.Counter()
        self._objective = planner.objective
        self._patched = []

    @contextlib.contextmanager
    def _quiet(self):
        recording = self.tracer is not None and self.tracer.recording
        if recording:
            self.tracer.recording = False
        try:
            with self.clock.excluded():
                yield
        finally:
            if recording:
                self.tracer.recording = True

    def record(self, name: str, error: str | None) -> None:
        self.checked[name] += 1
        if error is not None:
            self.reasons[error] += 1
            self.op_timer.fail()

    def install(self) -> None:
        checker = self

        def wrap_grid(rasterize):
            def checked(*args, **kwargs):
                grid = rasterize(*args, **kwargs)
                with checker._quiet():
                    checker.record("grid", grid_error(grid))
                return grid
            return checked

        def wrap_plan(plan_step):
            def checked(inp, params, eval_cap=None):
                result = plan_step(inp, params, eval_cap)
                with checker._quiet():
                    checker.record("plan", plan_error(inp, params, result,
                                                      checker._objective))
                return result
            return checked

        def wrap_ik(ik_solve):
            def checked(chain, target, q_prev, grid, params):
                q_in = np.array(q_prev, dtype=float)
                q = ik_solve(chain, target, q_prev, grid, params)
                if q is not None:
                    with checker._quiet():
                        checker.record("ik", ik_error(chain, target, q_in, params, q))
                return q
            return checked

        def wrap_cells(score_cells):
            def checked(chain, centers, flat_indices, eulers, seed, restarts, ik_params):
                scores = score_cells(chain, centers, flat_indices, eulers, seed,
                                     restarts, ik_params)
                with checker._quiet():
                    for s in scores:
                        checker.record("slab", slab_error(float(s), len(eulers)))
                return scores
            return checked

        for owner, attr, wrap in ((sim, "rasterize", wrap_grid),
                                  (sim, "plan_step", wrap_plan),
                                  (sim, "ik_solve", wrap_ik),
                                  (ik, "ik_solve", wrap_ik),
                                  (reachability, "_score_cells", wrap_cells)):
            fn = getattr(owner, attr)
            self._patched.append((owner, attr, fn))
            setattr(owner, attr, wrap(fn))

    def restore(self) -> None:
        while self._patched:
            owner, attr, fn = self._patched.pop()
            setattr(owner, attr, fn)
