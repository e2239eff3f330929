"""Per-layer metrics from the spans of a traced run.

The layers are the reachtrack modules: `sim`, `world`, `planner`, `ik` (with
`_fastkin` and `kinematics`, which it drives) and `reachability`. A layer's
self time is the part of its spans not covered by child spans, so the self
times of all layers inside an operation add up to the operation's time.
Metrics of work a workload does not do read 0.
"""

from __future__ import annotations

import numpy as np

from reachtrack import ik, kinematics, planner, reachability, sim

LAYER_GROUPS = {"sim": "sim", "world": "world", "planner": "planner", "ik": "ik",
                "_fastkin": "ik", "kinematics": "ik", "reachability": "reachability"}

OP_SPANS = ("sim.step", "reachability._score_cells")


def _ok(args, kwargs, result):
    return result is not None and result is not False


def install(tracer) -> None:
    """Span every module-level name the layers call into."""
    t = tracer
    episode = [0]

    def start_episode(args):
        episode[0] += 1
        return (episode[0], "init")

    t.patch(sim, "step", enter=lambda a: (episode[0], int(a[-1])))
    t.patch(sim, "init_run", enter=start_episode)
    t.patch(sim, "rasterize", info=lambda a, k, r: int(r.cells.sum()))
    t.patch(sim, "min_body_distance")
    t.patch(sim, "segment_visibility")
    t.patch(sim, "plan_step", info=lambda a, k, r: (r.evaluations, r.degraded))
    t.patch(sim, "ik_solve", info=_ok)
    t.patch(planner, "objective")
    t.patch(planner, "objective_batch", info=lambda a, k, r: len(r))
    t.patch(planner, "cone_grid_distance")
    t.patch(planner, "point_grid_distance")
    t.patch(ik, "ik_solve", info=_ok)
    t.patch(ik, "dls_burst", info=lambda a, k, r: (bool(r[1]), int(r[2])))
    for name in ("_frame_chain", "forward_kinematics", "world_capsules",
                 "self_collision", "min_capsule_point_clearance"):
        t.patch(kinematics, name)
    t.patch(reachability, "_score_cells", enter=lambda a: int(a[2][0]))
    t.patch(reachability, "position_reachable", info=_ok)
    t.patch(reachability, "ik_reachable", info=_ok)


def pct(values, q) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _ratio(num, den) -> float:
    return float(num / den) if den else 0.0


def metrics(tracer) -> dict:
    """Every per-layer metric as name -> (value, unit)."""
    spans = tracer.spans
    own = tracer.self_times()
    op_of = tracer.nearest(set(OP_SPANS))
    in_op = [i for i in range(len(spans)) if op_of[i] >= 0]
    ops = [i for i in in_op if op_of[i] == i]
    op_time = sum(spans[i].duration for i in ops)

    def named(name):
        return [spans[i] for i in in_op if spans[i].name == name]

    def ms(sel):
        return [s.duration * 1e3 for s in sel]

    def share(sel):
        return _ratio(sum(s.duration for s in sel), op_time)

    out = {}
    by_group = dict.fromkeys(("sim", "world", "planner", "ik", "reachability"), 0.0)
    for i in in_op:
        by_group[LAYER_GROUPS[spans[i].layer]] += own[i]
    for group, t in by_group.items():
        out[f"{group}.share_of_op"] = (_ratio(t, op_time), "share")

    out["sim.tick_self_ms_p50"] = (pct([own[i] * 1e3 for i in in_op
                                         if spans[i].name == "sim.step"], 50), "ms")
    inits = [s for s in spans if s.name == "sim.init_run"]
    out["sim.init_run_ms_p50"] = (pct(ms(inits), 50), "ms")

    plans = named("planner.plan_step")
    evals = [s.info[0] for s in plans]
    out["planner.plan_step_ms_p50"] = (pct(ms(plans), 50), "ms")
    out["planner.plan_step_ms_p90"] = (pct(ms(plans), 90), "ms")
    out["planner.plan_step_share"] = (share(plans), "share")
    out["planner.ms_per_eval"] = (_ratio(sum(ms(plans)), sum(evals)), "ms")
    out["planner.evals_p50"] = (pct(evals, 50), "count")
    out["planner.evals_mean"] = (_mean(evals), "count")
    out["planner.degraded_share"] = (_mean([s.info[1] for s in plans]), "share")
    out["planner.objective_calls_per_plan"] = (
        _ratio(len(named("planner.objective")), len(plans)), "count")
    out["planner.batch_rows_per_plan"] = (
        _ratio(sum(s.info for s in named("planner.objective_batch")), len(plans)), "count")

    solve_of = tracer.nearest({"ik.ik_solve"})
    solves = [i for i in in_op if solve_of[i] == i]
    ok = [i for i in solves if spans[i].info]
    fail = [i for i in solves if not spans[i].info]
    iters = dict.fromkeys(solves, 0)
    clearance = 0
    for i in in_op:
        s = spans[i]
        if solve_of[i] >= 0 and s.layer == "_fastkin":
            iters[solve_of[i]] += s.info[1]
        elif solve_of[i] >= 0 and s.name == "kinematics.min_capsule_point_clearance":
            clearance += 1
    ok_ms = [spans[i].duration * 1e3 for i in ok]
    fail_ms = [spans[i].duration * 1e3 for i in fail]
    out["ik.solve_ok_ms_p50"] = (pct(ok_ms, 50), "ms")
    out["ik.solve_ok_ms_p90"] = (pct(ok_ms, 90), "ms")
    out["ik.solve_fail_ms_p50"] = (pct(fail_ms, 50), "ms")
    out["ik.solve_fail_ms_p90"] = (pct(fail_ms, 90), "ms")
    out["ik.fail_over_ok_cost"] = (_ratio(_mean(fail_ms), _mean(ok_ms)), "ratio")
    out["ik.fail_share_of_solves"] = (_ratio(len(fail), len(solves)), "share")
    out["ik.dls_iters_ok_mean"] = (_mean([iters[i] for i in ok]), "count")
    out["ik.dls_iters_fail_mean"] = (_mean([iters[i] for i in fail]), "count")
    out["ik.clearance_calls_per_solve"] = (_ratio(clearance, len(solves)), "count")
    out["ik.solve_share"] = (share([spans[i] for i in solves]), "share")
    bursts = [spans[i] for i in in_op if spans[i].layer == "_fastkin"]
    out["_fastkin.us_per_dls_iter"] = (
        _ratio(sum(s.duration for s in bursts) * 1e6, sum(s.info[1] for s in bursts)), "us")

    cells = [spans[i] for i in ops if spans[i].name == "reachability._score_cells"]
    probes = named("ik.position_reachable")
    reached = {op_of[i] for i in in_op
               if spans[i].name == "ik.position_reachable" and spans[i].info}
    in_reach = [spans[i].duration for i in ops if i in reached]
    out_reach = [spans[i].duration for i in ops
                 if spans[i].name == "reachability._score_cells" and i not in reached]
    orientations = named("ik.ik_reachable")
    attempts = sum(1 for i in in_op if spans[i].name == "ik.ik_solve"
                   and spans[i].parent >= 0 and spans[spans[i].parent].name == "ik.ik_reachable")
    out["reachability.cell_s_in_reach_p50"] = (pct(in_reach, 50), "s")
    out["reachability.cell_s_in_reach_p90"] = (pct(in_reach, 90), "s")
    out["reachability.cell_s_out_of_reach_p50"] = (pct(out_reach, 50), "s")
    out["reachability.in_reach_share_of_cells"] = (_ratio(len(in_reach), len(cells)), "share")
    out["reachability.position_probe_ms_p50"] = (pct(ms(probes), 50), "ms")
    out["reachability.position_probe_share"] = (share(probes), "share")
    out["reachability.orientation_hit_ratio"] = (
        _mean([bool(s.info) for s in orientations]), "ratio")
    out["reachability.ik_attempts_per_orientation"] = (
        _ratio(attempts, len(orientations)), "count")

    raster = named("world.rasterize")
    collision = named("world.min_body_distance")
    visibility = named("world.segment_visibility")
    out["world.rasterize_ms_p50"] = (pct(ms(raster), 50), "ms")
    out["world.rasterize_ms_p90"] = (pct(ms(raster), 90), "ms")
    out["world.rasterize_share"] = (share(raster), "share")
    out["world.occupied_voxels_p50"] = (pct([s.info for s in raster], 50), "count")
    out["world.gt_collision_ms_p50"] = (pct(ms(collision), 50), "ms")
    out["world.gt_collision_ms_p90"] = (pct(ms(collision), 90), "ms")
    out["world.gt_collision_share"] = (share(collision), "share")
    out["world.gt_visibility_ms_p50"] = (pct(ms(visibility), 50), "ms")
    out["world.gt_visibility_share"] = (share(visibility), "share")

    out["trace.spans_per_op"] = (_ratio(len(in_op), len(ops)), "count")
    out["trace.ops"] = (float(len(ops)), "count")
    return out
