"""Smoke runs of every workload, plus the tracer and output checks.

    python3 -m pytest perfbench/tests -q
"""

import argparse
import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from perfbench import run
from perfbench.checks import grid_error, ik_error, plan_error, slab_error
from perfbench.spans import Clock, Tracer
from perfbench.workloads import WORKLOADS, Loop
from reachtrack import (IkParams, PlannerInput, desk_chain, forward_kinematics, objective,
                        plan_step)
from reachtrack.config import default_config
from reachtrack.transforms import Pose6
from reachtrack.world import OccupancyGrid

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# What the report line must carry besides the contract metrics.
LOOP_REPORT = {"ticks_per_s", "tick_ms_p50", "tick_ms_p90", "failed_ops_share",
               "tracking_rate", "ik_failure_rate", "collision_failures"}
SLAB_REPORT = {"cells_per_s", "failed_ops_share", "map_mean_score"}
LAYER_REPORT = {"planner.plan_step_ms_p50", "planner.plan_step_ms_p90",
                "planner.ms_per_eval", "world.rasterize_ms_p50",
                "world.gt_collision_ms_p50", "world.gt_visibility_ms_p50",
                "reachability.cell_s_in_reach_p50", "reachability.cell_s_out_of_reach_p50",
                "reachability.position_probe_ms_p50", "world.occupied_voxels_p50",
                "sim.tick_self_ms_p50", "sim.init_run_ms_p50", "trace.overhead_share"}


def run_bench(cwd, workload, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_benchmark_json_names_known_workloads():
    listed = [w["name"] for w in SPEC["workloads"]]
    assert listed == list(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_is_correct_and_complete(workload, trace):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr
    *_, report_line, result_line = done.stdout.splitlines()
    result = json.loads(result_line)
    report = json.loads(report_line)["report"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        value = result["metrics"][m["name"]]
        assert value["unit"] == m["unit"]
        assert isinstance(value["value"], float) and math.isfinite(value["value"])
    assert report["deterministic"]
    if trace:
        assert LAYER_REPORT <= set(report["metrics"])
        shares = [report["metrics"][f"{g}.share_of_op"]["value"]
                  for g in ("sim", "world", "planner", "ik", "reachability")]
        assert math.isclose(sum(shares), 1.0, rel_tol=1e-9)
    else:
        loop = isinstance(WORKLOADS[workload], Loop)
        assert (LOOP_REPORT if loop else SLAB_REPORT) <= set(report["metrics"])
        assert {"grid", "plan", "ik"} <= set(report["checked"]) if loop else \
            {"slab", "ik"} <= set(report["checked"])


def test_traced_and_untraced_runs_agree():
    digests = set()
    for trace in (0, 1):
        done = run_bench(ROOT, "map-slab", trace)
        digests.add(json.loads(done.stdout.splitlines()[-2])["report"]["first_pass_sha256"])
    assert len(digests) == 1


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = run_bench(tmp_path, "loop-crossing", 0)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


class _Failing:
    """A workload whose every pass raises."""

    op_owner, op_attr = types.SimpleNamespace(op=lambda: None), "op"

    def run_pass(self, p, stop=None):
        raise RuntimeError("pass failed")

    @staticmethod
    def ops(result):
        return 0

    def fidelity(self, results):
        return {}


def test_a_raising_first_pass_is_reported_not_deterministic():
    results, *_, same, _ = run.run_untraced(argparse.Namespace(seconds=0.0), _Failing(),
                                            Clock(), [1.0])
    assert results == [None] and same is False


def _leaf():
    sum(range(2000))


def _middle():
    _leaf()
    _leaf()


def _root():
    _middle()
    _leaf()


def test_self_times_add_up_to_the_root_span():
    here = sys.modules[__name__]
    tracer = Tracer(Clock())
    for name in ("_leaf", "_middle", "_root"):
        tracer.patch(here, name)
    try:
        tracer.recording = True
        _root()
    finally:
        tracer.recording = False
        tracer.restore()
    names = [s.name.rsplit(".", 1)[-1] for s in tracer.spans]
    assert names == ["_root", "_middle", "_leaf", "_leaf", "_leaf"]
    assert [s.parent for s in tracer.spans] == [-1, 0, 1, 1, 0]
    assert math.isclose(sum(tracer.self_times()), tracer.spans[0].duration, rel_tol=1e-9)


def test_checks_reject_bad_outputs():
    chain = desk_chain()
    params = IkParams()
    q = chain.home.copy()
    target = forward_kinematics(chain, q).camera_pose
    assert ik_error(chain, target, q, params, q) is None
    moved = q.copy()
    moved[0] += 0.1
    assert ik_error(chain, target, q, params, moved) == "ik-position"
    assert ik_error(chain, forward_kinematics(chain, moved).camera_pose,
                    moved - 0.2, params, moved) == "ik-speed-cap"

    cfg = default_config()
    grid = OccupancyGrid.empty((-2.5, -0.5, 0.0), 0.05, (60, 80, 60))
    inp = PlannerInput(x_ee=target, x_target=Pose6(p=target.p + [0.0, 1.0, 0.0],
                                                   r=np.zeros(3)), grid=grid)
    result = plan_step(inp, cfg.planner)
    assert plan_error(inp, cfg.planner, result, objective) is None
    result.delta = cfg.planner.delta_upper * 2.0
    assert plan_error(inp, cfg.planner, result, objective) == "plan-outside-delta-box"

    assert grid_error(grid) == "grid-empty"
    grid.cells[0, 0, 0] = True
    assert grid_error(grid) is None

    assert slab_error(12 / 50, 50) is None
    assert slab_error(0.123, 50) == "slab-score-lattice"
    assert slab_error(1.5, 50) == "slab-score-range"

