"""What a `reachtrack` process loads, checked in fresh interpreters.

The map build, the CLI and `import reachtrack` never need SciPy (only the
planner's SLSQP does) or a process pool (only `workers > 1` does), so
neither is imported until the first `plan_step` or parallel run.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# One plan on a grid with a voxel next to the sight line; run in a child
# interpreter and in this one.
PLAN = """
import numpy as np
from reachtrack.planner import PlannerInput, PlannerParams, plan_step
from reachtrack.reachability import ReachabilityMap
from reachtrack.transforms import Pose6
from reachtrack.world import OccupancyGrid

grid = OccupancyGrid.empty((-1.0, -1.0, -1.0), 0.1, (20, 20, 20))
grid.cells[14, 10, 10] = True
rmap = ReachabilityMap(origin=(-3.0, -3.0, -3.0), resolution=0.5, dims=(12, 12, 12),
                       scores=np.full((12, 12, 12), 0.8))
inp = PlannerInput(x_ee=Pose6(p=np.zeros(3), r=[0.0, np.pi / 2, 0.0]),
                   x_target=Pose6(p=[1.0, 0.0, 0.0], r=np.zeros(3)),
                   grid=grid, reach_map=rmap)
res = plan_step(inp, PlannerParams.paper_table1())
result = [res.delta.tolist(), res.objective, res.evaluations, res.degraded]
"""

BUILD = """
import reachtrack
import reachtrack.cli
rmap = reachtrack.build_map(reachtrack.desk_chain(), (0.2, 0.0, 0.4), (0.4, 0.1, 0.5),
                            resolution=0.1, n_orientations=3, restarts=1, workers=1)
assert rmap.dims == (2, 1, 1)
result = None
"""

REPORT = """
import json, sys
print(json.dumps({"result": result, "modules": sorted(sys.modules)}))
"""


def _child(code: str) -> dict:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
    done = subprocess.run([sys.executable, "-c", code + REPORT], env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def test_import_and_map_build_load_neither_scipy_nor_a_process_pool():
    modules = _child(BUILD)["modules"]
    assert "reachtrack.cli" in modules
    assert not any(m.split(".")[0] == "scipy" for m in modules)
    assert "concurrent.futures.process" not in modules


def test_first_plan_loads_scipy_and_plans_as_in_process():
    child = _child(PLAN)
    assert "scipy.optimize" in child["modules"]
    here = {}
    exec(PLAN, here)
    assert child["result"] == json.loads(json.dumps(here["result"]))
