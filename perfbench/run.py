"""reachtrack benchmark: seeded closed-loop and map-build workloads.

    python3 perfbench/run.py --workload loop-crossing --seed 1 --seconds 30 --trace 0

Run from the repository root. It imports reachtrack from `src/` of the tree
it sits in and runs one workload of BENCHMARK.json for `--seconds`. With
`--trace 0` it measures the end-to-end metrics with tracing off; with
`--trace 1` it measures the same passes untraced and then traced, reports
the per-layer metrics and writes the spans to `perfbench/out/`. Every
result is checked (see checks.py). The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}; the line before
it is a report with every metric, the check counts and the environment.
`--smoke` runs every workload at a tiny size, for tests.
"""

import os
import time

_T0 = time.perf_counter()
# One BLAS thread, fixed before numpy loads: the loops make many tiny BLAS
# calls, and a thread pool per call only adds noise on a shared machine.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 5


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    p.add_argument("--setup-only", action="store_true",
                   help="set the workload up, print the seconds it took, exit")
    return p.parse_args(argv)


def import_program():
    """Import reachtrack from this tree's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "reachtrack" / "__init__.py").is_file():
        sys.exit(f"benchmark: {src / 'reachtrack'} not found; run from a reachtrack checkout")
    sys.path[:0] = [str(src), str(ROOT)]
    import reachtrack
    if Path(reachtrack.__file__).resolve().parent != (src / "reachtrack").resolve():
        sys.exit(f"benchmark: imported reachtrack from {reachtrack.__file__}, not {src}")


# -- environment stamp --------------------------------------------------------

def _git_commit():
    """HEAD of this tree's own .git directory, if it has one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "reachtrack").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _blas_threads(*modules) -> dict:
    """Thread count each bundled OpenBLAS reports at run time."""
    out = {}
    for mod in modules:
        libdir = Path(mod.__file__).resolve().parent.parent / f"{mod.__name__}.libs"
        for lib in glob.glob(str(libdir / "*openblas*")):
            try:
                handle = ctypes.CDLL(lib)
            except OSError:
                continue
            for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                        "openblas_get_num_threads"):
                if hasattr(handle, sym):
                    get = getattr(handle, sym)
                    get.argtypes, get.restype = [], ctypes.c_int
                    out[f"{mod.__name__}:{Path(lib).name}"] = get()
                    break
    return out


def stamp() -> dict:
    import numpy
    import scipy
    from reachtrack import _fastkin
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_version = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError, TypeError):
        blas_version = None
    return {
        "commit": _git_commit(),
        "source_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "numba": bool(_fastkin.HAVE_NUMBA),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_version,
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "blas_threads": _blas_threads(numpy, scipy),
    }


# -- measurement ----------------------------------------------------------------

def setup_seconds(args) -> list[float]:
    """Set the workload up in fresh interpreters: imports, config, map load
    and input generation, each timed by the child from its first line."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"] + (["--smoke"] if args.smoke else [])
    times = []
    for _ in range(1 if args.smoke else SETUP_PROBES):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        times.append(float(done.stdout.split()[-1]))
    return times


@contextlib.contextmanager
def instrumented(bench, clock, tracer=None):
    """Op timer outermost, then output checks, then spans (if tracing; the
    caller turns recording on and off)."""
    from perfbench import layers
    from perfbench.checks import Checker
    from perfbench.spans import OpTimer
    timer = OpTimer(clock)
    checker = Checker(clock, timer, tracer)
    owner, attr = bench.op_owner, bench.op_attr
    if tracer is not None:
        layers.install(tracer)
    checker.install()
    inner = getattr(owner, attr)
    setattr(owner, attr, timer.wrap(inner))
    try:
        yield timer, checker
    finally:
        setattr(owner, attr, inner)
        checker.restore()
        if tracer is not None:
            tracer.restore()


def end_to_end(bench, results, pass_s, timer, setup, peak_rss_mb) -> dict:
    from perfbench.layers import pct
    from perfbench.workloads import LoopBench
    ops_ms = [d * 1e3 for d in timer.durations]
    n = len(ops_ms)
    pooled = (n / sum(pass_s), "1/s")
    out = {
        "ops_per_s": pooled,
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "failed_ops_share": ((timer.failed + timer.failed_outside) / max(n, 1), "share"),
    }
    if isinstance(bench, LoopBench):
        out.update({"ticks_per_s": pooled, "tick_ms_p50": (pct(ops_ms, 50), "ms"),
                    "tick_ms_p90": (pct(ops_ms, 90), "ms"), "ticks": (float(n), "count")})
    else:
        out.update({"cells_per_s": pooled, "cell_ms_p50": (pct(ops_ms, 50), "ms"),
                    "cells": (float(n), "count")})
    out.update(bench.fidelity(results))
    return out


def run_untraced(args, bench, clock, setup):
    """The end-to-end metrics, then the start of pass 0 (one episode, or
    two cells) once more to check that it repeats exactly."""
    from perfbench.workloads import measure, replay
    with instrumented(bench, clock) as (timer, checker):
        results, pass_s, machine = measure(bench, clock, args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = end_to_end(bench, results, pass_s, timer, setup, peak_rss_mb)
    metrics["machine_ms"] = (statistics.median(machine), "ms")
    head = results[0][:2] if results[0] else None
    same = head is not None and replay(bench, 0, head) == head
    return results, pass_s, metrics, timer, checker, same, {}


def run_traced(args, bench, clock):
    """Each pass untraced, then again traced: the two see the same inputs
    and the same machine conditions, so their difference is the tracing
    cost. The tracer stays installed and records only the traced replays."""
    from perfbench import layers
    from perfbench.spans import Tracer
    from perfbench.workloads import measure, replay
    tracer = Tracer(clock)
    op_s = {False: 0.0, True: 0.0}
    mismatched = []
    pass_start = [0]               # timer entries before the untraced pass

    with instrumented(bench, clock, tracer) as (timer, checker):
        def traced_replay(p, result):
            k = len(timer.durations)
            if result is None:
                mismatched.append(p)
            else:
                op_s[False] += sum(timer.durations[pass_start[0]:k])
                tracer.recording = True
                again = replay(bench, p, result)
                tracer.recording = False
                op_s[True] += sum(timer.durations[k:])
                if again != result:
                    mismatched.append(p)
            pass_start[0] = len(timer.durations)

        results, pass_s, machine = measure(bench, clock, args.seconds, after=traced_replay)
    metrics = layers.metrics(tracer)
    metrics["machine_ms"] = (statistics.median(machine), "ms")
    metrics["trace.overhead_share"] = (op_s[True] / op_s[False] - 1.0 if op_s[False]
                                       else 0.0, "share")
    out_dir = ROOT / "perfbench" / "out"
    out_dir.mkdir(exist_ok=True)
    trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
    tracer.write(trace_file)
    extra = {"trace_file": str(trace_file.relative_to(ROOT)), "untraced_op_s": op_s[False],
             "traced_op_s": op_s[True]}
    return results, pass_s, metrics, timer, checker, not mismatched, extra


def main(argv=None) -> int:
    args = parse_args(argv)
    import_program()
    from perfbench.spans import Clock
    from perfbench.workloads import WORKLOADS, make_bench

    if args.workload not in WORKLOADS:
        sys.exit(f"benchmark: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    if args.setup_only:
        make_bench(args.workload, args.seed, args.smoke)
        print(time.perf_counter() - _T0)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    setup = [] if args.trace else setup_seconds(args)
    bench = make_bench(args.workload, args.seed, args.smoke)
    bench.warm_up()
    clock = Clock()
    if args.trace:
        outcome = run_traced(args, bench, clock)
    else:
        outcome = run_untraced(args, bench, clock, setup)
    results, pass_s, metrics, timer, checker, same, extra = outcome

    failed = timer.failed + timer.failed_outside
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "smoke": args.smoke, "stamp": stamp(), "passes": len(results),
        "measured_s": sum(pass_s), "pass_s": pass_s,
        "pass_ops": [bench.ops(r) for r in results],
        "first_pass_sha256": hashlib.sha256(repr(results[0]).encode()).hexdigest()[:16],
        **extra,
        "deterministic": same, "checked": checker.checked,
        "check_failures": checker.reasons,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps({"report": report}))
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        sys.exit(f"benchmark: no value for {missing}")
    print(json.dumps({
        "correct": bool(same and failed == 0 and None not in results),
        "attempted": len(timer.durations), "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
