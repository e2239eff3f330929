"""Command-line entry point.

Subcommands: build-map, run, ablate, export-slice. A single config
file drives everything; only seed, run count and the ablation mask have
override flags. Exit code 0 on success; failures print one
"error-class: message" line to stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import sim
from .config import ConfigError, ExperimentConfig, default_config, load_config
from .kinematics import ChainSchemaError
from .reachability import (
    MapChainMismatchError,
    build_map,
    load_map,
    save_map,
    slice_rows,
)
from .scenarios import AblationMask, ScenarioSpec

EXIT_CONFIG = 2
EXIT_MISSING = 3
EXIT_RUNTIME = 4


class CliError(Exception):
    def __init__(self, error_class: str, message: str, code: int = EXIT_RUNTIME):
        super().__init__(f"{error_class}: {message}")
        self.code = code


def _load(args) -> ExperimentConfig:
    if args.config is None:
        return default_config()
    try:
        return load_config(args.config)
    except FileNotFoundError:
        raise CliError("missing-config", f"no such file: {args.config}", EXIT_MISSING)
    except (ConfigError, ChainSchemaError) as exc:
        raise CliError("config-error", str(exc), EXIT_CONFIG)


def _apply_overrides(spec: ScenarioSpec, args) -> ScenarioSpec:
    kw = {}
    if getattr(args, "seed", None) is not None:
        kw["seed"] = args.seed
    if getattr(args, "runs", None) is not None:
        kw["runs"] = args.runs
    try:
        if getattr(args, "ablation", None) is not None:
            kw["ablation"] = AblationMask.from_label(args.ablation)
        return replace(spec, **kw) if kw else spec
    except ValueError as exc:
        raise CliError("config-error", str(exc), EXIT_CONFIG)


def _outdir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_required_map(args, cfg: ExperimentConfig):
    path = Path(args.map)
    if not path.exists():
        raise CliError(
            "missing-map",
            f"{path} not found; build it first: reachtrack build-map --out {path.parent}",
            EXIT_MISSING)
    try:
        return load_map(path, chain=cfg.chain)
    except MapChainMismatchError as exc:
        raise CliError("map-chain-mismatch", str(exc), EXIT_CONFIG)
    except ValueError as exc:
        raise CliError("bad-map-file", str(exc), EXIT_CONFIG)


def cmd_build_map(args) -> int:
    cfg = _load(args)
    rc = cfg.reachability
    seed = args.seed if args.seed is not None else rc.seed
    out = _outdir(args)
    t0 = time.perf_counter()
    ik_params = replace(cfg.ik, max_iterations=rc.ik_max_iterations)
    rmap = build_map(cfg.chain, rc.box_lo, rc.box_hi, resolution=rc.resolution,
                     n_orientations=rc.orientations, seed=seed,
                     restarts=rc.restarts, ik_params=ik_params,
                     workers=args.workers)
    wall = time.perf_counter() - t0
    map_path = out / "map.bin"
    save_map(rmap, map_path, config_hash=cfg.hash())
    report = {
        "config": cfg.hash(),
        "cells": int(np.prod(rmap.dims)),
        "dims": list(rmap.dims),
        "orientations": rmap.n_orientations,
        "restarts": rmap.restarts,
        "seed": seed,
        "wall_time_s": round(wall, 3),
        "mean_score": float(rmap.scores.mean()),
        "map_path": str(map_path),
    }
    (out / "build_report.json").write_text(json.dumps(report, indent=2) + "\n")
    print(map_path)
    return 0


def cmd_run(args) -> int:
    cfg = _load(args)
    spec = _apply_overrides(cfg.scenario, args)
    rmap = _load_required_map(args, cfg) if spec.ablation.reach else None
    out = _outdir(args)
    metrics, steps = sim.run(spec, cfg.chain, cfg.planner, cfg.ik, rmap,
                             workers=args.workers,
                             collect_steps=args.dump_steps)
    case = f"s{spec.kind}"
    row = sim.aggregate(case, spec.ablation.label(), metrics)
    sim.write_aggregate_csv(out / "aggregate.csv", [row], cfg.hash())
    sim.write_aggregate_json(out / "aggregate.json", [row], cfg.hash())
    if args.dump_steps:
        steps_dir = out / "steps"
        steps_dir.mkdir(exist_ok=True)
        for i, records in enumerate(steps):
            sim.write_steps_csv(steps_dir / f"run_{i:03d}.csv", records, cfg.hash())
    print(out / "aggregate.csv")
    return 0


def ablation_cases(base: ScenarioSpec) -> list[tuple[str, ScenarioSpec]]:
    """The five evaluation cases: scenario 1 with 0-2 obstacles, scenario 2
    with a stationary or moving target."""
    cases = []
    for count in (0, 1, 2):
        cases.append((f"s1-obs{count}", replace(
            base, kind=1,
            obstacles=replace(base.obstacles, count=count),
            target=replace(base.target, mode="walk"))))
    for label, mode in (("s2-stop", "stationary"), ("s2-move", "walk")):
        cases.append((label, replace(
            base, kind=2,
            obstacles=replace(base.obstacles, count=1),
            target=replace(base.target, mode=mode))))
    return cases


def cmd_ablate(args) -> int:
    cfg = _load(args)
    base = _apply_overrides(cfg.scenario, args)
    rmap = _load_required_map(args, cfg)
    out = _outdir(args)
    rows = []
    pooled_full = []
    for case, case_spec in ablation_cases(base):
        for mask in sim.TABLE_CONFIGS:
            spec = case_spec.with_ablation(mask)
            metrics, _ = sim.run(spec, cfg.chain, cfg.planner, cfg.ik,
                                 rmap if mask.reach else None,
                                 workers=args.workers)
            rows.append(sim.aggregate(case, mask.label(), metrics))
            if mask == sim.TABLE_CONFIGS[-1] and case in ("s1-obs1", "s1-obs2"):
                pooled_full.extend(metrics)
    sim.write_aggregate_csv(out / "ablation.csv", rows, cfg.hash())
    sim.write_aggregate_json(out / "ablation.json", rows, cfg.hash())
    edges, counts = sim.speed_histogram(pooled_full)
    sim.write_histogram_csv(out / "speed_histogram.csv", edges, counts, cfg.hash())
    print(out / "ablation.csv")
    return 0


def cmd_export_slice(args) -> int:
    cfg = _load(args)
    if not math.isfinite(args.z):
        raise CliError("config-error", f"--z must be a finite height, got {args.z}",
                       EXIT_CONFIG)
    rmap = _load_required_map(args, cfg)
    rows = slice_rows(rmap, args.z)
    out_path = Path(args.out_file)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", newline="") as fh:
        fh.write(f"# config={cfg.hash()}\n")
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "z", "score"])
        for x, y, z, s in rows:
            writer.writerow([f"{x:.4f}", f"{y:.4f}", f"{z:.4f}", f"{s:.6f}"])
    print(out_path)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reachtrack",
        description="Occlusion- and reachability-aware visual tracking simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, out=True):
        p.add_argument("--config", default=None,
                       help="experiment config JSON (default: built-in desk profile)")
        if out:
            p.add_argument("--out", default="out", help="output directory")

    p = sub.add_parser("build-map", help="construct the reachability map offline")
    common(p)
    p.add_argument("--seed", type=int, default=None, help="override the build seed")
    p.add_argument("--workers", type=int, default=1, help="parallel cell scoring")

    p = sub.add_parser("run", help="run one scenario suite")
    common(p)
    p.add_argument("--map", default="out/map.bin", help="reachability map file")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--runs", type=int, default=None)
    p.add_argument("--ablation", default=None,
                   help="objective terms, e.g. track+occl+col+reach")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--dump-steps", action="store_true",
                   help="write per-run step records as CSV")

    p = sub.add_parser("ablate", help="run the full objective-ablation table")
    common(p)
    p.add_argument("--map", default="out/map.bin")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--runs", type=int, default=None)
    p.add_argument("--workers", type=int, default=1)

    p = sub.add_parser("export-slice", help="export a horizontal map layer as CSV")
    common(p, out=False)
    p.add_argument("--map", default="out/map.bin")
    p.add_argument("--z", type=float, required=True, help="slice height (m)")
    p.add_argument("--out-file", default="slice.csv")
    return parser


COMMANDS = {
    "build-map": cmd_build_map,
    "run": cmd_run,
    "ablate": cmd_ablate,
    "export-slice": cmd_export_slice,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except CliError as exc:
        print(exc, file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
