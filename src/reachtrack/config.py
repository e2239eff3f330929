"""Single experiment configuration: chain, planner, IK, map build, scenario.

One JSON file drives every subcommand; seed/runs/ablation have CLI override
flags so experiments stay declarative. All emitted artifacts carry the hash
of the resolved configuration.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, replace
from numbers import Integral

import numpy as np

from .ik import IkParams
from .kinematics import ChainSchemaError, KinematicChain, desk_chain
from .planner import PROFILES, PlannerParams, RescaleWeights
from .scenarios import (
    AblationMask,
    CameraModel,
    ObstacleSpec,
    ScenarioSpec,
    TargetSpec,
)

CONFIG_SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Raised for malformed experiment configuration files."""


@dataclass
class ReachBuildConfig:
    """Offline reachability-map build settings."""

    box_lo: tuple = (-2.2, -0.6, 0.0)
    box_hi: tuple = (0.2, 1.9, 2.7)
    resolution: float = 0.1
    orientations: int = 50
    restarts: int = 8
    seed: int = 0
    ik_max_iterations: int = 40

    def __post_init__(self):
        if not self.resolution > 0.0:
            raise ValueError("resolution must be positive")
        for name in ("orientations", "restarts", "ik_max_iterations"):
            value = getattr(self, name)
            if not (isinstance(value, Integral) and value >= 1):
                raise ValueError(f"{name} must be a positive integer")


@dataclass
class ExperimentConfig:
    chain: KinematicChain
    planner: PlannerParams
    ik: IkParams
    reachability: ReachBuildConfig
    scenario: ScenarioSpec
    raw: dict = field(default_factory=dict, repr=False)

    def hash(self) -> str:
        payload = json.dumps(self.raw, sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]


def default_config_dict() -> dict:
    """The shipped desk-scale experiment (paper-table1 planner profile)."""
    return {
        "schema_version": CONFIG_SCHEMA_VERSION,
        "chain": {"preset": "desk"},
        "planner": {"profile": "paper-table1"},
        "ik": {},
        "reachability": {},
        "scenario": {},
    }


def _known_fields(data: dict, allowed, label: str):
    unknown = set(data) - set(allowed)
    if unknown:
        raise ConfigError(f"{label}: unknown fields {sorted(unknown)}")


def _build_planner(data: dict) -> PlannerParams:
    data = dict(data)
    profile = data.pop("profile", "paper-table1")
    if profile not in PROFILES:
        raise ConfigError(f"planner.profile: unknown profile {profile!r}")
    params = PROFILES[profile]()
    simple = {"d_des", "u_occl", "u_col", "u_reach", "cone_base_radius",
              "max_evaluations", "step_tolerance", "fd_step"}
    weights = {"w_d", "w_theta", "w_occl", "w_col", "w_reach"}
    vectors = {"delta_lower", "delta_upper"}
    _known_fields(data, simple | weights | vectors, "planner")
    kw = {}
    try:
        for key, value in data.items():
            if key in weights:
                kw[key] = RescaleWeights.of(value)
            elif key in vectors:
                kw[key] = np.asarray(value, dtype=float)
            else:
                kw[key] = value
        return replace(params, **kw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"planner: {exc}") from exc


def _build_dataclass(cls, data: dict, label: str):
    names = {f.name for f in fields(cls)}
    _known_fields(data, names, label)
    try:
        return cls(**data)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{label}: {exc}") from exc


def _build_scenario(data: dict) -> ScenarioSpec:
    data = dict(data)
    sub = {}
    if "ablation" in data:
        value = data.pop("ablation")
        sub["ablation"] = (AblationMask.from_label(value) if isinstance(value, str)
                           else _build_dataclass(AblationMask, value, "scenario.ablation"))
    for key, cls in (("target", TargetSpec), ("obstacles", ObstacleSpec),
                     ("camera", CameraModel)):
        if key in data:
            sub[key] = _build_dataclass(cls, data.pop(key), f"scenario.{key}")
    for key in ("workspace_lo", "workspace_hi"):
        if key in data:
            data[key] = tuple(float(v) for v in data[key])
    names = {f.name for f in fields(ScenarioSpec)}
    _known_fields(data, names, "scenario")
    try:
        return ScenarioSpec(**data, **sub)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"scenario: {exc}") from exc


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError("configuration must be a JSON object")
    version = data.get("schema_version", CONFIG_SCHEMA_VERSION)
    if version != CONFIG_SCHEMA_VERSION:
        raise ConfigError(f"schema_version: unsupported version {version!r}")
    _known_fields(data, {"schema_version", "chain", "planner", "ik",
                         "reachability", "scenario"}, "config")

    chain_spec = data.get("chain", {"preset": "desk"})
    if isinstance(chain_spec, dict) and chain_spec.get("preset") == "desk":
        chain = desk_chain()
    else:
        try:
            chain = KinematicChain.from_dict(chain_spec)
        except ChainSchemaError as exc:
            raise ConfigError(f"chain: {exc}") from exc

    planner = _build_planner(data.get("planner", {}))
    ik = _build_dataclass(IkParams, data.get("ik", {}), "ik")
    reach = _build_dataclass(ReachBuildConfig, data.get("reachability", {}), "reachability")
    scenario = _build_scenario(data.get("scenario", {}))

    resolved = dict(data)
    resolved.setdefault("schema_version", CONFIG_SCHEMA_VERSION)
    resolved["chain"] = chain.to_dict() if not (
        isinstance(chain_spec, dict) and chain_spec.get("preset")) else chain_spec
    return ExperimentConfig(chain=chain, planner=planner, ik=ik,
                            reachability=reach, scenario=scenario, raw=resolved)


def load_config(path) -> ExperimentConfig:
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"not valid JSON: {exc}") from exc
    return config_from_dict(data)


def default_config() -> ExperimentConfig:
    return config_from_dict(default_config_dict())
