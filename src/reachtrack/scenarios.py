"""Declarative scenario descriptions and seeded trajectory generation.

Scenario kind 1: the target random-walks inside its box while 0-2 obstacles
cross the corridor between the arm and the target. Scenario kind 2: a single
obstacle drives onto the initial line of sight, stops there and remains,
with the target either stationary or walking.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from numbers import Integral

import numpy as np

from .world import Box, ObstacleBody

TARGET_BOX_LO = (-1.0, 1.8, 1.0)
TARGET_BOX_HI = (-1.0, 2.4, 2.0)
WORKSPACE_LO = (-2.5, -0.5, 0.0)
WORKSPACE_HI = (0.5, 3.5, 3.0)


@dataclass(frozen=True)
class CameraModel:
    fov_half_angle: float = 0.6        # rad
    range_min: float = 0.3             # m
    range_max: float = 3.0             # m


@dataclass(frozen=True)
class AblationMask:
    """Objective terms beyond tracking that participate in the optimization."""

    occl: bool = True
    col: bool = True
    reach: bool = True

    def label(self) -> str:
        parts = ["track"]
        if self.occl:
            parts.append("occl")
        if self.col:
            parts.append("col")
        if self.reach:
            parts.append("reach")
        return "+".join(parts)

    @classmethod
    def from_label(cls, label: str) -> "AblationMask":
        parts = set(label.replace(" ", "").split("+"))
        unknown = parts - {"track", "occl", "col", "reach"}
        if unknown:
            raise ValueError(f"unknown ablation terms: {sorted(unknown)}")
        return cls(occl="occl" in parts, col="col" in parts, reach="reach" in parts)


@dataclass(frozen=True)
class TargetSpec:
    mode: str = "walk"                 # "walk" | "stationary"
    speed: float = 0.5                 # m/s along the waypoint polyline
    box_lo: tuple = TARGET_BOX_LO
    box_hi: tuple = TARGET_BOX_HI
    body_radius: float = 0.08          # exclusion body around the marker

    def __post_init__(self):
        if self.mode not in ("walk", "stationary"):
            raise ValueError(f"unknown target mode {self.mode!r}")


@dataclass(frozen=True)
class ObstacleSpec:
    count: int = 0
    speed_min: float = 0.8
    speed_max: float = 1.2
    size: float = 0.25                 # cube edge length

    def __post_init__(self):
        if not 0.0 <= self.speed_min <= self.speed_max:
            raise ValueError("invalid obstacle speed range")


@dataclass(frozen=True)
class ScenarioSpec:
    kind: int = 1
    dt: float = 0.05
    horizon: int = 100
    runs: int = 50
    seed: int = 0
    ablation: AblationMask = field(default_factory=AblationMask)
    target: TargetSpec = field(default_factory=TargetSpec)
    obstacles: ObstacleSpec = field(default_factory=ObstacleSpec)
    camera: CameraModel = field(default_factory=CameraModel)
    workspace_lo: tuple = WORKSPACE_LO
    workspace_hi: tuple = WORKSPACE_HI
    grid_resolution: float = 0.05
    explicit_obstacles: tuple = ()     # pre-built ObstacleBody list (tests)

    def __post_init__(self):
        if self.kind not in (1, 2):
            raise ValueError("scenario kind must be 1 or 2")
        if not self.dt > 0.0:
            raise ValueError("dt must be positive")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if not (isinstance(self.runs, Integral) and self.runs >= 1):
            raise ValueError("runs must be an integer >= 1")
        if not self.grid_resolution > 0.0:
            raise ValueError("grid_resolution must be positive")

    def with_ablation(self, mask: AblationMask) -> "ScenarioSpec":
        return replace(self, ablation=mask)


class TargetPath:
    """Random-waypoint walk at constant speed along its polyline.

    Per tick the target advances exactly speed*dt of path length; on the
    rare tick that crosses a waypoint the leftover is spent along the next
    randomly drawn leg.
    """

    def __init__(self, spec: TargetSpec, rng: np.random.Generator):
        self.spec = spec
        self.rng = rng
        lo = np.asarray(spec.box_lo, dtype=float)
        hi = np.asarray(spec.box_hi, dtype=float)
        self.lo, self.hi = lo, hi
        self.pos = rng.uniform(lo, hi)
        self._goal = self._draw_goal()

    def _draw_goal(self) -> np.ndarray:
        for _ in range(16):
            goal = self.rng.uniform(self.lo, self.hi)
            if np.linalg.norm(goal - self.pos) > 1e-6:
                return goal
        return self.pos + 1e-6  # degenerate box; effectively stationary

    def advance(self, dist: float) -> np.ndarray:
        if self.spec.mode == "stationary":
            return self.pos.copy()
        remaining = dist
        while remaining > 0.0:
            leg = self._goal - self.pos
            leg_len = float(np.linalg.norm(leg))
            if leg_len <= remaining:
                self.pos = self._goal.copy()
                remaining -= leg_len
                self._goal = self._draw_goal()
            else:
                self.pos = self.pos + (remaining / leg_len) * leg
                remaining = 0.0
        return self.pos.copy()


def crossing_obstacles(spec: ScenarioSpec, rng: np.random.Generator) -> list[ObstacleBody]:
    """Kind-1 obstacles: straight crossings of the arm-target corridor.

    Entry and exit points lie outside the workspace box; speeds are uniform
    in the configured range; start delays randomize the crossing phase.
    """
    bodies = []
    half = spec.obstacles.size / 2.0
    for i in range(spec.obstacles.count):
        speed = rng.uniform(spec.obstacles.speed_min, spec.obstacles.speed_max)
        cross = np.array([
            rng.uniform(-1.25, -0.75),
            rng.uniform(0.8, 1.6),
            rng.uniform(1.0, 1.8),
        ])
        side = 1.0 if rng.random() < 0.5 else -1.0
        direction = np.array([side, rng.uniform(-0.2, 0.2), rng.uniform(-0.15, 0.15)])
        direction /= np.linalg.norm(direction)
        start = cross - 2.2 * direction
        end = cross + 2.2 * direction
        bodies.append(ObstacleBody(
            body_id=f"crossing-{i}",
            shape=Box(half_extents=np.full(3, half)),
            waypoints=np.array([start, end]),
            speeds=np.array([speed]),
            start_time=rng.uniform(0.0, 2.2),
        ))
    return bodies


def blocking_obstacle(spec: ScenarioSpec, rng: np.random.Generator,
                      los_a: np.ndarray, los_b: np.ndarray) -> ObstacleBody:
    """Kind-2 obstacle: enters, stops on the initial line of sight, remains."""
    half = spec.obstacles.size / 2.0
    speed = rng.uniform(spec.obstacles.speed_min, spec.obstacles.speed_max)
    frac = rng.uniform(0.40, 0.65)
    stop = los_a + frac * (los_b - los_a)
    axis = los_b - los_a
    axis = axis / np.linalg.norm(axis)
    # Approach from a random direction perpendicular to the sight line.
    ref = np.array([0.0, 0.0, 1.0])
    if abs(axis @ ref) > 0.9:
        ref = np.array([1.0, 0.0, 0.0])
    perp1 = np.cross(axis, ref)
    perp1 /= np.linalg.norm(perp1)
    perp2 = np.cross(axis, perp1)
    phi = rng.uniform(0.0, 2.0 * np.pi)
    approach = np.cos(phi) * perp1 + np.sin(phi) * perp2
    start = stop + 2.0 * approach
    return ObstacleBody(
        body_id="blocker",
        shape=Box(half_extents=np.full(3, half)),
        waypoints=np.array([start, stop]),
        speeds=np.array([speed]),
        start_time=rng.uniform(0.3, 1.0),
    )


def generate_obstacles(spec: ScenarioSpec, rng: np.random.Generator,
                       los_a: np.ndarray | None = None,
                       los_b: np.ndarray | None = None) -> list[ObstacleBody]:
    """Obstacle roster for one run; deterministic given the rng state."""
    if spec.explicit_obstacles:
        return list(spec.explicit_obstacles)
    if spec.kind == 1:
        return crossing_obstacles(spec, rng)
    if los_a is None or los_b is None:
        raise ValueError("kind-2 obstacle generation needs the initial sight line")
    return [blocking_obstacle(spec, rng, np.asarray(los_a, dtype=float),
                              np.asarray(los_b, dtype=float))]
