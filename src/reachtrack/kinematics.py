"""Generic 7-R serial chain: forward kinematics, Jacobian, collision geometry.

The chain model is deliberately robot-agnostic: each joint is a rotation
about a unit axis in its own frame followed by a fixed rigid transform to
the next joint frame. A camera is mounted on the tip via a fixed offset;
all poses returned by this module are camera-frame poses in the world.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

import numpy as np

from ._fastkin import fk_rows
from .geometry import point_segment_distance, segment_distances
from .transforms import (
    Pose6,
    is_rigid_transform,
    make_transform,
    matrix_to_euler_xyz,
    transform_from_xyz_rpy,
)

NUM_JOINTS = 7

CHAIN_SCHEMA_VERSION = 1


class ChainSchemaError(ValueError):
    """Raised when a chain description file violates the schema."""


@dataclass(frozen=True)
class Capsule:
    """Collision capsule: segment a-b with a radius, in its link's frame."""

    a: np.ndarray
    b: np.ndarray
    radius: float


@dataclass
class KinematicChain:
    """Description of a 7-revolute-joint serial arm with a tip-mounted camera.

    axes[i] is joint i's unit rotation axis in its own frame; to_next[i] is
    the fixed transform from joint i's (rotated) frame to joint i+1's frame.
    link_capsules[i] lives in joint i's rotated frame (None for links with
    no collision body). base_pose mounts joint 0 in the world.
    """

    axes: np.ndarray                     # (7, 3)
    to_next: np.ndarray                  # (7, 4, 4)
    joint_limits: np.ndarray             # (7, 2)
    link_capsules: tuple[Capsule | None, ...]
    camera_offset: np.ndarray            # (4, 4)
    base_pose: np.ndarray = field(default_factory=lambda: np.eye(4))
    home: np.ndarray = field(default_factory=lambda: np.zeros(NUM_JOINTS))

    def __post_init__(self):
        self.axes = np.asarray(self.axes, dtype=float).reshape(NUM_JOINTS, 3)
        self.to_next = np.asarray(self.to_next, dtype=float).reshape(NUM_JOINTS, 4, 4)
        self.joint_limits = np.asarray(self.joint_limits, dtype=float).reshape(NUM_JOINTS, 2)
        self.camera_offset = np.asarray(self.camera_offset, dtype=float).reshape(4, 4)
        self.base_pose = np.asarray(self.base_pose, dtype=float).reshape(4, 4)
        self.home = np.asarray(self.home, dtype=float).reshape(NUM_JOINTS)
        self._validate()
        # Constants of the batched FK core (`_fastkin.fk_rows`): the Rodrigues
        # ingredients K_i and K_i^2 as 4x4 blocks, and their products with
        # to_next[i]; plus the capsule table of the self-collision check.
        k = np.zeros((NUM_JOINTS, 4, 4))
        for i, (x, y, z) in enumerate(self.axes):
            k[i, :3, :3] = [[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]]
        k2 = k @ k
        flat = (NUM_JOINTS, 1, 16)          # joint-major, one row per joint
        self._eye4_flat = np.eye(4).reshape(1, 1, 16)
        self._k4 = k.reshape(flat)
        self._k2_4 = k2.reshape(flat)
        self._to_next_flat = self.to_next.reshape(flat)
        self._k_next = (k @ self.to_next).reshape(flat)
        self._k2_next = (k2 @ self.to_next).reshape(flat)
        self._axes_bcast = self.axes.T[:, :, None, None].copy()   # (3, 7, 1, 1)
        links = [i for i, c in enumerate(self.link_capsules) if c is not None]
        caps = [self.link_capsules[i] for i in links]
        self._cap_links = np.array(links, dtype=int)
        self._cap_a = np.array([c.a for c in caps], dtype=float).reshape(-1, 3, 1)
        self._cap_b = np.array([c.b for c in caps], dtype=float).reshape(-1, 3, 1)
        self._cap_r = np.array([c.radius for c in caps], dtype=float)
        # Capsule pairs on non-adjacent links; adjacent ones touch at their joint.
        pairs = [(m, n) for m in range(len(links)) for n in range(m + 1, len(links))
                 if abs(links[m] - links[n]) >= 2]
        self._cap_pairs = np.array(pairs, dtype=int).reshape(-1, 2).T

    def _validate(self):
        norms = np.linalg.norm(self.axes, axis=1)
        if not np.allclose(norms, 1.0, atol=1e-9):
            raise ChainSchemaError("joint axes must be unit vectors")
        if not np.all(self.joint_limits[:, 0] < self.joint_limits[:, 1]):
            raise ChainSchemaError("joint_limits must satisfy min < max")
        if len(self.link_capsules) != NUM_JOINTS:
            raise ChainSchemaError("link_capsules must have one entry per link")
        for i, c in enumerate(self.link_capsules):
            if c is not None and not c.radius > 0.0:
                raise ChainSchemaError(f"capsules[{i}].radius must be > 0")
        if not is_rigid_transform(self.camera_offset):
            raise ChainSchemaError("camera_offset must be a rigid transform")
        if not is_rigid_transform(self.base_pose):
            raise ChainSchemaError("base_pose must be a rigid transform")

    # -- config file schema ------------------------------------------------

    def to_dict(self) -> dict:
        joints = []
        for i in range(NUM_JOINTS):
            joints.append({
                "axis": self.axes[i].tolist(),
                "to_next": {
                    "xyz": self.to_next[i, :3, 3].tolist(),
                    "rpy": matrix_to_euler_xyz(self.to_next[i, :3, :3]).tolist(),
                },
            })
        capsules = []
        for c in self.link_capsules:
            if c is None:
                capsules.append(None)
            else:
                capsules.append({"a": c.a.tolist(), "b": c.b.tolist(), "radius": c.radius})
        return {
            "schema_version": CHAIN_SCHEMA_VERSION,
            "joints": joints,
            "limits": self.joint_limits.tolist(),
            "capsules": capsules,
            "camera_offset": {
                "xyz": self.camera_offset[:3, 3].tolist(),
                "rpy": matrix_to_euler_xyz(self.camera_offset[:3, :3]).tolist(),
            },
            "base_pose": {
                "xyz": self.base_pose[:3, 3].tolist(),
                "rpy": matrix_to_euler_xyz(self.base_pose[:3, :3]).tolist(),
            },
            "home": self.home.tolist(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "KinematicChain":
        if not isinstance(data, dict):
            raise ChainSchemaError("chain description must be a JSON object")
        version = data.get("schema_version")
        if version != CHAIN_SCHEMA_VERSION:
            raise ChainSchemaError(
                f"schema_version: expected {CHAIN_SCHEMA_VERSION}, got {version!r}")
        joints = _require(data, "joints", list)
        if len(joints) != NUM_JOINTS:
            raise ChainSchemaError(f"joints: expected {NUM_JOINTS} entries, got {len(joints)}")
        axes = np.zeros((NUM_JOINTS, 3))
        to_next = np.zeros((NUM_JOINTS, 4, 4))
        for i, j in enumerate(joints):
            axes[i] = _vec3(j, "axis", f"joints[{i}].axis")
            to_next[i] = _transform(j, "to_next", f"joints[{i}].to_next")
        limits = _require(data, "limits", list)
        if len(limits) != NUM_JOINTS:
            raise ChainSchemaError(f"limits: expected {NUM_JOINTS} pairs, got {len(limits)}")
        capsules_raw = _require(data, "capsules", list)
        if len(capsules_raw) != NUM_JOINTS:
            raise ChainSchemaError(f"capsules: expected {NUM_JOINTS} entries, got {len(capsules_raw)}")
        capsules = []
        for i, c in enumerate(capsules_raw):
            if c is None:
                capsules.append(None)
                continue
            capsules.append(Capsule(
                a=_vec3(c, "a", f"capsules[{i}].a"),
                b=_vec3(c, "b", f"capsules[{i}].b"),
                radius=_number(c, "radius", f"capsules[{i}].radius"),
            ))
        try:
            return cls(
                axes=axes,
                to_next=to_next,
                joint_limits=np.asarray(limits, dtype=float),
                link_capsules=tuple(capsules),
                camera_offset=_transform(data, "camera_offset", "camera_offset"),
                base_pose=_transform(data, "base_pose", "base_pose") if "base_pose" in data else np.eye(4),
                home=np.asarray(data.get("home", np.zeros(NUM_JOINTS)), dtype=float),
            )
        except ChainSchemaError:
            raise
        except (TypeError, ValueError) as exc:
            raise ChainSchemaError(str(exc)) from exc

    def hash(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()[:16]

    def base_position(self) -> np.ndarray:
        return self.base_pose[:3, 3].copy()

    def max_reach(self) -> float:
        """Upper bound on the camera's distance from the base origin."""
        reach = sum(float(np.linalg.norm(self.to_next[i, :3, 3])) for i in range(NUM_JOINTS))
        return reach + float(np.linalg.norm(self.camera_offset[:3, 3]))

    def within_limits(self, q: np.ndarray) -> bool:
        q = np.asarray(q, dtype=float)
        return bool(np.all(q >= self.joint_limits[:, 0]) and np.all(q <= self.joint_limits[:, 1]))

    def random_config(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.joint_limits[:, 0], self.joint_limits[:, 1])


def _require(data: dict, key: str, typ) -> object:
    if key not in data:
        raise ChainSchemaError(f"{key}: missing required field")
    value = data[key]
    if not isinstance(value, typ):
        raise ChainSchemaError(f"{key}: expected {typ.__name__}")
    return value


def _vec3(data: dict, key: str, label: str) -> np.ndarray:
    if key not in data:
        raise ChainSchemaError(f"{label}: missing required field")
    v = data[key]
    if not isinstance(v, (list, tuple)) or len(v) != 3:
        raise ChainSchemaError(f"{label}: expected a 3-vector")
    try:
        return np.asarray(v, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ChainSchemaError(f"{label}: {exc}") from exc


def _number(data: dict, key: str, label: str) -> float:
    if key not in data or not isinstance(data[key], (int, float)):
        raise ChainSchemaError(f"{label}: expected a number")
    return float(data[key])


def _transform(data: dict, key: str, label: str) -> np.ndarray:
    if key not in data or not isinstance(data[key], dict):
        raise ChainSchemaError(f"{label}: expected an object with xyz/rpy")
    xyz = _vec3(data[key], "xyz", f"{label}.xyz")
    rpy = _vec3(data[key], "rpy", f"{label}.rpy")
    return transform_from_xyz_rpy(xyz, rpy)


# -- forward kinematics ----------------------------------------------------

@dataclass
class FkResult:
    camera_pose: Pose6
    camera_frame: np.ndarray            # (4, 4)
    link_frames: list[np.ndarray]       # one per link, rotated joint frames


def _frame_chain(chain: KinematicChain, q: np.ndarray):
    """Per-joint world data: origins, world axes, rotated link frames, camera."""
    origins, axes_w, camera, links = fk_rows(chain, np.asarray(q, dtype=float)[None])
    return origins[0], axes_w[0], list(links[0]), camera[0]


def _cross_rows(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross product without np.cross's per-call overhead."""
    out = np.empty_like(a)
    out[:, 0] = a[:, 1] * b[:, 2] - a[:, 2] * b[:, 1]
    out[:, 1] = a[:, 2] * b[:, 0] - a[:, 0] * b[:, 2]
    out[:, 2] = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    return out


def forward_kinematics(chain: KinematicChain, q: np.ndarray) -> FkResult:
    """Camera-frame pose plus all intermediate link frames."""
    _, _, link_frames, camera = _frame_chain(chain, q)
    return FkResult(camera_pose=Pose6.from_matrix(camera),
                    camera_frame=camera,
                    link_frames=link_frames)


def camera_frame(chain: KinematicChain, q: np.ndarray) -> np.ndarray:
    return _frame_chain(chain, q)[3]


def jacobian(chain: KinematicChain, q: np.ndarray) -> np.ndarray:
    """Geometric Jacobian (linear over angular twist) at the camera frame."""
    origins, axes_w, _, camera = _frame_chain(chain, q)
    return _jacobian_from(origins, axes_w, camera[:3, 3])


def _jacobian_from(origins: np.ndarray, axes_w: np.ndarray,
                   p_cam: np.ndarray) -> np.ndarray:
    jac = np.empty((6, NUM_JOINTS))
    jac[:3] = _cross_rows(axes_w, p_cam - origins).T
    jac[3:] = axes_w.T
    return jac


def world_capsules(chain: KinematicChain, q: np.ndarray,
                   link_frames: list[np.ndarray] | None = None):
    """Link capsules in world coordinates as (a, b, radius) tuples."""
    if link_frames is None:
        link_frames = _frame_chain(chain, q)[2]
    out = []
    for i, c in enumerate(chain.link_capsules):
        if c is None:
            continue
        f = link_frames[i]
        out.append((f[:3, :3] @ c.a + f[:3, 3], f[:3, :3] @ c.b + f[:3, 3], c.radius))
    return out


def self_collision_rows(chain: KinematicChain, q: np.ndarray,
                        links: np.ndarray | None = None) -> np.ndarray:
    """Per joint row of q (B, 7): does any pair of non-adjacent link capsules
    intersect? `links` are the rows' link frames (B, 7, 4, 4), if known."""
    if links is None:
        links = fk_rows(chain, q)[3]
    frames = links[:, chain._cap_links]
    rot, origin = frames[..., :3, :3], frames[..., :3, 3]
    a = (rot @ chain._cap_a)[..., 0] + origin
    b = (rot @ chain._cap_b)[..., 0] + origin
    m, n = chain._cap_pairs
    d = segment_distances(a[:, m], b[:, m], a[:, n], b[:, n])
    return (d < chain._cap_r[m] + chain._cap_r[n]).any(axis=1)


def self_collision(chain: KinematicChain, q: np.ndarray,
                   link_frames: list[np.ndarray] | None = None) -> bool:
    """True iff any pair of non-adjacent link capsules intersects."""
    links = None if link_frames is None else np.asarray(link_frames)[None]
    return bool(self_collision_rows(chain, np.asarray(q, dtype=float)[None], links)[0])


def min_capsule_point_clearance(chain: KinematicChain, q: np.ndarray, points: np.ndarray,
                                inflation: float,
                                link_frames: list[np.ndarray] | None = None) -> float:
    """Smallest conservative clearance from any link capsule to a point set.

    Each point is inflated by `inflation` (half the voxel diagonal when the
    points are occupied voxel centers). Returns +inf for an empty point set.
    """
    if len(points) == 0:
        return float("inf")
    worst = float("inf")
    for a, b, r in world_capsules(chain, q, link_frames):
        d = point_segment_distance(points, a, b).min() - inflation - r
        if d < worst:
            worst = float(d)
    return worst


# -- default chain ---------------------------------------------------------

def default_chain(base_pose: np.ndarray | None = None) -> KinematicChain:
    """7-R anthropomorphic arm: alternating z/y axes, ~1.3 m reach.

    Link lengths sum to 1.30 m; joint limits are +-2.9 rad; every link
    carries a 0.05 m-radius capsule spanning its offset.
    """
    lengths = [0.20, 0.25, 0.20, 0.25, 0.15, 0.15, 0.10]
    axes = np.array([
        [0.0, 0.0, 1.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
        [0.0, 1.0, 0.0],
        [0.0, 0.0, 1.0],
    ])
    to_next = np.array([make_transform(np.eye(3), [0.0, 0.0, d]) for d in lengths])
    capsules = tuple(
        Capsule(a=np.zeros(3), b=np.array([0.0, 0.0, d]), radius=0.05) for d in lengths
    )
    return KinematicChain(
        axes=axes,
        to_next=to_next,
        joint_limits=np.array([[-2.9, 2.9]] * NUM_JOINTS),
        link_capsules=capsules,
        camera_offset=make_transform(np.eye(3), [0.0, 0.0, 0.03]),
        base_pose=np.eye(4) if base_pose is None else base_pose,
        home=np.array([0.0, 0.6, 0.0, 0.9, 0.0, 0.5, 0.0]),
    )


def desk_chain() -> KinematicChain:
    """Default chain mounted for the desk-scale scenarios (world frame)."""
    return default_chain(base_pose=make_transform(np.eye(3), [-1.0, 0.4, 1.2]))
