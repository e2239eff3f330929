"""Rigid-body transforms and the 6-vector camera-pose representation.

Rotations are stored as 3x3 matrices internally; the 6-vector pose
(3 position + 3 Euler-XYZ angles) is an interface representation only.
Euler-XYZ here means intrinsic rotations R = Rx(rx) @ Ry(ry) @ Rz(rz).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * np.pi

# Pitch-sine margin below which the Euler extraction switches to the gimbal
# branch. Kept at machine scale: a looser margin silently reflects pitches
# just past +-pi/2 and destroys finite-difference rotation gradients there.
_GIMBAL_EPS = 1e-14


def normalize_angle(a):
    """Wrap angle(s) to (-pi, pi]."""
    w = np.mod(np.asarray(a, dtype=float) + np.pi, TWO_PI) - np.pi
    w = np.where(w == -np.pi, np.pi, w)
    return float(w) if np.ndim(a) == 0 else w


def rot_x(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def rot_y(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])


def rot_z(a: float) -> np.ndarray:
    c, s = np.cos(a), np.sin(a)
    return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])


def _axis_rotations(a: np.ndarray, i: int, j: int) -> np.ndarray:
    """Rotations (n, 3, 3) by the angles a (n,) about axis 3 - i - j, for
    (i, j) cyclic in (x, y, z): cos at (i, i) and (j, j), -sin at (i, j)."""
    c, s = np.cos(a), np.sin(a)
    m = np.zeros((len(a), 3, 3))
    m[:, 3 - i - j, 3 - i - j] = 1.0
    m[:, i, i] = c
    m[:, j, j] = c
    m[:, i, j] = -s
    m[:, j, i] = s
    return m


def euler_xyz_to_matrix(r) -> np.ndarray:
    """Rotation matrix for intrinsic Euler-XYZ angles (rx, ry, rz).

    Rows r (n, 3) give (n, 3, 3), the same product stacked: each matrix is
    bit-equal to the one of its row alone.
    """
    if getattr(r, "ndim", 1) == 2:
        return (_axis_rotations(r[:, 0], 1, 2) @ _axis_rotations(r[:, 1], 2, 0)
                @ _axis_rotations(r[:, 2], 0, 1))
    rx, ry, rz = float(r[0]), float(r[1]), float(r[2])
    return rot_x(rx) @ rot_y(ry) @ rot_z(rz)


def matrix_to_euler_xyz(m: np.ndarray) -> np.ndarray:
    """Extract intrinsic Euler-XYZ angles from a rotation matrix.

    Angles are in (-pi, pi]; at the pitch singularity (|m02| = 1) the
    convention rz = 0 is used, which still reproduces the input matrix.
    """
    m02 = float(np.clip(m[0, 2], -1.0, 1.0))
    ry = np.arcsin(m02)
    if abs(m02) < 1.0 - _GIMBAL_EPS:
        rx = np.arctan2(-m[1, 2], m[2, 2])
        rz = np.arctan2(-m[0, 1], m[0, 0])
    else:
        # cos(ry) ~ 0: only rx -+ rz observable; pick rz = 0.
        rz = 0.0
        rx = np.arctan2(m[1, 0], m[1, 1])
        if m02 < 0.0:
            rx = -rx
    return np.array([normalize_angle(rx), normalize_angle(ry), normalize_angle(rz)])


def rotation_logs(m: np.ndarray) -> np.ndarray:
    """Rotation vectors (axis * angle, angle in [0, pi]) of rotation
    matrices m (B, 3, 3), as (B, 3)."""
    cos_a = np.clip((m[:, 0, 0] + m[:, 1, 1] + m[:, 2, 2] - 1.0) / 2.0, -1.0, 1.0)
    angle = np.arccos(cos_a)
    vee = np.empty((len(m), 3))
    vee[:, 0] = m[:, 2, 1] - m[:, 1, 2]
    vee[:, 1] = m[:, 0, 2] - m[:, 2, 0]
    vee[:, 2] = m[:, 1, 0] - m[:, 0, 1]
    vee *= 0.5
    scale = np.ones_like(angle)
    mid = angle >= 1e-8
    scale[mid] = angle[mid] / np.sin(angle[mid])
    out = scale[:, None] * vee
    for r in np.flatnonzero(angle > np.pi - 1e-6):
        # Near pi the vee part vanishes: take the axis from the symmetric
        # part, the row of (m + m^T) / 4 + I / 2 with the largest diagonal.
        b = (m[r] + m[r].T) / 4.0 + np.eye(3) / 2.0
        i = int(np.argmax(np.diag(b)))
        axis = b[i] / np.sqrt(max(b[i, i], 1e-18))
        nrm = np.sqrt(axis @ axis)
        axis = axis / (nrm if nrm >= 1e-12 else 1.0)
        if axis @ vee[r] < 0.0:
            axis = -axis
        out[r] = angle[r] * axis
    return out


def rotation_log(m: np.ndarray) -> np.ndarray:
    """Rotation vector (axis * angle, angle in [0, pi]) of a rotation matrix."""
    return rotation_logs(np.asarray(m, dtype=float)[None])[0]


def make_transform(rotation: np.ndarray, translation) -> np.ndarray:
    t = np.eye(4)
    t[:3, :3] = rotation
    t[:3, 3] = np.asarray(translation, dtype=float)
    return t


def transform_from_xyz_rpy(xyz, rpy) -> np.ndarray:
    """4x4 transform from a translation and Euler-XYZ rotation."""
    return make_transform(euler_xyz_to_matrix(np.asarray(rpy, dtype=float)), xyz)


def is_rigid_transform(t: np.ndarray, tol: float = 1e-9) -> bool:
    """True iff the rotation block is orthonormal (det +1) within tol."""
    if t.shape != (4, 4):
        return False
    r = t[:3, :3]
    if not np.allclose(r.T @ r, np.eye(3), atol=tol):
        return False
    if abs(np.linalg.det(r) - 1.0) > 1e-6:
        return False
    return bool(np.allclose(t[3], [0.0, 0.0, 0.0, 1.0], atol=tol))


@dataclass
class Pose6:
    """End-effector pose: 3D position plus intrinsic Euler-XYZ rotation."""

    p: np.ndarray = field(default_factory=lambda: np.zeros(3))
    r: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.p = np.asarray(self.p, dtype=float).reshape(3)
        self.r = normalize_angle(np.asarray(self.r, dtype=float).reshape(3))

    def rotation(self) -> np.ndarray:
        return euler_xyz_to_matrix(self.r)

    def to_matrix(self) -> np.ndarray:
        return make_transform(self.rotation(), self.p)

    @classmethod
    def from_matrix(cls, t: np.ndarray) -> "Pose6":
        return cls(p=t[:3, 3].copy(), r=matrix_to_euler_xyz(t[:3, :3]))

    def as_vector(self) -> np.ndarray:
        return np.concatenate([self.p, self.r])

    @classmethod
    def from_vector(cls, v) -> "Pose6":
        v = np.asarray(v, dtype=float).reshape(6)
        return cls(p=v[:3], r=v[3:])

    def view_axis(self) -> np.ndarray:
        """Optical axis of a camera at this pose (local +z in world frame)."""
        return self.rotation()[:, 2]


def compose_pose_delta(pose: Pose6, delta) -> Pose6:
    """Apply a bounded 6-vector pose change: positions add, rotations
    compose as matrices in the world frame, then re-extract Euler-XYZ."""
    delta = np.asarray(delta, dtype=float).reshape(6)
    r_new = euler_xyz_to_matrix(delta[3:]) @ pose.rotation()
    return Pose6(p=pose.p + delta[:3], r=matrix_to_euler_xyz(r_new))
