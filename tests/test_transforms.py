import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachtrack.transforms import (
    Pose6,
    compose_pose_delta,
    euler_xyz_to_matrix,
    is_rigid_transform,
    matrix_to_euler_xyz,
    normalize_angle,
    rotation_log,
)
from reachtrack.reachability import sample_orientations
from reference import axis_angle_to_matrix

angles = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False)


def test_normalize_angle_range():
    assert normalize_angle(np.pi) == pytest.approx(np.pi)
    assert normalize_angle(-np.pi) == pytest.approx(np.pi)
    assert normalize_angle(3 * np.pi) == pytest.approx(np.pi)
    assert normalize_angle(0.3) == pytest.approx(0.3)
    arr = normalize_angle(np.array([0.0, 2 * np.pi, -3 * np.pi]))
    assert np.all(arr > -np.pi) and np.all(arr <= np.pi)


@given(rx=angles, ry=angles, rz=angles)
@settings(max_examples=200, deadline=None)
def test_euler_round_trip_reproduces_rotation(rx, ry, rz):
    m = euler_xyz_to_matrix([rx, ry, rz])
    extracted = matrix_to_euler_xyz(m)
    m2 = euler_xyz_to_matrix(extracted)
    assert np.linalg.norm(m - m2) < 1e-9
    assert np.all(extracted > -np.pi) and np.all(extracted <= np.pi)


@pytest.mark.parametrize("pitch", [np.pi / 2, -np.pi / 2])
def test_euler_gimbal_branch(pitch):
    m = euler_xyz_to_matrix([0.4, pitch, -0.7])
    m2 = euler_xyz_to_matrix(matrix_to_euler_xyz(m))
    assert np.linalg.norm(m - m2) < 1e-9


def test_euler_rows_bit_equal_to_scalar():
    """Rows give the stacked scalar matrices bit for bit, over the map's
    sampled orientations and angles at +-pi."""
    eulers = np.array([matrix_to_euler_xyz(m) for m in sample_orientations(400, 0)])
    edges = np.array([[np.pi, -np.pi, np.pi], [-np.pi, np.pi / 2, 0.0],
                      [np.pi, 0.0, -np.pi], [0.3, -np.pi, np.pi], [0.0, 0.0, 0.0]])
    for rows in (eulers, edges, normalize_angle(edges)):
        got = euler_xyz_to_matrix(rows)
        assert got.shape == (len(rows), 3, 3)
        assert np.array_equal(got, np.array([euler_xyz_to_matrix(r) for r in rows]))
    poses = np.array([Pose6(r=r).rotation() for r in eulers])
    assert np.array_equal(euler_xyz_to_matrix(normalize_angle(eulers)), poses)


@given(rx=angles, ry=angles, rz=angles)
@settings(max_examples=100, deadline=None)
def test_rotation_log_round_trip(rx, ry, rz):
    m = euler_xyz_to_matrix([rx, ry, rz])
    vec = rotation_log(m)
    angle = np.linalg.norm(vec)
    assert angle <= np.pi + 1e-9
    if angle > 1e-12:
        m2 = axis_angle_to_matrix(vec / angle, angle)
    else:
        m2 = np.eye(3)
    assert np.linalg.norm(m - m2) < 1e-6


def test_rotation_log_identity_and_pi():
    assert np.allclose(rotation_log(np.eye(3)), 0.0)
    m = euler_xyz_to_matrix([np.pi, 0.0, 0.0])
    vec = rotation_log(m)
    assert np.linalg.norm(vec) == pytest.approx(np.pi, abs=1e-9)
    assert abs(vec[0]) == pytest.approx(np.pi, abs=1e-9)


def test_pose6_matrix_round_trip(rng):
    for _ in range(50):
        p = rng.uniform(-2, 2, 3)
        r = rng.uniform(-np.pi, np.pi, 3)
        pose = Pose6(p=p, r=r)
        back = Pose6.from_matrix(pose.to_matrix())
        assert np.allclose(back.p, p)
        assert np.linalg.norm(back.rotation() - pose.rotation()) < 1e-9


def test_pose6_vector_round_trip():
    pose = Pose6(p=[1.0, -2.0, 0.5], r=[0.1, 0.2, -0.3])
    assert np.allclose(Pose6.from_vector(pose.as_vector()).as_vector(), pose.as_vector())


def test_compose_pose_delta_zero_is_identity():
    pose = Pose6(p=[0.3, 0.1, 1.0], r=[0.2, -0.4, 0.9])
    out = compose_pose_delta(pose, np.zeros(6))
    assert np.allclose(out.p, pose.p)
    assert np.linalg.norm(out.rotation() - pose.rotation()) < 1e-12


def test_compose_pose_delta_position_adds_world_frame():
    pose = Pose6(p=[1.0, 2.0, 3.0], r=[0.5, 0.5, 0.5])
    delta = np.array([0.01, -0.02, 0.03, 0.0, 0.0, 0.0])
    out = compose_pose_delta(pose, delta)
    assert np.allclose(out.p, pose.p + delta[:3])
    assert np.linalg.norm(out.rotation() - pose.rotation()) < 1e-12


def test_compose_pose_delta_rotation_composes_matrices(rng):
    pose = Pose6(p=np.zeros(3), r=rng.uniform(-1, 1, 3))
    delta = np.concatenate([np.zeros(3), rng.uniform(-0.2, 0.2, 3)])
    out = compose_pose_delta(pose, delta)
    expected = euler_xyz_to_matrix(delta[3:]) @ pose.rotation()
    assert np.linalg.norm(out.rotation() - expected) < 1e-9


def test_is_rigid_transform():
    assert is_rigid_transform(np.eye(4))
    bad = np.eye(4)
    bad[0, 0] = 1.5
    assert not is_rigid_transform(bad)
