import functools
import json

import numpy as np
import pytest

from reachtrack.geometry import segment_distances
from reachtrack.kinematics import (
    Capsule,
    ChainSchemaError,
    KinematicChain,
    default_chain,
    forward_kinematics,
    jacobian,
    self_collision,
    self_collision_rows,
    world_capsules,
)
from reachtrack.transforms import make_transform
from reference import axis_angle_to_matrix


def _matrix_chain_oracle(chain, q):
    """Independent FK oracle: explicit 4x4 product via Rodrigues matrices."""
    mats = [chain.base_pose]
    for i in range(7):
        rot = np.eye(4)
        rot[:3, :3] = axis_angle_to_matrix(chain.axes[i], q[i])
        mats.append(rot)
        mats.append(chain.to_next[i])
    mats.append(chain.camera_offset)
    return functools.reduce(np.matmul, mats)


def test_fk_zero_config_equals_fixed_transforms(chain):
    fk = forward_kinematics(chain, np.zeros(7))
    expected = functools.reduce(np.matmul, [chain.base_pose, *chain.to_next,
                                            chain.camera_offset])
    assert np.allclose(fk.camera_frame, expected, atol=1e-12)


def test_fk_joint1_pi_negates_xy(chain):
    # Base axis is z: rotating joint 1 by pi negates the x and y of the tip.
    p0 = forward_kinematics(chain, np.zeros(7)).camera_pose.p
    q = np.zeros(7)
    q[0] = np.pi
    p1 = forward_kinematics(chain, q).camera_pose.p
    assert p1[0] == pytest.approx(-p0[0], abs=1e-12)
    assert p1[1] == pytest.approx(-p0[1], abs=1e-12)
    assert p1[2] == pytest.approx(p0[2], abs=1e-12)


def test_fk_matches_matrix_chain_oracle(chain, rng):
    for _ in range(30):
        q = chain.random_config(rng)
        fk = forward_kinematics(chain, q)
        expected = _matrix_chain_oracle(chain, q)
        assert np.linalg.norm(fk.camera_frame[:3, 3] - expected[:3, 3]) < 1e-10
        assert np.allclose(fk.camera_frame, expected, atol=1e-10)


def test_fk_frame_chain_associativity(chain, rng):
    # Composing per-link frames with the remaining fixed transforms equals
    # the one-shot product.
    q = chain.random_config(rng)
    fk = forward_kinematics(chain, q)
    rebuilt = fk.link_frames[-1] @ chain.to_next[-1] @ chain.camera_offset
    assert np.allclose(rebuilt, fk.camera_frame, atol=1e-10)


def test_fk_deterministic(chain, rng):
    q = chain.random_config(rng)
    a = forward_kinematics(chain, q).camera_frame
    b = forward_kinematics(chain, q).camera_frame
    assert np.array_equal(a, b)


def _fd_jacobian(chain, q, h=1e-6):
    """Central finite differences of FK frames; rotation rows via omega."""
    jac = np.zeros((6, 7))
    base = forward_kinematics(chain, q).camera_frame
    for i in range(7):
        qp, qm = q.copy(), q.copy()
        qp[i] += h
        qm[i] -= h
        fp = forward_kinematics(chain, qp).camera_frame
        fm = forward_kinematics(chain, qm).camera_frame
        jac[:3, i] = (fp[:3, 3] - fm[:3, 3]) / (2 * h)
        dr = (fp[:3, :3] - fm[:3, :3]) / (2 * h)
        w = dr @ base[:3, :3].T
        jac[3:, i] = [w[2, 1], w[0, 2], w[1, 0]]
    return jac


def test_jacobian_single_joint_pattern(chain):
    # At zero config only consider joint 1 (axis z at the base): its column
    # must be [z x r; z].
    q = np.zeros(7)
    jac = jacobian(chain, q)
    fk = forward_kinematics(chain, q)
    r = fk.camera_frame[:3, 3] - chain.base_pose[:3, 3]
    z = chain.base_pose[:3, :3] @ chain.axes[0]
    assert np.allclose(jac[:3, 0], np.cross(z, r), atol=1e-12)
    assert np.allclose(jac[3:, 0], z, atol=1e-12)


def test_jacobian_matches_finite_differences(chain, rng):
    for _ in range(25):
        q = chain.random_config(rng)
        assert np.max(np.abs(jacobian(chain, q) - _fd_jacobian(chain, q))) <= 1e-5


def test_jacobian_deterministic(chain, rng):
    q = chain.random_config(rng)
    assert np.array_equal(jacobian(chain, q), jacobian(chain, q))


class TestSelfCollision:
    def test_zero_config_free(self, chain):
        # Oracle: at the stretched pose every non-adjacent capsule pair is
        # separated by at least one link length.
        caps = world_capsules(chain, np.zeros(7))
        for i in range(len(caps)):
            for j in range(i + 2, len(caps)):
                a1, b1, r1 = caps[i]
                a2, b2, r2 = caps[j]
                assert segment_distances(a1, b1, a2, b2) >= r1 + r2
        assert not self_collision(chain, np.zeros(7))

    def test_coincident_capsules_collide(self):
        # Contrived chain folded so links 0 and 2 share an axis segment.
        chain = default_chain()
        folded = KinematicChain(
            axes=chain.axes,
            to_next=chain.to_next,
            joint_limits=np.array([[-np.pi, np.pi]] * 7),
            link_capsules=chain.link_capsules,
            camera_offset=chain.camera_offset,
        )
        q = np.zeros(7)
        q[1] = np.pi  # joint 2 folds link 2 back onto link 0
        assert self_collision(folded, q)

    def test_adjacent_contact_exempt(self, chain):
        # Adjacent capsules always touch at the shared joint; never a collision.
        q = np.zeros(7)
        q[1] = 0.6
        caps = world_capsules(chain, q)
        touching = segment_distances(*caps[0][:2], *caps[1][:2])
        assert touching < caps[0][2] + caps[1][2]  # they do overlap
        assert not self_collision(chain, q)

    def test_rows_match_capsule_pairs(self, chain, rng):
        """The batched check equals a pair-by-pair scan of the scalar FK's
        capsules, on 300 rows in one batch."""
        q = rng.uniform(chain.joint_limits[:, 0], chain.joint_limits[:, 1], (300, 7))
        rows = self_collision_rows(chain, q)
        for qi, got in zip(q, rows):
            caps = world_capsules(chain, qi)
            expected = any(
                segment_distances(*caps[i][:2], *caps[j][:2]) < caps[i][2] + caps[j][2]
                for i in range(len(caps)) for j in range(i + 2, len(caps)))
            assert got == expected == self_collision(chain, qi)
        assert 0 < rows.sum() < len(q)


class TestChainSchema:
    def test_round_trip(self, chain):
        loaded = KinematicChain.from_dict(json.loads(json.dumps(chain.to_dict())))
        assert loaded.hash() == chain.hash()
        q = np.array([0.3, -0.5, 0.2, 0.9, -0.1, 0.4, 0.8])
        assert np.allclose(forward_kinematics(loaded, q).camera_frame,
                           forward_kinematics(chain, q).camera_frame, atol=1e-12)

    def test_missing_field_named(self, chain):
        data = chain.to_dict()
        del data["joints"][3]["axis"]
        with pytest.raises(ChainSchemaError, match=r"joints\[3\].axis"):
            KinematicChain.from_dict(data)

    def test_wrong_joint_count(self, chain):
        data = chain.to_dict()
        data["joints"] = data["joints"][:5]
        with pytest.raises(ChainSchemaError, match="joints"):
            KinematicChain.from_dict(data)

    def test_bad_limits_rejected(self, chain):
        data = chain.to_dict()
        data["limits"][2] = [1.0, -1.0]
        with pytest.raises(ChainSchemaError, match="min < max"):
            KinematicChain.from_dict(data)

    def test_bad_capsule_radius(self, chain):
        data = chain.to_dict()
        data["capsules"][1]["radius"] = 0.0
        with pytest.raises(ChainSchemaError, match=r"capsules\[1\]"):
            KinematicChain.from_dict(data)

    def test_nonrigid_camera_offset(self):
        chain = default_chain()
        bad = np.eye(4)
        bad[0, 1] = 0.5
        with pytest.raises(ChainSchemaError, match="camera_offset"):
            KinematicChain(
                axes=chain.axes, to_next=chain.to_next,
                joint_limits=chain.joint_limits,
                link_capsules=chain.link_capsules,
                camera_offset=bad,
            )

    def test_capsule_none_allowed(self, chain):
        caps = list(chain.link_capsules)
        caps[4] = None
        variant = KinematicChain(
            axes=chain.axes, to_next=chain.to_next,
            joint_limits=chain.joint_limits, link_capsules=tuple(caps),
            camera_offset=chain.camera_offset,
        )
        assert len(world_capsules(variant, np.zeros(7))) == 6


def test_max_reach_bounds_fk(chain, rng):
    reach = chain.max_reach()
    for _ in range(20):
        q = chain.random_config(rng)
        p = forward_kinematics(chain, q).camera_pose.p
        assert np.linalg.norm(p - chain.base_position()) <= reach + 1e-9


def test_capsule_transform_matches_link_frames(chain):
    q = np.zeros(7)
    caps = world_capsules(chain, q)
    # First capsule spans joint 1's offset along z from the base.
    assert np.allclose(caps[0][0], chain.base_position(), atol=1e-12)
    assert np.allclose(caps[0][1], chain.base_position() + [0, 0, 0.20], atol=1e-12)
