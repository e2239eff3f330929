import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachtrack.geometry import segment_distances
from reachtrack import _fastkin, ik
from reachtrack.ik import IkParams, ik_reachable, reach_rows
from reachtrack.kinematics import forward_kinematics, self_collision, world_capsules
from reachtrack.reachability import (
    MapChainMismatchError,
    ReachabilityMap,
    _score_cells,
    build_map,
    load_map,
    sample_orientations,
    save_map,
    slice_rows,
)
from reachtrack.transforms import Pose6, matrix_to_euler_xyz, rotation_log
from reference import sequential_ik_reachable, sequential_score_cells

BUILD_IK = IkParams(max_iterations=80)


def _hand_map():
    scores = np.zeros((4, 4, 4))
    scores[1, 1, 1] = 0.2
    scores[2, 1, 1] = 0.6
    scores[1, 2, 1] = 1.0
    return ReachabilityMap(origin=np.zeros(3), resolution=0.5, dims=(4, 4, 4),
                           scores=scores)


class TestQuery:
    def test_cell_center_exact(self):
        rmap = _hand_map()
        center = rmap.cell_center((2, 1, 1))
        assert rmap.query(center) == pytest.approx(0.6, abs=1e-12)

    def test_midpoint_linear(self):
        rmap = _hand_map()
        a = rmap.cell_center((1, 1, 1))
        b = rmap.cell_center((2, 1, 1))
        assert rmap.query((a + b) / 2) == pytest.approx(0.4, abs=1e-12)

    def test_outside_returns_zero(self):
        rmap = _hand_map()
        assert rmap.query([-1.0, -1.0, -1.0]) == 0.0
        assert rmap.query([10.0, 0.5, 0.5]) == 0.0

    def test_corner_bounds(self, rng):
        rmap = ReachabilityMap(origin=np.zeros(3), resolution=0.25, dims=(6, 6, 6),
                               scores=rng.random((6, 6, 6)))
        for _ in range(1000):
            p = rng.uniform(0.125, 6 * 0.25 - 0.125, 3)
            v = rmap.query(p)
            g = (p - rmap.origin) / rmap.resolution - 0.5
            i0 = np.floor(g).astype(int)
            corners = rmap.scores[i0[0]:i0[0] + 2, i0[1]:i0[1] + 2, i0[2]:i0[2] + 2]
            assert corners.min() - 1e-12 <= v <= corners.max() + 1e-12

    def test_lipschitz_continuity(self, rng):
        rmap = ReachabilityMap(origin=np.zeros(3), resolution=0.25, dims=(6, 6, 6),
                               scores=rng.random((6, 6, 6)))
        lip = 3.0 * (rmap.scores.max() - rmap.scores.min()) / rmap.resolution
        for _ in range(500):
            p = rng.uniform(-0.3, 1.8, 3)
            d = rng.uniform(-0.01, 0.01, 3)
            assert abs(rmap.query(p + d) - rmap.query(p)) <= lip * np.linalg.norm(d) + 1e-12

    def test_batch_matches_scalar(self, rng):
        rmap = ReachabilityMap(origin=np.zeros(3), resolution=0.25, dims=(5, 5, 5),
                               scores=rng.random((5, 5, 5)))
        pts = rng.uniform(-0.5, 1.8, (100, 3))
        batch = rmap.query_batch(pts)
        for p, v in zip(pts, batch):
            assert v == pytest.approx(rmap.query(p), abs=1e-12)

    def test_scores_validated(self):
        with pytest.raises(ValueError):
            ReachabilityMap(origin=np.zeros(3), resolution=0.5, dims=(2, 2, 2),
                            scores=np.full((2, 2, 2), 1.5))


def test_sample_orientations_deterministic_and_orthonormal():
    a = sample_orientations(16, seed=3)
    b = sample_orientations(16, seed=3)
    assert np.array_equal(a, b)
    for m in a:
        assert np.allclose(m.T @ m, np.eye(3), atol=1e-12)
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12)


class TestBuild:
    def test_far_cells_zero(self, chain):
        rmap = build_map(chain, (2.0, 2.0, 2.0), (2.6, 2.6, 2.6),
                         resolution=0.3, n_orientations=2, seed=0, restarts=2,
                         ik_params=BUILD_IK)
        assert np.all(rmap.scores == 0.0)

    def test_base_interior_cell_zero(self, chain):
        # Oracle on the cell at the base origin: every attempt must fail
        # (self-collision or no convergence when folding onto the base).
        center = np.array([0.05, 0.05, 0.05])
        oracle_hits = 0
        orientations = sample_orientations(4, seed=9)
        for k, m in enumerate(orientations):
            pose = Pose6(p=center, r=matrix_to_euler_xyz(m))
            if ik_reachable(chain, pose, seed=k, restarts=8, params=BUILD_IK):
                oracle_hits += 1
        assert oracle_hits == 0
        rmap = build_map(chain, (-0.1, -0.1, -0.1), (0.2, 0.2, 0.2),
                         resolution=0.3, n_orientations=4, seed=9, restarts=8,
                         ik_params=BUILD_IK)
        assert rmap.scores.flat[0] == 0.0

    def test_single_orientation_binary_scores(self, chain):
        rmap = build_map(chain, (0.2, 0.2, 0.2), (1.1, 1.1, 1.1),
                         resolution=0.3, n_orientations=1, seed=1, restarts=4,
                         ik_params=BUILD_IK)
        assert set(np.unique(rmap.scores)) <= {0.0, 1.0}

    def test_scores_in_unit_interval_and_reachable_zone_positive(self, chain):
        rmap = build_map(chain, (0.2, 0.2, 0.2), (1.0, 1.0, 1.0),
                         resolution=0.4, n_orientations=4, seed=2, restarts=6,
                         ik_params=BUILD_IK)
        assert np.all(rmap.scores >= 0.0) and np.all(rmap.scores <= 1.0)
        assert rmap.scores.max() > 0.0  # mid-workspace cells are reachable

    def test_same_seed_bit_identical(self, chain):
        kw = dict(resolution=0.4, n_orientations=2, seed=5, restarts=2,
                  ik_params=BUILD_IK)
        a = build_map(chain, (0.3, 0.3, 0.3), (1.1, 1.1, 1.1), **kw)
        b = build_map(chain, (0.3, 0.3, 0.3), (1.1, 1.1, 1.1), **kw)
        assert np.array_equal(a.scores, b.scores)

    def test_workers_match_serial(self, chain):
        kw = dict(resolution=0.4, n_orientations=2, seed=5, restarts=2,
                  ik_params=BUILD_IK)
        a = build_map(chain, (0.3, 0.3, 0.3), (1.1, 1.1, 1.1), workers=1, **kw)
        b = build_map(chain, (0.3, 0.3, 0.3), (1.1, 1.1, 1.1), workers=2, **kw)
        assert np.array_equal(a.scores, b.scores)

    def test_invalid_args(self, chain):
        with pytest.raises(ValueError):
            build_map(chain, (0, 0, 0), (1, 1, 1), n_orientations=0)
        with pytest.raises(ValueError):
            build_map(chain, (1, 1, 1), (0, 0, 0))


def _record_restarts(monkeypatch):
    """Spy on `ik.dls_rows`: log each row that `accept` rejects and each row
    that `restart` sends again, in order."""
    events = []
    dls_rows = ik.dls_rows

    def spy(*args, accept, restart, **kwargs):
        def counted(q, links):
            ok = accept(q, links)
            events.extend(["rejected"] * int((~ok).sum()))
            return ok

        def restarted(rows, used):
            again, starts, budgets = restart(rows, used)
            events.extend(["restarted"] * int(again.sum()))
            return again, starts, budgets
        return dls_rows(*args, accept=counted, restart=restarted, **kwargs)

    monkeypatch.setattr(ik, "dls_rows", spy)
    return events


class TestBatchedCells:
    """Cells score all orientation x restart rows as one batch."""

    CENTERS = np.array([[0.45, 0.15, 0.55], [0.15, 0.55, 0.85], [0.65, -0.25, 0.35]])
    IK = IkParams(max_iterations=40)

    def _eulers(self, n, seed):
        return np.array([matrix_to_euler_xyz(m) for m in sample_orientations(n, seed)])

    def test_score_cells_matches_sequential_reference(self, chain):
        eulers = self._eulers(10, 4)
        flat = np.array([3, 17, 40])
        got = _score_cells(chain, self.CENTERS, flat, eulers, 4, 4, self.IK)
        assert np.all(got > 0.0)                      # in reach
        ref = sequential_score_cells(chain, self.CENTERS, flat, eulers, 4, 4, self.IK)
        assert np.array_equal(got, ref)

    def test_every_hit_row_fk_verified(self, chain):
        """Pose tolerance, joint limits and self-collision of the solution of
        every hit target, re-checked from the capsules of the scalar FK."""
        eulers = self._eulers(20, 8)
        rots = np.array([Pose6(r=r).rotation() for r in eulers])
        lo, hi = chain.joint_limits[:, 0], chain.joint_limits[:, 1]
        hits = 0
        for center in self.CENTERS:
            rng = np.random.default_rng(int(center.sum() * 100))
            q0 = rng.uniform(lo, hi, (len(rots), 4, 7))
            hit, q = reach_rows(chain, q0, rots, np.broadcast_to(center, (len(rots), 3)), self.IK)
            assert hit.shape == (len(rots),) and q.shape == (len(rots), 7)
            assert np.all(np.isnan(q[~hit]))
            for k in np.flatnonzero(hit):
                frame = forward_kinematics(chain, q[k]).camera_frame
                assert np.linalg.norm(frame[:3, 3] - center) <= self.IK.pos_tolerance
                angle = np.linalg.norm(rotation_log(rots[k] @ frame[:3, :3].T))
                assert angle <= self.IK.rot_tolerance
                assert chain.within_limits(q[k])
                caps = world_capsules(chain, q[k])
                for i in range(len(caps)):
                    for j in range(i + 2, len(caps)):
                        assert segment_distances(*caps[i][:2], *caps[j][:2]) >= \
                            caps[i][2] + caps[j][2]
            hits += hit.sum()
        assert 0 < hits < len(self.CENTERS) * len(rots)

    def test_rejected_rows_restart_like_sequential(self, chain, monkeypatch):
        """Beside the base many converged rows self-collide. The check runs
        inside the DLS iterations: a rejected row restarts in the same loop,
        and its group's other rows run on. Every orientation's verdict
        equals the one-restart-at-a-time reference."""
        events = _record_restarts(monkeypatch)
        hit_after_restart = False
        for center in ([0.1, 0.1, 0.3], [0.15, 0.15, 0.4]):
            for k, euler in enumerate(self._eulers(16, 5)):
                target = Pose6(p=np.array(center), r=euler)
                events.clear()
                got = ik_reachable(chain, target, seed=k, restarts=4, params=self.IK)
                assert got == sequential_ik_reachable(chain, target, k, 4, self.IK)
                # The whole budget is one burst, so only a rejected row has
                # budget left to restart. A row restarts when it is rejected,
                # so a target hit in a call that restarted is hit later.
                assert events.count("restarted") <= events.count("rejected")
                hit_after_restart |= got and "restarted" in events
        assert hit_after_restart

    def test_cell_runs_at_most_the_iteration_budget(self, chain, monkeypatch):
        """A cell's orientations and restarts share one DLS loop, so the loop
        runs at most `max_iterations` iterations, restarts included."""
        iterations = []
        rotation_logs = _fastkin.rotation_logs

        def counted(m):
            iterations.append(len(m))
            return rotation_logs(m)

        monkeypatch.setattr(_fastkin, "rotation_logs", counted)
        events = _record_restarts(monkeypatch)
        center = np.array([0.1, 0.1, 0.3])
        rots = sample_orientations(20, 3)
        q0 = np.random.default_rng(9).uniform(-2.9, 2.9, (len(rots), 4, 7))
        # One burst per start, and bursts of 30 that spend a start's budget.
        for params in (self.IK, IkParams(max_iterations=80, burst_iterations=30)):
            iterations.clear()
            events.clear()
            reach_rows(chain, q0, rots, np.broadcast_to(center, (len(rots), 3)), params)
            assert "restarted" in events
            assert len(iterations) <= params.max_iterations


class TestPersistence:
    def test_round_trip_bit_identical(self, tmp_path, chain, rng):
        rmap = ReachabilityMap(origin=(0.1, 0.2, 0.3), resolution=0.25,
                               dims=(3, 4, 5), scores=rng.random((3, 4, 5)),
                               chain_hash=chain.hash(), n_orientations=8,
                               seed=11, restarts=4)
        path = tmp_path / "map.bin"
        save_map(rmap, path, config_hash="deadbeef")
        loaded = load_map(path, chain=chain)
        assert np.array_equal(loaded.scores, rmap.scores)
        assert loaded.dims == rmap.dims
        assert loaded.seed == 11 and loaded.n_orientations == 8
        assert np.allclose(loaded.origin, rmap.origin)

    def test_save_twice_byte_identical(self, tmp_path, rng):
        rmap = ReachabilityMap(origin=np.zeros(3), resolution=0.5, dims=(2, 2, 2),
                               scores=rng.random((2, 2, 2)))
        p1, p2 = tmp_path / "a.bin", tmp_path / "b.bin"
        save_map(rmap, p1)
        save_map(rmap, p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_chain_hash_mismatch_rejected(self, tmp_path, chain, mounted_chain):
        rmap = ReachabilityMap(origin=np.zeros(3), resolution=0.5, dims=(2, 2, 2),
                               scores=np.zeros((2, 2, 2)),
                               chain_hash=chain.hash())
        path = tmp_path / "map.bin"
        save_map(rmap, path)
        with pytest.raises(MapChainMismatchError):
            load_map(path, chain=mounted_chain)
        # Without a chain to check against, loading is allowed.
        assert load_map(path).chain_hash == chain.hash()

    def test_not_a_map_file(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a map\n")
        with pytest.raises(ValueError):
            load_map(path)


def test_slice_rows_layer(rng):
    rmap = ReachabilityMap(origin=np.zeros(3), resolution=0.5, dims=(3, 3, 3),
                           scores=rng.random((3, 3, 3)))
    rows = slice_rows(rmap, z=0.75)  # second layer
    assert len(rows) == 9
    for x, y, z, s in rows:
        assert z == pytest.approx(0.75)
    got = {(round(x, 3), round(y, 3)): s for x, y, z, s in rows}
    assert got[(0.25, 0.25)] == rmap.scores[0, 0, 1]


@given(seed=st.integers(0, 10_000))
@settings(max_examples=20, deadline=None)
def test_query_never_outside_unit_interval(seed):
    rng = np.random.default_rng(seed)
    rmap = ReachabilityMap(origin=np.zeros(3), resolution=0.3, dims=(4, 4, 4),
                           scores=rng.random((4, 4, 4)))
    p = rng.uniform(-1.0, 2.0, 3)
    assert 0.0 <= rmap.query(p) <= 1.0
