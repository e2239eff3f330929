import numpy as np
import pytest
from dataclasses import replace

from reachtrack import ik
from reachtrack._fastkin import dls_burst, dls_rows, fk_rows
from reachtrack.ik import IkParams, ik_reachable, ik_solve, position_reachable
from reachtrack.kinematics import forward_kinematics, self_collision, world_capsules
from reachtrack.transforms import Pose6, rotation_log
from reachtrack.world import OccupancyGrid
from reachtrack.geometry import point_segment_distance
from reference import sequential_ik_reachable, sequential_ik_solve


@pytest.fixture(scope="module")
def params():
    return IkParams()


def _verify_solution(chain, q, target, q_prev, params, grid=None):
    """Independent re-verification of every success postcondition."""
    fk = forward_kinematics(chain, q)
    assert np.linalg.norm(fk.camera_pose.p - target.p) <= params.pos_tolerance + 1e-9
    rot_err = rotation_log(target.rotation() @ fk.camera_pose.rotation().T)
    assert np.linalg.norm(rot_err) <= params.rot_tolerance + 1e-9
    assert chain.within_limits(q)
    if np.isfinite(params.speed_cap):
        assert np.max(np.abs(q - q_prev)) <= params.speed_cap + 1e-12
    assert not self_collision(chain, q)
    if grid is not None and grid.cells.any():
        centers = grid.occupied_centers()
        for a, b, r in world_capsules(chain, q):
            d = point_segment_distance(centers, a, b).min() - grid.half_diagonal - r
            assert d >= params.clearance_margin - 1e-12


def test_fixed_point_returns_q_prev(chain, params, rng):
    q = chain.random_config(rng) * 0.5
    target = forward_kinematics(chain, q).camera_pose
    out = ik_solve(chain, target, q, None, params)
    assert out is not None
    assert np.allclose(out, q)


def test_small_displacement_success(chain, params, rng):
    for _ in range(20):
        q = chain.random_config(rng) * 0.4
        fk = forward_kinematics(chain, q)
        target = Pose6(p=fk.camera_pose.p + [0.001, 0.0, 0.0], r=fk.camera_pose.r)
        out = ik_solve(chain, target, q, None, params)
        assert out is not None
        _verify_solution(chain, out, target, q, params)
        assert np.max(np.abs(out - q)) < 0.05


def test_beyond_reach_fails(chain, params):
    target = Pose6(p=[10.0, 0.0, 0.0], r=[0.0, 0.0, 0.0])
    assert ik_solve(chain, target, np.zeros(7), None, params) is None


def test_soundness_over_random_solvable_targets(chain, params, rng):
    """Every reported success re-verifies all postconditions."""
    successes = 0
    for _ in range(120):
        q = chain.random_config(rng) * 0.5
        fk = forward_kinematics(chain, q)
        target = Pose6(p=fk.camera_pose.p + rng.uniform(-0.01, 0.01, 3),
                       r=fk.camera_pose.r)
        out = ik_solve(chain, target, q, None, params)
        if out is not None:
            successes += 1
            _verify_solution(chain, out, target, q, params)
    assert successes > 80  # near targets from mild configs are mostly solvable


def test_clearance_constraint_respected(chain, params, rng):
    # An occupied slab beside the arm: any success must keep the margin.
    grid = OccupancyGrid.empty((-1.0, -1.0, -1.0), 0.1, (20, 20, 20))
    grid.cells[17:, :, :] = True  # slab at x >= 0.7
    checked = 0
    for _ in range(30):
        q = chain.random_config(rng) * 0.3
        fk = forward_kinematics(chain, q)
        target = Pose6(p=fk.camera_pose.p + rng.uniform(-0.01, 0.01, 3),
                       r=fk.camera_pose.r)
        out = ik_solve(chain, target, q, grid, params)
        if out is not None:
            _verify_solution(chain, out, target, q, params, grid=grid)
            checked += 1
    assert checked > 0


def test_continuity_over_smooth_path(chain, params):
    """100-tick smooth target path in empty space: per-tick joint motion
    never exceeds the speed cap and the solver keeps up."""
    q = chain.home.copy()
    fk = forward_kinematics(chain, q)
    start = fk.camera_pose
    failures = 0
    prev = q
    for tick in range(100):
        s = (tick + 1) / 100.0
        target = Pose6(p=start.p + s * np.array([0.06, 0.08, -0.06]), r=start.r)
        out = ik_solve(chain, target, prev, None, params)
        if out is None:
            failures += 1
            continue
        assert np.max(np.abs(out - prev)) <= params.speed_cap + 1e-12
        prev = out
    assert failures == 0


def test_determinism(chain, params, rng):
    q = chain.random_config(rng) * 0.4
    fk = forward_kinematics(chain, q)
    target = Pose6(p=fk.camera_pose.p + [0.005, -0.003, 0.002], r=fk.camera_pose.r)
    a = ik_solve(chain, target, q, None, params)
    b = ik_solve(chain, target, q, None, params)
    assert a is not None and b is not None
    assert np.array_equal(a, b)


class TestIkReachable:
    def test_mid_workspace_true_and_fk_verified(self, chain):
        target = Pose6(p=[0.5, 0.2, 0.6], r=[0.3, 0.2, 0.1])
        # Oracle: find a solution explicitly and verify it by FK round trip.
        params = replace(IkParams(max_iterations=200), speed_cap=float("inf"))
        q = ik_solve(chain, target, chain.home.copy(), None, params)
        assert q is not None
        fk = forward_kinematics(chain, q)
        assert np.linalg.norm(fk.camera_pose.p - target.p) <= params.pos_tolerance + 1e-9
        assert ik_reachable(chain, target, seed=0, restarts=8)

    def test_far_target_false(self, chain):
        assert not ik_reachable(chain, Pose6(p=[10.0, 0.0, 0.0], r=[0, 0, 0]),
                                seed=0, restarts=4)

    def test_same_seed_same_result(self, chain):
        target = Pose6(p=[1.05, 0.3, 0.55], r=[0.4, 0.8, 0.2])
        results = {ik_reachable(chain, target, seed=42, restarts=3) for _ in range(3)}
        assert len(results) == 1

    def test_restart_validation(self, chain):
        with pytest.raises(ValueError):
            ik_reachable(chain, Pose6(), seed=0, restarts=0)


def test_position_reachable(chain):
    assert position_reachable(chain, [0.5, 0.2, 0.6], seed=0)
    assert not position_reachable(chain, [2.0, 0.0, 0.0], seed=0)


# -- the batched DLS core and the speculative restarts -------------------------

def test_dls_row_same_alone_or_in_batch(chain, params, rng):
    """A row's result does not depend on the rows beside it, bit for bit.
    160 mixed rows (near, far and unreachable targets; budgets 1-60) run as
    one batch, so rows leave the active set at many different iterations."""
    n = 160
    lo, hi = chain.joint_limits[:, 0], chain.joint_limits[:, 1]
    q0 = rng.uniform(lo, hi, (n, 7))
    goals = [forward_kinematics(chain, rng.uniform(lo, hi)).camera_pose for _ in range(n)]
    rot = np.array([g.rotation() for g in goals])
    p = np.array([g.p for g in goals]) + rng.choice([0.0, 0.05, 2.0], (n, 1))
    budgets = rng.integers(1, 61, n)
    settings = ik._settings(params)
    q, converged, used = dls_rows(chain, q0, rot, p, budgets, lo, hi, **settings)
    assert 0 < converged.sum() < n
    for i in range(n):
        qi, ci, ui = dls_burst(chain, q0[i], rot[i], p[i], budgets[i], lo, hi, **settings)
        assert np.array_equal(qi, q[i]) and ci == converged[i] and ui == used[i]


def test_dls_groups_stop_at_first_accepted_row(chain, params, rng):
    """Each group of rows stops at its first converged row; the other rows
    of the group stop in that iteration, and rows of unfinished groups run
    as they would alone."""
    lo, hi = chain.joint_limits[:, 0], chain.joint_limits[:, 1]
    settings = ik._settings(params)
    q_sol = chain.random_config(rng) * 0.5
    goal = forward_kinematics(chain, q_sol).camera_pose
    q0 = np.clip(q_sol + rng.uniform(-0.3, 0.3, (12, 7)), lo, hi)
    q0[0] = q_sol                                 # group 0: row 0 is a solution
    p = np.tile(goal.p, (12, 1))
    p[8:] += 2.0                                  # group 2: out of reach
    rot = np.broadcast_to(goal.rotation(), (12, 3, 3))
    groups = np.repeat([0, 1, 2], 4)
    q, converged, used = dls_rows(chain, q0, rot, p, 40, lo, hi, groups=groups, **settings)
    alone = [dls_burst(chain, q0[i], rot[i], p[i], 40, lo, hi, **settings) for i in range(12)]
    alone_used = np.array([a[2] for a in alone])

    assert np.array_equal(used[:4], [1, 1, 1, 1])
    assert list(converged[:4]) == [True, False, False, False]
    assert np.array_equal(q[0], q_sol)

    won = 4 + min(range(4), key=lambda i: (not alone[4 + i][1], alone_used[4 + i]))
    assert alone[won][1] and max(alone_used[4:8]) > alone_used[won]
    assert np.flatnonzero(converged[4:8]).tolist() == [won - 4]
    assert np.array_equal(q[won], alone[won][0])
    assert np.array_equal(used[4:8], np.minimum(alone_used[4:8], alone_used[won]))

    assert not converged[8:].any()
    for i in range(8, 12):
        assert np.array_equal(q[i], alone[i][0]) and used[i] == alone_used[i] == 40


def test_dls_rejected_row_stops_unconverged(chain, params, rng):
    """A converged row that `accept` rejects stops in the iteration it
    converged in, unconverged, and leaves its group running."""
    lo, hi = chain.joint_limits[:, 0], chain.joint_limits[:, 1]
    settings = ik._settings(params)
    q_sol = chain.random_config(rng) * 0.5
    goal = forward_kinematics(chain, q_sol).camera_pose
    q0 = np.clip(q_sol + rng.uniform(-0.3, 0.3, (6, 7)), lo, hi)
    rot = np.broadcast_to(goal.rotation(), (6, 3, 3))
    p = np.broadcast_to(goal.p, (6, 3))
    alone = [dls_burst(chain, q0[i], rot[i], p[i], 40, lo, hi, **settings) for i in range(6)]
    assert all(a[1] for a in alone)
    checked = []

    def reject_all(q, links):
        checked.append(len(q))
        return np.zeros(len(q), dtype=bool)

    _, converged, used = dls_rows(chain, q0, rot, p, 40, lo, hi, groups=np.zeros(6, int),
                                  accept=reject_all, **settings)
    assert not converged.any() and sum(checked) == 6
    assert np.array_equal(used, [a[2] for a in alone])


def test_dls_accept_gets_the_rows_link_frames(chain, params, rng):
    """The link frames `accept` receives are those `fk_rows` gives its rows."""
    lo, hi = chain.joint_limits[:, 0], chain.joint_limits[:, 1]
    q_sol = chain.random_config(rng) * 0.5
    goal = forward_kinematics(chain, q_sol).camera_pose
    q0 = np.clip(q_sol + rng.uniform(-0.3, 0.3, (8, 7)), lo, hi)
    seen = []

    def record(q, links):
        seen.append((q.copy(), links.copy()))
        return np.arange(len(q)) % 2 == 0

    dls_rows(chain, q0, goal.rotation(), goal.p, 40, lo, hi, accept=record,
             **ik._settings(params))
    assert sum(len(q) for q, _ in seen) == 8 and len(seen) > 1
    for q, links in seen:
        assert links.shape == (len(q), 7, 4, 4)
        assert np.array_equal(links, fk_rows(chain, q)[3])


def test_dls_restarted_row_runs_as_a_fresh_call(chain, params, rng):
    """A row that ends unconverged, rejected or out of budget, restarts
    inside the loop. Its first run and its restarted run each equal a new
    `dls_rows` call from that start and budget, bit for bit, while the rows
    beside it run on."""
    n = 24
    lo, hi = chain.joint_limits[:, 0], chain.joint_limits[:, 1]
    settings = ik._settings(params)
    q_sol = chain.random_config(rng) * 0.5
    goal = forward_kinematics(chain, q_sol).camera_pose
    rot, p = goal.rotation(), goal.p
    q0 = np.clip(q_sol + rng.uniform(-0.4, 0.4, (n, 7)), lo, hi)
    q1 = np.clip(q_sol + rng.uniform(-0.4, 0.4, (n, 7)), lo, hi)
    b0 = rng.integers(1, 25, n)
    b1 = rng.integers(20, 41, n)
    first = [dls_burst(chain, q0[i], rot, p, b0[i], lo, hi, **settings) for i in range(n)]
    second = [dls_burst(chain, q1[i], rot, p, b1[i], lo, hi, **settings) for i in range(n)]
    # Reject exactly the configurations the first runs converge to.
    first_hits = {a[0].tobytes() for a in first if a[1]}
    assert 0 < len(first_hits) < n                # some rejected, some out of budget
    ended = {}

    def reject_first_hits(q, links):
        return np.array([row.tobytes() not in first_hits for row in q])

    def restart(rows, used):
        again = np.array([r not in ended for r in rows])
        ended.update((int(r), int(u)) for r, u in zip(rows, used))
        return again, q1[rows[again]], b1[rows[again]]

    q, converged, used = dls_rows(chain, q0, rot, p, b0, lo, hi, accept=reject_first_hits,
                                  restart=restart, **settings)
    assert sorted(ended) == list(range(n)) and len(set(ended.values())) > 1
    for i in range(n):
        assert ended[i] == first[i][2]
        qi, ci, ui = second[i]
        assert np.array_equal(q[i], qi) and converged[i] == ci and used[i] == ui


def _count_bursts(monkeypatch):
    """Count the sequential (batch-of-one) bursts ik_solve runs: its repairs."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return dls_burst(*args, **kwargs)

    monkeypatch.setattr(ik, "dls_burst", counted)
    return calls


def test_speculative_solve_matches_sequential_free_space(chain, params, rng):
    solved = 0
    for _ in range(25):
        q = chain.random_config(rng) * 0.5
        fk = forward_kinematics(chain, q)
        target = Pose6(p=fk.camera_pose.p + rng.uniform(-0.02, 0.02, 3), r=fk.camera_pose.r)
        out = ik_solve(chain, target, q, None, params)
        ref = sequential_ik_solve(chain, target, q, None, params)
        assert (out is None) == (ref is None)
        if out is not None:
            assert np.array_equal(out, ref)
            solved += 1
    assert solved > 15


def test_speculative_solve_matches_sequential_later_starts(chain, params, monkeypatch):
    """Far targets without a speed cap: the first start often fails, so a
    later start of the batch converges first, or rounds of restarts follow."""
    params = replace(params, speed_cap=float("inf"))
    rng = np.random.default_rng(7)
    skipped = []
    first_converged = ik._first_converged

    def spy(*args):
        found = first_converged(*args)
        skipped.append(found is not None and found[2] - args[-1] > 1)
        return found

    monkeypatch.setattr(ik, "_first_converged", spy)
    for _ in range(8):
        q = chain.random_config(rng) * 0.5
        target = forward_kinematics(chain, chain.random_config(rng)).camera_pose
        out = ik_solve(chain, target, q, None, params)
        ref = sequential_ik_solve(chain, target, q, None, params)
        assert (out is None) == (ref is None)
        assert out is None or np.array_equal(out, ref)
    assert any(skipped)


def test_speculative_solve_matches_sequential_clearance_repair(chain, params, rng, monkeypatch):
    """With voxels beside the arm, converged poses fail the clearance margin
    and go through nullspace repair and restarts."""
    grid = OccupancyGrid.empty((-1.0, -1.0, -1.0), 0.1, (20, 20, 20))
    grid.cells[14:16, 5:15, 5:15] = True          # a plate at x = 0.4-0.6 m
    calls = _count_bursts(monkeypatch)
    solved = 0
    for _ in range(12):
        q = chain.random_config(rng) * 0.3
        fk = forward_kinematics(chain, q)
        target = Pose6(p=fk.camera_pose.p + rng.uniform(-0.01, 0.01, 3), r=fk.camera_pose.r)
        out = ik_solve(chain, target, q, grid, params)
        ref = sequential_ik_solve(chain, target, q, grid, params)
        assert (out is None) == (ref is None)
        if out is not None:
            assert np.array_equal(out, ref)
            _verify_solution(chain, out, target, q, params, grid=grid)
            solved += 1
    assert calls and solved > 0


def test_speculative_solve_speed_capped_target_fails_every_start(chain, params):
    q = chain.home.copy()
    target = forward_kinematics(chain, q + 0.4).camera_pose   # 0.4 rad away per joint
    assert ik_solve(chain, target, q, None, replace(params, speed_cap=float("inf"))) is not None
    assert ik_solve(chain, target, q, None, params) is None
    assert sequential_ik_solve(chain, target, q, None, params) is None


def test_ik_reachable_matches_sequential(chain, rng):
    """Budgets above one burst: rows whose burst fails restart with the rest."""
    params = IkParams(max_iterations=80)
    outcomes = set()
    for seed in range(12):
        target = Pose6(p=rng.uniform([-0.6, -0.6, 0.1], [0.6, 0.6, 1.1]),
                       r=rng.uniform(-np.pi, np.pi, 3))
        got = ik_reachable(chain, target, seed=seed, restarts=3, params=params)
        assert got == sequential_ik_reachable(chain, target, seed, 3, params)
        outcomes.add(got)
    assert outcomes == {True, False}


def test_position_reachable_matches_sequential(chain, params):
    lo, hi = chain.joint_limits[:, 0], chain.joint_limits[:, 1]
    for p in ([0.5, 0.2, 0.6], [1.2, 0.0, 0.4], [0.05, 0.05, 0.05], [1.35, 0.0, 0.0]):
        rng = np.random.default_rng(3)
        ref = any(dls_burst(chain, chain.random_config(rng), np.eye(3), np.asarray(p, float), 30,
                            lo, hi, pos_tol=2e-3, rot_tol=1e9, damping=1e-3, clamp_pos=0.3,
                            clamp_rot=0.5, use_rot=False)[1] for _ in range(6))
        assert position_reachable(chain, p, seed=3, restarts=6) == ref
