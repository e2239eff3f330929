import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reachtrack import planner
from reachtrack.planner import (
    PlannerInput,
    PlannerParams,
    RescaleWeights,
    _probe_deltas,
    objective,
    objective_batch,
    plan_step,
    rescale,
)
from reachtrack.reachability import ReachabilityMap
from reachtrack.transforms import Pose6, compose_pose_delta
from reachtrack.world import OccupancyGrid, SightCone, cone_grid_distance

from reference import reference_objective, term_col, term_occl, term_reach, term_track

TABLE1 = PlannerParams.paper_table1()


def _empty_grid():
    return OccupancyGrid.empty((-2.0, -2.0, -2.0), 0.1, (40, 40, 40))


def _uniform_map(score=1.0):
    return ReachabilityMap(origin=(-3.0, -3.0, -3.0), resolution=0.5,
                           dims=(12, 12, 12),
                           scores=np.full((12, 12, 12), score))


def _looking_input(d=1.0, grid=None, rmap=None):
    """Camera at origin looking along +x at a target d away."""
    pose = Pose6(p=np.zeros(3), r=[0.0, np.pi / 2, 0.0])  # view axis -> +x
    target = Pose6(p=[d, 0.0, 0.0], r=np.zeros(3))
    return PlannerInput(x_ee=pose, x_target=target,
                        grid=grid if grid is not None else _empty_grid(),
                        reach_map=rmap if rmap is not None else _uniform_map())


class TestRescale:
    def test_zero_input_zero_offset(self):
        assert rescale(RescaleWeights(0.5, 1.0, 0.0), 0.0) == 0.0

    def test_table1_occlusion_threshold_root(self):
        # u_occl = 0.3 m makes the occlusion row vanish at its threshold.
        assert rescale(RescaleWeights(-1.0, 5.0, -1.5), 0.3) == pytest.approx(0.0, abs=1e-12)

    def test_direct_substitution(self):
        assert rescale(RescaleWeights(0.5, 1.0, 0.0), 0.2) == pytest.approx(0.004, abs=1e-15)

    @given(w0=st.floats(-10, 10), w1=st.floats(-10, 10), w2=st.floats(-10, 10),
           x=st.floats(-100, 100))
    @settings(max_examples=200, deadline=None)
    def test_matches_formula(self, w0, w1, w2, x):
        got = rescale(RescaleWeights(w0, w1, w2), x)
        expected = w0 * (w1 * x + w2) ** 3
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-300)

    @given(x1=st.floats(-10, 0.99), x2=st.floats(-10, 0.99))
    @settings(max_examples=100, deadline=None)
    def test_strictly_decreasing_for_negative_w0(self, x1, x2):
        # w0 < 0, w1 > 0: G is strictly decreasing (at float resolution).
        w = RescaleWeights(-1.0, 1.5, -1.5)
        if x2 - x1 > 1e-9:
            assert rescale(w, x1) > rescale(w, x2)


class TestThresholdContinuity:
    def test_table1_rows_vanish_at_thresholds(self):
        assert rescale(TABLE1.w_occl, TABLE1.u_occl) == pytest.approx(0.0, abs=1e-12)
        assert rescale(TABLE1.w_col, TABLE1.u_col) == pytest.approx(0.0, abs=1e-12)
        assert rescale(TABLE1.w_reach, TABLE1.u_reach) == pytest.approx(0.0, abs=1e-12)


class TestTermTrack:
    def test_perfect_pose_zero(self):
        inp = _looking_input(d=TABLE1.d_des)
        assert term_track(TABLE1, inp, inp.x_ee) == pytest.approx(0.0, abs=1e-12)

    def test_distance_error(self):
        inp = _looking_input(d=TABLE1.d_des + 0.2)
        assert term_track(TABLE1, inp, inp.x_ee) == pytest.approx(0.004, abs=1e-12)

    def test_centering_error(self):
        # theta = 0.5 rad at the desired distance: 7.5 * (1.5*0.5)^3.
        inp = _looking_input(d=1.0)
        rotated = Pose6(p=inp.x_ee.p, r=[0.0, np.pi / 2 - 0.5, 0.0])
        got = term_track(TABLE1, inp, rotated)
        assert got == pytest.approx(7.5 * 0.75 ** 3, abs=1e-9)
        assert got == pytest.approx(3.1640625, abs=1e-9)

    def test_target_at_camera_theta_zero(self):
        inp = _looking_input(d=1.0)
        coincident = Pose6(p=inp.x_target.p, r=inp.x_ee.r)
        got = term_track(TABLE1, inp, coincident)
        assert got == pytest.approx(rescale(TABLE1.w_d, TABLE1.d_des), abs=1e-12)


class TestTermOccl:
    def test_empty_grid_deactivated(self):
        inp = _looking_input()
        assert term_occl(TABLE1, inp, inp.x_ee) == 0.0

    def test_threshold_distance_zero(self):
        # Construct occupancy whose cone distance is exactly u_occl by
        # placing one voxel and checking continuity at the threshold branch.
        inp = _looking_input()
        d = cone_grid_distance(_grid_with_voxel_at([0.5, 0.8, 0.0]),
                               SightCone(apex=inp.x_ee.p,
                                         axis=np.array([1.0, 0.0, 0.0]),
                                         length=1.0, base_radius=TABLE1.cone_base_radius))
        # Not exactly 0.3; instead check both sides of the branch equal at u.
        assert rescale(TABLE1.w_occl, TABLE1.u_occl) == pytest.approx(0.0, abs=1e-12)
        assert d > 0

    def test_grazing_contact_value(self):
        # d = 0 exactly: G_w(0) = -1 * (-1.5)^3 = 3.375 by Table I.
        assert rescale(TABLE1.w_occl, 0.0) == pytest.approx(3.375, abs=1e-12)

    def test_blocked_sight_line_penalized(self):
        grid = _grid_with_voxel_at([0.5, 0.0, 0.0])
        inp = _looking_input(grid=grid)
        assert term_occl(TABLE1, inp, inp.x_ee) > 3.375  # penetration beyond grazing


class TestTermCol:
    def test_table1_threshold(self):
        assert rescale(TABLE1.w_col, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_zero_distance_value(self):
        assert rescale(TABLE1.w_col, 0.0) == pytest.approx(3.375, abs=1e-12)

    def test_empty_grid_deactivated(self):
        inp = _looking_input()
        assert term_col(TABLE1, inp, inp.x_ee) == 0.0

    def test_nearby_voxel_activates(self):
        grid = _grid_with_voxel_at([0.3, 0.0, 0.0])
        inp = _looking_input(grid=grid)
        got = term_col(TABLE1, inp, inp.x_ee)
        from reachtrack.world import point_grid_distance
        d = point_grid_distance(grid, inp.x_ee.p)
        assert got == pytest.approx(rescale(TABLE1.w_col, d), abs=1e-12)
        assert got > 0


class TestTermReach:
    def test_table1_threshold(self):
        assert rescale(TABLE1.w_reach, 0.5) == pytest.approx(0.0, abs=1e-12)

    def test_zero_reachability_value(self):
        assert rescale(TABLE1.w_reach, 0.0) == pytest.approx(625000.0, abs=1e-6)

    def test_high_reachability_deactivated(self):
        inp = _looking_input(rmap=_uniform_map(0.9))
        assert term_reach(TABLE1, inp, inp.x_ee) == 0.0

    def test_low_reachability_penalized(self):
        inp = _looking_input(rmap=_uniform_map(0.25))
        expected = rescale(TABLE1.w_reach, 0.25)
        assert term_reach(TABLE1, inp, inp.x_ee) == pytest.approx(expected, abs=1e-9)

    def test_penetration_dominance(self):
        # Any negative distance beats any nonnegative one for occl.
        worst_outside = rescale(TABLE1.w_occl, 0.0)
        for d in (-0.01, -0.1, -0.5):
            assert rescale(TABLE1.w_occl, d) > worst_outside


def _grid_with_voxel_at(p):
    grid = OccupancyGrid.empty((-2.0, -2.0, -2.0), 0.1, (40, 40, 40))
    grid.cells[grid.index_of(p)] = True
    return grid


class TestObjective:
    def test_all_terms_zero(self):
        inp = _looking_input(d=TABLE1.d_des)
        assert objective(inp, TABLE1, np.zeros(6)) == pytest.approx(0.0, abs=1e-12)

    def test_recomposition_oracle(self, rng):
        grid = _grid_with_voxel_at([0.6, 0.3, 0.1])
        rmap = ReachabilityMap(origin=(-3, -3, -3), resolution=0.5, dims=(12, 12, 12),
                               scores=rng.random((12, 12, 12)))
        inp = PlannerInput(
            x_ee=Pose6(p=rng.uniform(-0.3, 0.3, 3), r=rng.uniform(-1, 1, 3)),
            x_target=Pose6(p=[1.0, 0.2, -0.1], r=np.zeros(3)),
            grid=grid, reach_map=rmap)
        for _ in range(20):
            delta = rng.uniform(TABLE1.delta_lower, TABLE1.delta_upper)
            pose = compose_pose_delta(inp.x_ee, delta)
            expected = (term_track(TABLE1, inp, pose) + term_occl(TABLE1, inp, pose)
                        + term_col(TABLE1, inp, pose) + term_reach(TABLE1, inp, pose))
            assert objective(inp, TABLE1, delta) == pytest.approx(expected, abs=1e-12)

    def test_ablation_masks_disable_terms(self, rng):
        grid = _grid_with_voxel_at([0.6, 0.0, 0.0])
        inp = PlannerInput(x_ee=Pose6(p=np.zeros(3), r=[0, np.pi / 2, 0]),
                           x_target=Pose6(p=[1.2, 0, 0], r=np.zeros(3)),
                           grid=grid, reach_map=_uniform_map(0.0))
        track_only = replace(TABLE1, enable_occl=False, enable_col=False,
                             enable_reach=False)
        pose = inp.x_ee
        assert objective(inp, track_only, np.zeros(6)) == pytest.approx(
            term_track(TABLE1, inp, pose), abs=1e-12)
        deltas = rng.uniform(TABLE1.delta_lower, TABLE1.delta_upper, (5, 6))
        for occl, col, reach in itertools.product((False, True), repeat=3):
            params = replace(TABLE1, enable_occl=occl, enable_col=col, enable_reach=reach)
            for delta, value in zip(deltas, objective_batch(inp, params, deltas)):
                assert value == pytest.approx(reference_objective(params, inp, delta),
                                              rel=1e-9, abs=1e-9)

    def test_batch_matches_scalar(self, rng):
        grid = _grid_with_voxel_at([0.6, 0.3, 0.1])
        rmap = ReachabilityMap(origin=(-3, -3, -3), resolution=0.5, dims=(12, 12, 12),
                               scores=rng.random((12, 12, 12)))
        inp = PlannerInput(
            x_ee=Pose6(p=rng.uniform(-0.3, 0.3, 3), r=rng.uniform(-1, 1, 3)),
            x_target=Pose6(p=[1.0, 0.2, -0.1], r=np.zeros(3)),
            grid=grid, reach_map=rmap)
        deltas = rng.uniform(TABLE1.delta_lower, TABLE1.delta_upper, (200, 6))
        batch = objective_batch(inp, TABLE1, deltas)
        for d, v in zip(deltas, batch):
            assert v == pytest.approx(reference_objective(TABLE1, inp, d), rel=1e-9, abs=1e-9)

    def test_objective_is_its_row_of_the_batch(self, rng):
        """A single call is a batch of one: on a mixed batch over a grid of many
        voxels and a map, every row equals its single call bit for bit, also
        the rows whose camera lands on the target (no sight cone)."""
        grid = _empty_grid()
        grid.cells[14:30, 18:24, 19:23] = rng.random((16, 6, 4)) < 0.3
        rmap = ReachabilityMap(origin=(-3, -3, -3), resolution=0.5, dims=(12, 12, 12),
                               scores=rng.random((12, 12, 12)))
        target = np.array([1.0, 0.2, -0.1])
        inp = PlannerInput(
            x_ee=Pose6(p=target - [0.03, -0.02, 0.01], r=rng.uniform(-1, 1, 3)),
            x_target=Pose6(p=target, r=np.zeros(3)), grid=grid, reach_map=rmap)
        deltas = rng.uniform(TABLE1.delta_lower, TABLE1.delta_upper, (200, 6))
        deltas[::25, :3] = [0.03, -0.02, 0.01]
        assert np.all(np.linalg.norm(inp.x_ee.p + deltas[::25, :3] - target, axis=1) <= 1e-9)
        batch = objective_batch(inp, TABLE1, deltas)
        for d, v in zip(deltas, batch):
            assert objective(inp, TABLE1, d) == v
            assert v == pytest.approx(reference_objective(TABLE1, inp, d), rel=1e-9, abs=1e-9)


def grid_search_minimum(inp, params, n_pos=11, n_rot=11):
    """Exhaustive box grid search over deltas, decomposed by the fact that
    only the centering angle couples position and rotation.

    Exactly equivalent to evaluating the full product grid and taking the
    minimum (verified against the naive product in a dedicated test).
    """
    from reachtrack.planner import _batch_euler_to_matrix

    lo, hi = params.delta_lower, params.delta_upper
    pos_axes = [np.linspace(lo[i], hi[i], n_pos) for i in range(3)]
    rot_axes = [np.linspace(lo[i + 3], hi[i + 3], n_rot) for i in range(3)]
    pos_grid = np.stack(np.meshgrid(*pos_axes, indexing="ij"), -1).reshape(-1, 3)
    rot_grid = np.stack(np.meshgrid(*rot_axes, indexing="ij"), -1).reshape(-1, 3)

    # Position-only terms: full objective at zero rotation, minus its track
    # part (the distance component survives; only theta couples to rotation).
    pos_deltas = np.concatenate([pos_grid, np.zeros_like(pos_grid)], axis=1)
    base = objective_batch(inp, params, pos_deltas)
    zero_rot_track = np.array([
        term_track(params, inp, compose_pose_delta(inp.x_ee, d)) for d in pos_deltas])
    pos_terms = base - zero_rot_track

    # Track term for every (position, rotation) pair, vectorized.
    positions = inp.x_ee.p + pos_grid
    to_target = inp.x_target.p - positions
    d = np.linalg.norm(to_target, axis=1)
    safe = d > 1e-9
    u = np.where(safe[:, None], to_target / np.where(safe, d, 1.0)[:, None], 0.0)
    view = (_batch_euler_to_matrix(rot_grid) @ inp.x_ee.rotation())[:, :, 2]
    cos = np.clip(u @ view.T, -1.0, 1.0)                      # (n_pos^3, n_rot^3)
    theta = np.arctan2(np.sqrt(np.maximum(1.0 - cos ** 2, 0.0)), cos)
    theta[~safe, :] = 0.0
    track = (rescale(params.w_d, np.abs(params.d_des - d))[:, None]
             + rescale(params.w_theta, theta))

    totals = pos_terms + track.min(axis=1)
    k = int(np.argmin(totals))
    j = int(np.argmin(track[k]))
    return float(totals[k]), np.concatenate([pos_grid[k], rot_grid[j]])


class TestPlanStep:
    def test_already_optimal_returns_small_delta(self):
        inp = _looking_input(d=TABLE1.d_des)
        result = plan_step(inp, TABLE1)
        assert np.linalg.norm(result.delta) <= 1e-4 + 1e-9
        assert result.objective <= 1e-12

    def test_result_always_in_box(self, rng):
        grid = _grid_with_voxel_at([0.4, 0.1, 0.0])
        inp = _looking_input(grid=grid)
        result = plan_step(inp, TABLE1)
        assert np.all(result.delta >= TABLE1.delta_lower - 1e-12)
        assert np.all(result.delta <= TABLE1.delta_upper + 1e-12)

    def test_never_worse_than_zero(self, rng):
        for seed in range(5):
            r = np.random.default_rng(seed)
            grid = _grid_with_voxel_at(r.uniform(-0.5, 0.8, 3))
            inp = PlannerInput(
                x_ee=Pose6(p=r.uniform(-0.2, 0.2, 3), r=r.uniform(-1, 1, 3)),
                x_target=Pose6(p=[1.0, 0.1, 0.0], r=np.zeros(3)),
                grid=grid, reach_map=_uniform_map())
            result = plan_step(inp, TABLE1)
            f0 = objective(inp, TABLE1, np.zeros(6))
            assert result.objective <= f0 + 1e-12

    def test_displaced_target_improves_objective(self):
        # Target moved +0.05 m along a free axis: the optimizer approaches it.
        inp = _looking_input(d=TABLE1.d_des + 0.05)
        f0 = objective(inp, TABLE1, np.zeros(6))
        result = plan_step(inp, TABLE1)
        assert result.objective < f0
        # Moves toward the target along +x.
        assert result.delta[0] > 0.01

    def test_blocked_sight_line_increases_cone_distance(self):
        grid = _grid_with_voxel_at([0.5, 0.0, 0.0])
        inp = _looking_input(grid=grid)

        def cone_d(pose):
            length = np.linalg.norm(inp.x_target.p - pose.p)
            cone = SightCone(apex=pose.p,
                             axis=(inp.x_target.p - pose.p) / length,
                             length=length, base_radius=TABLE1.cone_base_radius)
            return cone_grid_distance(grid, cone)

        d0 = cone_d(inp.x_ee)
        result = plan_step(inp, TABLE1)
        d1 = cone_d(compose_pose_delta(inp.x_ee, result.delta))
        assert d1 > d0

    def test_probe_deltas_cover_faces_and_corners(self):
        probes = _probe_deltas(TABLE1)
        assert len(probes) == 20
        assert np.all(probes >= TABLE1.delta_lower - 1e-12)
        assert np.all(probes <= TABLE1.delta_upper + 1e-12)

    def test_evaluations_count_every_row(self, monkeypatch):
        """`evaluations` counts every objective row: single calls, the probe
        batch and one 12-row batch per gradient."""
        rows = []
        batch = planner.objective_batch

        def counted(inp, params, deltas):
            values = batch(inp, params, deltas)
            rows.append(len(values))
            return values

        monkeypatch.setattr(planner, "objective_batch", counted)
        inp = _looking_input(d=TABLE1.d_des + 0.05, grid=_grid_with_voxel_at([0.5, 0.1, 0.0]))
        result = plan_step(inp, TABLE1)
        assert 12 in rows and len(_probe_deltas(TABLE1)) in rows
        assert set(rows) <= {1, 12, len(_probe_deltas(TABLE1))}
        assert result.evaluations == sum(rows)

    def test_deterministic(self):
        grid = _grid_with_voxel_at([0.5, 0.1, 0.0])
        inp = _looking_input(grid=grid)
        a = plan_step(inp, TABLE1)
        b = plan_step(inp, TABLE1)
        assert np.array_equal(a.delta, b.delta)


def test_grid_search_decomposition_equals_naive():
    """The decomposed oracle equals a naive full product-grid evaluation."""
    grid = _grid_with_voxel_at([0.55, 0.05, 0.0])
    inp = _looking_input(grid=grid)
    best, _ = grid_search_minimum(inp, TABLE1, n_pos=5, n_rot=5)
    lo, hi = TABLE1.delta_lower, TABLE1.delta_upper
    axes = [np.linspace(lo[i], hi[i], 5) for i in range(6)]
    full = np.stack(np.meshgrid(*axes, indexing="ij"), -1).reshape(-1, 6)
    naive = objective_batch(inp, TABLE1, full).min()
    assert best == pytest.approx(naive, rel=1e-9, abs=1e-9)


def test_plan_step_matches_grid_search_on_random_states(rng):
    """Optimizer lands within the grid-search optimum plus quantization."""
    for seed in range(5):
        r = np.random.default_rng(100 + seed)
        grid = _grid_with_voxel_at(r.uniform([-0.2, -0.4, -0.3], [0.9, 0.4, 0.3]))
        inp = PlannerInput(
            x_ee=Pose6(p=r.uniform(-0.15, 0.15, 3), r=[0.0, np.pi / 2, 0.0]),
            x_target=Pose6(p=[1.0, 0.0, 0.0] + r.uniform(-0.2, 0.2, 3),
                           r=np.zeros(3)),
            grid=grid, reach_map=_uniform_map())
        result = plan_step(inp, TABLE1)
        best_grid, best_delta = grid_search_minimum(inp, TABLE1)
        # Quantization bound: objective variation over the one-cell stencil
        # around the grid optimum.
        stencil = [best_delta]
        steps = (TABLE1.delta_upper - TABLE1.delta_lower) / 10.0
        for i in range(6):
            for sgn in (-1, 1):
                d = best_delta.copy()
                d[i] = np.clip(d[i] + sgn * steps[i], TABLE1.delta_lower[i],
                               TABLE1.delta_upper[i])
                stencil.append(d)
        vals = objective_batch(inp, TABLE1, np.array(stencil))
        qbound = float(vals.max() - vals.min()) + 1e-9
        assert result.objective <= best_grid + qbound
