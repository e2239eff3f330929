"""Batched forward kinematics and damped-least-squares (DLS) core.

Everything here works on rows: a leading batch axis of joint vectors,
`(B, 7)`. `_joint_frames` is the one forward-kinematics computation of the
package. The DLS iterations call it directly; `fk_rows` wraps it for the
scalar helpers of `kinematics`. `_link_frames` turns its output into the
rotated link frames, for `fk_rows` and for the rows a DLS iteration hands
to its `accept` test.

`dls_rows` runs DLS (Buss 2004) on B independent rows at once. Each
iteration evaluates the Rodrigues joint rotations, the frame chain, the
rotation-log pose error, the Jacobian and a `(B, 6, 6)` linear solve once
for all active rows. A row leaves the active set when it meets the pose
tolerance or spends its own iteration budget, so its result does not depend
on the other rows of the batch, bit for bit.

Rows can be alternatives. With `first` they are ordered: once a row
converges, the rows after it stop. With `groups` they are unordered, one
group per target: the first row of a group to converge ends the whole group.
An `accept(q, links)` predicate tests each converged row inside the
iteration loop, on the link frames that iteration already computed; a
rejected row stops unconverged. A `restart` callback can send a row that
stops unconverged on from a new start in the same loop, with fresh damping
and its own iteration count, so the loop's length is bounded by a row's
total budget rather than by its number of restarts.

`ik.ik_solve` runs its restart starts as ordered rows, and the
reachability-map builder solves a whole cell in one loop (`ik.reach_rows`):
each orientation's restarts are a group, and rejected or spent rows restart
in place. `dls_burst` is the scalar `(q, converged, iterations)` form.
"""

from __future__ import annotations

import numpy as np

from .transforms import rotation_logs

NUM_JOINTS = 7

# The core is plain numpy; nothing is compiled.
HAVE_NUMBA = False


def _joint_frames(chain, q: np.ndarray):
    """Joint-major forward kinematics of joint rows q (B, 7).

    Returns (frames (8, B, 4, 4), camera (B, 4, 4), s, c): frames[i] is
    joint i's frame before its own rotation, frames[7] the flange frame;
    s and c (7, B, 1) are sin(q) and 1 - cos(q). frames[i + 1] is
    frames[i] @ J_i @ to_next[i], where J_i = I + s_i K_i + c_i K_i^2 is the
    Rodrigues rotation of joint i.
    """
    n = len(q)
    qt = q.T[:, :, None]
    s = np.sin(qt)
    c = 1.0 - np.cos(qt)
    step = s * chain._k_next
    step += chain._to_next_flat
    step += c * chain._k2_next
    step = step.reshape(NUM_JOINTS, n, 4, 4)
    frames = np.empty((NUM_JOINTS + 1, n, 4, 4))
    frames[0] = chain.base_pose
    for i in range(NUM_JOINTS):
        np.matmul(frames[i], step[i], out=frames[i + 1])
    return frames, frames[NUM_JOINTS] @ chain.camera_offset, s, c


def _world_axes(chain, frames: np.ndarray) -> np.ndarray:
    """Joint axes in the world (7, B, 3) from the joint-major frames."""
    rot = frames[:NUM_JOINTS, :, :3, :3]
    ax = chain._axes_bcast
    return rot[..., 0] * ax[0] + rot[..., 1] * ax[1] + rot[..., 2] * ax[2]


def fk_rows(chain, q: np.ndarray):
    """Forward kinematics of joint rows q (B, 7).

    Returns origins (B, 7, 3), world joint axes (B, 7, 3), camera frames
    (B, 4, 4) and rotated link frames (B, 7, 4, 4).
    """
    frames, camera, s, c = _joint_frames(chain, np.asarray(q, dtype=float))
    origins = frames[:NUM_JOINTS, :, :3, 3].transpose(1, 0, 2)
    axes_w = _world_axes(chain, frames).transpose(1, 0, 2)
    return origins, axes_w, camera, _link_frames(chain, frames, s, c)


def _link_frames(chain, frames: np.ndarray, s: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Rotated link frames (B, 7, 4, 4) from the joint-major frames and the
    s, c of `_joint_frames`: link i's frame is frames[i] @ J_i."""
    rots = (chain._eye4_flat + s * chain._k4 + c * chain._k2_4).reshape(NUM_JOINTS, -1, 4, 4)
    return (frames[:NUM_JOINTS] @ rots).transpose(1, 0, 2, 3)


def dls_rows(chain, q0, target_rot, target_p, budgets, lo, hi, *, pos_tol: float,
             rot_tol: float, damping: float, clamp_pos: float, clamp_rot: float,
             use_rot: bool = True, first: bool = False, groups=None, accept=None,
             restart=None):
    """Iterate DLS on every row toward its target inside the joint box [lo, hi].

    q0 (B, 7) are the starts, target_rot (B, 3, 3) and target_p (B, 3) the
    camera targets, budgets (B,) the iteration budgets. Returns
    (q (B, 7), converged (B,), used (B,)): a converged row holds the
    configuration that met the tolerances after `used` iterations; any other
    row holds the configuration after its last step. Levenberg-style damping
    grows while a row's residual worsens and shrinks on progress. With
    use_rot=False the rotational error rows are zeroed (position-only
    probes). With first=True the rows are ordered alternatives and only the
    first one to converge matters: rows after it stop early and report
    `converged` False.

    `accept(q (k, 7), links (k, 7, 4, 4)) -> (k,) bool` tests the rows that
    meet the tolerances, given their rotated link frames (those `fk_rows`
    returns, taken from the iteration's own forward kinematics); a rejected
    row stops with `converged` False after `used` iterations.
    `groups` (B,) makes each group of rows a set of alternatives: the first
    accepted row of a group (the lowest, on a tie) converges and every other
    row of its group stops at once with `converged` False.

    `restart(rows (k,), used (k,)) -> (again (k,) bool, starts (m, 7),
    budgets (m,))` hears of the rows that stop unconverged, rejected or out
    of budget, but not of rows that another row's success stops. A row sent
    `again` runs on in the same loop from its new start, with fresh damping
    and its own iteration count, so each of its runs is the one a new call
    from that start and budget would make, bit for bit. Its results are
    those of its last run.
    """
    q_out = np.array(q0, dtype=float)
    n = len(q_out)
    converged = np.zeros(n, dtype=bool)
    used = np.zeros(n, dtype=int)
    budgets = np.broadcast_to(np.asarray(budgets, dtype=int), (n,))
    rows = np.flatnonzero(budgets > 0)
    q = q_out[rows]
    t_rot = np.broadcast_to(target_rot, (n, 3, 3))[rows]
    t_p = np.broadcast_to(target_p, (n, 3))[rows]
    left = budgets[rows]
    grp = None if groups is None else np.asarray(groups)[rows]
    its = np.zeros(len(rows), dtype=int)
    mu = np.ones(len(rows))
    prev_err = np.full(len(rows), 1e30)
    while len(rows):
        its += 1
        frames, camera, s, c = _joint_frames(chain, q)
        cam_p = camera[:, :3, 3]
        e = np.empty((len(rows), 6))
        np.subtract(t_p, cam_p, out=e[:, :3])
        if use_rot:
            e[:, 3:] = rotation_logs(t_rot @ camera[:, :3, :3].transpose(0, 2, 1))
        else:
            e[:, 3:] = 0.0
        sq = e * e
        pe = np.sqrt(sq[:, :3].sum(axis=1))
        re = np.sqrt(sq[:, 3:].sum(axis=1))
        conv = pe <= pos_tol
        if use_rot:
            conv &= re <= rot_tol

        err = pe + re
        mu = np.where(err > prev_err + 1e-12, np.minimum(mu * 3.0, 1e4),
                      np.maximum(mu * 0.7, 1e-3))
        prev_err = err
        # Clamp each error part to its norm cap (a factor of exactly 1 below it).
        e[:, :3] *= (clamp_pos / np.maximum(pe, clamp_pos))[:, None]
        e[:, 3:] *= (clamp_rot / np.maximum(re, clamp_rot))[:, None]

        # Jacobian columns: axis x (camera - joint origin) over the axis.
        axes_w = _world_axes(chain, frames)
        r = cam_p - frames[:NUM_JOINTS, :, :3, 3]
        jac = np.empty((len(rows), 6, NUM_JOINTS))
        jac[:, 0] = (axes_w[..., 1] * r[..., 2] - axes_w[..., 2] * r[..., 1]).T
        jac[:, 1] = (axes_w[..., 2] * r[..., 0] - axes_w[..., 0] * r[..., 2]).T
        jac[:, 2] = (axes_w[..., 0] * r[..., 1] - axes_w[..., 1] * r[..., 0]).T
        jac[:, 3:] = axes_w.transpose(1, 2, 0)
        jac_t = jac.transpose(0, 2, 1).copy()
        jjt = jac @ jac_t
        jjt.reshape(len(rows), 36)[:, ::7] += (damping + mu * (e * e).sum(axis=1))[:, None]
        dq = (jac_t @ np.linalg.solve(jjt, e[:, :, None]))[:, :, 0]
        q_next = np.clip(q + dq, lo, hi)

        done = conv | (its >= left)
        if accept is not None and conv.any():
            conv[conv] = accept(q[conv], _link_frames(chain, frames[:, conv], s[:, conv],
                                                      c[:, conv]))
        stopped = None                      # rows another row's success stops
        if first and conv.any():
            stopped = rows > rows[conv][0]
            conv &= ~stopped
            done |= stopped
        if grp is not None and conv.any():
            won = np.flatnonzero(conv)
            won = won[np.unique(grp[won], return_index=True)[1]]
            stopped = np.isin(grp, grp[won])
            done |= stopped
            conv[:] = False
            conv[won] = True
        if restart is not None:
            ended = done & ~conv
            if stopped is not None:
                ended &= ~stopped
            if ended.any():
                idx = np.flatnonzero(ended)
                again, starts, budgets_again = restart(rows[idx], its[idx])
                idx = idx[again]
                q_next[idx], left[idx] = starts, budgets_again
                its[idx] = 0
                mu[idx] = 1.0
                prev_err[idx] = 1e30
                done[idx] = False
        if done.any():
            fin = rows[done]
            q_out[fin] = np.where(conv[done, None], q[done], q_next[done])
            converged[fin] = conv[done]
            used[fin] = its[done]
            keep = ~done
            rows, q_next, its = rows[keep], q_next[keep], its[keep]
            mu, prev_err = mu[keep], prev_err[keep]
            t_rot, t_p, left = t_rot[keep], t_p[keep], left[keep]
            if grp is not None:
                grp = grp[keep]
        q = q_next
    return q_out, converged, used


def dls_burst(chain, q0, target_rot, target_p, max_iters: int, lo, hi, **settings):
    """One row of `dls_rows`, as a (q (7,), converged, iterations) triple."""
    q, converged, used = dls_rows(chain, np.asarray(q0, dtype=float)[None],
                                  np.asarray(target_rot)[None], np.asarray(target_p)[None],
                                  [max_iters], lo, hi, **settings)
    return q[0], bool(converged[0]), int(used[0])
