"""Offline reachability map: per-cell IK success ratios with interpolation.

Each cell stores the fraction of uniformly sampled camera orientations for
which a limit-respecting, self-collision-free IK solution exists at the cell
center. Orientation dependence is marginalized at build time; queries
interpolate position only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ik_reachable is the one-orientation form of _score_cells; it stays importable here.
from .ik import IkParams, ik_reachable, position_reachable, reach_rows  # noqa: F401
from .kinematics import KinematicChain
from .transforms import euler_xyz_to_matrix, matrix_to_euler_xyz, normalize_angle

MAP_MAGIC = "reachability-map 1"

DEFAULT_ORIENTATIONS = 50
DEFAULT_RESTARTS = 8
DEFAULT_RESOLUTION = 0.1

# IK settings used during construction: generous iterations, no grid.
BUILD_IK_PARAMS = IkParams(max_iterations=40)


class MapChainMismatchError(ValueError):
    """Raised when a loaded map was built for a different chain."""


@dataclass
class ReachabilityMap:
    origin: np.ndarray
    resolution: float
    dims: tuple[int, int, int]
    scores: np.ndarray                 # (nx, ny, nz) in [0, 1]
    chain_hash: str = ""
    n_orientations: int = 0
    seed: int = 0
    restarts: int = DEFAULT_RESTARTS

    def __post_init__(self):
        self.origin = np.asarray(self.origin, dtype=float).reshape(3)
        self.dims = tuple(int(d) for d in self.dims)
        self.scores = np.asarray(self.scores, dtype=float).reshape(self.dims)
        if np.any(self.scores < 0.0) or np.any(self.scores > 1.0):
            raise ValueError("reachability scores must lie in [0, 1]")

    def cell_center(self, idx) -> np.ndarray:
        return self.origin + (np.asarray(idx, dtype=float) + 0.5) * self.resolution

    def query(self, p) -> float:
        """Trilinear interpolation of the 8 surrounding cell scores.

        Scores taper linearly to 0 across a half-voxel band outside the
        cell-center lattice (virtual zero padding), so the field is
        continuous; positions clearly outside the map return 0.
        """
        return float(self.query_batch(np.asarray(p, dtype=float)[None, :])[0])

    def query_batch(self, points: np.ndarray) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        g = (pts - self.origin) / self.resolution - 0.5
        i0 = np.floor(g).astype(int)
        f = g - i0
        out = np.zeros(len(pts))
        nx, ny, nz = self.dims
        for dx in (0, 1):
            wx = f[:, 0] if dx else 1.0 - f[:, 0]
            ix = i0[:, 0] + dx
            okx = (ix >= 0) & (ix < nx)
            for dy in (0, 1):
                wy = f[:, 1] if dy else 1.0 - f[:, 1]
                iy = i0[:, 1] + dy
                oky = (iy >= 0) & (iy < ny)
                for dz in (0, 1):
                    wz = f[:, 2] if dz else 1.0 - f[:, 2]
                    iz = i0[:, 2] + dz
                    ok = okx & oky & (iz >= 0) & (iz < nz)
                    if not ok.any():
                        continue
                    s = np.zeros(len(pts))
                    s[ok] = self.scores[ix[ok], iy[ok], iz[ok]]
                    out += wx * wy * wz * s
        return out


def sample_orientations(n: int, seed: int) -> np.ndarray:
    """Deterministic uniform random rotation matrices, (n, 3, 3)."""
    rng = np.random.default_rng(seed)
    quats = rng.standard_normal((n, 4))
    quats /= np.linalg.norm(quats, axis=1, keepdims=True)
    w, x, y, z = quats.T
    mats = np.empty((n, 3, 3))
    mats[:, 0, 0] = 1 - 2 * (y * y + z * z)
    mats[:, 0, 1] = 2 * (x * y - w * z)
    mats[:, 0, 2] = 2 * (x * z + w * y)
    mats[:, 1, 0] = 2 * (x * y + w * z)
    mats[:, 1, 1] = 1 - 2 * (x * x + z * z)
    mats[:, 1, 2] = 2 * (y * z - w * x)
    mats[:, 2, 0] = 2 * (x * z - w * y)
    mats[:, 2, 1] = 2 * (y * z + w * x)
    mats[:, 2, 2] = 1 - 2 * (x * x + y * y)
    return mats


def _score_cells(chain: KinematicChain, centers: np.ndarray, flat_indices: np.ndarray,
                 eulers: np.ndarray, seed: int, restarts: int,
                 ik_params: IkParams) -> np.ndarray:
    """Score cells: the share of orientations that `ik_reachable` reaches.

    A cell that passes the position probe is solved as one `ik.reach_rows`
    call with n_orientations targets of `restarts` starts each; an
    orientation's starts stop at its first hit. Orientation k draws its
    restart starts from the seed (seed, cell, k), as `ik_reachable` does.
    """
    base = chain.base_position()
    reach = chain.max_reach()
    n = len(eulers)
    lo, hi = chain.joint_limits[:, 0], chain.joint_limits[:, 1]
    rots = euler_xyz_to_matrix(normalize_angle(eulers))  # bit-equal to Pose6(r=r).rotation()
    scores = np.zeros(len(centers))
    for row, (center, flat) in enumerate(zip(centers, flat_indices)):
        if np.linalg.norm(center - base) > reach:
            continue
        pos_ss = np.random.SeedSequence(entropy=seed, spawn_key=(int(flat), n))
        if not position_reachable(chain, center, pos_ss, restarts=6):
            continue
        q0 = np.stack([
            np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(int(flat), k)))
            .uniform(lo, hi, (restarts, len(lo))) for k in range(n)])
        hits = reach_rows(chain, q0, rots, np.broadcast_to(center, (n, 3)), ik_params)[0]
        scores[row] = hits.sum() / n
    return scores


def build_map(chain: KinematicChain, box_lo, box_hi,
              resolution: float = DEFAULT_RESOLUTION,
              n_orientations: int = DEFAULT_ORIENTATIONS,
              seed: int = 0,
              restarts: int = DEFAULT_RESTARTS,
              ik_params: IkParams = BUILD_IK_PARAMS,
              workers: int | None = None) -> ReachabilityMap:
    """Construct the map over the box [box_lo, box_hi].

    Scores are the ratio of IK-reachable orientation samples per cell
    center; the orientation set is a seed-deterministic uniform sample
    shared by all cells. Cells are independent and are scored in parallel
    when workers > 1. Same seed, same map, bit for bit.
    """
    if n_orientations < 1:
        raise ValueError("n_orientations must be >= 1")
    box_lo = np.asarray(box_lo, dtype=float)
    box_hi = np.asarray(box_hi, dtype=float)
    if np.any(box_hi <= box_lo):
        raise ValueError("reachability box must be nonempty")
    dims = tuple(int(np.ceil((box_hi[i] - box_lo[i]) / resolution - 1e-9)) for i in range(3))
    rmats = sample_orientations(n_orientations, seed)
    eulers = np.array([matrix_to_euler_xyz(m) for m in rmats])

    idx = np.indices(dims).reshape(3, -1).T
    centers = box_lo + (idx + 0.5) * resolution
    flat = np.arange(len(centers))

    if workers is None:
        workers = 1
    if workers <= 1:
        scores = _score_cells(chain, centers, flat, eulers, seed, restarts, ik_params)
    else:
        from concurrent.futures import ProcessPoolExecutor
        chunks = np.array_split(np.arange(len(centers)), workers * 4)
        scores = np.zeros(len(centers))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                (chunk, pool.submit(_score_cells, chain, centers[chunk], flat[chunk],
                                    eulers, seed, restarts, ik_params))
                for chunk in chunks if len(chunk)
            ]
            for chunk, fut in futures:
                scores[chunk] = fut.result()

    return ReachabilityMap(
        origin=box_lo, resolution=resolution, dims=dims,
        scores=scores.reshape(dims), chain_hash=chain.hash(),
        n_orientations=n_orientations, seed=seed, restarts=restarts,
    )


# -- persistence -------------------------------------------------------------

def save_map(rmap: ReachabilityMap, path, config_hash: str = "") -> None:
    """Binary scores array behind a small text header."""
    header = [
        MAP_MAGIC,
        "origin %r %r %r" % tuple(float(v) for v in rmap.origin),
        "resolution %r" % float(rmap.resolution),
        "dims %d %d %d" % rmap.dims,
        "orientations %d" % rmap.n_orientations,
        "seed %d" % rmap.seed,
        "restarts %d" % rmap.restarts,
        "chain %s" % (rmap.chain_hash or "-"),
        "config %s" % (config_hash or "-"),
        "data",
    ]
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode())
        fh.write(rmap.scores.astype("<f8").tobytes())


def load_map(path, chain: KinematicChain | None = None) -> ReachabilityMap:
    """Load a map; if `chain` is given its hash must match the header."""
    with open(path, "rb") as fh:
        raw = fh.read()
    head, _, payload = raw.partition(b"data\n")
    lines = head.decode().strip().splitlines()
    if not lines or lines[0] != MAP_MAGIC:
        raise ValueError("not a reachability map file")
    fields = {ln.split()[0]: ln.split()[1:] for ln in lines[1:]}
    dims = tuple(int(v) for v in fields["dims"])
    n = dims[0] * dims[1] * dims[2]
    scores = np.frombuffer(payload, dtype="<f8", count=n).reshape(dims)
    rmap = ReachabilityMap(
        origin=np.array([float(v) for v in fields["origin"]]),
        resolution=float(fields["resolution"][0]),
        dims=dims,
        scores=scores.copy(),
        chain_hash=fields["chain"][0] if fields["chain"][0] != "-" else "",
        n_orientations=int(fields["orientations"][0]),
        seed=int(fields["seed"][0]),
        restarts=int(fields["restarts"][0]),
    )
    if chain is not None and rmap.chain_hash and rmap.chain_hash != chain.hash():
        raise MapChainMismatchError(
            f"map was built for chain {rmap.chain_hash}, got {chain.hash()}")
    return rmap


def slice_rows(rmap: ReachabilityMap, z: float):
    """Rows (x, y, z_center, score) of the horizontal layer containing z."""
    k = int(np.floor((z - rmap.origin[2]) / rmap.resolution))
    k = min(max(k, 0), rmap.dims[2] - 1)
    zc = rmap.origin[2] + (k + 0.5) * rmap.resolution
    rows = []
    for i in range(rmap.dims[0]):
        for j in range(rmap.dims[1]):
            c = rmap.cell_center((i, j, k))
            rows.append((c[0], c[1], zc, rmap.scores[i, j, k]))
    return rows
