"""Noise injection, PCA normal re-estimation, and sampled surface distances."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .pointset import HermitePointSet, QuadMesh


@dataclass
class NoiseSpec:
    delta_percent: float
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.delta_percent <= 100.0:
            raise ValueError(f"delta_percent must be in [0, 100], got {self.delta_percent:g}")


@dataclass
class DistanceReport:
    forward_max: float
    forward_avg: float
    backward_max: float
    backward_avg: float
    sample_count: int


def inject_noise(ps: HermitePointSet, spec: NoiseSpec) -> HermitePointSet:
    """Displace ceil(delta% * n) points along their own normals.

    Magnitudes are |N(0, (cap/3)^2)| clamped to [0, cap] with
    cap = delta * bbox_diagonal / 1000, so three sigma meets the cap.
    """
    n = len(ps)
    n_noisy = int(np.ceil(spec.delta_percent / 100.0 * n))
    points = ps.points.copy()
    if n_noisy > 0:
        rng = np.random.default_rng(spec.seed)
        chosen = rng.choice(n, size=n_noisy, replace=False)
        cap = spec.delta_percent * ps.bbox_diagonal / 1000.0
        mags = np.clip(np.abs(rng.normal(0.0, cap / 3.0, size=n_noisy)), 0.0, cap)
        points[chosen] += mags[:, None] * ps.normals[chosen]
    return HermitePointSet(points, ps.normals.copy())


def estimate_normals_pca(
    points, reference_normals, p_neighbors=6
) -> HermitePointSet:
    """Normals from the smallest-eigenvalue direction of local covariance.

    Signs are flipped to agree with the orientation reference.  Degenerate
    neighborhoods (coincident points) keep the reference normal.
    """
    points = np.asarray(points, dtype=np.float64).reshape(-1, 3)
    reference_normals = np.asarray(reference_normals, dtype=np.float64).reshape(-1, 3)
    n = len(points)
    if n < p_neighbors + 1:
        raise ValueError("not enough points for the requested neighborhood size")
    tree = cKDTree(points)
    _, nbr = tree.query(points, k=p_neighbors + 1)
    neigh = points[nbr]  # includes the point itself
    centered = neigh - neigh.mean(axis=1, keepdims=True)
    cov = np.einsum("nki,nkj->nij", centered, centered) / (p_neighbors + 1)
    _, vecs = np.linalg.eigh(cov)
    normals = vecs[:, :, 0]  # eigenvector of the smallest eigenvalue
    degenerate = np.linalg.norm(centered, axis=(1, 2)) < 1e-15
    normals[degenerate] = reference_normals[degenerate]
    flip = np.einsum("ij,ij->i", normals, reference_normals) < 0.0
    normals[flip] *= -1.0
    lens = np.linalg.norm(normals, axis=1)
    normals /= np.where(lens > 0, lens, 1.0)[:, None]
    return HermitePointSet(points.copy(), normals)


def sample_mesh_surface(mesh: QuadMesh, n_samples, seed=0):
    """Uniform area-weighted samples from a (triangulated) mesh."""
    tri = mesh.triangulated()
    if tri.n_faces == 0:
        raise ValueError("empty mesh")
    v = tri.vertices
    f = tri.faces
    a, b, c = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
    areas = 0.5 * np.linalg.norm(np.cross(b - a, c - a), axis=1)
    total = areas.sum()
    if total <= 0:
        raise ValueError("mesh has zero area")
    rng = np.random.default_rng(seed)
    pick = rng.choice(len(f), size=n_samples, p=areas / total)
    u = rng.random(n_samples)
    w = rng.random(n_samples)
    over = u + w > 1.0
    u[over] = 1.0 - u[over]
    w[over] = 1.0 - w[over]
    return a[pick] + u[:, None] * (b[pick] - a[pick]) + w[:, None] * (c[pick] - a[pick])


def _point_triangle_distance(p, a, b, c):
    """Exact point-to-triangle distances, vectorized over matched rows."""
    ab = b - a
    ac = c - a
    ap = p - a
    d1 = np.einsum("ij,ij->i", ab, ap)
    d2 = np.einsum("ij,ij->i", ac, ap)
    bp = p - b
    d3 = np.einsum("ij,ij->i", ab, bp)
    d4 = np.einsum("ij,ij->i", ac, bp)
    cp = p - c
    d5 = np.einsum("ij,ij->i", ab, cp)
    d6 = np.einsum("ij,ij->i", ac, cp)

    closest = np.empty_like(p)
    done = np.zeros(len(p), dtype=bool)

    def settle(mask, pts):
        todo = mask & ~done
        closest[todo] = pts[todo] if pts.shape == p.shape else pts
        done[todo] = True

    settle((d1 <= 0) & (d2 <= 0), a)
    settle((d3 >= 0) & (d4 <= d3), b)
    settle((d6 >= 0) & (d5 <= d6), c)

    vc = d1 * d4 - d3 * d2
    mask = (vc <= 0) & (d1 >= 0) & (d3 <= 0)
    t = d1 / np.where(d1 - d3 == 0, 1.0, d1 - d3)
    settle(mask, a + t[:, None] * ab)

    vb = d5 * d2 - d1 * d6
    mask = (vb <= 0) & (d2 >= 0) & (d6 <= 0)
    t = d2 / np.where(d2 - d6 == 0, 1.0, d2 - d6)
    settle(mask, a + t[:, None] * ac)

    va = d3 * d6 - d5 * d4
    mask = (va <= 0) & (d4 - d3 >= 0) & (d5 - d6 >= 0)
    denom = (d4 - d3) + (d5 - d6)
    t = (d4 - d3) / np.where(denom == 0, 1.0, denom)
    settle(mask, b + t[:, None] * (c - b))

    denom = va + vb + vc
    denom = np.where(denom == 0, 1.0, denom)
    vbn = (vb / denom)[:, None]
    vcn = (vc / denom)[:, None]
    settle(np.ones(len(p), dtype=bool), a + vbn * ab + vcn * ac)
    return np.linalg.norm(p - closest, axis=1)


_SAMPLE_CHUNK = 20000  # samples per kd-tree query and exact-distance pass


def points_to_mesh_distance(samples, mesh: QuadMesh):
    """Min distance from each sample to the mesh surface (exact, accelerated).

    A vertex kd-tree gives an upper bound per sample; only triangles whose
    centroid can beat that bound are tested exactly.
    """
    tri = mesh.triangulated()
    if tri.n_faces == 0:
        raise ValueError("empty mesh")
    samples = np.asarray(samples, dtype=np.float64).reshape(-1, 3)
    v, f = tri.vertices, tri.faces
    a, b, c = v[f[:, 0]], v[f[:, 1]], v[f[:, 2]]
    centroids = (a + b + c) / 3.0
    # max distance from a centroid to its triangle's farthest point
    spread = np.maximum(
        np.linalg.norm(a - centroids, axis=1),
        np.maximum(np.linalg.norm(b - centroids, axis=1), np.linalg.norm(c - centroids, axis=1)),
    )
    max_spread = float(spread.max())
    vtree = cKDTree(v)
    ctree = cKDTree(centroids)
    out = np.empty(len(samples))
    for s0 in range(0, len(samples), _SAMPLE_CHUNK):
        blk = samples[s0 : s0 + _SAMPLE_CHUNK]
        upper, _ = vtree.query(blk)
        lists = ctree.query_ball_point(blk, upper + max_spread + 1e-12)
        lens = np.fromiter((len(l) for l in lists), dtype=np.int64, count=len(lists))
        tid = np.concatenate([np.asarray(l, dtype=np.int64) for l in lists if l]) if lens.sum() else np.empty(0, np.int64)
        sid = np.repeat(np.arange(len(blk)), lens)
        best = upper.copy()
        if len(tid):
            d = _point_triangle_distance(blk[sid], a[tid], b[tid], c[tid])
            np.minimum.at(best, sid, d)
        out[s0 : s0 + _SAMPLE_CHUNK] = best
    return out


def surface_distance(source: QuadMesh, target_mesh: QuadMesh, n_samples=100_000, seed=0):
    """Max and mean distance to the target from samples spread uniformly by
    area over the source mesh.  Returns (max, avg, count)."""
    samples = sample_mesh_surface(source, n_samples, seed)
    d = points_to_mesh_distance(samples, target_mesh)
    return float(d.max()), float(d.mean()), len(samples)


def two_sided_distance(mesh_a: QuadMesh, mesh_b: QuadMesh, n_samples=100_000, seed=0) -> DistanceReport:
    """Forward (a -> b) and backward (b -> a) sampled distances."""
    fmax, favg, cnt = surface_distance(mesh_a, mesh_b, n_samples, seed)
    bmax, bavg, _ = surface_distance(mesh_b, mesh_a, n_samples, seed + 1)
    return DistanceReport(fmax, favg, bmax, bavg, cnt)
