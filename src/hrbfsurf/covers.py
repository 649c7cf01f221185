"""Adaptive center selection via minimal spherical covers.

Greedy, randomized: repeatedly pick an under-covered point, grow the largest
sphere whose quadric error stays below a threshold, and raise the degree of
coverage of the points it covers.  Terminates because each iteration pins its
chosen center's coverage at the target.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernel
from .model import RadiusBands, _runs, _segment_sums, _support_pairs
from .octree import PointOctree

DELTA_NEIGHBORS = 15
BISECTION_STEPS = 20


class EmptySphereError(ValueError):
    pass


@dataclass
class CoverParams:
    g_min: float = 1.5
    q_err: float = 5e-4
    varpi: int = 15


@dataclass
class SphericalCover:
    centers: np.ndarray  # (l, 3)
    normals: np.ndarray  # (l, 3)
    radii: np.ndarray  # (l,)
    center_indices: np.ndarray  # (l,) indices into the input set
    doc: np.ndarray  # (n,) tracked degree of coverage per input point
    params: CoverParams
    l_bar: float  # bbox diagonal of the input points
    bands: RadiusBands = field(repr=False, default=None)  # the spheres, for ``doc_at``

    @property
    def n_centers(self):
        return len(self.centers)

    def to_csv(self, path):
        """Debug dump of (cx, cy, cz, r) rows for cover visualization."""
        rows = np.column_stack([self.centers, self.radii])
        header = "cx,cy,cz,r"
        np.savetxt(path, rows, delimiter=",", header=header, comments="")


def density_weights(ps, idx: PointOctree, k=DELTA_NEIGHBORS):
    """Mean squared distance from each point to its k nearest neighbors."""
    points = np.asarray(ps.points, dtype=np.float64)
    n = len(points)
    kk = min(k, n - 1)
    if kk < 1:
        return np.ones(n)
    d, _ = idx.tree.query(points, k=kk + 1)
    return np.mean(d[:, 1:] ** 2, axis=1)


def _ball(idx: PointOctree, c, r):
    """Indices of the points with ||p - c|| < r, ascending."""
    j = np.asarray(sorted(idx.tree.query_ball_point(c, np.nextafter(r, 0.0))), dtype=np.int64)
    return j[np.linalg.norm(idx.points[j] - c, axis=1) < r]


def quadric_error(ps, idx: PointOctree, c, r, delta):
    """Density-weighted squared normal deviation of points inside the sphere."""
    if r <= 0:
        raise ValueError("radius must be positive")
    points = np.asarray(ps.points, dtype=np.float64)
    normals = np.asarray(ps.normals, dtype=np.float64)
    c = np.asarray(c, dtype=np.float64)
    j = _ball(idx, c, r)
    if len(j) == 0:
        raise EmptySphereError("no point inside the sphere")
    w = delta[j] * kernel.value(points[j] - c, r)
    dev = np.einsum("ij,ij->i", normals[j], c - points[j])
    denom = w.sum()
    if denom <= 0.0:
        return 0.0
    return float(np.sum(w * dev**2) / denom)


def _max_radius(ps, idx, c, delta, r_lo, r_hi, threshold):
    """Largest tested radius whose quadric error stays under the threshold.

    q is not monotone in r, so bisection keeps the best admissible radius seen
    rather than assuming a single crossing.
    """
    if quadric_error(ps, idx, c, r_hi, delta) <= threshold:
        return r_hi
    best = r_lo
    lo, hi = r_lo, r_hi
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (lo + hi)
        if quadric_error(ps, idx, c, mid, delta) <= threshold:
            best = mid
            lo = mid
        else:
            hi = mid
    return best


def select_centers(ps, idx: PointOctree, params: CoverParams = None, seed=0) -> SphericalCover:
    params = params or CoverParams()
    rng = np.random.default_rng(seed)
    points = np.asarray(ps.points, dtype=np.float64)
    normals = np.asarray(ps.normals, dtype=np.float64)
    n = len(points)
    if n == 0:
        raise ValueError("empty point set")
    lo, hi = points.min(axis=0), points.max(axis=0)
    l_bar = float(np.linalg.norm(hi - lo))
    if l_bar == 0.0:
        l_bar = 1.0
    threshold = params.q_err * l_bar
    delta = density_weights(ps, idx)
    # smallest radius tried at each point: the distance to its nearest other point
    r_low = idx.tree.query(points, k=2)[0][:, 1] if n > 1 else np.full(n, l_bar / 4.0)

    doc = np.zeros(n)
    sel_idx, radii = [], []
    while True:
        under = np.flatnonzero(doc < params.g_min)
        if len(under) == 0:
            break
        pool = rng.choice(under, size=min(params.varpi, len(under)), replace=False)
        # smallest tracked coverage wins; ties broken by index for determinism
        order = np.lexsort((pool, doc[pool]))
        k = int(pool[order[0]])
        c = points[k]

        r_lo = max(float(r_low[k]), 1e-12)  # duplicated points lie at distance 0
        r_hi = max(l_bar / 4.0, r_lo)
        r = _max_radius(ps, idx, c, delta, r_lo, r_hi, threshold)

        inside = _ball(idx, c, r)
        below = inside[doc[inside] < params.g_min]
        doc[below] += kernel.value(points[below] - c, r)
        doc[k] = params.g_min  # never a candidate again; guarantees termination
        sel_idx.append(k)
        radii.append(r)

    sel_idx = np.asarray(sel_idx, dtype=np.int64)
    radii = np.asarray(radii)
    centers = points[sel_idx]
    return SphericalCover(
        centers=centers,
        normals=normals[sel_idx],
        radii=radii,
        center_indices=sel_idx,
        doc=doc,
        params=params,
        l_bar=l_bar,
        bands=RadiusBands(centers, radii),
    )


def doc_at(cover: SphericalCover, x):
    """True degree of coverage g(x) = sum_k phi_{r_k}(||x - c_k||)."""
    x = np.asarray(x, dtype=np.float64)
    single = x.ndim == 1
    x = x.reshape(-1, 3)
    qi, k = _support_pairs(cover.bands, x)
    phi = kernel.value(x[qi] - cover.centers[k], cover.radii[k])
    out = _segment_sums(_runs(qi, len(x)), phi, np.ones(len(qi), dtype=bool), len(x))
    out = np.where(np.isnan(out), 0.0, out)  # nan: outside every sphere
    return float(out[0]) if single else out


def selected_pointset(cover: SphericalCover):
    from .pointset import HermitePointSet

    return HermitePointSet(cover.centers.copy(), cover.normals.copy())
