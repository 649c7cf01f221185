"""Octree over input points with leaf statistics and neighbor queries.

The octree hierarchy supplies per-leaf diagonal lengths used for support-size
tuning.  Neighbor queries are served by a cKDTree built over the same
points; counts follow the strict open-ball convention (distance < radius)
matching the kernel's open support.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

DEFAULT_LEAF_CAPACITY = 16
MAX_DEPTH = 21


@dataclass
class PointOctree:
    points: np.ndarray  # (n, 3)
    leaf_capacity: int
    leaf_diagonals: np.ndarray  # (n_leaves,)
    tree: cKDTree = field(repr=False, default=None)

    @property
    def mean_leaf_diagonal(self):
        return float(self.leaf_diagonals.mean())


def build_octree(ps, leaf_capacity=DEFAULT_LEAF_CAPACITY) -> PointOctree:
    """Split points into leaves of at most leaf_capacity (depth-capped).

    ``ps`` is a HermitePointSet or an (n, 3) array.
    """
    points = np.asarray(getattr(ps, "points", ps), dtype=np.float64)
    if len(points) == 0:
        raise ValueError("empty point set")
    if leaf_capacity < 1:
        raise ValueError("leaf_capacity must be >= 1")
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    size = float((hi - lo).max())
    if size == 0.0:
        size = 1.0  # all points coincident; single degenerate leaf cube
    leaf_diagonals = []

    # Iterative subdivision; child order is fixed so the result is
    # deterministic for a fixed input order.
    stack = [(np.arange(len(points)), lo.copy(), size, 0)]
    while stack:
        idx, node_lo, node_size, depth = stack.pop()
        if len(idx) <= leaf_capacity or depth >= MAX_DEPTH:
            leaf_diagonals.append(node_size * np.sqrt(3.0))
            continue
        half = node_size / 2.0
        center = node_lo + half
        pts = points[idx]
        octant = (
            (pts[:, 0] >= center[0]).astype(np.int8) * 4
            + (pts[:, 1] >= center[1]).astype(np.int8) * 2
            + (pts[:, 2] >= center[2]).astype(np.int8)
        )
        for o in range(8):
            sub = idx[octant == o]
            if len(sub) == 0:
                continue
            off = np.array([(o >> 2) & 1, (o >> 1) & 1, o & 1], dtype=np.float64)
            stack.append((sub, node_lo + off * half, half, depth + 1))

    return PointOctree(
        points=points,
        leaf_capacity=leaf_capacity,
        leaf_diagonals=np.array(leaf_diagonals),
        tree=cKDTree(points),
    )


def strict_counts(idx: PointOctree, centers, radii, workers=1):
    """Count points with distance strictly below radius per center (vectorized)."""
    centers = np.asarray(centers, dtype=np.float64)
    radii = np.asarray(radii, dtype=np.float64)
    # cKDTree uses <=; shrinking the radius by one ulp makes exact-boundary
    # hits fall outside, which matches the open-ball convention.
    r = np.nextafter(radii, 0.0)
    return idx.tree.query_ball_point(centers, r, return_length=True, workers=workers)
