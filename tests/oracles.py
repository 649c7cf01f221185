"""Scalar reference implementations that the vectorised code is checked against.

``edge_root`` bisects one edge on any object with ``values`` and ``evaluate``
(an ``ImplicitField`` or an analytic field), ``place_vertex`` solves one
voxel's quadric, and ``emit_quads`` builds the quads edge by edge from a dict
of active voxels.  ``search_active_voxels`` is the breadth-first active-voxel
search over a Python set of tested keys, one corner fetch per frontier.
``kernel_evaluate`` evaluates one kernel at one point,
``radius_query`` lists the indexed points strictly inside one ball, and
``octree_leaves`` subdivides a point set recursively into octree leaves.
"""

from dataclasses import dataclass

import numpy as np

from hrbfsurf import kernel
from hrbfsurf.dualcontour import (
    QEF_REG,
    SEED_STEPS,
    _CORNER_OFFSETS,
    _EDGES,
    _RING,
    _UV,
    VoxelGrid,
    _sign_change,
)
from hrbfsurf.model import LatticeTable
from hrbfsurf.octree import MAX_DEPTH, PointOctree
from hrbfsurf.pointset import QuadMesh

BISECTION_STEPS = 32  # the reference bisection's own cap, independent of the library's


@dataclass
class EdgeIntersection:
    position: np.ndarray
    normal: np.ndarray


def edge_root(field, a, b, tol) -> EdgeIntersection:
    """Bisection root on segment [a, b]; endpoints must have opposite signs."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    va = field.values(a[None])[0]
    vb = field.values(b[None])[0]
    if not (np.isfinite(va) and np.isfinite(vb)) or (va < 0) == (vb < 0):
        raise ValueError("endpoints must be defined with opposite signs")
    if va >= 0:
        a, b, va, vb = b, a, vb, va
    mid, vm = a, va
    for _ in range(BISECTION_STEPS):
        mid = 0.5 * (a + b)
        vm = field.values(mid[None])[0]
        if np.isfinite(vm) and abs(vm) <= tol:
            break
        if np.isfinite(vm) and vm < 0:
            a = mid
        else:
            b = mid
    _, grads, _ = field.evaluate(mid[None], want_gradient=True)
    g = grads[0]
    norm = np.linalg.norm(g)
    if not np.isfinite(norm) or norm < 1e-12:
        edge_dir = b - a
        edge_dir = edge_dir / max(np.linalg.norm(edge_dir), 1e-300)
        g, norm = edge_dir, 1.0  # f increases from the negative toward b
    return EdgeIntersection(position=mid, normal=g / norm)


def place_vertex(positions, normals, box=None, reg=QEF_REG):
    """Minimize sum((v - q_j) . n_j)^2, pulled toward the intersection centroid.

    The Tikhonov term reg * count keeps rank-deficient configurations (planes,
    single intersections) well posed; the result is clamped to ``box``.
    """
    q = np.asarray(positions, dtype=np.float64).reshape(-1, 3)
    n = np.asarray(normals, dtype=np.float64).reshape(-1, 3)
    if len(q) == 0:
        raise ValueError("need at least one intersection")
    lam = reg * len(q)
    m = n.T @ n + lam * np.eye(3)
    centroid = q.mean(axis=0)
    rhs = n.T @ np.einsum("ij,ij->i", n, q) + lam * centroid
    v = np.linalg.solve(m, rhs)
    if box is not None:
        lo, hi = box
        v = np.clip(v, lo, hi)
    return v


def emit_quads(grid: VoxelGrid, vertices, vertex_normals=None) -> QuadMesh:
    """Quads from precomputed voxel vertices (one per active voxel)."""
    vertices = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
    if len(vertices) != grid.n_active:
        raise ValueError("one vertex per active voxel required")
    vox_index = {tuple(c): i for i, c in enumerate(grid.coords.tolist())}
    corner_coords = grid.coords[:, None, :] + _CORNER_OFFSETS[None, :, :]
    seen = set()
    faces = []
    for ca, cb, axis in _EDGES:
        va = grid.corner_values[:, ca]
        vb = grid.corner_values[:, cb]
        hit = np.flatnonzero((va < 0) != (vb < 0))
        for row in hit:
            lo = corner_coords[row, ca]
            key = (tuple(lo.tolist()), int(axis))
            if key in seen:
                continue
            seen.add(key)
            u, v = _UV[axis]
            quad = []
            for du, dv in _RING:
                c = lo.copy()
                c[u] += du
                c[v] += dv
                quad.append(vox_index.get(tuple(c.tolist())))
            if any(qv is None for qv in quad):
                continue
            if not (vb[row] > va[row]):
                quad = quad[::-1]
            faces.append(quad)
    faces = np.asarray(faces, dtype=np.int64).reshape(-1, 4)
    return QuadMesh(vertices, faces, vertex_normals)


def search_active_voxels(model, centers, normals, width) -> VoxelGrid:
    """Active voxels in the order of a breadth-first search from the seeds.

    Seeds are the voxels holding each center and its probes up to
    SEED_STEPS widths along the normal; each round tests the untested keys
    of the frontier in ascending order, and the next frontier is the sorted
    set of face neighbours of the voxels found active.
    """
    origin = centers.min(axis=0) - 2.0 * width
    table = LatticeTable(model, origin, width)
    seeds = [centers]
    for t in range(1, SEED_STEPS + 1):
        seeds += [centers + t * width * normals, centers - t * width * normals]
    frontier = np.unique(table.keys(np.floor((np.concatenate(seeds) - origin) / width).astype(np.int64)))
    tested = {-1}
    found_coords, found_vals = [np.empty((0, 3), np.int64)], [np.empty((0, 8))]
    steps = np.concatenate([np.eye(3, dtype=np.int64), -np.eye(3, dtype=np.int64)])
    while len(frontier):
        fresh = np.asarray([k for k in frontier.tolist() if k not in tested], dtype=np.int64)
        tested.update(fresh.tolist())
        coords = table.coords(fresh)
        vals = table.fetch(coords[:, None, :] + _CORNER_OFFSETS[None, :, :])
        ok = np.all(np.isfinite(vals), axis=1) & _sign_change(np.nan_to_num(vals, nan=np.inf))
        found_coords.append(coords[ok])
        found_vals.append(vals[ok])
        frontier = np.unique(table.keys(coords[ok][:, None, :] + steps[None, :, :]))
    return VoxelGrid(table, np.concatenate(found_coords), np.concatenate(found_vals))


@dataclass
class KernelEval:
    value: float
    gradient: np.ndarray
    hessian: np.ndarray
    support: float
    inside_support: bool


def kernel_evaluate(center, rho, x, want_gradient=True, want_hessian=True) -> KernelEval:
    """Scalar evaluation of phi and its requested derivatives at x."""
    if rho <= 0:
        raise ValueError("rho must be positive")
    center = np.asarray(center, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    d = x - center
    r2 = float(d @ d)
    if r2 >= rho * rho:
        return KernelEval(0.0, np.zeros(3), np.zeros((3, 3)), rho, False)
    val = float(kernel.value(d[None], rho)[0])
    grad = kernel.gradient(d[None], rho)[0] if want_gradient else np.zeros(3)
    hess = kernel.hessian(d[None], rho)[0] if want_hessian else np.zeros((3, 3))
    return KernelEval(val, grad, hess, rho, True)


def radius_query(idx: PointOctree, center, radius):
    """Indices with ||p - center|| strictly below radius, ascending."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    center = np.asarray(center, dtype=np.float64)
    cand = idx.tree.query_ball_point(center, radius)
    cand = np.asarray(sorted(cand), dtype=np.int64)
    if len(cand) == 0:
        return cand
    d = np.linalg.norm(idx.points[cand] - center, axis=1)
    return cand[d < radius]


def octree_leaves(points, leaf_capacity):
    """(point indices, diagonal) of each leaf, in the order ``build_octree`` lists them.

    A cube splits at its midpoint while it holds more than leaf_capacity
    points and lies above MAX_DEPTH; empty octants make no leaf.  Children
    are visited from octant 7 down to 0, octant bits being (x, y, z) >= mid.
    """
    points = np.asarray(points, dtype=np.float64)
    lo = points.min(axis=0)
    size = float((points.max(axis=0) - lo).max()) or 1.0

    def split(idx, node_lo, node_size, depth):
        if len(idx) <= leaf_capacity or depth >= MAX_DEPTH:
            return [(idx, node_size * np.sqrt(3.0))]
        half = node_size / 2.0
        leaves = []
        for octant in range(7, -1, -1):
            bits = np.array([(octant >> 2) & 1, (octant >> 1) & 1, octant & 1])
            upper = points[idx] >= node_lo + half
            sub = idx[np.all(upper == bits.astype(bool), axis=1)]
            if len(sub):
                leaves += split(sub, node_lo + bits * half, half, depth + 1)
        return leaves

    return split(np.arange(len(points)), lo, size, 0)
