"""Scalar reference implementations that the vectorised code is checked against.

``ImplicitField`` evaluates the quasi-interpolant and its gradient at any
points, and ``kernel_gradient`` and ``kernel_hessian`` give one kernel's
derivatives from ``kernel.radial_terms``.
``edge_root`` bisects one edge on any object with ``values`` and ``evaluate``
(an ``ImplicitField`` or an analytic field), ``place_vertex`` solves one
voxel's quadric, and ``emit_quads`` builds the quads edge by edge from a dict
of active voxels.  ``grow_active_voxels`` is the active-voxel search's rule
(growth across sign-change edges, then lazy normal probes) over Python sets,
one corner fetch per round; ``search_active_voxels`` is the earlier rule, a
breadth-first search by face adjacency from every center and probe, kept as a
reference for the active set.  ``canonical_mesh_digest`` hashes a mesh
independently of its vertex order.  ``voxel_coords`` and
``voxel_corner_values`` read an active set's voxels back from its table.
``kernel_evaluate`` evaluates one kernel at one point,
``radius_query`` lists the indexed points strictly inside one ball, and
``octree_leaves`` subdivides a point set recursively into octree leaves.
``assemble_whole`` assembles the exact system as stored blocks with every
per-pair array spanning all support pairs at once; ``lu_solve`` solves it by
sparse LU whatever q is, and ``condition_estimate`` gives its 1-norm
condition number from the same factors.  ``eval_exact`` evaluates the exact
interpolant at query points.  ``surface_error`` measures how far a field's
zero set lies from the true surface, at fresh points of it.
``tune_radii_loop`` tunes the support radii by the paper's growth loop, one
5% step of every still-growing radius per ball count.
"""

import hashlib
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from hrbfsurf import kernel, model
from hrbfsurf.dualcontour import (
    QEF_REG,
    SEED_STEPS,
    _CORNER_OFFSETS,
    _EDGES,
    _RING,
    _UV,
    VoxelGrid,
)
from hrbfsurf.model import (
    ETA_MARGIN,
    GROWTH_FACTOR,
    RHO_HARD_CAP,
    HrbfModel,
    LatticeTable,
    RadiusBands,
    _a_bar,
    _candidate_pairs,
    _gradient_sums,
    _pair_terms,
    _runs,
    _segment_sums,
    _support_pairs,
)
from hrbfsurf.octree import MAX_DEPTH, PointOctree
from hrbfsurf.pointset import QuadMesh

BISECTION_STEPS = 32  # the reference bisection's own cap, independent of the library's


def kernel_gradient(offsets, rho):
    """Gradient of phi w.r.t. the query point; (k, 3) -> (k, 3)."""
    offsets = np.asarray(offsets, dtype=np.float64)
    _, gamma, _ = kernel.radial_terms(np.linalg.norm(offsets, axis=-1), rho)
    return gamma[..., None] * offsets


def kernel_hessian(offsets, rho):
    """Hessian of phi w.r.t. the query point; (k, 3) -> (k, 3, 3)."""
    offsets = np.asarray(offsets, dtype=np.float64)
    _, gamma, beta = kernel.radial_terms(np.linalg.norm(offsets, axis=-1), rho)
    h = offsets[..., :, None] * offsets[..., None, :]
    h *= beta[..., None, None]
    for a in range(3):
        h[..., a, a] += gamma
    return h


class ImplicitField:
    """The quasi-interpolant and its gradient at any points, from the pair
    search and the segment sums that the lattice and the edge roots use.

    Queries run serially in slices of ``model._EVAL_CHUNK``.  Each query is
    summed over its own pairs in center index order, so the slicing changes
    no bit of the result.
    """

    def __init__(self, model: HrbfModel):
        self.model = model

    def evaluate(self, x, want_gradient=False):
        """Values (nan where undefined), optional gradients, defined mask."""
        x = np.asarray(x, dtype=np.float64).reshape(-1, 3)
        n = len(x)
        values, defined = np.empty(n), np.empty(n, dtype=bool)
        grads = np.empty((n, 3)) if want_gradient else None
        for i in range(0, n, model._EVAL_CHUNK):
            sl = slice(i, i + model._EVAL_CHUNK)
            values[sl], g, defined[sl] = self._chunk(x[sl], want_gradient)
            if want_gradient:
                grads[sl] = g
        return values, grads, defined

    def values(self, x):
        return self.evaluate(x, want_gradient=False)[0]

    def _chunk(self, x, want_gradient):
        """Values (nan where undefined), gradients or None, and the defined mask at x (n, 3)."""
        model, n = self.model, len(x)
        qidx, cidx = _candidate_pairs(model.bands, x)
        u = [np.take(x[:, k], qidx) - np.take(model.centers_t[k], cidx) for k in range(3)]
        g = [np.take(model.g_t[k], cidx) for k in range(3)]
        gu = g[0] * u[0] + g[1] * u[1] + g[2] * u[2]
        d2 = u[0] * u[0] + u[1] * u[1] + u[2] * u[2]
        rho = model.rho[cidx]
        r = np.sqrt(d2)
        runs = _runs(qidx, n)
        grads = _gradient_sums(runs, u, g, gu, r, rho, n) if want_gradient else None
        values = _segment_sums(runs, _pair_terms(r / rho, gu), d2 < rho**2, n)
        return values, grads, np.isfinite(values)


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


def voxel_coords(grid: VoxelGrid):
    """(M, 3) table coordinates of the active voxels' lower corners."""
    return grid.table.coords(grid.keys)


def voxel_corner_values(grid: VoxelGrid):
    """(M, 8) corner values of the active voxels, read back from the table."""
    return grid.table.fetch(voxel_coords(grid)[:, None, :] + _CORNER_OFFSETS[None, :, :])


def emit_quads(grid: VoxelGrid, vertices, vertex_normals=None) -> QuadMesh:
    """Quads from precomputed voxel vertices (one per active voxel)."""
    vertices = np.asarray(vertices, dtype=np.float64).reshape(-1, 3)
    if len(vertices) != grid.n_active:
        raise ValueError("one vertex per active voxel required")
    coords, values = voxel_coords(grid), voxel_corner_values(grid)
    vox_index = {tuple(c): i for i, c in enumerate(coords.tolist())}
    corner_coords = coords[:, None, :] + _CORNER_OFFSETS[None, :, :]
    seen = set()
    faces = []
    for ca, cb, axis in _EDGES:
        va = values[:, ca]
        vb = values[:, cb]
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


def _sign_change(values):
    """True where an 8-corner row has both negative and non-negative values."""
    return (values.min(axis=1) < 0.0) & (values.max(axis=1) >= 0.0)


def _grid(table, coords, vals) -> VoxelGrid:
    """A ``VoxelGrid`` from per-round lists of active coords and corner values."""
    neg = np.concatenate(vals) < 0
    return VoxelGrid(table, table.keys(np.concatenate(coords)), np.packbits(neg, axis=1, bitorder="little").ravel())


def grow_active_voxels(model, centers, normals, width) -> VoxelGrid:
    """Active voxels in the order of the edge-growth search.

    Each round tests the untested keys it reached in ascending order; the
    next round reaches the other three voxels around each sign-change edge
    of the voxels found active.  The first round reaches the voxels holding
    the centers.  Once the growth stops, the probes (the voxels up to
    SEED_STEPS widths along each normal, both ways) of every center with no
    active probe start one more growth.
    """
    origin = centers.min(axis=0) - 2.0 * width
    table = LatticeTable(model, origin, width)
    probes = [
        table.keys(np.floor((centers + t * width * normals - origin) / width).astype(np.int64)).tolist()
        for t in range(-SEED_STEPS, SEED_STEPS + 1)
    ]
    tested = {-1}
    found_coords, found_vals = [np.empty((0, 3), np.int64)], [np.empty((0, 8))]

    def grow(reached):
        while reached:
            fresh = np.asarray(sorted(reached - tested), dtype=np.int64)
            tested.update(fresh.tolist())
            coords = table.coords(fresh).reshape(-1, 3)
            vals = table.fetch(coords[:, None, :] + _CORNER_OFFSETS[None, :, :]).reshape(-1, 8)
            ok = np.all(np.isfinite(vals), axis=1) & _sign_change(np.nan_to_num(vals, nan=np.inf))
            found_coords.append(coords[ok])
            found_vals.append(vals[ok])
            around = []
            for c, v in zip(coords[ok], vals[ok]):
                for ca, cb, axis in _EDGES:
                    if (v[ca] < 0) != (v[cb] < 0):
                        u, w = _UV[axis]
                        for du, dv in _RING:
                            n = c + _CORNER_OFFSETS[ca]
                            n[u] += du
                            n[w] += dv
                            around.append(n)
            reached = set(table.keys(np.asarray(around, dtype=np.int64).reshape(-1, 3)).tolist())

    grow(set(probes[SEED_STEPS]))
    active = set(table.keys(np.concatenate(found_coords)).tolist())
    lonely = [i for i in range(len(centers)) if not any(p[i] in active for p in probes)]
    grow({p[i] for p in probes for i in lonely})
    return _grid(table, found_coords, found_vals)


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
    return _grid(table, found_coords, found_vals)


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
    grad = kernel_gradient(d[None], rho)[0] if want_gradient else np.zeros(3)
    hess = kernel_hessian(d[None], rho)[0] if want_hessian else np.zeros((3, 3))
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


def canonical_mesh_digest(mesh: QuadMesh) -> str:
    """sha256 of a mesh with its vertex order and each face's first corner factored out.

    Vertices are sorted lexicographically by (x, y, z), their normals moved
    with them; two vertices can share a position where the QEF clamps them
    to a voxel's box, so ties are broken by the normals.  Faces are
    renumbered, each is rotated to start at its smallest vertex (which keeps
    its winding), and the faces are sorted.  Meshes that differ only in
    vertex order or face order get one digest.
    """
    verts = np.asarray(mesh.vertices, dtype=np.float64)
    normals = None if mesh.vertex_normals is None else np.asarray(mesh.vertex_normals, dtype=np.float64)
    order = np.lexsort((verts if normals is None else np.hstack([verts, normals])).T[::-1])
    rank = np.empty(len(verts), dtype=np.int64)
    rank[order] = np.arange(len(verts))
    faces = rank[np.asarray(mesh.faces, dtype=np.int64)]
    k = faces.shape[1]
    turn = (np.argmin(faces, axis=1)[:, None] + np.arange(k)) % k
    faces = np.take_along_axis(faces, turn, axis=1)
    faces = faces[np.lexsort(faces.T[::-1])]
    h = hashlib.sha256()
    h.update(np.ascontiguousarray(verts[order]).tobytes())
    if normals is not None:
        h.update(np.ascontiguousarray(normals[order]).tobytes())
    h.update(np.ascontiguousarray(faces).tobytes())
    return h.hexdigest()


@dataclass
class AssembledSystem:
    matrix: sp.bsr_matrix  # A + eta I, 4n x 4n in 4x4 blocks, columns ascending per block row
    y: np.ndarray  # rhs, blocks (0, n_i)
    d_diag: np.ndarray  # diagonal of D
    delta_a_inf: float  # ||A + eta I - D||inf
    contraction: float  # q = ||D^-1 dA||inf
    row_sums: np.ndarray  # per row of A + eta I - D, the sum of |entries|; rows 4i are value rows


def assemble_whole(ps, rho, eta) -> AssembledSystem:
    """The exact system as stored 4x4 blocks, in one pass: the strict support
    test, the blocks from ``kernel.value``, ``kernel_gradient`` and
    ``kernel_hessian`` and the row sums of |block - D| each take every
    support pair at once.  The reference
    for ``model.SupportOperator``."""
    points = np.asarray(ps.points, dtype=np.float64)
    normals = np.asarray(ps.normals, dtype=np.float64)
    n = len(points)
    rho = np.broadcast_to(np.asarray(rho, dtype=np.float64), (n,)).copy()
    i_idx, j_idx = _candidate_pairs(RadiusBands(points, rho), points)
    inside = np.linalg.norm(points[i_idx] - points[j_idx], axis=1) < rho[j_idx]
    i_idx, j_idx = i_idx[inside], j_idx[inside]
    indptr = np.searchsorted(i_idx, np.arange(n + 1))
    offsets = points[i_idx] - points[j_idx]
    rj = rho[j_idx]
    blocks = np.empty((len(i_idx), 4, 4))
    blocks[:, 0, 0] = kernel.value(offsets, rj)
    grad = kernel_gradient(offsets, rj)
    blocks[:, 0, 1:], blocks[:, 1:, 0] = -grad, grad
    blocks[:, 1:, 1:] = -kernel_hessian(offsets, rj)
    own = np.flatnonzero(i_idx == j_idx)
    blocks[own] += eta * np.eye(4)
    d_diag = np.repeat(kernel.D2_PEAK / rho**2 + eta, 4)
    d_diag[0::4] = 1.0 + eta
    sums = np.abs(blocks).sum(axis=2)
    sums[own] = np.abs(blocks[own] - d_diag.reshape(n, 4, 1) * np.eye(4)).sum(axis=2)
    row_sums = np.add.reduceat(sums, indptr[:-1], axis=0).ravel()
    mat = sp.bsr_matrix((blocks, j_idx, indptr), shape=(4 * n, 4 * n))
    y = np.zeros(4 * n)
    y.reshape(-1, 4)[:, 1:] = normals
    return AssembledSystem(
        matrix=mat,
        y=y,
        d_diag=d_diag,
        delta_a_inf=float(row_sums.max()),
        contraction=float((row_sums / d_diag).max()),
        row_sums=row_sums,
    )


def _factor(system: AssembledSystem):
    """Sparse LU of A + eta I without the self blocks' stored zeros."""
    csc = system.matrix.tocsc()
    csc.eliminate_zeros()
    return spla.splu(csc)


def lu_solve(system: AssembledSystem):
    """lambda with (A + eta I) lambda = y, by sparse LU; any q."""
    return _factor(system).solve(system.y)


def condition_estimate(system: AssembledSystem):
    """1-norm condition estimate of A + eta I via its sparse LU factors."""
    lu = _factor(system)
    inv = spla.LinearOperator(system.matrix.shape, matvec=lu.solve, rmatvec=lambda v: lu.solve(v, trans="T"))
    return float(spla.onenormest(system.matrix) * spla.onenormest(inv))


def eval_exact(ps, rho, lam, x, want_gradient=False):
    """Evaluate the exact interpolant sum_j a_j phi_j - <b_j, grad phi_j> at x.

    Values and gradients are 0 outside every support.
    """
    points = np.asarray(ps.points, dtype=np.float64)
    n = len(points)
    rho = np.broadcast_to(np.asarray(rho, dtype=np.float64), (n,))
    lam = np.asarray(lam, dtype=np.float64).reshape(n, 4)
    x = np.asarray(x, dtype=np.float64).reshape(-1, 3)

    qi, j = _support_pairs(RadiusBands(points, rho), x)
    offs, rj = x[qi] - points[j], rho[j]
    a, b = lam[j, 0], lam[j, 1:]
    g = kernel_gradient(offs, rj)
    terms = [a * kernel.value(offs, rj) - np.einsum("ij,ij->i", b, g)]
    if want_gradient:
        h = kernel_hessian(offs, rj)
        terms.extend((a[:, None] * g - np.einsum("kij,kj->ki", h, b)).T)
    # every pair lies inside its support; a query outside every support sums to nan, here 0
    sums = _segment_sums(_runs(qi, len(x)), np.stack(terms), np.ones(len(qi), dtype=bool), len(x))
    sums = np.where(np.isnan(sums), 0.0, sums)
    if want_gradient:
        return sums[0], sums[1:].T.copy()
    return sums[0]


@dataclass
class SurfaceError:
    mean: float  # mean distance to the true surface, over the points kept
    p90: float  # its 90th percentile
    lost: int  # points that left every support, left out of mean and p90


def surface_error(field, points, distance, steps=8) -> SurfaceError:
    """Distance from ``field``'s zero set to the true surface.

    ``points`` are fresh points of the true surface, in the field's frame.
    Each is moved ``steps`` Newton steps x <- x - f(x) grad f / |grad f|^2
    along the gradient of ``field`` (an ``ImplicitField``, or anything with
    its ``evaluate``), and ``distance`` gives each projected point's distance
    to the true surface, in whatever units the caller wants.  A point where
    the field is undefined, before, during or after the steps, has left
    every support: it is counted in ``lost``.  A zero gradient leaves a
    point where it is.
    """
    x = np.array(points, dtype=np.float64).reshape(-1, 3)
    kept = np.arange(len(x))
    for _ in range(steps):
        vals, grads, defined = field.evaluate(x[kept], want_gradient=True)
        kept, vals, grads = kept[defined], vals[defined], grads[defined]
        gg = np.einsum("ij,ij->i", grads, grads)
        x[kept] -= np.divide(vals, gg, out=np.zeros_like(vals), where=gg > 0)[:, None] * grads
    kept = kept[field.evaluate(x[kept])[2]]
    d = distance(x[kept])
    return SurfaceError(mean=float(d.mean()), p90=float(np.percentile(d, 90)), lost=len(x) - len(kept))


def tune_radii_loop(ps, idx: PointOctree, s=1.0, noisy_mode=False):
    """(rho, m, eta) of ``tune_parameters``, with the radii grown in a loop.

    Every radius starts at s d_bar and steps up by GROWTH_FACTOR, clamped at
    RHO_HARD_CAP, while its support holds <= m points; a center stops at its
    first step over m, at the cap, or after 420 steps.  Each step is one
    ``model.strict_counts`` call over the centers still growing.
    """
    points = np.asarray(getattr(ps, "points", ps), dtype=np.float64)
    n = len(points)
    rho0 = s * (0.75 * idx.mean_leaf_diagonal)
    m = int(model.strict_counts(idx, points, np.full(n, rho0)).max())
    rho = np.full(n, rho0)
    grow = np.arange(n)
    for _ in range(420):
        trial = np.minimum(rho[grow] * GROWTH_FACTOR, RHO_HARD_CAP)
        fits = model.strict_counts(idx, points[grow], trial) <= m
        rho[grow[fits]] = trial[fits]
        if not len(grow := grow[fits & (trial < RHO_HARD_CAP)]):
            break
    if noisy_mode:
        rho = np.full(n, rho.min())
    return rho, m, _a_bar(m, float(rho.min())) - 1.0 + ETA_MARGIN
