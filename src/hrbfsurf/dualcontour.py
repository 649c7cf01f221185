"""Dual-contouring variant over fixed-width voxels restricted to supported space.

Extraction runs on an ``HrbfModel``: corner values come from the model's
brick lattice (``LatticeTable``), edge intersections from ``axis_edge_roots``.
A voxel participates only when all eight corner values are defined (covered by
at least one kernel support) and carry different signs; regions without data
therefore produce open mesh boundaries instead of fabricated geometry.  One
vertex is placed per active voxel by a regularized quadric minimization over
its edge intersections, and one quad is emitted per interior sign-change edge.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .model import ROOT_TOL, HrbfModel, LatticeTable, axis_edge_roots
from .pointset import QuadMesh

QEF_REG = 1e-3
DEFAULT_MAX_ACTIVE = 5_000_000
SEED_STEPS = 3  # normal probes per side when seeding the active-voxel search
_FETCH_VOXELS = 1 << 14  # voxels per corner fetch in the search; bounds its scratch arrays
_QEF_VOXELS = 1 << 16  # voxel rows per QEF chunk; bounds the per-incidence arrays

# corner index = dx*4 + dy*2 + dz
_CORNER_OFFSETS = np.array(
    [[dx, dy, dz] for dx in (0, 1) for dy in (0, 1) for dz in (0, 1)], dtype=np.int64
)
# voxel edges as (corner_a, corner_b, axis); corner_a is the lower end
_EDGES = np.array(
    [(0, 4, 0), (2, 6, 0), (1, 5, 0), (3, 7, 0),
     (0, 2, 1), (4, 6, 1), (1, 3, 1), (5, 7, 1),
     (0, 1, 2), (2, 3, 2), (4, 5, 2), (6, 7, 2)],
    dtype=np.int64,
)
# voxels around an edge along axis a, as offsets on the two other axes (u, v)
# with (u, v, a) right-handed; cycle order is CCW seen from +a
_RING = np.array([[-1, -1], [0, -1], [0, 0], [-1, 0]], dtype=np.int64)
_UV = {0: (1, 2), 1: (2, 0), 2: (0, 1)}


@dataclass
class VoxelGrid:
    table: LatticeTable  # corner (i,j,k) sits at table.origin + (i,j,k)*w
    coords: np.ndarray  # (M, 3) integer coords of active voxels
    corner_values: np.ndarray  # (M, 8)

    @property
    def width(self):
        return self.table.width

    @property
    def n_active(self):
        return len(self.coords)

    def corner_position(self, coords):
        return self.table.origin + np.asarray(coords, dtype=np.float64) * self.width


class ActiveSetOverflow(MemoryError):
    def __init__(self, width, suggested):
        super().__init__(
            f"active voxel set exceeds the cap at width {width:g}; retry with w >= {suggested:g}"
        )
        self.suggested_width = suggested


def _sign_change(values):
    """True where an 8-corner row has both negative and non-negative values."""
    return (values.min(axis=1) < 0.0) & (values.max(axis=1) >= 0.0)


def collect_active_voxels(
    model: HrbfModel,
    centers,
    normals,
    width,
    max_active=DEFAULT_MAX_ACTIVE,
    workers=1,
) -> VoxelGrid:
    """Find sign-change voxels with fully defined corners near the centers.

    Corner values come from the model's brick lattice, whose filled bricks
    are kept: every face neighbour of an active voxel has been tested, so
    they hold the values one edge beyond both ends of every sign-change
    edge, which the edge roots in ``contour`` read before it empties the
    store.  Seeds are the voxels containing each center and probes offset
    along its normal by up to SEED_STEPS voxel widths (the zero level set
    can sit away from noisy points); the active set then grows by
    face-adjacency.  A voxel is keyed by its lower corner in the table;
    voxels whose lower corner lies outside the table have an undefined
    corner and are never tested.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
    normals = np.asarray(normals, dtype=np.float64).reshape(-1, 3)
    origin = centers.min(axis=0) - 2.0 * width  # global lattice anchor
    table = LatticeTable(model, origin, width, workers=workers)

    seeds = [centers]
    for t in range(1, SEED_STEPS + 1):
        seeds.append(centers + t * width * normals)
        seeds.append(centers - t * width * normals)
    seed_coords = np.floor((np.concatenate(seeds) - origin) / width).astype(np.int64)
    frontier = np.unique(table.keys(seed_coords))

    # keys of every tested voxel, sorted, behind -1 (the key of every voxel
    # outside the table) and a sentinel above every key
    tested = np.array([-1, np.iinfo(np.int64).max])
    active_coords, active_vals = [np.empty((0, 3), np.int64)], [np.empty((0, 8))]
    n_active = 0
    face_neighbors = np.array(
        [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0], [0, 0, 1], [0, 0, -1]], dtype=np.int64
    )

    while len(frontier):
        at = np.searchsorted(tested, frontier)
        new = tested[at] != frontier
        fresh = frontier[new]
        tested = np.insert(tested, at[new], fresh)
        grown = [np.empty(0, np.int64)]  # keys of the face neighbours of new active voxels
        for v0 in range(0, len(fresh), _FETCH_VOXELS):
            coords = table.coords(fresh[v0 : v0 + _FETCH_VOXELS])
            vals = table.fetch(coords[:, None, :] + _CORNER_OFFSETS[None, :, :])
            ok = np.all(np.isfinite(vals), axis=1) & _sign_change(np.nan_to_num(vals, nan=np.inf))
            active_coords.append(coords[ok])
            active_vals.append(vals[ok])
            n_active += int(ok.sum())
            grown.append(table.keys(coords[ok][:, None, :] + face_neighbors[None, :, :]).ravel())
        if n_active > max_active:
            raise ActiveSetOverflow(width, width * (n_active / max_active) ** 0.5 * 2.0)
        frontier = np.unique(np.concatenate(grown))

    return VoxelGrid(table, np.concatenate(active_coords), np.concatenate(active_vals))


def _batch_edge_roots(table: LatticeTable, corner, p_neg, p_pos, f_neg, f_pos, tol, workers=1):
    """Roots and unit normals on sign-change lattice edges with lower corners
    ``corner``; p_neg holds the negative endpoints and f_neg, f_pos the values
    at the two ends.  ``tol`` is a fraction of the edge length.

    Where no support covers a root, or the gradient vanishes, the normal is the
    edge direction.
    """
    mid, grads = axis_edge_roots(table, corner, p_neg, p_pos, f_neg, f_pos, tol, workers=workers)
    norms = np.linalg.norm(grads, axis=1)
    bad = ~np.isfinite(norms) | (norms < 1e-12)
    if bad.any():
        edge_dir = p_pos[bad] - p_neg[bad]
        edge_dir /= np.maximum(np.linalg.norm(edge_dir, axis=1, keepdims=True), 1e-300)
        grads[bad] = edge_dir
        norms[bad] = 1.0
    return mid, grads / norms[:, None]


def _qef_vertices(rows, q, nrm, grid, coords):
    """Vertices and unit vertex normals of the voxels at ``coords`` from their
    edge intersections ``q`` with normals ``nrm``; ``rows`` gives the voxel of
    each intersection, as a row of ``coords``."""
    m = len(coords)
    counts = np.bincount(rows, minlength=m).astype(np.float64)
    mats = np.zeros((m, 3, 3))
    rhs = np.zeros((m, 3))
    cent = np.zeros((m, 3))
    vnorm = np.zeros((m, 3))
    ndq = np.einsum("ij,ij->i", nrm, q)
    for a in range(3):
        cent[:, a] = np.bincount(rows, weights=q[:, a], minlength=m)
        rhs[:, a] = np.bincount(rows, weights=nrm[:, a] * ndq, minlength=m)
        vnorm[:, a] = np.bincount(rows, weights=nrm[:, a], minlength=m)
        for b in range(a, 3):
            mats[:, a, b] = mats[:, b, a] = np.bincount(rows, weights=nrm[:, a] * nrm[:, b], minlength=m)
    safe = np.maximum(counts, 1.0)
    cent /= safe[:, None]
    lam = QEF_REG * safe
    mats += lam[:, None, None] * np.eye(3)
    rhs += lam[:, None] * cent
    verts = np.linalg.solve(mats, rhs[:, :, None])[:, :, 0]
    box_lo = grid.corner_position(coords)
    verts = np.clip(verts, box_lo, box_lo + grid.width)
    # averaged intersection normals give usable vertex normals for output
    lens = np.linalg.norm(vnorm, axis=1)
    vnorm[lens > 0] /= lens[lens > 0, None]
    return verts, vnorm


def contour(grid: VoxelGrid, workers=1) -> QuadMesh:
    """Vertices from QEF minimization plus one quad per interior isosurface edge."""
    table = grid.table
    w = grid.width
    if grid.n_active == 0:
        return QuadMesh(np.empty((0, 3)), np.empty((0, 4), np.int64))
    coords = grid.coords
    vals = grid.corner_values
    m_vox = len(coords)

    # unique sign-change edges, keyed by the lower corner's table key and the
    # axis; an incidence keeps only its key, its voxel row and its edge number
    vox_rows, edge_keys, edge_ids = [], [], []
    for e, (ca, cb, axis) in enumerate(_EDGES):
        rows = np.flatnonzero((vals[:, ca] < 0) != (vals[:, cb] < 0))
        edge_keys.append(table.keys(coords[rows] + _CORNER_OFFSETS[ca]) * 4 + axis)
        vox_rows.append(rows)
        edge_ids.append(np.full(len(rows), e, dtype=np.int8))
    edge_keys = np.concatenate(edge_keys)
    if len(edge_keys) == 0:
        return QuadMesh(np.empty((0, 3)), np.empty((0, 4), np.int64))
    vox_rows = np.concatenate(vox_rows)
    _, first, inverse = np.unique(edge_keys, return_index=True, return_inverse=True)
    u_row = vox_rows[first]
    u_edge = _EDGES[np.concatenate(edge_ids)[first]]
    del edge_keys, edge_ids, first  # the incidences keep only their voxel rows
    u_lo = coords[u_row] + _CORNER_OFFSETS[u_edge[:, 0]]
    u_axis = u_edge[:, 2]
    u_vlo = vals[u_row, u_edge[:, 0]]
    u_vhi = vals[u_row, u_edge[:, 1]]
    del u_row, u_edge
    p_neg = grid.corner_position(u_lo)
    p_pos = p_neg.copy()
    up = u_vlo < 0  # the negative end is the lower corner
    p_pos[np.flatnonzero(up), u_axis[up]] += w
    p_neg[np.flatnonzero(~up), u_axis[~up]] += w
    f_neg, f_pos = np.minimum(u_vlo, u_vhi), np.maximum(u_vlo, u_vhi)
    roots, root_normals = _batch_edge_roots(table, u_lo, p_neg, p_pos, f_neg, f_pos, ROOT_TOL, workers)
    table.clear()  # later reads fill bricks again; the QEF arrays need the room

    # QEF accumulation per voxel over its (voxel, unique edge) incidences, in
    # chunks of voxel rows.  The stable sort keeps each voxel's incidences in
    # their order above, the order in which bincount adds them, so the sums do
    # not depend on the chunking
    order = np.argsort(vox_rows, kind="stable")
    bounds = np.searchsorted(vox_rows[order], np.arange(0, m_vox + _QEF_VOXELS, _QEF_VOXELS))
    verts = np.empty((m_vox, 3))
    vnorm = np.empty((m_vox, 3))
    for r0, i0, i1 in zip(range(0, m_vox, _QEF_VOXELS), bounds[:-1], bounds[1:]):
        inc = order[i0:i1]
        verts[r0 : r0 + _QEF_VOXELS], vnorm[r0 : r0 + _QEF_VOXELS] = _qef_vertices(
            vox_rows[inc] - r0, roots[inverse[inc]], root_normals[inverse[inc]],
            grid, coords[r0 : r0 + _QEF_VOXELS],
        )

    # quads: all four voxels around an interior edge must be active
    pk = table.keys(coords)
    sort_order = np.argsort(pk)
    sorted_keys = pk[sort_order]

    def lookup(keys):
        pos = np.clip(np.searchsorted(sorted_keys, keys), 0, len(sorted_keys) - 1)
        found = sorted_keys[pos] == keys
        return np.where(found, sort_order[pos], -1)

    faces = []
    for axis in (0, 1, 2):
        sel = u_axis == axis
        if not sel.any():
            continue
        lo = u_lo[sel]
        increasing = u_vhi[sel] > u_vlo[sel]  # field grows along +axis
        u, v = _UV[axis]
        ring = np.zeros((4, 3), dtype=np.int64)
        ring[:, u] = _RING[:, 0]
        ring[:, v] = _RING[:, 1]
        quad_rows = lookup(table.keys(lo[:, None, :] + ring[None, :, :]))
        complete = np.all(quad_rows >= 0, axis=1)  # else open boundary
        quad_rows = quad_rows[complete]
        flip = ~increasing[complete]
        quad_rows[flip] = quad_rows[flip, ::-1]
        faces.append(quad_rows)

    faces = np.concatenate(faces, axis=0) if faces else np.empty((0, 4), np.int64)
    return QuadMesh(verts, faces, vertex_normals=vnorm)


def extract_surface(
    model: HrbfModel,
    centers,
    normals,
    width,
    max_active=DEFAULT_MAX_ACTIVE,
    workers=1,
) -> QuadMesh:
    grid = collect_active_voxels(model, centers, normals, width, max_active, workers)
    return contour(grid, workers=workers)


def _face_edges(faces):
    k = faces.shape[1]
    pairs = []
    for a in range(k):
        b = (a + 1) % k
        e = np.stack([faces[:, a], faces[:, b]], axis=1)
        pairs.append(np.sort(e, axis=1))
    return np.concatenate(pairs, axis=0)  # (k * nf, 2), face index = row % nf


def boundary_edge_count(mesh: QuadMesh):
    """Edges used by exactly one face (zero on a closed mesh)."""
    if mesh.n_faces == 0:
        return 0
    edges = _face_edges(mesh.faces)
    _, counts = np.unique(edges[:, 0] * mesh.n_vertices + edges[:, 1], return_counts=True)
    return int(np.count_nonzero(counts == 1))


def face_components(mesh: QuadMesh):
    """Connected-component label per face, linking faces that share an edge."""
    nf = mesh.n_faces
    if nf == 0:
        return np.empty(0, dtype=np.int64)
    edges = _face_edges(mesh.faces)
    face_ids = np.tile(np.arange(nf), mesh.faces.shape[1])
    keys = edges[:, 0] * mesh.n_vertices + edges[:, 1]
    order = np.argsort(keys, kind="stable")
    keys, face_ids = keys[order], face_ids[order]
    same = keys[1:] == keys[:-1]
    src = face_ids[:-1][same]
    dst = face_ids[1:][same]
    graph = sp.coo_matrix((np.ones(len(src)), (src, dst)), shape=(nf, nf))
    _, labels = connected_components(graph, directed=False)
    return labels


def remove_small_fragments(mesh: QuadMesh, min_faces) -> QuadMesh:
    """Drop connected components with fewer than min_faces faces.

    The largest component is always kept, even if below the cutoff.
    """
    if mesh.n_faces == 0:
        return mesh
    labels = face_components(mesh)
    sizes = np.bincount(labels)
    keep_labels = np.flatnonzero(sizes >= min_faces)
    if len(keep_labels) == 0:
        keep_labels = np.array([int(np.argmax(sizes))])
    keep = np.isin(labels, keep_labels)
    faces = mesh.faces[keep]
    used = np.unique(faces)
    remap = -np.ones(mesh.n_vertices, dtype=np.int64)
    remap[used] = np.arange(len(used))
    vn = mesh.vertex_normals[used] if mesh.vertex_normals is not None else None
    return QuadMesh(mesh.vertices[used], remap[faces], vn)
