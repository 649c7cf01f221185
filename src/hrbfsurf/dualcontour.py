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

from . import model
from .model import EDGE_RECORD, HrbfModel, LatticeTable, _unique, axis_edge_roots, edge_records
from .pointset import QuadMesh

QEF_REG = 1e-3
MAX_ACTIVE = 5_000_000  # active voxels before the search raises ActiveSetOverflow
SEED_STEPS = 3  # normal probes per side when seeding the active-voxel search
_FETCH_VOXELS = 1 << 14  # voxels per corner fetch in the search; bounds its scratch arrays
_QEF_VOXELS = 1 << 14  # voxel rows per QEF chunk; bounds the per-incidence arrays
_MAX_INCIDENCES = 2**31 - 1  # (voxel, edge) incidences; voxel rows and edge indices are int32

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
# the same ring as 3D offsets from the edge's lower corner, (axis, 4, 3)
_AXIS_RING = np.stack([_RING @ np.eye(3, dtype=np.int64)[list(_UV[a])] for a in range(3)])
# the other three voxels around each voxel edge, as offsets from the voxel, (12, 3, 3)
_EDGE_RING = np.stack(
    [ring[np.any(ring, axis=1)] for ring in _CORNER_OFFSETS[_EDGES[:, 0], None] + _AXIS_RING[_EDGES[:, 2]]]
)
# the ring slot of the voxel itself around each voxel edge, (12,)
_RING_POS = np.all(_AXIS_RING[_EDGES[:, 2]] == -_CORNER_OFFSETS[_EDGES[:, 0], None], axis=2).argmax(axis=1)


@dataclass
class VoxelGrid:
    """Active voxels as the table keys of their lower corners and 8-bit sign
    codes (bit c is set where corner c is negative).  Corner values stay in
    the table."""

    table: LatticeTable  # corner (i,j,k) sits at table.origin + (i,j,k)*w
    keys: np.ndarray  # (M,) int64
    codes: np.ndarray  # (M,) uint8

    @property
    def width(self):
        return self.table.width

    @property
    def n_active(self):
        return len(self.keys)

    def corner_position(self, coords):
        return self.table.origin + np.asarray(coords, dtype=np.float64) * self.width


class ActiveSetOverflow(MemoryError):
    def __init__(self, width, suggested):
        super().__init__(
            f"active voxel set exceeds the cap at width {width:g}; retry with w >= {suggested:g}"
        )
        self.suggested_width = suggested


class IncidenceOverflow(MemoryError):
    def __init__(self, count):
        super().__init__(
            f"{count} (voxel, edge) incidences overflow contour's int32 indices; retry with a larger width"
        )


def collect_active_voxels(model: HrbfModel, centers, normals, width, workers=1) -> VoxelGrid:
    """Find sign-change voxels with fully defined corners near the centers.

    The search starts from the voxel holding each center and grows across
    sign-change edges: every active voxel adds the other three voxels
    around each of its sign-change edges.  Each voxel so reached holds a
    sign change too, so the search tests few inactive voxels and fills
    little beyond the bricks that hold the surface's corners.  Once that
    has closed, each center's normal probes (the voxels up to SEED_STEPS
    widths along its normal; the zero level set can sit away from noisy
    points) are looked up among the active voxels, and only the probes of
    centers none of whose probes is active are tested and grown from.  A
    round tests the untested voxels it reached in ascending key order.  A
    voxel is keyed by its lower corner in the table; voxels whose lower
    corner lies outside the table have an undefined corner and are never
    tested.  The table keeps the bricks the search filled for ``contour``.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    centers = np.asarray(centers, dtype=np.float64).reshape(-1, 3)
    normals = np.asarray(normals, dtype=np.float64).reshape(-1, 3)
    origin = centers.min(axis=0) - 2.0 * width  # global lattice anchor
    table = LatticeTable(model, origin, width, workers=workers)
    steps = np.arange(-SEED_STEPS, SEED_STEPS + 1)
    probes = table.keys(  # (2 SEED_STEPS + 1, centers); row SEED_STEPS holds the centers
        np.floor((centers + (steps * width)[:, None, None] * normals - origin) / width).astype(np.int64)
    )

    # keys of every tested voxel, sorted, behind -1 (the key of every voxel
    # outside the table) and a sentinel above every key
    tested = np.array([-1, np.iinfo(np.int64).max])
    active_keys, active_codes = [np.empty(0, np.int64)], [np.empty(0, np.uint8)]

    def grow(frontier):
        nonlocal tested
        while len(frontier):
            at = np.searchsorted(tested, frontier)
            new = tested[at] != frontier
            fresh = frontier[new]
            tested = np.insert(tested, at[new], fresh)
            grown = [np.empty(0, np.int64)]  # keys of the voxels around new sign-change edges
            for v0 in range(0, len(fresh), _FETCH_VOXELS):
                part = fresh[v0 : v0 + _FETCH_VOXELS]
                coords = table.coords(part)
                vals = table.fetch(coords[:, None, :] + _CORNER_OFFSETS[None, :, :])
                # active: every corner defined, some negative and some not
                codes = np.packbits(vals < 0, axis=1, bitorder="little").ravel()
                ok = np.all(np.isfinite(vals), axis=1) & (codes != 0) & (codes != 255)
                active_keys.append(part[ok])
                active_codes.append(codes[ok])
                neg = vals[ok] < 0
                rows, edges = np.nonzero(neg[:, _EDGES[:, 0]] != neg[:, _EDGES[:, 1]])
                grown.append(_unique(table.keys(coords[ok][rows, None, :] + _EDGE_RING[edges])))
            if (n_active := sum(map(len, active_keys))) > MAX_ACTIVE:
                raise ActiveSetOverflow(width, width * (n_active / MAX_ACTIVE) ** 0.5 * 2.0)
            frontier = _unique(np.concatenate(grown))

    grow(_unique(probes[SEED_STEPS]))
    # probes are looked up in the sorted active keys (ended by a sentinel
    # above every key), which fills nothing
    found = np.append(np.sort(np.concatenate(active_keys)), np.iinfo(np.int64).max)
    hit = found[np.searchsorted(found, probes)] == probes
    grow(_unique(probes[:, ~hit.any(axis=0)]))
    return VoxelGrid(table, np.concatenate(active_keys), np.concatenate(active_codes))


def _batch_edge_roots(table: LatticeTable, edges, tol, workers=1):
    """Roots and unit normals on sign-change lattice edges, an array of
    ``model.EDGE_RECORD``.  ``tol`` is a fraction of the edge length.

    Where no support covers a root, or the gradient vanishes, the normal is
    +-e_axis, pointing from the negative end to the positive end.
    """
    roots, grads = axis_edge_roots(table, edges, tol, workers=workers)
    norms = np.linalg.norm(grads, axis=1)
    bad = np.flatnonzero(~np.isfinite(norms) | (norms < 1e-12))
    if len(bad):
        grads[bad] = 0.0
        grads[bad, edges["axis"][bad]] = np.where(edges["f_lo"][bad] < 0.0, 1.0, -1.0)
        norms[bad] = 1.0
    grads /= norms[:, None]
    return roots, grads


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


def _unique_edges(grid: VoxelGrid):
    """The sign-change edges of the active voxels, each once.

    Returns (vox_rows, starts, inverse, edges).  The (voxel, edge)
    incidences come in groups by voxel edge number (``starts`` bounds the
    groups), ascending in voxel row within each group; ``vox_rows`` holds
    each incidence's voxel row and ``inverse`` the row of its edge in
    ``edges``, an array of ``EDGE_RECORD`` by axis (the groups of ``_EDGES``
    are axis-major, so each axis is deduplicated alone), then by the lower
    corner's table key.  Sign changes come from the voxels' codes and end
    values from the bricks the search filled.  Rows and indices are int32.
    """
    table, keys, codes = grid.table, grid.keys, grid.codes
    step = table.keys(table.gmin + _CORNER_OFFSETS)  # key of each corner less its voxel's
    vox_rows = [np.flatnonzero(((codes >> a) ^ (codes >> b)) & 1).astype(np.int32) for a, b, _ in _EDGES.tolist()]
    starts = np.cumsum([0] + [len(rows) for rows in vox_rows])
    if starts[-1] > _MAX_INCIDENCES:
        raise IncidenceOverflow(int(starts[-1]))
    inverse = np.empty(starts[-1], dtype=np.int32)
    lower, bounds = [], [0]  # the distinct lower-corner keys along each axis, and their edge rows
    for a in range(3):
        k = np.concatenate([keys[vox_rows[e]] + step[_EDGES[e, 0]] for e in range(4 * a, 4 * a + 4)])
        k, inv = np.unique(k, return_inverse=True)
        inverse[starts[4 * a] : starts[4 * a + 4]] = inv + bounds[-1]
        lower.append(k)
        bounds.append(bounds[-1] + len(k))
    # filled an axis at a time: whole-array fetches or a join would set the peak
    edges = np.empty(bounds[-1], EDGE_RECORD)
    for a, k in enumerate(lower):
        corner = table.coords(k)
        f_lo, f_hi = table.fetch(corner), table.fetch(corner + np.eye(3, dtype=np.int64)[a])
        edges[bounds[a] : bounds[a + 1]] = edge_records(corner, a, f_lo, f_hi)
    return np.concatenate(vox_rows), starts, inverse, edges


def _chunked_qef(grid: VoxelGrid, vox_rows, starts, inverse, roots, normals):
    """Vertices and vertex normals from the incidences of ``_unique_edges``
    and their edges' roots and normals, ``_QEF_VOXELS`` voxel rows at a time.

    A chunk is one slice of each incidence group.  Taken group by group, each
    voxel's incidences keep their order, the order in which bincount adds
    them, so the sums do not depend on the chunking.
    """
    m_vox = grid.n_active
    cuts = [
        s + np.searchsorted(vox_rows[s:t], np.arange(0, m_vox + _QEF_VOXELS, _QEF_VOXELS))
        for s, t in zip(starts[:-1], starts[1:])
    ]
    verts = np.empty((m_vox, 3))
    vnorm = np.empty((m_vox, 3))
    for k, r0 in enumerate(range(0, m_vox, _QEF_VOXELS)):
        inc = np.concatenate([np.arange(c[k], c[k + 1]) for c in cuts])
        at = inverse[inc]
        verts[r0 : r0 + _QEF_VOXELS], vnorm[r0 : r0 + _QEF_VOXELS] = _qef_vertices(
            vox_rows[inc] - r0, roots[at], normals[at], grid, grid.table.coords(grid.keys[r0 : r0 + _QEF_VOXELS])
        )
    return verts, vnorm


def _quads(vox_rows, starts, inverse, edges):
    """One quad of active voxel rows per interior sign-change edge: incidence
    group e of ``_unique_edges`` fills ring slot ``_RING_POS[e]`` of its edges.
    An edge with a voxel around it that is not active is an open boundary."""
    quads = np.full((len(edges), 4), -1, dtype=np.int32)
    for e, (s, t) in enumerate(zip(starts[:-1], starts[1:])):
        quads[inverse[s:t], _RING_POS[e]] = vox_rows[s:t]
    complete = np.all(quads >= 0, axis=1)
    quads = quads[complete]
    flip = edges["f_lo"][complete] >= 0.0  # the field falls along +axis
    quads[flip] = quads[flip, ::-1]
    return quads


def contour(grid: VoxelGrid, workers=1) -> QuadMesh:
    """Vertices from QEF minimization plus one quad per interior isosurface edge."""
    vox_rows, starts, inverse, edges = _unique_edges(grid)
    if len(edges) == 0:
        return QuadMesh(np.empty((0, 3)), np.empty((0, 4), np.int64))
    roots, normals = _batch_edge_roots(grid.table, edges, model.ROOT_TOL, workers)  # clears the table
    verts, vnorm = _chunked_qef(grid, vox_rows, starts, inverse, roots, normals)
    del roots, normals  # the quads need the room
    faces = _quads(vox_rows, starts, inverse, edges)
    del vox_rows, inverse, edges  # and the int64 faces after them
    return QuadMesh(verts, faces, vertex_normals=vnorm)


def extract_surface(model: HrbfModel, centers, normals, width, workers=1) -> QuadMesh:
    grid = collect_active_voxels(model, centers, normals, width, workers)
    return contour(grid, workers=workers)


def _face_edge_keys(faces, n_vertices):
    """Key min * n_vertices + max of each face side, side by side: (k * nf,),
    face index = position % nf."""
    nf, k = faces.shape
    keys = np.empty(k * nf, dtype=np.int64)
    for a in range(k):
        u, v, out = faces[:, a], faces[:, (a + 1) % k], keys[a * nf : (a + 1) * nf]
        np.minimum(u, v, out=out)
        out *= n_vertices
        out += np.maximum(u, v)
    return keys


def boundary_edge_count(mesh: QuadMesh):
    """Edges used by exactly one face (zero on a closed mesh)."""
    if mesh.n_faces == 0:
        return 0
    _, counts = np.unique(_face_edge_keys(mesh.faces, mesh.n_vertices), return_counts=True)
    return int(np.count_nonzero(counts == 1))


def face_components(mesh: QuadMesh):
    """Connected-component label per face, linking faces that share an edge."""
    nf = mesh.n_faces
    if nf == 0:
        return np.empty(0, dtype=np.int64)
    keys = _face_edge_keys(mesh.faces, mesh.n_vertices)
    order = np.argsort(keys, kind="stable")
    keys.sort()
    same = keys[1:] == keys[:-1]
    del keys
    np.remainder(order, nf, out=order)
    face_ids = order.astype(np.int32 if nf < 2**31 else np.int64)
    del order
    src = face_ids[:-1][same]
    dst = face_ids[1:][same]
    graph = sp.coo_matrix((np.ones(len(src)), (src, dst)), shape=(nf, nf))
    _, labels = connected_components(graph, directed=False)
    return labels


def remove_small_fragments(mesh: QuadMesh, min_faces) -> QuadMesh:
    """Drop connected components with fewer than min_faces faces.

    The largest component is always kept, even if below the cutoff.  A
    mesh that loses no face and uses every vertex is returned as it is.
    """
    if mesh.n_faces == 0:
        return mesh
    labels = face_components(mesh)
    sizes = np.bincount(labels)
    keep_label = sizes >= min_faces
    if not keep_label.any():
        keep_label[np.argmax(sizes)] = True
    faces = mesh.faces if keep_label.all() else mesh.faces[keep_label[labels]]
    used = np.bincount(faces.ravel(), minlength=mesh.n_vertices) > 0
    if len(faces) == mesh.n_faces and used.all():
        return mesh
    remap = np.cumsum(used) - 1
    vn = mesh.vertex_normals[used] if mesh.vertex_normals is not None else None
    return QuadMesh(mesh.vertices[used], remap[faces], vn)
