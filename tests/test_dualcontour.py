"""Dual contouring pieces: lattice keys, edge roots, QEF vertices, topology."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hrbfsurf import dualcontour
from hrbfsurf.dualcontour import (
    _CORNER_OFFSETS,
    _EDGES,
    SEED_STEPS,
    ActiveSetOverflow,
    IncidenceOverflow,
    QuadMesh,
    VoxelGrid,
    _batch_edge_roots,
    _qef_vertices,
    boundary_edge_count,
    collect_active_voxels,
    contour,
    extract_surface,
    face_components,
    remove_small_fragments,
)
from hrbfsurf.metrics import NoiseSpec, estimate_normals_pca, inject_noise
from hrbfsurf.model import _BRICK, ROOT_TOL, LatticeTable, edge_records, model_from_arrays
from hrbfsurf.pipeline import ReconConfig, StageError, reconstruct_points
from hrbfsurf.pointset import HermitePointSet, normalize_to_unit_box
from hrbfsurf.sampling import sphere_points, two_density_sphere

from conftest import cells_near, sign_change_edges, tuned_model
from oracles import (
    ImplicitField,
    canonical_mesh_digest,
    edge_root,
    emit_quads,
    grow_active_voxels,
    place_vertex,
    search_active_voxels,
    surface_error,
    voxel_coords,
    voxel_corner_values,
)


class SphereField:
    """Analytic signed distance to a sphere, for the scalar oracle's own tests."""

    def __init__(self, radius=1.0):
        self.radius = radius

    def values(self, x):
        return np.linalg.norm(np.asarray(x, dtype=np.float64), axis=1) - self.radius

    def evaluate(self, x, want_gradient=False):
        x = np.asarray(x, dtype=np.float64).reshape(-1, 3)
        r = np.linalg.norm(x, axis=1)
        vals = r - self.radius
        grads = x / np.maximum(r, 1e-300)[:, None] if want_gradient else None
        return vals, grads, np.ones(len(x), dtype=bool)


def test_surface_error_of_a_sphere_field():
    # the zero set of the signed distance to a sphere of radius 1 + delta lies
    # delta from the unit sphere; a field defined only where z > 0 loses the
    # points below
    delta = 0.03
    pts = sphere_points(500, seed=5).points
    off_unit = lambda x: np.abs(np.linalg.norm(x, axis=1) - 1.0)
    err = surface_error(SphereField(1.0 + delta), pts, off_unit)
    assert err.lost == 0
    assert err.mean == pytest.approx(delta, rel=1e-12) and err.p90 == pytest.approx(delta, rel=1e-12)

    class UpperSphereField(SphereField):
        def evaluate(self, x, want_gradient=False):
            vals, grads, _ = super().evaluate(x, want_gradient)
            defined = np.asarray(x).reshape(-1, 3)[:, 2] > 0.0
            return np.where(defined, vals, np.nan), grads, defined

    upper = surface_error(UpperSphereField(1.0 + delta), pts, off_unit)
    assert upper.lost == np.count_nonzero(pts[:, 2] <= 0.0) > 0
    assert upper.mean == pytest.approx(delta, rel=1e-12)


@pytest.fixture(scope="module")
def sphere_model():
    ps = sphere_points(1500, seed=1)
    return model_from_arrays(ps.points, ps.normals, 0.3, 1.0)


@pytest.fixture(scope="module")
def key_table():
    # a table of about 8^3 cells; offsets -3..12 reach past it on every side
    model = model_from_arrays([[0.0, 0.0, 0.0], [0.3, 0.1, -0.2]], [[0.0, 0.0, 1.0]] * 2, 0.25, 1.0)
    return LatticeTable(model, np.full(3, -0.4), 0.1)


offset = st.integers(-3, 12)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(offset, offset, offset), min_size=1, max_size=40))
def test_table_keys_roundtrip_and_order(key_table, offsets):
    table = key_table
    coords = table.gmin + np.array(offsets, dtype=np.int64)
    keys = table.keys(coords)
    inside = np.all((coords >= table.gmin) & (coords < table.gmin + table.shape), axis=1)
    assert np.all(keys[~inside] == -1)
    assert np.all((keys[inside] >= 0) & (keys[inside] < np.prod(table.shape)))
    c, k = coords[inside], keys[inside]
    np.testing.assert_array_equal(table.coords(k), c)
    # distinct cells get distinct keys, and key order is lexicographic order
    assert len(np.unique(k)) == len(np.unique(c, axis=0))
    by_coord = np.lexsort((c[:, 2], c[:, 1], c[:, 0]))
    assert np.array_equal(k[by_coord], np.sort(k))


def test_table_rejects_too_fine_width(sphere_model):
    # edge keys (4 per cell) must fit in int64
    with pytest.raises(ValueError, match="voxel width 1e-07"):
        LatticeTable(sphere_model, sphere_model.centers.min(axis=0), 1e-7)
    with pytest.raises(StageError, match="voxel width") as exc:
        reconstruct_points(sphere_points(200, seed=2), ReconConfig(voxel_width=1e-7))
    assert exc.value.stage == "extract"


def test_edge_root_on_sphere():
    f = SphereField(1.0)
    hit = edge_root(f, [0.9, 0.0, 0.0], [1.1, 0.0, 0.0], tol=1e-12)
    np.testing.assert_allclose(hit.position, [1.0, 0.0, 0.0], atol=1e-8)
    np.testing.assert_allclose(hit.normal, [1.0, 0.0, 0.0], atol=1e-8)
    # swapped endpoints find the same crossing
    hit2 = edge_root(f, [1.1, 0.0, 0.0], [0.9, 0.0, 0.0], tol=1e-12)
    np.testing.assert_allclose(hit2.position, hit.position, atol=1e-8)


def test_edge_root_rejects_same_sign():
    f = SphereField(1.0)
    with pytest.raises(ValueError):
        edge_root(f, [0.1, 0.0, 0.0], [0.2, 0.0, 0.0], tol=1e-9)


def test_batch_edge_roots_match_scalar(sphere_model):
    w = 0.05
    origin = sphere_model.centers.min(axis=0) - 2 * w
    table = LatticeTable(sphere_model, origin, w)
    edges = sign_change_edges(table, cells_near(sphere_model.centers[:40], origin, w, 1))
    rows = np.random.default_rng(0).choice(len(edges[0]), 50, replace=False)
    edges, lo, hi = (x[rows] for x in edges)
    roots, normals = _batch_edge_roots(table, edges, tol=1e-12)
    field = ImplicitField(sphere_model)
    for i in range(len(edges)):
        hit = edge_root(field, lo[i], hi[i], tol=1e-12)
        np.testing.assert_allclose(roots[i], hit.position, atol=1e-9)
        np.testing.assert_allclose(normals[i], hit.normal, atol=1e-9)


def test_batch_edge_roots_fallback_normal():
    # one kernel at the origin with a zero normal: the field is 0 wherever it
    # is defined.  Edges from cell (0, 0, 0) lie in its support, where the
    # gradient is exactly zero; edges from the table's first cell lie outside
    # it, where the gradient is nan.  Both get +-e_axis as their normal,
    # pointing from the negative end to the positive end
    model = model_from_arrays([[0.0, 0.0, 0.0]], [[0.0, 0.0, 0.0]], 0.5, 1.0)
    table = LatticeTable(model, np.zeros(3), 0.1)
    corner = np.repeat([[0, 0, 0], table.gmin], 6, axis=0)
    axis = np.tile(np.repeat([0, 1, 2], 2), 2)
    up = np.tile([True, False], 6)
    f_lo = np.where(up, -1.0, 1.0)
    edges = edge_records(corner, axis, f_lo, -f_lo)
    _, grads = dualcontour.axis_edge_roots(table, edges, ROOT_TOL)
    assert np.all(grads[:6] == 0.0) and np.all(np.isnan(grads[6:]))
    _, normals = _batch_edge_roots(table, edges, ROOT_TOL)
    assert np.array_equal(normals, np.where(up, 1.0, -1.0)[:, None] * np.eye(3)[axis])


def test_place_vertex_three_planes():
    target = np.array([0.3, -0.2, 0.7])
    normals = np.eye(3)
    positions = np.array(
        [[0.3, 5.0, -2.0], [-4.0, -0.2, 3.0], [1.0, 2.0, 0.7]]
    )
    v = place_vertex(positions, normals, reg=1e-12)
    np.testing.assert_allclose(v, target, atol=1e-9)


def test_place_vertex_clamped_to_box():
    # a single plane constraint is rank deficient; the centroid pull plus the
    # box clamp must keep the vertex inside the voxel
    v = place_vertex([[10.0, 0.0, 0.0]], [[1.0, 0.0, 0.0]], box=(np.zeros(3), np.ones(3)))
    assert np.all(v >= 0.0) and np.all(v <= 1.0)


def test_place_vertex_requires_points():
    with pytest.raises(ValueError):
        place_vertex(np.empty((0, 3)), np.empty((0, 3)))


def test_voxel_grid_corner_position(sphere_model):
    table = LatticeTable(sphere_model, np.array([1.0, 2.0, 3.0]), 0.5)
    g = VoxelGrid(table, np.zeros(1, np.int64), np.zeros(1, np.uint8))
    assert g.width == 0.5
    np.testing.assert_allclose(g.corner_position([[2, 0, -2]]), [[2.0, 2.0, 2.0]])


# seeds on the unit sphere, normals pointing outward
_AXIS_POINTS = np.array([[1.0, 0, 0], [-1.0, 0, 0], [0, 1.0, 0], [0, -1.0, 0],
                         [0, 0, 1.0], [0, 0, -1.0]])


@pytest.fixture(scope="module")
def sphere_grid_and_mesh(sphere_model):
    grid = collect_active_voxels(sphere_model, _AXIS_POINTS, _AXIS_POINTS, width=0.1)
    mesh = contour(grid)
    return sphere_model, grid, mesh


def test_active_voxels_straddle_surface(sphere_grid_and_mesh):
    _, grid, _ = sphere_grid_and_mesh
    assert grid.n_active > 100
    # every active voxel has corners on both sides
    vals = voxel_corner_values(grid)
    assert np.all(vals.min(axis=1) < 0)
    assert np.all(vals.max(axis=1) >= 0)
    # voxel centers sit within a corner diagonal of the surface
    centers = grid.corner_position(voxel_coords(grid)) + 0.05
    r = np.linalg.norm(centers, axis=1)
    assert np.abs(r - 1.0).max() < 0.1 * np.sqrt(3.0)


def test_sphere_mesh_closed_and_accurate(sphere_grid_and_mesh):
    _, grid, mesh = sphere_grid_and_mesh
    assert mesh.n_faces > 0
    assert boundary_edge_count(mesh) == 0
    r = np.linalg.norm(mesh.vertices, axis=1)
    assert np.abs(r - 1.0).max() < 0.05
    # quads wind outward: the face normal should align with the radial direction
    v = mesh.vertices
    f = mesh.faces
    fn = np.cross(v[f[:, 2]] - v[f[:, 0]], v[f[:, 3]] - v[f[:, 1]])
    centroid = v[f].mean(axis=1)
    outward = np.einsum("ij,ij->i", fn, centroid)
    assert (outward > 0).mean() > 0.999


def _canonical_faces(faces):
    # the same quad may start at a different ring corner
    out = set()
    for fc in faces.tolist():
        k = int(np.argmin(fc))
        out.add(tuple(fc[k:] + fc[:k]))
    return out


def test_contour_matches_emit_quads(sphere_grid_and_mesh):
    _, grid, mesh = sphere_grid_and_mesh
    ref = emit_quads(grid, mesh.vertices, mesh.vertex_normals)
    assert _canonical_faces(mesh.faces) == _canonical_faces(ref.faces)


def test_open_cap_quads_match_emit_quads():
    # a cap of the sphere leaves an open rim, where an edge has a voxel around
    # it that is not active; the quads come from the (voxel, edge) incidences,
    # with the voxels of incidence group e in ring slot _RING_POS[e]
    ps = sphere_points(1500, seed=1)
    cap = ps.points[:, 2] > 0.2
    model = model_from_arrays(ps.points[cap], ps.normals[cap], 0.3, 1.0)
    grid = collect_active_voxels(model, model.centers, model.normals, 0.05)
    vox_rows, starts, inverse, edges = dualcontour._unique_edges(grid)
    coords = voxel_coords(grid)
    for e, (s, t) in enumerate(zip(starts[:-1], starts[1:])):
        ring = dualcontour._AXIS_RING[_EDGES[e, 2], dualcontour._RING_POS[e]]
        assert t > s
        assert np.array_equal(edges["corner"][inverse[s:t]] + ring, coords[vox_rows[s:t]])
    mesh = contour(grid)
    assert mesh.n_faces > 1000
    assert boundary_edge_count(mesh) > 0
    ref = emit_quads(grid, mesh.vertices, mesh.vertex_normals)
    assert _canonical_faces(mesh.faces) == _canonical_faces(ref.faces)


def test_contour_vertices_match_place_vertex(sphere_grid_and_mesh):
    # the vectorised QEF against the scalar one, voxel by voxel, over the
    # same edge intersections that contour computes
    _, grid, mesh = sphere_grid_and_mesh
    w = grid.width
    coords, vals = voxel_coords(grid), voxel_corner_values(grid)
    corners = coords[:, None, :] + _CORNER_OFFSETS[None, :, :]
    rows, lower, axes, f_lo, f_hi = [], [], [], [], []
    for ca, cb, axis in _EDGES:
        va, vb = vals[:, ca], vals[:, cb]
        for row in np.flatnonzero((va < 0) != (vb < 0)):
            rows.append(row)
            lower.append(corners[row, ca])
            axes.append(axis)
            f_lo.append(va[row])
            f_hi.append(vb[row])
    rows = np.array(rows)
    roots, normals = _batch_edge_roots(grid.table, edge_records(lower, axes, f_lo, f_hi), ROOT_TOL)
    for row in range(grid.n_active):
        lo = grid.corner_position(coords[row])
        sel = rows == row
        want = place_vertex(roots[sel], normals[sel], box=(lo, lo + w))
        np.testing.assert_allclose(mesh.vertices[row], want, atol=1e-9)
    # one pass over every incidence in the order above, the order in which
    # contour's chunks add each voxel's terms, gives the same bytes
    verts, vnorm = _qef_vertices(rows, roots, normals, grid, coords)
    assert mesh.vertices.tobytes() == verts.tobytes()
    assert mesh.vertex_normals.tobytes() == vnorm.tobytes()


def test_contour_independent_of_filled_bricks(sphere_grid_and_mesh):
    # the edge roots read the cells one edge beyond each sign-change edge,
    # which the search need not have filled; fetch fills their bricks on
    # demand, so a table emptied before contour gives the same bytes
    sphere_model, _, ref = sphere_grid_and_mesh
    grid = collect_active_voxels(sphere_model, _AXIS_POINTS, _AXIS_POINTS, width=0.1)
    assert grid.table._n_filled > 0
    grid.table.clear()
    mesh = contour(grid)
    assert grid.table._n_filled == 0  # emptied once the roots are found
    assert mesh.vertices.tobytes() == ref.vertices.tobytes()
    assert mesh.faces.tobytes() == ref.faces.tobytes()
    assert mesh.vertex_normals.tobytes() == ref.vertex_normals.tobytes()


def test_unique_edges_reads_filled_bricks(sphere_model):
    # sign changes come from the codes and end values from the bricks the
    # search filled; re-sorted by (key, axis), the axis-major records are
    # those taken from each edge's first incidence in edge key order
    grid = collect_active_voxels(sphere_model, _AXIS_POINTS, _AXIS_POINTS, width=0.1)
    table, filled = grid.table, grid.table._n_filled
    vox_rows, starts, inverse, edges = dualcontour._unique_edges(grid)
    assert table._n_filled == filled
    coords, vals = voxel_coords(grid), voxel_corner_values(grid)
    rows, keys, recs = [], [], []
    for ca, cb, axis in _EDGES:
        hit = np.flatnonzero((vals[:, ca] < 0) != (vals[:, cb] < 0))
        lower = coords[hit] + _CORNER_OFFSETS[ca]
        rows.append(hit)
        keys.append(table.keys(lower) * 4 + axis)
        recs.append(edge_records(lower, axis, vals[hit, ca], vals[hit, cb]))
    keys, recs = np.concatenate(keys), np.concatenate(recs)
    assert np.array_equal(vox_rows, np.concatenate(rows))
    assert np.array_equal(starts, np.cumsum([0] + [len(r) for r in rows]))
    edge_keys = table.keys(edges["corner"]) * 4 + edges["axis"]
    assert np.array_equal(edge_keys[inverse], keys)
    assert np.all(np.diff(edges["axis"]) >= 0)
    _, first = np.unique(keys, return_index=True)
    got = edges[np.argsort(edge_keys)]
    for name in edges.dtype.names:
        assert got[name].tobytes() == recs[first][name].tobytes()


def test_extract_surface_deterministic(sphere_model):
    centers = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    m1 = extract_surface(sphere_model, centers, centers, width=0.15)
    m2 = extract_surface(sphere_model, centers, centers, width=0.15)
    assert m1.vertices.tobytes() == m2.vertices.tobytes()
    assert m1.faces.tobytes() == m2.faces.tobytes()


@pytest.mark.parametrize("fetch_voxels", [dualcontour._FETCH_VOXELS, 7])
def test_search_order_matches_set_oracle(sphere_ps, monkeypatch, fetch_voxels):
    # the sorted-array tested set and the chunked corner fetch find the same
    # voxels in the same order as the set-based edge-growth search
    _, _, model = tuned_model(sphere_ps)
    monkeypatch.setattr(dualcontour, "_FETCH_VOXELS", fetch_voxels)
    grid = collect_active_voxels(model, model.centers, model.normals, 0.04)
    ref = grow_active_voxels(model, model.centers, model.normals, 0.04)
    assert grid.n_active > 1000
    assert grid.keys.tobytes() == ref.keys.tobytes()
    vals = voxel_corner_values(grid)
    assert vals.tobytes() == voxel_corner_values(ref).tobytes()
    # bit c of a code is set where corner c is negative
    assert np.array_equal((grid.codes[:, None] >> np.arange(8)) & 1, vals < 0)


def _noisy_sphere():
    ps = sphere_points(600, seed=6)
    noisy = inject_noise(ps, NoiseSpec(60.0, seed=60))
    return estimate_normals_pca(noisy.points, ps.normals, p_neighbors=6)


def _shells():
    # a unit sphere, an inward-facing shell inside it and a separate small sphere
    outer = sphere_points(3000, seed=11)
    inner = sphere_points(2500, radius=0.93, seed=12)
    small = sphere_points(600, radius=0.4, center=(1.8, 0.0, 0.0), seed=13)
    return HermitePointSet(
        np.concatenate([outer.points, inner.points, small.points]),
        np.concatenate([outer.normals, -inner.normals, small.normals]),
    )


@pytest.mark.parametrize(
    "make_points, tuning, width",
    [
        (lambda: sphere_points(1500, seed=3), {}, 0.04),
        (lambda: sphere_points(1500, seed=3), {}, 0.02),
        (lambda: two_density_sphere(6000, 60, seed=0), {}, 0.02),
        (_noisy_sphere, {"s": 3.5, "noisy_mode": True}, 0.02),
        (_shells, {}, 0.03),
        (_shells, {}, 0.015),
    ],
    ids=["sphere-w0.04", "sphere-w0.02", "two-density-w0.02", "noisy-w0.02", "shells-w0.03", "shells-w0.015"],
)
def test_search_active_set_matches_face_bfs(make_points, tuning, width):
    # growth across sign-change edges with lazy probes finds the same active
    # voxels, with the same corner values, as a face-adjacency search seeded
    # from every center and probe
    _, _, model = tuned_model(make_points(), **tuning)
    grid = collect_active_voxels(model, model.centers, model.normals, width)
    ref = search_active_voxels(model, model.centers, model.normals, width)
    order, ref_order = np.argsort(grid.keys), np.argsort(ref.keys)
    assert grid.n_active > 1000
    assert grid.keys[order].tobytes() == ref.keys[ref_order].tobytes()
    vals = voxel_corner_values(grid)
    assert vals[order].tobytes() == voxel_corner_values(ref)[ref_order].tobytes()
    assert np.array_equal((grid.codes[:, None] >> np.arange(8)) & 1, vals < 0)


def test_search_fills_only_bricks_of_active_or_seed_voxels():
    # every brick the search fills holds a corner of an active voxel or of a
    # voxel holding a center or one of its normal probes
    _, _, model = tuned_model(sphere_points(1500, seed=3))
    w = 0.02
    grid = collect_active_voxels(model, model.centers, model.normals, w)
    table = grid.table
    steps = np.arange(-SEED_STEPS, SEED_STEPS + 1)
    probes = model.centers + (steps * w)[:, None, None] * model.normals
    seeds = np.floor((probes.reshape(-1, 3) - table.origin) / w).astype(np.int64)
    voxels = np.concatenate([voxel_coords(grid), seeds[table.keys(seeds) >= 0]])
    cells = (voxels[:, None, :] + _CORNER_OFFSETS[None, :, :]).reshape(-1, 3) - table.gmin
    cells = cells[np.all((cells >= 0) & (cells < table.shape), axis=1)]
    read = np.unique(np.ravel_multi_index(tuple((cells // _BRICK).T), tuple(table._nb)))
    filled = table._keys[:-1]
    assert len(filled) == table._n_filled > 0
    assert np.isin(filled, read).all(), f"{np.count_nonzero(~np.isin(filled, read))} of {len(filled)} bricks"


def test_pipeline_mesh_matches_face_bfs_oracle():
    # the pipeline's mesh is the face-BFS oracle's grid contoured, up to the
    # order in which the search found its voxels
    ps = sphere_points(1500, seed=3)
    cfg = ReconConfig(voxel_width=0.04)
    mesh, _ = reconstruct_points(ps, cfg)
    _, _, model = tuned_model(ps)
    ref = contour(search_active_voxels(model, model.centers, model.normals, cfg.voxel_width))
    ref = remove_small_fragments(ref, cfg.min_fragment_faces)
    ref = QuadMesh(normalize_to_unit_box(ps)[1].inverse().apply(ref.vertices), ref.faces, ref.vertex_normals)
    assert mesh.n_faces > 1000
    assert canonical_mesh_digest(mesh) == canonical_mesh_digest(ref)


def test_canonical_mesh_digest_ignores_vertex_order():
    rng = np.random.default_rng(5)
    verts, normals = rng.normal(size=(12, 3)), rng.normal(size=(12, 3))
    faces = np.array([[0, 1, 2, 3], [3, 2, 4, 5], [6, 7, 8, 9], [9, 8, 10, 11]])
    mesh = QuadMesh(verts, faces, normals)
    perm = rng.permutation(12)
    inv = np.argsort(perm)
    shuffled = QuadMesh(verts[perm], np.roll(inv[faces], 1, axis=1)[::-1], normals[perm])
    assert canonical_mesh_digest(shuffled) == canonical_mesh_digest(mesh)
    # reversed winding or moved vertices change it
    assert canonical_mesh_digest(QuadMesh(verts, faces[:, ::-1], normals)) != canonical_mesh_digest(mesh)
    moved = verts.copy()
    moved[4, 0] += 1e-12
    assert canonical_mesh_digest(QuadMesh(moved, faces, normals)) != canonical_mesh_digest(mesh)


def test_extract_surface_chunk_invariant(sphere_model, monkeypatch):
    # QEF chunks of a few voxel rows, cubic starts over slices of a few edges
    # and corner fetches of a few voxels give the same roots, gradients and
    # mesh bytes as the default chunks
    roots_fn, found = dualcontour.axis_edge_roots, []
    monkeypatch.setattr(dualcontour, "axis_edge_roots", lambda *a, **k: found.append(roots_fn(*a, **k)) or found[-1])
    ref = extract_surface(sphere_model, _AXIS_POINTS, _AXIS_POINTS, width=0.1)
    monkeypatch.setattr(dualcontour, "_QEF_VOXELS", 5)
    monkeypatch.setattr(dualcontour, "_FETCH_VOXELS", 3)
    monkeypatch.setattr("hrbfsurf.model._EVAL_CHUNK", 4)
    mesh = extract_surface(sphere_model, _AXIS_POINTS, _AXIS_POINTS, width=0.1)
    assert mesh.n_vertices > 1000
    (ref_roots, ref_grads), (roots, grads) = found
    assert roots.tobytes() == ref_roots.tobytes()
    assert grads.tobytes() == ref_grads.tobytes()
    assert mesh.vertices.tobytes() == ref.vertices.tobytes()
    assert mesh.faces.tobytes() == ref.faces.tobytes()
    assert mesh.vertex_normals.tobytes() == ref.vertex_normals.tobytes()


def test_contour_incidence_overflow(sphere_grid_and_mesh, monkeypatch):
    # voxel rows and edge indices are int32, so contour refuses more incidences
    _, grid, _ = sphere_grid_and_mesh
    monkeypatch.setattr(dualcontour, "_MAX_INCIDENCES", 100)
    with pytest.raises(IncidenceOverflow):
        contour(grid)


def test_extraction_memory_grows_with_surface(monkeypatch):
    # traced peak bytes of the search plus contour at two widths: halving w
    # quadruples the active voxels, and what that adds to the peak is the
    # extraction's cost per active voxel.  The peak inside axis_edge_roots
    # above what is held at its call is taken the same way per edge
    _, _, model = tuned_model(sphere_points(3000, seed=4))
    roots_fn, inner = dualcontour.axis_edge_roots, []

    def traced_roots(table, edges, *args, **kwargs):
        held, before = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        out = roots_fn(table, edges, *args, **kwargs)
        inner.append((len(edges), tracemalloc.get_traced_memory()[1] - held, before))
        return out

    monkeypatch.setattr(dualcontour, "axis_edge_roots", traced_roots)
    runs = []
    for w in (0.02, 0.01):
        inner.clear()
        tracemalloc.start()
        try:
            grid = collect_active_voxels(model, model.centers, model.normals, w)
            n_active = grid.n_active
            contour(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del grid
        (n_edges, growth, before), = inner
        runs.append((n_active, max(peak, before), n_edges, growth))
    (n0, peak0, e0, growth0), (n1, peak1, e1, growth1) = runs
    assert n1 > 3 * n0
    # measured 157 B and 38 B; the bounds leave under 20% above them
    assert (peak1 - peak0) / (n1 - n0) <= 188
    assert (growth1 - growth0) / (e1 - e0) <= 42


def test_wide_kernel_memory_bounded_by_listing_pieces(monkeypatch):
    # noisy mode gives every center one wide radius, so hundreds of kernels
    # reach each brick, and a batch's kernel listing grown with its bricks
    # would set the peak.  Listed in pieces of _LIST_PAIRS pairs, the traced
    # peak inside one _fill and inside axis_edge_roots, above what is held at
    # the call, must not grow when _FILL_BRICKS doubles.  The budget is
    # scaled down with the batches, so that each batch holds several pieces
    _, tp, model = tuned_model(_noisy_sphere(), s=3.5, noisy_mode=True)
    assert tp.uniform_support and tp.m > 300
    w = 0.04
    grid = collect_active_voxels(model, model.centers, model.normals, w)
    bricks = grid.table._keys[:-1].copy()
    roots_fn, found = dualcontour.axis_edge_roots, []
    monkeypatch.setattr(
        dualcontour, "axis_edge_roots", lambda table, edges, *a, **k: found.append(edges) or roots_fn(table, edges, *a, **k)
    )
    contour(grid)
    (edges,) = found
    assert len(bricks) > 1024
    monkeypatch.setattr("hrbfsurf.model._LIST_PAIRS", 1 << 14)
    peaks = []
    for batch in (256, 512):
        monkeypatch.setattr("hrbfsurf.model._FILL_BRICKS", batch)
        table = LatticeTable(model, grid.table.origin, w)
        tracemalloc.start()
        try:
            held = tracemalloc.get_traced_memory()[0]
            table._fill(bricks)
            fill = tracemalloc.get_traced_memory()[1] - held
            held = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            roots_fn(table, edges, ROOT_TOL)
            roots = tracemalloc.get_traced_memory()[1] - held
        finally:
            tracemalloc.stop()
        peaks.append((fill, roots))
    (fill0, roots0), (fill1, roots1) = peaks
    # listed whole, the larger batches raise the two peaks by 34% and 13% here
    assert fill1 <= 1.05 * fill0
    assert roots1 <= 1.05 * roots0


def test_active_set_overflow(sphere_model, monkeypatch):
    centers = np.array([[1.0, 0.0, 0.0]])
    monkeypatch.setattr(dualcontour, "MAX_ACTIVE", 50)
    with pytest.raises(ActiveSetOverflow) as exc:
        collect_active_voxels(sphere_model, centers, centers, width=0.02)
    assert exc.value.suggested_width > 0.02


def test_boundary_edge_count_basics():
    quad = QuadMesh(np.zeros((6, 3)), np.array([[0, 1, 2, 3]]))
    assert boundary_edge_count(quad) == 4
    two = QuadMesh(np.zeros((6, 3)), np.array([[0, 1, 2, 3], [1, 4, 5, 2]]))
    assert boundary_edge_count(two) == 6
    assert boundary_edge_count(QuadMesh(np.empty((0, 3)), np.empty((0, 4), np.int64))) == 0


def _components_oracle(faces):
    nf = len(faces)
    edge_to_faces = {}
    for fi, fc in enumerate(faces):
        k = len(fc)
        for a in range(k):
            e = tuple(sorted((fc[a], fc[(a + 1) % k])))
            edge_to_faces.setdefault(e, []).append(fi)
    adj = [[] for _ in range(nf)]
    for lst in edge_to_faces.values():
        for a in lst:
            for b in lst:
                if a != b:
                    adj[a].append(b)
    label = [-1] * nf
    cur = 0
    for start in range(nf):
        if label[start] != -1:
            continue
        stack = [start]
        while stack:
            fi = stack.pop()
            if label[fi] != -1:
                continue
            label[fi] = cur
            stack.extend(adj[fi])
        cur += 1
    return label


def test_face_components_matches_dfs_oracle():
    rng = np.random.default_rng(4)
    for _ in range(10):
        nf = int(rng.integers(2, 30))
        faces = rng.integers(0, 40, (nf, 4))
        # avoid degenerate repeated indices inside one face
        faces = np.array([f if len(set(f)) == 4 else [0, 1, 2, 3] for f in faces])
        mesh = QuadMesh(np.zeros((40, 3)), faces)
        got = face_components(mesh)
        want = _components_oracle(faces.tolist())
        # same partition up to label renaming
        mapping = {}
        for g, w in zip(got.tolist(), want):
            mapping.setdefault(g, w)
            assert mapping[g] == w
        assert len(set(got.tolist())) == len(set(want))


def test_remove_small_fragments():
    # two separate strips of 3 and 1 quads
    faces = np.array(
        [[0, 1, 2, 3], [1, 4, 5, 2], [4, 6, 7, 5], [8, 9, 10, 11]]
    )
    mesh = QuadMesh(np.zeros((12, 3)), faces)
    kept = remove_small_fragments(mesh, min_faces=2)
    assert kept.n_faces == 3
    # when everything is below the cutoff, the largest component survives
    kept_all = remove_small_fragments(mesh, min_faces=100)
    assert kept_all.n_faces == 3
    # nothing dropped and every vertex used: the input comes back as it is
    assert remove_small_fragments(mesh, min_faces=0) is mesh
    # a vertex no face uses is dropped even when every face is kept
    padded = remove_small_fragments(QuadMesh(np.arange(39.0).reshape(13, 3), faces), min_faces=0)
    assert padded.faces.tobytes() == faces.tobytes()
    assert padded.vertices.tobytes() == np.arange(36.0).tobytes()
