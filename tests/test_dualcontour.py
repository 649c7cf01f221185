"""Dual contouring pieces: lattice keys, edge roots, QEF vertices, topology."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hrbfsurf import dualcontour
from hrbfsurf.dualcontour import (
    _CORNER_OFFSETS,
    _EDGES,
    ActiveSetOverflow,
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
from hrbfsurf.model import ROOT_TOL, ImplicitField, LatticeTable, model_from_arrays
from hrbfsurf.pipeline import ReconConfig, StageError, reconstruct_points
from hrbfsurf.sampling import sphere_points

from conftest import cells_near, sign_change_edges, tuned_model
from oracles import edge_root, emit_quads, place_vertex, search_active_voxels


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
    corner, p_neg, p_pos, f_neg, f_pos = (x[rows] for x in edges)
    roots, normals = _batch_edge_roots(table, corner, p_neg, p_pos, f_neg, f_pos, tol=1e-12)
    field = ImplicitField(sphere_model)
    for i in range(len(corner)):
        hit = edge_root(field, p_neg[i], p_pos[i], tol=1e-12)
        np.testing.assert_allclose(roots[i], hit.position, atol=1e-9)
        np.testing.assert_allclose(normals[i], hit.normal, atol=1e-9)


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
    g = VoxelGrid(table, np.zeros((1, 3), np.int64), np.zeros((1, 8)))
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
    assert np.all(grid.corner_values.min(axis=1) < 0)
    assert np.all(grid.corner_values.max(axis=1) >= 0)
    # voxel centers sit within a corner diagonal of the surface
    centers = grid.corner_position(grid.coords) + 0.05
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


def test_contour_matches_emit_quads(sphere_grid_and_mesh):
    _, grid, mesh = sphere_grid_and_mesh
    ref = emit_quads(grid, mesh.vertices, mesh.vertex_normals)
    got = {tuple(fc) for fc in mesh.faces.tolist()}
    want = {tuple(fc) for fc in ref.faces.tolist()}
    # the same quad may start at a different ring corner; compare canonically
    def canon(fs):
        out = set()
        for fc in fs:
            k = int(np.argmin(fc))
            out.add(tuple(fc[k:] + fc[:k]))
        return out
    assert canon(got) == canon(want)


def test_contour_vertices_match_place_vertex(sphere_grid_and_mesh):
    # the vectorised QEF against the scalar one, voxel by voxel, over the
    # same edge intersections that contour computes
    _, grid, mesh = sphere_grid_and_mesh
    w = grid.width
    corners = grid.coords[:, None, :] + _CORNER_OFFSETS[None, :, :]
    rows, lower, p_neg, p_pos, f_neg, f_pos = [], [], [], [], [], []
    for ca, cb, axis in _EDGES:
        va, vb = grid.corner_values[:, ca], grid.corner_values[:, cb]
        for row in np.flatnonzero((va < 0) != (vb < 0)):
            a = grid.corner_position(corners[row, ca])
            b = a.copy()
            b[axis] += w
            rows.append(row)
            lower.append(corners[row, ca])
            p_neg.append(a if va[row] < 0 else b)
            p_pos.append(b if va[row] < 0 else a)
            f_neg.append(min(va[row], vb[row]))
            f_pos.append(max(va[row], vb[row]))
    rows = np.array(rows)
    roots, normals = _batch_edge_roots(
        grid.table, lower, np.array(p_neg), np.array(p_pos), f_neg, f_pos, ROOT_TOL
    )
    for row in range(grid.n_active):
        lo = grid.corner_position(grid.coords[row])
        sel = rows == row
        want = place_vertex(roots[sel], normals[sel], box=(lo, lo + w))
        np.testing.assert_allclose(mesh.vertices[row], want, atol=1e-9)
    # one pass over every incidence in the order above, the order in which
    # contour's chunks add each voxel's terms, gives the same bytes
    verts, vnorm = _qef_vertices(rows, roots, normals, grid, grid.coords)
    assert mesh.vertices.tobytes() == verts.tobytes()
    assert mesh.vertex_normals.tobytes() == vnorm.tobytes()


def test_contour_fills_no_brick(sphere_grid_and_mesh, monkeypatch):
    # the search tests both face neighbours of every active voxel along each
    # axis, so the cells one edge beyond each sign-change edge, which the
    # edge roots read for their first point, are filled before contour runs
    sphere_model, _, ref = sphere_grid_and_mesh
    grid = collect_active_voxels(sphere_model, _AXIS_POINTS, _AXIS_POINTS, width=0.1)
    assert grid.table._n_filled > 0
    calls = []
    fill = LatticeTable._fill

    def record(self, bricks):
        calls.append(len(bricks))
        fill(self, bricks)

    monkeypatch.setattr(LatticeTable, "_fill", record)
    mesh = contour(grid)
    assert calls == []
    assert grid.table._n_filled == 0  # emptied once the roots are found
    assert mesh.vertices.tobytes() == ref.vertices.tobytes()
    assert mesh.faces.tobytes() == ref.faces.tobytes()


def test_extract_surface_deterministic(sphere_model):
    centers = np.array([[0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    m1 = extract_surface(sphere_model, centers, centers, width=0.15)
    m2 = extract_surface(sphere_model, centers, centers, width=0.15)
    assert m1.vertices.tobytes() == m2.vertices.tobytes()
    assert m1.faces.tobytes() == m2.faces.tobytes()


@pytest.mark.parametrize("fetch_voxels", [dualcontour._FETCH_VOXELS, 7])
def test_search_order_matches_set_oracle(sphere_ps, monkeypatch, fetch_voxels):
    # the sorted-array tested set and the chunked corner fetch find the same
    # voxels in the same order as the set-based breadth-first search
    _, _, model = tuned_model(sphere_ps)
    monkeypatch.setattr(dualcontour, "_FETCH_VOXELS", fetch_voxels)
    grid = collect_active_voxels(model, model.centers, model.normals, 0.04)
    ref = search_active_voxels(model, model.centers, model.normals, 0.04)
    assert grid.n_active > 1000
    assert grid.coords.tobytes() == ref.coords.tobytes()
    assert grid.corner_values.tobytes() == ref.corner_values.tobytes()


def test_extract_surface_chunk_invariant(sphere_model, monkeypatch):
    # QEF chunks of a few voxel rows and corner fetches of a few voxels give
    # the same bytes as the default chunks
    ref = extract_surface(sphere_model, _AXIS_POINTS, _AXIS_POINTS, width=0.1)
    monkeypatch.setattr(dualcontour, "_QEF_VOXELS", 5)
    monkeypatch.setattr(dualcontour, "_FETCH_VOXELS", 3)
    mesh = extract_surface(sphere_model, _AXIS_POINTS, _AXIS_POINTS, width=0.1)
    assert mesh.n_vertices > 1000
    assert mesh.vertices.tobytes() == ref.vertices.tobytes()
    assert mesh.faces.tobytes() == ref.faces.tobytes()
    assert mesh.vertex_normals.tobytes() == ref.vertex_normals.tobytes()


def test_extraction_memory_grows_with_surface():
    # traced peak bytes of the search plus contour at two widths: halving w
    # quadruples the active voxels, and what that adds to the peak is the
    # extraction's cost per active voxel
    _, _, model = tuned_model(sphere_points(3000, seed=4))
    runs = []
    for w in (0.02, 0.01):
        tracemalloc.start()
        try:
            grid = collect_active_voxels(model, model.centers, model.normals, w)
            n_active = grid.n_active
            contour(grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        del grid
        runs.append((n_active, peak))
    (n0, peak0), (n1, peak1) = runs
    assert n1 > 3 * n0
    assert (peak1 - peak0) / (n1 - n0) <= 800


def test_active_set_overflow(sphere_model):
    centers = np.array([[1.0, 0.0, 0.0]])
    with pytest.raises(ActiveSetOverflow) as exc:
        collect_active_voxels(sphere_model, centers, centers, width=0.02, max_active=50)
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
    assert remove_small_fragments(mesh, min_faces=0).n_faces == 4
