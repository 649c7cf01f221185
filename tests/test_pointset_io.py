"""Point set containers, normalization, and file round trips."""

import numpy as np
import pytest

from hrbfsurf.pointset import (
    HermitePointSet,
    PointFileError,
    QuadMesh,
    load_mesh,
    load_points,
    normalize_to_unit_box,
    save_mesh,
    save_points,
)

from conftest import random_unit_vectors


@pytest.fixture
def small_ps():
    rng = np.random.default_rng(0)
    pts = rng.uniform(-3.0, 5.0, (40, 3))
    return HermitePointSet(pts, random_unit_vectors(40, rng))


def test_pointset_shape_validation():
    with pytest.raises(ValueError):
        HermitePointSet(np.zeros((3, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError):
        HermitePointSet(np.zeros((3, 3)), np.zeros((4, 3)))
    bad = np.zeros((3, 3))
    bad[1, 2] = np.nan
    with pytest.raises(ValueError, match="1 of 3 rows"):
        HermitePointSet(bad, np.zeros((3, 3)))


def test_bbox_and_len(small_ps):
    lo, hi = small_ps.bbox
    assert np.all(lo <= hi)
    assert len(small_ps) == 40
    assert small_ps.bbox_diagonal == pytest.approx(np.linalg.norm(hi - lo))


def test_normalize_to_unit_box(small_ps):
    norm, tfm = normalize_to_unit_box(small_ps)
    lo, hi = norm.bbox
    assert float((hi - lo).max()) == pytest.approx(2.0)
    assert np.all(hi <= 1.0 + 1e-12) and np.all(lo >= -1.0 - 1e-12)
    # the aspect ratio is preserved, so the transform must round-trip exactly
    back = tfm.inverse().apply(norm.points)
    np.testing.assert_allclose(back, small_ps.points, atol=1e-12)
    np.testing.assert_array_equal(norm.normals, small_ps.normals)


def test_normalize_degenerate():
    ps = HermitePointSet(np.zeros((5, 3)), np.tile([0.0, 0.0, 1.0], (5, 1)))
    with pytest.raises(ValueError):
        normalize_to_unit_box(ps)


@pytest.mark.parametrize("fmt,suffix", [
    ("xyz-ascii", ".xyz"),
    ("ply-ascii", ".ply"),
    ("ply-binary-LE", ".ply"),
])
def test_point_roundtrip(tmp_path, small_ps, fmt, suffix):
    path = tmp_path / f"cloud{suffix}"
    save_points(small_ps, path, fmt=fmt)
    back = load_points(path, fmt=fmt)
    # float32 in the binary format, 9 significant digits in ascii
    tol = 1e-5 if fmt == "ply-binary-LE" else 1e-7
    np.testing.assert_allclose(back.points, small_ps.points, atol=tol)
    np.testing.assert_allclose(back.normals, small_ps.normals, atol=tol)
    assert np.abs(np.linalg.norm(back.normals, axis=1) - 1.0).max() <= 1e-6


def test_format_autodetect(tmp_path, small_ps):
    p1 = tmp_path / "a.xyz"
    save_points(small_ps, p1)
    assert len(load_points(p1)) == len(small_ps)
    p2 = tmp_path / "a.ply"
    save_points(small_ps, p2, fmt="ply-binary-LE")
    assert len(load_points(p2)) == len(small_ps)
    with pytest.raises(PointFileError):
        load_points(tmp_path / "a.csv")


def test_zero_normals_dropped(tmp_path):
    path = tmp_path / "z.xyz"
    path.write_text("0 0 0 0 0 1\n1 0 0 0 0 0\n2 0 0 1 0 0\n")
    ps = load_points(path)
    assert len(ps) == 2
    assert ps.dropped == 1


def test_xyz_error_line_number(tmp_path):
    path = tmp_path / "bad.xyz"
    path.write_text("0 0 0 0 0 1\n1 2 3\n")
    with pytest.raises(PointFileError) as exc:
        load_points(path)
    assert exc.value.line == 2
    assert "line 2" in str(exc.value)


def test_xyz_comments_and_blanks(tmp_path):
    path = tmp_path / "c.xyz"
    path.write_text("# header\n\n0 0 0 0 0 1\n")
    assert len(load_points(path)) == 1


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "e.xyz"
    path.write_text("# nothing\n")
    with pytest.raises(PointFileError):
        load_points(path)


def test_ply_bad_magic(tmp_path):
    path = tmp_path / "bad.ply"
    path.write_bytes(b"not a ply\n")
    with pytest.raises(PointFileError):
        load_points(path)


def test_ply_truncated_binary(tmp_path, small_ps):
    path = tmp_path / "t.ply"
    save_points(small_ps, path, fmt="ply-binary-LE")
    data = path.read_bytes()
    path.write_bytes(data[:-17])
    with pytest.raises(PointFileError):
        load_points(path)


def test_quadmesh_validate():
    mesh = QuadMesh(np.zeros((3, 3)), np.array([[0, 1, 2, 3]]))
    with pytest.raises(ValueError):
        mesh.validate()
    degen = QuadMesh(np.zeros((4, 3)), np.array([[0, 1, 1, 2]]))
    with pytest.raises(ValueError):
        degen.validate()


def test_quadmesh_triangulated():
    quads = QuadMesh(np.zeros((4, 3)), np.array([[0, 1, 2, 3]]))
    tri = quads.triangulated()
    assert tri.faces.shape == (2, 3)
    assert tri.faces.tolist() == [[0, 1, 2], [0, 2, 3]]
    # triangle meshes pass through unchanged
    assert tri.triangulated() is tri


def test_mesh_obj_roundtrip(tmp_path):
    verts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)
    vn = np.tile([0.0, 0.0, 1.0], (4, 1))
    mesh = QuadMesh(verts, np.array([[0, 1, 2, 3]]), vn)
    path = tmp_path / "m.obj"
    save_mesh(mesh, path)
    back = load_mesh(path)
    np.testing.assert_allclose(back.vertices, verts)
    assert back.faces.tolist() == [[0, 1, 2, 3]]
    np.testing.assert_allclose(back.vertex_normals, vn)


def test_mesh_ply_triangulates(tmp_path):
    verts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)
    mesh = QuadMesh(verts, np.array([[0, 1, 2, 3]]))
    path = tmp_path / "m.ply"
    save_mesh(mesh, path, fmt="ply-ascii")
    text = path.read_text()
    assert "element face 2" in text
    assert text.count("\n3 ") + text.startswith("3 ") == 2
