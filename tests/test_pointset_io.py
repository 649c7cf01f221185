"""Point set containers, normalization, and file round trips."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hrbfsurf.pipeline import ReconConfig, reconstruct_points
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
from hrbfsurf.sampling import sphere_points

from conftest import random_unit_vectors, tuned_model


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
    back = load_points(path)
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
    # a save takes the format from the suffix alone: .ply writes ascii PLY to
    # a fresh path and over an existing binary file alike
    for path in (tmp_path / "fresh.ply", p2):
        save_points(small_ps, path)
        assert path.read_bytes().startswith(b"ply\nformat ascii 1.0\n")
        np.testing.assert_allclose(load_points(path).points, small_ps.points, atol=1e-7)


def test_zero_normals_dropped(tmp_path):
    path = tmp_path / "z.xyz"
    path.write_text("0 0 0 0 0 1\n1 0 0 0 0 0\n2 0 0 1 0 0\n")
    ps = load_points(path)
    assert len(ps) == 2
    assert ps.dropped == 1


def test_pointset_rejects_zero_normals():
    # the constructor counts zero-length normals after the shape and
    # non-finite checks, and leaves the caller's array alone
    normals = np.tile([0.0, 0.0, 2.0], (5, 1))
    normals[[1, 3]] = 0.0
    with pytest.raises(ValueError, match="2 of 5 normals have zero length"):
        HermitePointSet(np.zeros((5, 3)), normals)
    bad = np.zeros((5, 3))
    bad[2, 0] = np.nan
    with pytest.raises(ValueError, match="1 of 5 rows"):
        HermitePointSet(bad, normals)
    assert np.array_equal(normals[0], [0.0, 0.0, 2.0])


def test_pointset_rescales_non_unit_normals():
    # 3x normals and normals of mixed lengths fit the coefficients and the
    # mesh of unit ones; normals unit to rounding keep their bits
    ps = sphere_points(600, seed=1)
    assert HermitePointSet(ps.points, ps.normals).normals.tobytes() == ps.normals.tobytes()
    mixed = np.random.default_rng(3).uniform(0.2, 5.0, (len(ps), 1))
    cfg = ReconConfig(voxel_width=0.05)
    _, _, unit_model = tuned_model(ps)
    _, unit_diag = reconstruct_points(ps, cfg)
    for scale in (3.0, mixed):
        scaled = HermitePointSet(ps.points, scale * ps.normals)
        _, _, model = tuned_model(scaled)
        np.testing.assert_allclose(model.b_coeffs, unit_model.b_coeffs, rtol=1e-13, atol=0)
        _, diag = reconstruct_points(scaled, cfg)
        assert diag["n_faces"] == unit_diag["n_faces"] > 0


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(1e-6, 1e6), min_size=1, max_size=30), st.integers(0, 2**32 - 1))
def test_pointset_normals_unit_for_any_length(lengths, seed):
    rng = np.random.default_rng(seed)
    unit = random_unit_vectors(len(lengths), rng)
    raw = unit * np.array(lengths)[:, None]
    before = raw.copy()
    ps = HermitePointSet(rng.normal(size=raw.shape), raw)
    np.testing.assert_allclose(np.linalg.norm(ps.normals, axis=1), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(ps.normals, unit, rtol=0, atol=1e-12)
    assert raw.tobytes() == before.tobytes()


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


@pytest.mark.parametrize(
    "k, record, match",
    [(1, "abc 0 0 0 0 1", "abc"), (2, "0 0 0 0 1", "expected 6 coordinates, got 5"),
     (3, None, "expected 6 coordinates, got 0")],
    ids=["not-a-number", "short-record", "fewer-records-than-declared"],
)
def test_ply_ascii_bad_records_name_their_line(tmp_path, small_ps, k, record, match):
    # record k (from 0) is replaced, or the file ends before it; the 10-line
    # header puts record k on line 11 + k
    path = tmp_path / "p.ply"
    save_points(HermitePointSet(small_ps.points[:4], small_ps.normals[:4]), path, fmt="ply-ascii")
    lines = path.read_text().splitlines()
    assert lines[9] == "end_header"
    lines = lines[: 10 + k] if record is None else lines[: 10 + k] + [record] + lines[11 + k :]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(PointFileError, match=match) as info:
        load_points(path)
    assert info.value.line == 11 + k


def _write_binary_ply(path, props, points, normals, elements_after=""):
    """A little-endian binary point file whose vertex record holds ``props``,
    (PLY type, name, numpy code) in order; unnamed columns are zero."""
    rec = np.zeros(len(points), np.dtype([(name, "<" + code) for _, name, code in props]))
    for name, col in zip(("x", "y", "z", "nx", "ny", "nz"), np.concatenate([points, normals], axis=1).T):
        rec[name] = col
    header = ["ply", "format binary_little_endian 1.0", f"element vertex {len(points)}"]
    header += [f"property {kind} {name}" for kind, name, _ in props]
    path.write_bytes(("\n".join(header) + "\n" + elements_after + "end_header\n").encode("ascii") + rec.tobytes())


_XYZ_NXYZ = ("x", "y", "z", "nx", "ny", "nz")


@pytest.mark.parametrize(
    "props, elements_after, exact",
    [
        ([("float", n, "f4") for n in _XYZ_NXYZ] + [("uchar", "red", "u1")], "", np.float32),
        ([("double", n, "f8") for n in _XYZ_NXYZ], "", np.float64),
        ([("float32", n, "f4") for n in _XYZ_NXYZ], "element face 0\nproperty list uchar int vertex_indices\n",
         np.float32),
    ],
    ids=["extra-uchar", "double", "face-element-after"],
)
def test_ply_binary_reads_declared_layout(tmp_path, small_ps, props, elements_after, exact):
    # x..nz are taken by name from the record the header declares; six
    # float32 columns of 24 bytes a vertex used to be read whatever it said
    path = tmp_path / "p.ply"
    _write_binary_ply(path, props, small_ps.points, small_ps.normals, elements_after)
    got = load_points(path)
    assert got.points.tobytes() == small_ps.points.astype(exact).astype(np.float64).tobytes()
    np.testing.assert_allclose(got.normals, small_ps.normals, atol=1e-6)


@pytest.mark.parametrize(
    "props, elements_before",
    [
        ([("int", n, "i4") for n in _XYZ_NXYZ], ""),
        ([("float", n, "f4") for n in _XYZ_NXYZ] + [("list", "idx", "u1")], ""),
        ([("float", n, "f4") for n in _XYZ_NXYZ], "element face 0\n"),
    ],
    ids=["int-coords", "list-property", "face-element-first"],
)
def test_ply_binary_rejects_other_layouts(tmp_path, small_ps, props, elements_before):
    path = tmp_path / "p.ply"
    _write_binary_ply(path, props, small_ps.points, small_ps.normals)
    if elements_before:
        path.write_bytes(path.read_bytes().replace(b"element vertex", elements_before.encode() + b"element vertex"))
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


def _rows_one_by_one(mesh, suffix):
    """The mesh text as per-element f-strings write it, the reference for
    ``save_mesh``'s block formatting."""
    def xyz(v):
        return f"{v[0]:.9g} {v[1]:.9g} {v[2]:.9g}\n"

    if suffix == ".obj":
        text = "".join("v " + xyz(v) for v in mesh.vertices)
        if mesh.vertex_normals is not None:
            text += "".join("vn " + xyz(n) for n in mesh.vertex_normals)
        return text + "".join("f " + " ".join(str(i + 1) for i in f) + "\n" for f in mesh.faces)
    tri = mesh.triangulated()
    text = (f"ply\nformat ascii 1.0\nelement vertex {tri.n_vertices}\nproperty float x\nproperty float y\n"
            f"property float z\nelement face {tri.n_faces}\nproperty list uchar int vertex_indices\nend_header\n")
    text += "".join(xyz(v) for v in tri.vertices)
    return text + "".join("3 " + " ".join(str(i) for i in f) + "\n" for f in tri.faces)


@pytest.mark.parametrize("suffix, normals, width", [(".obj", True, 4), (".obj", False, 3), (".ply", False, 4)])
def test_mesh_text_equals_per_element_rows(tmp_path, monkeypatch, suffix, normals, width):
    # signed zero, a subnormal neighbour, the extremes of %.9g's exponent
    # form and a row count past one formatting block
    monkeypatch.setattr("hrbfsurf.pointset._WRITE_ROWS", 16)
    rng = np.random.default_rng(3)
    verts = rng.normal(size=(40, 3))
    verts[:3] = [[-0.0, 1e-300, 1e17], [0.0, -1e-300, -1e17], [5e-324, 123456789.25, 1.0]]
    faces = np.arange(37)[:, None] + np.arange(width)
    mesh = QuadMesh(verts, faces, -verts if normals else None)
    path = tmp_path / f"m{suffix}"
    save_mesh(mesh, path)
    assert path.read_bytes() == _rows_one_by_one(mesh, suffix).encode()


def test_mesh_binary_ply_rejected_by_format(tmp_path):
    # meshes are read from ascii PLY; a binary one used to fail to decode
    path = tmp_path / "m.ply"
    header = "ply\nformat binary_little_endian 1.0\nelement vertex 3\n"
    header += "".join(f"property float {c}\n" for c in "xyz")
    header += "element face 1\nproperty list uchar int vertex_indices\nend_header\n"
    body = np.eye(3, dtype="<f4").tobytes() + np.uint8(3).tobytes() + np.arange(3, dtype="<i4").tobytes()
    path.write_bytes(header.encode("ascii") + body)
    with pytest.raises(PointFileError, match="binary_little_endian"):
        load_mesh(path)


def test_mesh_ply_triangulates(tmp_path):
    verts = np.array([[0, 0, 0], [1, 0, 0], [1, 1, 0], [0, 1, 0]], dtype=float)
    mesh = QuadMesh(verts, np.array([[0, 1, 2, 3]]))
    path = tmp_path / "m.ply"
    save_mesh(mesh, path)
    text = path.read_text()
    assert "element face 2" in text
    assert text.count("\n3 ") + text.startswith("3 ") == 2


_SQUARE_AND_APEX = "v 0 0 0\nv 1 0 0\nv 1 1 0\nv 0 1 0\nv 0.5 0.5 1\n"


def _ply_mesh(vertex_lines, face_lines, n_vertices=None, n_faces=None):
    n_vertices = len(vertex_lines) if n_vertices is None else n_vertices
    n_faces = len(face_lines) if n_faces is None else n_faces
    return (
        f"ply\nformat ascii 1.0\nelement vertex {n_vertices}\n"
        "property float x\nproperty float y\nproperty float z\n"
        f"element face {n_faces}\nproperty list uchar int vertex_indices\nend_header\n"
        + "".join(line + "\n" for line in vertex_lines + face_lines)
    )


_PLY_VERTS = ["0 0 0", "1 0 0", "1 1 0", "0 1 0", "0.5 0.5 1"]


@pytest.mark.parametrize("suffix", [".obj", ".ply"])
def test_mesh_mixed_faces_keep_every_face_as_triangles(tmp_path, suffix):
    # one quad and one triangle used to load as the quad alone
    path = tmp_path / f"m{suffix}"
    if suffix == ".obj":
        path.write_text(_SQUARE_AND_APEX + "f 1 2 3 4\nf 1 2 5\n")
    else:
        path.write_text(_ply_mesh(_PLY_VERTS, ["4 0 1 2 3", "3 0 1 4"]))
    mesh = load_mesh(path)
    assert mesh.faces.tolist() == [[0, 1, 2], [0, 2, 3], [0, 1, 4]]


@pytest.mark.parametrize("suffix", [".obj", ".ply"])
def test_mesh_pentagon_fan_split(tmp_path, suffix):
    path = tmp_path / f"m{suffix}"
    if suffix == ".obj":
        path.write_text(_SQUARE_AND_APEX + "f 1 2 3 4 5\n")
    else:
        path.write_text(_ply_mesh(_PLY_VERTS, ["5 0 1 2 3 4"]))
    assert load_mesh(path).faces.tolist() == [[0, 1, 2], [0, 2, 3], [0, 3, 4]]


@pytest.mark.parametrize(
    "obj_body, ply_faces, line_obj, line_ply, match",
    [
        ("f 1 2\n", ["2 0 1"], 6, 15, "2 vertex indices"),
        ("f 1 2 6\n", ["3 0 1 5"], 6, 15, "face index"),
        ("f 0 1 2\n", ["3 -1 0 1"], 6, 15, "face index"),
        ("f 1 2 3\nv 1 2\n", ["4 0 1 2"], 7, 15, "expected 3 coordinates|declares 4"),
    ],
    ids=["short-face", "index-past-end", "index-before-start", "short-record"],
)
@pytest.mark.parametrize("suffix", [".obj", ".ply"])
def test_mesh_bad_records_name_their_line(tmp_path, suffix, obj_body, ply_faces, line_obj, line_ply, match):
    path = tmp_path / f"m{suffix}"
    if suffix == ".obj":
        path.write_text(_SQUARE_AND_APEX + obj_body)
    else:
        path.write_text(_ply_mesh(_PLY_VERTS, ply_faces))
    line = line_obj if suffix == ".obj" else line_ply
    with pytest.raises(PointFileError, match=match) as info:
        load_mesh(path)
    assert info.value.line == line


def test_mesh_ply_fewer_records_than_declared(tmp_path):
    # 3 vertices and 1 face declared, 2 vertex lines held: used to raise
    # IndexError from the face loop
    path = tmp_path / "m.ply"
    path.write_text(_ply_mesh(["0 0 0", "1 0 0"], [], n_vertices=3, n_faces=1))
    with pytest.raises(PointFileError, match="declares 3 vertices and 1 faces") as info:
        load_mesh(path)
    assert info.value.line == 12  # the first line the file lacks


def test_mesh_ply_short_vertex_record(tmp_path):
    path = tmp_path / "m.ply"
    path.write_text(_ply_mesh(["0 0 0", "1 0", "1 1 0"], ["3 0 1 2"]))
    with pytest.raises(PointFileError, match="expected 3 coordinates") as info:
        load_mesh(path)
    assert info.value.line == 11
