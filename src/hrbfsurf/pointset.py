"""Oriented point sets, quad meshes and their file formats.

ASCII formats are written with 9 significant digits.  Binary PLY stores
positions and normals as little-endian float32.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np


class PointFileError(ValueError):
    """Malformed point or mesh file (carries a line number when known)."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass
class HermitePointSet:
    """Scattered points with unit normals."""

    points: np.ndarray  # (n, 3) float64
    normals: np.ndarray  # (n, 3) float64, unit length
    dropped: int = 0  # points rejected at load time (zero-length normals)

    def __post_init__(self):
        self.points = np.ascontiguousarray(self.points, dtype=np.float64)
        self.normals = np.ascontiguousarray(self.normals, dtype=np.float64)
        if self.points.ndim != 2 or self.points.shape[1] != 3:
            raise ValueError("points must be (n, 3)")
        if self.normals.shape != self.points.shape:
            raise ValueError("normals must match points shape")
        bad = np.count_nonzero(~(np.isfinite(self.points) & np.isfinite(self.normals)).all(axis=1))
        if bad:
            raise ValueError(f"{bad} of {len(self.points)} rows hold non-finite coordinates")

    def __len__(self):
        return len(self.points)

    @property
    def bbox(self):
        return self.points.min(axis=0), self.points.max(axis=0)

    @property
    def bbox_diagonal(self):
        lo, hi = self.bbox
        return float(np.linalg.norm(hi - lo))


@dataclass
class QuadMesh:
    """Polygonal mesh with quad (or triangle) faces."""

    vertices: np.ndarray  # (nv, 3) float64
    faces: np.ndarray  # (nf, 4) or (nf, 3) int
    vertex_normals: np.ndarray | None = None

    def __post_init__(self):
        self.vertices = np.ascontiguousarray(self.vertices, dtype=np.float64).reshape(-1, 3)
        self.faces = np.ascontiguousarray(self.faces, dtype=np.int64)
        if self.faces.size == 0:
            self.faces = self.faces.reshape(0, 4)
        if self.vertex_normals is not None:
            self.vertex_normals = np.ascontiguousarray(self.vertex_normals, dtype=np.float64)

    @property
    def n_vertices(self):
        return len(self.vertices)

    @property
    def n_faces(self):
        return len(self.faces)

    def validate(self):
        if self.faces.size and self.faces.max(initial=-1) >= len(self.vertices):
            raise ValueError("face index out of range")
        if self.faces.size:
            f = self.faces
            for a in range(f.shape[1]):
                for b in range(a + 1, f.shape[1]):
                    if np.any(f[:, a] == f[:, b]):
                        raise ValueError("degenerate face with repeated vertex index")

    def triangulated(self):
        """Fan-split quads into triangles; triangle meshes pass through."""
        if self.faces.shape[1] == 3:
            return self
        q = self.faces
        tris = np.concatenate([q[:, [0, 1, 2]], q[:, [0, 2, 3]]], axis=0)
        return QuadMesh(self.vertices, tris, self.vertex_normals)


@dataclass
class SimilarityTransform:
    """Uniform scale followed by translation: x' = scale * x + translate."""

    scale: float
    translate: np.ndarray

    def apply(self, pts):
        return self.scale * np.asarray(pts, dtype=np.float64) + self.translate

    def inverse(self):
        return SimilarityTransform(1.0 / self.scale, -np.asarray(self.translate) / self.scale)


def normalize_to_unit_box(ps: HermitePointSet):
    """Rescale so the longest bbox axis maps exactly to [-1, 1].

    Scaling is uniform (aspect preserved) so support radii stay isotropic.
    Returns the rescaled set and the applied transform.
    """
    if len(ps) == 0:
        raise ValueError("empty point set")
    lo, hi = ps.bbox
    extent = hi - lo
    longest = float(extent.max())
    if longest <= 0.0:
        raise ValueError("degenerate extent: all points coincident")
    scale = 2.0 / longest
    center = (lo + hi) / 2.0
    tfm = SimilarityTransform(scale, -scale * center)
    return HermitePointSet(tfm.apply(ps.points), ps.normals.copy(), ps.dropped), tfm


def _renormalize(points, normals):
    """Drop zero-length normals, renormalize the rest."""
    norms = np.linalg.norm(normals, axis=1)
    keep = norms > 0.0
    dropped = int(np.count_nonzero(~keep))
    points = points[keep]
    normals = normals[keep] / norms[keep, None]
    if len(points) == 0:
        raise PointFileError("empty point set")
    return HermitePointSet(points, normals, dropped=dropped)


def _detect_format(path):
    path = Path(path)
    if path.suffix.lower() == ".xyz":
        return "xyz-ascii"
    if path.suffix.lower() == ".ply":
        with open(path, "rb") as fh:
            header = fh.read(256)
        if b"binary_little_endian" in header:
            return "ply-binary-LE"
        return "ply-ascii"
    raise PointFileError(f"cannot infer format from {path.name}")


def load_points(path, fmt=None) -> HermitePointSet:
    """Read an oriented point cloud (x y z nx ny nz per point)."""
    fmt = fmt or _detect_format(path)
    if fmt == "xyz-ascii":
        return _load_xyz(path)
    if fmt in ("ply-ascii", "ply-binary-LE"):
        return _load_ply(path)
    raise PointFileError(f"unknown point format {fmt!r}")


def _load_xyz(path):
    rows = []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 6:
                raise PointFileError(f"expected 6 fields, got {len(parts)}", line=lineno)
            try:
                rows.append([float(v) for v in parts])
            except ValueError as exc:
                raise PointFileError(str(exc), line=lineno) from exc
    if not rows:
        raise PointFileError("empty point set")
    data = np.array(rows, dtype=np.float64)
    return _renormalize(data[:, :3], data[:, 3:])


_PLY_PROPS = ("x", "y", "z", "nx", "ny", "nz")


def _parse_ply_header(fh):
    magic = fh.readline().strip()
    if magic != b"ply":
        raise PointFileError("not a PLY file", line=1)
    fmt = None
    count = None
    props = []
    lineno = 1
    while True:
        raw = fh.readline()
        lineno += 1
        if not raw:
            raise PointFileError("unexpected end of header", line=lineno)
        tokens = raw.decode("ascii", "replace").split()
        if not tokens:
            continue
        if tokens[0] == "format":
            fmt = tokens[1]
        elif tokens[0] == "element" and tokens[1] == "vertex":
            count = int(tokens[2])
        elif tokens[0] == "property" and count is not None:
            props.append(tokens[-1])
        elif tokens[0] == "end_header":
            break
    if fmt is None or count is None:
        raise PointFileError("incomplete PLY header")
    if tuple(props[:6]) != _PLY_PROPS:
        raise PointFileError(f"expected vertex properties {_PLY_PROPS}, got {tuple(props)}")
    return fmt, count


def _load_ply(path):
    with open(path, "rb") as fh:
        fmt, count = _parse_ply_header(fh)
        if fmt == "ascii":
            rows = []
            for i in range(count):
                parts = fh.readline().split()
                if len(parts) < 6:
                    raise PointFileError("truncated vertex record")
                rows.append([float(v) for v in parts[:6]])
            data = np.array(rows, dtype=np.float64).reshape(-1, 6)
        elif fmt == "binary_little_endian":
            raw = fh.read(count * 6 * 4)
            if len(raw) < count * 6 * 4:
                raise PointFileError("truncated binary vertex data")
            data = np.frombuffer(raw, dtype="<f4").reshape(count, 6).astype(np.float64)
        else:
            raise PointFileError(f"unsupported PLY format {fmt!r}")
    if count == 0:
        raise PointFileError("empty point set")
    return _renormalize(data[:, :3], data[:, 3:])


def save_points(ps: HermitePointSet, path, fmt=None):
    fmt = fmt or _detect_format(path)
    data = np.concatenate([ps.points, ps.normals], axis=1)
    if fmt == "xyz-ascii":
        with open(path, "w") as fh:
            for row in data:
                fh.write(" ".join(f"{v:.9g}" for v in row) + "\n")
    elif fmt == "ply-ascii":
        with open(path, "w") as fh:
            _write_ply_header(fh, len(ps), "ascii")
            for row in data:
                fh.write(" ".join(f"{v:.9g}" for v in row) + "\n")
    elif fmt == "ply-binary-LE":
        with open(path, "wb") as fh:
            hdr = _ply_header_text(len(ps), "binary_little_endian")
            fh.write(hdr.encode("ascii"))
            fh.write(data.astype("<f4").tobytes())
    else:
        raise PointFileError(f"unknown point format {fmt!r}")


def _ply_header_text(count, fmt):
    lines = ["ply", f"format {fmt} 1.0", f"element vertex {count}"]
    lines += [f"property float {p}" for p in _PLY_PROPS]
    lines.append("end_header")
    return "\n".join(lines) + "\n"


def _write_ply_header(fh, count, fmt):
    fh.write(_ply_header_text(count, fmt))


def save_mesh(mesh: QuadMesh, path, fmt=None):
    """Write a mesh as OBJ (quads kept) or ascii PLY (quads fan-split)."""
    if fmt is None:
        fmt = "obj" if Path(path).suffix.lower() == ".obj" else "ply-ascii"
    mesh.validate()
    if fmt == "obj":
        with open(path, "w") as fh:
            for v in mesh.vertices:
                fh.write(f"v {v[0]:.9g} {v[1]:.9g} {v[2]:.9g}\n")
            if mesh.vertex_normals is not None:
                for n in mesh.vertex_normals:
                    fh.write(f"vn {n[0]:.9g} {n[1]:.9g} {n[2]:.9g}\n")
            for f in mesh.faces:
                fh.write("f " + " ".join(str(i + 1) for i in f) + "\n")
    elif fmt == "ply-ascii":
        tri = mesh.triangulated()
        with open(path, "w") as fh:
            fh.write("ply\nformat ascii 1.0\n")
            fh.write(f"element vertex {tri.n_vertices}\n")
            fh.write("property float x\nproperty float y\nproperty float z\n")
            fh.write(f"element face {tri.n_faces}\n")
            fh.write("property list uchar int vertex_indices\nend_header\n")
            for v in tri.vertices:
                fh.write(f"{v[0]:.9g} {v[1]:.9g} {v[2]:.9g}\n")
            for f in tri.faces:
                fh.write("3 " + " ".join(str(i) for i in f) + "\n")
    else:
        raise PointFileError(f"unknown mesh format {fmt!r}")


def _load_mesh_ply(path) -> QuadMesh:
    verts, faces = [], []
    with open(path) as fh:
        n_vert = n_face = 0
        for line in fh:
            parts = line.split()
            if parts[:2] == ["element", "vertex"]:
                n_vert = int(parts[2])
            elif parts[:2] == ["element", "face"]:
                n_face = int(parts[2])
            elif parts[:1] == ["end_header"]:
                break
        for _ in range(n_vert):
            verts.append([float(v) for v in fh.readline().split()[:3]])
        for _ in range(n_face):
            parts = fh.readline().split()
            faces.append([int(v) for v in parts[1 : 1 + int(parts[0])]])
    verts = np.array(verts, dtype=np.float64).reshape(-1, 3)
    width = max((len(f) for f in faces), default=4)
    face_arr = np.array([f for f in faces if len(f) == width], dtype=np.int64).reshape(-1, width)
    return QuadMesh(verts, face_arr)


def load_mesh(path) -> QuadMesh:
    """Read a mesh written by save_mesh: OBJ (v/vn/f records) or ascii PLY."""
    with open(path) as fh:
        if fh.readline().strip() == "ply":
            return _load_mesh_ply(path)
    verts, normals, faces = [], [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                verts.append([float(v) for v in parts[1:4]])
            elif parts[0] == "vn":
                normals.append([float(v) for v in parts[1:4]])
            elif parts[0] == "f":
                try:
                    faces.append([int(t.split("/")[0]) - 1 for t in parts[1:]])
                except ValueError as exc:
                    raise PointFileError(str(exc), line=lineno) from exc
    verts = np.array(verts, dtype=np.float64).reshape(-1, 3)
    width = max((len(f) for f in faces), default=4)
    face_arr = np.array([f for f in faces if len(f) == width], dtype=np.int64).reshape(-1, width)
    vn = np.array(normals, dtype=np.float64) if len(normals) == len(verts) and normals else None
    return QuadMesh(verts, face_arr, vn)
