"""Oriented point sets, quad meshes and their file formats.

ASCII formats are written with 9 significant digits.  Binary PLY stores
positions and normals as little-endian float32; x..nz are read as float or
double, beside any other scalar vertex properties.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

_UNIT_TOL = 1e-12  # a normal whose length is off 1 by more is not unit to rounding


class PointFileError(ValueError):
    """Malformed point or mesh file (carries a line number when known)."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass
class HermitePointSet:
    """Scattered points with unit normals.

    Normals of any nonzero length are accepted and scaled to unit length;
    a zero-length normal raises ValueError (the loaders drop those first).
    """

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
        lens = np.linalg.norm(self.normals, axis=1)
        if zero := np.count_nonzero(lens == 0.0):
            raise ValueError(f"{zero} of {len(self.points)} normals have zero length")
        # normals unit to rounding keep their bits; the rest are divided by their length
        off = np.abs(lens - 1.0) > _UNIT_TOL
        if off.any():
            self.normals = np.where(off[:, None], self.normals / lens[:, None], self.normals)

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
    """The point format a file's suffix names: PLY is written as ascii and
    read in the encoding its header declares."""
    suffix = Path(path).suffix.lower()
    if suffix == ".xyz":
        return "xyz-ascii"
    if suffix == ".ply":
        return "ply-ascii"
    raise PointFileError(f"cannot infer format from {Path(path).name}")


def load_points(path) -> HermitePointSet:
    """Read an oriented point cloud (x y z nx ny nz per point) from an
    ``.xyz`` or ``.ply`` file; points with a zero-length normal are dropped
    and counted in ``dropped``."""
    if _detect_format(path) == "xyz-ascii":
        return _load_xyz(path)
    return _load_ply(path)


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
            rows.append(_floats(parts, lineno, 6))
    if not rows:
        raise PointFileError("empty point set")
    data = np.array(rows, dtype=np.float64)
    return _renormalize(data[:, :3], data[:, 3:])


_PLY_PROPS = ("x", "y", "z", "nx", "ny", "nz")
_PLY_TYPES = dict(zip(  # PLY scalar types, by either name, as numpy codes
    "char uchar short ushort int uint float double int8 uint8 int16 uint16 int32 uint32 float32 float64".split(),
    "i1 u1 i2 u2 i4 u4 f4 f8".split() * 2))


def _parse_ply_header(fh, names_first):
    """(format, {element: count}, [(name, type)] of the vertex properties,
    the line number of the first record) of a PLY file open in binary mode;
    the vertex property names must begin with ``names_first``."""
    magic = fh.readline().strip()
    if magic != b"ply":
        raise PointFileError("not a PLY file", line=1)
    fmt = None
    counts = {}
    element = None
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
        elif tokens[0] == "element":
            element = tokens[1]
            if element != "vertex" and "vertex" not in counts:
                raise PointFileError("the vertex element must come first", line=lineno)
            counts[element] = int(tokens[2])
        elif tokens[0] == "property" and element == "vertex":
            props.append((tokens[-1], tokens[1]))
        elif tokens[0] == "end_header":
            break
    if fmt is None or "vertex" not in counts:
        raise PointFileError("incomplete PLY header")
    names = tuple(name for name, _ in props)
    if names[: len(names_first)] != names_first:
        raise PointFileError(f"expected vertex properties {names_first}, got {names}")
    return fmt, counts, props, lineno + 1


def _load_ply(path):
    with open(path, "rb") as fh:
        fmt, counts, props, first = _parse_ply_header(fh, _PLY_PROPS)
        count = counts["vertex"]
        if fmt == "ascii":
            rows = [_floats(fh.readline().decode("ascii", "replace").split(), first + i, 6) for i in range(count)]
            data = np.array(rows, dtype=np.float64).reshape(-1, 6)
        elif fmt == "binary_little_endian":
            # one little-endian record per vertex; x..nz must be float or double
            kinds = [_PLY_TYPES.get(kind) for _, kind in props]
            if None in kinds or any(k[0] != "f" for k in kinds[:6]):
                raise PointFileError(f"unsupported binary vertex layout {props}")
            dtype = np.dtype([(name, "<" + k) for (name, _), k in zip(props, kinds)])
            raw = fh.read(count * dtype.itemsize)
            if len(raw) < count * dtype.itemsize:
                raise PointFileError("truncated binary vertex data")
            rec = np.frombuffer(raw, dtype=dtype, count=count)
            data = np.stack([rec[p].astype(np.float64) for p in _PLY_PROPS], axis=1)
        else:
            raise PointFileError(f"unsupported PLY format {fmt!r}")
    if count == 0:
        raise PointFileError("empty point set")
    return _renormalize(data[:, :3], data[:, 3:])


def save_points(ps: HermitePointSet, path, fmt=None):
    fmt = fmt or _detect_format(path)
    data = np.concatenate([ps.points, ps.normals], axis=1)
    if fmt in ("xyz-ascii", "ply-ascii"):
        header = _ply_header_text(len(ps), "ascii").rstrip("\n") if fmt == "ply-ascii" else ""
        np.savetxt(path, data, fmt="%.9g", header=header, comments="")
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


_WRITE_ROWS = 1 << 16  # rows formatted by one ``%``: about 2 MB of text


def _write_rows(fh, fmt, block):
    """The rows of the array ``block``, each through the %-format ``fmt``."""
    for lo in range(0, len(block), _WRITE_ROWS):
        rows = block[lo : lo + _WRITE_ROWS]
        fh.write((fmt * len(rows)) % tuple(rows.ravel().tolist()))


def save_mesh(mesh: QuadMesh, path):
    """Write a mesh as OBJ (quads kept) to an ``.obj`` path, else as ascii
    PLY (quads fan-split)."""
    mesh.validate()
    if Path(path).suffix.lower() == ".obj":
        with open(path, "w") as fh:
            _write_rows(fh, "v %.9g %.9g %.9g\n", mesh.vertices)
            if mesh.vertex_normals is not None:
                _write_rows(fh, "vn %.9g %.9g %.9g\n", mesh.vertex_normals)
            _write_rows(fh, "f" + " %d" * mesh.faces.shape[1] + "\n", mesh.faces + 1)
    else:
        tri = mesh.triangulated()
        with open(path, "w") as fh:
            fh.write("ply\nformat ascii 1.0\n")
            fh.write(f"element vertex {tri.n_vertices}\n")
            fh.write("property float x\nproperty float y\nproperty float z\n")
            fh.write(f"element face {tri.n_faces}\n")
            fh.write("property list uchar int vertex_indices\nend_header\n")
            _write_rows(fh, "%.9g %.9g %.9g\n", tri.vertices)
            _write_rows(fh, "3 %d %d %d\n", tri.faces)


def _floats(tokens, lineno, count=3):
    """The first ``count`` of ``tokens`` as floats; too few, or one that is
    not a number, raises PointFileError naming ``lineno``."""
    if len(tokens) < count:
        raise PointFileError(f"expected {count} coordinates, got {len(tokens)}", line=lineno)
    try:
        return [float(t) for t in tokens[:count]]
    except ValueError as exc:
        raise PointFileError(str(exc), line=lineno) from exc


def _face_array(faces, n_vertices, base):
    """One index array from ``faces``, a list of (line number, the face's
    vertex indices as written, counted from ``base``).  All triangles or all
    quads keep their width; any other mix is fan-split into triangles, so no
    face is dropped.  A face with fewer than 3 indices, or one that names no
    vertex, raises PointFileError naming its line."""
    rows = []
    for lineno, idx in faces:
        if len(idx) < 3:
            raise PointFileError(f"face has {len(idx)} vertex indices, needs at least 3", line=lineno)
        for i in idx:
            if not base <= i < n_vertices + base:
                raise PointFileError(f"face index {i} names none of the {n_vertices} vertices", line=lineno)
        rows.append([i - base for i in idx])
    widths = {len(r) for r in rows}
    if len(widths) > 1 or widths - {3, 4}:
        rows = [[r[0], r[k], r[k + 1]] for r in rows for k in range(1, len(r) - 1)]
    width = len(rows[0]) if rows else 4
    return np.array(rows, dtype=np.int64).reshape(-1, width)


def _load_mesh_ply(fh) -> QuadMesh:
    """An ascii PLY mesh from ``fh``, open in binary mode at its start."""
    fmt, counts, _, first = _parse_ply_header(fh, _PLY_PROPS[:3])
    if fmt != "ascii":
        raise PointFileError(f"unsupported PLY mesh format {fmt!r}: meshes are read from ascii PLY")
    lines = fh.read().decode("ascii", "replace").splitlines()
    n_verts, n_faces = counts["vertex"], counts.get("face", 0)
    if len(lines) < n_verts + n_faces:
        raise PointFileError(
            f"the header declares {n_verts} vertices and {n_faces} faces, "
            f"the file ends after {len(lines)} records", line=first + len(lines))
    verts = [_floats(lines[i].split(), first + i) for i in range(n_verts)]
    faces = []
    for i in range(n_verts, n_verts + n_faces):
        lineno, parts = first + i, lines[i].split()
        try:
            k = int(parts[0]) if parts else 0
            idx = [int(t) for t in parts[1 : 1 + k]]
        except ValueError as exc:
            raise PointFileError(str(exc), line=lineno) from exc
        if len(idx) != k:
            raise PointFileError(f"face declares {k} indices, holds {len(idx)}", line=lineno)
        faces.append((lineno, idx))
    verts = np.array(verts, dtype=np.float64).reshape(-1, 3)
    return QuadMesh(verts, _face_array(faces, len(verts), base=0))


def load_mesh(path) -> QuadMesh:
    """Read a mesh written by save_mesh: OBJ (v/vn/f records) or ascii PLY.

    Every face is kept: a file of all triangles or all quads loads as it is,
    any other mix as triangles.  A short record or a face index outside the
    vertices raises PointFileError naming its line."""
    with open(path, "rb") as fh:
        if fh.readline().strip() == b"ply":
            fh.seek(0)
            return _load_mesh_ply(fh)
    verts, normals, faces = [], [], []
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.split()
            if not parts:
                continue
            if parts[0] == "v":
                verts.append(_floats(parts[1:], lineno))
            elif parts[0] == "vn":
                normals.append(_floats(parts[1:], lineno))
            elif parts[0] == "f":
                try:
                    faces.append((lineno, [int(t.split("/")[0]) for t in parts[1:]]))
                except ValueError as exc:
                    raise PointFileError(str(exc), line=lineno) from exc
    verts = np.array(verts, dtype=np.float64).reshape(-1, 3)
    vn = np.array(normals, dtype=np.float64) if len(normals) == len(verts) and normals else None
    return QuadMesh(verts, _face_array(faces, len(verts), base=1), vn)
