"""The benchmark's workloads: input generation, the user call, measurement and checks.

Each workload is a point file made from the seed, one call into the public API
on it, and the acceptance checks of the criterion it comes from.  Why each
workload was chosen is written down in NOTES.md.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from hrbfsurf.metrics import NoiseSpec, estimate_normals_pca, inject_noise
from hrbfsurf.pipeline import ReconConfig, reconstruct_points, verify_bound_on_points
from hrbfsurf.pointset import HermitePointSet, save_points
from hrbfsurf.sampling import sphere_points


def _shuffled_copy(ps, seed):
    """The same cloud with its points and its axes in a seeded order.

    Such a copy asks the program for exactly the same work (the octree and the
    lattice are axis-aligned, so they only swap axes) while the file, the
    summation order and the output bytes change with the seed.  Fresh random
    draws would not do: the cap m is a maximum count and the noisy-mode radius
    a minimum, so draws differ in work by about a fifth of the wall time, and
    so do sign flips, which move the octree's root cube (NOTES.md).
    """
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(ps))
    axes = rng.permutation(3)
    return HermitePointSet(ps.points[order][:, axes], ps.normals[order][:, axes])


def _criterion4_sphere():
    return sphere_points(10_000, seed=4)


def _criterion6b_noisy_sphere():
    ps = sphere_points(600, seed=6)
    noisy = inject_noise(ps, NoiseSpec(60.0, seed=60))
    return estimate_normals_pca(noisy.points, ps.normals, p_neighbors=6)


def _sphere3k():
    return sphere_points(3_000, seed=1)


def mesh_topology(faces):
    """(boundary edges, connected face components) of a face array.

    Written here rather than taken from the library so that the checks do not
    trust the code they check.  Faces are connected when they share an edge.
    """
    nf, k = faces.shape
    ends = np.sort(np.stack([faces, np.roll(faces, -1, axis=1)], axis=2).reshape(-1, 2), axis=1)
    keys = ends[:, 0] * (int(faces.max()) + 1) + ends[:, 1]
    _, edge_id, uses = np.unique(keys, return_inverse=True, return_counts=True)
    face_id = np.repeat(np.arange(nf), k)
    size = nf + len(uses)
    graph = sp.coo_matrix((np.ones(len(keys)), (face_id, nf + edge_id.ravel())), shape=(size, size))
    _, labels = connected_components(graph, directed=False)
    return int(np.count_nonzero(uses == 1)), int(len(np.unique(labels[:nf])))


def _digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        if a is not None:
            h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class Workload:
    name: str
    base_points: object  # () -> HermitePointSet, the fixed geometry
    cfg: dict  # ReconConfig fields
    kind: str  # "mesh": reconstruct_points; "verify": verify_bound_on_points
    thread_check: bool = False  # traced runs add one operation at threads=2
    radial_check: bool = False  # criterion 4: mean radial error <= w, max <= 3w
    single_component: bool = False  # criterion 6b: one connected piece

    def write_input(self, seed, path):
        save_points(_shuffled_copy(self.base_points(), seed), path, fmt="ply-binary-LE")

    def call(self, ps, threads):
        """The timed user call: (output, seconds)."""
        cfg = ReconConfig(threads=threads, **self.cfg)
        fn = reconstruct_points if self.kind == "mesh" else verify_bound_on_points
        t0 = time.perf_counter()
        out = fn(ps, cfg)
        return out, time.perf_counter() - t0

    def measure(self, out):
        """Quality numbers and the output hash, taken after the timed call."""
        if self.kind == "verify":
            report, row = out
            err = float(report.measured_inf_error)
            return {
                "coef_err_inf": err,
                "bound_ratio": float(report.bound_value) / err if report.applicable and err > 0 else None,
                "contraction_exact": float(row["contraction_exact"]),
                "applicable": bool(report.applicable),
                "holds": bool(report.holds),
                "hash": hashlib.sha256(repr(sorted(row.items())).encode()).hexdigest(),
            }
        mesh, _ = out
        faces = np.asarray(mesh.faces, dtype=np.int64)
        verts = np.asarray(mesh.vertices, dtype=np.float64)
        result = {"n_vertices": len(verts), "n_faces": len(faces), "hash": _digest(verts, faces, mesh.vertex_normals)}
        if len(faces):
            err = np.abs(np.linalg.norm(verts, axis=1) - 1.0)
            boundary, components = mesh_topology(faces)
            result.update(
                radial_err_mean=float(err.mean()),
                radial_err_max=float(err.max()),
                boundary_edges=boundary,
                components=components,
            )
        return result

    def check(self, m):
        """Failed acceptance checks of one measured output; empty when correct."""
        if self.kind == "verify":
            bad = []
            if not m["contraction_exact"] < 1.0:
                bad.append(f"exact contraction {m['contraction_exact']:.3g} >= 1")
            if m["applicable"] and not m["holds"]:
                bad.append("applicable bound does not hold")
            if not m["coef_err_inf"] <= 1e-4:
                bad.append(f"coef_err_inf {m['coef_err_inf']:.3g} > 1e-4")
            return bad
        if m["n_faces"] == 0:
            return ["empty mesh"]
        bad = []
        if m["boundary_edges"]:
            bad.append(f"{m['boundary_edges']} boundary edges")
        w = self.cfg["voxel_width"]
        if self.radial_check and not m["radial_err_mean"] <= w:
            bad.append(f"mean radial error {m['radial_err_mean']:.4g} > {w}")
        if self.radial_check and not m["radial_err_max"] <= 3 * w:
            bad.append(f"max radial error {m['radial_err_max']:.4g} > {3 * w}")
        if self.single_component and m["components"] != 1:
            bad.append(f"{m['components']} components")
        return bad


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "sphere10k", _criterion4_sphere, {"s": 1.0, "voxel_width": 0.01}, "mesh",
            thread_check=True, radial_check=True,
        ),
        Workload(
            "noisy600", _criterion6b_noisy_sphere, {"s": 3.5, "voxel_width": 0.04, "noisy_mode": True}, "mesh",
            single_component=True,
        ),
        Workload("verify3k", _sphere3k, {}, "verify"),
    )
}
