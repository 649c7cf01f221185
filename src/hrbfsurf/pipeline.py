"""End-to-end drivers: reconstruct, error-bound verification, noise benchmark."""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import exact
from .covers import CoverParams, select_centers, selected_pointset
from .dualcontour import boundary_edge_count, extract_surface, remove_small_fragments
from .metrics import NoiseSpec, estimate_normals_pca, inject_noise, two_sided_distance
from .model import RHO_HARD_CAP, build_model, tune_parameters, verify_error_bound
from .octree import build_octree
from .pointset import HermitePointSet, QuadMesh, load_points, normalize_to_unit_box, save_mesh


class StageError(RuntimeError):
    def __init__(self, stage, cause):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class ReconConfig:
    input_path: str | None = None
    output_path: str | None = None
    diagnostics_path: str | None = None
    s: float = 1.0
    voxel_width: float = 0.01
    center_select: bool = False
    noisy_mode: bool = False
    eta_override: float | None = None
    min_fragment_faces: int = 10
    threads: int = 1
    seed: int = 0
    exact_cap: int = exact.DEFAULT_POINT_CAP

    def __post_init__(self):
        if self.s < 1.0:
            raise ValueError("s must be >= 1")
        if self.voxel_width <= 0:
            raise ValueError("voxel width must be positive")


def _timed(diag, stage, fn, *args, **kwargs):
    t0 = time.perf_counter()
    try:
        out = fn(*args, **kwargs)
    except Exception as exc:
        raise StageError(stage, exc) from exc
    diag[f"time_{stage}_s"] = round(time.perf_counter() - t0, 4)
    return out


def reconstruct_points(ps: HermitePointSet, cfg: ReconConfig):
    """Reconstruct a mesh from an in-memory oriented point set.

    Returns (mesh in original coordinates, diagnostics dict).  The
    diagnostics' ``warnings`` list names every result that came from a
    path which would otherwise pass silently: support radii clamped at
    ``RHO_HARD_CAP``, an ``eta_override`` (the error bound then need not
    apply) and an empty mesh.
    """
    diag = {"n_input_points": len(ps), "s": cfg.s, "voxel_width": cfg.voxel_width}
    warnings = diag["warnings"] = []
    norm_ps, tfm = _timed(diag, "normalize", normalize_to_unit_box, ps)

    working = norm_ps
    if cfg.center_select:
        idx0 = _timed(diag, "octree", build_octree, working)
        cover = _timed(diag, "center_select", select_centers, working, idx0, CoverParams(), cfg.seed)
        diag["n_selected_centers"] = cover.n_centers
        working = selected_pointset(cover)

    idx = _timed(diag, "octree_centers", build_octree, working)
    tp = _timed(
        diag, "tune", tune_parameters, working, idx,
        cfg.s, cfg.noisy_mode, cfg.eta_override, cfg.threads,
    )
    diag.update(
        d_bar=tp.d_bar, m=tp.m, rho_min=tp.rho_min, rho_max=tp.rho_max,
        eta=tp.eta, n_centers=len(working), uniform_support=tp.uniform_support,
    )
    n_capped = int(np.count_nonzero(tp.rho >= RHO_HARD_CAP))
    if n_capped:
        warnings.append(
            f"{n_capped} of {len(tp.rho)} support radii clamped at RHO_HARD_CAP = {RHO_HARD_CAP:g}"
        )
    if cfg.eta_override is not None:
        warnings.append(f"eta_override = {cfg.eta_override:g} is set: the error bound need not apply")
    model = _timed(diag, "coefficients", build_model, working, tp)

    mesh = _timed(
        diag, "extract", extract_surface, model,
        model.centers, model.normals, cfg.voxel_width,
        workers=cfg.threads,
    )
    diag["n_active_voxels"] = mesh.n_vertices
    mesh = _timed(diag, "fragments", remove_small_fragments, mesh, cfg.min_fragment_faces)
    diag["n_vertices"] = mesh.n_vertices
    diag["n_faces"] = mesh.n_faces
    diag["n_boundary_edges"] = boundary_edge_count(mesh)
    if mesh.n_faces == 0:
        warnings.append("the mesh has no faces")

    inv = tfm.inverse()
    mesh = QuadMesh(inv.apply(mesh.vertices), mesh.faces, mesh.vertex_normals)
    return mesh, diag


def write_diagnostics(diag, path):
    with open(path, "w") as fh:
        for k, v in diag.items():
            fh.write(f"{k}={v}\n")


def run_reconstruct(cfg: ReconConfig):
    """File-based reconstruction: load, reconstruct, save mesh + diagnostics."""
    ps = _timed({}, "load", load_points, cfg.input_path)
    mesh, diag = reconstruct_points(ps, cfg)
    if cfg.output_path:
        save_mesh(mesh, cfg.output_path)
        diag["output"] = str(cfg.output_path)
    if cfg.diagnostics_path:
        write_diagnostics(diag, cfg.diagnostics_path)
    return mesh, diag


def verify_bound_on_points(ps: HermitePointSet, cfg: ReconConfig):
    """Tune, build the quasi-solution, exact-solve, and report the error bound."""
    norm_ps, _ = normalize_to_unit_box(ps)
    idx = build_octree(norm_ps)
    tp = tune_parameters(norm_ps, idx, cfg.s, cfg.noisy_mode, cfg.eta_override)
    model = build_model(norm_ps, tp)
    sys = exact.assemble(norm_ps, tp.rho, tp.eta, cap=cfg.exact_cap)
    res = exact.solve(sys)
    report = verify_error_bound(model, tp, res)
    row = {
        "n": len(norm_ps),
        "eta": tp.eta,
        "a_bar": report.a_bar,
        "bound": report.bound_value,
        "measured_inf_error": report.measured_inf_error,
        "bound_a_posteriori": report.bound_a_posteriori,
        "delta_a_inf": res.delta_a_inf,
        "d_inv_inf": res.d_inv_inf,
        "contraction_exact": res.d_inv_inf * res.delta_a_inf,
        "q": sys.contraction,
        "applicable": report.applicable,
        "holds": report.holds,
        "method": res.method,
        "iterations": res.iterations,
    }
    return report, row


BOUND_CSV_FIELDS = [
    "n", "eta", "a_bar", "bound", "measured_inf_error", "bound_a_posteriori",
    "delta_a_inf", "d_inv_inf", "contraction_exact", "q", "applicable", "holds",
    "method", "iterations",
]


def run_verify_bound(cfg: ReconConfig):
    ps = load_points(cfg.input_path)
    if len(ps) > cfg.exact_cap:
        raise StageError("verify-bound", f"n={len(ps)} exceeds exact-solver cap {cfg.exact_cap}")
    report, row = verify_bound_on_points(ps, cfg)
    if cfg.output_path:
        with open(cfg.output_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=BOUND_CSV_FIELDS)
            writer.writeheader()
            writer.writerow(row)
    return report, row


NOISE_S_SCHEDULE = {10.0: 1.9, 30.0: 2.7, 60.0: 3.5}


def run_noise_bench(
    ps: HermitePointSet,
    ground_truth: QuadMesh,
    delta_levels,
    cfg: ReconConfig,
    n_samples=20000,
    csv_path=None,
):
    """Reconstruct at several noise levels and report two-sided distances.

    The amplifier per level follows the published schedule for 10/30/60%
    (``NOISE_S_SCHEDULE``); other levels keep ``cfg.s``.
    """
    rows = []
    for delta in delta_levels:
        level_cfg = ReconConfig(
            s=NOISE_S_SCHEDULE.get(float(delta), cfg.s),
            voxel_width=cfg.voxel_width,
            noisy_mode=delta > 0,
            min_fragment_faces=cfg.min_fragment_faces,
            threads=cfg.threads,
            seed=cfg.seed,
        )
        noisy = inject_noise(ps, NoiseSpec(delta, seed=cfg.seed + int(delta)))
        if delta > 0:
            noisy = estimate_normals_pca(noisy.points, ps.normals, p_neighbors=6)
        mesh, diag = reconstruct_points(noisy, level_cfg)
        report = two_sided_distance(ground_truth, mesh, n_samples=n_samples, seed=cfg.seed)
        rows.append(
            {
                "delta_percent": delta,
                "s": level_cfg.s,
                "forward_max": report.forward_max,
                "forward_avg": report.forward_avg,
                "backward_max": report.backward_max,
                "backward_avg": report.backward_avg,
                "n_boundary_edges": diag["n_boundary_edges"],
                "n_faces": diag["n_faces"],
            }
        )
    if csv_path:
        with open(csv_path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
            writer.writeheader()
            writer.writerows(rows)
    return rows
