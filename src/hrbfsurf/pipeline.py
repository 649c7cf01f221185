"""End-to-end drivers on in-memory points: reconstruct, error-bound verification,
noise benchmark.  They open no file: ``cli`` picks every file.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np

from . import exact, model
from .covers import select_centers, selected_pointset
from .dualcontour import boundary_edge_count, extract_surface, remove_small_fragments
from .metrics import NoiseSpec, estimate_normals_pca, inject_noise, two_sided_distance
from .model import build_model, quasi_coefficients, tune_parameters, verify_error_bound
from .octree import build_octree
from .pointset import HermitePointSet, QuadMesh, normalize_to_unit_box


class StageError(RuntimeError):
    def __init__(self, stage, cause):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


@dataclass
class ReconConfig:
    s: float = 1.0
    voxel_width: float = 0.01
    center_select: bool = False
    noisy_mode: bool = False
    min_fragment_faces: int = 10
    threads: int = 1
    seed: int = 0

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


def _fit(ps: HermitePointSet, cfg: ReconConfig, diag):
    """The fitting every driver shares: normalize, octree (and center
    selection) and tune, each timed into ``diag``, which also gains the
    tuning figures and a ``warnings`` list.  Returns (the normalized points
    fitted, their transform, the tuning)."""
    warnings = diag["warnings"] = []
    norm_ps, tfm = _timed(diag, "normalize", normalize_to_unit_box, ps)

    working = norm_ps
    if cfg.center_select:
        idx0 = _timed(diag, "octree", build_octree, working)
        cover = _timed(diag, "center_select", select_centers, working, idx0, cfg.seed)
        diag["n_selected_centers"] = cover.n_centers
        working = selected_pointset(cover)

    idx = _timed(diag, "octree_centers", build_octree, working)
    tp = _timed(diag, "tune", tune_parameters, working, idx, cfg.s, cfg.noisy_mode, cfg.threads)
    diag.update(
        d_bar=tp.d_bar, m=tp.m, rho_min=tp.rho_min, rho_max=tp.rho_max,
        eta=tp.eta, n_centers=len(working), uniform_support=tp.uniform_support,
        tune_ball_counts=tp.ball_counts,
    )
    n_capped = int(np.count_nonzero(tp.rho >= model.RHO_HARD_CAP))
    if n_capped:
        warnings.append(
            f"{n_capped} of {len(tp.rho)} support radii clamped at RHO_HARD_CAP = {model.RHO_HARD_CAP:g}"
        )
    return working, tfm, tp


def reconstruct_points(ps: HermitePointSet, cfg: ReconConfig):
    """Reconstruct a mesh from an in-memory oriented point set.

    Returns (mesh in original coordinates, diagnostics dict).  The
    diagnostics' ``warnings`` list names every result that came from a
    path which would otherwise pass silently: support radii clamped at
    ``RHO_HARD_CAP``, input points the loader dropped for a zero-length
    normal and an empty mesh.
    """
    diag = {"n_input_points": len(ps), "s": cfg.s, "voxel_width": cfg.voxel_width}
    working, tfm, tp = _fit(ps, cfg, diag)
    model = _timed(diag, "coefficients", build_model, working, tp)
    if ps.dropped:
        diag["warnings"].append(
            f"{ps.dropped} of {len(ps) + ps.dropped} input points dropped at load: zero-length normal"
        )
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
        diag["warnings"].append("the mesh has no faces")

    inv = tfm.inverse()
    mesh = QuadMesh(inv.apply(mesh.vertices), mesh.faces, mesh.vertex_normals)
    return mesh, diag


def verify_bound_on_points(ps: HermitePointSet, cfg: ReconConfig):
    """Tune, build the quasi-solution, exact-solve, and report the error bound.

    When q >= 1 there is no exact solve: the row reports the operator's
    norms, method "none", and a bound that is not applicable.
    """
    diag = {}
    norm_ps, _, tp = _fit(ps, cfg, diag)
    op = _timed(diag, "exact_operator", model.build_operator, norm_ps, tp.rho)
    q = op.contraction(tp.eta)
    res = _timed(diag, "exact_solve", exact.solve, op, tp.eta) if q < 1.0 else None
    report = verify_error_bound(tp, quasi_coefficients(norm_ps.normals, tp.rho, tp.eta), res)
    row = {
        "n": len(norm_ps),
        "eta": tp.eta,
        "a_bar": report.a_bar,
        "bound": report.bound_value,
        "measured_inf_error": report.measured_inf_error,
        "bound_a_posteriori": report.bound_a_posteriori,
        "delta_a_inf": op.delta_a_inf,
        "a_bar_over_delta_a": report.a_bar / op.delta_a_inf,
        "d_inv_inf": op.d_inv_inf(tp.eta),
        "contraction_exact": op.d_inv_inf(tp.eta) * op.delta_a_inf,
        "q": q,
        "applicable": report.applicable,
        "holds": report.holds,
        "method": "none" if res is None else "neumann",
        "iterations": 0 if res is None else res.iterations,
    }
    return report, row


NOISE_S_SCHEDULE = {10.0: 1.9, 30.0: 2.7, 60.0: 3.5}


def check_noise_bench(delta_levels, cfg: ReconConfig, n_samples):
    """Raise ValueError on what ``run_noise_bench`` cannot run: a level
    outside [0, 100], fewer than one sample, or a ``cfg`` that sets
    ``noisy_mode`` or ``center_select``, which it would drop."""
    for name in ("noisy_mode", "center_select"):
        if getattr(cfg, name):
            raise ValueError(f"run_noise_bench does not take {name}")
    for delta in delta_levels:
        NoiseSpec(delta)
    if n_samples < 1:
        raise ValueError(f"n_samples must be >= 1, got {n_samples}")


def run_noise_bench(
    ps: HermitePointSet,
    ground_truth: QuadMesh,
    delta_levels,
    cfg: ReconConfig,
    n_samples=20000,
):
    """Reconstruct at several noise levels and report two-sided distances.

    The amplifier per level follows the published schedule for 10/30/60%
    (``NOISE_S_SCHEDULE``); other levels keep ``cfg.s``.  Each level sets
    ``noisy_mode`` from its noise level and fits every point.  Arguments
    that ``check_noise_bench`` refuses raise ValueError before any level runs.
    """
    check_noise_bench(delta_levels, cfg, n_samples)
    rows = []
    for delta in delta_levels:
        level_cfg = replace(cfg, s=NOISE_S_SCHEDULE.get(float(delta), cfg.s), noisy_mode=delta > 0)
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
    return rows
