"""Per-layer spans and counters, taken from outside the program.

``instrument`` wraps the module attributes that the program's own code looks
up at call time, so every call through them opens a span named after its
layer; the program's files are not changed.  ``layer_metrics`` turns the spans
and counters of one traced run into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import importlib

import numpy as np

from spans import ratio, total_self_time, total_time


def _count_strict(tracer, args, kwargs, out):
    tracer.count("octree.strict_counts_calls", 1)
    tracer.count("octree.strict_counts_queries", len(out))


def _count_lattice(tracer, args, kwargs, table):
    tracer.count("model.lattice_cells", int(np.prod(table.shape)))
    tracer.count("model.lattice_covered", int(np.count_nonzero(np.isfinite(table.values_flat))))


def _count_fragments(tracer, args, kwargs, out):
    tracer.count("dualcontour.faces_dropped", args[0].n_faces - out.n_faces)


# (module, attribute, span name, counter hook); the pipeline call itself is the
# root span, opened by the caller.
_WRAPS = (
    ("pipeline", "normalize_to_unit_box", "pointset.normalize", None),
    ("pipeline", "build_octree", "octree.build", None),
    ("pipeline", "tune_parameters", "model.tune", lambda t, a, k, tp: t.count("model.m", tp.m)),
    ("model", "strict_counts", "octree.strict_counts", _count_strict),
    ("pipeline", "build_model", "model.coefficients", None),
    (
        "dualcontour", "collect_active_voxels", "dualcontour.collect",
        lambda t, a, k, grid: t.count("dualcontour.active_voxels", grid.n_active),
    ),
    ("dualcontour", "LatticeTable", "model.lattice", _count_lattice),
    ("dualcontour", "contour", "dualcontour.contour", None),
    (
        "dualcontour", "axis_edge_roots", "model.edge_roots",
        lambda t, a, k, out: t.count("model.edge_roots_edges", len(out[0])),
    ),
    ("pipeline", "remove_small_fragments", "dualcontour.fragments", _count_fragments),
    ("pipeline", "boundary_edge_count", "dualcontour.boundary", None),
    ("exact", "assemble", "exact.assemble", lambda t, a, k, sys: t.count("exact.nnz", sys.matrix.nnz)),
    ("exact", "solve", "exact.solve", None),
)


def instrument(tracer):
    """Wrap every traced attribute; return the ``module.attribute`` names that
    no longer exist, so a renamed layer shows up as untraced, not as idle."""
    missing = []
    for module_name, attr, span_name, hook in _WRAPS:
        module = importlib.import_module(f"hrbfsurf.{module_name}")
        if hasattr(module, attr):
            tracer.wrap(module, attr, span_name, hook)
        else:
            missing.append(f"{module_name}.{attr}")
    return missing


# name -> (unit, value from (spans, counts)); a layer that did not run reads 0.
_METRICS = {
    "pointset.load_s": ("s", lambda s, c: total_time(s, "pointset.load")),
    "pointset.normalize_s": ("s", lambda s, c: total_time(s, "pointset.normalize")),
    "octree.build_s": ("s", lambda s, c: total_time(s, "octree.build")),
    "octree.strict_counts_s": ("s", lambda s, c: total_time(s, "octree.strict_counts")),
    "octree.strict_counts_calls": ("count", lambda s, c: c.get("octree.strict_counts_calls", 0)),
    "octree.strict_counts_queries": ("count", lambda s, c: c.get("octree.strict_counts_queries", 0)),
    "model.tune_s": ("s", lambda s, c: total_self_time(s, "model.tune")),
    "model.coefficients_s": ("s", lambda s, c: total_time(s, "model.coefficients")),
    "model.m": ("count", lambda s, c: c.get("model.m", 0)),
    "model.lattice_s": ("s", lambda s, c: total_time(s, "model.lattice")),
    "model.lattice_cells": ("count", lambda s, c: c.get("model.lattice_cells", 0)),
    "model.lattice_covered": ("count", lambda s, c: c.get("model.lattice_covered", 0)),
    "model.edge_roots_s": ("s", lambda s, c: total_time(s, "model.edge_roots")),
    "model.edge_roots_edges": ("count", lambda s, c: c.get("model.edge_roots_edges", 0)),
    "dualcontour.collect_self_s": ("s", lambda s, c: total_self_time(s, "dualcontour.collect")),
    "dualcontour.active_voxels": ("count", lambda s, c: c.get("dualcontour.active_voxels", 0)),
    "dualcontour.useful_ratio": (
        "ratio",
        lambda s, c: ratio(c.get("dualcontour.active_voxels", 0), c.get("model.lattice_covered", 0)),
    ),
    "dualcontour.contour_self_s": ("s", lambda s, c: total_self_time(s, "dualcontour.contour")),
    "dualcontour.fragments_s": ("s", lambda s, c: total_time(s, "dualcontour.fragments")),
    "dualcontour.faces_dropped": ("count", lambda s, c: c.get("dualcontour.faces_dropped", 0)),
    "dualcontour.boundary_s": ("s", lambda s, c: total_time(s, "dualcontour.boundary")),
    "exact.assemble_s": ("s", lambda s, c: total_time(s, "exact.assemble")),
    "exact.solve_s": ("s", lambda s, c: total_time(s, "exact.solve")),
    "exact.nnz": ("count", lambda s, c: c.get("exact.nnz", 0)),
    "pipeline.self_s": ("s", lambda s, c: total_self_time(s, "pipeline")),
    "pipeline.wall_s": ("s", lambda s, c: total_time(s, "pipeline")),
}


def layer_metrics(spans, counts):
    """{name: (value, unit)} for every per-layer metric of one traced run."""
    return {name: (fn(spans, counts), unit) for name, (unit, fn) in _METRICS.items()}
