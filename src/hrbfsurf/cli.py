"""Command-line interface: reconstruct, verify-bound, noise-bench, select-centers."""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import fields

import numpy as np

from .covers import select_centers
from .octree import build_octree
from .pipeline import (
    ReconConfig,
    StageError,
    _timed,
    check_noise_bench,
    reconstruct_points,
    run_noise_bench,
    verify_bound_on_points,
)
from .pointset import load_mesh, load_points, normalize_to_unit_box, save_mesh


def _add_fit(p):
    """Options of every driver that fits a model."""
    p.add_argument("--amplifier", "-s", type=float, default=1.0, dest="s",
                   help="support-size amplifier (>= 1)")
    p.add_argument("--threads", type=int, default=1)


def _add_tuning(p):
    """Tuning options of the drivers that fit one model to the input as
    given; ``noise-bench`` sets the support mode per noise level."""
    p.add_argument("--noisy-mode", action="store_true",
                   help="uniform (minimal) support size for highly noisy input")


def _add_extraction(p):
    """Options of the drivers that extract a mesh."""
    p.add_argument("--voxel-width", "-w", type=float, default=0.01)
    p.add_argument("--min-fragment-faces", type=int, default=10)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of center selection (reconstruct) or of noise and sampling (noise-bench)")


def build_parser():
    parser = argparse.ArgumentParser(prog="hrbfsurf")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reconstruct", help="reconstruct a mesh from oriented points")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--diagnostics", default=None)
    p.add_argument("--center-select", action="store_true")
    _add_fit(p)
    _add_tuning(p)
    _add_extraction(p)

    p = sub.add_parser("verify-bound", help="exact-solver check of the quasi-solution bound")
    p.add_argument("input")
    p.add_argument("--csv", default=None)
    _add_fit(p)
    _add_tuning(p)

    p = sub.add_parser("noise-bench", help="noise-robustness benchmark against a reference mesh")
    p.add_argument("input")
    p.add_argument("reference_mesh")
    p.add_argument("--levels", type=float, nargs="+", default=[10.0, 30.0, 60.0])
    p.add_argument("--csv", default=None)
    p.add_argument("--samples", type=int, default=20000)
    _add_fit(p)
    _add_extraction(p)

    p = sub.add_parser("select-centers", help="spherical-cover center selection dump")
    p.add_argument("input")
    p.add_argument("--csv", required=True)
    p.add_argument("--seed", type=int, default=0)
    return parser


def _config(args):
    """A ReconConfig from the parsed options that name its fields, with
    noise-bench's levels and samples checked, so that a bad value fails
    before any work."""
    names = {f.name for f in fields(ReconConfig)}
    cfg = ReconConfig(**{k: v for k, v in vars(args).items() if k in names})
    if args.command == "noise-bench":
        check_noise_bench(args.levels, cfg, args.samples)
    return cfg


def write_diagnostics(diag, path):
    """Write ``diag`` as one JSON object; numpy scalars become plain numbers."""
    with open(path, "w") as fh:
        json.dump(diag, fh, indent=1, default=lambda v: v.item())


def _write_csv(path, rows):
    """``rows``, dicts with the same keys, as CSV under a header of those keys."""
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def _check_output_dirs(paths):
    """Fail before any work when an output path's directory does not exist."""
    for path in paths:
        folder = os.path.dirname(path) or "."
        if not os.path.isdir(folder):
            raise FileNotFoundError(f"no directory {folder!r} for {path!r}")


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _timed({}, "config", _config, args)
        outputs = [getattr(args, k, None) for k in ("output", "diagnostics", "csv")]
        _timed({}, "write", _check_output_dirs, [p for p in outputs if p])
        ps = _timed({}, "load", load_points, args.input)
        if args.command == "reconstruct":
            mesh, diag = reconstruct_points(ps, cfg)
            _timed({}, "write", save_mesh, mesh, args.output)
            diag["output"] = str(args.output)
            if args.diagnostics:
                _timed({}, "write", write_diagnostics, diag, args.diagnostics)
            for k, v in diag.items():
                print(f"{k}={v}")
        elif args.command == "verify-bound":
            report, row = verify_bound_on_points(ps, cfg)
            if args.csv:
                _timed({}, "write", _write_csv, args.csv, [row])
            for k, v in row.items():
                print(f"{k}={v}")
            if report.applicable and not report.holds:
                return 1
        elif args.command == "noise-bench":
            ref = _timed({}, "load", load_mesh, args.reference_mesh)
            rows = run_noise_bench(ps, ref, args.levels, cfg, n_samples=args.samples)
            if args.csv:
                _timed({}, "write", _write_csv, args.csv, rows)
            for row in rows:
                print(",".join(f"{k}={v}" for k, v in row.items()))
        elif args.command == "select-centers":
            norm_ps, tfm = _timed({}, "normalize", normalize_to_unit_box, ps)
            idx = build_octree(norm_ps)
            cover = select_centers(norm_ps, idx, seed=args.seed)
            # the cover of the unit box, mapped back to the input's units
            rows = np.column_stack([tfm.inverse().apply(cover.centers), cover.radii / tfm.scale])
            _timed({}, "write", np.savetxt, args.csv, rows, delimiter=",", header="cx,cy,cz,r", comments="")
            print(f"n_input={len(ps)}")
            print(f"n_centers={cover.n_centers}")
    except StageError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
