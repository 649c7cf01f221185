"""Command-line interface: reconstruct, verify-bound, noise-bench, select-centers."""

from __future__ import annotations

import argparse
import sys

from . import exact
from .covers import CoverParams, select_centers
from .octree import build_octree
from .pipeline import (
    NOISE_S_SCHEDULE,
    ReconConfig,
    StageError,
    run_noise_bench,
    run_reconstruct,
    run_verify_bound,
)
from .pointset import load_mesh, load_points, normalize_to_unit_box


def _add_common(p):
    p.add_argument("--amplifier", "-s", type=float, default=1.0, dest="s",
                   help="support-size amplifier (>= 1)")
    p.add_argument("--voxel-width", "-w", type=float, default=0.01)
    p.add_argument("--noisy-mode", action="store_true",
                   help="uniform (minimal) support size for highly noisy input")
    p.add_argument("--eta-override", type=float, default=None)
    p.add_argument("--min-fragment-faces", type=int, default=10)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)


def build_parser():
    parser = argparse.ArgumentParser(prog="hrbfsurf")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reconstruct", help="reconstruct a mesh from oriented points")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--diagnostics", default=None)
    p.add_argument("--center-select", action="store_true")
    _add_common(p)

    p = sub.add_parser("verify-bound", help="exact-solver check of the quasi-solution bound")
    p.add_argument("input")
    p.add_argument("--csv", default=None)
    p.add_argument("--exact-cap", type=int, default=exact.DEFAULT_POINT_CAP)
    _add_common(p)

    p = sub.add_parser("noise-bench", help="noise-robustness benchmark against a reference mesh")
    p.add_argument("input")
    p.add_argument("reference_mesh")
    p.add_argument("--levels", type=float, nargs="+", default=[10.0, 30.0, 60.0])
    p.add_argument("--csv", default=None)
    p.add_argument("--samples", type=int, default=20000)
    _add_common(p)

    cover = CoverParams()
    p = sub.add_parser("select-centers", help="spherical-cover center selection dump")
    p.add_argument("input")
    p.add_argument("--csv", required=True)
    p.add_argument("--g-min", type=float, default=cover.g_min)
    p.add_argument("--q-err", type=float, default=cover.q_err)
    p.add_argument("--candidates", type=int, default=cover.varpi)
    p.add_argument("--seed", type=int, default=0)
    return parser


def _cfg_from(args, **extra):
    return ReconConfig(
        s=args.s,
        voxel_width=args.voxel_width,
        noisy_mode=args.noisy_mode,
        eta_override=args.eta_override,
        min_fragment_faces=args.min_fragment_faces,
        threads=args.threads,
        seed=args.seed,
        **extra,
    )


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "reconstruct":
            cfg = _cfg_from(
                args,
                input_path=args.input,
                output_path=args.output,
                diagnostics_path=args.diagnostics,
                center_select=args.center_select,
            )
            _, diag = run_reconstruct(cfg)
            for k, v in diag.items():
                print(f"{k}={v}")
        elif args.command == "verify-bound":
            cfg = _cfg_from(args, input_path=args.input, output_path=args.csv,
                            exact_cap=args.exact_cap)
            report, row = run_verify_bound(cfg)
            for k, v in row.items():
                print(f"{k}={v}")
            if report.applicable and not report.holds:
                return 1
        elif args.command == "noise-bench":
            ps = load_points(args.input)
            ref = load_mesh(args.reference_mesh)
            cfg = _cfg_from(args)
            rows = run_noise_bench(ps, ref, args.levels, cfg,
                                   n_samples=args.samples, csv_path=args.csv)
            for row in rows:
                print(",".join(f"{k}={v}" for k, v in row.items()))
        elif args.command == "select-centers":
            ps = load_points(args.input)
            norm_ps, _ = normalize_to_unit_box(ps)
            idx = build_octree(norm_ps)
            cover = select_centers(
                norm_ps, idx,
                CoverParams(g_min=args.g_min, q_err=args.q_err, varpi=args.candidates),
                seed=args.seed,
            )
            cover.to_csv(args.csv)
            print(f"n_input={len(ps)}")
            print(f"n_centers={cover.n_centers}")
    except StageError as exc:
        print(str(exc), file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
