"""Reconstruction benchmark for hrbfsurf.

Runs one workload (see NOTES.md) and prints a report, then one JSON line with
the metrics named in BENCHMARK.json.  From the repository root:

    python3 perfbench/run.py --workload sphere10k --seed 1 --seconds 10 --trace 0

The load is a closed loop with one client: one operation at a time, each in a
fresh child process (``child.py``), at threads=1.  ``--trace 0`` times
operations until ``--seconds`` have passed (at least one) and reports the
end-to-end metrics; ``--trace 1`` makes one plain and one traced operation
(and on ``sphere10k`` one at threads=2), all untimed, and reports the
per-layer metrics.  Every operation's output is checked, and all outputs of
one invocation must hash alike.  Spans and the run record are
written to ``.perfbench_work/`` at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 5  # set-up-only children per invocation, besides each operation's own
CHILD_TIMEOUT_S = 150.0
# The end-to-end metrics that BENCHMARK.json gates; the others are reported only.
GATED = ("wall_s", "setup_s", "peak_rss_mb", "output_err")


class HarnessError(RuntimeError):
    """The benchmark itself cannot run here (as opposed to a failed operation)."""


def run_child(workload, input_path, threads=1, setup_only=False, trace_id=None):
    """Start one child, wait for it, and return its JSON result (or an error)."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload, "--input", str(input_path)]
    cmd += ["--threads", str(threads)]
    if setup_only:
        cmd.append("--setup-only")
    if trace_id:
        cmd += ["--trace-id", trace_id]
    # One BLAS thread keeps the single-thread load model honest on a shared host.
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--spawned", repr(spawned)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"child timed out after {CHILD_TIMEOUT_S:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        return {"error": f"child exited with {proc.returncode}: {tail}"}
    return json.loads(lines[-1])


def run_record(seed):
    """Where and on what the run happened."""
    import numpy
    import scipy

    rev = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        out = top.stdout.split()
        if top.returncode == 0 and len(out) == 2 and Path(out[0]).resolve() == ROOT:
            rev = out[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    src = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        src.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_revision": rev,
        "src_sha256": src.hexdigest(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": seed,
        "loadavg_start": list(os.getloadavg()),
    }


def judge(wl, ops):
    """Mark each operation failed or not; all outputs must hash alike."""
    ref = next((op["outcome"]["hash"] for op in ops if "outcome" in op), None)
    for op in ops:
        if "outcome" not in op:
            op["failures"] = [op.get("error", "no result").strip().splitlines()[-1]]
            continue
        op["failures"] = wl.check(op["outcome"])
        if op["outcome"]["hash"] != ref:
            op["failures"].append(f"output hash differs ({op['threads']} threads)")


def median(values):
    return statistics.median(values) if values else None


def end_to_end(wl, ops, setups):
    """Every end-to-end metric as (value, unit, samples); None where it does not apply."""
    done = [op for op in ops if op["timed"] and "outcome" in op]

    def q(key):
        return median([op["outcome"][key] for op in done if op["outcome"].get(key) is not None])

    quality = "coef_err_inf" if wl.kind == "verify" else "radial_err_mean"
    rows = {
        "wall_s": (median([op["wall_s"] for op in done]), "s", len(done)),
        "setup_s": (median(setups), "s", len(setups)),
        "peak_rss_mb": (median([op["peak_rss_mb"] for op in done]), "MB", len(done)),
        "output_err": (q(quality), "1", len(done)),
        "fail_ratio": (sum(bool(op["failures"]) for op in ops) / len(ops), "ratio", len(ops)),
    }
    for key, unit in (
        ("radial_err_mean", "unit-sphere radii"), ("radial_err_max", "unit-sphere radii"),
        ("boundary_edges", "count"), ("components", "count"),
        ("coef_err_inf", "1"), ("bound_ratio", "ratio"),
    ):
        rows[key] = (q(key), unit, len(done))
    return rows


def per_layer(plain, traced):
    """Every per-layer metric of the traced operation as (value, unit, samples)."""
    from layers import layer_metrics
    from spans import Span

    if "outcome" not in traced:
        raise HarnessError(f"traced operation failed: {traced['failures']}")
    if traced["trace"]["untraced"]:
        print(f"# not traced (attribute gone): {', '.join(traced['trace']['untraced'])}")
    spans = [Span(**s) for s in traced["trace"]["spans"]]
    rows = {k: (v, u, 1) for k, (v, u) in layer_metrics(spans, traced["trace"]["counts"]).items()}
    overhead = traced["wall_s"] / plain["wall_s"] if "outcome" in plain else 0.0
    rows["trace.overhead_ratio"] = (overhead, "ratio", 1)
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description="hrbfsurf reconstruction benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "hrbfsurf" / "__init__.py").is_file():
        raise HarnessError(f"no hrbfsurf sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise HarnessError(f"unknown workload {args.workload!r}; have {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    record = run_record(args.seed)
    WORK.mkdir(exist_ok=True)
    tag = f"{wl.name}-seed{args.seed}"
    input_path = WORK / f"{tag}.ply"
    wl.write_input(args.seed, input_path)

    setups = []
    for _ in range(SETUP_SAMPLES):
        res = run_child(wl.name, input_path, setup_only=True)
        if "error" in res:
            raise HarnessError(f"set-up failed: {res['error']}")
        setups.append(res["setup_s"])

    ops = []

    def op(timed, **kw):
        ops.append(dict(run_child(wl.name, input_path, **kw), timed=timed, threads=kw.get("threads", 1)))

    if args.trace:
        op(False)
        op(False, trace_id=f"{tag}-{time.time_ns()}")
        if wl.thread_check:
            op(False, threads=2)
    else:
        t0 = time.monotonic()
        while not ops or time.monotonic() - t0 < args.seconds:
            op(True)
    judge(wl, ops)
    setups += [o["setup_s"] for o in ops if "setup_s" in o and "trace" not in o]
    failed = sum(bool(o["failures"]) for o in ops)

    print(f"# {wl.name}  seed {args.seed}  trace {args.trace}  record {json.dumps(record)}")
    for i, o in enumerate(ops):
        wall = f"{o['wall_s']:.3f} s" if "outcome" in o else "-"
        print(
            f"#   op {i}: threads {o['threads']}  {'timed' if o['timed'] else 'untimed'}  wall {wall}  "
            f"{'; '.join(o['failures']) or 'ok'}  hash {o.get('outcome', {}).get('hash', '-')[:16]}"
        )
    if args.trace:
        metrics = per_layer(ops[0], ops[1])
        wanted = list(metrics)
    else:
        metrics = end_to_end(wl, ops, setups)
        wanted = GATED
    for name, (value, unit, n) in metrics.items():
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"{name:32s} {shown:>14s} {unit:18s} n={n}")
    (WORK / f"{tag}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, "operations": ops, "setup_s": setups}, indent=1)
    )
    missing = [k for k in wanted if metrics[k][0] is None]
    if missing:
        raise HarnessError(f"no value for {', '.join(missing)}: {failed} of {len(ops)} operations failed")
    summary = {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": metrics[k][0], "unit": metrics[k][1]} for k in wanted},
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except HarnessError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)
