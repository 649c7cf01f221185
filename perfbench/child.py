"""One benchmark operation in a fresh process.

The process imports the library, loads the input with ``load_points`` (that is
the set-up), then makes one user call and measures its output.  It prints one
JSON object on its last stdout line.  ``run.py`` starts it; by hand:

    python3 perfbench/child.py --workload sphere10k --input pts.ply \
        --spawned "$(python3 -c 'import time; print(time.monotonic())')"
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def peak_rss_mb():
    """Peak resident set of this process in MiB.

    VmHWM counts only the address space made at exec; ``ru_maxrss`` would also
    carry the peak of the parent that forked this process.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--input", required=True)
    ap.add_argument("--spawned", type=float, required=True, help="time.monotonic() when the parent started this process")
    ap.add_argument("--threads", type=int, default=1)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace-id", default=None, help="record spans under this run id")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    from hrbfsurf.pointset import load_points

    from layers import instrument
    from spans import Tracer
    from workloads import WORKLOADS

    tracer = Tracer(args.trace_id) if args.trace_id else None
    missing = instrument(tracer) if tracer else []
    with tracer.span("pointset.load") if tracer else nullcontext():
        ps = load_points(args.input)
    result = {"setup_s": time.monotonic() - args.spawned}
    if not args.setup_only:
        wl = WORKLOADS[args.workload]
        try:
            with tracer.span("pipeline") if tracer else nullcontext():
                out, result["wall_s"] = wl.call(ps, args.threads)
        except Exception:
            result["error"] = traceback.format_exc(limit=-3)
        else:
            result["peak_rss_mb"] = peak_rss_mb()
            result["outcome"] = wl.measure(out)
    if tracer:
        tracer.restore()
        result["trace"] = tracer.to_json()
        result["trace"]["untraced"] = missing
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
