"""The benchmark's traced child runs against the library's current API."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from hrbfsurf.pointset import save_points
from hrbfsurf.sampling import sphere_points

ROOT = Path(__file__).resolve().parents[1]


def test_traced_verify3k_child(tmp_path):
    # perfbench wraps library attributes by name; one that no longer exists is
    # listed as untraced, and a wrapped call that fails shows as an error
    path = tmp_path / "sphere3k.ply"
    save_points(sphere_points(3000, seed=1), path, fmt="ply-binary-LE")
    cmd = [sys.executable, str(ROOT / "perfbench" / "child.py"), "--workload", "verify3k", "--input", str(path),
           "--trace-id", "t", "--spawned", repr(time.monotonic())]
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert "error" not in result, result["error"]
    assert result["outcome"]["holds"] is True
    assert result["trace"]["untraced"] == ["exact.assemble"]
