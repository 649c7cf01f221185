"""Every script in demos/ runs to completion."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo, tmp_path):
    # a copy of demos/, so that what a demo writes beside itself or to a
    # temporary directory lands under tmp_path
    work = tmp_path / "demos"
    shutil.copytree(ROOT / "demos", work, ignore=shutil.ignore_patterns("__pycache__", "*.obj", "*.ply"))
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, PYTHONPATH=path, TMPDIR=str(tmp_path), OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, demo], cwd=work, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
