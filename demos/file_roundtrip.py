"""File-based workflow: save a point cloud, reconstruct through the CLI layer.

Shows the same entry points the command line uses: points go out as xyz,
come back through the file loader, and the mesh lands on disk as OBJ with a
JSON diagnostics file (one object, ``warnings`` list included) alongside.
"""

import tempfile
from pathlib import Path

from hrbfsurf.cli import main as cli_main
from hrbfsurf.pointset import load_mesh, save_points
from hrbfsurf.sampling import torus_points


def main():
    with tempfile.TemporaryDirectory(prefix="hrbfsurf_demo_") as tmp:
        workdir = Path(tmp)
        src = workdir / "torus.xyz"
        out = workdir / "torus.obj"
        diag = workdir / "torus_diag.json"

        save_points(torus_points(4000, seed=2), src)
        code = cli_main(
            ["reconstruct", str(src), str(out), "--diagnostics", str(diag), "-w", "0.02"]
        )
        print(f"cli exit code: {code}")

        mesh = load_mesh(out)
        print(f"reloaded mesh: {mesh.n_vertices} vertices, {mesh.n_faces} faces")
        print(f"diagnostics at {diag}:")
        print(diag.read_text())


if __name__ == "__main__":
    main()
