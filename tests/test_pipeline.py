"""Pipeline drivers and CLI: reconstruction, bound verification, benchmarks."""

import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import hrbfsurf
from hrbfsurf import exact, kernel, pipeline
from hrbfsurf.cli import build_parser, main as cli_main, write_diagnostics
from hrbfsurf.pipeline import (
    NOISE_S_SCHEDULE,
    ReconConfig,
    reconstruct_points,
    run_noise_bench,
    verify_bound_on_points,
)
from hrbfsurf.model import RHO_HARD_CAP
from hrbfsurf.pointset import HermitePointSet, load_mesh, load_points, save_mesh, save_points
from hrbfsurf.sampling import icosphere, sphere_points


def test_config_validation():
    with pytest.raises(ValueError):
        ReconConfig(s=0.5)
    with pytest.raises(ValueError):
        ReconConfig(voxel_width=0.0)


@pytest.fixture(scope="module")
def small_run(sphere_ps):
    cfg = ReconConfig(voxel_width=0.02, seed=0)
    mesh, diag = reconstruct_points(sphere_ps, cfg)
    return cfg, mesh, diag


def test_reconstruct_closed_sphere(small_run, sphere_ps):
    _, mesh, diag = small_run
    assert diag["n_boundary_edges"] == 0
    assert mesh.n_faces > 0
    # the mesh comes back in the input coordinate frame
    r = np.linalg.norm(mesh.vertices, axis=1)
    assert abs(np.median(r) - 1.0) < 0.05


def test_diagnostics_keys_and_eta_inequality(small_run):
    _, _, diag = small_run
    for key in (
        "n_input_points", "s", "voxel_width", "d_bar", "m", "rho_min",
        "rho_max", "eta", "n_centers", "n_vertices", "n_faces",
        "n_boundary_edges", "time_tune_s", "time_extract_s", "tune_ball_counts",
    ):
        assert key in diag
    # m's pass counts every center, and the search at least once more
    assert diag["tune_ball_counts"] >= 2 * diag["n_centers"]
    # every default-tuned run keeps the damped perturbation a contraction
    db = kernel.derivative_bounds(diag["rho_min"])
    a_bar = diag["m"] * (db.first + db.second_diag + 2.0 * db.second_mixed)
    assert a_bar / (1.0 + diag["eta"]) < 1.0


def test_default_run_has_no_warnings(small_run):
    _, _, diag = small_run
    assert diag["warnings"] == []


def test_warns_on_radii_at_hard_cap():
    # two points: every support grows until the cap stops it
    ps = HermitePointSet(np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]), np.array([[0.0, 0.0, 1.0]] * 2))
    _, diag = reconstruct_points(ps, ReconConfig(voxel_width=0.03))
    assert diag["rho_max"] == RHO_HARD_CAP
    assert len(diag["warnings"]) == 1
    assert diag["warnings"][0].startswith("2 of 2 support radii clamped at RHO_HARD_CAP")


def test_thread_count_does_not_change_mesh(sphere_ps):
    cfg1 = ReconConfig(voxel_width=0.03, threads=1)
    cfg2 = ReconConfig(voxel_width=0.03, threads=3)
    m1, _ = reconstruct_points(sphere_ps, cfg1)
    m2, _ = reconstruct_points(sphere_ps, cfg2)
    assert m1.vertices.tobytes() == m2.vertices.tobytes()
    assert m1.faces.tobytes() == m2.faces.tobytes()
    assert m1.vertex_normals.tobytes() == m2.vertex_normals.tobytes()


def _printed(out):
    """The ``key=value`` lines of a CLI run as a dict of strings."""
    return dict(line.split("=", 1) for line in out.splitlines())


def test_run_reconstruct_files(tmp_path, sphere_ps, capsys):
    src = tmp_path / "in.xyz"
    save_points(sphere_ps, src)
    out = tmp_path / "out.obj"
    diag_path = tmp_path / "diag.json"
    assert cli_main(["reconstruct", str(src), str(out), "--diagnostics", str(diag_path), "-w", "0.03"]) == 0
    diag = _printed(capsys.readouterr().out)
    mesh = load_mesh(str(out))
    assert mesh.n_faces == int(diag["n_faces"])
    with open(diag_path) as fh:
        written = json.load(fh)
    assert written["n_faces"] == int(diag["n_faces"])
    assert written["eta"] == float(diag["eta"])
    assert written["warnings"] == []
    assert written["output"] == diag["output"] == str(out)


def test_run_reconstruct_missing_input(tmp_path, capsys):
    # a failed load writes neither the mesh nor the diagnostics
    out, diag_path = tmp_path / "o.obj", tmp_path / "d.json"
    assert cli_main(["reconstruct", str(tmp_path / "absent.xyz"), str(out), "--diagnostics", str(diag_path)]) == 2
    assert capsys.readouterr().err.startswith("[load]")
    assert not out.exists() and not diag_path.exists()


def test_reconstruct_warns_on_points_dropped_at_load(tmp_path):
    # the loader drops a point whose normal has zero length; the run names it
    src = tmp_path / "in.xyz"
    save_points(sphere_points(400, seed=3), src)
    with open(src, "a") as fh:
        fh.write("0.5 0.5 0.5 0 0 0\n")
    ps = load_points(src)
    assert ps.dropped == 1 and len(ps) == 400
    _, diag = reconstruct_points(ps, ReconConfig(voxel_width=0.05))
    assert diag["warnings"] == ["1 of 401 input points dropped at load: zero-length normal"]


def test_verify_bound_holds(sphere_ps):
    report, row = verify_bound_on_points(sphere_ps, ReconConfig())
    assert report.applicable and report.holds
    assert row["holds"] is True
    assert row["measured_inf_error"] <= row["bound"]
    assert row["contraction_exact"] < 1.0
    # the exact q = ||D^-1 dA||inf never exceeds its product bound
    assert 0.0 < row["q"] <= row["contraction_exact"]


def _untune_eta(monkeypatch):
    """Make the drivers' tuning keep its radii but return eta = 1e-6, far
    below the tuned threshold, so that q >= 1."""
    tune = pipeline.tune_parameters
    monkeypatch.setattr(pipeline, "tune_parameters", lambda *a, **k: replace(tune(*a, **k), eta=1e-6))


def test_verify_bound_flags_inapplicable(sphere_ps, monkeypatch):
    # an eta far below the tuned threshold breaks the bound's premise
    _untune_eta(monkeypatch)
    report, row = verify_bound_on_points(sphere_ps, ReconConfig())
    assert not report.applicable
    assert row["applicable"] is False
    assert np.isinf(report.bound_value)


def test_run_verify_bound_csv_and_cap(tmp_path, sphere_ps, capsys, monkeypatch):
    src = tmp_path / "in.xyz"
    save_points(sphere_ps, src)
    csv_path = tmp_path / "bound.csv"
    assert cli_main(["verify-bound", str(src), "--csv", str(csv_path)]) == 0
    row = _printed(capsys.readouterr().out)
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("n,eta,a_bar,bound,measured_inf_error")
    assert "contraction_exact,q," in lines[0]
    assert lines[0].split(",") == list(row)
    assert row["method"] == "neumann"
    # eta = 1e-6 gives q >= 1: no exact solve, a row with the
    # operator's norms and a bound that is not applicable, and exit 0
    _untune_eta(monkeypatch)
    assert cli_main(["verify-bound", str(src)]) == 0
    out = capsys.readouterr().out
    assert "applicable=False" in out and "method=none" in out
    row = _printed(out)
    num = {k: float(row[k]) for k in ("q", "contraction_exact", "measured_inf_error",
                                      "bound_a_posteriori", "delta_a_inf", "d_inv_inf")}
    assert num["q"] >= 1.0 and num["contraction_exact"] >= num["q"]
    assert row["method"] == "none" and row["iterations"] == "0"
    assert np.isnan(num["measured_inf_error"]) and np.isinf(num["bound_a_posteriori"])
    assert row["applicable"] == "False" and row["holds"] == "False"
    assert num["delta_a_inf"] > 0.0 and num["d_inv_inf"] > 0.0


def test_cli_verify_bound_failed_residual_gate_exit_code(tmp_path, capsys, monkeypatch):
    # a failed residual gate is a stage failure (2) named by its stage, not a traceback
    src = tmp_path / "in.xyz"
    save_points(sphere_points(400, seed=3), src)
    monkeypatch.setattr(exact, "_RESIDUAL_TOL", -1.0)
    assert cli_main(["verify-bound", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("[exact_solve] residual")
    assert "applicable=" not in captured.out


def test_verify_bound_above_the_lu_cap():
    # the tuned q < 1 takes the Neumann path, which has no point cap
    report, row = verify_bound_on_points(sphere_points(6000, seed=1), ReconConfig())
    assert row["n"] == 6000
    assert row["method"] == "neumann" and row["q"] < 1.0
    assert report.applicable and report.holds
    assert report.measured_inf_error <= report.bound_a_posteriori


def test_noise_bench_schedule_and_rows(sphere_ps):
    truth = icosphere(subdivisions=4)
    cfg = ReconConfig(voxel_width=0.03, seed=0)
    rows = run_noise_bench(sphere_ps, truth, [0.0, 30.0], cfg, n_samples=2000)
    assert rows[0]["delta_percent"] == 0.0
    assert rows[0]["s"] == cfg.s  # unscheduled level falls back to the config
    assert rows[1]["s"] == NOISE_S_SCHEDULE[30.0]
    for row in rows:
        assert row["backward_avg"] >= 0.0
        assert row["n_faces"] > 0


@pytest.mark.parametrize("field, value", [("noisy_mode", True), ("center_select", True)])
def test_noise_bench_refuses_settings_it_would_drop(sphere_ps, field, value):
    # each level sets noisy_mode and fits every point
    cfg = ReconConfig(voxel_width=0.03, **{field: value})
    with pytest.raises(ValueError, match=field):
        run_noise_bench(sphere_ps, icosphere(subdivisions=1), [0.0], cfg, n_samples=100)


def test_write_diagnostics_format(tmp_path):
    path = tmp_path / "d.json"
    diag = {"a": 1, "b": 2.5, "m": np.int64(71), "uniform": np.bool_(True), "warnings": ["w1", "w2"]}
    write_diagnostics(diag, path)
    with open(path) as fh:
        assert json.load(fh) == {"a": 1, "b": 2.5, "m": 71, "uniform": True, "warnings": ["w1", "w2"]}


def test_cli_noise_bench_csv(tmp_path, capsys):
    src = tmp_path / "in.xyz"
    save_points(sphere_points(400, seed=3), src)
    ref = tmp_path / "ref.obj"
    save_mesh(icosphere(subdivisions=2), ref)
    csv_path = tmp_path / "bench.csv"
    argv = ["noise-bench", str(src), str(ref), "--levels", "0", "30", "--samples", "500",
            "-w", "0.06", "--csv", str(csv_path)]
    assert cli_main(argv) == 0
    printed = capsys.readouterr().out.splitlines()
    lines = csv_path.read_text().splitlines()
    assert lines[0] == ("delta_percent,s,forward_max,forward_avg,backward_max,backward_avg,"
                        "n_boundary_edges,n_faces")
    assert len(lines) == 3 and len(printed) == 2
    # each printed row holds the values of its CSV row, in the header's order
    for line, row in zip(printed, lines[1:]):
        assert [kv.split("=", 1)[1] for kv in line.split(",")] == row.split(",")
    assert [float(row.split(",")[1]) for row in lines[1:]] == [1.0, NOISE_S_SCHEDULE[30.0]]


def test_only_the_cli_and_pointset_touch_files():
    # the drivers take and return data; the CLI picks every file, and
    # pointset reads and writes the point and mesh formats
    src = Path(hrbfsurf.__file__).parent
    touching = {p.name for p in src.glob("*.py")
                if any(word in p.read_text() for word in ("open(", "np.savetxt", "csv.", "json."))}
    assert touching == {"cli.py", "pointset.py"}


def test_cli_reconstruct_roundtrip(tmp_path, sphere_ps, capsys):
    src = tmp_path / "in.xyz"
    save_points(sphere_ps, src)
    out = tmp_path / "out.ply"
    code = cli_main(["reconstruct", str(src), str(out), "-w", "0.03"])
    assert code == 0
    assert "n_boundary_edges=0" in capsys.readouterr().out
    assert load_mesh(str(out)).n_faces > 0


@pytest.mark.parametrize("command, outputs", [
    ("reconstruct", ["nodir/x.obj"]),
    ("reconstruct", ["x.obj", "--diagnostics", "nodir/d.json"]),
    ("verify-bound", ["--csv", "nodir/v.csv"]),
    ("select-centers", ["--csv", "nodir/c.csv"]),
])
def test_cli_missing_output_directory_fails_before_work(tmp_path, capsys, monkeypatch, command, outputs):
    # an output path without its directory is a [write] error before the
    # input is even loaded, not a traceback after the full run
    def never(*args, **kwargs):
        raise AssertionError("the run started")

    for name in ("load_points", "reconstruct_points", "verify_bound_on_points", "select_centers"):
        monkeypatch.setattr(f"hrbfsurf.cli.{name}", never)
    monkeypatch.chdir(tmp_path)
    assert cli_main([command, "in.xyz", *outputs]) == 2
    err = capsys.readouterr().err
    assert err.startswith("[write]") and "nodir" in err
    assert not (tmp_path / "x.obj").exists()


def test_cli_failed_write_is_a_stage_error(tmp_path, sphere_ps, capsys):
    # a write that fails after the run (here: the mesh path is a directory)
    # is named by its stage too
    src = tmp_path / "in.xyz"
    save_points(sphere_ps, src)
    (tmp_path / "out.obj").mkdir()
    assert cli_main(["reconstruct", str(src), str(tmp_path / "out.obj"), "-w", "0.05"]) == 2
    assert capsys.readouterr().err.startswith("[write]")


def test_cli_reconstruct_missing_input_exit_code(tmp_path, capsys):
    code = cli_main(["reconstruct", str(tmp_path / "no.xyz"), str(tmp_path / "o.obj")])
    assert code == 2
    assert "[load]" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["reconstruct", "verify-bound", "noise-bench", "select-centers"])
@pytest.mark.parametrize(
    "text, stage",
    [("0 0 0 0 0\n", "[load]"), ("0.5 0.5 0.5 0 0 1\n" * 12, "[normalize]")],
    ids=["malformed", "coincident"],
)
def test_cli_bad_input_exit_code(tmp_path, capsys, command, text, stage):
    # exit code 1 is kept for a bound that does not hold; bad input is a
    # stage failure (2) on every subcommand, named by its stage
    src = tmp_path / "in.xyz"
    src.write_text(text)
    ref = tmp_path / "ref.obj"
    save_mesh(icosphere(subdivisions=1), ref)
    extra = {
        "reconstruct": [str(tmp_path / "o.obj")],
        "noise-bench": [str(ref), "--levels", "0"],
        "select-centers": ["--csv", str(tmp_path / "c.csv")],
    }.get(command, [])
    assert cli_main([command, str(src), *extra]) == 2
    assert stage in capsys.readouterr().err


def test_cli_noise_bench_binary_reference_mesh_fails_load(tmp_path, capsys):
    # the reference mesh must be ascii PLY or OBJ; a binary PLY is a load
    # failure that names its format, not a decoding error
    src = tmp_path / "in.xyz"
    save_points(sphere_points(200, seed=3), src)
    ref = tmp_path / "ref.ply"
    ref.write_bytes(b"ply\nformat binary_little_endian 1.0\nelement vertex 1\nproperty float x\n"
                    b"property float y\nproperty float z\nend_header\n" + np.zeros(3, "<f4").tobytes())
    assert cli_main(["noise-bench", str(src), str(ref), "--levels", "0"]) == 2
    err = capsys.readouterr().err
    assert "[load]" in err and "binary_little_endian" in err


def test_cli_noise_bench_short_reference_mesh_fails_load(tmp_path, capsys):
    # a PLY that declares 3 vertices and 1 face but holds 2 vertex lines
    # used to fail with "list index out of range"
    src = tmp_path / "in.xyz"
    save_points(sphere_points(200, seed=3), src)
    ref = tmp_path / "ref.ply"
    ref.write_text("ply\nformat ascii 1.0\nelement vertex 3\nproperty float x\nproperty float y\n"
                   "property float z\nelement face 1\nproperty list uchar int vertex_indices\n"
                   "end_header\n0 0 0\n1 0 0\n")
    assert cli_main(["noise-bench", str(src), str(ref), "--levels", "0"]) == 2
    err = capsys.readouterr().err
    assert "[load] line 12" in err and "declares 3 vertices" in err


@pytest.mark.parametrize(
    "command, option",
    [("verify-bound", ["-w", "0.5"]), ("verify-bound", ["--voxel-width", "0.5"]),
     ("verify-bound", ["--min-fragment-faces", "5"]), ("verify-bound", ["--seed", "7"]),
     ("noise-bench", ["--noisy-mode"]), ("noise-bench", ["--eta-override", "500"]),
     ("verify-bound", ["--exact-cap", "10"]), ("reconstruct", ["--eta-override", "0.5"]),
     ("verify-bound", ["--eta-override", "0.5"]), ("select-centers", ["--g-min", "2"]),
     ("select-centers", ["--q-err", "1e-3"]), ("select-centers", ["--candidates", "0"])],
)
def test_cli_rejects_options_its_driver_does_not_read(tmp_path, capsys, command, option):
    positional = [str(tmp_path / "in.xyz")] + {
        "reconstruct": [str(tmp_path / "o.obj")], "noise-bench": [str(tmp_path / "ref.obj")],
        "select-centers": ["--csv", str(tmp_path / "c.csv")],
    }.get(command, [])
    with pytest.raises(SystemExit) as info:
        cli_main([command, *positional, *option])
    assert info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: hrbfsurf") and f"unrecognized arguments: {' '.join(option)}" in err


# every option of each subcommand, by its dest; a new knob is an edit here
_CLI_OPTIONS = {
    "reconstruct": {"input", "output", "diagnostics", "center_select", "s", "threads", "noisy_mode",
                    "voxel_width", "min_fragment_faces", "seed"},
    "verify-bound": {"input", "csv", "s", "threads", "noisy_mode"},
    "noise-bench": {"input", "reference_mesh", "levels", "csv", "samples", "s", "threads",
                    "voxel_width", "min_fragment_faces", "seed"},
    "select-centers": {"input", "csv", "seed"},
}


def test_cli_surface_is_pinned():
    subparsers = next(a for a in build_parser()._actions if a.dest == "command").choices
    dests = {name: {a.dest for a in p._actions if a.dest != "help"} for name, p in subparsers.items()}
    assert dests == _CLI_OPTIONS


@pytest.mark.parametrize("argv, message", [
    (["reconstruct", "in.xyz", "o.obj", "-w", "0"], "voxel width must be positive"),
    (["reconstruct", "in.xyz", "o.obj", "-s", "0.5"], "s must be >= 1"),
    (["verify-bound", "in.xyz", "--csv", "v.csv", "-s", "0.5"], "s must be >= 1"),
    (["noise-bench", "in.xyz", "ref.obj", "--csv", "b.csv", "--levels", "0", "150"], "delta_percent must be in [0, 100]"),
    (["noise-bench", "in.xyz", "ref.obj", "--csv", "b.csv", "--samples", "0"], "n_samples must be >= 1"),
], ids=["reconstruct-w0", "reconstruct-s0.5", "verify-bound-s0.5", "noise-bench-levels150", "noise-bench-samples0"])
def test_cli_bad_option_value_fails_before_work(tmp_path, capsys, monkeypatch, argv, message):
    # a bad value is a [config] failure (2) before the input is loaded, not
    # a traceback (1, the code of a bound that does not hold) after a run
    def never(*args, **kwargs):
        raise AssertionError("the run started")

    for name in ("load_points", "reconstruct_points", "verify_bound_on_points", "run_noise_bench"):
        monkeypatch.setattr(f"hrbfsurf.cli.{name}", never)
    monkeypatch.chdir(tmp_path)
    assert cli_main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("[config]") and message in captured.err
    assert captured.out == "" and list(tmp_path.iterdir()) == []


def test_cli_verify_bound(tmp_path, sphere_ps, capsys):
    src = tmp_path / "in.xyz"
    save_points(sphere_ps, src)
    code = cli_main(["verify-bound", str(src)])
    out = capsys.readouterr().out
    assert code == 0
    assert "holds=True" in out


def test_cli_select_centers(tmp_path, sphere_ps, capsys):
    src = tmp_path / "in.xyz"
    save_points(sphere_ps, src)
    csv_path = tmp_path / "centers.csv"
    code = cli_main(["select-centers", str(src), "--csv", str(csv_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "n_centers=" in out
    data = np.loadtxt(csv_path, delimiter=",", skiprows=1)
    assert data.ndim == 2 and data.shape[1] == 4
    assert data.shape[0] == int(_printed(out)["n_centers"])
