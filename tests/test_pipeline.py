"""Pipeline drivers and CLI: reconstruction, bound verification, benchmarks."""

import numpy as np
import pytest

from hrbfsurf import kernel
from hrbfsurf.cli import main as cli_main
from hrbfsurf.pipeline import (
    NOISE_S_SCHEDULE,
    ReconConfig,
    StageError,
    reconstruct_points,
    run_noise_bench,
    run_reconstruct,
    run_verify_bound,
    verify_bound_on_points,
    write_diagnostics,
)
from hrbfsurf.model import RHO_HARD_CAP
from hrbfsurf.pointset import HermitePointSet, load_mesh, save_points
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
        "n_boundary_edges", "time_tune_s", "time_extract_s",
    ):
        assert key in diag
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


def test_warns_on_eta_override(sphere_ps):
    _, diag = reconstruct_points(sphere_ps, ReconConfig(voxel_width=0.05, eta_override=1e-6))
    assert diag["eta"] == 1e-6
    assert len(diag["warnings"]) == 1
    assert "eta_override" in diag["warnings"][0]


def test_thread_count_does_not_change_mesh(sphere_ps):
    cfg1 = ReconConfig(voxel_width=0.03, threads=1)
    cfg2 = ReconConfig(voxel_width=0.03, threads=3)
    m1, _ = reconstruct_points(sphere_ps, cfg1)
    m2, _ = reconstruct_points(sphere_ps, cfg2)
    assert m1.vertices.tobytes() == m2.vertices.tobytes()
    assert m1.faces.tobytes() == m2.faces.tobytes()
    assert m1.vertex_normals.tobytes() == m2.vertex_normals.tobytes()


def test_run_reconstruct_files(tmp_path, sphere_ps):
    src = tmp_path / "in.xyz"
    save_points(sphere_ps, src)
    out = tmp_path / "out.obj"
    diag_path = tmp_path / "diag.txt"
    cfg = ReconConfig(
        input_path=str(src), output_path=str(out),
        diagnostics_path=str(diag_path), voxel_width=0.03,
    )
    _, diag = run_reconstruct(cfg)
    mesh = load_mesh(str(out))
    assert mesh.n_faces == diag["n_faces"]
    text = diag_path.read_text()
    assert f"n_faces={diag['n_faces']}" in text
    assert "eta=" in text


def test_run_reconstruct_missing_input(tmp_path):
    cfg = ReconConfig(input_path=str(tmp_path / "absent.xyz"))
    with pytest.raises(StageError) as exc:
        run_reconstruct(cfg)
    assert exc.value.stage == "load"


def test_verify_bound_holds(sphere_ps):
    report, row = verify_bound_on_points(sphere_ps, ReconConfig())
    assert report.applicable and report.holds
    assert row["holds"] is True
    assert row["measured_inf_error"] <= row["bound"]
    assert row["contraction_exact"] < 1.0
    # the exact q = ||D^-1 dA||inf never exceeds its product bound
    assert 0.0 < row["q"] <= row["contraction_exact"]


def test_verify_bound_flags_inapplicable(sphere_ps):
    # an eta far below the tuned threshold breaks the bound's premise
    report, row = verify_bound_on_points(sphere_ps, ReconConfig(eta_override=1e-6))
    assert not report.applicable
    assert row["applicable"] is False
    assert np.isinf(report.bound_value)


def test_run_verify_bound_csv_and_cap(tmp_path, sphere_ps):
    src = tmp_path / "in.xyz"
    save_points(sphere_ps, src)
    csv_path = tmp_path / "bound.csv"
    cfg = ReconConfig(input_path=str(src), output_path=str(csv_path))
    _, row = run_verify_bound(cfg)
    lines = csv_path.read_text().strip().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("n,eta,a_bar,bound,measured_inf_error")
    assert "contraction_exact,q," in lines[0]
    with pytest.raises(StageError):
        run_verify_bound(ReconConfig(input_path=str(src), exact_cap=10))


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


def test_write_diagnostics_format(tmp_path):
    path = tmp_path / "d.txt"
    write_diagnostics({"a": 1, "b": 2.5}, path)
    assert path.read_text() == "a=1\nb=2.5\n"


def test_cli_reconstruct_roundtrip(tmp_path, sphere_ps, capsys):
    src = tmp_path / "in.xyz"
    save_points(sphere_ps, src)
    out = tmp_path / "out.ply"
    code = cli_main(["reconstruct", str(src), str(out), "-w", "0.03"])
    assert code == 0
    assert "n_boundary_edges=0" in capsys.readouterr().out
    assert load_mesh(str(out)).n_faces > 0


def test_cli_reconstruct_missing_input_exit_code(tmp_path, capsys):
    code = cli_main(["reconstruct", str(tmp_path / "no.xyz"), str(tmp_path / "o.obj")])
    assert code == 2
    assert "[load]" in capsys.readouterr().err


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
