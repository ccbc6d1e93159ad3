import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from hookium import cli


def run(capsys, *argv):
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejections
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


def readme_cli_commands():
    text = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    block = text.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("hookium ")]


def test_readme_cli_commands_succeed(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HOOKIUM_OUT_DIR", str(tmp_path))
    commands = readme_cli_commands()
    assert len(commands) == 9
    for argv in commands:
        code, _, err = run(capsys, *argv)
        assert code == 0, (argv, err)


def test_cli_import_skips_scipy_optimize_and_integrate():
    # only the width fit and the adaptive oracle need them; a cold start should not pay
    code = ("import sys, hookium.cli; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.integrate') if m in sys.modules))")
    src = str(Path(__file__).parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True, timeout=120)
    assert out.stdout.strip() == "[]"


def test_solve_quadratic_branches_golden(capsys):
    code, out, _ = run(capsys, "solve", "--n", "4", "--m", "0", "--Z", "1")
    assert code == 0
    assert out == (
        "n,m,Z,kappa,omega,eps_rel,eps_rel_doubled\n"
        "4,0,1,1.7064561258247859,0.3434074767651395,"
        "1.373629907060558,2.747259814121116\n"
        "4,0,1,6.0899924048093084,0.026962893605230902,"
        "0.10785157442092361,0.21570314884184721\n")


def test_solve_reference_state_golden(capsys):
    code, out, _ = run(capsys, "solve", "--n", "2")
    assert code == 0
    assert out.splitlines()[1] == "2,0,1,1.4142135623730951,0.5,1,2"


def test_entropy_rejects_omega_with_coupling(capsys):
    code, _, err = run(capsys, "entropy", "--n", "2", "--m", "0", "--Z", "1",
                       "--omega", "0.5")
    assert code == 2
    assert "omega is fixed by the closure condition when Z != 0" in err


def test_unknown_flag_is_usage_error(capsys):
    code, _, err = run(capsys, "solve", "--n", "2", "--frequency", "1")
    assert code == 2
    assert "unrecognized arguments" in err


def test_missing_required_option(capsys):
    code, _, err = run(capsys, "solve")
    assert code == 2
    assert "missing required option --n" in err


def test_solve_z_zero_needs_oscillator(capsys):
    code, _, err = run(capsys, "solve", "--n", "2", "--m", "0", "--Z", "0")
    assert code == 3
    assert "oscillator_branch" in err


def test_entropy_scan_golden(capsys):
    code, out, _ = run(capsys, "entropy", "--scan", "--n", "3",
                       "--m", "0:2", "--Z", "1,-1")
    assert code == 0
    assert out == (
        "m,omega,Z,entropy\n"
        "2,0.022727272727272728,-1,7.3428036045892444\n"
        "2,0.022727272727272728,1,6.9942817548613654\n"
        "1,0.035714285714285712,-1,6.7227932741253191\n"
        "1,0.035714285714285712,1,6.3879130875077976\n"
        "0,0.083333333333333329,-1,5.6637388883517001\n"
        "0,0.083333333333333329,1,5.3368969004721976\n")


def test_entropy_free_oscillator_golden(capsys):
    code, out, _ = run(capsys, "entropy", "--n", "1", "--Z", "0",
                       "--omega", "0.5")
    assert code == 0
    assert out == ("n = 1\nm = 0\nZ = 0\nomega = 0.5\neps_rel = 0.5\n"
                   "total_entropy = 2.8378770664093453\n")


def test_qes_condition_golden(capsys):
    code, out, _ = run(capsys, "qes", "condition", "--n", "2", "--m", "0",
                       "--gamma", "4/9")
    assert code == 0
    assert out == ("n = 2\nm = 0\ngamma = 4/9\nalpha = -6\n"
                   "A = -1.3333333333333333\ncondition_residual = 0\n"
                   "sector_degree = 1\nsector_energies = -2,2\n")


def test_qes_variational_golden(capsys):
    code, out, _ = run(capsys, "qes", "variational", "--nodes", "1")
    assert code == 0
    lines = dict(ln.split(" = ") for ln in out.splitlines())
    assert float(lines["E_star"]) == pytest.approx(2.0, abs=1e-8)
    assert float(lines["residual_norm"]) <= 1e-12
    assert lines["node_count"] == "1"
    assert lines["N"] == "16"
    assert lines["nearest_exact"] == "2"


def test_qes_variational_unreachable(capsys):
    code, _, err = run(capsys, "qes", "variational", "--nodes", "6",
                       "--N", "10")
    assert code == 5
    assert "truncation N=10 gives 6 Ritz levels, too few for 6 nodes" in err


def test_qes_map_round_trip(capsys):
    code, out, _ = run(capsys, "qes", "map", "--n", "2", "--m", "0", "--Z", "-1")
    assert code == 0
    fwd = dict(ln.split(" = ") for ln in out.splitlines())
    assert fwd["integer_sextic_m"] == "no"
    code, out, _ = run(capsys, "qes", "map", "--gamma", fwd["gamma"],
                       "--alpha", fwd["alpha"], "--E", fwd["E"],
                       "--sextic-m", fwd["sextic_m"])
    assert code == 0
    back = dict(ln.split(" = ") for ln in out.splitlines())
    assert float(back["omega"]) == pytest.approx(float(fwd["omega"]), rel=1e-14)
    assert float(back["Z"]) == pytest.approx(-1.0, abs=1e-14)


def test_density_both_routes(capsys):
    code, out, _ = run(capsys, "density", "--case", "n2m0Zp1", "--method", "both",
                       "--grid", "0:6:13", "--no-fit")
    assert code == 0
    lines = dict(ln.split(" = ") for ln in out.splitlines() if " = " in ln)
    assert float(lines["max_rel_deviation"]) < 1e-11
    assert float(lines["beta_used"]) == pytest.approx(0.5)


def test_density_unknown_case(capsys):
    code, _, err = run(capsys, "density", "--case", "nope")
    assert code == 2
    assert "unknown density case 'nope'" in err
    assert "n2m0Zm1, n2m0Zp1, n2m1Zp1, n3m0Zp1" in err


def test_density_quad_tolerance_exit(capsys):
    code, _, err = run(capsys, "density", "--case", "n2m0Zp1",
                       "--method", "quadrature", "--grid", "0:4:3",
                       "--quad-tol", "1e-30")
    assert code == 4
    assert "quadrature" in err.lower()


def test_density_out_files(tmp_path, capsys):
    code, _, _ = run(capsys, "density", "--case", "n2m0Zp1", "--method", "both",
                     "--grid", "0:6:13", "--no-fit",
                     "--out-dir", str(tmp_path), "--out", "prof")
    assert code == 0
    closed = tmp_path / "prof_closed.csv"
    quad = tmp_path / "prof_quadrature.csv"
    sidecar = tmp_path / "prof.json"
    assert closed.exists() and quad.exists() and sidecar.exists()
    header = closed.read_text().splitlines()[0]
    assert header == "r,value"
    meta = json.loads(sidecar.read_text())
    assert meta["case"] == "n2m0Zp1"
    assert meta["normalization_target"] == 2.0
    assert meta["grid"] == {"min": 0.0, "max": 6.0, "points": 13}
    assert sorted(os.path.basename(f) for f in meta["files"]) == [
        "prof_closed.csv", "prof_quadrature.csv"]


def test_entropy_out_dir_env(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HOOKIUM_OUT_DIR", str(tmp_path))
    code, _, _ = run(capsys, "entropy", "--n", "2", "--m", "0", "--Z", "-1",
                     "--out", "prof")
    assert code == 0
    text = (tmp_path / "prof.csv").read_text()
    assert text.startswith("r,value\n")
    assert text.endswith("\n")


def test_grid_validation(capsys):
    code, _, err = run(capsys, "entropy", "--n", "2", "--m", "0", "--Z", "-1",
                       "--grid", "0:6:13", "--spacing", "log")
    assert code == 2
    assert "log" in err


def test_config_file_merge(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# defaults\nn = 3\nm = 0:2\nZ = 1,-1\nscan = true\n")
    code, out, _ = run(capsys, "entropy", "--config", str(cfg))
    assert code == 0
    assert out.splitlines()[0] == "m,omega,Z,entropy"
    assert len(out.splitlines()) == 7
    # explicit flags beat config values
    code, out, _ = run(capsys, "entropy", "--config", str(cfg), "--m", "1:1")
    assert code == 0
    assert len(out.splitlines()) == 3


def test_config_rejects_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n = 3\nbogus = 1\n")
    code, _, err = run(capsys, "entropy", "--config", str(cfg))
    assert code == 2
    assert "bogus" in err


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 29
    assert all(r["passed"] for r in rows)
    names = [r["name"] for r in rows]
    assert names[0] == "indicial-roots-descending"
    assert len(set(names)) == len(names)


def test_verify_detune_fails_one_check(capsys):
    code, out, _ = run(capsys, "verify", "--detune", "1e-3")
    assert code == 1
    lines = out.splitlines()
    fails = [ln for ln in lines if ln.startswith("FAIL")]
    assert len(fails) == 1
    assert "eigen-residual-n3-m1" in fails[0]
    assert lines[-1] == "28/29 checks passed"


def test_numeric_flags_take_fractions(capsys):
    code, half, _ = run(capsys, "solve", "--n", "2", "--Z", "-1/2")
    assert code == 0
    code, decimal, _ = run(capsys, "solve", "--n", "2", "--Z", "-0.5")
    assert code == 0
    assert half == decimal
    code, out, _ = run(capsys, "qes", "map", "--gamma", "1", "--alpha", "-8", "--E", "-1/2")
    assert code == 0
    assert "Z = 0.25" in out.splitlines()
    code, out, _ = run(capsys, "qes", "variational", "--nodes", "1", "--bracket", "1/2:3")
    assert code == 0
    assert "node_count = 1" in out.splitlines()
    code, _, err = run(capsys, "solve", "--n", "2", "--Z", "1/0")
    assert code == 2
    assert "bad number list" in err


@pytest.mark.parametrize("argv", [
    "entropy --n 2 --m 0 --Z -1 --surface --surface-points 0",
    "entropy --n 2 --m 0 --Z -1 --surface --surface-points -3",
    "qes variational --nodes 1 --N 1",
    "qes variational --nodes 1 --gamma 0",
    "qes condition --n -1 --gamma 1",
    "qes condition --n 2 --gamma -1",
    "density --n 2 --Z 1 --grid 0:4:3 --beta -1",
    "qes variational --nodes 1 --sextic-m -2 --bracket 0:3",
    "solve --n 2 --Z nan",
    "solve --n 2 --Z inf",
    "qes variational --nodes 1 --alpha nan",
    "qes map --gamma 1 --alpha abc --E 1",
    "qes map --gamma 1 --alpha 1 --E abc",
    "density --n 2 --Z 1 --grid 0:4:3 --quad-tol -1",
    "density --n 2 --Z 1 --grid 0:4:3 --quad-tol 0",
    "density --n 2 --Z 1 --grid 0:4:3 --quad-tol nan",
])
def test_out_of_range_values_are_config_errors(capsys, argv):
    code, _, err = run(capsys, *argv.split())
    assert code == 2
    assert err.startswith("error: ")
    if "abc" in argv.split():
        assert err == "error: not a number: 'abc'\n"
