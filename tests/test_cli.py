import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hookium import cli, hooke, observables, serialize


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


def _fresh_env(**extra):
    src = str(Path(__file__).parent.parent / "src")
    return {**os.environ, **extra,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_readme_cli_commands_succeed(tmp_path, capsys, monkeypatch):
    # the parser is built once per process; each in-process run, after the
    # others, prints what a fresh interpreter prints
    monkeypatch.setenv("HOOKIUM_OUT_DIR", str(tmp_path))
    commands = readme_cli_commands()
    assert len(commands) == 9
    assert cli.build_parser() is cli.build_parser()
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        fresh = subprocess.run([sys.executable, "-m", "hookium", *argv], capture_output=True,
                               text=True, env=_fresh_env(HOOKIUM_OUT_DIR=str(tmp_path)),
                               timeout=300)
        assert fresh.returncode == 0, (argv, fresh.stderr)
        assert out == fresh.stdout, argv


def test_config_values_do_not_leak_into_the_next_call(tmp_path, capsys):
    cfg = tmp_path / "scan.cfg"
    cfg.write_text("n = 3\nm = 0:2\nZ = 1,-1\nscan = true\n")
    code, out, _ = run(capsys, "entropy", "--config", str(cfg))
    assert code == 0 and out.startswith("m,omega,Z,entropy\n")
    code, out, _ = run(capsys, "entropy", "--n", "1", "--Z", "0", "--omega", "0.5")
    assert code == 0
    assert out == ("n = 1\nm = 0\nZ = 0\nomega = 0.5\neps_rel = 0.5\n"
                   "total_entropy = 2.8378770664093453\n")
    code, _, err = run(capsys, "entropy")
    assert code == 2
    assert "missing required option --n" in err


def test_valid_command_succeeds_after_usage_error(capsys):
    code, _, err = run(capsys, "solve", "--n", "2", "--frequency", "1")
    assert code == 2 and "unrecognized arguments" in err
    code, _, err = run(capsys, "qes", "condition", "--n", "two")
    assert code == 2 and "invalid int value" in err
    code, out, _ = run(capsys, "solve", "--n", "4", "--m", "0", "--Z", "1")
    assert code == 0
    golden = Path(__file__).parent / "goldens" / "solve_n4.csv"
    assert out == golden.read_text(encoding="utf-8")


def test_cli_solves_only_the_chambers_it_reads(capsys, monkeypatch):
    branches = hooke.solve_frequencies(8, 0, -1)
    solved = []
    equilibria = hooke._equilibria

    def spy(N, nu, chambers):
        solved.append(list(chambers))
        return equilibria(N, nu, chambers)

    monkeypatch.setattr(hooke, "_equilibria", spy)
    code, out, _ = run(capsys, "solve", "--n", "8", "--m", "0", "--Z", "-1")
    assert code == 0 and solved == []
    rows = [(b.n, b.m, b.Z, b.kappa, b.omega_tilde, b.eps_rel, 2.0 * b.eps_rel)
            for b in branches]
    assert out == serialize.render_csv(("n", "m", "Z", "kappa", "omega", "eps_rel",
                                        "eps_rel_doubled"), rows)
    code, _, _ = run(capsys, "entropy", "--n", "8", "--m", "0", "--Z", "-1", "--branch", "1")
    assert code == 0 and solved == [[branches[1].chamber]]


def test_cli_import_skips_scipy_optimize_and_integrate():
    # SciPy is imported where it is used (the width fit, the adaptive oracle, Bessel
    # values); a cold start loads none of it
    code = ("import sys, hookium.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=_fresh_env(), check=True, timeout=120)
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


@pytest.mark.parametrize("argv", [
    "verify --out x",
    "qes condition --n 2 --gamma 1 --out y",
    "qes map --gamma 1 --alpha -8 --E 2 --out y",
    "qes variational --nodes 1 --out-dir d",
])
def test_out_flags_only_on_commands_that_write(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: {' '.join(argv.split()[-2:])}" in err


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


def test_entropy_surface(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("HOOKIUM_OUT_DIR", str(tmp_path))
    argv = ("entropy", "--n", "2", "--m", "0", "--Z", "-1", "--surface", "--surface-points", "5")
    wf = hooke.build_wavefunction(cli._resolve_branch(2, 0, -1.0, None, 0))
    surf = observables.entropy_surface(wf, points=5)
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    extent = serialize.format_number(12.0 / math.sqrt(wf.omega))
    assert out.splitlines()[-1] == f"surface = 5x5, extent {extent} (pass --out to write it)"
    assert list(tmp_path.iterdir()) == []   # without --out nothing is written
    code, out, err = run(capsys, *argv, "--out", "s")
    assert code == 0, err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["s.csv", "s_surface.csv"]
    assert out.splitlines()[-1] == f"wrote {tmp_path / 's_surface.csv'}"
    lines = (tmp_path / "s_surface.csv").read_text(encoding="utf-8").splitlines()
    assert lines[0] == "x,y,value" and len(lines) == 26
    assert lines[1:] == [",".join(serialize.format_number(v) for v in (x, y, surf.values[i, j]))
                         for i, x in enumerate(surf.x) for j, y in enumerate(surf.y)]


def test_surface_rows_reject_shape_mismatch():
    with pytest.raises(ValueError, match="values must be shaped"):
        serialize.surface_rows([0.0, 1.0], [0.0, 1.0, 2.0], np.zeros((3, 2)))


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


def test_density_both_routes_honour_quad_tolerance(capsys):
    code, _, err = run(capsys, "density", "--case", "n2m0Zp1",
                       "--method", "both", "--no-fit", "--grid", "0:4:3",
                       "--quad-tol", "1e-30")
    assert code == 4
    assert "quadrature" in err.lower()


@pytest.mark.parametrize("spec", ["-1:4:3", "-0.5:0:2"])
def test_build_grid_rejects_negative_radii(spec):
    with pytest.raises(cli.ConfigError, match="radii must be >= 0"):
        cli.build_grid(spec, "linear", 1.0)


@pytest.mark.parametrize("spec", ["0:inf:5", "nan:1:5", "-inf:1:5", "0:nan:5", "inf:inf:5"])
def test_build_grid_rejects_nonfinite_ends(spec):
    for spacing in ("linear", "log"):
        with pytest.raises(cli.ConfigError, match="min and max must be finite"):
            cli.build_grid(spec, spacing, 1.0)


def test_density_low_frequency_branch_at_default_tolerance(capsys):
    # omega = 0.0068; the float-coefficient state once gave P and 2P sums 2.6e-11 apart (exit 4)
    code, out, err = run(capsys, "density", "--n", "8", "--m", "10", "--Z", "-2", "--branch", "3")
    assert code == 0, err
    assert "case = custom" in out


def test_density_domain_edge_branch_at_default_tolerance(capsys):
    # omega = 2.8e-5; a fixed 4 against 8 panels fell short of the default budget (exit 4)
    code, out, err = run(capsys, "density", "--n", "32", "--m", "0", "--Z", "-1",
                         "--branch", "15", "--grid", "0:20:9")
    assert code == 0, err
    assert "case = custom" in out


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


@pytest.mark.parametrize("flag", ["--meth closed", "--meth=closed", "--method closed",
                                  "--method=closed"])
def test_flag_in_any_spelling_beats_config(tmp_path, capsys, flag):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("method = both\n")
    code, out, err = run(capsys, "density", "--case", "n2m0Zp1", "--config", str(cfg),
                         *flag.split(), "--grid", "0:8:5")
    assert code == 0, err
    assert out.splitlines()[1] == "method = closed-form"


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


@pytest.mark.parametrize("argv, joined", [
    ("solve --n 2 --Z -1,1", "solve --n 2 --Z=-1,1"),
    ("solve --n 2 --m -1:1", "solve --n 2 --m=-1:1"),
    ("qes variational --nodes 0 --bracket -3:-1", "qes variational --nodes 0 --bracket=-3:-1"),
])
def test_separated_negative_values_are_values(capsys, argv, joined):
    # a separated value that starts with '-' is a value in every form, not a flag
    code, out, err = run(capsys, *argv.split())
    assert code == 0, err
    assert (code, out) == run(capsys, *joined.split())[:2]


@pytest.mark.parametrize("argv, message", [
    ("density --n 2 --Z 1 --beta -inf", "beta must be finite and positive"),
    ("density --n 2 --Z 1 --grid -inf:1:5", "min and max must be finite"),
    ("qes variational --nodes 1 --sextic-m -inf", "not a finite number"),
    ("qes variational --nodes 1 --bracket -nan:1", "bad bracket"),
])
def test_separated_negative_nonfinite_values_reach_domain_checks(capsys, argv, message):
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert message in err


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
    "density --case n2m0Zp1 --method both --no-fit --grid 0:4:3 --quad-tol -1",
    "density --case n2m0Zp1 --method closed --grid 0:4:3 --quad-tol nan",
    "density --case n2m0Zp1 --method closed --grid 0:4:3 --quad-tol inf",
    "density --n 2 --Z 1 --grid=-1:4:3",
    "density --n 2 --Z 1 --beta nan",
    "density --n 2 --Z 1 --beta inf",
    "density --n 2 --Z 1 --grid 0:inf:5",
    "density --n 2 --Z 1 --grid=-inf:1:5",
    "entropy --n 2 --Z 1 --surface --extent nan",
    "entropy --n 2 --Z 1 --surface --extent inf",
    "entropy --n 2 --Z 1 --surface --extent 0",
    "entropy --n 2 --Z 1 --surface --extent=-1",
    "qes variational --gamma 1 --alpha -8 --nodes=-1 --N 8",
    "qes variational --nodes 0 --alpha -8.7 --sextic-m -1.49",
    "density --case n2m0Zp1 --method both --grid 0:4:3 --beta 2",
    "density --case n2m0Zp1 --method closed --grid 0:4:3 --beta 2",
    # inputs that the chosen mode does not read
    "density --case n2m0Zp1 --n 3 --Z -1",
    "entropy --scan --n 3 --m 0:1 --Z 1 --surface --branch 2 --grid 0:1:3",
    "qes map --n 2 --m 0 --Z -1 --gamma 4 --alpha 3 --E 1",
    "qes map --gamma 1 --alpha -8 --E 2 --Z 1",
    "entropy --n 2 --Z 1 --extent 3",
    "density --case n2m0Zp1 --method closed --grid 0:4:3 --no-fit",
])
def test_out_of_range_values_are_config_errors(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert (code, out) == (2, "")
    assert err.startswith("error: ")
    if "abc" in argv.split():
        assert err == "error: not a number: 'abc'\n"


@pytest.mark.parametrize("argv, config, named", [
    ("density --case n2m0Zp1 --n 3 --Z -1", "", "--n, --Z would be ignored with --case"),
    ("entropy --scan --n 3 --m 0:1 --Z 1 --surface --branch 2 --grid 0:1:3", "",
     "--branch, --surface, --grid would be ignored with --scan"),
    ("qes map --n 2 --m 0 --Z -1 --gamma 4 --alpha 3 --E 1", "",
     "--gamma, --alpha, --E would be ignored with --n (the trap side)"),
    ("density --case n2m0Zp1", "n = 3\n", "--n would be ignored with --case"),
    ("entropy --n 3 --scan", "surface = true\n", "--surface would be ignored with --scan"),
    # only solve, density and entropy write files
    ("verify", "out = x\n", "unknown config key 'out' for this command"),
    ("qes condition --n 2 --gamma 1", "out-dir = d\n",
     "unknown config key 'out-dir' for this command"),
])
def test_unread_inputs_are_named(tmp_path, capsys, argv, config, named):
    # a flag or config key that the chosen mode does not read exits 2 and is named
    extra = []
    if config:
        (tmp_path / "c.cfg").write_text(config)
        extra = ["--config", str(tmp_path / "c.cfg")]
    assert run(capsys, *argv.split(), *extra) == (2, "", f"error: {named}\n")
