"""Command-line interface for the two-particle trap solver.

Subcommands: solve (closed-form frequencies and energies), density
(single-particle densities by convolution quadrature or cataloged closed
forms), entropy (radial profiles, Cartesian surfaces, frequency scans), qes
(the sextic-oscillator dictionary and variational estimator), and verify (the
named consistency suite).

Exit codes: 0 success, 1 failed verification, 2 bad usage, configuration or
out-of-range value, 3 no closed branch for the requested quantum numbers,
4 quadrature tolerance not reachable, 5 variational search failure.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np

from . import hooke, observables, qes
from . import verify as verify_mod
from .integrate import QuadratureNonConvergence
from .serialize import (format_number, profile_rows, render_csv, scan_rows,
                        surface_rows, write_json, write_text)

__all__ = ["ConfigError", "main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NO_BRANCH = 3
EXIT_QUADRATURE = 4
EXIT_SEARCH = 5


class ConfigError(ValueError):
    """Bad flag combination, malformed value, or broken config file."""


# ---------------------------------------------------------------- parsing

def parse_rational(text):
    """Fraction for exact-friendly inputs ('4/9', '0.5', '2'), float otherwise."""
    try:
        return Fraction(str(text))
    except (ValueError, ZeroDivisionError):
        try:
            return float(text)
        except ValueError:
            raise ConfigError(f"not a number: {text!r}") from None


def parse_int_range(spec) -> list[int]:
    """'3' -> [3]; '0:4' -> [0, 1, 2, 3, 4] (inclusive ends)."""
    s = str(spec)
    try:
        if ":" in s:
            lo_s, hi_s = s.split(":", 1)
            lo, hi = int(lo_s), int(hi_s)
            if hi < lo:
                raise ValueError
            return list(range(lo, hi + 1))
        return [int(s)]
    except ValueError:
        raise ConfigError(f"bad integer range {spec!r} (want 'a' or 'a:b')") from None


def parse_number_list(spec) -> list[float]:
    """'1,-1/2' -> [1.0, -0.5]."""
    try:
        return [float(parse_rational(tok)) for tok in str(spec).split(",") if tok != ""]
    except ValueError:
        raise ConfigError(f"bad number list {spec!r} (want comma-separated values)") from None


def parse_bracket(spec) -> tuple:
    try:
        lo_s, hi_s = str(spec).split(":", 1)
        return (float(parse_rational(lo_s)), float(parse_rational(hi_s)))
    except ValueError:
        raise ConfigError(f"bad bracket {spec!r} (want 'lo:hi')") from None


def build_grid(spec, spacing, omega):
    """Grid from 'min:max:points' (or the frequency-scaled default when absent)."""
    if spec is None:
        return observables.default_grid(float(omega))
    parts = str(spec).split(":")
    if len(parts) != 3:
        raise ConfigError(f"bad grid {spec!r} (want 'min:max:points')")
    try:
        lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError:
        raise ConfigError(f"bad grid {spec!r} (want 'min:max:points')") from None
    if n < 2 or not hi > lo:
        raise ConfigError(f"bad grid {spec!r}: need max > min and points >= 2")
    if spacing == "log":
        if lo <= 0:
            raise ConfigError("log spacing needs min > 0")
        return np.geomspace(lo, hi, n)
    return np.linspace(lo, hi, n)


def _out_dir(args) -> Path:
    return Path(args.out_dir or os.environ.get("HOOKIUM_OUT_DIR") or ".")


def _single(values, flag):
    if len(values) != 1:
        raise ConfigError(f"{flag} must be a single value here")
    return values[0]


def _resolve_branch(n, m, Z, omega, index):
    """One quantization branch, or the Coulomb-free Gaussian when Z = 0."""
    if Z == 0:
        if omega is None:
            raise ConfigError("Z = 0 has no closure condition; pass --omega")
        if n != 1:
            raise ConfigError("Z = 0 closed states have n = 1")
        return hooke.oscillator_branch(m, parse_rational(omega))
    if omega is not None:
        raise ConfigError("omega is fixed by the closure condition when Z != 0")
    branches = hooke.solve_frequencies(n, m, Z)
    if not 0 <= index < len(branches):
        raise ConfigError(f"branch index {index} out of range; "
                          f"{len(branches)} branch(es) for n={n}, m={m}, Z={Z}")
    return branches[index]


def _require(args, *names):
    # required-ness is enforced here, after config merge, so a config file
    # can supply any option a flag can
    for name in names:
        if getattr(args, name.replace("-", "_")) is None:
            raise ConfigError(f"missing required option --{name}")


# ---------------------------------------------------------------- commands

def cmd_solve(args) -> int:
    _require(args, "n")
    rows = []
    for m in parse_int_range(args.m):
        for Z in parse_number_list(args.Z):
            for b in hooke.solve_frequencies(args.n, m, Z):
                rows.append((b.n, b.m, b.Z, b.kappa, b.omega_tilde,
                             b.eps_rel, 2.0 * b.eps_rel))
    text = render_csv(("n", "m", "Z", "kappa", "omega", "eps_rel", "eps_rel_doubled"), rows)
    sys.stdout.write(text)
    if args.out:
        path = write_text(_out_dir(args) / f"{args.out}.csv", text)
        print(f"wrote {path}")
    return EXIT_OK


def _density_sidecar(args, profile, case_id, wf, extra):
    grid = profile.grid
    payload = {
        "kind": "density",
        "case": case_id,
        "m": float(wf.m_abs),
        "Z": wf.Z,
        "omega": wf.omega,
        "eps_rel": wf.eps_rel,
        "method": profile.method,
        "normalization_target": profile.normalization_target,
        "scale_applied": profile.scale_applied,
        "beta_used": profile.beta,
        "beta_convention": 4.0 * wf.omega,
        "grid": {"min": float(grid[0]), "max": float(grid[-1]), "points": int(grid.size)},
    }
    payload.update(extra)
    return payload


def cmd_density(args) -> int:
    tol_abs = args.quad_tol
    tol_rel = tol_abs * 1e3
    if args.case:
        try:
            case = observables.CATALOG[args.case]
        except KeyError:
            raise ConfigError(f"unknown density case {args.case!r}; "
                              f"have {', '.join(sorted(observables.CATALOG))}") from None
        wf = hooke.build_wavefunction(case.branch())
        grid = build_grid(args.grid, args.spacing, case.omega)
        case_id = case.case_id
    else:
        if args.n is None or args.Z is None:
            raise ConfigError("pass --case or the full --n/--m/--Z set")
        branch = _resolve_branch(args.n, _single(parse_int_range(args.m), "--m"),
                                 _single(parse_number_list(args.Z), "--Z"),
                                 args.omega, args.branch)
        wf = hooke.build_wavefunction(branch)
        grid = build_grid(args.grid, args.spacing, wf.omega)
        case = None
        case_id = None

    lines = []
    files = []
    extra = {}
    outputs = []
    if args.method == "closed":
        if case is None:
            raise ConfigError("--method closed needs --case")
        profile = observables.closed_form_density(case, grid)
        outputs.append(("", profile))
    elif args.method == "quadrature":
        beta = args.beta if args.beta is not None else (
            float(case.omega) if case is not None else 4.0 * wf.omega)
        cm = hooke.CenterOfMassState(beta=beta)
        profile = observables.density_quadrature(wf, cm, grid, angular=args.angular,
                                                 tol_abs=tol_abs, tol_rel=tol_rel)
        outputs.append(("", profile))
    else:
        if case is None:
            raise ConfigError("--method both needs --case")
        cmp = observables.compare_density_routes(case, grid, fit_width=not args.no_fit,
                                                 angular=args.angular)
        closed = observables.closed_form_density(case, grid)
        quad = dataclasses.replace(closed, values=cmp.quadrature_values,
                                   method=f"quadrature-{args.angular}",
                                   beta=cmp.beta_used, scale_applied=1.0)
        profile = quad
        outputs.append(("_closed", closed))
        outputs.append(("_quadrature", quad))
        lines.append(f"max_rel_deviation = {format_number(cmp.max_rel_deviation)}")
        extra["max_rel_deviation"] = cmp.max_rel_deviation
        if cmp.fit is not None:
            lines.append(f"beta_fitted = {format_number(cmp.fit.beta)}")
            lines.append(f"beta_convention = {format_number(4.0 * wf.omega)}")
            extra["beta_fitted"] = cmp.fit.beta
            extra["fit_objective"] = cmp.fit.objective

    print(f"case = {case_id or 'custom'}")
    print(f"method = {profile.method}")
    print(f"omega = {format_number(wf.omega)}")
    print(f"points = {grid.size}")
    print(f"scale_applied = {format_number(profile.scale_applied)}")
    if profile.beta is not None:
        print(f"beta_used = {format_number(profile.beta)}")
    for line in lines:
        print(line)

    if args.out:
        base = _out_dir(args)
        for suffix, prof in outputs:
            path = write_text(base / f"{args.out}{suffix}.csv",
                              render_csv(("r", "value"), profile_rows(prof.grid, prof.values)))
            files.append(str(path))
        payload = _density_sidecar(args, profile, case_id, wf, extra)
        payload["files"] = files
        files.append(str(write_json(base / f"{args.out}.json", payload)))
        for f in files:
            print(f"wrote {f}")
    return EXIT_OK


def cmd_entropy(args) -> int:
    _require(args, "n")
    if args.scan:
        rows = observables.entropy_scan(args.n, parse_int_range(args.m),
                                        parse_number_list(args.Z))
        text = render_csv(("m", "omega", "Z", "entropy"), scan_rows(rows))
        sys.stdout.write(text)
        if args.out:
            path = write_text(_out_dir(args) / f"{args.out}.csv", text)
            print(f"wrote {path}")
        return EXIT_OK

    m = _single(parse_int_range(args.m), "--m")
    Z = _single(parse_number_list(args.Z), "--Z")
    branch = _resolve_branch(args.n, m, Z, args.omega, args.branch)
    wf = hooke.build_wavefunction(branch)
    grid = build_grid(args.grid, args.spacing, wf.omega)
    profile = observables.entropy_density(wf, grid)
    print(f"n = {branch.n}")
    print(f"m = {branch.m}")
    print(f"Z = {format_number(branch.Z)}")
    print(f"omega = {format_number(branch.omega_tilde)}")
    print(f"eps_rel = {format_number(branch.eps_rel)}")
    print(f"total_entropy = {format_number(profile.total)}")
    if args.out:
        base = _out_dir(args)
        path = write_text(base / f"{args.out}.csv",
                          render_csv(("r", "value"), profile_rows(profile.grid, profile.values)))
        print(f"wrote {path}")
        if args.surface:
            surf = observables.entropy_surface(wf, extent=args.extent,
                                               points=args.surface_points)
            spath = write_text(base / f"{args.out}_surface.csv",
                               render_csv(("x", "y", "value"),
                                          surface_rows(surf.x, surf.y, surf.values)))
            print(f"wrote {spath}")
    elif args.surface:
        surf = observables.entropy_surface(wf, extent=args.extent, points=args.surface_points)
        print(f"surface = {surf.values.shape[0]}x{surf.values.shape[1]}, "
              f"extent {format_number(float(surf.x[-1]))} (pass --out to write it)")
    return EXIT_OK


def cmd_qes_condition(args) -> int:
    _require(args, "n", "gamma")
    gamma = parse_rational(args.gamma)
    m = parse_rational(args.m)
    alpha = qes.qes_condition(args.n, m, gamma)
    p = qes.SexticParams(alpha=alpha, gamma=gamma, m=m)
    print(f"n = {args.n}")
    print(f"m = {format_number(float(m))}")
    print(f"gamma = {gamma}")
    print(f"alpha = {format_number(float(alpha))}")
    print(f"A = {format_number(float(p.A))}")
    print(f"condition_residual = {format_number(qes.condition_residual(p, args.n))}")
    d = qes.sector_degree(p)
    if d is None:
        print("sector_degree = none")
    else:
        print(f"sector_degree = {d}")
        energies = qes.sector_energies(p)
        print("sector_energies = " + ",".join(format_number(e) for e in energies))
    return EXIT_OK


def cmd_qes_map(args) -> int:
    if args.n is not None:
        m = _single(parse_int_range(args.m), "--m")
        Z = _single(parse_number_list(args.Z), "--Z")
        branch = _resolve_branch(args.n, m, Z, None, args.branch)
        inv = qes.map_from_hooke(branch)
        print(f"omega = {format_number(branch.omega_tilde)}")
        print(f"Z = {format_number(branch.Z)}")
        print(f"eps_rel = {format_number(branch.eps_rel)}")
        print(f"gamma = {format_number(inv.params.gamma)}")
        print(f"alpha = {format_number(inv.params.alpha)}")
        print(f"E = {format_number(inv.E)}")
        print(f"sextic_m = {format_number(float(inv.params.m))}")
        print(f"integer_sextic_m = {'yes' if inv.integer_sextic_m else 'no'}")
        return EXIT_OK
    if args.gamma is None or args.alpha is None or args.E is None:
        raise ConfigError("map needs either --n/--m/--Z or --gamma/--alpha/--E")
    p = qes.SexticParams(alpha=float(args.alpha), gamma=parse_rational(args.gamma),
                         m=parse_rational(args.sextic_m))
    eq = qes.map_to_hooke(p, args.E)
    print(f"gamma = {format_number(float(p.gamma))}")
    print(f"alpha = {format_number(float(p.alpha))}")
    print(f"E = {format_number(float(args.E))}")
    print(f"omega = {format_number(eq.omega_tilde)}")
    print(f"Z = {format_number(eq.Z)}")
    print(f"m_tilde = {format_number(eq.m_tilde)}")
    print(f"eps_rel = {format_number(eq.eps_rel)}")
    return EXIT_OK


def cmd_qes_variational(args) -> int:
    _require(args, "nodes")
    p = qes.SexticParams(alpha=float(args.alpha), gamma=parse_rational(args.gamma),
                         m=parse_rational(args.sextic_m))
    bracket = parse_bracket(args.bracket) if args.bracket else None
    vs = qes.variational_state(p, args.nodes, args.N, bracket,
                               scan_points=args.scan_points)
    print(f"E_star = {format_number(vs.E_star)}")
    print(f"residual_norm = {format_number(vs.residual_norm)}")
    print(f"node_count = {vs.node_count}")
    print(f"N = {args.N}")
    d = qes.sector_degree(p)
    if d is not None:
        exact = qes.sector_energies(p)
        nearest = min(exact, key=lambda e: abs(e - vs.E_star))
        print(f"nearest_exact = {format_number(nearest)}")
    return EXIT_OK


def cmd_qes(args) -> int:
    return args.qes_func(args)


def cmd_verify(args) -> int:
    results = verify_mod.run_checks(detune=args.detune)
    if args.json:
        print(json.dumps([dataclasses.asdict(r) for r in results], indent=2))
    else:
        for r in results:
            mark = "ok  " if r.passed else "FAIL"
            detail = f"  {r.detail}" if r.detail else ""
            print(f"{mark} {r.name}{detail}")
        passed = sum(r.passed for r in results)
        print(f"{passed}/{len(results)} checks passed")
    return EXIT_OK if all(r.passed for r in results) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------- config file

def load_config(path) -> dict:
    """key = value lines; '#' comments; keys use the long option spelling."""
    out = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{ln}: expected key = value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            raise ConfigError(f"{path}:{ln}: empty key")
        out[key] = value
    return out


def _convert_config_value(action, value: str):
    if action.const is True:
        low = value.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"bad boolean {value!r} for {action.option_strings[0]}")
    if action.choices and value not in action.choices:
        raise ConfigError(f"bad value {value!r} for {action.option_strings[0]}; "
                          f"choose from {sorted(action.choices)}")
    caster = action.type or str
    try:
        return caster(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value {value!r} for {action.option_strings[0]}: {exc}") from None


def apply_config(leaf_parser, args, cfg: dict, argv: list) -> None:
    """Fill in config values for every option the command line left at default."""
    by_dest = {a.dest: a for a in leaf_parser._actions if a.option_strings}
    for key, value in cfg.items():
        dest = key.replace("-", "_")
        if dest == "config":
            raise ConfigError("config files cannot nest via a 'config' key")
        action = by_dest.get(dest)
        if action is None:
            raise ConfigError(f"unknown config key {key!r} for this command")
        explicit = any(tok == opt or tok.startswith(opt + "=")
                       for opt in action.option_strings for tok in argv)
        if explicit:
            continue
        setattr(args, dest, _convert_config_value(action, value))


# ---------------------------------------------------------------- parser

_LEAF_PARSERS: dict = {}

# argparse's own pattern admits only integers and decimals, so '--sextic-m -1/2'
# would read '-1/2' as an unknown option; fractions are values here too
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+/\d+$")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value file merged under explicit flags")
    common.add_argument("--out-dir", help="output directory (default: $HOOKIUM_OUT_DIR or .)")
    common.add_argument("--out", help="basename for written files; nothing is written without it")

    parser = argparse.ArgumentParser(prog="hookium",
                                     description="closed-form states of two trapped "
                                                 "Coulomb-interacting particles")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", parents=[common],
                             help="closed branches for given quantum numbers")
    p_solve.add_argument("--n", type=int, help="polynomial order (n >= 2)")
    p_solve.add_argument("--m", default="0", help="angular momentum, single or range 'a:b'")
    p_solve.add_argument("--Z", default="1", help="Coulomb coupling(s), comma-separated")
    p_solve.set_defaults(func=cmd_solve)
    _LEAF_PARSERS["solve"] = p_solve

    p_density = sub.add_parser("density", parents=[common],
                               help="single-particle density profiles")
    p_density.add_argument("--case", help="cataloged closed-form case id")
    p_density.add_argument("--n", type=int, help="polynomial order (with --m/--Z)")
    p_density.add_argument("--m", default="0")
    p_density.add_argument("--Z", default=None)
    p_density.add_argument("--omega", default=None, help="frequency when Z = 0")
    p_density.add_argument("--branch", type=int, default=0,
                           help="branch index, frequencies descending (default 0)")
    p_density.add_argument("--method", choices=("quadrature", "closed", "both"),
                           default="quadrature")
    p_density.add_argument("--angular", choices=("bessel", "numeric"), default="bessel",
                           help="inner angular integral: Bessel identity or direct quadrature")
    p_density.add_argument("--beta", type=float, default=None,
                           help="center-of-mass Gaussian width override")
    p_density.add_argument("--no-fit", action="store_true",
                           help="skip the width fit in --method both")
    p_density.add_argument("--grid", default=None, help="'min:max:points'")
    p_density.add_argument("--spacing", choices=("linear", "log"), default="linear")
    p_density.add_argument("--quad-tol", type=float, default=1e-15,
                           help="absolute quadrature tolerance per density point")
    p_density.set_defaults(func=cmd_density)
    _LEAF_PARSERS["density"] = p_density

    p_entropy = sub.add_parser("entropy", parents=[common],
                               help="information-entropy profiles and scans")
    p_entropy.add_argument("--n", type=int)
    p_entropy.add_argument("--m", default="0", help="single value or range 'a:b' with --scan")
    p_entropy.add_argument("--Z", default="1", help="single value or comma list with --scan")
    p_entropy.add_argument("--omega", default=None, help="frequency when Z = 0")
    p_entropy.add_argument("--branch", type=int, default=0)
    p_entropy.add_argument("--scan", action="store_true",
                           help="total entropy over the (m, Z) lattice, sorted by omega")
    p_entropy.add_argument("--surface", action="store_true",
                           help="also evaluate the Cartesian entropy surface")
    p_entropy.add_argument("--extent", type=float, default=None,
                           help="surface half-width (default 12/sqrt(omega))")
    p_entropy.add_argument("--surface-points", type=int, default=201)
    p_entropy.add_argument("--grid", default=None, help="'min:max:points'")
    p_entropy.add_argument("--spacing", choices=("linear", "log"), default="log")
    p_entropy.set_defaults(func=cmd_entropy)
    _LEAF_PARSERS["entropy"] = p_entropy

    p_qes = sub.add_parser("qes", help="sextic-oscillator bridge")
    qes_sub = p_qes.add_subparsers(dest="qes_command", required=True)

    p_cond = qes_sub.add_parser("condition", parents=[common],
                                help="coupling that closes a polynomial sector")
    p_cond.add_argument("--n", type=int, help="sector index")
    p_cond.add_argument("--m", default="0", help="centrifugal index")
    p_cond.add_argument("--gamma", help="sextic coupling, e.g. 4/9")
    p_cond.set_defaults(func=cmd_qes, qes_func=cmd_qes_condition)
    _LEAF_PARSERS["qes condition"] = p_cond

    p_map = qes_sub.add_parser("map", parents=[common],
                               help="x^2 = r dictionary, either direction")
    p_map.add_argument("--n", type=int, help="trap side: polynomial order")
    p_map.add_argument("--m", default="0")
    p_map.add_argument("--Z", default="1")
    p_map.add_argument("--branch", type=int, default=0)
    p_map.add_argument("--gamma", help="sextic side: coupling")
    p_map.add_argument("--alpha", type=parse_rational, help="sextic side: quadratic coupling")
    p_map.add_argument("--E", type=parse_rational, help="sextic side: energy")
    p_map.add_argument("--sextic-m", default="0", help="sextic side: centrifugal index")
    p_map.set_defaults(func=cmd_qes, qes_func=cmd_qes_map)
    _LEAF_PARSERS["qes map"] = p_map

    p_var = qes_sub.add_parser("variational", parents=[common],
                               help="residual-minimizing energy at fixed node count")
    p_var.add_argument("--gamma", default="1",
                       help="sextic coupling (defaults describe the repulsive "
                            "two-particle pair mapped through x^2 = r)")
    p_var.add_argument("--alpha", type=parse_rational, default=-8.0)
    p_var.add_argument("--sextic-m", default="-1/2")
    p_var.add_argument("--nodes", type=int)
    p_var.add_argument("--N", type=int, default=16, help="series truncation order")
    p_var.add_argument("--bracket", default=None, help="'lo:hi' energy bracket")
    p_var.add_argument("--scan-points", type=int, default=33)
    p_var.set_defaults(func=cmd_qes, qes_func=cmd_qes_variational)
    _LEAF_PARSERS["qes variational"] = p_var

    p_verify = sub.add_parser("verify", parents=[common], help="named consistency checks")
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--detune", type=float, default=0.0,
                          help="fractional frequency detuning injected into the "
                               "eigen-residual check (nonzero must fail)")
    p_verify.set_defaults(func=cmd_verify)
    _LEAF_PARSERS["verify"] = p_verify

    for leaf in _LEAF_PARSERS.values():
        leaf._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "config", None):
            leaf_key = args.command
            if args.command == "qes":
                leaf_key = f"qes {args.qes_command}"
            apply_config(_LEAF_PARSERS[leaf_key], args, load_config(args.config), argv)
        return args.func(args)
    except hooke.NoBranchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_BRANCH
    except QuadratureNonConvergence as exc:
        print(f"error: quadrature did not converge: {exc}", file=sys.stderr)
        return EXIT_QUADRATURE
    except (qes.NodeCountUnreachable, qes.BracketError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEARCH
    except ValueError as exc:  # ConfigError, InconsistentParams, values outside the domain
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
