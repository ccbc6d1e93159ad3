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
import functools
import json
import math
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
            value = float(text)
        except ValueError:
            raise ConfigError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"not a finite number: {text!r}")
    return value


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
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"bad grid {spec!r}: min and max must be finite")
    if n < 2 or not hi > lo:
        raise ConfigError(f"bad grid {spec!r}: need max > min and points >= 2")
    if lo < 0:
        raise ConfigError(f"bad grid {spec!r}: radii must be >= 0")
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
    branches = hooke._exact_branches(n, m, Z)
    if not 0 <= index < len(branches):
        raise ConfigError(f"branch index {index} out of range; "
                          f"{len(branches)} branch(es) for n={n}, m={m}, Z={Z}")
    return hooke._with_roots([branches[index]])[0]   # roots for this branch alone


def _unread(args, names, context):
    """ConfigError naming each option of names that a flag or the config file gave."""
    unread = [f"--{name.replace('_', '-')}" for name in names if name in args.given]
    if unread:
        raise ConfigError(f"{', '.join(unread)} would be ignored {context}")


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
            for b in hooke._exact_branches(args.n, m, Z):   # frequencies need no roots
                rows.append((b.n, b.m, b.Z, b.kappa, b.omega_tilde,
                             b.eps_rel, 2.0 * b.eps_rel))
    text = render_csv(("n", "m", "Z", "kappa", "omega", "eps_rel", "eps_rel_doubled"), rows)
    sys.stdout.write(text)
    if args.out:
        path = write_text(_out_dir(args) / f"{args.out}.csv", text)
        print(f"wrote {path}")
    return EXIT_OK


def _density_sidecar(profile, case_id, wf, extra):
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
    if not (0 < tol_abs and tol_rel < math.inf):
        raise ConfigError(f"--quad-tol must be positive with 1000x it finite, got {tol_abs!r}")
    unread = {"quadrature": ("no_fit",), "closed": ("beta", "angular", "no_fit"), "both": ("beta",)}
    _unread(args, unread[args.method], f"with --method {args.method}")
    if args.case:
        _unread(args, ("n", "m", "Z", "omega", "branch"), "with --case")
        try:
            case = observables._catalog_case(args.case)
        except KeyError as exc:
            raise ConfigError(exc.args[0]) from None
        wf = case.state
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
                                                 angular=args.angular,
                                                 tol_abs=tol_abs, tol_rel=tol_rel)
        closed = cmp.closed
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
        payload = _density_sidecar(profile, case_id, wf, extra)
        payload["files"] = files
        files.append(str(write_json(base / f"{args.out}.json", payload)))
        for f in files:
            print(f"wrote {f}")
    return EXIT_OK


def cmd_entropy(args) -> int:
    _require(args, "n")
    if not args.surface:
        _unread(args, ("extent", "surface_points"), "without --surface")
    if args.scan:
        _unread(args, ("omega", "branch", "surface", "grid", "spacing"), "with --scan")
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
    # the surface is checked and computed before any line is printed
    surf = observables.entropy_surface(wf, extent=args.extent, points=args.surface_points) \
        if args.surface else None
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
    if surf is not None:
        if args.out:
            spath = write_text(base / f"{args.out}_surface.csv",
                               render_csv(("x", "y", "value"),
                                          surface_rows(surf.x, surf.y, surf.values)))
            print(f"wrote {spath}")
        else:
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
        _unread(args, ("gamma", "alpha", "E", "sextic_m"), "with --n (the trap side)")
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
    _unread(args, ("m", "Z", "branch"), "without --n (the sextic side)")
    E = parse_rational(args.E)
    p = qes.SexticParams(alpha=float(parse_rational(args.alpha)),
                         gamma=parse_rational(args.gamma), m=parse_rational(args.sextic_m))
    eq = qes.map_to_hooke(p, E)
    print(f"gamma = {format_number(float(p.gamma))}")
    print(f"alpha = {format_number(float(p.alpha))}")
    print(f"E = {format_number(float(E))}")
    print(f"omega = {format_number(eq.omega_tilde)}")
    print(f"Z = {format_number(eq.Z)}")
    print(f"m_tilde = {format_number(eq.m_tilde)}")
    print(f"eps_rel = {format_number(eq.eps_rel)}")
    return EXIT_OK


def cmd_qes_variational(args) -> int:
    _require(args, "nodes")
    p = qes.SexticParams(alpha=float(parse_rational(args.alpha)),
                         gamma=parse_rational(args.gamma), m=parse_rational(args.sextic_m))
    bracket = parse_bracket(args.bracket) if args.bracket else None
    vs = qes.variational_state(p, args.nodes, args.N, bracket)
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


def apply_config(leaf_parser, args, cfg: dict) -> None:
    """Fill in config values for every option not in args.given, and add their keys to it."""
    by_dest = {a.dest: a for a in leaf_parser._actions if a.option_strings}
    for key, value in cfg.items():
        dest = key.replace("-", "_")
        if dest == "config":
            raise ConfigError("config files cannot nest via a 'config' key")
        action = by_dest.get(dest)
        if action is None:
            raise ConfigError(f"unknown config key {key!r} for this command")
        if dest not in args.given:
            setattr(args, dest, _convert_config_value(action, value))
            args.given.add(dest)


# ---------------------------------------------------------------- parser

# argparse reads a separated value that starts with '-' as a flag unless it matches
# this pattern (its own admits integers and decimals only). Every value form the parsers
# take matches: numbers with exponents, p/q, inf and nan, alone, in comma lists or in
# 'a:b' and 'a:b:c' specs. This is safe because hookium has no single-dash option but -h.
_NUMBER = r"(?:(?:\d+\.?\d*|\.\d+)(?:e[+-]?\d+)?(?:/\d+)?|inf(?:inity)?|nan)"
_NEGATIVE_NUMBER = re.compile(rf"^-{_NUMBER}(?:[,:][+-]?{_NUMBER})*$", re.IGNORECASE)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The hookium parser, built once per process.

    Parsing leaves the parser unchanged (each call gets a fresh Namespace, and
    config values land on that), so every main call can share it.
    """
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="key = value file merged under explicit flags")
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out-dir", help="output directory (default: $HOOKIUM_OUT_DIR or .)")
    output.add_argument("--out", help="basename for written files; nothing is written without it")

    def leaf(subparsers, name, func, summary, writes=False):
        """A command's own parser; parsing sets args.func and args.leaf (this parser).

        Only a leaf that writes files takes --out and --out-dir.
        """
        p = subparsers.add_parser(name, parents=[common, output] if writes else [common],
                                  help=summary)
        p.set_defaults(func=func, leaf=p)
        p._negative_number_matcher = _NEGATIVE_NUMBER
        return p

    parser = argparse.ArgumentParser(prog="hookium",
                                     description="closed-form states of two trapped "
                                                 "Coulomb-interacting particles")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = leaf(sub, "solve", cmd_solve, "closed branches for given quantum numbers",
                   writes=True)
    p_solve.add_argument("--n", type=int, help="polynomial order (n >= 2)")
    p_solve.add_argument("--m", default="0", help="angular momentum, single or range 'a:b'")
    p_solve.add_argument("--Z", default="1", help="Coulomb coupling(s), comma-separated")

    p_density = leaf(sub, "density", cmd_density, "single-particle density profiles",
                     writes=True)
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
                           help="center-of-mass Gaussian width (--method quadrature only)")
    p_density.add_argument("--no-fit", action="store_true",
                           help="skip the width fit in --method both")
    p_density.add_argument("--grid", default=None, help="'min:max:points'")
    p_density.add_argument("--spacing", choices=("linear", "log"), default="linear")
    p_density.add_argument("--quad-tol", type=float, default=1e-15,
                           help="absolute tolerance per convolved density point "
                                "(relative: 1000x this); the Gauss rule starts at one "
                                "panel against two and doubles up to 64 panels until "
                                "the two agree within it, else exit 4; checked with "
                                "every --method")

    p_entropy = leaf(sub, "entropy", cmd_entropy, "information-entropy profiles and scans",
                     writes=True)
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

    p_qes = sub.add_parser("qes", help="sextic-oscillator bridge")
    qes_sub = p_qes.add_subparsers(dest="qes_command", required=True)

    p_cond = leaf(qes_sub, "condition", cmd_qes_condition,
                  "coupling that closes a polynomial sector")
    p_cond.add_argument("--n", type=int, help="sector index")
    p_cond.add_argument("--m", default="0", help="centrifugal index")
    p_cond.add_argument("--gamma", help="sextic coupling, e.g. 4/9")

    p_map = leaf(qes_sub, "map", cmd_qes_map, "x^2 = r dictionary, either direction")
    p_map.add_argument("--n", type=int, help="trap side: polynomial order")
    p_map.add_argument("--m", default="0")
    p_map.add_argument("--Z", default="1")
    p_map.add_argument("--branch", type=int, default=0)
    p_map.add_argument("--gamma", help="sextic side: coupling")
    p_map.add_argument("--alpha", help="sextic side: quadratic coupling")
    p_map.add_argument("--E", help="sextic side: energy")
    p_map.add_argument("--sextic-m", default="0", help="sextic side: centrifugal index")

    p_var = leaf(qes_sub, "variational", cmd_qes_variational,
                 "Rayleigh-Ritz level at fixed node count")
    p_var.add_argument("--gamma", default="1",
                       help="sextic coupling (defaults describe the repulsive "
                            "two-particle pair mapped through x^2 = r)")
    p_var.add_argument("--alpha", default="-8")
    p_var.add_argument("--sextic-m", default="-1/2")
    p_var.add_argument("--nodes", type=int, help="level index, equal to its node count")
    p_var.add_argument("--N", type=int, default=16,
                       help="series truncation order; the Ritz basis has "
                            "N//2 + 1 functions")
    p_var.add_argument("--bracket", default=None,
                       help="'lo:hi' energy range the level must lie in")

    p_verify = leaf(sub, "verify", cmd_verify, "named consistency checks")
    p_verify.add_argument("--json", action="store_true")
    p_verify.add_argument("--detune", type=float, default=0.0,
                          help="fractional frequency detuning injected into the "
                               "eigen-residual check (nonzero must fail)")
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        # args.given: the options that were given, in any spelling (abbreviated, or with '=').
        # The leaf's own tokens (after the command words) are parsed again into a namespace
        # of sentinels; a leaf has no subparsers, so argparse leaves the others at theirs.
        unset, actions = object(), args.leaf._actions
        tokens = argv[argv.index(args.command) + 1 + (args.command == "qes"):]
        ns = args.leaf.parse_args(tokens, argparse.Namespace(**{a.dest: unset for a in actions}))
        args.given = {a.dest for a in actions if getattr(ns, a.dest) is not unset}
        if args.config:
            apply_config(args.leaf, args, load_config(args.config))
        return args.func(args)
    except hooke.NoBranchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_BRANCH
    except QuadratureNonConvergence as exc:
        print(f"error: quadrature did not converge: {exc}", file=sys.stderr)
        return EXIT_QUADRATURE
    except hooke.EquilibriumError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_QUADRATURE
    except (qes.NodeCountUnreachable, qes.BracketError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SEARCH
    except ValueError as exc:  # ConfigError, InconsistentParams, values outside the domain
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
