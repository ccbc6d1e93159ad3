"""The five workloads: seeded inputs, the timed operations, and their oracles.

Each workload is a fixed list of operations drawn from the seed. An operation
is one closed-loop call sequence into the public hookium API (`run`, timed);
its oracle (`check`, never timed) returns the failures it finds as
(input key, reason) pairs. The input key names the branch, level or command
that failed, so a failure can be matched against `known_failures.json`.

Inputs are stratified: the strata (n, the sign of Z, and an angular momentum
m that walks through 0..10 along the n ladder) are fixed, and the seed draws
what leaves the amount of work and the failure pattern about alone: the size
of Z, the coupling of the sextic sectors not searched variationally, the
command order. Every seed thus reaches every part of each stated domain with
about the same work.

Each pass is sized to a few seconds so that a run holds several passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from hookium import cli, hooke, observables, qes
from hookium.serialize import render_csv

# The package's own acceptance bounds (verify battery, tests/test_acceptance.py).
RESIDUAL_BOUND = 1e-9        # eigen residual of a built or mapped state
NORM_BOUND = 1e-9            # |integral of u^2 - 1|, by independent quadrature
ROUTES_BOUND = 1e-5          # closed form vs convolution quadrature, max relative deviation
BETA_BOUND = 1e-3            # fitted CM width vs omega, relative
SCALE_BOUND = 1e-6           # normalization scale of a convolved density vs 1
ENTROPY_BOUND = 1e-8         # Coulomb-free omega = 1/2 entropy vs 1 + ln(2 pi)
VARIATIONAL_BOUND = 1e-8     # variational E* vs its exact sector level

README_GRID = np.linspace(0.0, 8.0, 161)   # the README's density grid, 0:8:161
ROUTES_GRID = README_GRID[::4]             # 0:8:41, for the cases the README does not run
COARSE_GRID = README_GRID[::20]            # 0:8:9
README_CASE = "n2m1Zp1"                    # the case of the README's density command

# n ladder of the spectrum workload: every n up to 14, where branch counts and
# failure onsets change fastest, then every second n up to 32. Past 32 the
# Sturm node count of one repulsive tuple alone takes seconds (4 s at n = 50),
# which would leave one pass per run.
SPECTRUM_N = list(range(2, 15)) + list(range(16, 33, 2))
ENTROPY_N = list(range(2, 15)) + list(range(16, 25, 2))   # the same ladder, up to 24
Z_VALUES = (1, -1, 2, -2)
# uncataloged density branch (n, m, sign of Z, branch): the lowest-frequency
# attractive n = 5 state; the seed draws |Z|, which scales the state but not
# the quadrature work (a seeded n <= 6 moved the pass by up to 10%)
CUSTOM_DENSITY = (5, 3, -1, 1)
SEXTIC_GAMMAS = (Fraction(1, 4), Fraction(4, 9), Fraction(1), Fraction(9, 4), Fraction(4))
SEXTIC_MS = (Fraction(-1, 2), Fraction(0), Fraction(1))
SEXTIC_NS = (2, 4, 6, 8)
# (m, gamma) of the sector searched variationally, per sector index n: together
# they reach every m, four of the five gammas and both failure kinds
# (BracketError at n = 6 and 8, NodeCountUnreachable at n = 6). They are fixed
# because a search costs 0.2-1 s depending on gamma and m, and fails by m.
SEARCHED = {2: (Fraction(1), Fraction(1, 4)), 4: (Fraction(-1, 2), Fraction(4, 9)),
            6: (Fraction(0), Fraction(9, 4)), 8: (Fraction(-1, 2), Fraction(4))}
VARIATIONAL_N = 16

WORKLOADS = ("spectrum", "entropy", "density", "sextic", "cli")


@dataclass
class Op:
    """One timed operation and the oracle for its output."""

    name: str                               # unique within the workload
    key: str                                # input key an exception of `run` is filed under
    run: Callable[[], object]
    check: Callable[[object, dict], list]   # (output, outputs of the pass by name) -> failures


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _deck(rng: random.Random, values, count: int) -> list:
    """`count` draws that use every value equally often (up to one), in seeded order."""
    out = [values[i % len(values)] for i in range(count)]
    rng.shuffle(out)
    return out


def stratum_m(n: int, sign: int) -> int:
    """Angular momentum of the (n, sign of Z) stratum; walks through 0..10 along the ladder.

    The offsets put (26, 2, -) and (28, 3, +) on the ladder: two of the three
    branch sets whose eigen residual exceeded 1e-9 when the benchmark was defined.
    """
    return (n + (8 if sign > 0 else 9)) % 11


# ---------------------------------------------------------------- shared oracles

_GL_X, _GL_W = np.polynomial.legendre.leggauss(64)


def gl_norm(wf) -> float:
    """Integral of u^2 over r >= 0 by composite 64-point Gauss-Legendre on 32 panels.

    Independent of hookium's adaptive quadrature; the integrand is an entire
    Gaussian-times-polynomial, so the fixed rule is exact to roundoff once the
    range covers the Gaussian tail.
    """
    deg = max(wf.poly.degree, 0)
    r_max = math.sqrt((200.0 + 4.0 * (2.0 * wf.m_abs + 1.0 + 2.0 * deg)) / wf.omega)
    edges = np.linspace(0.0, r_max, 33)
    half = 0.5 * np.diff(edges)
    x = 0.5 * (edges[1:] + edges[:-1])[:, None] + half[:, None] * _GL_X[None, :]
    return float(np.sum(half[:, None] * _GL_W[None, :] * wf.u_squared(x)))


def expected_nodes(n: int, Z, index: int, count: int) -> int:
    """Node count of branch `index` (descending omega) among `count` branches.

    Repulsive branches carry count-1 .. 0 nodes; attractive ones carry the
    remaining n-count .. n-1 of the degree n-1 polynomial's positive roots.
    """
    return count - 1 - index if Z > 0 else n - count + index


def state_failures(key: str, wf, residual: float) -> list:
    """Eigen residual and independent normalization of one built state."""
    out = []
    if not residual <= RESIDUAL_BOUND:
        out.append((key, "residual"))
    if not abs(gl_norm(wf) - 1.0) <= NORM_BOUND:
        out.append((key, "norm"))
    return out


def rel_deviation(a, b) -> float:
    """Max relative deviation of a from b where b is at least 1e-8 of its peak."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mask = b >= 1e-8 * b.max()
    return float(np.max(np.abs(a[mask] - b[mask]) / b[mask]))


# ---------------------------------------------------------------- spectrum

def spectrum_op(n: int, m: int, Z: int) -> Op:
    base = f"{n},{m},{Z}"

    def run():
        rows = []
        for b in hooke.solve_frequencies(n, m, Z):
            try:
                wf = hooke.build_wavefunction(b)
            except Exception as exc:  # typed failure of one branch; the oracle counts it
                rows.append((b, exc, None, None))
                continue
            rows.append((b, wf, hooke.verify_branch(wf), wf.nodes))
        return rows

    def check(rows, _):
        out = []
        for i, (b, wf, residual, nodes) in enumerate(rows):
            key = f"{base},{i}"
            if isinstance(wf, Exception):
                out.append((key, type(wf).__name__))
                continue
            out.extend(state_failures(key, wf, residual))
            if nodes != expected_nodes(n, Z, i, len(rows)):
                out.append((key, "nodes"))
        closed = {2: Fraction(Z * Z, 2 * (2 * m + 1)), 3: Fraction(Z * Z, 4 * (4 * m + 3))}
        if n in closed and (len(rows) != 1 or rows[0][0].omega_exact != closed[n]):
            out.append((f"{base},0", "omega_exact"))
        return out

    return Op(f"spectrum {base}", f"{base},solve", run, check)


def spectrum(seed: int, ctx: dict) -> list[Op]:
    """(n, m, Z) tuples: every ladder n once per sign of Z; |Z| in {1, 2} from the seed.

    Branches of Z and 2Z share their polynomial and fail alike, so the seed
    moves the frequencies (by a factor of four) but not the work.
    """
    rng = _rng("spectrum", seed)
    slots = [(n, sign) for n in SPECTRUM_N for sign in (1, -1)]
    sizes = _deck(rng, (1, 2), len(slots))
    return [spectrum_op(n, stratum_m(n, sign), sign * size)
            for (n, sign), size in zip(slots, sizes)]


# ---------------------------------------------------------------- entropy

def entropy_op(key: str, branch, reference: float | None) -> Op:
    def run():
        wf = hooke.build_wavefunction(branch)
        total = observables.total_entropy(wf)
        return wf, total, observables.entropy_density(wf)

    def check(result, _):
        wf, total, profile = result
        out = state_failures(key, wf, hooke.verify_branch(wf))
        if profile.total != total or not np.all(np.isfinite(profile.values)) \
                or not math.isfinite(total):
            out.append((key, "entropy"))
        if reference is not None and not abs(total - reference) <= ENTROPY_BOUND:
            out.append((key, "entropy"))
        return out

    return Op(f"entropy {key}", key, run, check)


def entropy(seed: int, ctx: dict) -> list[Op]:
    """Highest- and lowest-frequency branch per (n, sign of Z), n <= 24, plus omega = 1/2.

    |Z| in {1, 2} comes from the seed, as in the spectrum workload. Which
    branches fail depends on the branch, so a seeded branch choice would move
    both fail_frac and the work (a failing build costs a fraction of an
    entropy); the two ends of each spectrum are fixed instead.
    """
    rng = _rng("entropy", seed)
    slots = [(n, sign) for n in ENTROPY_N for sign in (1, -1)]
    sizes = _deck(rng, (1, 2), len(slots))
    return [oscillator_op()] + [op for (n, sign), size in zip(slots, sizes)
                                for op in entropy_stratum_ops(n, sign * size)]


def oscillator_op() -> Op:
    """The Coulomb-free omega = 1/2 state, whose entropy is 1 + ln(2 pi)."""
    return entropy_op("oscillator", hooke.oscillator_branch(0, Fraction(1, 2)),
                      1.0 + math.log(2.0 * math.pi))


def entropy_stratum_ops(n: int, Z: int) -> list[Op]:
    m = stratum_m(n, Z)
    branches = hooke.solve_frequencies(n, m, Z)
    return [entropy_op(f"{n},{m},{Z},{i}", branches[i], None)
            for i in sorted({0, len(branches) - 1})]


# ---------------------------------------------------------------- density

def density_case_ops(case) -> list[Op]:
    cid = case.case_id
    wf = hooke.build_wavefunction(case.branch())
    omega = float(case.omega)
    cm = hooke.CenterOfMassState(beta=omega)

    def closed_check(profile, outputs):
        quad = outputs.get(f"density quadrature {cid}")
        if quad is None or not np.all(np.isfinite(profile.values)) \
                or rel_deviation(profile.values[::20], quad.values) > ROUTES_BOUND:
            return [(f"{cid},closed", "routes")]
        return []

    def quad_check(profile, _):
        ok = abs(profile.scale_applied - 1.0) <= SCALE_BOUND
        return [] if ok else [(f"{cid},quadrature", "scale")]

    def routes_check(label):
        def check(cmp, _):
            ok = cmp.max_rel_deviation <= ROUTES_BOUND
            return [] if ok else [(f"{cid},{label}", "routes")]
        return check

    def fit_check(cmp, outputs):
        out = routes_check("fit")(cmp, outputs)
        if not abs(cmp.fit.beta - omega) <= BETA_BOUND * omega:
            out.append((f"{cid},fit", "beta"))
        return out

    ops = [
        Op(f"density closed {cid}", f"{cid},closed",
           lambda: observables.closed_form_density(case, README_GRID), closed_check),
        Op(f"density quadrature {cid}", f"{cid},quadrature",
           lambda: observables.density_quadrature(wf, cm, COARSE_GRID), quad_check),
        Op(f"density routes {cid}", f"{cid},routes",
           lambda: observables.compare_density_routes(
               case, README_GRID if cid == README_CASE else ROUTES_GRID, fit_width=False),
           routes_check("routes")),
        Op(f"density numeric {cid}", f"{cid},numeric",
           lambda: observables.compare_density_routes(case, COARSE_GRID, fit_width=False,
                                                      angular="numeric"),
           routes_check("numeric")),
    ]
    if cid == README_CASE:
        ops.append(Op(f"density fit {cid}", f"{cid},fit",
                      lambda: observables.compare_density_routes(case, README_GRID),
                      fit_check))
    return ops


def custom_density_op(size: int) -> Op:
    n, m, sign, i = CUSTOM_DENSITY
    key = f"{n},{m},{sign * size},{i}"
    wf = hooke.build_wavefunction(hooke.solve_frequencies(n, m, sign * size)[i])
    cm = hooke.CenterOfMassState(beta=4.0 * wf.omega)
    grid = np.linspace(0.0, wf.support_radius(20.0), 9)

    def check(profile, _):
        if not abs(profile.scale_applied - 1.0) <= SCALE_BOUND \
                or not np.all(np.isfinite(profile.values)):
            return [(key, "scale")]
        return []

    return Op(f"density custom {key}", key,
              lambda: observables.density_quadrature(wf, cm, grid), check)


def density(seed: int, ctx: dict) -> list[Op]:
    """Every catalog case by each route, the width fit on the README case, one seeded branch.

    Per case: the closed form on the README grid, the normalized convolution
    (nested quadrature) on its 9-point subset, both routes compared (on the
    README grid for the README's case, on its 41-point subset for the rest),
    and the numeric angular integral on the 9 points. The fit runs once, on
    the README's case: each fit costs 1.5-3.5 s, and four would leave one pass
    per run. The uncataloged branch (CUSTOM_DENSITY) uses the CLI's width
    beta = 4 omega.
    """
    ops = [op for case in observables.CATALOG.values() for op in density_case_ops(case)]
    return ops + [custom_density_op(_rng("density", seed).choice((1, 2)))]


# ---------------------------------------------------------------- sextic

def _sector_op(gamma, m, n: int) -> Op:
    base = f"{gamma},{m},{n}"

    def run():
        params = qes.SexticParams(alpha=qes.qes_condition(n, m, gamma), gamma=gamma, m=m)
        levels = qes.sector_energies(params)
        d = qes.sector_degree(params)
        residuals = []
        for E in levels:
            u = qes.qes_eigen_series(E, params, 2 * d + 2)
            residuals.append(hooke.verify_branch(qes.sextic_state_to_hooke(params, E, u)))
        return params, levels, residuals

    def check(result, _):
        params, levels, residuals = result
        out = []
        if not qes.condition_residual(params, n) <= 1e-12 or len(levels) != n // 2 + 1:
            out.append((f"{base},sector", "condition"))
        out.extend((f"{base},{k}", "residual")
                   for k, r in enumerate(residuals) if not r <= RESIDUAL_BOUND)
        return out

    return Op(f"sextic sector {base}", f"{base},sector", run, check)


def _variational_op(params, key: str, k: int, level: float) -> Op:
    def check(vs, _):
        out = []
        if not abs(vs.E_star - level) <= VARIATIONAL_BOUND:
            out.append((key, "energy"))
        if vs.node_count != k:
            out.append((key, "nodes"))
        return out

    return Op(f"sextic variational {key}", key,
              lambda: qes.variational_state(params, k, VARIATIONAL_N), check)


def sextic(seed: int, ctx: dict) -> list[Op]:
    """One closed sector per (n, m), variational searches on the four SEARCHED ones.

    The other eight sectors take gamma from the seed. The levels searched are
    those inside the default bracket (0, 3 x largest level spacing), fixed
    here so that a change of the default bracket cannot change the inputs;
    each search targets its level's exact node count.
    """
    rng = _rng("sextic", seed)
    ops = []
    for n in SEXTIC_NS:
        for m in SEXTIC_MS:
            searched_m, searched_gamma = SEARCHED[n]
            gamma = searched_gamma if m == searched_m else rng.choice(SEXTIC_GAMMAS)
            ops.extend(sector_ops(gamma, m, n))
    return ops


def sector_ops(gamma, m, n: int) -> list[Op]:
    """The sector operation, then a variational search per level if the sector is searched."""
    ops = [_sector_op(gamma, m, n)]
    if (m, gamma) == SEARCHED[n]:
        params = qes.SexticParams(alpha=qes.qes_condition(n, m, gamma), gamma=gamma, m=m)
        levels = qes.sector_energies(params)
        hi = 3.0 * max(b - a for a, b in zip(levels, levels[1:]))
        ops.extend(_variational_op(params, f"{gamma},{m},{n},{k}", k, E)
                   for k, E in enumerate(levels) if 0.0 < E < hi)
    return ops


# ---------------------------------------------------------------- cli

def _parse(text: str) -> dict:
    return dict(line.split(" = ", 1) for line in text.splitlines() if " = " in line)


def _cli_op(argv: list, check_out: Callable[[int, str, Path], bool], out_dir: Path) -> Op:
    key = " ".join(argv)
    full = argv + (["--out-dir", str(out_dir)] if "--out" in argv else [])

    def run():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(full)
            except SystemExit as exc:  # argparse rejects the command line: exit code 2
                code = exc.code
        return code, out.getvalue()

    def check(result, _):
        code, text = result
        try:
            ok = check_out(code, text, out_dir)
        except (ValueError, KeyError, OSError, IndexError):
            ok = False
        return [] if ok else [(key, "output" if code == 0 else f"exit {code}")]

    return Op(f"cli {key}", key, run, check)


def _golden(name: str, root: Path):
    want = (root / "tests" / "goldens" / name).read_bytes()
    return lambda code, text, _: code == 0 and text.encode("utf-8") == want


def _solve_rows(n, m, Z) -> str:
    rows = [(b.n, b.m, b.Z, b.kappa, b.omega_tilde, b.eps_rel, 2.0 * b.eps_rel)
            for b in hooke.solve_frequencies(n, m, Z)]
    return render_csv(("n", "m", "Z", "kappa", "omega", "eps_rel", "eps_rel_doubled"), rows)


def _check_solve_out(code, text, out_dir):
    rows = text.split("wrote ")[0]
    csv = (out_dir / "freqs.csv").read_text(encoding="utf-8")
    want = "".join(_solve_rows(3, m, Z).split("\n", 1)[1] for m in range(5) for Z in (1.0, -1.0))
    return code == 0 and rows == csv and csv.split("\n", 1)[1] == want


def _check_density_out(code, text, out_dir):
    v = _parse(text)
    omega = float(v["omega"])
    side = json.loads((out_dir / "dens.json").read_text(encoding="utf-8"))
    return (code == 0 and float(v["max_rel_deviation"]) <= ROUTES_BOUND
            and abs(float(v["beta_fitted"]) - omega) <= BETA_BOUND * omega
            and side["max_rel_deviation"] == float(v["max_rel_deviation"])
            and all(Path(f).is_file() for f in side["files"]))


def _check_entropy_out(code, text, out_dir):
    total = float(_parse(text)["total_entropy"])
    lines = (out_dir / "profile.csv").read_text(encoding="utf-8").splitlines()
    return code == 0 and math.isfinite(total) and len(lines) == 513


def _check_scan_out(golden: str):
    def check(code, text, _):
        rows = [r for r in text.splitlines()[1:] if int(r.split(",")[0]) <= 2]
        return code == 0 and len(text.splitlines()) == 11 and rows == golden.splitlines()[1:]
    return check


def _check_map_trap(code, text, _):
    v = _parse(text)
    return code == 0 and (float(v["gamma"]), float(v["alpha"]), float(v["E"])) == (1.0, -8.0, 2.0)


def _check_map_sextic(code, text, _):
    v = _parse(text)
    return code == 0 and (float(v["omega"]), float(v["Z"]), float(v["eps_rel"])) == (0.5, -1.0, 1.0)


def _check_variational(code, text, _):
    v = _parse(text)
    return code == 0 and abs(float(v["E_star"]) - float(v["nearest_exact"])) <= VARIATIONAL_BOUND


def _check_verify(code, text, _):
    return code == 0 and text.splitlines()[-1] == "29/29 checks passed"


def readme_specs(root: Path) -> list:
    """(argv, output check) for every README CLI command, verify and the goldens."""
    golden_scan = (root / "tests" / "goldens" / "entropy_scan_n3.csv").read_text(encoding="utf-8")
    return [
        (["solve", "--n", "4", "--m", "0", "--Z", "1"], _golden("solve_n4.csv", root)),
        (["solve", "--n", "3", "--m", "0:4", "--Z", "1,-1", "--out", "freqs"], _check_solve_out),
        (["density", "--case", README_CASE, "--method", "both", "--grid", "0:8:161",
          "--out", "dens"], _check_density_out),
        (["entropy", "--n", "2", "--m", "0", "--Z", "-1", "--out", "profile"], _check_entropy_out),
        (["entropy", "--scan", "--n", "3", "--m", "0:4", "--Z", "1,-1"],
         _check_scan_out(golden_scan)),
        (["entropy", "--scan", "--n", "3", "--m", "0:2", "--Z", "1,-1"],
         _golden("entropy_scan_n3.csv", root)),
        (["qes", "condition", "--n", "2", "--m", "0", "--gamma", "4/9"],
         _golden("qes_condition.txt", root)),
        (["qes", "map", "--n", "2", "--m", "0", "--Z", "-1"], _check_map_trap),
        (["qes", "map", "--gamma", "1", "--alpha", "-8", "--E", "2", "--sextic-m", "-1/2"],
         _check_map_sextic),
        (["qes", "variational", "--nodes", "1"], _check_variational),
        (["verify"], _check_verify),
    ]


def cli_workload(seed: int, ctx: dict) -> list[Op]:
    """Every README CLI command plus verify and the goldens, in an order drawn from the seed.

    Commands run in process through `cli.main`; `--out` files land in the
    run's scratch directory.
    """
    specs = readme_specs(ctx["root"])
    _rng("cli", seed).shuffle(specs)
    return [_cli_op(argv, check, ctx["out_dir"]) for argv, check in specs]


BUILDERS = {
    "spectrum": spectrum,
    "entropy": entropy,
    "density": density,
    "sextic": sextic,
    "cli": cli_workload,
}


def warm_up(name: str, ctx: dict) -> None:
    """Touch every lazy import and first-call path of the workload before timing."""
    branch = hooke.solve_frequencies(3, 1, 1)[0]
    wf = hooke.build_wavefunction(branch)
    hooke.verify_branch(wf)
    _ = wf.nodes
    if name == "entropy":
        observables.entropy_density(wf)
    elif name == "density":
        case = observables.CATALOG["n2m0Zp1"]
        observables.compare_density_routes(case, np.linspace(0.0, 4.0, 3), fit_width=False,
                                           angular="numeric")
        observables.density_quadrature(wf, hooke.CenterOfMassState(beta=1.0),
                                       np.linspace(0.1, 2.0, 2), normalize=False)
    elif name == "sextic":
        qes.variational_state(qes.SexticParams(alpha=-8.0, gamma=1.0, m=-0.5), 1, 12,
                              E_bracket=(1.0, 3.0), scan_points=9)
    elif name == "cli":
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(["qes", "condition", "--n", "2", "--m", "0", "--gamma", "4/9"])
