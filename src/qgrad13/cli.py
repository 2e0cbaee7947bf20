"""Command-line front end.

Exit codes: 0 success, 1 failed verification, 2 usage error, 3 domain or
model failure (reported as a JSON object on stderr).  Floating-point output
carries 17 significant digits so repeated invocations with the same seed
produce byte-identical artifacts.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

import numpy as np

from . import analysis, solver1d, spectral
from .errors import (CFLViolation, DomainError, InadmissibleCell,
                     NoConvergence, NoRoot, QuadratureNotConverged, SingularD)
from .matrices import (SystemKind, assemble_A_direction,
                       assemble_A_regularized)
from .polylog import eval_polylog_set
from .state import (EquilibriumParams, MomentState13, equilibrium_state13,
                    fit_state)

_EPILOG = """\
units: particle mass and Boltzmann constant are scaled to 1, so temperature
T carries velocity-squared units and pressure equals rho T at equilibrium.
Dimensionless grid variables: sigma11_hat = sigma11/p, sigma12_hat =
sigma12/p, q1_hat = q1/(p sqrt(T)).  theta selects the statistics:
+1 Fermion, 0 classical, -1 Boson; z is the fugacity (z < 1 for Bosons).
"""

_KINDS = {"grad": SystemKind.Grad13, "trivial": SystemKind.TrivialR13,
          "regularized": SystemKind.FinalR13}


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _parse_direction(text: str):
    parts = text.split(",")
    if len(parts) == 1:
        try:
            axis = int(parts[0])
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"direction must be an axis 1..3 or three comma floats: {text!r}")
        if axis not in (1, 2, 3):
            raise argparse.ArgumentTypeError(f"axis must be 1, 2 or 3: {axis}")
        return axis
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(
            f"direction needs exactly three components: {text!r}")
    return [float(p) for p in parts]


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_polylog(args) -> int:
    ps = eval_polylog_set(args.z, args.theta)
    if args.json:
        _print_json(ps.as_dict())
        return 0
    print(f"theta={ps.theta} z={_fmt(ps.z)}")
    for key, val in ps.as_dict()["li"].items():
        print(f"li[{key}] = {_fmt(val)}")
    return 0


def _load_state(path: str) -> MomentState13:
    with open(path) as fh:
        return MomentState13.from_dict(json.load(fh))


def _cmd_eigs(args) -> int:
    kind = _KINDS[args.system]
    if args.state is not None:
        state = _load_state(args.state)
        eq = fit_state(state, args.theta, hhat=args.hhat)
    elif args.z is None:
        print("eigs: either --state FILE or --z is required", file=sys.stderr)
        return 2
    else:
        eq = EquilibriumParams(theta=args.theta, z=args.z, u=np.zeros(3),
                               T=args.T, hhat=args.hhat)
        state = equilibrium_state13(eq)
    if kind is SystemKind.FinalR13:
        A = assemble_A_regularized(state, eq, args.dir).A
    else:
        A = assemble_A_direction(kind, state, eq, args.dir)
    verdict = spectral.diagonalizability_test(A)
    payload = verdict.as_dict()
    payload["system"] = kind.value
    if args.dump:
        lines = ["re,im"]
        lines += [f"{_fmt(ev['re'])},{_fmt(ev['im'])}"
                  for ev in payload["eigenvalues"]]
        with open(args.dump, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    if args.json:
        _print_json(payload)
        return 0
    print(f"system={kind.value} class={payload['class']}")
    for ev in payload["eigenvalues"]:
        print(f"lambda = {_fmt(ev['re'])} + {_fmt(ev['im'])}i")
    return 0


def _report_region(grid: analysis.RegionGrid, out: Optional[str]) -> None:
    counts = analysis.class_counts(grid.cells)
    print(f"theta={grid.theta} z={_fmt(grid.z)} grid={grid.x.size}x{grid.y.size}")
    print(f"area_fraction = {_fmt(analysis.area_fraction(grid))}")
    for name in ("HyperbolicStrict", "HyperbolicDegenerate",
                 "NonDiagonalizable", "NonHyperbolic", "Inadmissible"):
        if name in counts:
            print(f"{name}: {counts[name]}")
    for key in ("grad_area_fraction",):
        if key in grid.metadata:
            print(f"{key} = {_fmt(grid.metadata[key])}")
    if out:
        analysis.write_region_csv(grid, out)
        print(f"wrote {out} and {out}.meta.json")


def _cmd_region1d(args) -> int:
    grid = analysis.region_scan_1d(args.theta, args.z, n=args.n,
                                   q1_hat_max=args.qmax, threads=args.threads)
    _report_region(grid, args.out)
    return 0


def _cmd_region3d(args) -> int:
    grid = analysis.region_scan_3d_cross_section(args.theta, args.z, n=args.n,
                                                 q1_hat_max=args.qmax,
                                                 threads=args.threads)
    _report_region(grid, args.out)
    return 0


def _cmd_region_reg(args) -> int:
    direction = args.direction if args.direction == "random" \
        else _parse_direction(args.direction)
    grid = analysis.region_scan_regularized(args.theta, args.z, n=args.n,
                                            q1_hat_max=args.qmax,
                                            direction=direction,
                                            seed=args.seed,
                                            threads=args.threads,
                                            compare_grad=args.compare_grad)
    _report_region(grid, args.out)
    return 0


def _cmd_sweep_eigs(args) -> int:
    if args.zmin is not None and args.zmax is not None:
        z = np.logspace(np.log10(args.zmin), np.log10(args.zmax), args.n)
    else:
        z = analysis.default_sweep_grid(args.theta, args.n)
    sweep = analysis.eigen_sweep_fugacity(args.theta, z, T=args.T)
    if sweep.crossing_z is not None:
        print(f"branch crossing at z = {_fmt(sweep.crossing_z)}")
    first, last = 0, sweep.z.size - 1
    for i in (first, last):
        vals = ", ".join(f"{n}={_fmt(sweep.branches[n][i])}"
                         for n in sweep.BRANCH_ORDER)
        print(f"z={_fmt(sweep.z[i])}: {vals}")
    if args.out:
        analysis.write_sweep_csv(sweep, args.out)
        print(f"wrote {args.out} and {args.out}.meta.json")
    return 0


def _cmd_nsf(args) -> int:
    report = analysis.maxwellian_iteration_nsf(_KINDS[args.system], args.theta,
                                               args.z, T=args.T, tau=args.tau)
    if args.json:
        _print_json(report.as_dict())
        return 0
    print(f"system={report.kind.value} theta={report.theta} z={_fmt(report.z)}")
    print(f"mu        = {_fmt(report.mu)} (tau p = {_fmt(report.mu_reference)})")
    print(f"kappa (fixed p)   = {_fmt(report.kappa_fixed_p)}")
    print(f"kappa (fixed rho) = {_fmt(report.kappa_fixed_rho)}")
    print(f"kappa reference   = {_fmt(report.kappa_star)}")
    print("residual = " + ", ".join(_fmt(r) for r in report.residual))
    return 0


def _cmd_verify(args) -> int:
    result = analysis.run_verification_suite(args.suite, seed=args.seed,
                                             threads=args.threads)
    for suite in result["suites"]:
        for check in suite["checks"]:
            tag = "PASS" if check["ok"] else "FAIL"
            print(f"{tag} [{suite['suite']}] {check['name']}: "
                  f"value={_fmt(check['value'])} tol={_fmt(check['tol'])}")
    print("verify: OK" if result["ok"] else "verify: FAILED")
    return 0 if result["ok"] else 1


def _cmd_simulate(args) -> int:
    with open(args.config) as fh:
        config = solver1d.SimConfig.from_dict(json.load(fh))
    result = solver1d.run(config)
    drift = abs(result.ledger["mass"][-1] / result.ledger["mass"][0] - 1.0)
    print(f"steps={result.steps} max_speed={_fmt(result.max_speed)}")
    print(f"mass_drift={_fmt(drift)}")
    print(f"newton_fallbacks={result.newton_fallbacks}")
    if args.out_prefix:
        solver1d.write_ledger_csv(result, f"{args.out_prefix}_ledger.csv")
        for i in range(result.times.size):
            solver1d.write_snapshot_csv(result,
                                        f"{args.out_prefix}_snap{i:03d}.csv",
                                        index=i)
        print(f"wrote {result.times.size} snapshots and the ledger "
              f"under prefix {args.out_prefix}")
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_common_thermo(sp, need_z: bool = True) -> None:
    sp.add_argument("--theta", type=int, required=True, choices=(-1, 0, 1),
                    help="statistics: +1 Fermion, 0 classical, -1 Boson")
    if need_z:
        sp.add_argument("--z", type=float, required=True,
                        help="fugacity (Bosons need z < 1)")
    sp.add_argument("--T", type=float, default=1.0,
                    help="equilibrium temperature (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qgrad13",
        description="Quantum 13-moment closures: matrices, hyperbolicity "
                    "regions and a 1D relaxation solver.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("polylog", help="evaluate li[s] for the five orders")
    _add_common_thermo(sp)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_polylog)

    sp = sub.add_parser("eigs", help="eigenvalues and hyperbolicity verdict")
    _add_common_thermo(sp, need_z=False)
    sp.add_argument("--z", type=float, default=None,
                    help="fugacity of the equilibrium state "
                         "(omit when --state is given)")
    sp.add_argument("--system", choices=sorted(_KINDS), default="grad")
    sp.add_argument("--state", help="JSON file with a 13-moment state "
                                    "(rho, u, p_ij, q); equilibrium otherwise")
    sp.add_argument("--dir", type=_parse_direction, default=1,
                    help="axis 1..3 or three comma-separated components")
    sp.add_argument("--hhat", type=float, default=1.0)
    sp.add_argument("--dump", help="write eigenvalues to this CSV file")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_eigs)

    sp = sub.add_parser("region1d",
                        help="classify the reduced 5x5 system over "
                             "(sigma11_hat, q1_hat)")
    _add_common_thermo(sp)
    sp.add_argument("--n", type=int, default=401)
    sp.add_argument("--qmax", type=float, default=3.0)
    sp.add_argument("--threads", type=int, default=None)
    sp.add_argument("--out", help="CSV output path")
    sp.set_defaults(func=_cmd_region1d)

    sp = sub.add_parser("region3d",
                        help="classify the full 13x13 plain closure over "
                             "(sigma12_hat, q1_hat)")
    _add_common_thermo(sp)
    sp.add_argument("--n", type=int, default=401)
    sp.add_argument("--qmax", type=float, default=2.0)
    sp.add_argument("--threads", type=int, default=None)
    sp.add_argument("--out", help="CSV output path")
    sp.set_defaults(func=_cmd_region3d)

    sp = sub.add_parser("region-reg",
                        help="classify the final regularization over "
                             "(sigma12_hat, q1_hat)")
    _add_common_thermo(sp)
    sp.add_argument("--n", type=int, default=401)
    sp.add_argument("--qmax", type=float, default=2.0)
    sp.add_argument("--direction", default="random",
                    help="'random', an axis 1..3, or three comma floats")
    sp.add_argument("--seed", type=int, default=0,
                    help="Philox seed for the per-cell directions")
    sp.add_argument("--threads", type=int, default=None)
    sp.add_argument("--compare-grad", action="store_true",
                    help="also classify the plain closure on the same grid")
    sp.add_argument("--out", help="CSV output path")
    sp.set_defaults(func=_cmd_region_reg)

    sp = sub.add_parser("sweep-eigs",
                        help="equilibrium wave speeds as functions of fugacity")
    _add_common_thermo(sp, need_z=False)
    sp.add_argument("--zmin", type=float, default=None)
    sp.add_argument("--zmax", type=float, default=None)
    sp.add_argument("--n", type=int, default=161)
    sp.add_argument("--out", help="CSV output path")
    sp.set_defaults(func=_cmd_sweep_eigs)

    sp = sub.add_parser("nsf",
                        help="transport coefficients from one relaxation "
                             "iteration")
    _add_common_thermo(sp)
    sp.add_argument("--system", choices=sorted(_KINDS), default="regularized")
    sp.add_argument("--tau", type=float, default=1.0,
                    help="relaxation time (default 1)")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_nsf)

    sp = sub.add_parser("verify", help="run self-verification suites")
    sp.add_argument("--suite", default="all",
                    choices=["polylog", "charpoly", "annihilation",
                             "linearization", "global-hyperbolicity",
                             "closure-quadrature", "all"])
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--threads", type=int, default=None)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("simulate", help="run the 1D relaxation solver")
    sp.add_argument("--config", required=True,
                    help="JSON run description (see SimConfig)")
    sp.add_argument("--out-prefix",
                    help="write ledger and snapshot CSVs under this prefix")
    sp.set_defaults(func=_cmd_simulate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, InadmissibleCell, CFLViolation, SingularD,
            NoConvergence, NoRoot, QuadratureNotConverged) as exc:
        print(json.dumps({"error": {"type": type(exc).__name__,
                                    "message": str(exc)}}),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
