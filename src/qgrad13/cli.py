"""Command-line front end.

Exit codes: 0 success, 1 failed verification, 2 usage error, 3 domain or
model failure (reported as a JSON object on stderr).  Floating-point output
carries 17 significant digits so repeated invocations with the same seed
produce byte-identical artifacts.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from typing import List, Optional

import numpy as np

from . import analysis, solver1d, spectral
from .analysis import _fmt, _write_columns
from .errors import CFLViolation, DomainError, SingularD
from .matrices import (SystemKind, assemble_A_direction,
                       assemble_A_regularized)
from .polylog import FERMI_Z_C, ORDERS, eval_polylog_batch
from .state import (EquilibriumParams, MomentState13, equilibrium_state13,
                    fit_equilibrium)

_EPILOG = """\
units: particle mass and Boltzmann constant are scaled to 1, so temperature
T carries velocity-squared units and pressure equals rho T at equilibrium.
Dimensionless grid variables: sigma11_hat = sigma11/p, sigma12_hat =
sigma12/p, q1_hat = q1/(p sqrt(T)).  theta selects the statistics:
+1 Fermion, 0 classical, -1 Boson; z is the fugacity (z < 1 for Bosons).
"""

_KINDS = {"grad": SystemKind.Grad13, "trivial": SystemKind.TrivialR13,
          "regularized": SystemKind.FinalR13}


def _parse_direction(text: str):
    """An axis 1..3 or three finite comma-separated components."""
    parts = text.split(",")
    try:
        if len(parts) == 1 and int(text) in (1, 2, 3):
            return int(text)
        vec = [float(p) for p in parts]
    except ValueError:
        vec = []
    if len(vec) == 3 and all(map(math.isfinite, vec)):
        return vec
    raise argparse.ArgumentTypeError(
        f"must be an axis 1, 2 or 3 or three finite comma floats: {text!r}")


def _positive_int(text: str) -> int:
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer: {n}")
    return n


def _positive_float(text: str) -> float:
    x = float(text)
    if not 0.0 < x < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive number: {text}")
    return x


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


# ---------------------------------------------------------------------------
# subcommands

def _cmd_polylog(args) -> int:
    li = {f"{int(2 * s)}/2": float(v) for s, v in
          zip(ORDERS, eval_polylog_batch(args.z, args.theta)[:, 0])}
    if args.json:
        _print_json({"z": args.z, "theta": args.theta, "li": li})
        return 0
    print(f"theta={args.theta} z={_fmt(args.z)}")
    for key, val in li.items():
        print(f"li[{key}] = {_fmt(val)}")
    return 0


def _load_state(path: str) -> MomentState13:
    with open(path) as fh:
        return MomentState13.from_dict(json.load(fh))


def _cmd_eigs(args) -> int:
    kind = _KINDS[args.system]
    if args.state is not None:
        if args.z is not None or args.T is not None:
            print("eigs: --z and --T do not combine with --state, whose own "
                  "fit sets them", file=sys.stderr)
            return 2
        state = _load_state(args.state)
        eq = fit_equilibrium(state.rho, state.p, args.theta, args.hhat, u=state.u)
    elif args.z is None:
        print("eigs: either --state FILE or --z is required", file=sys.stderr)
        return 2
    else:
        eq = EquilibriumParams(theta=args.theta, z=args.z, u=np.zeros(3),
                               T=1.0 if args.T is None else args.T, hhat=args.hhat)
        state = equilibrium_state13(eq)
    if kind is SystemKind.FinalR13:
        A = assemble_A_regularized(state, eq, args.dir).A
    else:
        A = assemble_A_direction(kind, state, eq, args.dir)
    verdict = spectral.diagonalizability_test(A)
    payload = verdict.as_dict()
    payload["system"] = kind.value
    note = ""   # the bound is the equilibrium quartic's; TrivialR13 does not share it
    if args.theta == 1 and eq.z > FERMI_Z_C and kind is not SystemKind.TrivialR13:
        payload["fermi_z_c"] = FERMI_Z_C
        note = f" (z = {_fmt(eq.z)} above the Fermion bound FERMI_Z_C = {FERMI_Z_C:.6g})"
    if args.dump:
        evs = payload["eigenvalues"]
        _write_columns(args.dump, "re,im", [[e["re"] for e in evs], [e["im"] for e in evs]])
    if args.json:
        _print_json(payload)
        return 0
    print(f"system={kind.value} class={payload['class']}{note}")
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
    if "grad_area_fraction" in grid.metadata:
        print(f"grad_area_fraction = {_fmt(grid.metadata['grad_area_fraction'])}")
    if out:
        analysis.write_region_csv(grid, out)
        print(f"wrote {out} and {out}.meta.json")


def _cmd_region(args) -> int:
    kw = {"n": args.n, "q1_hat_max": args.qmax, "threads": args.threads}
    if args.command == "region1d":
        scan = analysis.region_scan_1d
    elif args.command == "region3d":
        scan = analysis.region_scan_3d_cross_section
    else:
        scan = analysis.region_scan_regularized
        kw.update(direction=args.direction, seed=args.seed,
                  compare_grad=args.compare_grad)
    _report_region(scan(args.theta, args.z, **kw), args.out)
    return 0


def _cmd_sweep_eigs(args) -> int:
    if (args.zmin is None) != (args.zmax is None):
        print("sweep-eigs: --zmin and --zmax must be given together",
              file=sys.stderr)
        return 2
    if args.zmin is not None:
        z = np.logspace(np.log10(args.zmin), np.log10(args.zmax), args.n)
    else:
        z = analysis.default_sweep_grid(args.theta, args.n)
    spectrum = spectral.char_poly_equilibrium(z, args.theta, T=args.T)
    cols, crossing = analysis._sweep_columns(spectrum)
    if crossing is not None:
        print(f"branch crossing at z = {_fmt(crossing)}")
    for i in (0, z.size - 1):
        vals = ", ".join(f"{n}={_fmt(v[i])}" for n, v in cols.items())
        print(f"z={_fmt(z[i])}: {vals}")
    if args.out:
        analysis.write_sweep_csv(spectrum, args.out)
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
    result = analysis.run_verification_suite(args.suite, seed=args.seed)
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
    print(f"fit_points={result.fit_points}")
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

def _add_common_thermo(sp, need_z: bool = True, with_T: bool = False) -> None:
    sp.add_argument("--theta", type=int, required=True, choices=(-1, 0, 1),
                    help="statistics: +1 Fermion, 0 classical, -1 Boson")
    if need_z:
        sp.add_argument("--z", type=float, required=True,
                        help="fugacity (Bosons need z < 1)")
    if with_T:
        sp.add_argument("--T", type=float, default=1.0,
                        help="equilibrium temperature (default 1)")


@functools.lru_cache(maxsize=None)   # one parser per process, shared by every call
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
    sp.add_argument("--T", type=float, default=None,
                    help="equilibrium temperature (default 1; not with --state)")
    sp.add_argument("--system", choices=sorted(_KINDS), default="grad")
    sp.add_argument("--state", help="JSON file with a 13-moment state "
                                    "(rho, u, p_ij, q); equilibrium otherwise")
    sp.add_argument("--dir", type=_parse_direction, default=1,
                    help="axis 1..3 or three comma-separated components")
    sp.add_argument("--hhat", type=float, default=1.0)
    sp.add_argument("--dump", help="write eigenvalues to this CSV file")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_eigs)

    for name, system, axes, qmax in (
            ("region1d", "the reduced 5x5 system", "sigma11_hat", 3.0),
            ("region3d", "the full 13x13 plain closure", "sigma12_hat", 2.0),
            ("region-reg", "the final regularization", "sigma12_hat", 2.0)):
        sp = sub.add_parser(name, help=f"classify {system} over "
                                       f"({axes}, q1_hat)")
        _add_common_thermo(sp)
        sp.add_argument("--n", type=_positive_int, default=401)
        sp.add_argument("--qmax", type=_positive_float, default=qmax)
        sp.add_argument("--threads", type=_positive_int, default=None)
        sp.add_argument("--out", help="CSV output path")
        sp.set_defaults(func=_cmd_region)
    sp.add_argument("--direction", default="random",   # region-reg only
                    type=lambda t: t if t == "random" else _parse_direction(t),
                    help="'random', an axis 1..3, or three comma floats")
    sp.add_argument("--seed", type=int, default=0,
                    help="Philox seed for the per-cell directions")
    sp.add_argument("--compare-grad", action="store_true",
                    help="also classify the plain closure on the same grid")

    sp = sub.add_parser("sweep-eigs",
                        help="equilibrium wave speeds as functions of fugacity")
    _add_common_thermo(sp, need_z=False, with_T=True)
    sp.add_argument("--zmin", type=_positive_float, default=None)
    sp.add_argument("--zmax", type=_positive_float, default=None)
    sp.add_argument("--n", type=_positive_int, default=161)
    sp.add_argument("--out", help="CSV output path")
    sp.set_defaults(func=_cmd_sweep_eigs)

    sp = sub.add_parser("nsf",
                        help="transport coefficients from one relaxation "
                             "iteration")
    _add_common_thermo(sp, with_T=True)
    sp.add_argument("--system", choices=sorted(_KINDS), default="regularized")
    sp.add_argument("--tau", type=_positive_float, default=1.0,
                    help="relaxation time (default 1)")
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=_cmd_nsf)

    sp = sub.add_parser("verify", help="run self-verification suites")
    sp.add_argument("--suite", default="all", choices=[*analysis._SUITES, "all"])
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=_cmd_verify)

    sp = sub.add_parser("simulate", help="run the 1D relaxation solver")
    sp.add_argument("--config", required=True,
                    help="JSON run description (see SimConfig)")
    sp.add_argument("--out-prefix",
                    help="write ledger and snapshot CSVs under this prefix")
    sp.set_defaults(func=_cmd_simulate)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, CFLViolation, SingularD) as exc:
        print(json.dumps({"error": {"type": type(exc).__name__,
                                    "message": str(exc)}}),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
