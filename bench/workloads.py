"""The four benchmark workloads: seeded inputs, the timed operation, output checks.

Each workload yields an endless, seed-determined sequence of `Group`s.  A group
is one timed call into qgrad13 (`run`) together with the number of operations
it completes and a `check` that inspects its outputs afterwards, outside the
timed region.  `stratum` names the part of the fixed mix a group belongs to
(statistics, or scan kind and statistics); throughput is reported over one
group per stratum, so where a run happens to stop does not change the mix.

Why these workloads:

* solve-riemann - `qgrad13 simulate` at 400 cells.  Fermion li evaluations
  above z = 0.9 all take the panel quadrature, which dominates the step; the
  Boson range covers the series and the Robinson branch.
* scan-regions - the region1d, region3d and region-reg --compare-grad CLI
  scans: batched `classify_batch` on 5x5 and 13x13 stacks, from no slow-path
  cells (region1d) to about half of them (region-reg), plus CSV writing.
  Fugacities come from `analysis.random_fugacity`, the sampler behind the
  c5 states that verify-states draws.
* verify-states - the per-state path of `verify --suite global-hyperbolicity`:
  the same layers as the scans, one scalar call at a time.
* closure-quadrature - the c8 path, the only user of the tensor-grid
  quadrature in `state`.
"""
from __future__ import annotations

import contextlib
import glob
import hashlib
import io
import itertools
import json
import os
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

from qgrad13 import analysis, cli, matrices, spectral, state
from qgrad13.spectral import Classification

THETAS = (1, -1, 0)
DIGEST_FILE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "scan_digests.json")


@dataclass
class Group:
    stratum: str
    ops: int
    run: Callable[[], object]
    check: Callable[[object], Tuple[int, Dict[str, object]]]


def rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seed))


def call_cli(argv: List[str]) -> Tuple[int, str]:
    """`qgrad13 <argv>` in-process, looked up at call time so tracing sees it."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _remove(paths) -> None:
    for p in paths:
        with contextlib.suppress(FileNotFoundError):
            os.remove(p)


# ---------------------------------------------------------------------------
# solve-riemann

SIM_CELLS = 400
SIM_T_END = 0.06
SIM_SNAPSHOTS = 3
SIM_Z_RANGE = {1: (1.5, 8.0), -1: (0.3, 0.98), 0: (0.1, 1.0)}
#: cheapest first, so the untimed warm-up group (the first) is short
SIM_THETAS = (0, -1, 1)


def _sim_side(u: np.ndarray, theta: int) -> Dict[str, float]:
    """One side's state from three uniforms in [0, 1)."""
    lo, hi = SIM_Z_RANGE[theta]
    return {"z": lo + (hi - lo) * float(u[0]), "u1": -0.2 + 0.4 * float(u[1]),
            "T": 0.8 + 0.45 * float(u[2])}


def _check_simulation(prefix: str, out) -> Tuple[int, Dict[str, object]]:
    rc, text = out
    snaps = sorted(glob.glob(prefix + "_snap*.csv"))
    ledger_path = prefix + "_ledger.csv"
    try:
        if rc != 0 or len(snaps) != SIM_SNAPSHOTS:
            return SIM_CELLS, {"error": f"exit code {rc}, {len(snaps)} snapshots"}
        for path in snaps:
            w = np.loadtxt(path, delimiter=",", skiprows=1)[:, 1:]
            rho, p11, p = w[:, 0], w[:, 2], w[:, 4]
            ok = (w.shape == (SIM_CELLS, 5) and np.all(np.isfinite(w))
                  and np.all(rho > 0) and np.all(p > 0) and np.all(p11 > 0))
            ratio = p11 / p - 1.0
            if not (ok and np.all((ratio > -1.0) & (ratio < 2.0))):
                return SIM_CELLS, {"error": f"inadmissible snapshot {path}"}
        led = np.loadtxt(ledger_path, delimiter=",", skiprows=1)
        steps = int(text.split("steps=", 1)[1].split()[0])
        return 0, {"steps": steps,
                   "mass_drift": float(np.max(np.abs(led[:, 1] / led[0, 1] - 1.0))),
                   "energy_drift": float(np.max(np.abs(led[:, 3] / led[0, 3] - 1.0)))}
    finally:
        _remove(snaps + [ledger_path])


def solve_riemann(seed: int, workdir: str, threads: int) -> Iterator[Group]:
    """Groups cycle the statistics.  The right state takes the left state's
    uniforms u as 1 - u (antithetic sides): the step count follows the
    fastest wave of either side, and with one side drawn high whenever the
    other is drawn low it varies less between draws, and so between seeds."""
    rng = rng_for(seed)
    for i in itertools.count():
        theta = SIM_THETAS[i % 3]
        u = rng.random(3)
        cfg = {"theta": theta, "cells": SIM_CELLS, "length": 1.0, "cfl": 0.45,
               "tau": 0.05, "t_end": SIM_T_END, "n_snapshots": SIM_SNAPSHOTS,
               "left": _sim_side(u, theta), "right": _sim_side(1.0 - u, theta)}
        prefix = os.path.join(workdir, f"sim{i}")
        with open(prefix + ".json", "w") as fh:
            json.dump(cfg, fh)
        argv = ["simulate", "--config", prefix + ".json", "--out-prefix", prefix]
        yield Group(stratum=f"theta={theta}", ops=SIM_CELLS,
                    run=lambda argv=argv: call_cli(argv),
                    check=lambda out, prefix=prefix: _check_simulation(prefix, out))


# ---------------------------------------------------------------------------
# scan-regions

#: (subcommand, grid points per axis, extra arguments); region1d at c4's n
SCANS = (("region1d", 401, []),
         ("region3d", 201, []),
         ("region-reg", 101, ["--direction", "random", "--compare-grad"]))
CODE_STRICT, CODE_DEGENERATE = 0, 1


def _read_codes(path: str) -> np.ndarray:
    with open(path) as fh:
        lines = fh.read().splitlines()[1:]
    return np.fromiter((int(line.rsplit(",", 1)[1]) for line in lines),
                       dtype=np.int8, count=len(lines))


def load_digests() -> Dict[str, List[str]]:
    """Committed class-code digests: seed (as a string) -> one per group."""
    with open(DIGEST_FILE) as fh:
        return json.load(fh)["digests"]


def _check_scan(scan: str, n: int, path: str, expected_digest,
                out) -> Tuple[int, Dict[str, object]]:
    rc, _ = out
    try:
        if rc != 0:
            return n * n, {"error": f"exit code {rc}"}
        with open(path + ".meta.json") as fh:
            meta = json.load(fh)
        cells = _read_codes(path).reshape(meta["ny"], meta["nx"])
        digest = hashlib.sha256(cells.tobytes()).hexdigest()[:16]
        info: Dict[str, object] = {"scan": scan, "digest": digest,
                                   "digest_checked": expected_digest is not None}
        x = np.linspace(meta["x_min"], meta["x_max"], meta["nx"])
        eq_code = int(cells[meta["ny"] // 2, int(np.argmin(np.abs(x)))])
        problems = []
        if cells.shape != (n, n):
            problems.append(f"grid shape {cells.shape}")
        if meta.get("mirrored") and not np.array_equal(cells, cells[::-1]):
            problems.append("mirror symmetry broken")
        if scan == "region1d" and eq_code != CODE_STRICT:
            problems.append(f"equilibrium cell class {eq_code}, not strict")
        if scan != "region1d" and eq_code not in (CODE_STRICT, CODE_DEGENERATE):
            problems.append(f"equilibrium cell class {eq_code}, not hyperbolic")
        if scan == "region-reg" and np.any(np.isin(cells, (2, 3))):
            problems.append("non-hyperbolic FinalR13 cell")
        if meta["class_counts"] != analysis.class_counts(cells):
            problems.append("sidecar class counts disagree with the CSV")
        if expected_digest is not None and digest != expected_digest:
            problems.append("class codes differ from the committed digest")
        if problems:
            info["error"] = "; ".join(problems)
            return n * n, info
        return 0, info
    finally:
        _remove([path, path + ".meta.json"])


def scan_regions(seed: int, workdir: str, threads: int,
                 digests: Optional[List[str]] = None) -> Iterator[Group]:
    """Scans cycle region1d, region3d, region-reg; every third group moves on
    to the next statistics.  Group i's class codes are checked against
    `digests[i]`, by default the committed digests of `seed`; groups beyond
    them go unchecked and say so in their check record."""
    rng = rng_for(seed)
    if digests is None:
        digests = load_digests().get(str(seed), [])
    for i in itertools.count():
        scan, n, extra = SCANS[i % 3]
        theta = THETAS[(i // 3) % 3]
        z = analysis.random_fugacity(rng, theta)
        direction_seed = int(rng.integers(2 ** 31))
        path = os.path.join(workdir, f"scan{i}.csv")
        argv = [scan, "--theta", str(theta), "--z", repr(z), "--n", str(n),
                "--threads", str(threads), "--out", path] + extra
        if scan == "region-reg":
            argv += ["--seed", str(direction_seed)]
        expected = digests[i] if i < len(digests) else None
        yield Group(stratum=f"{scan} theta={theta}", ops=n * n,
                    run=lambda argv=argv: call_cli(argv),
                    check=lambda out, a=(scan, n, path, expected): _check_scan(*a, out))


# ---------------------------------------------------------------------------
# verify-states

HYPERBOLIC = (Classification.HyperbolicStrict, Classification.HyperbolicDegenerate)


def _check_state(out) -> Tuple[int, Dict[str, object]]:
    sm, verdict = out
    resid = float(np.max(np.abs(sm.B - sm.M @ sm.D))) \
        / max(1.0, float(np.max(np.abs(sm.D @ sm.A))))
    if verdict.classification not in HYPERBOLIC:
        return 1, {"error": f"verdict {verdict.classification.value}"}
    if not resid <= 1e-10:
        return 1, {"error": f"factorization residual {resid:.3e}"}
    return 0, {}


def verify_states(seed: int, workdir: str, threads: int) -> Iterator[Group]:
    rng = rng_for(seed)

    def run(theta: int):
        st, eq = analysis.random_moment_state(rng, theta)
        ndir = analysis.random_unit_vectors(rng, 1)[0]
        sm = matrices.assemble_A_regularized(st, eq, ndir)
        return sm, spectral.diagonalizability_test(sm.A)

    for i in itertools.count():
        theta = THETAS[i % 3]
        yield Group(stratum=f"theta={theta}", ops=1,
                    run=lambda theta=theta: run(theta), check=_check_state)


# ---------------------------------------------------------------------------
# closure-quadrature

def _check_closure(out) -> Tuple[int, Dict[str, object]]:
    mom, closed = out
    qerr = float(np.max(np.abs(mom["q_ijk"] - closed.q_ijk))
                 / (1.0 + np.max(np.abs(closed.q_ijk))))
    derr = float(np.max(np.abs(mom["Delta_ij"] - closed.Delta_ij))
                 / (1.0 + np.max(np.abs(closed.Delta_ij))))
    if not (qerr <= 1e-6 and derr <= 1e-6):
        return 1, {"error": f"residuals q {qerr:.3e}, Delta {derr:.3e}"}
    return 0, {"residual": max(qerr, derr)}


def closure_quadrature(seed: int, workdir: str, threads: int) -> Iterator[Group]:
    rng = rng_for(seed)
    for i in itertools.count():
        theta = THETAS[i % 3]
        # c8's settings: Bosons stay at z <= 0.9 and need the finer grid
        st, eq = analysis.random_moment_state(rng, theta, bose_z_max=0.9)
        nodes = 96 if theta == -1 else 64

        def run(st=st, eq=eq, nodes=nodes):
            return (state.ansatz_moments(st, eq, n_nodes=nodes, half_width=8.0),
                    state.closure_moments(st, eq))

        yield Group(stratum=f"theta={theta}", ops=1, run=run, check=_check_closure)


#: name -> (group generator, groups in one traced pass, strata in the mix)
WORKLOADS = {
    "solve-riemann": (solve_riemann, 3, 3),
    "scan-regions": (scan_regions, 3, 9),
    "verify-states": (verify_states, 1500, 3),
    "closure-quadrature": (closure_quadrature, 6, 3),
}
