"""Explicit 1D solver for the regularized 13-moment system with relaxation.

One step is a local Lax-Friedrichs update of the quasi-linear transport,

    w_i <- w_i - (dt / 2 dx) A(w_i) (w_{i+1} - w_{i-1})
               + (dt alpha_i / 2 dx) (w_{i+1} - 2 w_i + w_{i-1}),

followed by exact integration of the relaxation source: sigma11 and q1
decay by exp(-dt / tau).  A is the reduced 5x5 matrix of the final
regularization, rebuilt from each cell's own fitted fugacity and temperature
every step.  alpha_i is the spectral radius of A(w_i), read off the paper's
factorization A = D^-1 (M + u I) D instead of an eigensolve: M depends only
on (z, T), so the radius is |u1| + sqrt(T x_plus) with x_plus the larger
root of the equilibrium quartic.  One li evaluation per Newton iterate fits
the fugacities, and the last one also feeds the matrices.

State layout: w has one row (rho, u1, p11, q1, p) per cell.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from .errors import (CFLViolation, CondensationError, DomainError,
                     InadmissibleCell, NoSolution)
from .polylog import _check_theta, eval_polylog_batch
from .state import (_LOG_Z_HI_BOSON, _LOG_Z_HI_FERMION, _LOG_Z_LO,
                    EquilibriumParams, LiCoeffs, _gstar, _z_from_log,
                    fit_fugacity_batch)

_TWO_PI = 2.0 * math.pi
_MAX_STEPS = 5_000_000

W5_NAMES = ("rho", "u1", "p11", "q1", "p")


@dataclass(frozen=True)
class SimConfig:
    """Run description: discretization, relaxation time and a two-state start.

    The initial condition is piecewise constant in the equilibrium variables:
    `left` and `right` are dicts with keys z, u1, T; the jump sits at
    length / 2 and both sides start with sigma11 = q1 = 0.
    """

    theta: int
    cells: int
    length: float
    cfl: float
    tau: float
    t_end: float
    left: Dict[str, float]
    right: Dict[str, float]
    boundary: str = "periodic"
    hhat: float = 1.0
    n_snapshots: int = 11

    def __post_init__(self):
        object.__setattr__(self, "theta", _check_theta(self.theta))
        if self.cells < 4:
            raise DomainError(f"need at least 4 cells, got {self.cells}")
        if not (self.length > 0.0 and math.isfinite(self.length)):
            raise DomainError(f"length must be positive, got {self.length}")
        if not (0.0 < self.cfl < 1.0):
            raise DomainError(f"cfl must lie in (0, 1), got {self.cfl}")
        if not (self.tau > 0.0 and math.isfinite(self.tau)):
            raise DomainError(f"tau must be positive, got {self.tau}")
        if not (self.t_end > 0.0 and math.isfinite(self.t_end)):
            raise DomainError(f"t_end must be positive, got {self.t_end}")
        if self.boundary not in ("periodic", "copy"):
            raise DomainError(
                f"boundary must be 'periodic' or 'copy', got {self.boundary!r}")
        if self.n_snapshots < 2:
            raise DomainError("need at least the initial and final snapshot")
        for side_name in ("left", "right"):
            side = getattr(self, side_name)
            missing = {"z", "u1", "T"} - set(side)
            if missing:
                raise DomainError(f"{side_name} state lacks {sorted(missing)}")
            # constructing the parameters validates z and T for this theta
            EquilibriumParams(theta=self.theta, z=side["z"],
                              u=(side["u1"], 0.0, 0.0), T=side["T"],
                              hhat=self.hhat)

    def as_dict(self) -> dict:
        return {"theta": self.theta, "cells": self.cells, "length": self.length,
                "cfl": self.cfl, "tau": self.tau, "t_end": self.t_end,
                "left": dict(self.left), "right": dict(self.right),
                "boundary": self.boundary, "hhat": self.hhat,
                "n_snapshots": self.n_snapshots}

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        return cls(theta=d["theta"], cells=int(d["cells"]),
                   length=float(d["length"]), cfl=float(d["cfl"]),
                   tau=float(d["tau"]), t_end=float(d["t_end"]),
                   left=dict(d["left"]), right=dict(d["right"]),
                   boundary=d.get("boundary", "periodic"),
                   hhat=float(d.get("hhat", 1.0)),
                   n_snapshots=int(d.get("n_snapshots", 11)))


@dataclass(frozen=True, eq=False)
class SimResult:
    """Snapshots, conservation ledger and cell centers of one run."""

    config: SimConfig
    x: np.ndarray
    times: np.ndarray
    snapshots: np.ndarray          # (n_snapshots, cells, 5)
    ledger: Dict[str, np.ndarray]  # time, mass, momentum, energy
    steps: int
    max_speed: float
    newton_fallbacks: int          # steps where a cell took the bracketed fit


# ---------------------------------------------------------------------------
# per-cell coefficients

def _fit_cells(gstar: np.ndarray, theta: int, guess: Optional[np.ndarray]
               ) -> Tuple[np.ndarray, Dict[float, np.ndarray], bool]:
    """Per-cell fugacity from li[5/2]/li[3/2]^(5/3), warm-started if possible.

    Three Newton steps from the previous time level converge to rounding in
    smooth runs; the li evaluation at the last iterate checks the residual
    and is returned with z for the matrices.  Cells that miss fall back to
    the bracketed solve, and li is evaluated once more at the final z.
    Returns (z, li, fell_back); a cold start counts as no fallback.
    """
    if theta == 0:
        z = gstar ** -1.5
        return z, eval_polylog_batch(z, theta), False
    hi = _LOG_Z_HI_BOSON if theta == -1 else _LOG_Z_HI_FERMION
    target = np.log(gstar)
    if guess is not None:
        x = np.log(guess)
        for _ in range(3):
            curve, slope, _ = _gstar(x, theta)
            x = np.clip(x - (curve - target) / slope, _LOG_Z_LO, hi)
        curve, _, li = _gstar(x, theta)
        bad = np.abs(curve - target) > 1e-11
        if not np.any(bad):
            return _z_from_log(x, theta), li, False
    else:
        x = np.empty_like(target)
        bad = np.ones(target.shape, dtype=bool)
    try:
        x[bad] = np.log(fit_fugacity_batch(gstar[bad], theta))
    except (CondensationError, NoSolution) as exc:
        floor = _gstar(np.array([hi]), theta)[0][0]
        ceil = _gstar(np.array([_LOG_Z_LO]), theta)[0][0]
        off = bad & ((target <= floor) | (target >= ceil))
        idx = int(np.argmax(off))
        raise InadmissibleCell(idx, f"no admissible fugacity: {exc}") from exc
    z = _z_from_log(x, theta)
    return z, eval_polylog_batch(z, theta), guess is not None


def _a5_final_stack(w: np.ndarray, hhat: float, li: Dict[float, np.ndarray]
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Reduced coefficient matrices of the final regularization, one per cell,
    and their spectral radii.

    Closed-form version of reducing the 13x13 assembly with the selection and
    embedding maps; the equivalence, and the radius against eigvals, are
    pinned in the tests.  `li` holds the five orders at the cells' fugacities.
    """
    rho, u1, p11, q1, p = (w[:, k] for k in range(5))
    sig = p11 - p
    T = (rho / (hhat * li[1.5])) ** (2.0 / 3.0) / _TWO_PI
    c = LiCoeffs(li, T)
    N = w.shape[0]
    A = np.zeros((N, 5, 5))
    idx = np.arange(5)
    A[:, idx, idx] = u1[:, None]
    A[:, 0, 1] = rho
    A[:, 1, 2] = 1.0 / rho
    A[:, 2, 1] = 3.0 * p + 1.2 * sig
    A[:, 2, 3] = 1.2
    A[:, 3, 0] = 2.5 * c.rho_phi_rho * p / rho
    A[:, 3, 2] = c.Tc - (c.dfrak * p + sig) / rho
    A[:, 3, 4] = 2.5 * c.p_phi_p - c.Tc
    A[:, 4, 1] = (5.0 * p + 2.0 * sig) / 3.0
    A[:, 4, 3] = 2.0 / 3.0
    return A, np.abs(u1) + np.sqrt(T * c.x_plus)


def _validate_cells(w: np.ndarray) -> None:
    """First inadmissible cell wins; raised with its index for diagnostics."""
    finite = np.all(np.isfinite(w), axis=1)
    if not np.all(finite):
        raise InadmissibleCell(int(np.argmin(finite)), "non-finite moments")
    rho, _, p11, _, p = (w[:, k] for k in range(5))
    ok = (rho > 0.0) & (p > 0.0) & (p11 > 0.0)
    if not np.all(ok):
        raise InadmissibleCell(int(np.argmin(ok)),
                               "density or pressure lost positivity")
    ratio = p11 / p - 1.0
    ok = (ratio > -1.0) & (ratio < 2.0)
    if not np.all(ok):
        idx = int(np.argmin(ok))
        raise InadmissibleCell(idx, f"sigma11/p = {ratio[idx]:.6g} "
                                    "outside (-1, 2)")


def _neighbors(w: np.ndarray, boundary: str) -> Tuple[np.ndarray, np.ndarray]:
    if boundary == "periodic":
        return np.roll(w, -1, axis=0), np.roll(w, 1, axis=0)
    wp = np.concatenate([w[1:], w[-1:]], axis=0)
    wm = np.concatenate([w[:1], w[:-1]], axis=0)
    return wp, wm


def _conserved(w: np.ndarray, dx: float) -> Tuple[float, float, float]:
    rho, u1, _, _, p = (w[:, k] for k in range(5))
    mass = float(np.sum(rho) * dx)
    momentum = float(np.sum(rho * u1) * dx)
    energy = float(np.sum(1.5 * p + 0.5 * rho * u1 ** 2) * dx)
    return mass, momentum, energy


def initial_condition(config: SimConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Cell centers and the piecewise-constant start in w coordinates."""
    N = config.cells
    dx = config.length / N
    x = (np.arange(N) + 0.5) * dx
    w = np.empty((N, 5))
    for side, mask in ((config.left, x < 0.5 * config.length),
                       (config.right, x >= 0.5 * config.length)):
        eqp = EquilibriumParams(theta=config.theta, z=side["z"],
                                u=(side["u1"], 0.0, 0.0), T=side["T"],
                                hhat=config.hhat)
        w[mask] = (eqp.rho, side["u1"], eqp.p, 0.0, eqp.p)
    return x, w


def run(config: SimConfig, w0: Optional[np.ndarray] = None) -> SimResult:
    """Advance to t_end, returning snapshots at evenly spaced times.

    `w0` overrides the built-in two-state start with an arbitrary (cells, 5)
    array of admissible cell states, which is how relaxation-only setups
    (uniform in x, nonzero sigma11 or q1) are exercised.
    """
    N = config.cells
    dx = config.length / N
    if w0 is None:
        x, w = initial_condition(config)
    else:
        x = (np.arange(N) + 0.5) * dx
        w = np.array(w0, dtype=float, copy=True)
        if w.shape != (N, 5):
            raise DomainError(f"w0 must have shape ({N}, 5), got {w.shape}")
    _validate_cells(w)
    snap_times = np.linspace(0.0, config.t_end, config.n_snapshots)
    snap_tol = 1e-12 * max(1.0, config.t_end)
    mass, mom, en = _conserved(w, dx)
    ledger = {"time": [0.0], "mass": [mass], "momentum": [mom], "energy": [en]}
    snapshots = [w.copy()]
    gfac = _TWO_PI * config.hhat ** (2.0 / 3.0)
    z_prev: Optional[np.ndarray] = None
    t = 0.0
    steps = 0
    max_speed = 0.0
    fallbacks = 0
    snap_idx = 1
    while snap_idx < snap_times.size:
        rho, p = w[:, 0], w[:, 4]
        gstar = gfac * p * rho ** (-5.0 / 3.0)
        z_prev, li, fell_back = _fit_cells(gstar, config.theta, z_prev)
        fallbacks += fell_back
        A, alpha = _a5_final_stack(w, config.hhat, li)
        amax = float(np.max(alpha))
        max_speed = max(max_speed, amax)
        dt_cfl = config.cfl * dx / amax if amax > 0.0 else math.inf
        if not (dt_cfl > 0.0 and math.isfinite(dt_cfl)):
            raise CFLViolation(f"unusable time step {dt_cfl} from "
                               f"spectral radius {amax}")
        dt = min(dt_cfl, float(snap_times[snap_idx]) - t)
        wp, wm = _neighbors(w, config.boundary)
        flux = np.einsum("nij,nj->ni", A, wp - wm)
        w = w - (dt / (2.0 * dx)) * flux \
            + (dt / (2.0 * dx)) * alpha[:, None] * (wp - 2.0 * w + wm)
        decay = math.exp(-dt / config.tau)
        w[:, 2] = w[:, 4] + (w[:, 2] - w[:, 4]) * decay
        w[:, 3] *= decay
        _validate_cells(w)
        t += dt
        steps += 1
        if steps > _MAX_STEPS:
            raise CFLViolation(f"step budget exhausted at t = {t:.6g}")
        if t >= snap_times[snap_idx] - snap_tol:
            snapshots.append(w.copy())
            mass, mom, en = _conserved(w, dx)
            ledger["time"].append(float(snap_times[snap_idx]))
            ledger["mass"].append(mass)
            ledger["momentum"].append(mom)
            ledger["energy"].append(en)
            snap_idx += 1
    return SimResult(config=config, x=x, times=snap_times,
                     snapshots=np.array(snapshots),
                     ledger={k: np.array(v) for k, v in ledger.items()},
                     steps=steps, max_speed=max_speed,
                     newton_fallbacks=fallbacks)


# ---------------------------------------------------------------------------
# artifacts

def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def write_snapshot_csv(result: SimResult, path: str, index: int = -1) -> None:
    """One snapshot as CSV columns x, rho, u1, p11, q1, p."""
    w = result.snapshots[index]
    lines = ["x,rho,u1,p11,q1,p"]
    for i in range(result.x.size):
        lines.append(",".join([_fmt(result.x[i])] +
                              [_fmt(w[i, k]) for k in range(5)]))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_ledger_csv(result: SimResult, path: str) -> None:
    """Conservation ledger as CSV columns time, mass, momentum, energy."""
    lines = ["time,mass,momentum,energy"]
    led = result.ledger
    for i in range(led["time"].size):
        lines.append(",".join(_fmt(led[k][i])
                              for k in ("time", "mass", "momentum", "energy")))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
