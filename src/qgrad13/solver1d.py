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
root of the equilibrium quartic.  z, T and li come from `state`'s one fit,
warm-started from the last step's z and li, so li is evaluated only at cells
whose Newton iterate has not converged; a radius that is not positive and
finite stops the run, as does a cell that fails `state._validate_cells`.
The start and the first fit's guess reuse the side equilibria of `SimConfig`,
which checks length, tau and t_end with `state._positive` and the keys it
reads with `state._keys`; a key that `from_dict` lacks takes its default.

State layout: w has one row (rho, u1, p11, q1, p) per cell.
"""
from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, fields
from typing import Dict, Optional, Tuple

import numpy as np

from .analysis import _write_columns
from .errors import (CFLViolation, CondensationError, DomainError,
                     InadmissibleCell, NoSolution)
from .matrices import SystemKind, _a5_stack
from .polylog import FERMI_Z_C, _check_theta
from .state import (_COLUMNS, EquilibriumParams, LiCoeffs, _fit, _keys, _positive,
                    _read, _validate_cells)

_MAX_STEPS = 5_000_000
_LEDGER = ("time", "mass", "momentum", "energy")


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
        d = vars(self)
        for k in ("cells", "n_snapshots"):
            object.__setattr__(self, k, _read(d, k, _integral, "an integer"))
        for k in ("length", "cfl", "tau", "t_end", "hhat"):
            object.__setattr__(self, k, _read(d, k, float, "a number"))
        for name in ("left", "right"):
            s = _read(d, name, dict, "an object with keys z, u1 and T")
            _keys(s, ("z", "u1", "T"), f"{name} state")
            s.update((k, _read(s, k, float, "a number", name + " ")) for k in ("z", "u1", "T"))
            object.__setattr__(self, name, s)
        if self.cells < 4:
            raise DomainError(f"need at least 4 cells, got {self.cells}")
        for k in ("length", "tau", "t_end"):
            _positive(k, getattr(self, k))
        if not (0.0 < self.cfl < 1.0):
            raise DomainError(f"cfl must lie in (0, 1), got {self.cfl}")
        if self.boundary not in ("periodic", "copy"):
            raise DomainError(
                f"boundary must be 'periodic' or 'copy', got {self.boundary!r}")
        if self.n_snapshots < 2:
            raise DomainError("need at least the initial and final snapshot")
        # building them checks z and T for this theta; `_start` reads them (not a field)
        object.__setattr__(self, "_sides", tuple(
            EquilibriumParams(theta=self.theta, z=side["z"], u=(side["u1"], 0.0, 0.0),
                              T=side["T"], hhat=self.hhat)
            for side in (self.left, self.right)))

    @classmethod
    def from_dict(cls, d: dict) -> "SimConfig":
        _keys(d, [f.name for f in fields(cls) if f.default is MISSING], "run description")
        return cls(**{f.name: d[f.name] for f in fields(cls) if f.name in d})


def _integral(x) -> int:
    """x as an int where it is integral: 10 or 10.0, not 10.7."""
    if not float(x).is_integer():
        raise ValueError(x)
    return int(float(x))


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
    fit_points: int                # li evaluations the fits made, in points


# ---------------------------------------------------------------------------
# per-cell coefficients

def _a5_final_stack(w: np.ndarray, T: np.ndarray, li: np.ndarray
                    ) -> Tuple[np.ndarray, np.ndarray]:
    """Reduced coefficient matrices of the final regularization, one per cell
    (`matrices._a5_stack`), and their spectral radii.

    T and `li` (five rows, one per order) are the cells' fit.  The matrices'
    agreement with the reduced 13x13 assembly, and the radius against
    eigvals, are pinned in the tests.
    """
    c = LiCoeffs(li, T)
    return _a5_stack(SystemKind.FinalR13, w, c), np.abs(w[:, 1]) + np.sqrt(T * c.x_plus)


def _conserved(w: np.ndarray, dx: float) -> Tuple[float, float, float]:
    rho, u1, _, _, p = (w[:, k] for k in range(5))
    mass = float(np.sum(rho) * dx)
    momentum = float(np.sum(rho * u1) * dx)
    energy = float(np.sum(1.5 * p + 0.5 * rho * u1 ** 2) * dx)
    return mass, momentum, energy


def _start(config: SimConfig):
    """Cell centers, the piecewise-constant start in w coordinates, and the
    first fit's guess (z, li): each side's own fugacity and li at it."""
    N = config.cells
    x = (np.arange(N) + 0.5) * (config.length / N)
    left = x < 0.5 * config.length
    lo, hi = config._sides
    w = np.where(left[:, None], [lo.rho, lo.u[0], lo.p, 0.0, lo.p],
                 [hi.rho, hi.u[0], hi.p, 0.0, hi.p])
    li = np.where(left, *(np.array(eq.coeffs.li)[:, None] for eq in (lo, hi)))
    return x, w, (np.where(left, lo.z, hi.z), li)


def initial_condition(config: SimConfig) -> Tuple[np.ndarray, np.ndarray]:
    """Cell centers and the piecewise-constant start in w coordinates."""
    return _start(config)[:2]


def run(config: SimConfig, w0: Optional[np.ndarray] = None) -> SimResult:
    """Advance to t_end, returning snapshots at evenly spaced times.

    `w0` overrides the built-in two-state start with an arbitrary (cells, 5)
    array of admissible cell states, which is how relaxation-only setups
    (uniform in x, nonzero sigma11 or q1) are exercised.  The built-in start
    seeds the first fit with its own fugacities; a `w0` run starts it cold.
    """
    N = config.cells
    dx = config.length / N
    x, w, guess = _start(config)
    if w0 is not None:
        w, guess = np.array(w0, dtype=float, copy=True), None
        if w.shape != (N, 5):
            raise DomainError(f"w0 must have shape ({N}, 5), got {w.shape}")
    _validate_cells(w)
    rows = np.arange(N)
    up, down = (rows + 1) % N, (rows - 1) % N     # right and left neighbour rows
    if config.boundary == "copy":
        up[-1], down[0] = N - 1, 0
    snap_times = np.linspace(0.0, config.t_end, config.n_snapshots)
    snap_tol = 1e-12 * max(1.0, config.t_end)
    ledger = [(0.0,) + _conserved(w, dx)]
    snapshots = [w.copy()]
    t = max_speed = 0.0
    steps = fallbacks = fit_points = 0
    snap_idx = 1
    while snap_idx < snap_times.size:
        try:
            z, T, li, fell_back, points = _fit(w[:, 0], w[:, 4], config.theta,
                                               config.hhat, guess)
        except (CondensationError, NoSolution) as exc:
            raise InadmissibleCell(exc.index, f"no admissible fugacity in step {steps + 1} "
                                              f"at t = {t:.6g}: {exc}",
                                   quantity="fugacity", step=steps + 1, t=t) from exc
        guess = (z, li)
        fallbacks += fell_back
        fit_points += points
        A, alpha = _a5_final_stack(w, T, li)
        amax = float(alpha.max())
        if not 0.0 < amax < math.inf:
            i = int(np.argmin(np.isfinite(alpha)))
            above = (f" above the Fermion bound FERMI_Z_C = {FERMI_Z_C:.6g}"
                     if config.theta == 1 and z[i] > FERMI_Z_C else "")
            raise InadmissibleCell(i, f"spectral radius {alpha[i]} in step {steps + 1} "
                                      f"at t = {t:.6g}, z = {z[i]:.6g}{above}",
                                   quantity="spectral radius", value=float(alpha[i]),
                                   step=steps + 1, t=t)
        max_speed = max(max_speed, amax)
        dt = min(config.cfl * dx / amax, float(snap_times[snap_idx]) - t)
        k = dt / (2.0 * dx)   # w - k A (wp - wm) + k alpha (wp - 2 w + wm), in place
        wp, wm = w.take(up, axis=0), w.take(down, axis=0)
        lap = k * alpha[:, None] * (wp - 2.0 * w + wm)
        w -= np.einsum("nij,nj->ni", A, wp - wm) * k
        w += lap
        decay = math.exp(-dt / config.tau)
        w[:, 2] = w[:, 4] + (w[:, 2] - w[:, 4]) * decay
        w[:, 3] *= decay
        _validate_cells(w, steps + 1, t)
        t += dt
        steps += 1
        if steps > _MAX_STEPS:
            raise CFLViolation(f"step budget exhausted at t = {t:.6g}")
        if t >= snap_times[snap_idx] - snap_tol:
            snapshots.append(w.copy())
            ledger.append((float(snap_times[snap_idx]),) + _conserved(w, dx))
            snap_idx += 1
    return SimResult(config=config, x=x, times=snap_times,
                     snapshots=np.array(snapshots),
                     ledger=dict(zip(_LEDGER, np.array(ledger).T.copy())),
                     steps=steps, max_speed=max_speed,
                     newton_fallbacks=fallbacks, fit_points=fit_points)


# ---------------------------------------------------------------------------
# artifacts

def write_snapshot_csv(result: SimResult, path: str, index: int = -1) -> None:
    """One snapshot as CSV columns x, rho, u1, p11, q1, p."""
    _write_columns(path, ",".join(("x",) + _COLUMNS), [result.x, *result.snapshots[index].T])


def write_ledger_csv(result: SimResult, path: str) -> None:
    """Conservation ledger as CSV columns time, mass, momentum, energy."""
    _write_columns(path, ",".join(_LEDGER), [result.ledger[k] for k in _LEDGER])
