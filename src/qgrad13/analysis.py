"""State-space surveys: hyperbolicity regions, branch sweeps, transport limits.

Region scans classify the quasi-linear coefficient matrix on a grid of
dimensionless deviations from equilibrium (sigma_hat = sigma/p and
q_hat = q1/(p sqrt(T))) at fixed (theta, z), T = 1 and zero drift.  The
matrices are affine in those deviations, so each scan assembles them at four
points in one batched call (`_BASIS`: three span the affine basis, the
fourth checks it) and classifies the whole grid with batched eigensolves.
region3d, region-reg and its Grad13 comparison are one shear-grid scan
(`_shear_scan`); region3d is its Grad13 run along axis 1.  A fixed direction
classifies only the q_hat >= 0 rows, and an axis direction only the
sigma12_hat >= 0 columns of those; the rest are exact mirror copies.  The
branch sweep tabulates `spectral.char_poly_equilibrium` over a fugacity grid.

`run_verification_suite` bundles the self-checks the command line exposes:
special-function oracles, closed-form polynomial coefficients, annihilating
polynomials, linearization collapse, randomized global hyperbolicity and
the quadrature check of the moment closure.
"""
from __future__ import annotations

import itertools
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

import numpy as np

from . import spectral
from .errors import DomainError
from .matrices import (SystemKind, _a5_stack, _unit_rows, assemble_A,
                       assemble_axes, assemble_M, pslot, regularized_stack,
                       stack_states)
from .polylog import (_SERIES_Z_MAX, FERMI_Z_C, FERMI_Z_MAX, ORDERS, ZETA_HALF,
                      _check_theta, _fermi_quadrature, eval_polylog_batch)
from .spectral import (CLASS_CODES, CODE_INADMISSIBLE, Classification,
                       classify_batch)
from .state import (_EYE3, EquilibriumParams, LiCoeffs, MomentState13, _count,
                    _positive, _shear_state, ansatz_moments, closure_moments,
                    equilibrium_state13, state5_from_hat)

_CODE_NAMES = {**{code: cls.value for cls, code in CLASS_CODES.items()},
               CODE_INADMISSIBLE: "Inadmissible"}

#: the validated fugacity range (z_min, z_max) of each statistics, spanned by
#: the random draws, the default sweep grid and the annihilation check
_Z_RANGE = {1: (1e-2, 1e2), -1: (0.01, 0.99), 0: (1e-2, 10.0)}


def _resolve_threads(threads: Optional[int]) -> int:
    """threads, a positive integer, or by default the CPUs this process may use."""
    if threads is None:
        return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                else os.cpu_count() or 1)
    return _count("threads", threads)


# ---------------------------------------------------------------------------
# region grids

@dataclass(frozen=True, eq=False)
class RegionGrid:
    """Classification codes over a (x, y) grid of hat variables.

    cells[iy, ix] holds the integer class code at (x[ix], y[iy]); -1 marks
    states outside the admissible set (degenerate pressure tensor).
    """

    theta: int
    z: float
    T: float
    x_name: str
    y_name: str
    x: np.ndarray
    y: np.ndarray
    cells: np.ndarray
    metadata: Dict[str, object] = field(default_factory=dict)


def class_counts(cells: np.ndarray) -> Dict[str, int]:
    vals, counts = np.unique(np.asarray(cells), return_counts=True)
    return {_CODE_NAMES[int(v)]: int(c) for v, c in zip(vals, counts)}


def area_fraction(grid: RegionGrid) -> float:
    """Fraction of admissible cells classified hyperbolic (strict or degenerate)."""
    admissible = int(np.sum(grid.cells >= 0))
    if admissible == 0:
        return 0.0
    good = int(np.sum((grid.cells == 0) | (grid.cells == 1)))
    return good / admissible


def _boundary_cells(cells: np.ndarray) -> np.ndarray:
    """Indices (iy, ix) of admissible cells with a differently classified neighbor."""
    b = np.zeros(cells.shape, dtype=bool)
    d = cells[:, 1:] != cells[:, :-1]
    b[:, 1:] |= d
    b[:, :-1] |= d
    d = cells[1:, :] != cells[:-1, :]
    b[1:, :] |= d
    b[:-1, :] |= d
    return np.argwhere(b & (cells >= 0))


def _grid_metadata(grid: RegionGrid) -> Dict[str, object]:
    boundary = _boundary_cells(grid.cells)
    meta: Dict[str, object] = {
        "theta": grid.theta, "z": grid.z, "T": grid.T,
        "x_name": grid.x_name, "y_name": grid.y_name,
        "x_min": float(grid.x[0]), "x_max": float(grid.x[-1]),
        "y_min": float(grid.y[0]), "y_max": float(grid.y[-1]),
        "nx": int(grid.x.size), "ny": int(grid.y.size),
        "class_counts": class_counts(grid.cells),
        "area_fraction": area_fraction(grid),
        "boundary_cell_count": int(boundary.shape[0]),
    }
    if boundary.shape[0] <= 20000:
        meta["boundary_cells"] = boundary.tolist()
    meta.update(grid.metadata)
    return meta


def _fmt(v: float) -> str:
    return f"{float(v):.17g}"


def _write_lines(path: str, lines: Iterable[str]) -> None:
    """A CSV (or any line-based artifact), each item newline-terminated."""
    with open(path, "w") as fh:
        fh.writelines(f"{line}\n" for line in lines)


def _write_columns(path: str, header: str, columns) -> None:
    """Equal-length columns as CSV rows of 17-digit floats, one format per row
    (`_fmt`'s digits)."""
    row = ",".join(["%.17g"] * len(columns))
    _write_lines(path, [header] + [row % tuple(r)
                                   for r in np.column_stack(columns).tolist()])


def _write_meta(path: str, meta: Dict[str, object]) -> None:
    """The `path + ".meta.json"` sidecar, keys sorted, newline-terminated."""
    with open(path + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_region_csv(grid: RegionGrid, path: str) -> None:
    """CSV of (x, y, class_code) rows plus a JSON metadata sidecar.

    Rows iterate y outer, x inner; floats carry 17 significant digits so
    repeated runs produce byte-identical files.
    """
    xs = [_fmt(x) for x in grid.x]
    # a grid row is x[0], then "{code}\n{x[i + 1]}" for each cell i but the
    # last and the last cell's bare code, all joined by ",{y},"; pieces holds
    # them by code (offset by CODE_INADMISSIBLE) and cell
    pieces = np.array([[f"{code}\n{x}" for x in xs[1:]] + [str(code)]
                       for code in range(CODE_INADMISSIBLE, 4)], dtype=object)
    cols = np.arange(len(xs))
    rows = (f",{_fmt(y)},".join([xs[0], *pieces[row - CODE_INADMISSIBLE, cols].tolist()])
            for y, row in zip(grid.y, grid.cells))   # one grid row at a time
    _write_lines(path, itertools.chain([f"{grid.x_name},{grid.y_name},class_code"], rows))
    _write_meta(path, _grid_metadata(grid))


def _classify_cells(build_stack: Callable[[slice], np.ndarray], n_cells: int,
                    threads: Optional[int]) -> Tuple[np.ndarray, Dict[str, object]]:
    """Classify cells 1024 at a time with a worker pool.

    Returns the codes and classify_batch's report: per cell `min_gap` and
    `max_imag`, and `n_slow` summed over the chunks.  Workers write disjoint
    slices in index order, so all of it is independent of the thread count
    and of scheduling.
    """
    codes = np.empty(n_cells, dtype=np.int8)
    aux: Dict[str, object] = {"min_gap": np.empty(n_cells),
                              "max_imag": np.empty(n_cells)}
    slices = [slice(i, min(i + 1024, n_cells))
              for i in range(0, n_cells, 1024)]

    def work(sl: slice) -> int:
        codes[sl], chunk = classify_batch(build_stack(sl))
        for key in ("min_gap", "max_imag"):
            aux[key][sl] = chunk[key]
        return int(chunk["n_slow"][0])

    with ThreadPoolExecutor(max_workers=_resolve_threads(threads)) as pool:
        aux["n_slow"] = sum(pool.map(work, slices))
    return codes, aux


def _scan_summary(cells: np.ndarray, aux: Dict[str, object]) -> Dict[str, object]:
    """Sidecar keys on what classify_batch did in the block `_scan` returned.

    The classified cells are the block's last rows (the rest mirror them):
    their number, how many had an eigenvalue cluster, and the smallest
    min_gap and largest max_imag of those coded hyperbolic.
    """
    hyp = np.isin(cells.ravel()[cells.size - aux["min_gap"].size:], (0, 1))
    found = bool(hyp.any())
    return {"n_classified": int(hyp.size), "n_slow": aux["n_slow"],
            "hyperbolic_min_gap": float(aux["min_gap"][hyp].min()) if found else None,
            "hyperbolic_max_imag": float(aux["max_imag"][hyp].max()) if found else None}


#: the (s_hat, q1_hat) points whose matrices a scan reads: the affine basis
#: at the first three, a check of its affinity at the fourth
_BASIS = ((0.0, 0.0), (0.5, 0.0), (0.0, 1.0), (0.25, 1.5))


def _scan(X: np.ndarray, shat: np.ndarray, qhat: np.ndarray,
          threads: Optional[int], direction=1,
          seed: int = 0) -> Tuple[np.ndarray, Dict[str, object]]:
    """Class codes over the (shat, qhat) grid of matrices affine in the hat
    variables, from their values X (4, axes, k, k) at the `_BASIS` points.

    Per axis A_d = A0[d] + s_hat As[d] + q1_hat Aq[d]; the scans rely on this
    affinity, so the fourth point must agree with it (RuntimeError otherwise).
    direction is an axis index, a 3-vector or "random", which draws one unit
    direction per cell from a Philox stream and classifies every cell.  A
    fixed direction classifies only the q_hat >= 0 rows and mirrors them
    (`_shear_scan` mirrors the sigma12_hat columns of an axis direction).
    Returns the codes and `_classify_cells`' report on the classified cells.
    """
    A0 = X[0]
    As = (X[1] - A0) / 0.5
    Aq = X[2] - A0
    err = np.abs(X[3] - (A0 + 0.25 * As + 1.5 * Aq)).max(axis=(1, 2))
    if np.any(err > 1e-10 * np.maximum(1.0, np.abs(X[3]).max(axis=(1, 2)))):
        raise RuntimeError("affine decomposition of the coefficient matrix "
                           "does not reproduce the direct assembly")
    N, half = None, qhat.size // 2
    if isinstance(direction, str):
        N = random_unit_vectors(np.random.Generator(np.random.Philox(seed)),
                                qhat.size * shat.size)
        half = 0
    elif isinstance(direction, (int, np.integer)):
        A0, As, Aq = (B[direction - 1] for B in (A0, As, Aq))
    else:
        n = _unit_rows(direction)[0]
        A0, As, Aq = (np.tensordot(n, B, axes=1) for B in (A0, As, Aq))
    S, Q = np.meshgrid(shat, qhat[half:], indexing="xy")
    Sf, Qf = S.ravel(), Q.ravel()

    def part(B: np.ndarray, sl: slice, term: np.ndarray) -> np.ndarray:
        """B for the cells sl: shared by all, or per random direction
        contracted into term."""
        return B if N is None else np.einsum("cd,dij->cij", N[sl], B, out=term)

    def build(sl: slice) -> np.ndarray:
        # s_hat Bs + B0 + q_hat Bq, keeping only the stack and one term alive
        term = np.empty((sl.stop - sl.start,) + X.shape[-2:])
        stack = np.multiply(Sf[sl, None, None], part(As, sl, term))
        stack += part(A0, sl, term)
        stack += np.multiply(Qf[sl, None, None], part(Aq, sl, term), out=term)
        return stack

    codes, aux = _classify_cells(build, Sf.size, threads)
    codes = codes.reshape(-1, shat.size)
    # flipping the sign of every odd moment (u, q) conjugates the matrix into
    # minus itself, so the class at -q_hat equals the one at +q_hat exactly
    return np.concatenate((codes[::-1][:half], codes)), aux


def _qhat_axis(n, q1_hat_max) -> np.ndarray:
    """n points on [-q1_hat_max, q1_hat_max], for n a positive integer."""
    n = _count("n", n)
    q = _positive("q1_hat_max", q1_hat_max)
    return np.linspace(-q, q, n)


def _shear_scan(kind: SystemKind, theta: int, z: float, n: int,
                q1_hat_max: float, direction, seed: int,
                threads: Optional[int]) -> RegionGrid:
    """Classify the kind's 13x13 matrices over (sigma12_hat, q1_hat) at the
    T = 1, zero-drift equilibrium (theta, z).

    The only deviatoric stress component is sigma12; the grid spans the
    admissible interval [-1, 1] in sigma12_hat, whose degenerate endpoints
    are marked -1.  direction ("random" or no string) and seed are `_scan`'s.
    An axis direction also classifies only the sigma12_hat >= 0 columns and
    mirrors them; the metadata names the system, the direction and whether
    it mirrored, with `_scan_summary` of the classified block.
    """
    eq = EquilibriumParams(theta=theta, z=z, u=np.zeros(3), T=1.0)
    random_dirs = isinstance(direction, str)
    if random_dirs and direction != "random":
        raise DomainError(f"direction must be 'random', an axis or 3 numbers, got {direction!r}")
    meta = {"system": kind.value, "mirrored": not random_dirs,
            "direction": "random" if random_dirs else list(_unit_rows(direction)[0])}
    qhat = _qhat_axis(n, q1_hat_max)
    shat = np.linspace(-1.0, 1.0, n)
    basis = stack_states([_shear_state(eq, s, q) for s, q in _BASIS],
                         [eq] * len(_BASIS))
    half = n // 2 if isinstance(direction, (int, np.integer)) else 0
    cells, aux = _scan(assemble_axes(kind, basis), shat[half:], qhat, threads,
                       direction, seed)
    cells[:, np.abs(shat[half:]) >= 1.0] = CODE_INADMISSIBLE
    meta.update(_scan_summary(cells, aux))
    # x2 -> -x2 flips sigma12, keeps q1 and maps e_d to +-e_d: the matrix at
    # -sigma12_hat is +-P A P for a signed permutation P, so the class is equal
    cells = np.concatenate((cells[:, ::-1][:, :half], cells), axis=1)
    return RegionGrid(theta=eq.theta, z=eq.z, T=1.0, x_name="sigma12_hat",
                      y_name="q1_hat", x=shat, y=qhat, cells=cells, metadata=meta)


def region_scan_1d(theta: int, z: float, n: int = 401,
                   q1_hat_max: float = 3.0,
                   threads: Optional[int] = None) -> RegionGrid:
    """Classify the reduced 5x5 system over (sigma11_hat, q1_hat).

    The grid covers sigma11/p in [-0.999, 1.999], just inside the open
    admissible interval (-1, 2), and q1/(p sqrt(T)) in [-max, max]; only the
    q_hat >= 0 half is computed and the rest filled by the exact parity mirror.
    """
    eq = EquilibriumParams(theta=theta, z=z, u=np.zeros(3), T=1.0)
    qhat = _qhat_axis(n, q1_hat_max)
    shat = np.linspace(-0.999, 1.999, n)
    w = np.array([[st.rho, st.u1, st.p11, st.q1, st.p] for st in
                  (state5_from_hat(eq, s, q) for s, q in _BASIS)])
    cells, aux = _scan(_a5_stack(SystemKind.Grad13, w, eq.coeffs)[:, None],
                       shat, qhat, threads)
    return RegionGrid(theta=eq.theta, z=z, T=1.0, x_name="sigma11_hat",
                      y_name="q1_hat", x=shat, y=qhat, cells=cells,
                      metadata={"system": SystemKind.Grad13.value,
                                "reduction": "1d", "mirrored": True,
                                **_scan_summary(cells, aux)})


def region_scan_3d_cross_section(theta: int, z: float, n: int = 401,
                                 q1_hat_max: float = 2.0,
                                 threads: Optional[int] = None) -> RegionGrid:
    """Classify the full 13x13 plain closure along axis 1 over
    (sigma12_hat, q1_hat) (see `_shear_scan`)."""
    return _shear_scan(SystemKind.Grad13, theta, z, n, q1_hat_max, 1, 0, threads)


def region_scan_regularized(theta: int, z: float, n: int = 401,
                            q1_hat_max: float = 2.0,
                            direction="random", seed: int = 0,
                            threads: Optional[int] = None,
                            compare_grad: bool = False) -> RegionGrid:
    """Classify the final regularization on the same (sigma12_hat, q1_hat) grid.

    direction is an axis index (1..3), an explicit 3-vector, or "random",
    which draws one unit direction per cell from a Philox stream.  With
    compare_grad=True the plain closure is classified on the identical grid
    and its summary stored in the metadata under a "grad_" prefix.  A zero
    direction vector raises DomainError.
    """
    grid = _shear_scan(SystemKind.FinalR13, theta, z, n, q1_hat_max, direction, seed, threads)
    grid.metadata["seed"] = seed if grid.metadata["direction"] == "random" else None
    if compare_grad:
        grad = _shear_scan(SystemKind.Grad13, theta, z, n, q1_hat_max, direction,
                           seed, threads)
        summary = {"class_counts": class_counts(grad.cells),
                   "area_fraction": area_fraction(grad), **grad.metadata}
        grid.metadata.update({"grad_" + k: v for k, v in summary.items()
                              if k not in ("system", "direction", "mirrored")})
    return grid


# ---------------------------------------------------------------------------
# characteristic-speed sweep

def default_sweep_grid(theta: int, n: int = 161) -> np.ndarray:
    lo, hi = _Z_RANGE[_check_theta(theta)]
    return np.logspace(math.log10(lo), math.log10(hi), n)


def _sweep_columns(spectrum: spectral.EquilibriumSpectrum):
    """The nonnegative wave speeds sqrt(T x) of a spectrum over a fugacity
    grid, by branch, and the Fermion branch crossing if the grid spans it.

    Branches are tracked by identity (quartic root x-, doubled branch alpha,
    quartic root x+), not by magnitude, so the Fermion curves cross cleanly
    near z ~ 11.7 instead of being reordered.
    """
    T, z = spectrum.T, spectrum.z
    cols = {"zero": np.zeros(z.size), "sqrt_x_minus": np.sqrt(T * spectrum.x_minus),
            "sqrt_alpha": np.sqrt(T * spectrum.alpha_hat),
            "sqrt_x_plus": np.sqrt(T * spectrum.x_plus)}
    zc = spectral.fermion_crossing()
    crossing = zc if spectrum.theta == 1 and z.min() <= zc <= z.max() else None
    return cols, crossing


def write_sweep_csv(spectrum: spectral.EquilibriumSpectrum, path: str) -> None:
    cols, crossing = _sweep_columns(spectrum)
    _write_columns(path, "z," + ",".join(cols), [spectrum.z, *cols.values()])
    _write_meta(path, {"theta": spectrum.theta, "T": spectrum.T,
                       "n": int(spectrum.z.size), "crossing_z": crossing})


# ---------------------------------------------------------------------------
# linearization at equilibrium

@dataclass(frozen=True, eq=False)
class LinearizationReport:
    """Per-axis distance of each regularization from the plain closure at equilibrium."""

    scale: np.ndarray
    e_final: np.ndarray
    e_trivial: np.ndarray


def linearization_equality(theta: int, z: float) -> LinearizationReport:
    """Compare both regularizations against the plain closure at equilibrium, T = 1, u = 0.

    The final regularization agrees to rounding on every axis; the projection
    variant does not for theta = +-1.  In the classical limit the projection
    variant collapses onto the plain closure too, as e_trivial shows.
    """
    eq = EquilibriumParams(theta=theta, z=z, u=np.zeros(3), T=1.0)
    S = stack_states((equilibrium_state13(eq),), (eq,))
    Ag, Af, At = (assemble_axes(kind, S)[0] for kind in
                  (SystemKind.Grad13, SystemKind.FinalR13, SystemKind.TrivialR13))
    scale = np.abs(Ag).max(axis=(1, 2))
    e_final = np.abs(Af - Ag).max(axis=(1, 2))
    e_triv = np.abs(At - Ag).max(axis=(1, 2))
    return LinearizationReport(scale=scale, e_final=e_final, e_trivial=e_triv)


# ---------------------------------------------------------------------------
# first Maxwellian iteration (Navier-Stokes-Fourier limit)

@dataclass(frozen=True, eq=False)
class NSFReport:
    """Transport coefficients extracted from one relaxation iteration."""

    kind: SystemKind
    theta: int
    z: float
    T: float
    tau: float
    mu: float
    mu_reference: float       # tau * p, exact for every model
    kappa_fixed_p: float      # temperature gradient carried by the density
    kappa_fixed_rho: float    # temperature gradient carried by the pressure
    kappa_star: float
    residual: np.ndarray      # (kfp - k*, kfr - k*, kfp - kfr)

    def as_dict(self) -> dict:
        return {**vars(self), "kind": self.kind.value,
                "residual": self.residual.tolist()}


def maxwellian_iteration_nsf(kind: SystemKind, theta: int, z: float,
                             T: float = 1.0, tau: float = 1.0) -> NSFReport:
    """Shear viscosity and heat conductivity of one model at equilibrium.

    The first iteration gives sigma12 = -mu (du2/dx1 + ...) with
    mu = tau A[p12, u2] and q1 = -kappa dT/dx1 along two independent
    temperature-gradient routes: density varying at constant pressure
    (only the rho column of the heat-flux row contributes) and pressure
    varying at constant density (only the diagonal pressure columns).
    Both must equal kappa* = (5/2) tau p (7 li[7/2]/(2 li[5/2])
    - 5 li[5/2]/(2 li[3/2])) for a model with the correct limit.
    tau must be positive and finite.
    """
    _positive("relaxation time", tau)
    eq = EquilibriumParams(theta=theta, z=z, u=np.zeros(3), T=T)
    st = equilibrium_state13(eq)
    A = assemble_A(kind, st, eq, 1)
    c = eq.coeffs
    mu = tau * A[pslot(1, 2), 2]
    drho_dT = eq.rho * c.Delta / (c.L35 * T)
    dp_dT = -eq.p * c.Delta / (c.L13 * T)
    kappa_fp = tau * A[10, 0] * drho_dT
    kappa_fr = tau * (A[10, 4] + A[10, 7] + A[10, 9]) * dp_dT
    kappa_star = 2.5 * tau * eq.p * (3.5 * c.L75 - 2.5 * c.L53)
    residual = np.array([kappa_fp - kappa_star, kappa_fr - kappa_star,
                         kappa_fp - kappa_fr])
    return NSFReport(kind=kind, theta=eq.theta, z=z, T=T, tau=tau, mu=mu,
                     mu_reference=tau * eq.p, kappa_fixed_p=kappa_fp,
                     kappa_fixed_rho=kappa_fr, kappa_star=kappa_star,
                     residual=residual)


# ---------------------------------------------------------------------------
# randomized admissible states

def random_fugacity(rng: np.random.Generator, theta: int,
                    bose_z_max: float = _Z_RANGE[-1][1]) -> float:
    """Bosons uniform in z up to bose_z_max, the others uniform in log z."""
    lo, hi = _Z_RANGE[_check_theta(theta)]
    if theta == -1:
        return float(rng.uniform(lo, bose_z_max))
    return float(10.0 ** rng.uniform(math.log10(lo), math.log10(hi)))


def random_moment_state(rng: np.random.Generator, theta: int,
                        bose_z_max: float = _Z_RANGE[-1][1]
                        ) -> Tuple[MomentState13, EquilibriumParams]:
    """Draw an admissible 13-moment state together with its matching equilibrium.

    The deviatoric stress is scaled so the smallest pressure eigenvalue stays
    above 0.1 p, and the heat flux is bounded by 1.5 p sqrt(T) per component.
    """
    z = random_fugacity(rng, theta, bose_z_max=bose_z_max)
    T = float(rng.uniform(0.5, 2.0))
    u = rng.uniform(-1.0, 1.0, 3)
    eq = EquilibriumParams(theta=theta, z=z, u=u, T=T)
    p = eq.p
    S = rng.uniform(-1.0, 1.0, (3, 3))
    S = 0.5 * (S + S.T)
    S -= (S.trace() / 3.0) * _EYE3
    lam = np.linalg.eigvalsh(S)
    extreme = max(float(np.abs(lam).max()), 1e-12)
    amp = float(rng.uniform(0.0, 0.9)) / extreme
    p_ij = p * (_EYE3 + amp * S)
    q = rng.uniform(-1.5, 1.5, 3) * p * math.sqrt(T)
    return MomentState13(rho=eq.rho, u=u, p_ij=p_ij, q=q), eq


def random_unit_vectors(rng: np.random.Generator, n: int) -> np.ndarray:
    v = rng.normal(size=(n, 3))
    # np.linalg.norm's arithmetic, without its Python wrapper
    return v / np.sqrt(np.add.reduce(v * v, axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# verification suites

def _check(name: str, value: float, tol: float, ok=None) -> dict:
    if ok is None:
        ok = bool(abs(value) <= tol)
    return {"name": name, "ok": bool(ok), "value": float(value), "tol": float(tol)}


def _suite(name: str, checks: List[dict]) -> dict:
    return {"suite": name, "ok": all(c["ok"] for c in checks), "checks": checks}


def verify_polylog(seed: int = 0) -> dict:
    checks = []
    frozen = (1.297265404819419, 2.284211284873108, 3.17005576844848,
              3.849002029404993, 4.314728869554372)
    got = eval_polylog_batch(5.0, 1)[:, 0]
    for s, val, ref in zip(ORDERS, got, frozen):
        checks.append(_check(f"fermion z=5 order {s}", float(val) / ref - 1.0, 1e-12))
    eta_half = (1.0 - math.sqrt(2.0)) * ZETA_HALF
    checks.append(_check("fermion z=1 order 1/2 vs eta(1/2)",
                         float(eval_polylog_batch(1.0, 1)[0, 0]) / eta_half - 1.0,
                         1e-12))
    bose = float(eval_polylog_batch(1.0 - 1e-8, -1)[1, 0])
    checks.append(_check("boson z->1 order 3/2 frozen",
                         bose / 2.612020872517075 - 1.0, 1e-10))
    checks.append(_check("boson z->1 order 3/2 near zeta(3/2)",
                         bose - 2.6123753486854883, 1e-3))
    zs = np.array([0.3, 0.7, 0.9])
    cls = eval_polylog_batch(zs, 0)
    checks.append(_check("classical identity bitwise",
                         float(np.max(np.abs(cls[2] - zs))), 0.0,
                         ok=np.all(cls[2] == zs)))
    # one ulp above e^-1 switches from the power series to the Chebyshev /
    # Robinson branch; the smooth change over one ulp is ~1e-16, so any gap
    # seen here is a genuine branch mismatch
    z_hi = float(np.nextafter(_SERIES_Z_MAX, 1.0))
    for th in (1, -1):
        lo = eval_polylog_batch(_SERIES_Z_MAX, th)
        hi = eval_polylog_batch(z_hi, th)
        gap = float(np.max(np.abs(lo - hi)))
        checks.append(_check(f"series/asymptotic junction theta={th}", gap, 1e-10))
    # the Fermion Chebyshev table, which every Fermion z > e^-1 runs, against
    # the panel quadrature it was built from, at 200 z off the table's nodes
    z = np.exp(np.linspace(-1.0, math.log(FERMI_Z_MAX), 201)[1:])
    table, quad = eval_polylog_batch(z, 1), _fermi_quadrature(z)
    err = float(np.max(np.abs(table / quad - 1.0)))
    checks.append(_check("fermion table vs panel quadrature", err, 1e-14))
    return _suite("polylog", checks)


def verify_charpoly(seed: int = 0) -> dict:
    checks = []
    for eps in (0.0, 0.3):
        cc = spectral.shear_charpoly_coeffs(1.0, 0, eps)
        e2 = eps * eps
        checks.append(_check(f"classical c0 eps={eps}", cc.c0 - 3.0, 1e-12))
        checks.append(_check(f"classical c1 eps={eps}", cc.c1 - 5.2, 1e-12))
        checks.append(_check(f"classical c2 eps={eps}",
                             cc.c2 - (-105.0 + 8.0 * e2), 1e-10))
        checks.append(_check(f"classical c3 eps={eps}",
                             cc.c3 - (257.0 + 48.0 * e2), 1e-10))
        checks.append(_check(f"classical c4 eps={eps}", cc.c4 + 165.0, 1e-10))
        checks.append(_check(f"classical const eps={eps}",
                             cc.const + 28.0 * e2, 1e-10))
    rng = np.random.Generator(np.random.Philox(seed))
    worst = 0.0
    for _ in range(20):
        theta = int(rng.integers(-1, 2))
        z = random_fugacity(rng, theta)
        eps = float(rng.uniform(-0.8, 0.8))
        cc = spectral.shear_charpoly_coeffs(z, theta, eps)
        brute = spectral.brute_charpoly_reduced(z, theta, eps)
        for key, ref in (("c4", cc.c4), ("c3", cc.c3), ("c2", cc.c2),
                         ("const", cc.const)):
            worst = max(worst, abs(brute[key] - ref) / max(1.0, abs(ref)))
        worst = max(worst, brute["lam3_residual"], brute["deflation_residual"])
        alpha = spectral.char_poly_equilibrium(z, theta).alpha_hat
        ident = spectral.shear_charpoly_coeffs(z, theta)
        worst = max(worst, abs(ident.c4 + 25.0 * (alpha + ident.c1))
                    / max(1.0, abs(ident.c4)))
        worst = max(worst, abs(ident.c3 - 25.0 * (ident.c0 + alpha * ident.c1))
                    / max(1.0, abs(ident.c3)))
        worst = max(worst, abs(ident.c2 + 25.0 * alpha * ident.c0)
                    / max(1.0, abs(ident.c2)))
        worst = max(worst, abs(ident.const))
    checks.append(_check("assembled vs closed-form coefficients "
                         "(20 random states)", worst, 1e-8))
    c = LiCoeffs(eval_polylog_batch(np.array([0.99, 1.01]) * FERMI_Z_C, 1), 1.0)
    gap = float(np.max((4.0 * c.c0 - c.c1 ** 2) / c.c1 ** 2 * [1.0, -1.0]))
    checks.append(_check("FERMI_Z_C brackets c1^2 - 4 c0 = 0 (> 0 at 0.99 z_c, < 0 at 1.01)",
                         gap, 0.0, ok=gap < 0.0 and np.isnan(c.x_plus).tolist() == [False, True]))
    return _suite("charpoly", checks)


def _annihilation_grid(theta: int) -> np.ndarray:
    if theta == -1:
        return np.linspace(*_Z_RANGE[-1], 9)
    return default_sweep_grid(theta, 9)


def _worst_annihilation(theta: int, zs) -> float:
    """Largest annihilation residual of M1 at T = 1 over the fugacities zs."""
    worst = 0.0
    for z in map(float, zs):
        eq = EquilibriumParams(theta=theta, z=z, u=np.zeros(3), T=1.0)
        worst = max(worst, spectral.annihilation_residual(assemble_M(eq, 1), z, theta))
    return worst


def verify_annihilation(seed: int = 0) -> dict:
    checks = [_check(f"annihilating polynomial theta={theta}",
                     _worst_annihilation(theta, _annihilation_grid(theta)),
                     1e-12 if theta == 0 else 1e-9) for theta in (-1, 0, 1)]
    zc = spectral.fermion_crossing()
    checks.append(_check("fermion branch crossing near 11.69", zc - 11.69, 0.15))
    checks.append(_check("annihilation across the crossing",
                         _worst_annihilation(1, (zc - 0.05, zc, zc + 0.05)), 1e-9))
    return _suite("annihilation", checks)


def verify_linearization(seed: int = 0) -> dict:
    checks = []
    for theta, z in ((1, 0.5), (1, 5.0), (-1, 0.5), (-1, 0.9), (0, 1.0)):
        rep = linearization_equality(theta, z)
        e_fin = float(np.max(rep.e_final / rep.scale))
        checks.append(_check(f"final matches plain closure theta={theta} z={z}",
                             e_fin, 1e-12))
        e_tri = float(np.min(rep.e_trivial / rep.scale))
        if theta == 0:
            checks.append(_check("projection variant collapses classically",
                                 e_tri, 1e-12))
        else:
            checks.append(_check(f"projection variant differs theta={theta} z={z}",
                                 e_tri, 1e-6, ok=e_tri > 1e-6))
    return _suite("linearization", checks)


def verify_global_hyperbolicity(seed: int = 0) -> dict:
    """FinalR13 on 10^4 random states and directions, drawn one by one, then
    assembled and classified batch by batch in one `_classify_cells` pass."""
    n_states = 10000
    rng = np.random.Generator(np.random.Philox(seed))
    draws = [(*random_moment_state(rng, int(theta)), random_unit_vectors(rng, 1)[0])
             for theta in rng.integers(-1, 2, n_states)]
    worst = np.empty(n_states)

    def build(sl: slice) -> np.ndarray:
        states, eqs, dirs = zip(*draws[sl])
        sm = regularized_stack(stack_states(states, eqs), np.array(dirs))
        worst[sl] = (np.abs(sm.B - sm.M @ sm.D).max(axis=(1, 2))
                     / np.maximum(1.0, np.abs(sm.D @ sm.A).max(axis=(1, 2))))
        return sm.A

    codes = _classify_cells(build, n_states, None)[0]
    bad = int(np.count_nonzero(
        codes >= CLASS_CODES[Classification.NonDiagonalizable]))
    checks = [
        _check(f"hyperbolic at {n_states} random states/directions",
               float(bad), 0.0, ok=bad == 0),
        _check("factorization residual over the sample", float(worst.max()), 1e-10),
    ]
    return _suite("global-hyperbolicity", checks)


def verify_closure_quadrature(seed: int = 0) -> dict:
    """Check that velocity-space quadrature of the distribution ansatz
    reproduces the closed-form third and fourth moments.

    Five states per statistics, 96 radii.  Bosons are drawn with z <= 0.9,
    the range of c8.  The spherical rule of `ansatz_moments` lands near 1e-9
    on every statistics at these settings and keeps that residual for Bosons
    up to z = 1 - 1e-6, where the occupancy peak z / (1 - z) at c = 0 is
    flattened by the r^2 Jacobian.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    checks = []
    for theta in (-1, 0, 1):
        worst = 0.0
        for _ in range(5):
            st, eq = random_moment_state(rng, theta, bose_z_max=0.9)
            mom = ansatz_moments(st, eq, n_nodes=96, half_width=8.0)
            closed = closure_moments(st, eq)
            qerr = np.max(np.abs(mom["q_ijk"] - closed.q_ijk)) \
                / (1.0 + np.max(np.abs(closed.q_ijk)))
            derr = np.max(np.abs(mom["Delta_ij"] - closed.Delta_ij)) \
                / (1.0 + np.max(np.abs(closed.Delta_ij)))
            worst = max(worst, float(qerr), float(derr))
        checks.append(_check(f"quadrature closure theta={theta}", worst, 1e-6))
    return _suite("closure-quadrature", checks)


_SUITES = {
    "polylog": verify_polylog,
    "charpoly": verify_charpoly,
    "annihilation": verify_annihilation,
    "linearization": verify_linearization,
    "global-hyperbolicity": verify_global_hyperbolicity,
    "closure-quadrature": verify_closure_quadrature,
}


def run_verification_suite(name: str, seed: int = 0) -> dict:
    """Run one named suite, or all of them, and aggregate the verdict."""
    if name == "all":
        suites = [fn(seed=seed) for fn in _SUITES.values()]
    elif name in _SUITES:
        suites = [_SUITES[name](seed=seed)]
    else:
        raise KeyError(f"unknown verification suite {name!r}; "
                       f"choose from {', '.join([*_SUITES, 'all'])}")
    return {"suites": suites, "ok": all(s["ok"] for s in suites)}
