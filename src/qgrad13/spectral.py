"""Eigenstructure analysis: spectra, diagonalizability, hyperbolicity.

A quasi-linear system is hyperbolic at a state when every directional
coefficient matrix is real diagonalizable.  Verdicts here are four-way:
all real and distinct, all real with repeats but diagonalizable, all real
but defective, or a complex pair present.  Closed-form characteristic
polynomials (the reduced 5x5 one, the equilibrium factorization, and the
shear-perturbed coefficient set) provide independent cross-checks of the
assembled matrices, and the annihilating-polynomial residual certifies
diagonalizability of the constant factor M1 without symbolic algebra.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np
from scipy.optimize import brentq

from .errors import NoConvergence, NoRoot
from .matrices import _a_coeffs
from .state import EquilibriumParams, LiCoeffs, MomentState5

#: default tolerances; exposed so the CLI can override them uniformly
SV_TOL = 1e-8        # singular-value threshold (relative to ||A||) for rank
GAP_TOL = 1e-7       # eigenvalue clustering gap, relative to 1 + |lambda|
IMAG_TOL = 1e-9      # imaginary-part threshold, relative to 1 + |lambda|


class Classification(enum.Enum):
    HyperbolicStrict = "HyperbolicStrict"
    HyperbolicDegenerate = "HyperbolicDegenerate"
    NonDiagonalizable = "NonDiagonalizable"
    NonHyperbolic = "NonHyperbolic"


#: stable integer codes used in region-scan grids and CSV artifacts
CLASS_CODES = {
    Classification.HyperbolicStrict: 0,
    Classification.HyperbolicDegenerate: 1,
    Classification.NonDiagonalizable: 2,
    Classification.NonHyperbolic: 3,
}
CODE_INADMISSIBLE = -1


@dataclass(frozen=True, eq=False)
class EigenCluster:
    value: complex
    algebraic: int
    geometric: int
    min_singular_value: Optional[float]


@dataclass(frozen=True, eq=False)
class HyperbolicityVerdict:
    eigenvalues: np.ndarray
    classification: Classification
    diagnostics: List[EigenCluster]
    min_gap: float
    max_imag: float

    def as_dict(self) -> dict:
        return {
            "eigenvalues": [{"re": float(v.real), "im": float(v.imag)}
                            for v in self.eigenvalues],
            "class": self.classification.value,
            "diagnostics": [
                {"re": float(c.value.real), "im": float(c.value.imag),
                 "algebraic_multiplicity": c.algebraic,
                 "geometric_multiplicity": c.geometric,
                 "min_singular_value": c.min_singular_value}
                for c in self.diagnostics],
            "min_gap": self.min_gap,
            "max_imag": self.max_imag,
        }


def _cluster_real(vals: np.ndarray, gap_tol: float) -> List[np.ndarray]:
    """Group sorted real values whose consecutive relative gap is small."""
    order = np.argsort(vals)
    clusters = [[order[0]]]
    for idx in order[1:]:
        prev = vals[clusters[-1][-1]]
        if vals[idx] - prev <= gap_tol * (1.0 + max(abs(prev), abs(vals[idx]))):
            clusters[-1].append(idx)
        else:
            clusters.append([idx])
    return [np.array(c) for c in clusters]


def diagonalizability_test(A: np.ndarray, sv_tol: float = SV_TOL,
                           gap_tol: float = GAP_TOL,
                           imag_tol: float = IMAG_TOL) -> HyperbolicityVerdict:
    """Four-way hyperbolicity verdict for one matrix.

    Eigenvalues whose imaginary part exceeds imag_tol * (1 + |lambda|) mark
    the matrix NonHyperbolic.  Otherwise real eigenvalues are clustered by
    gap_tol and each cluster's geometric multiplicity is estimated as the
    nullity of A - lambda I with singular values below sv_tol * ||A||.
    """
    w = np.linalg.eigvals(A)
    scale = float(np.linalg.norm(A, 2))
    rel_im = np.abs(w.imag) / (1.0 + np.abs(w))
    max_imag = float(np.max(rel_im)) if w.size else 0.0
    if np.any(rel_im > imag_tol):
        order = np.argsort(w.real)
        diags = [EigenCluster(complex(v), 1, 0, None) for v in w[order]]
        return HyperbolicityVerdict(eigenvalues=w[order],
                                    classification=Classification.NonHyperbolic,
                                    diagnostics=diags, min_gap=0.0,
                                    max_imag=max_imag)
    real = w.real
    clusters = _cluster_real(real, gap_tol)
    reps = np.array([real[c].mean() for c in clusters])
    if len(reps) > 1:
        gaps = np.diff(np.sort(reps))
        min_gap = float(np.min(gaps / (1.0 + np.abs(reps[:-1]))))
    else:
        min_gap = math.inf
    diags: List[EigenCluster] = []
    defective = False
    degenerate = False
    for c, lam in zip(clusters, reps):
        alg = len(c)
        if alg == 1:
            diags.append(EigenCluster(complex(lam), 1, 1, None))
            continue
        degenerate = True
        sv = np.linalg.svd(A - lam * np.eye(A.shape[0]), compute_uv=False)
        geo = int(np.sum(sv <= sv_tol * max(scale, 1e-300)))
        if geo < alg:
            defective = True
        diags.append(EigenCluster(complex(lam), alg, geo, float(sv[-1])))
    if defective:
        cls = Classification.NonDiagonalizable
    elif degenerate:
        cls = Classification.HyperbolicDegenerate
    else:
        cls = Classification.HyperbolicStrict
    return HyperbolicityVerdict(eigenvalues=np.sort_complex(w),
                                classification=cls, diagnostics=diags,
                                min_gap=min_gap, max_imag=max_imag)


def classify_batch(A_stack: np.ndarray, sv_tol: float = SV_TOL,
                   gap_tol: float = GAP_TOL,
                   imag_tol: float = IMAG_TOL) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """Vectorized classification of a stack of matrices (N, k, k).

    Fast path: batched eigenvalues decide NonHyperbolic / HyperbolicStrict
    outright; only cells with a genuine eigenvalue cluster fall back to the
    singular-value test.  Returns (codes, aux) where aux carries per-cell
    max relative imaginary part and min relative gap for boundary reporting.
    """
    N = A_stack.shape[0]
    w = np.linalg.eigvals(A_stack)
    rel_im = np.abs(w.imag) / (1.0 + np.abs(w))
    max_imag = rel_im.max(axis=1)
    complex_mask = max_imag > imag_tol
    real_sorted = np.sort(w.real, axis=1)
    gaps = np.diff(real_sorted, axis=1)
    gap_scale = 1.0 + np.maximum(np.abs(real_sorted[:, :-1]),
                                 np.abs(real_sorted[:, 1:]))
    min_gap = (gaps / gap_scale).min(axis=1)
    codes = np.empty(N, dtype=np.int8)
    codes[complex_mask] = CLASS_CODES[Classification.NonHyperbolic]
    strict_mask = (~complex_mask) & (min_gap > gap_tol)
    codes[strict_mask] = CLASS_CODES[Classification.HyperbolicStrict]
    slow = np.flatnonzero(~complex_mask & ~strict_mask)
    for i in slow:
        verdict = diagonalizability_test(A_stack[i], sv_tol, gap_tol, imag_tol)
        codes[i] = CLASS_CODES[verdict.classification]
    return codes, {"max_imag": max_imag, "min_gap": min_gap,
                   "n_slow": np.array([slow.size])}


# ---------------------------------------------------------------------------
# closed forms

def char_poly_A5_analytic(state5: MomentState5,
                          eq: EquilibriumParams) -> np.ndarray:
    """Degree-5 coefficients (highest first) in lam_hat = (lam - u1)/sqrt(T).

    p(lam_hat) = lam_hat (75 T^2 lam_hat^4
                          - (90 a2 + 50 a3 + 225 p11/rho) T lam_hat^2
                          - 288 (q1/rho) sqrt(T) lam_hat
                          + 90 (a1 + a3 sigma11/rho))
    """
    T = eq.T
    rho, p11, q1, p = state5.rho, state5.p11, state5.q1, state5.p
    a1, a2, a3 = _a_coeffs(eq.coeffs, rho, p, p11)
    C2 = 90.0 * a2 + 50.0 * a3 + 225.0 * p11 / rho
    return np.array([75.0 * T ** 2,
                     0.0,
                     -C2 * T,
                     -288.0 * (q1 / rho) * math.sqrt(T),
                     90.0 * (a1 + a3 * state5.sigma11 / rho),
                     0.0])


@dataclass(frozen=True, eq=False)
class ShearCharPolyCoeffs:
    """Coefficients of the equilibrium quartic and its shear perturbation."""

    c0: float
    c1: float
    c2: float
    c3: float
    c4: float
    const: float


def shear_charpoly_coeffs(z: float, theta: int, epsilon: float = 0.0) -> ShearCharPolyCoeffs:
    """Closed-form polynomial coefficients at fugacity z, shear size epsilon.

    c0, c1 define the equilibrium quartic x^2 - c1 x + c0 in x = lam_hat^2;
    c2..c4 and the constant extend it to the sigma12 = epsilon * p state via
    g(x) = 25 x^4 + c4 x^3 + c3 x^2 + c2 x + const.
    """
    c = _coeffs(z, theta)
    L1, L3, L5, L7, L9 = c.L1, c.L3, c.L5, c.L7, c.L9
    S = 5.0 * L1 * L5 - 3.0 * L3 ** 2
    e2 = epsilon ** 2
    c2 = (-735.0 * L3 ** 3 * L7 ** 3 * L9
          + 560.0 * e2 * L1 * L5 ** 2 * L7 ** 2 * (L5 * L9 - L7 ** 2)
          + 294.0 * L3 ** 2 * L5 ** 2 * L9
          * (e2 * L5 * L9 - (17.0 * e2 / 7.0 - 25.0 / 14.0) * L7 ** 2)
          + e2 * L3 * L5 ** 2 * L7 * (196.0 * L1 * L9 ** 2 - 210.0 * L5 ** 2 * L9
                                      + 450.0 * L5 * L7 ** 2)) \
        / (L3 ** 2 * L7 ** 3 * S)
    c3 = (-588.0 * L3 ** 4 * L9 ** 2 + 720.0 * e2 * L1 * L5 ** 3 * L7 ** 2
          + L3 ** 3 * (-525.0 * L5 * L7 * L9 + 1575.0 * L7 ** 3)
          + L3 ** 2 * (((-432.0 * e2 - 1125.0) * L5 ** 2 + 1225.0 * L1 * L9) * L7 ** 2
                       + 980.0 * L1 * L5 * L9 ** 2)) \
        / (3.0 * L7 ** 2 * L3 ** 2 * S)
    c4 = ((-1225.0 * L1 * L9 + 375.0 * L3 * L7) * L5 - 875.0 * L1 * L7 ** 2
          + 735.0 * L3 ** 2 * L9) / (3.0 * L7 * S)
    const = -14.0 * e2 * L5 ** 2 * (14.0 * L3 * L7 * L9 ** 2 + 35.0 * L5 ** 2 * L9 ** 2
                                    - 80.0 * L5 * L7 ** 2 * L9 + 35.0 * L7 ** 4) \
        / (L3 * L7 ** 3 * S)
    return ShearCharPolyCoeffs(c0=float(c.c0), c1=float(c.c1), c2=c2, c3=c3,
                               c4=c4, const=const)


@dataclass(frozen=True, eq=False)
class EquilibriumSpectrum:
    """Factored equilibrium characteristic polynomial and its 13 roots."""

    z: float
    theta: int
    T: float
    alpha_hat: float          # the doubled branch squared: 7 li[9/2]/(5 li[7/2])
    c0: float
    c1: float
    x_minus: float            # quartic roots in lam_hat^2
    x_plus: float
    lambda_hat: np.ndarray    # 13 values, ascending

    def eigenvalues(self, u1: float = 0.0) -> np.ndarray:
        return u1 + math.sqrt(self.T) * self.lambda_hat


def _coeffs(z: float, theta: int) -> LiCoeffs:
    """The coefficient record at (z, theta) and T = 1: one li evaluation."""
    return EquilibriumParams(theta=theta, z=z, u=np.zeros(3), T=1.0).coeffs


def char_poly_equilibrium(z: float, theta: int, T: float = 1.0) -> EquilibriumSpectrum:
    """Equilibrium spectrum lam_hat^5 (lam_hat^2 - alpha)^2 (lam_hat^4 - c1 lam_hat^2 + c0)."""
    c = _coeffs(z, theta)
    x_minus, x_plus = float(c.x_minus), float(c.x_plus)
    if math.isnan(x_plus):
        raise NoConvergence(
            f"equilibrium quartic discriminant negative at z={z}, theta={theta}")
    sa, sm, sp = math.sqrt(c.alpha), math.sqrt(x_minus), math.sqrt(x_plus)
    lam = np.array([-sp, -sa, -sa, -sm, 0.0, 0.0, 0.0, 0.0, 0.0,
                    sm, sa, sa, sp])
    return EquilibriumSpectrum(z=z, theta=theta, T=T, alpha_hat=c.alpha,
                               c0=float(c.c0), c1=float(c.c1), x_minus=x_minus,
                               x_plus=x_plus, lambda_hat=np.sort(lam))


#: tolerance on |alpha^2 - c1 alpha + c0| below which the doubled branch is
#: treated as a quartic root and its annihilating factor dropped
CROSSING_TOL = 1e-6


def _branch_gap(c: LiCoeffs) -> float:
    """The equilibrium quartic at the doubled branch: zero where they cross."""
    return c.alpha * c.alpha - c.c1 * c.alpha + c.c0


def annihilation_residual(M1: np.ndarray, z: float, theta: int,
                          T: float = 1.0) -> float:
    """Normalized norm of p(M1), the product over distinct eigenvalue factors.

    p(M1) = M1 (M1^2 - alpha T I)(M1^4 - c1 T M1^2 + c0 T^2 I); the middle
    factor is dropped when alpha coincides with a quartic root (within
    CROSSING_TOL), since the quartic factor already covers those directions.
    A small residual certifies that M1 is diagonalizable.
    """
    c = _coeffs(z, theta)
    eye = np.eye(13)
    M2 = M1 @ M1
    quartic = M2 @ M2 - c.c1 * T * M2 + c.c0 * T ** 2 * eye
    if abs(_branch_gap(c)) <= CROSSING_TOL:
        PM = M1 @ quartic
    else:
        PM = M1 @ (M2 - c.alpha * T * eye) @ quartic
    return float(np.max(np.abs(PM)) / np.max(np.abs(M1)) ** 7)


def fermion_crossing(lo: float = 1.0, hi: float = 100.0) -> float:
    """Fermion fugacity where the doubled branch meets a quartic branch."""
    def gap(z: float) -> float:
        return _branch_gap(_coeffs(z, 1))

    if gap(lo) * gap(hi) > 0.0:
        raise NoRoot(f"no sign change of the branch gap on ({lo}, {hi})")
    return float(brentq(gap, lo, hi, xtol=1e-8))


def charpoly_coeffs(A: np.ndarray) -> np.ndarray:
    """Monic characteristic polynomial coefficients, highest power first.

    Faddeev-LeVerrier recurrence: only matrix products and traces, so the
    result does not inherit the ill-conditioning of defective eigenvalues.
    """
    n = A.shape[0]
    coeffs = np.empty(n + 1)
    coeffs[0] = 1.0
    Mk = np.zeros_like(A)
    eye = np.eye(n)
    for k in range(1, n + 1):
        Mk = A @ (Mk + coeffs[k - 1] * eye)
        coeffs[k] = -np.trace(Mk) / k
    return coeffs


def brute_charpoly_reduced(z: float, theta: int, epsilon: float) -> Dict[str, float]:
    """Quartic-in-x coefficients recovered from the assembled 13x13 matrix.

    Assembles the plain closure at the sigma12 = epsilon * p state (T = 1,
    u = 0), takes its characteristic polynomial, peels off the known factor
    lam^3 (lam^2 - 1.4 li[9/2]/li[7/2]) and rescales the degree-8 remainder
    to g(x) = 25 x^4 + c4 x^3 + ... in x = lam^2.  Deflation residuals are
    returned so callers can verify the factorization itself.
    """
    from .matrices import assemble_A_grad_3d
    from .state import MomentState13

    eq = EquilibriumParams(theta=theta, z=z, u=np.zeros(3), T=1.0)
    p = eq.p
    P = p * np.eye(3)
    P[0, 1] = P[1, 0] = epsilon * p
    st = MomentState13(rho=eq.rho, u=np.zeros(3), p_ij=P, q=np.zeros(3))
    coeffs = charpoly_coeffs(assemble_A_grad_3d(st, eq, 1))
    alpha = eq.coeffs.alpha
    tail = float(np.max(np.abs(coeffs[-3:])))
    quot, rem = np.polydiv(coeffs[:-3], np.array([1.0, 0.0, -alpha]))
    odd = float(np.max(np.abs(quot[1::2])))
    rem_max = float(np.max(np.abs(rem)))
    g = 25.0 * quot[::2]
    return {"lead": g[0], "c4": g[1], "c3": g[2], "c2": g[3], "const": g[4],
            "lam3_residual": tail, "deflation_residual": max(odd, rem_max)}
