"""Eigenstructure analysis: spectra, diagonalizability, hyperbolicity.

A quasi-linear system is hyperbolic at a state when every directional
coefficient matrix is real diagonalizable.  Verdicts here are four-way:
all real and distinct, all real with repeats but diagonalizable, all real
but defective, or a complex pair present.  `classify_batch` is the one
classifier, batched over a stack of matrices; `diagonalizability_test` is
its N = 1 case, with the clusters spelled out.  Closed-form characteristic
polynomials (the equilibrium factorization and the shear-perturbed
coefficient set) provide independent cross-checks of the assembled
matrices; `char_poly_equilibrium` is the one equilibrium spectrum, over a
float fugacity or an array of them, which the fugacity sweep tabulates.  The
annihilating-polynomial residual certifies diagonalizability of the
constant factor M1 without symbolic algebra.  The Fermion fugacity where
the doubled branch meets a quartic root is a pinned model constant, like
FERMI_Z_C, so the module needs numpy alone.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from .errors import DomainError
from .matrices import SystemKind, assemble_A
from .polylog import FERMI_Z_C, FERMI_Z_MAX, _check_theta, eval_polylog_batch
from .state import EquilibriumParams, LiCoeffs, _shear_state

#: the classification tolerances, the same for every caller
SV_TOL = 1e-8        # singular-value threshold (relative to ||A||) for rank
GAP_TOL = 1e-7       # eigenvalue clustering gap, relative to 1 + |lambda|
IMAG_TOL = 1e-9      # imaginary-part threshold, relative to 1 + |lambda|

#: cluster matrices per SVD gather of `classify_batch`'s slow path
_GATHER = 256


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
_CLASSES = tuple(CLASS_CODES)   # the classes by code
# a cell's code and min_gap before its clusters, taken by whether it is real
_CODE_IF_REAL = np.array([CLASS_CODES[Classification.NonHyperbolic],
                          CLASS_CODES[Classification.HyperbolicStrict]], dtype=np.int8)
_GAP_IF_REAL = np.array([0.0, np.inf])


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


def classify_batch(A_stack: np.ndarray) -> Tuple[np.ndarray, Dict[str, np.ndarray]]:
    """Four-way classification of a stack (N, k, k): the one classifier.

    An eigenvalue with imaginary part above IMAG_TOL * (1 + |lambda|) makes a
    matrix NonHyperbolic.  Otherwise sorted real parts join a cluster while
    their gap is at most GAP_TOL * (1 + the larger magnitude), and each
    cluster of two or more takes its geometric multiplicity from the singular
    values of A - mean I below SV_TOL * ||A||_2.  Returns (codes, aux): per
    cell `max_imag`, `min_gap` (least gap between neighbouring cluster means
    over 1 + |lower|; inf for one cluster, 0 if complex) and `eigenvalues`,
    always complex128; `n_slow`, the cells with a cluster; and `clusters`,
    arrays `cell`, `value`, `algebraic`, `geometric` and `min_sv` (NaN for
    one value) over the clusters of the real cells in order.
    """
    A_stack = np.asarray(A_stack, dtype=float)
    N, k = A_stack.shape[:2]
    w = np.linalg.eigvals(A_stack)   # a real array when every eigenvalue is real
    max_imag = (np.maximum.reduce(np.abs(w.imag) / (1.0 + np.abs(w)), axis=1)
                if w.dtype.kind == "c" else np.zeros(N))
    real = max_imag <= IMAG_TOL
    rows = real.nonzero()[0]
    x = w.real.take(rows, 0)   # the real cells' values, each row sorted
    x.sort(axis=1)
    ax = np.abs(x)
    cut = np.ones(x.size + 1, dtype=bool)   # a cluster starts at x.flat[i]; the last closes
    np.logical_not(x[:, 1:] - x[:, :-1] <= GAP_TOL * (1.0 + np.maximum(ax[:, :-1], ax[:, 1:])),
                   out=cut[:-1].reshape(x.shape)[:, 1:])
    edge = cut.nonzero()[0]
    start, algebraic = edge[:-1], edge[1:] - edge[:-1]
    cell = rows[start // k]
    # np.mean's sums: below 8 values np.add.reduce adds from 0 in order, as np.add.at does
    value = np.zeros(start.size + 1)
    np.add.at(value, cut[:-1].cumsum(), x.ravel())
    value = value[1:] / algebraic
    for m in range(8, np.maximum.reduce(algebraic, initial=0) + 1):
        sel = (algebraic == m).nonzero()[0]
        value[sel] = np.add.reduce(x.take(start[sel, None] + np.arange(m)), 1) / m
    rel_gap = (value[1:] - value[:-1]) / (1.0 + np.abs(value[:-1]))
    min_gap = _GAP_IF_REAL.take(real)
    np.minimum.at(min_gap, cell[1:], np.where(cell[1:] == cell[:-1], rel_gap, np.inf))

    pair = (algebraic > 1).nonzero()[0]
    owner = cell[pair]
    slow = np.bincount(owner, minlength=N).nonzero()[0]
    geometric = algebraic.copy()   # 1 for a single value
    min_sv = np.full(start.size, np.nan)
    # F / sqrt(k) <= ||A||_2 <= F for the Frobenius norm F, each side widened by
    # 1e-10 for rounding and clipped where F^2 can lose a term to underflow
    # (below 1e-140) or overflow: a singular value of A - mean I at or below
    # the low threshold counts, one above the high one does not, and only a
    # cluster with a value between the two pays the SVD of A for its exact norm
    low, high = SV_TOL * (1.0 - 1e-10) / math.sqrt(k), SV_TOL * (1.0 + 1e-10)
    for i in range(0, pair.size, _GATHER):
        sel = pair[i:i + _GATHER]
        mats = A_stack.take(owner[i:i + _GATHER], 0)
        fro = np.sqrt(np.einsum("nij,nij->n", mats, mats))   # inf, unwarned, past 1e154
        mats.reshape(-1, k * k)[:, ::k + 1] -= value[sel][:, None]   # diagonals
        sv = np.linalg.svd(mats, compute_uv=False)
        min_sv[sel] = sv[:, -1]
        count = np.add.reduce(sv <= (np.minimum(fro, 1e140) * low)[:, None], 1)
        undecided = (count != np.add.reduce(
            sv <= (np.maximum(fro, 1e-140) * high)[:, None], 1)).nonzero()[0]
        if undecided.size:
            scale = np.linalg.svd(A_stack[owner[i + undecided]], compute_uv=False)[:, 0]
            count[undecided] = np.add.reduce(
                sv[undecided] <= SV_TOL * np.maximum(scale, 1e-300)[:, None], 1)
        geometric[sel] = count

    codes = _CODE_IF_REAL.take(real)
    codes[slow] = CLASS_CODES[Classification.HyperbolicDegenerate]
    codes[cell[geometric < algebraic]] = CLASS_CODES[Classification.NonDiagonalizable]
    clusters = {"cell": cell, "value": value, "algebraic": algebraic,
                "geometric": geometric, "min_sv": min_sv}
    return codes, {"max_imag": max_imag, "min_gap": min_gap,
                   "eigenvalues": w.astype(complex, copy=False),
                   "n_slow": np.array([slow.size]), "clusters": clusters}


def diagonalizability_test(A: np.ndarray) -> HyperbolicityVerdict:
    """Four-way hyperbolicity verdict for one matrix: classify_batch(A[None]).

    A NonHyperbolic verdict lists each eigenvalue as a cluster of its own
    with geometric multiplicity 0; otherwise the diagnostics are the clusters.
    """
    codes, aux = classify_batch(np.asarray(A)[None])
    cls = _CLASSES[codes[0]]
    w = aux["eigenvalues"][0]
    if cls is Classification.NonHyperbolic:
        w = w[np.argsort(w.real)]
        diags = [EigenCluster(complex(v), 1, 0, None) for v in w]
    else:
        w.sort()   # complex: by real part, then imaginary
        c = aux["clusters"]
        diags = [EigenCluster(complex(v), a, g, None if a == 1 else sv)
                 for v, a, g, sv in zip(c["value"].tolist(), c["algebraic"].tolist(),
                                        c["geometric"].tolist(), c["min_sv"].tolist())]
    return HyperbolicityVerdict(eigenvalues=w, classification=cls, diagnostics=diags,
                                min_gap=float(aux["min_gap"][0]),
                                max_imag=float(aux["max_imag"][0]))


# ---------------------------------------------------------------------------
# closed forms

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
    S = c._S
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
    """Factored equilibrium characteristic polynomial and its 13 roots: float
    fields at one fugacity, arrays over N fugacities (lambda_hat (N, 13))."""

    z: float
    theta: int
    T: float
    alpha_hat: float          # the doubled branch squared: 7 li[9/2]/(5 li[7/2])
    c0: float
    c1: float
    x_minus: float            # quartic roots in lam_hat^2
    x_plus: float
    lambda_hat: np.ndarray    # 13 values per fugacity, ascending

    def eigenvalues(self, u1: float = 0.0) -> np.ndarray:
        return u1 + math.sqrt(self.T) * self.lambda_hat


def _coeffs(z: float, theta: int) -> LiCoeffs:
    """The coefficient record at (z, theta) and T = 1: one li evaluation."""
    return EquilibriumParams(theta=theta, z=z, u=np.zeros(3), T=1.0).coeffs


def char_poly_equilibrium(z, theta: int, T: float = 1.0) -> EquilibriumSpectrum:
    """Equilibrium spectrum lam_hat^5 (lam_hat^2 - alpha)^2 (lam_hat^4 - c1 lam_hat^2 + c0)
    at a fugacity z or an array of them, with one li evaluation.

    A DomainError for T < 0 or infinite, and above FERMI_Z_C, where the
    quartic's roots are complex: it names the first such z, also past li's Fermion table
    (FERMI_Z_MAX), where the quartic has no real roots either.
    """
    theta = _check_theta(theta)
    if not T >= 0.0:
        raise DomainError(f"temperature must be nonnegative, got {T}")
    if T == math.inf:
        raise DomainError("temperature must be finite, got inf")
    zs = np.atleast_1d(np.asarray(z, dtype=float))
    c = LiCoeffs(eval_polylog_batch(np.minimum(zs, FERMI_Z_MAX) if theta == 1 else zs,
                                    theta), 1.0)
    bad = np.isnan(c.x_plus)
    if bad.any():
        raise DomainError(f"equilibrium quartic has complex roots at "
                          f"z={zs[np.argmax(bad)]}, above the Fermion "
                          f"hyperbolicity bound FERMI_Z_C = {FERMI_Z_C!r}")
    sa, sm, sp = np.sqrt(c.alpha), np.sqrt(c.x_minus), np.sqrt(c.x_plus)
    zero = np.zeros_like(sa)
    lam = np.sort(np.stack([-sp, -sa, -sa, -sm, *[zero] * 5, sm, sa, sa, sp], axis=-1))
    fields = (c.alpha, c.c0, c.c1, c.x_minus, c.x_plus)
    if np.ndim(z) == 0:
        fields, lam, zs = [float(f[0]) for f in fields], lam[0], z
    return EquilibriumSpectrum(zs, theta, T, *fields, lam)


#: tolerance on |alpha^2 - c1 alpha + c0| below which the doubled branch is
#: treated as a quartic root and its annihilating factor dropped
CROSSING_TOL = 1e-6
#: the Fermion z where that gap changes sign, 3.6e-11 relative below the
#: 40-digit mpmath root 11.6874718525907: the float the outputs were pinned at
FERMI_Z_CROSS = 11.687471852165643


def annihilation_residual(M1: np.ndarray, z: float, theta: int) -> float:
    """Normalized norm of p(M1) at T = 1, the product over distinct eigenvalue factors.

    p(M1) = M1 (M1^2 - alpha I)(M1^4 - c1 M1^2 + c0 I); the middle
    factor is dropped when alpha coincides with a quartic root (within
    CROSSING_TOL), since the quartic factor already covers those directions.
    A small residual certifies that M1 is diagonalizable.
    """
    c = _coeffs(z, theta)
    eye = np.eye(13)
    M2 = M1 @ M1
    quartic = M2 @ M2 - c.c1 * M2 + c.c0 * eye
    if abs(c.alpha * c.alpha - c.c1 * c.alpha + c.c0) <= CROSSING_TOL:
        PM = M1 @ quartic
    else:
        PM = M1 @ (M2 - c.alpha * eye) @ quartic
    return float(np.max(np.abs(PM)) / np.max(np.abs(M1)) ** 7)


def fermion_crossing() -> float:
    """Fermion z where the doubled branch meets a quartic branch: FERMI_Z_CROSS."""
    return FERMI_Z_CROSS


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
    eq = EquilibriumParams(theta=theta, z=z, u=np.zeros(3), T=1.0)
    st = _shear_state(eq, epsilon, 0.0)
    coeffs = charpoly_coeffs(assemble_A(SystemKind.Grad13, st, eq, 1))
    alpha = eq.coeffs.alpha
    tail = float(np.max(np.abs(coeffs[-3:])))
    quot, rem = np.polydiv(coeffs[:-3], np.array([1.0, 0.0, -alpha]))
    odd = float(np.max(np.abs(quot[1::2])))
    rem_max = float(np.max(np.abs(rem)))
    g = 25.0 * quot[::2]
    return {"lead": g[0], "c4": g[1], "c3": g[2], "c2": g[3], "const": g[4],
            "lam3_residual": tail, "deflation_residual": max(odd, rem_max)}
