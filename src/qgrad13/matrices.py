"""Quasi-linear system matrices for the three 13-moment models.

Variable ordering throughout:

    w = (rho, u1, u2, u3, p11, p12, p13, p22, p23, p33, q1, q2, q3)

Three closures are covered, all written once in `assemble_A`: the plain
13-moment closure (Grad13) with its fully nonlinear stress convection, and
two regularizations that share a partially linearized stress block and
differ from each other only in the heat-flux rows.  The projection variant
is TrivialR13; the final one (FinalR13) has a coefficient matrix that
factorizes as

    A_d^R = D^-1 (M_d + u_d I) D

with D state-dependent but M_d depending only on (theta, z, T).  That
factorization is the content of the global-hyperbolicity result and is
verified here on every assembly.  FinalR13 is the equilibrium part of
Grad13: the two agree at equilibrium, and the 1D-reduced 5x5 matrices, built
for N cells by `_a5_stack`, differ by four non-equilibrium terms.

Every li-derived coefficient the assemblies use comes from the equilibrium's
record `EquilibriumParams.coeffs` (`state.LiCoeffs`); none is derived here.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, SingularD
from .state import EquilibriumParams, LiCoeffs, MomentState5, MomentState13

# slot of p_ij in w for i <= j
_PSLOT = {(1, 1): 4, (1, 2): 5, (1, 3): 6, (2, 2): 7, (2, 3): 8, (3, 3): 9}


def pslot(i: int, j: int) -> int:
    return _PSLOT[(min(i, j), max(i, j))]


class SystemKind(enum.Enum):
    Grad13 = "Grad13"
    TrivialR13 = "TrivialR13"
    FinalR13 = "FinalR13"


def _require_consistent(state_rho: float, state_p: float, eq: EquilibriumParams):
    if (abs(state_rho - eq.rho) > 1e-6 * eq.rho
            or abs(state_p - eq.p) > 1e-6 * eq.p):
        raise DomainError(
            "equilibrium parameters do not fit the state's (rho, p); "
            "use fit_equilibrium to obtain matching parameters")


# ---------------------------------------------------------------------------
# assemblies

def assemble_A(kind: SystemKind, state: MomentState13, eq: EquilibriumParams,
               d: int = 1) -> np.ndarray:
    """Axis-d coefficient matrix of the requested model, d in 1..3.

    The kind chooses only the stress rows' velocity block and, in the
    heat-flux rows, the rho and velocity columns, the pslot(i, d) constant and
    the diagonal-pressure term; every other entry is shared.
    """
    _require_consistent(state.rho, state.p, eq)
    c = eq.coeffs
    grad = kind is SystemKind.Grad13
    rho, u, p, q = state.rho, state.u, state.p, state.q
    sig, P = state.sigma, state.p_ij
    A = u[d - 1] * np.eye(13)
    A[0, d] += rho
    for i in (1, 2, 3):
        A[i, pslot(i, d)] += 1.0 / rho
    for (i, j), row in _PSLOT.items():
        for k in (1, 2, 3):
            if grad:
                A[row, k] += (P[i - 1, j - 1] * (k == d)
                              + P[d - 1, j - 1] * (i == k)
                              + P[d - 1, i - 1] * (j == k))
            else:
                A[row, k] += (p * ((j == d) * (i == k) + (i == d) * (j == k))
                              + 0.4 * (sig[k - 1, i - 1] * (j == d)
                                       + sig[k - 1, j - 1] * (i == d))
                              + (i == j) * (p * (k == d) + 0.4 * sig[k - 1, d - 1]))
            A[row, 9 + k] += 0.4 * ((i == j) * (k == d) + (i == d) * (j == k)
                                    + (j == d) * (i == k))
    phi, psi = c.phi, c.psi
    phi_rho, phi_p = c.rho_phi_rho / rho, c.p_phi_p / p
    psi_rho, psi_p = c.rho_psi_rho / rho, c.p_psi_p / p
    k_rho, k_p = ((2.5 * c.rho_phi_rho, 2.5 * c.p_phi_p) if kind is SystemKind.FinalR13
                  else (-c.tfrak, c.tfrak))
    for i in (1, 2, 3):
        row = 9 + i
        if grad:
            A[row, 0] += (i == d) * 2.5 * p * phi_rho + 3.5 * sig[i - 1, d - 1] * psi_rho
            for k in (1, 2, 3):
                A[row, k] += (1.4 * q[i - 1] * (k == d) + 1.4 * q[d - 1] * (i == k)
                              + 0.4 * (i == d) * q[k - 1])
            const = 3.5 * psi - 2.5 * phi
            diag = ((i == d) * (2.5 * (phi + p * phi_p) - 3.5 * psi)
                    + 3.5 * sig[i - 1, d - 1] * psi_p) / 3.0
        else:
            A[row, 0] += (i == d) * k_rho * p / rho
            const, diag = c.Tc, (i == d) * (k_p - c.Tc) / 3.0
        for j in (1, 2, 3):
            A[row, pslot(j, d)] += -(c.dfrak * p * (i == j)
                                     + sig[i - 1, j - 1]) / rho
        A[row, pslot(i, d)] += const
        for m in (1, 2, 3):
            A[row, pslot(m, m)] += diag
    return A


def assemble_D(state: MomentState13, eq: EquilibriumParams) -> np.ndarray:
    """State-dependent left factor D of the final regularization."""
    _require_consistent(state.rho, state.p, eq)
    c = eq.coeffs
    rho, p = state.rho, state.p
    sig = state.sigma
    b = c.b_high
    D = np.eye(13)
    for i in (1, 2, 3):
        D[i, i] = rho
    for m in (1, 2, 3):
        row = pslot(m, m)
        D[row, 0] = -(p / rho) * b
        for n in (1, 2, 3):
            D[row, pslot(n, n)] = (1.0 if n == m else 0.0) + (b - 1.0) / 3.0
    for i in (1, 2, 3):
        row = 9 + i
        for k in (1, 2, 3):
            D[row, k] = c.dfrak * p * (i == k) + sig[i - 1, k - 1]
    return D


def axis_permutation_matrix(d: int) -> np.ndarray:
    """Representation P of the axis swap 1 <-> d on w; P^T M1 P gives M_d."""
    s = {1: d, d: 1}
    P = np.zeros((13, 13))
    P[0, 0] = 1.0
    for i in (1, 2, 3):
        P[i, s.get(i, i)] = P[9 + i, 9 + s.get(i, i)] = 1.0
    for (i, j), row in _PSLOT.items():
        P[row, pslot(s.get(i, i), s.get(j, j))] = 1.0
    return P


def assemble_M(eq: EquilibriumParams, d: int = 1) -> np.ndarray:
    """Constant-in-state factor M_d; depends only on (theta, z, T)."""
    c = eq.coeffs
    b, m1, m2, m3, Tc = c.b_high, c.phi, c.m2, c.m3, c.Tc
    M = np.zeros((13, 13))
    M[0, 1] = 1.0
    M[1, 0] = c.T * c.L53
    M[1, 4] = 1.0 + m2
    M[1, 7] = M[1, 9] = m2
    M[2, 5] = 1.0
    M[3, 6] = 1.0
    M[4, 1] = 2.0 * m1
    M[4, 10] = 2.0 * b / 3.0 + 8.0 / 15.0
    M[5, 2] = m1
    M[5, 11] = 0.4
    M[6, 3] = m1
    M[6, 12] = 0.4
    M[7, 10] = 2.0 * b / 3.0 - 4.0 / 15.0
    M[9, 10] = 2.0 * b / 3.0 - 4.0 / 15.0
    M[10, 0] = c.Mrho
    M[10, 4] = m3 + (2.0 / 3.0) * Tc
    M[10, 7] = M[10, 9] = m3 - Tc / 3.0
    M[11, 5] = Tc
    M[12, 6] = Tc
    if d != 1:
        P = axis_permutation_matrix(d)
        M = P.T @ M @ P
    return M


@dataclass(frozen=True, eq=False)
class SystemMatrices:
    """Assembled matrices of one model along one direction."""

    kind: SystemKind
    direction: np.ndarray
    A: np.ndarray
    D: Optional[np.ndarray] = None
    M: Optional[np.ndarray] = None
    B: Optional[np.ndarray] = None


def _as_direction(d_or_n) -> np.ndarray:
    n = np.zeros(3)
    if isinstance(d_or_n, (int, np.integer)):
        n[int(d_or_n) - 1] = 1.0
        return n
    n = np.asarray(d_or_n, dtype=float).reshape(3)
    norm = float(np.linalg.norm(n))
    if norm == 0.0:
        raise DomainError("direction vector must be nonzero")
    return n / norm


def _along(n: np.ndarray, axis_matrix) -> np.ndarray:
    """sum_d n_d axis_matrix(d) over the nonzero components of the unit n."""
    A = np.zeros((13, 13))
    for d in (1, 2, 3):
        if n[d - 1] != 0.0:
            A += n[d - 1] * axis_matrix(d)
    return A


def assemble_A_direction(kind: SystemKind, state: MomentState13,
                         eq: EquilibriumParams, n) -> np.ndarray:
    """Coefficient matrix along an arbitrary unit direction n (sum of axes)."""
    return _along(_as_direction(n), lambda d: assemble_A(kind, state, eq, d))


def assemble_A_regularized(state: MomentState13, eq: EquilibriumParams,
                           d=1) -> SystemMatrices:
    """Final regularization along axis d or unit direction d=(n1,n2,n3).

    Returns A together with its factors D, M and B = D A - u_n D, and checks
    the factorization D A = (M + u_n I) D on the spot.
    """
    A = assemble_A_direction(SystemKind.FinalR13, state, eq, d)
    n = _as_direction(d)
    M = _along(n, lambda ax: assemble_M(eq, ax))
    D = assemble_D(state, eq)
    sv = np.linalg.svd(D, compute_uv=False)
    if sv[-1] <= 1e-13 * sv[0]:
        raise SingularD(f"condition number {sv[0] / max(sv[-1], 1e-300):.3e}")
    un = float(state.u @ n)
    B = D @ A - un * D
    resid = np.max(np.abs(B - M @ D))
    if resid > 1e-10 * max(1.0, np.max(np.abs(D @ A))):
        raise SingularD(f"factorization residual {resid:.3e} (bug signal)")
    return SystemMatrices(kind=SystemKind.FinalR13, direction=n, A=A, D=D, M=M, B=B)


# ---------------------------------------------------------------------------
# 1D reduction

def _a5_stack(kind: SystemKind, w: np.ndarray, c: LiCoeffs) -> np.ndarray:
    """Closed-form 5x5 matrices of the 1D reduction over N cells w = (rho, u1, p11, q1, p).

    c is the cells' coefficient record, on floats or on (N,) arrays.  kind is
    FinalR13, the equilibrium part, or Grad13, which adds four terms to it.
    """
    rho, u1, p11, q1, p = (w[:, k] for k in range(5))
    sig = p11 - p
    A = np.zeros((w.shape[0], 5, 5))
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
    if kind is SystemKind.Grad13:
        A[:, 2, 1] = 3.0 * p11
        A[:, 3, 0] += 3.5 * sig * c.rho_psi_rho / rho
        A[:, 3, 1] = 3.2 * q1
        A[:, 3, 4] += 3.5 * sig * c.p_psi_p / p
    return A


def assemble_A5_grad(state5: MomentState5, eq: EquilibriumParams) -> np.ndarray:
    """Closed-form 5x5 matrix of the 1D-reduced plain closure: N = 1 of `_a5_stack`."""
    _require_consistent(state5.rho, state5.p, eq)
    w = np.array([[state5.rho, state5.u1, state5.p11, state5.q1, state5.p]])
    return _a5_stack(SystemKind.Grad13, w, eq.coeffs)[0]
