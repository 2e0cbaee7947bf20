"""Quasi-linear system matrices for the three 13-moment models.

Variable ordering throughout:

    w = (rho, u1, u2, u3, p11, p12, p13, p22, p23, p33, q1, q2, q3)

Three closures are covered: the plain 13-moment closure (Grad13) with its
fully nonlinear stress convection, and two regularizations that share a
partially linearized stress block and differ from each other only in the
heat-flux rows.  The projection variant is TrivialR13; the final one
(FinalR13) has a coefficient matrix that factorizes as

    A_d^R = D^-1 (M_d + u_d I) D

with D state-dependent but M_d depending only on (theta, z, T).  That
factorization is the content of the global-hyperbolicity result and is
verified here on every assembly.

Every li-derived coefficient the assemblies use comes from the equilibrium's
record `EquilibriumParams.coeffs` (`state.LiCoeffs`); none is derived here.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DomainError, SingularD
from .state import (EquilibriumParams, LiCoeffs, MomentState5, MomentState13,
                    state13_from_state5)

# slot of p_ij in w for i <= j
_PSLOT = {(1, 1): 4, (1, 2): 5, (1, 3): 6, (2, 2): 7, (2, 3): 8, (3, 3): 9}


def pslot(i: int, j: int) -> int:
    return _PSLOT[(min(i, j), max(i, j))]


class SystemKind(enum.Enum):
    Grad13 = "Grad13"
    TrivialR13 = "TrivialR13"
    FinalR13 = "FinalR13"


def _a_coeffs(c: LiCoeffs, rho: float, p: float, p11: float):
    """Reduced-system entries a1, a2, a3 at (rho, p, p11)."""
    T = c.T
    b = c.b_low
    L1, L3, L5, L7, L9 = c.L1, c.L3, c.L5, c.L7, c.L9
    sig11 = p11 - p
    a1 = (5.0 * p * T * b / (2.0 * rho)) * (3.5 * L3 ** 2 * L7 / (L1 * L5 ** 2)
                                            - 2.5 * L3 / L1) \
        + (7.0 * sig11 * T * b / (2.0 * rho)) * (
            L3 ** 2 * L9 / (L1 * L5 * L7)
            - 2.5 * (L3 / L1 - L3 * L5 * L9 / (L1 * L7 ** 2)))
    a2 = 3.5 * T * c.L97 - 1.5 * p / rho - p11 / rho
    a3 = 2.5 * T * ((1.0 + b) * c.L75
                    - 1.5 * b * (L3 / L1) * (1.0 - c.r)) \
        + 3.5 * T * ((sig11 * b / p - 1.0) * c.L97
                     - 1.5 * b * (L3 / L1) * (sig11 / p) * (1.0 - c.r2))
    return a1, a2, a3


def _require_consistent(state_rho: float, state_p: float, eq: EquilibriumParams):
    if (abs(state_rho - eq.rho) > 1e-6 * eq.rho
            or abs(state_p - eq.p) > 1e-6 * eq.p):
        raise DomainError(
            "equilibrium parameters do not fit the state's (rho, p); "
            "use fit_state to obtain matching parameters")


# ---------------------------------------------------------------------------
# assemblies

def assemble_A_grad_3d(state: MomentState13, eq: EquilibriumParams,
                       d: int = 1) -> np.ndarray:
    """Coefficient matrix A_d of the plain 13-moment closure, axis d in 1..3."""
    _require_consistent(state.rho, state.p, eq)
    c = eq.coeffs
    rho, u, p, q = state.rho, state.u, state.p, state.q
    sig = state.sigma
    P = state.p_ij
    A = u[d - 1] * np.eye(13)
    A[0, d] += rho
    for i in (1, 2, 3):
        A[i, pslot(i, d)] += 1.0 / rho
    for (i, j), row in _PSLOT.items():
        for k in (1, 2, 3):
            A[row, k] += (P[i - 1, j - 1] * (k == d)
                          + P[d - 1, j - 1] * (i == k)
                          + P[d - 1, i - 1] * (j == k))
            A[row, 9 + k] += 0.4 * ((i == j) * (k == d) + (i == d) * (j == k)
                                    + (j == d) * (i == k))
    phi, psi = c.phi, c.psi
    phi_rho, phi_p = c.rho_phi_rho / rho, c.p_phi_p / p
    psi_rho, psi_p = c.rho_psi_rho / rho, c.p_psi_p / p
    for i in (1, 2, 3):
        row = 9 + i
        A[row, 0] += (i == d) * 2.5 * p * phi_rho + 3.5 * sig[i - 1, d - 1] * psi_rho
        for k in (1, 2, 3):
            A[row, k] += (1.4 * q[i - 1] * (k == d) + 1.4 * q[d - 1] * (i == k)
                          + 0.4 * (i == d) * q[k - 1])
        for j in (1, 2, 3):
            A[row, pslot(j, d)] += -(c.dfrak * p * (i == j)
                                     + sig[i - 1, j - 1]) / rho
        A[row, pslot(i, d)] += 3.5 * psi - 2.5 * phi
        for m in (1, 2, 3):
            A[row, pslot(m, m)] += ((i == d) * (2.5 * (phi + p * phi_p) - 3.5 * psi)
                                    + 3.5 * sig[i - 1, d - 1] * psi_p) / 3.0
    return A


def _assemble_A_reg(kind: SystemKind, state: MomentState13,
                    eq: EquilibriumParams, d: int) -> np.ndarray:
    """Either regularization along axis d.

    The two share every row but heat flux, and their heat-flux rows differ
    only in the rho coefficient and the diagonal-pressure coefficient.
    """
    c = eq.coeffs
    if kind is SystemKind.FinalR13:
        k_rho, k_p = 2.5 * c.rho_phi_rho, 2.5 * c.p_phi_p
    else:
        k_rho, k_p = -c.tfrak, c.tfrak
    rho, u, p = state.rho, state.u, state.p
    sig = state.sigma
    A = u[d - 1] * np.eye(13)
    A[0, d] += rho
    for i in (1, 2, 3):
        A[i, pslot(i, d)] += 1.0 / rho
    for (i, j), row in _PSLOT.items():
        for k in (1, 2, 3):
            A[row, k] += (p * ((j == d) * (i == k) + (i == d) * (j == k))
                          + 0.4 * (sig[k - 1, i - 1] * (j == d)
                                   + sig[k - 1, j - 1] * (i == d))
                          + (i == j) * (p * (k == d) + 0.4 * sig[k - 1, d - 1]))
            A[row, 9 + k] += 0.4 * ((i == j) * (k == d) + (i == d) * (j == k)
                                    + (j == d) * (i == k))
    for i in (1, 2, 3):
        row = 9 + i
        A[row, 0] += (i == d) * k_rho * p / rho
        for j in (1, 2, 3):
            A[row, pslot(j, d)] += -(c.dfrak * p * (i == j)
                                     + sig[i - 1, j - 1]) / rho
        A[row, pslot(i, d)] += c.Tc
        for m in (1, 2, 3):
            A[row, pslot(m, m)] += (i == d) * (k_p - c.Tc) / 3.0
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
    if d == 2:
        sw = {1: 2, 2: 1, 4: 7, 7: 4, 6: 8, 8: 6, 10: 11, 11: 10}
    elif d == 3:
        sw = {1: 3, 3: 1, 4: 9, 9: 4, 5: 8, 8: 5, 10: 12, 12: 10}
    else:
        sw = {}
    P = np.zeros((13, 13))
    for i in range(13):
        P[i, sw.get(i, i)] = 1.0
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


def assemble_A(kind: SystemKind, state: MomentState13, eq: EquilibriumParams,
               d: int = 1) -> np.ndarray:
    """Axis-d coefficient matrix of the requested model."""
    if kind is SystemKind.Grad13:
        return assemble_A_grad_3d(state, eq, d)
    _require_consistent(state.rho, state.p, eq)
    return _assemble_A_reg(kind, state, eq, d)


def assemble_A_direction(kind: SystemKind, state: MomentState13,
                         eq: EquilibriumParams, n) -> np.ndarray:
    """Coefficient matrix along an arbitrary unit direction n (sum of axes)."""
    n = _as_direction(n)
    A = np.zeros((13, 13))
    for d in (1, 2, 3):
        if n[d - 1] != 0.0:
            A += n[d - 1] * assemble_A(kind, state, eq, d)
    return A


def assemble_A_regularized(state: MomentState13, eq: EquilibriumParams,
                           d=1) -> SystemMatrices:
    """Final regularization along axis d or unit direction d=(n1,n2,n3).

    Returns A together with its factors D, M and B = D A - u_n D, and checks
    the factorization D A = (M + u_n I) D on the spot.
    """
    A = assemble_A_direction(SystemKind.FinalR13, state, eq, d)
    n = _as_direction(d)
    M = np.zeros((13, 13))
    for ax in (1, 2, 3):
        if n[ax - 1] != 0.0:
            M += n[ax - 1] * assemble_M(eq, ax)
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

def assemble_A5_grad(state5: MomentState5, eq: EquilibriumParams) -> np.ndarray:
    """Closed-form 5x5 matrix of the 1D-reduced plain closure."""
    _require_consistent(state5.rho, state5.p, eq)
    rho, u1, p11, q1, p = state5.rho, state5.u1, state5.p11, state5.q1, state5.p
    a1, a2, a3 = _a_coeffs(eq.coeffs, rho, p, p11)
    return np.array([
        [u1, rho, 0.0, 0.0, 0.0],
        [0.0, u1, 1.0 / rho, 0.0, 0.0],
        [0.0, 3.0 * p11, u1, 1.2, 0.0],
        [-a1, 3.2 * q1, a2, u1, a3],
        [0.0, p + (2.0 / 3.0) * p11, 0.0, 2.0 / 3.0, u1]])


# selection and embedding between w (13) and w5 = (rho, u1, p11, q1, p)
S_REDUCE = np.zeros((5, 13))
S_REDUCE[0, 0] = S_REDUCE[1, 1] = S_REDUCE[2, 4] = S_REDUCE[3, 10] = 1.0
S_REDUCE[4, 4] = S_REDUCE[4, 7] = S_REDUCE[4, 9] = 1.0 / 3.0
T_EMBED = np.zeros((13, 5))
T_EMBED[0, 0] = T_EMBED[1, 1] = T_EMBED[4, 2] = T_EMBED[10, 3] = 1.0
T_EMBED[7, 4] = T_EMBED[9, 4] = 1.5
T_EMBED[7, 2] = T_EMBED[9, 2] = -0.5


def reduce_to_1d(kind: SystemKind, state5: MomentState5,
                 eq: EquilibriumParams) -> np.ndarray:
    """5x5 convection matrix of the chosen model on the 1D-symmetric manifold."""
    state = state13_from_state5(state5)
    A = assemble_A(kind, state, eq, 1)
    return S_REDUCE @ A @ T_EMBED
