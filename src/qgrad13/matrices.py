"""Quasi-linear system matrices for the three 13-moment models, over N states.

Variable ordering throughout:

    w = (rho, u1, u2, u3, p11, p12, p13, p22, p23, p33, q1, q2, q3)

Three closures are covered: the plain 13-moment closure (Grad13) with its
fully nonlinear stress convection, and two regularizations that share a
partially linearized stress block and differ only in the heat-flux rows.  The
projection variant is TrivialR13; the final one (FinalR13) factorizes as

    A_d^R = D^-1 (M_d + u_d I) D

with D state-dependent but M_d depending only on (theta, z, T), which is the
global-hyperbolicity result; every regularized assembly checks it.  FinalR13
is the equilibrium part of Grad13, and their 1D-reduced 5x5 matrices, built
for N cells by `_a5_stack`, differ by four non-equilibrium terms.

A and D are written by op tables, built once at import by running the
assembly loops over index symbols (`_a_ops`, `_d_ops`).  An op adds term t,
at the op's symbols (i, j, k), to entry (row, col) of the axis-d matrix; D's
ops set entries of the identity.  Each term in `_TERMS` is one expression,
evaluated for all its ops and all N states at once into rows of one value
table, with 0/1 masks as floats (o.k_d for k == d) whose products are counts
taken at import.  The term-order rule fixes the rounding: no entry takes two
ops of one term, and every entry meets its terms in the order the terms
first appear in the op list, so adding the w-th term of every entry that
has one in wave w, one gather a wave, sums each entry's terms in the
loops' order, and the sum goes onto u_d I, signed zeros included.  M_d is
M_1's template under the axis swap 1 <-> d; a direction n, normalized once, gives
(0 + n1 A_1) + n2 A_2 + n3 A_3.  The per-state functions are the N = 1
case, so a batch equals its states one by one, bit for bit.

Every li-derived coefficient comes from the equilibrium's record
`EquilibriumParams.coeffs` (`state.LiCoeffs`); none is derived here.
"""
from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Sequence

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


@dataclass(frozen=True, eq=False)
class StateStack:
    """N states as rho (N,), u (N, 3), p_ij (N, 3, 3), q (N, 3), with their
    coefficient record on (N,) arrays, or on floats for one equilibrium."""

    rho: np.ndarray
    u: np.ndarray
    p_ij: np.ndarray
    q: np.ndarray
    coeffs: LiCoeffs


def stack_states(states: Sequence[MomentState13],
                 eqs: Sequence[EquilibriumParams]) -> StateStack:
    """Stack N states with their matching equilibria (DomainError on a mismatch)."""
    for st, eq in zip(states, eqs, strict=True):
        _require_consistent(st.rho, st.p, eq)
    coeffs = eqs[0].coeffs if len(eqs) == 1 else LiCoeffs(
        np.column_stack([eq.coeffs.li for eq in eqs]),
        np.array([eq.T for eq in eqs]))
    return StateStack(*(np.array([getattr(st, a) for st in states])
                        for a in ("rho", "u", "p_ij", "q")), coeffs)


# ---------------------------------------------------------------------------
# the op tables

def _columns(kind: SystemKind, S: StateStack) -> SimpleNamespace:
    """What the terms of the kind's A (and of D) read: the scalars and
    coefficients over the N states, p_ij, sigma and the heat-flux block
    dfrak p delta_ij + sigma_ij as (9, N), q as (3, N)."""
    c, P, rho = S.coeffs, S.p_ij.reshape(-1, 9).T, S.rho
    p = np.add.reduce(P[::4]) / 3.0   # (P11 + P22) + P33, as np.trace
    sig = P - p * _EYE3
    s = SimpleNamespace(rho=rho, p=p, P=P, q=S.q.T, sig=sig, heat=c.dfrak * p * _EYE3 + sig,
                        b=c.b_high)
    if kind is SystemKind.Grad13:
        s.phi, s.psi, s.const = c.phi, c.psi, 3.5 * c.psi - 2.5 * c.phi
        s.phi_rho, s.phi_p = c.rho_phi_rho / rho, c.p_phi_p / p
        s.psi_rho, s.psi_p = c.rho_psi_rho / rho, c.p_psi_p / p
    else:
        s.Tc = s.const = c.Tc
        s.k_rho, s.k_p = ((2.5 * c.rho_phi_rho, 2.5 * c.p_phi_p)
                          if kind is SystemKind.FinalR13 else (-c.tfrak, c.tfrak))
    return s


_EYE3 = np.eye(3).reshape(9, 1)

# Each term once, over the states s and the ops o, one row per op: o.k_d is
# the float mask (k == d), o.pair the count (j == d)(i == k) + (i == d)(j == k)
# and o.triple that plus (i == j)(k == d), o.kd indexes entry (k, d) of the
# flat s.P and s.sig, and o.k component k of s.q.
_TERMS = {
    "rho": lambda s, o: s.rho,
    "1/rho": lambda s, o: 1.0 / s.rho,
    "stress u Grad13": lambda s, o: (s.P.take(o.ij, 0) * o.k_d + s.P.take(o.dj, 0) * o.i_k
                                     + s.P.take(o.di, 0) * o.j_k),
    "stress u R13": lambda s, o: (
        s.p * o.pair + 0.4 * (s.sig.take(o.ki, 0) * o.j_d + s.sig.take(o.kj, 0) * o.i_d)
        + o.i_j * (s.p * o.k_d + 0.4 * s.sig.take(o.kd, 0))),
    "stress q": lambda s, o: 0.4 * o.triple,
    "heat rho Grad13": lambda s, o: (o.i_d * 2.5 * s.p * s.phi_rho
                                     + 3.5 * s.sig.take(o.id, 0) * s.psi_rho),
    "heat u Grad13": lambda s, o: (1.4 * s.q.take(o.i, 0) * o.k_d + 1.4 * s.q.take(o.d, 0) * o.i_k
                                   + 0.4 * o.i_d * s.q.take(o.k, 0)),
    "heat rho R13": lambda s, o: o.i_d * s.k_rho * s.p / s.rho,
    "heat p": lambda s, o: -s.heat.take(o.ij, 0) / s.rho,
    "heat const": lambda s, o: s.const,
    "heat diag Grad13": lambda s, o: (o.i_d * (2.5 * (s.phi + s.p * s.phi_p) - 3.5 * s.psi)
                                      + 3.5 * s.sig.take(o.id, 0) * s.psi_p) / 3.0,
    "heat diag R13": lambda s, o: o.i_d * (s.k_p - s.Tc) / 3.0,
    "D p/rho": lambda s, o: -(s.p / s.rho) * s.b,
    "D trace": lambda s, o: o.i_j + (s.b - 1.0) / 3.0,
    "D heat": lambda s, o: s.heat.take(o.ij, 0),
}


def _a_ops(kind: SystemKind):
    """(d, row, col, term, i, j, k) per `A_d[row, col] += term`, in loop order."""
    tag = "Grad13" if kind is SystemKind.Grad13 else "R13"
    ops = []
    for d in (1, 2, 3):
        ops.append((d, 0, d, "rho", 0, 0, 0))
        ops += [(d, i, pslot(i, d), "1/rho", 0, 0, 0) for i in (1, 2, 3)]
        for (i, j), row in _PSLOT.items():
            for k in (1, 2, 3):
                ops += [(d, row, k, "stress u " + tag, i, j, k),
                        (d, row, 9 + k, "stress q", i, j, k)]
        for i in (1, 2, 3):
            row = 9 + i
            ops.append((d, row, 0, "heat rho " + tag, i, 0, 0))
            if tag == "Grad13":
                ops += [(d, row, k, "heat u Grad13", i, 0, k) for k in (1, 2, 3)]
            ops += [(d, row, pslot(j, d), "heat p", i, j, 0) for j in (1, 2, 3)]
            ops.append((d, row, pslot(i, d), "heat const", i, 0, 0))
            ops += [(d, row, pslot(m, m), "heat diag " + tag, i, 0, 0) for m in (1, 2, 3)]
    return ops


def _d_ops():
    """(4, row, col, term, i, j, k) per `D[row, col] = term` off the identity:
    D's entries follow those of A_1, A_2 and A_3."""
    ops = [(4, i, i, "rho", 0, 0, 0) for i in (1, 2, 3)]
    for m in (1, 2, 3):
        ops.append((4, pslot(m, m), 0, "D p/rho", 0, 0, 0))
        ops += [(4, pslot(m, m), pslot(n, n), "D trace", m, n, 0) for n in (1, 2, 3)]
    return ops + [(4, 9 + i, k, "D heat", i, k, 0) for i in (1, 2, 3) for k in (1, 2, 3)]


def _compile(ops, size):
    """Per term, in the order the terms first appear: its op columns and its
    rows lo:hi of the value table, one per op; where D's entries start,
    after A's 507: -0.0 under an op, the identity elsewhere; the entries
    (d-1)*169 + 13*row + col that meet an op, most ops first; and per wave
    w, the rows of the w-th ops of those entries that have one, a prefix."""
    terms, met = [], [[] for _ in range(size)]
    for term in dict.fromkeys(op[3] for op in ops):
        mine = [op for op in ops if op[3] == term]
        sym = np.array([op[4:] + op[:1] for op in mine]) - 1
        o = SimpleNamespace(**dict(zip("ijkd", sym.T)))
        for a, b in itertools.permutations("ijkd", 2):
            x, y = getattr(o, a), getattr(o, b)
            setattr(o, a + b, 3 * x + y)
            setattr(o, f"{a}_{b}", (x == y).astype(float)[:, None])
        o.pair = o.j_d * o.i_k + o.i_d * o.j_k   # small integers: any order is exact
        o.triple = o.pair + o.i_j * o.k_d
        lo = terms[-1][3] if terms else 0
        terms.append((_TERMS[term], o, lo, lo + len(mine)))
        for r, (d, row, col, *_) in enumerate(mine, lo):
            met[(d - 1) * 169 + 13 * row + col].append(r)
    start = np.array([-0.0 if r else float(e % 14 == 0) for e, r in enumerate(met[507:])])
    hit = sorted((e for e, r in enumerate(met) if r), key=lambda e: -len(met[e]))
    return terms, start, np.array(hit), [np.array([met[e][w] for e in hit if len(met[e]) > w])
                                         for w in range(len(met[hit[0]]))]


_REGULARIZED = _compile(_a_ops(SystemKind.FinalR13) + _d_ops(), 676)   # D after A
_TABLES = {SystemKind.Grad13: _compile(_a_ops(SystemKind.Grad13), 507),
           SystemKind.FinalR13: _REGULARIZED, SystemKind.TrivialR13: _REGULARIZED}
_EYE13 = np.eye(13).reshape(169, 1)


def _axes(kind: SystemKind, S: StateStack) -> np.ndarray:
    """Axis matrices A_1, A_2, A_3 entry-major and flat, (507, N), then for
    the R13 kinds, whose one table is _REGULARIZED, D's 169 entries: u_d I
    (D: its start) plus the sum of each entry's terms, taken wave by wave
    in the loops' order from the table's values over the kind's `_columns`.
    An entry with a term starts at a signed zero (u_d I off its diagonal,
    -0.0 in D), and adding a sum onto a signed zero rounds as adding its
    terms one by one.  Terms and waves are elementwise, so D's rows leave
    A's bits alone."""
    (terms, start, entries, waves), s = _TABLES[kind], _columns(kind, S)
    vals = np.empty((terms[-1][3], S.rho.size))
    for evaluate, o, lo, hi in terms:
        vals[lo:hi] = evaluate(s, o)
    out = np.empty((507 + start.size, S.rho.size))
    np.multiply(S.u.T[:, None, :], _EYE13, out=out[:507].reshape(3, 169, -1))   # u_d I
    out[507:] = start[:, None]
    total = vals.take(waves[0], 0)
    for gather in waves[1:]:
        total[:gather.size] += vals.take(gather, 0)
    out[entries] = out.take(entries, 0) + total
    return out


def _state_major(X: np.ndarray) -> np.ndarray:
    """(..., 169, N) entry-major to (N, ..., 13, 13)."""
    X = X.transpose(X.ndim - 1, *range(X.ndim - 1))
    return np.ascontiguousarray(X).reshape(*X.shape[:-1], 13, 13)


def assemble_axes(kind: SystemKind, S: StateStack) -> np.ndarray:
    """Axis matrices A_1, A_2, A_3 of the model on N states: (N, 3, 13, 13)."""
    return _state_major(_axes(kind, S)[:507].reshape(3, 169, -1))


def _axis_swap(d: int) -> np.ndarray:
    """Flat gather map (169,) of the axis swap s: 1 <-> d, as M[s(a), s(b)]."""
    s = {1: d, d: 1}
    perm = np.array([0, *(s.get(i, i) for i in (1, 2, 3)),
                     *(pslot(s.get(i, i), s.get(j, j)) for i, j in _PSLOT),
                     *(9 + s.get(i, i) for i in (1, 2, 3))])
    return (13 * perm[:, None] + perm).ravel()


# M_1's template: constant entries, then the slots of the variable ones
_M_CONST = np.zeros((169, 1))
_M_CONST[[1, 31, 45]], _M_CONST[[76, 90]] = 1.0, 0.4   # (0,1) (2,5) (3,6); (5,11) (6,12)
_M_SLOTS = np.array([13 * r + c for r, c in (
    (1, 0), (1, 4), (1, 7), (1, 9), (4, 1), (4, 10), (5, 2), (6, 3), (7, 10),
    (9, 10), (10, 0), (10, 4), (10, 7), (10, 9), (11, 5), (12, 6))])
_M_GATHER = np.stack([_axis_swap(d) for d in (1, 2, 3)])


def _m_axes(c: LiCoeffs) -> np.ndarray:
    """Constant factors M_1, M_2, M_3 on c's fugacities, entry-major: (3, 169, N)."""
    b, m1, m2, m3, Tc = c.b_high, c.phi, c.m2, c.m3, c.Tc
    b_lo, m3_lo = 2.0 * b / 3.0 - 4.0 / 15.0, m3 - Tc / 3.0
    var = np.array((c.T * c.L53, 1.0 + m2, m2, m2, 2.0 * m1, 2.0 * b / 3.0 + 8.0 / 15.0,
                    m1, m1, b_lo, b_lo, c.Mrho, m3 + (2.0 / 3.0) * Tc, m3_lo, m3_lo, Tc, Tc))
    var = var.reshape(_M_SLOTS.size, -1)
    M1 = _M_CONST.repeat(var.shape[1], 1)
    M1[_M_SLOTS] = var
    return M1.take(_M_GATHER, 0)


def _axis(d) -> int:
    """Axis d, one of 1, 2 and 3, as the index d - 1; DomainError names any other."""
    if d not in (1, 2, 3):
        raise DomainError(f"axis must be 1, 2 or 3, got {d}")
    return int(d) - 1


def _unit_rows(n) -> np.ndarray:
    """Axis n (1..3) as e_n, or the rows of n over their norms, taken as
    `np.linalg.norm` takes one row: (N, 3).  DomainError names the first row
    that is not finite, or whose norm is zero or overflows."""
    if isinstance(n, (int, np.integer)):
        n = np.eye(3)[_axis(n)]
    n = np.asarray(n, dtype=float).reshape(-1, 3)
    norm = np.sqrt((n[:, None, :] @ n[:, :, None])[:, 0])
    if not 0.0 < np.minimum.reduce(norm, None) <= np.maximum.reduce(norm, None) < np.inf:
        bad = n[int(np.logical_not((norm > 0.0) & (norm < np.inf)).argmax())].tolist()
        raise DomainError(f"direction vector must be finite, with a finite nonzero norm: {bad}")
    return n / norm


def _along(n: np.ndarray, X: np.ndarray) -> np.ndarray:
    """(0 + n1 X_1) + n2 X_2 + n3 X_3 for unit n (N, 3) and entry-major X
    (3, 169, N): (N, 13, 13)."""
    n = n.T
    return _state_major(((0.0 + n[0] * X[0]) + n[1] * X[1]) + n[2] * X[2])


def assemble_along(kind: SystemKind, S: StateStack, n) -> np.ndarray:
    """The model's matrices along directions n (N, 3), or an axis: (N, 13, 13)."""
    return _along(_unit_rows(n), _axes(kind, S)[:507].reshape(3, 169, -1))


@dataclass(frozen=True, eq=False)
class SystemMatrices:
    """Final regularization A = D^-1 (M + u_n I) D and B = D A - u_n D, or their stacks."""

    A: np.ndarray
    D: np.ndarray
    M: np.ndarray
    B: np.ndarray


def regularized_stack(S: StateStack, n) -> SystemMatrices:
    """Final regularization of N states along directions n (N, 3), or an axis.

    Returns the stacks of A, its factors D and M and B = D A - u_n D, and
    checks D A = (M + u_n I) D on the spot; SingularD names the first state
    whose D is singular or whose check fails.
    """
    n, X = _unit_rows(n), _axes(SystemKind.FinalR13, S)
    A, M = _along(n, X[:507].reshape(3, 169, -1)), _along(n, _m_axes(S.coeffs))
    D = _state_major(X[507:])
    sv = np.linalg.svd(D, compute_uv=False)
    if not np.logical_and.reduce(ok := sv[:, -1] > 1e-13 * sv[:, 0]):   # NaN fails
        k = int(ok.argmin())
        raise SingularD(f"state {k}: condition number "
                        f"{sv[k, 0] / max(sv[k, -1], 1e-300):.3e}")
    DA = D @ A
    B = DA - (S.u[:, None, :] @ n[:, :, None]) * D
    resid = np.maximum.reduce(np.abs(B - M @ D).reshape(-1, 169), 1)
    scale = np.maximum(1.0, np.maximum.reduce(np.abs(DA).reshape(-1, 169), 1))
    if not np.logical_and.reduce(ok := resid <= 1e-10 * scale):
        k = int(ok.argmin())
        raise SingularD(f"state {k}: factorization residual {resid[k]:.3e} (bug signal)")
    return SystemMatrices(A=A, D=D, M=M, B=B)


# ---------------------------------------------------------------------------
# one state: the N = 1 case

def assemble_A(kind: SystemKind, state: MomentState13, eq: EquilibriumParams,
               d: int = 1) -> np.ndarray:
    """Axis-d coefficient matrix of the requested model, d in 1..3.

    The kind chooses only the stress rows' velocity block and, in the
    heat-flux rows, the rho and velocity columns, the pslot(i, d) constant and
    the diagonal-pressure term; every other entry is shared.
    """
    return assemble_axes(kind, stack_states((state,), (eq,)))[0, _axis(d)]


def assemble_M(eq: EquilibriumParams, d: int = 1) -> np.ndarray:
    """Constant-in-state factor M_d; depends only on (theta, z, T)."""
    return _state_major(_m_axes(eq.coeffs))[0, _axis(d)]


def assemble_A_direction(kind: SystemKind, state: MomentState13,
                         eq: EquilibriumParams, n) -> np.ndarray:
    """Coefficient matrix along an axis d or a direction n (sum of axes)."""
    return assemble_along(kind, stack_states((state,), (eq,)), n)[0]


def assemble_A_regularized(state: MomentState13, eq: EquilibriumParams,
                           d=1) -> SystemMatrices:
    """Final regularization along axis d or unit direction d=(n1,n2,n3).

    Returns A together with its factors D, M and B = D A - u_n D, and checks
    the factorization D A = (M + u_n I) D on the spot.
    """
    sm = regularized_stack(stack_states((state,), (eq,)), d)
    return SystemMatrices(A=sm.A[0], D=sm.D[0], M=sm.M[0], B=sm.B[0])


# ---------------------------------------------------------------------------
# 1D reduction

def _a5_stack(kind: SystemKind, w: np.ndarray, c: LiCoeffs) -> np.ndarray:
    """Closed-form 5x5 matrices of the 1D reduction over N cells w = (rho, u1, p11, q1, p).

    c is the cells' coefficient record, on floats or on (N,) arrays.  kind is
    FinalR13, the equilibrium part, or Grad13, which adds four terms to it.
    """
    rho, u1, p11, q1, p = (w[:, k] for k in range(5))
    sig = p11 - p
    A = np.zeros((w.shape[0], 25))
    A[:, ::6] = u1[:, None]   # the diagonal
    A = A.reshape(-1, 5, 5)
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
