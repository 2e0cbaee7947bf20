"""Moment states, equilibrium parameters, the closure, and quadrature oracles.

The 13-moment state carries (rho, u, p_ij, q); its 1D reduction carries
(rho, u1, p11, q1, p).  Equilibrium is parameterized by statistics theta,
fugacity z, drift u and scaled temperature T, with density and pressure

    rho = hhat (2 pi T)^(3/2) li[3/2],    p = hhat (2 pi T)^(3/2) T li[5/2].

`fit_equilibrium` inverts this map from (rho, p); `grad_ansatz_eval` and
`moment_quadrature` provide the expansion around equilibrium and the
numerical-integration oracle used to validate the closure.  `LiCoeffs` is
the one home of every coefficient derived from the li values.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, Mapping

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import CondensationError, DomainError, NoSolution, QuadratureNotConverged
from .polylog import BOSE_Z_MAX, ORDERS, _check_theta, eval_polylog_batch

_TWO_PI = 2.0 * math.pi


def _square(x):
    """x ** 2 through libm pow for floats and arrays alike.

    numpy squares arrays by multiplication, which rounds differently from
    pow about once in a thousand; one rule keeps a batch of coefficient
    records equal, bit for bit, to the records of its fugacities one by one.
    """
    return np.float_power(x, 2.0)


class LiCoeffs:
    """Every li-derived coefficient of the equilibrium expansion, in one place.

    Built from the five li values and the temperature T by plain arithmetic,
    so li may hold floats (one equilibrium, `EquilibriumParams.coeffs`) or
    arrays over N fugacities (the solver's cells).  Lk stands for li[k/2],
    Ljk for the ratio Lj / Lk.  b_low enters the reduced 5x5 block (orders
    1/2..5/2) and b_high the regularization factors (3/2..7/2); they coincide
    only classically.  rho_phi_rho .. p_psi_p are the chain-rule derivatives
    through (rho, p) <-> (z, T); frakB normalizes the heat-flux term of the
    ansatz; m2, m3, Tc and Mrho are entries of the constant factor M; alpha
    is the doubled branch 7 li[9/2] / (5 li[7/2]) of the equilibrium spectrum.
    c0, c1 define its quartic x^2 - c1 x + c0 in x = lam_hat^2, whose roots
    x_minus <= x_plus give the other speeds; sqrt(T x_plus) is the largest.
    """

    def __init__(self, li: Mapping[float, object], T):
        L1, L3, L5, L7, L9 = (li[s] for s in ORDERS)
        self.T = T
        self.L1, self.L3, self.L5, self.L7, self.L9 = L1, L3, L5, L7, L9
        self.L13 = L13 = L1 / L3
        self.L35 = L35 = L3 / L5
        self.L53 = L53 = L5 / L3
        self.L75 = L75 = L7 / L5
        self.L97 = L97 = L9 / L7
        L3_2, L5_2, L7_2 = _square(L3), _square(L5), _square(L7)
        self.r = r = L3 * L7 / L5_2
        self.r2 = r2 = L5 * L9 / L7_2
        self.Delta = Delta = 1.5 * L35 - 2.5 * L13      # < 0 in-domain
        self.phi = T * L75
        self.psi = T * L97
        self.b_low = b_low = 2.0 / (5.0 - 3.0 * L3_2 / (L1 * L5))
        self.b_high = b_high = 2.0 / (5.0 - 3.0 * L5_2 / (L3 * L7))
        self.dfrak = 2.5 * (1.0 - r)
        self.Tc = T * (3.5 * L97 - 2.5 * L75)
        self.tfrak = 2.5 * T * ((7.0 * L75 - 3.0 * L13) * (b_low / 2.0) - L75)
        self.rho_phi_rho = T * (7.0 * r - 5.0) / (2.0 * Delta)
        self.p_phi_p = p_phi_p = T * (1.5 * (1.0 - r) - L13 * L75) / Delta
        self.rho_psi_rho = T * (L35 * L97 - 2.5 * (1.0 - r2)) / Delta
        self.p_psi_p = T * (1.5 * (1.0 - r2) - L13 * L97) / Delta
        self.frakB = 3.5 * L9 / L5 - 2.5 * L7_2 / L5_2
        self.m2 = 0.5 * (1.0 - L5_2 / (L3 * L7))
        self.m3 = 2.5 * p_phi_p / (3.0 * b_high)
        self.Mrho = 2.5 * T * T * L53 * (2.0 * r - 1.0 - L13 * L75) / Delta
        self.alpha = 1.4 * L9 / L7
        S = 5.0 * L1 * L5 - 3.0 * L3_2
        self.c0 = c0 = 3.0 * (7.0 * L3 * L7 - 5.0 * L5_2) / S
        self.c1 = c1 = (140.0 * L1 * L5 * L9 + 175.0 * L1 * L7_2
                        - 84.0 * L3_2 * L9
                        - 75.0 * L3 * L5 * L7) / (15.0 * L7 * S)
        with np.errstate(invalid="ignore"):   # NaN marks a complex pair
            root = np.sqrt(_square(c1) - 4.0 * c0)
        self.x_minus = 0.5 * (c1 - root)
        self.x_plus = 0.5 * (c1 + root)


@dataclass(frozen=True, eq=False)
class EquilibriumParams:
    """Equilibrium anchor (theta, z, u, T) with particle constant hhat.

    The li values are evaluated once, on construction, where they double as
    the fugacity domain check; `coeffs` holds every coefficient derived
    from them.
    """

    theta: int
    z: float
    u: np.ndarray
    T: float
    hhat: float = 1.0
    li: Dict[float, float] = field(init=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "theta", _check_theta(self.theta))
        object.__setattr__(self, "z", float(self.z))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float).reshape(3))
        object.__setattr__(self, "T", float(self.T))
        object.__setattr__(self, "hhat", float(self.hhat))
        if not (self.T > 0.0 and math.isfinite(self.T)):
            raise DomainError(f"temperature must be positive, got {self.T}")
        if not (self.hhat > 0.0):
            raise DomainError(f"hhat must be positive, got {self.hhat}")
        vals = eval_polylog_batch(self.z, self.theta)
        object.__setattr__(self, "li", {s: float(vals[s][0]) for s in ORDERS})

    @cached_property
    def coeffs(self) -> LiCoeffs:
        return LiCoeffs(self.li, self.T)

    @cached_property
    def rho(self) -> float:
        return self.hhat * (_TWO_PI * self.T) ** 1.5 * self.li[1.5]

    @cached_property
    def p(self) -> float:
        return self.hhat * (_TWO_PI * self.T) ** 1.5 * self.T * self.li[2.5]

    def as_dict(self) -> dict:
        return {"theta": self.theta, "z": self.z, "u": self.u.tolist(),
                "T": self.T, "hhat": self.hhat}

    @classmethod
    def from_dict(cls, d: dict) -> "EquilibriumParams":
        return cls(theta=d["theta"], z=d["z"], u=np.asarray(d.get("u", (0, 0, 0))),
                   T=d["T"], hhat=d.get("hhat", 1.0))


@dataclass(frozen=True, eq=False)
class MomentState13:
    """Full 13-moment state: rho, u (3), symmetric p_ij (3x3), q (3)."""

    rho: float
    u: np.ndarray
    p_ij: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float).reshape(3))
        object.__setattr__(self, "p_ij", np.asarray(self.p_ij, dtype=float).reshape(3, 3))
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float).reshape(3))
        if not (self.rho > 0.0 and np.isfinite(self.rho)):
            raise DomainError(f"density must be positive, got {self.rho}")
        scale = float(np.max(np.abs(self.p_ij)))
        if not np.all(np.isfinite(self.p_ij)) or scale == 0.0:
            raise DomainError("pressure tensor must be finite and nonzero")
        if np.max(np.abs(self.p_ij - self.p_ij.T)) > 1e-9 * scale:
            raise DomainError("pressure tensor must be symmetric")
        if np.min(np.linalg.eigvalsh(0.5 * (self.p_ij + self.p_ij.T))) <= 0.0:
            raise DomainError("pressure tensor must be positive definite")

    @property
    def p(self) -> float:
        return float(np.trace(self.p_ij)) / 3.0

    @property
    def sigma(self) -> np.ndarray:
        return self.p_ij - self.p * np.eye(3)

    def as_dict(self) -> dict:
        return {"rho": self.rho, "u": self.u.tolist(),
                "p_ij": self.p_ij.tolist(), "q": self.q.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "MomentState13":
        return cls(rho=d["rho"], u=np.asarray(d["u"]),
                   p_ij=np.asarray(d["p_ij"]), q=np.asarray(d["q"]))


@dataclass(frozen=True, eq=False)
class MomentState5:
    """1D-reduced moment state (rho, u1, p11, q1, p)."""

    rho: float
    u1: float
    p11: float
    q1: float
    p: float

    def __post_init__(self):
        for name in ("rho", "u1", "p11", "q1", "p"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if not (self.rho > 0.0 and self.p > 0.0 and self.p11 > 0.0):
            raise DomainError("rho, p and p11 must all be positive")
        ratio = self.p11 / self.p - 1.0
        if not (-1.0 < ratio < 2.0):
            raise DomainError(
                f"sigma11/p = {ratio:.6g} outside the admissible interval (-1, 2)")

    @property
    def sigma11(self) -> float:
        return self.p11 - self.p


@dataclass(frozen=True, eq=False)
class ClosureMoments:
    """Closed third and fourth moments: q_ijk (3x3x3) and Delta_ij (3x3)."""

    q_ijk: np.ndarray
    Delta_ij: np.ndarray


def equilibrium_state13(eq: EquilibriumParams) -> MomentState13:
    """The moment state sitting exactly at the given equilibrium."""
    return MomentState13(rho=eq.rho, u=eq.u, p_ij=eq.p * np.eye(3), q=np.zeros(3))


def state5_from_hat(eq: EquilibriumParams, sigma11_hat: float = 0.0,
                    q1_hat: float = 0.0, u1: float | None = None) -> MomentState5:
    """Build a reduced state from dimensionless sigma11/p and q1/(p sqrt(T))."""
    p = eq.p
    return MomentState5(rho=eq.rho, u1=eq.u[0] if u1 is None else u1,
                        p11=p * (1.0 + sigma11_hat),
                        q1=q1_hat * p * math.sqrt(eq.T), p=p)


def state13_from_state5(st: MomentState5) -> MomentState13:
    """Embed the 1D reduction: p22 = p33 = (3p - p11)/2, transverse moments zero."""
    p_perp = 0.5 * (3.0 * st.p - st.p11)
    return MomentState13(rho=st.rho, u=np.array([st.u1, 0.0, 0.0]),
                         p_ij=np.diag([st.p11, p_perp, p_perp]),
                         q=np.array([st.q1, 0.0, 0.0]))


# ---------------------------------------------------------------------------
# equilibrium fit

_BOSE_Z_EDGE = float(np.nextafter(BOSE_Z_MAX, 0.0))


def _z_from_log(log_z: np.ndarray, theta: int) -> np.ndarray:
    """exp with a clamp: the log/exp round trip must not cross the Boson edge."""
    z = np.exp(log_z)
    if theta == -1:
        z = np.minimum(z, _BOSE_Z_EDGE)
    return z


def _gstar(log_z: np.ndarray, theta: int):
    """One li evaluation at z = exp(log_z) and what the fits read from it.

    Returns (curve, slope, li): curve is log of the monotone ratio
    li[5/2]/li[3/2]^(5/3), slope its derivative in log z (strictly negative
    in-domain), li the five orders, ready for the coefficient record.
    """
    li = eval_polylog_batch(_z_from_log(log_z, theta), theta)
    curve = np.log(li[2.5]) - (5.0 / 3.0) * np.log(li[1.5])
    slope = li[1.5] / li[2.5] - (5.0 / 3.0) * (li[0.5] / li[1.5])
    return curve, slope, li


_LOG_Z_LO = math.log(1e-12)
_LOG_Z_HI_FERMION = math.log(1e12)
_LOG_Z_HI_BOSON = math.log(BOSE_Z_MAX)


def fit_fugacity_batch(gstar: np.ndarray, theta: int) -> np.ndarray:
    """Solve li[5/2]/li[3/2]^(5/3) = gstar for z, elementwise.

    The ratio decreases strictly in z, so a bisection bracket followed by a
    few Newton steps lands at machine precision.  Raises CondensationError
    (Boson) or NoSolution (Fermion) when gstar lies below the reachable range.
    """
    theta = _check_theta(theta)
    gstar = np.atleast_1d(np.asarray(gstar, dtype=float))
    if np.any(~np.isfinite(gstar)) or np.any(gstar <= 0.0):
        raise NoSolution("pressure/density ratio out of range")
    if theta == 0:
        return gstar ** -1.5
    target = np.log(gstar)
    hi_edge = _LOG_Z_HI_BOSON if theta == -1 else _LOG_Z_HI_FERMION
    floor = _gstar(np.array([hi_edge]), theta)[0][0]
    if np.any(target <= floor):
        if theta == -1:
            raise CondensationError(
                "no Boson fugacity below condensation reaches this rho/p ratio")
        raise NoSolution("required Fermion fugacity beyond supported range")
    ceil = _gstar(np.array([_LOG_Z_LO]), theta)[0][0]
    if np.any(target >= ceil):
        raise NoSolution("state too dilute for the supported fugacity range")
    lo = np.full(gstar.shape, _LOG_Z_LO)
    hi = np.full(gstar.shape, hi_edge)
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        above = _gstar(mid, theta)[0] > target   # still left of the root
        lo = np.where(above, mid, lo)
        hi = np.where(above, hi, mid)
    x = 0.5 * (lo + hi)
    for _ in range(3):
        curve, slope, _ = _gstar(x, theta)
        x = np.clip(x - (curve - target) / slope, lo, hi)
    return _z_from_log(x, theta)


def fit_equilibrium(rho: float, p: float, theta: int, hhat: float = 1.0,
                    u=(0.0, 0.0, 0.0)) -> EquilibriumParams:
    """Invert (rho, p) -> (z, T); round-trips with EquilibriumParams.rho, .p to 1e-10."""
    theta = _check_theta(theta)
    if not (rho > 0.0 and p > 0.0 and math.isfinite(rho) and math.isfinite(p)):
        raise NoSolution(f"need positive finite rho and p, got {rho}, {p}")
    gstar = _TWO_PI * hhat ** (2.0 / 3.0) * p * rho ** (-5.0 / 3.0)
    z = float(fit_fugacity_batch(np.array([gstar]), theta)[0])
    li32 = float(eval_polylog_batch(z, theta)[1.5][0])
    T = (rho / (hhat * li32)) ** (2.0 / 3.0) / _TWO_PI
    return EquilibriumParams(theta=theta, z=z, u=np.asarray(u), T=T, hhat=hhat)


def fit_state(state: MomentState13, theta: int, hhat: float = 1.0) -> EquilibriumParams:
    """Equilibrium parameters matching a state's density, pressure and drift."""
    return fit_equilibrium(state.rho, state.p, theta, hhat, u=state.u)


# ---------------------------------------------------------------------------
# Grad ansatz and closure

def grad_ansatz_eval(state: MomentState13, eq: EquilibriumParams, v) -> np.ndarray:
    """Evaluate the 13-moment distribution ansatz at velocities v.

    v may be a single 3-vector or an (N, 3) array; the return value matches.
    The correction is linear in (sigma_ij, q_i) around the quantum equilibrium
    f_eq = 1 / (z^-1 exp(|v-u|^2 / 2T) + theta).
    """
    v = np.asarray(v, dtype=float)
    single = v.ndim == 1
    vv = v.reshape(-1, 3)
    li = eq.li
    T, p, z, theta = eq.T, eq.p, eq.z, eq.theta
    c = vv - eq.u
    c2 = np.einsum("ni,ni->n", c, c)
    ez = z * np.exp(-c2 / (2.0 * T))
    if theta == 0:
        feq = ez
    else:
        feq = ez / (1.0 + theta * ez)
    sig = state.sigma
    sterm = (np.einsum("ij,ni,nj->n", sig, c, c) / T
             - np.trace(sig) * (li[2.5] / li[1.5])) * (li[2.5] / li[3.5]) / (2.0 * p)
    qterm = (c @ state.q) * (c2 / T - 5.0 * li[3.5] / li[2.5]) \
        / (5.0 * p * T * eq.coeffs.frakB)
    out = feq * (1.0 + sterm + qterm)
    return float(out[0]) if single else out


def closure_moments(state: MomentState13, eq: EquilibriumParams) -> ClosureMoments:
    """Closed q_ijk and Delta_ij induced by the 13 variables."""
    li = eq.li
    q = state.q
    delta = np.eye(3)
    q_ijk = 0.4 * (np.einsum("ij,k->ijk", delta, q)
                   + np.einsum("ik,j->ijk", delta, q)
                   + np.einsum("kj,i->ijk", delta, q))
    pref = eq.hhat * (_TWO_PI * eq.T) ** 1.5 * eq.T ** 2 * li[3.5]
    Delta_ij = pref * (5.0 * delta + 7.0 * (state.sigma / state.p)
                       * li[2.5] * li[4.5] / li[3.5] ** 2)
    return ClosureMoments(q_ijk=q_ijk, Delta_ij=Delta_ij)


# ---------------------------------------------------------------------------
# quadrature oracle

def moment_quadrature(f: Callable[[np.ndarray], np.ndarray],
                      eq: EquilibriumParams,
                      selector: Callable[[np.ndarray, np.ndarray], np.ndarray],
                      n_nodes: int = 64, half_width: float = 12.0,
                      check: bool = False) -> float:
    """Tensor-product Gauss-Legendre integral of f(v) * selector(v, c) over v.

    The box is u +- half_width * sqrt(T) per axis, wide enough that every
    admissible equilibrium tail is below 1e-30.  With check=True the node
    count is doubled once and a relative shift above 1e-6 raises
    QuadratureNotConverged.
    """
    def run(n):
        x, wts = leggauss(n)
        half = half_width * math.sqrt(eq.T)
        axes = [eq.u[i] + half * x for i in range(3)]
        V = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
        W = (wts[:, None, None] * wts[None, :, None] * wts[None, None, :]
             ).reshape(-1) * half ** 3
        C = V - eq.u
        return float(np.sum(W * f(V) * selector(V, C)))

    val = run(n_nodes)
    if check:
        ref = run(2 * n_nodes)
        if abs(ref - val) > 1e-6 * (1.0 + abs(ref)):
            raise QuadratureNotConverged(
                f"doubling nodes moved the integral by {abs(ref - val):.3e}")
        val = ref
    return val


def ansatz_moments(state: MomentState13, eq: EquilibriumParams,
                   n_nodes: int = 64, half_width: float = 12.0) -> dict:
    """All 13 defining moments plus the closed q_ijk / Delta_ij, by quadrature.

    Shares one velocity grid across the integrands for speed; used to verify
    that the ansatz reproduces its own state and the closure formulas.
    """
    x, wts = leggauss(n_nodes)
    half = half_width * math.sqrt(eq.T)
    axes = [eq.u[i] + half * x for i in range(3)]
    V = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    W = (wts[:, None, None] * wts[None, :, None] * wts[None, None, :]
         ).reshape(-1) * half ** 3
    C = V - eq.u
    c2 = np.einsum("ni,ni->n", C, C)
    fw = eq.hhat * W * grad_ansatz_eval(state, eq, V)
    rho = float(np.sum(fw))
    u = (fw @ V) / rho
    p_ij = np.einsum("n,ni,nj->ij", fw, C, C)
    q = 0.5 * ((fw * c2) @ C)
    q_ijk = np.einsum("n,ni,nj,nk->ijk", fw, C, C, C)
    Delta_ij = np.einsum("n,ni,nj->ij", fw * c2, C, C)
    return {"rho": rho, "u": u, "p_ij": p_ij, "q": q,
            "q_ijk": q_ijk, "Delta_ij": Delta_ij}
