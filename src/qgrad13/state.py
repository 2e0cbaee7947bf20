"""Moment states, equilibrium parameters, the closure, and quadrature oracles.

The 13-moment state carries (rho, u, p_ij, q); its 1D reduction carries
(rho, u1, p11, q1, p), checked by `_validate_cells` for N cells and by
`MomentState5` for one.  Equilibrium is parameterized by statistics theta,
fugacity z, drift u and scaled temperature T, with density and pressure

    rho = hhat (2 pi T)^(3/2) li[3/2],    p = hhat (2 pi T)^(3/2) T li[5/2].

`fit_equilibrium` inverts this map from (rho, p) as the N = 1 case of `_fit`,
the one fit, which the 1D solver runs on all its cells; `grad_ansatz_eval` is
the expansion around equilibrium, and `ansatz_moments` integrates it
numerically to validate the closure: n_nodes Gauss-Legendre radii on
[0, half_width sqrt(T)] around u times a fixed 32-direction rule that is
exact on the ansatz's angular parts, contracted separably (radial moments
first, then direction monomials).  `LiCoeffs` is the one home of every
coefficient derived from the li values.  `_positive` is the one check of a
positive number passed in (temperature, hhat, density, and the solver's and
the transport limit's), `_count` that of a positive integer (grid sizes, rule
nodes, worker threads), and `_keys` that of a JSON object's required keys.
"""
from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property, lru_cache
from typing import Optional, Tuple

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import CondensationError, DomainError, InadmissibleCell, NoSolution
from .polylog import BOSE_Z_MAX, FERMI_Z_MAX, _check_theta, eval_polylog_batch

_TWO_PI = 2.0 * math.pi
_EYE3 = np.eye(3)
_EYE3.setflags(write=False)
_COLUMNS = ("rho", "u1", "p11", "q1", "p")      # one 1D cell, as a row


def _square(x):
    """x ** 2 through libm pow for floats and arrays alike.

    numpy squares arrays by multiplication, which rounds differently from
    pow about once in a thousand; one rule keeps a batch of coefficient
    records equal, bit for bit, to the records of its fugacities one by one.
    """
    return np.float_power(x, 2.0)


class _once(cached_property):
    """A `LiCoeffs` formula, computed on first read and then kept: a
    cached_property without the lock it takes on every first read before 3.12."""
    def __get__(self, c, owner=None):
        return self if c is None else vars(c).setdefault(self.attrname, self.func(c))


class LiCoeffs:
    """Every li-derived coefficient of the equilibrium expansion, in one place.

    Built from li, five rows in `polylog.ORDERS` order kept as `li`, and the
    temperature T by plain arithmetic, so the rows may be floats (one
    equilibrium, `EquilibriumParams.coeffs`) or arrays over N fugacities
    (the solver's cells).  Each is computed on first read and kept, so a
    reader pays only for what it reads.  Lk stands for li[k/2], Ljk for Lj / Lk.
    b_low enters the reduced 5x5 block (orders 1/2..5/2) and b_high the
    regularization factors (3/2..7/2); they coincide only classically.
    rho_phi_rho .. p_psi_p are the chain-rule derivatives through
    (rho, p) <-> (z, T); frakB normalizes the heat-flux term of the ansatz;
    m2, m3, Tc and Mrho are entries of the constant factor M; alpha is the
    doubled branch 7 li[9/2] / (5 li[7/2]) of the equilibrium spectrum.
    c0, c1 define its quartic x^2 - c1 x + c0 in x = lam_hat^2, whose roots
    x_minus <= x_plus give the other speeds; sqrt(T x_plus) is the largest.
    """

    def __init__(self, li, T):
        self.li, self.T = li, T
        self.L1, self.L3, self.L5, self.L7, self.L9 = li

    L13 = _once(lambda c: c.L1 / c.L3)
    L35 = _once(lambda c: c.L3 / c.L5)
    L53 = _once(lambda c: c.L5 / c.L3)
    L75 = _once(lambda c: c.L7 / c.L5)
    L97 = _once(lambda c: c.L9 / c.L7)
    _L3_2 = _once(lambda c: _square(c.L3))
    _L5_2 = _once(lambda c: _square(c.L5))
    _L7_2 = _once(lambda c: _square(c.L7))
    r = _once(lambda c: c.L3 * c.L7 / c._L5_2)
    r2 = _once(lambda c: c.L5 * c.L9 / c._L7_2)
    Delta = _once(lambda c: 1.5 * c.L35 - 2.5 * c.L13)      # < 0 in-domain
    phi = _once(lambda c: c.T * c.L75)
    psi = _once(lambda c: c.T * c.L97)
    b_low = _once(lambda c: 2.0 / (5.0 - 3.0 * c._L3_2 / (c.L1 * c.L5)))
    b_high = _once(lambda c: 2.0 / (5.0 - 3.0 * c._L5_2 / (c.L3 * c.L7)))
    dfrak = _once(lambda c: 2.5 * (1.0 - c.r))
    Tc = _once(lambda c: c.T * (3.5 * c.L97 - 2.5 * c.L75))
    tfrak = _once(lambda c: 2.5 * c.T * ((7.0 * c.L75 - 3.0 * c.L13) * (c.b_low / 2.0)
                                         - c.L75))
    rho_phi_rho = _once(lambda c: c.T * (7.0 * c.r - 5.0) / (2.0 * c.Delta))
    p_phi_p = _once(lambda c: c.T * (1.5 * (1.0 - c.r) - c.L13 * c.L75) / c.Delta)
    rho_psi_rho = _once(lambda c: c.T * (c.L35 * c.L97 - 2.5 * (1.0 - c.r2)) / c.Delta)
    p_psi_p = _once(lambda c: c.T * (1.5 * (1.0 - c.r2) - c.L13 * c.L97) / c.Delta)
    frakB = _once(lambda c: 3.5 * c.L9 / c.L5 - 2.5 * c._L7_2 / c._L5_2)
    m2 = _once(lambda c: 0.5 * (1.0 - c._L5_2 / (c.L3 * c.L7)))
    m3 = _once(lambda c: 2.5 * c.p_phi_p / (3.0 * c.b_high))
    Mrho = _once(lambda c: 2.5 * c.T * c.T * c.L53 * (2.0 * c.r - 1.0 - c.L13 * c.L75)
                 / c.Delta)
    alpha = _once(lambda c: 1.4 * c.L9 / c.L7)
    _S = _once(lambda c: 5.0 * c.L1 * c.L5 - 3.0 * c._L3_2)
    c0 = _once(lambda c: 3.0 * (7.0 * c.L3 * c.L7 - 5.0 * c._L5_2) / c._S)
    c1 = _once(lambda c: (140.0 * c.L1 * c.L5 * c.L9 + 175.0 * c.L1 * c._L7_2
                          - 84.0 * c._L3_2 * c.L9 - 75.0 * c.L3 * c.L5 * c.L7)
               / (15.0 * c.L7 * c._S))

    @_once
    def x_plus(c):
        c1, c0 = c.c1, c.c0
        with np.errstate(invalid="ignore"):   # NaN marks a complex pair
            return 0.5 * (c1 + np.sqrt(_square(c1) - 4.0 * c0))

    x_minus = _once(lambda c: c.c0 / c.x_plus)   # Vieta: c1 - root cancels as z -> 1


def _positive(name: str, x) -> float:
    """x as a float, if it is positive and finite (a DomainError naming it otherwise)."""
    x = float(x)
    if not 0.0 < x < math.inf:
        raise DomainError(f"{name} must be positive and finite, got {x}")
    return x


def _count(name: str, n) -> int:
    """n as an int, if it is an integer >= 1 (a DomainError naming it otherwise)."""
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise DomainError(f"{name} must be a positive integer, got {n!r}")
    return int(n)


def _keys(d, names, what: str) -> None:
    """A DomainError naming what d, a JSON object, lacks of names."""
    missing = set(names) - set(d if isinstance(d, dict) else ())
    if missing:
        raise DomainError(f"{what} lacks {sorted(missing)}")


@dataclass(frozen=True, eq=False)
class EquilibriumParams:
    """Equilibrium anchor (theta, z, u, T) with particle constant hhat.

    The li values are evaluated once, on construction, where they double as
    the fugacity domain check; `coeffs` holds them as Python floats, with
    every coefficient derived from them.  `_li`, the five li rows already
    evaluated at exactly z (the fit's), takes their place.
    """

    theta: int
    z: float
    u: np.ndarray
    T: float
    hhat: float = 1.0
    coeffs: LiCoeffs = field(init=False, repr=False)
    _li: InitVar[Optional[np.ndarray]] = None

    def __post_init__(self, _li):
        object.__setattr__(self, "theta", _check_theta(self.theta))
        object.__setattr__(self, "z", float(self.z))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float).reshape(3))
        object.__setattr__(self, "T", _positive("temperature", self.T))
        object.__setattr__(self, "hhat", _positive("hhat", self.hhat))
        if _li is None:
            _li = eval_polylog_batch(self.z, self.theta)[:, 0]
        # Python floats: numpy scalars square differently (see `_square`)
        object.__setattr__(self, "coeffs", LiCoeffs(tuple(map(float, _li)), self.T))

    @cached_property
    def rho(self) -> float:
        return self.hhat * (_TWO_PI * self.T) ** 1.5 * self.coeffs.L3

    @cached_property
    def p(self) -> float:
        return self.hhat * (_TWO_PI * self.T) ** 1.5 * self.T * self.coeffs.L5


@dataclass(frozen=True, eq=False)
class MomentState13:
    """Full 13-moment state: rho, u (3), symmetric p_ij (3x3), q (3)."""

    rho: float
    u: np.ndarray
    p_ij: np.ndarray
    q: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "rho", _positive("density", self.rho))
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float).reshape(3))
        object.__setattr__(self, "p_ij", np.asarray(self.p_ij, dtype=float).reshape(3, 3))
        object.__setattr__(self, "q", np.asarray(self.q, dtype=float).reshape(3))
        if not np.logical_and.reduce(np.isfinite(self.u) & np.isfinite(self.q)):
            raise DomainError("velocity and heat flux must be finite")
        scale = float(np.maximum.reduce(np.abs(self.p_ij), axis=None))
        if not np.logical_and.reduce(np.isfinite(self.p_ij), axis=None) or scale == 0.0:
            raise DomainError("pressure tensor must be finite and nonzero")
        if np.maximum.reduce(np.abs(self.p_ij - self.p_ij.T), axis=None) > 1e-9 * scale:
            raise DomainError("pressure tensor must be symmetric")
        if np.minimum.reduce(np.linalg.eigvalsh(0.5 * (self.p_ij + self.p_ij.T))) <= 0.0:
            raise DomainError("pressure tensor must be positive definite")

    @property
    def p(self) -> float:
        return float(self.p_ij.trace()) / 3.0

    @property
    def sigma(self) -> np.ndarray:
        return self.p_ij - self.p * _EYE3

    def as_dict(self) -> dict:
        return {"rho": self.rho, "u": self.u.tolist(),
                "p_ij": self.p_ij.tolist(), "q": self.q.tolist()}

    @classmethod
    def from_dict(cls, d: dict) -> "MomentState13":
        _keys(d, ("rho", "u", "p_ij", "q"), "moment state")

        def array(key, *shape):
            return _read(d, key, lambda x: np.asarray(x, dtype=float).reshape(shape),
                         "x".join(map(str, shape)) + " numbers")

        return cls(rho=_read(d, "rho", float, "a number"), u=array("u", 3),
                   p_ij=array("p_ij", 3, 3), q=array("q", 3))


def _read(d: dict, key: str, convert, what: str, where: str = ""):
    """convert(d[key]) for a JSON reader, or a DomainError naming the key."""
    try:
        return convert(d[key])
    except (TypeError, ValueError):
        raise DomainError(f"{where}{key} must be {what}, got {d[key]!r}") from None


def _validate_cells(w: np.ndarray, step: Optional[int] = None,
                    t: Optional[float] = None) -> None:
    """First inadmissible cell wins; raised with its index for diagnostics.

    One combined test clears an admissible state; only a failing one is
    diagnosed, naming the first of rho, p11 and p that is not positive, or
    else the ratio (there, p11 > 0 follows from p > 0 and ratio > -1).
    `step` and `t` say where a run broke; both are None for its start.
    """
    rho, _, p11, _, p = w.T
    with np.errstate(all="ignore"):
        ratio = p11 / p - 1.0
    if (np.logical_and.reduce(np.isfinite(w), axis=None)
            and np.minimum.reduce(rho) > 0.0 and np.minimum.reduce(p) > 0.0
            and np.minimum.reduce(ratio) > -1.0 and np.maximum.reduce(ratio) < 2.0):
        return
    where = "" if step is None else f" in step {step} at t = {t:.6g}"
    finite = np.isfinite(w)
    if not finite.all():
        i = int(np.argmin(finite.all(axis=1)))
        k = int(np.argmin(finite[i]))
        raise InadmissibleCell(i, "non-finite moments" + where, quantity=_COLUMNS[k],
                               value=float(w[i, k]), step=step, t=t)
    bad = w[:, ::2] <= 0.0                     # rho, p11, p
    if bad.any():
        i = int(np.argmax(bad.any(axis=1)))
        k = 2 * int(np.argmax(bad[i]))
        raise InadmissibleCell(i, f"{_COLUMNS[k]} = {w[i, k]:.6g} is not positive{where}",
                               quantity=_COLUMNS[k], value=float(w[i, k]), step=step, t=t)
    i = int(np.argmin((ratio > -1.0) & (ratio < 2.0)))   # only the ratio is left
    raise InadmissibleCell(i, f"sigma11/p = {ratio[i]:.6g} outside (-1, 2){where}",
                           quantity="sigma11/p", value=float(ratio[i]), step=step, t=t)


@dataclass(frozen=True, eq=False)
class MomentState5:
    """1D-reduced moment state (rho, u1, p11, q1, p), checked as solver cell 0."""

    rho: float
    u1: float
    p11: float
    q1: float
    p: float

    def __post_init__(self):
        for name in _COLUMNS:
            object.__setattr__(self, name, float(getattr(self, name)))
        _validate_cells(np.array([[getattr(self, name) for name in _COLUMNS]]))

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
                    q1_hat: float = 0.0) -> MomentState5:
    """Build a reduced state at eq's drift from sigma11/p and q1/(p sqrt(T))."""
    p = eq.p
    return MomentState5(rho=eq.rho, u1=eq.u[0],
                        p11=p * (1.0 + sigma11_hat),
                        q1=q1_hat * p * math.sqrt(eq.T), p=p)


def _shear_state(eq: EquilibriumParams, sigma12_hat: float,
                 q1_hat: float) -> MomentState13:
    """sigma12 = sigma12_hat p, q1 = q1_hat p sqrt(T) at eq's rho and p, no drift."""
    p = eq.p
    P = p * np.eye(3)
    P[0, 1] = P[1, 0] = sigma12_hat * p
    q = np.array([q1_hat * p * math.sqrt(eq.T), 0.0, 0.0])
    return MomentState13(rho=eq.rho, u=np.zeros(3), p_ij=P, q=q)


# ---------------------------------------------------------------------------
# equilibrium fit

_BOSE_Z_EDGE = float(np.nextafter(BOSE_Z_MAX, 0.0))


def _z_from_log(log_z: np.ndarray, theta: int) -> np.ndarray:
    """exp with a clamp: the log/exp round trip must not cross the Boson edge."""
    z = np.exp(log_z)
    if theta == -1:
        z = np.minimum(z, _BOSE_Z_EDGE)
    return z


def _curve(li: np.ndarray):
    """What the fits read from li's rows: (curve, slope).

    curve is log of the monotone ratio li[5/2]/li[3/2]^(5/3), slope its
    derivative in log z (strictly negative in-domain).
    """
    l1, l3, l5 = li[:3]
    curve = np.log(l5) - (5.0 / 3.0) * np.log(l3)
    slope = l3 / l5 - (5.0 / 3.0) * (l1 / l3)
    return curve, slope


def _gstar(log_z: np.ndarray, theta: int):
    """(curve, slope) from one li evaluation at z = exp(log_z)."""
    return _curve(eval_polylog_batch(_z_from_log(log_z, theta), theta))


_LOG_Z_LO = math.log(1e-12)
_LOG_Z_HI = {-1: math.log(BOSE_Z_MAX), 1: math.log(FERMI_Z_MAX)}


_BISECTIONS = 40
_EPS = float(np.finfo(float).eps)
_NEWTON_STEPS = 3


def _bracket_points(n: int, theta: int) -> int:
    """li evaluations of fit_fugacity_batch on n in-range ratios: the two
    range ends, then n per bisection and per Newton step (none classically)."""
    return 0 if theta == 0 else 2 + (_BISECTIONS + _NEWTON_STEPS) * n


def _raise_at(exc: DomainError, offending: np.ndarray):
    """Raise exc with `index`, the position of the first offending entry."""
    exc.index = int(np.argmax(offending))
    raise exc


def fit_fugacity_batch(gstar: np.ndarray, theta: int) -> np.ndarray:
    """Solve li[5/2]/li[3/2]^(5/3) = gstar for z, elementwise.

    The ratio decreases strictly in z, so a bisection bracket followed by a
    few Newton steps lands at machine precision.  Raises CondensationError
    (Boson) or NoSolution (Fermion) when gstar lies outside the reachable
    range; the exception's `index` is the first entry that does.
    """
    theta = _check_theta(theta)
    gstar = np.atleast_1d(np.asarray(gstar, dtype=float))
    valid = np.isfinite(gstar) & (gstar > 0.0)
    if not np.all(valid):
        _raise_at(NoSolution("pressure/density ratio out of range"), ~valid)
    if theta == 0:
        return gstar ** -1.5
    target = np.log(gstar)
    below = target <= _gstar(np.array([_LOG_Z_HI[theta]]), theta)[0][0]
    if np.any(below):
        _raise_at(CondensationError("no Boson fugacity below condensation "
                                    "reaches this rho/p ratio") if theta == -1
                  else NoSolution("required Fermion fugacity beyond supported "
                                  "range"), below)
    above = target >= _gstar(np.array([_LOG_Z_LO]), theta)[0][0]
    if np.any(above):
        _raise_at(NoSolution("state too dilute for the supported fugacity "
                             "range"), above)
    lo = np.full(gstar.shape, _LOG_Z_LO)
    hi = np.full(gstar.shape, _LOG_Z_HI[theta])
    for _ in range(_BISECTIONS):
        mid = 0.5 * (lo + hi)
        left = _gstar(mid, theta)[0] > target   # still left of the root
        lo = np.where(left, mid, lo)
        hi = np.where(left, hi, mid)
    # fixed steps in the bracket: `_fit`'s noise-floor stop moves z's last ulp
    x = 0.5 * (lo + hi)
    for _ in range(_NEWTON_STEPS):
        curve, slope = _gstar(x, theta)
        x = np.clip(x - (curve - target) / slope, lo, hi)
    return _z_from_log(x, theta)


def _fit(rho: np.ndarray, p: np.ndarray, theta: int, hhat: float = 1.0,
         guess: Optional[Tuple[np.ndarray, np.ndarray]] = None):
    """(rho, p) -> (z, T, li, fell_back, points) for N states: the one fit.

    `guess` is a previous fit's (z, li), li's rows evaluated at exactly that
    z, whose li gives the first Newton step in log z at no li cost.  A cell
    steps only while a step would do more than chase noise: while its
    residual exceeds li's rounding noise in the curve, 32 eps (1 + |target|),
    plus what a step of eps in log z moves it, eps |slope|.  So a cell at its
    fixed point keeps z and li bit for bit, and each of at most three
    iterates evaluates li on the cells that step; li is pointwise, so a
    cell's result depends only on its own guess and target.  Cells still
    missing by over 1e-11 plus eps |slope| (one ulp of log z, more near Boson
    condensation), or all without a guess (a cold start, not a fallback), go
    through fit_fugacity_batch and li at its z.  `points` counts the call's li
    evaluations, and range errors carry the first offending `index`.  The
    powers use libm pow like `_square`, so they add no dependence on the batch.
    """
    gstar = _TWO_PI * hhat ** (2.0 / 3.0) * p * np.float_power(rho, -5.0 / 3.0)
    li, fell_back, points = None, False, 0
    if guess is None:
        z = fit_fugacity_batch(gstar, theta)
        points = _bracket_points(gstar.size, theta)
    elif theta == 0:
        z = gstar ** -1.5              # li[s] = z: exact without a start
    else:
        target = np.log(gstar)
        z, li = (np.array(g, dtype=float) for g in guess)
        x = np.log(z)
        curve, slope = _curve(li)
        noise = 32.0 * _EPS * (1.0 + np.abs(target))
        for _ in range(3):
            step = np.flatnonzero(np.abs(curve - target) > noise + _EPS * np.abs(slope))
            if step.size == 0:
                break
            xs = np.minimum(np.maximum(x[step] - (curve[step] - target[step])
                                       / slope[step], _LOG_Z_LO), _LOG_Z_HI[theta])
            zs = _z_from_log(xs, theta)
            ls = eval_polylog_batch(zs, theta)
            points += step.size
            x[step], z[step], li[:, step] = xs, zs, ls
            curve[step], slope[step] = _curve(ls)
        missed = np.flatnonzero(np.abs(curve - target) > 1e-11 + _EPS * np.abs(slope))
        if missed.size:
            try:
                z_missed = fit_fugacity_batch(gstar[missed], theta)
            except (CondensationError, NoSolution) as exc:
                exc.index = int(missed[exc.index])
                raise
            z[missed] = z_missed
            li[:, missed] = eval_polylog_batch(z_missed, theta)
            points += _bracket_points(missed.size, theta) + missed.size
            fell_back = True
    if li is None:
        li = eval_polylog_batch(z, theta)
        points += z.size
    T = np.float_power(rho / (hhat * li[1]), 2.0 / 3.0) / _TWO_PI
    return z, T, li, fell_back, points


def fit_equilibrium(rho: float, p: float, theta: int, hhat: float = 1.0,
                    u=(0.0, 0.0, 0.0)) -> EquilibriumParams:
    """Invert (rho, p) -> (z, T); round-trips with EquilibriumParams.rho, .p to 1e-10."""
    if not (rho > 0.0 and p > 0.0 and math.isfinite(rho) and math.isfinite(p)):
        raise NoSolution(f"need positive finite rho and p, got {rho}, {p}")
    hhat = _positive("hhat", hhat)
    z, T, li, _, _ = _fit(np.array([rho]), np.array([p]), theta, hhat)
    return EquilibriumParams(theta=theta, z=float(z[0]), u=np.asarray(u),
                             T=float(T[0]), hhat=hhat, _li=li[:, 0])


# ---------------------------------------------------------------------------
# Grad ansatz and closure

def grad_ansatz_eval(state: MomentState13, eq: EquilibriumParams, v) -> np.ndarray:
    """Evaluate the 13-moment distribution ansatz at velocities v.

    v may be a single 3-vector or an (N, 3) array; the return value matches.
    The correction is linear in (sigma_ij, q_i) around the quantum equilibrium
    f_eq = 1 / (z^-1 exp(|v-u|^2 / 2T) + theta).
    """
    v = np.asarray(v, dtype=float)
    k = eq.coeffs
    T, p, theta = eq.T, eq.p, eq.theta
    sig = state.sigma
    # peculiar velocities as component rows (3, N); every step after the two
    # products runs in place on arrays made here, with the operands and in
    # the order of the expression feq (1 + sterm + qterm), so bits are kept
    c = v.reshape(-1, 3).T - eq.u[:, None]
    # the two products keep the BLAS layouts whose sums match the point-major
    # c @ sig and c @ q bit for bit; a gemv on the rows c moves the heat flux.
    # numpy writes the point-major copy faster a column at a time than as a
    # transposing copy
    cp = np.empty((c.shape[1], 3))
    cp[:, 0], cp[:, 1], cp[:, 2] = c
    out = cp @ state.q
    del cp
    sc = sig.T @ c
    sc *= c
    # each row sum is taken in the order einsum("ni,ni->n") uses on
    # point-major rows, (x0 + x2) + x1
    cc = np.multiply(c, c, out=c)                 # c is not read again
    c2, feq = cc[0], cc[1]
    c2 += cc[2]
    c2 += cc[1]
    np.divide(c2, -2.0 * T, out=feq)              # -c2 / (2 T), one rounding
    np.exp(feq, out=feq)
    feq *= eq.z
    # theta ez is exact for theta = +-1, so 1 + theta ez is 1 +- ez
    if theta == 1:
        feq /= np.add(1.0, feq, out=cc[2])
    elif theta == -1:
        feq /= np.subtract(1.0, feq, out=cc[2])
    sterm = sc[0]
    sterm += sc[2]
    sterm += sc[1]
    sterm /= T
    sterm -= sig.trace() * (k.L5 / k.L3)
    sterm *= k.L5 / k.L7
    sterm /= 2.0 * p
    c2 /= T
    c2 -= 5.0 * k.L7 / k.L5
    out *= c2                                      # qterm
    out /= 5.0 * p * T * k.frakB
    sterm += 1.0
    out += sterm
    out *= feq
    return float(out[0]) if v.ndim == 1 else out


# q_ijk = 0.4 ((delta_ij q_k + delta_ik q_j) + delta_jk q_i): the deltas, and the q they pick
_I, _J, _K = np.indices((3, 3, 3)).reshape(3, 27)
_Q_MASKS, _Q_TAKE = np.array([_I == _J, _I == _K, _J == _K], dtype=float), np.array([_K, _J, _I])


def closure_moments(state: MomentState13, eq: EquilibriumParams) -> ClosureMoments:
    """Closed q_ijk and Delta_ij induced by the 13 variables."""
    k = eq.coeffs
    # summed from -0.0, which adds exactly, so every zero keeps its sign
    q_ijk = 0.4 * np.add.reduce(_Q_MASKS * state.q.take(_Q_TAKE), 0, initial=-0.0)
    pref = eq.hhat * (_TWO_PI * eq.T) ** 1.5 * eq.T ** 2 * k.L7
    Delta_ij = pref * (5.0 * _EYE3 + 7.0 * (state.sigma / state.p)
                       * k.L5 * k.L9 / k.L7 ** 2)
    return ClosureMoments(q_ijk=q_ijk.reshape(3, 3, 3), Delta_ij=Delta_ij)


# ---------------------------------------------------------------------------
# quadrature oracle

def _sphere_rule(n_cos: int, n_phi: int):
    """Unit directions and weights: Gauss-Legendre in cos(theta) times the
    trapezoid rule in phi.

    Exact for every polynomial on the unit sphere of degree below
    min(2 n_cos, n_phi) (Stroud 1971); the weights sum to 4 pi.
    """
    cos_t, w_cos = leggauss(n_cos)
    phi = np.arange(n_phi) * (_TWO_PI / n_phi)
    sin_t = np.sqrt(1.0 - cos_t ** 2)
    dirs = np.stack([np.outer(sin_t, np.cos(phi)), np.outer(sin_t, np.sin(phi)),
                     np.outer(cos_t, np.ones(n_phi))], axis=-1).reshape(-1, 3)
    return dirs, np.repeat(w_cos * (_TWO_PI / n_phi), n_phi)


# The ansatz has angular degree <= 2 and the moments below multiply it by at
# most degree 3; this rule, exact to degree 7, integrates every such product.
_DIRS, _DIR_WEIGHTS = _sphere_rule(4, 8)


@lru_cache(maxsize=8)
def _radial_rule(n_nodes: int):
    """Gauss-Legendre nodes and weights on [-1, 1], built once per n_nodes."""
    x, w = leggauss(n_nodes)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def ansatz_moments(state: MomentState13, eq: EquilibriumParams,
                   n_nodes: int = 64, half_width: float = 12.0) -> dict:
    """All 13 defining moments plus the closed q_ijk / Delta_ij, by quadrature.

    Integrates the ansatz on a spherical product rule around eq.u: n_nodes
    Gauss-Legendre radii on [0, half_width sqrt(T)] with weights w r^2,
    times 32 fixed directions exact for spherical polynomials up to degree 7.
    The ansatz is f_eq(|c|) times a polynomial of degree <= 3 in c, so the
    angular integrals are exact and only the radial one is numerical.  The
    r^2 Jacobian flattens the Boson peak z / (1 - z) at c = 0: at 96 radii
    over 8 sqrt(T), q_ijk and Delta_ij stay within 1e-9 up to z = 1 - 1e-6,
    while rho, which carries no extra power of r, drifts to ~5e-5 there.
    The residual floor of about 5e-10 at half_width = 8 is the tail cut off
    beyond the sphere, not the rule; pass a larger half_width for more.
    The rule is a product, so every moment is a separable contraction: one
    matrix product gives the radial moments m_k[b] = sum_a w_a r_a^k f[a, b]
    (k <= 4) per direction b, and each moment reads them off against the
    direction monomials (d_i d_j for p_ij, d_i d_j d_k for q_ijk, ...).
    Used to verify that the ansatz reproduces its own state and the closure
    formulas; it reads li only through grad_ansatz_eval.
    """
    n_nodes = _count("n_nodes", n_nodes)
    x, wts = _radial_rule(n_nodes)
    radius = _positive("half_width", half_width) * math.sqrt(eq.T)
    r = 0.5 * radius * (x + 1.0)
    w_r = 0.5 * radius * wts * r * r
    # node velocities as component rows (3, P); _DIRS is read on each call
    V = (r[:, None] * np.ascontiguousarray(_DIRS.T)[:, None, :]).reshape(3, -1)
    V += eq.u[:, None]
    f = grad_ansatz_eval(state, eq, V.T).reshape(n_nodes, -1)
    f *= eq.hhat
    m = (w_r * r ** np.arange(5.0)[:, None]) @ f * _DIR_WEIGHTS   # m_k[b]
    D = _DIRS
    rho = float(m[0].sum())
    return {"rho": rho, "u": eq.u + (m[1] @ D) / rho,
            "p_ij": (m[2] * D.T) @ D, "q": 0.5 * (m[3] @ D),
            "q_ijk": (m[3] * D.T[:, None] * D.T) @ D,
            "Delta_ij": (m[4] * D.T) @ D}
