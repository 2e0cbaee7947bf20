"""Half-integer polylogarithm kernels for quantum gas statistics.

Evaluates li[s] := -theta * Li_s(-theta * z) for the five orders
s in {1/2, 3/2, 5/2, 7/2, 9/2} and statistics theta = +1 (Fermion),
0 (classical) and -1 (Boson).  For theta = 0 the convention degenerates to
li[s] = z for every order.  These are the Fermi-Dirac / Bose-Einstein
functions that carry every fugacity dependence downstream.

Evaluation strategy (none of it is tunable at call sites, so results are
reproducible bit for bit):

* z <= 0.9: direct power series sum_k (+-1)^(k+1) z^k / k^s, 420 terms.
* Fermion, z > 0.9: Fermi-Dirac integral
  (1/Gamma(s)) \\int_0^inf t^(s-1) / (exp(t - ln z) + 1) dt
  on Gauss-Legendre panels, with t = y^2 on [0,1] to absorb the
  t^(-1/2) endpoint of the s = 1/2 order.
* Boson, 0.9 < z < 1: Robinson's expansion in powers of mu = ln z,
  Li_s(e^mu) = Gamma(1-s) (-mu)^(s-1) + sum_k zeta(s-k) mu^k / k!,
  with zeta at negative arguments from the functional equation.

All branches agree with 40-digit reference values to ~1e-15 relative and
match each other at the switch point to better than 1e-12.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import zeta as _zeta_right

from .errors import DomainError

ORDERS = (0.5, 1.5, 2.5, 3.5, 4.5)

#: Boson fugacities at or above this are rejected (condensation boundary).
BOSE_Z_MAX = 1.0 - 1e-12

ZETA_HALF = -1.4603545088095868  # zeta(1/2)

_K_SERIES = 420
_SERIES_Z_MAX = 0.9
_K_ROBINSON = 30
_PANEL_WIDTH = 6.0
_TAIL_MARGIN = 55.0


def _check_theta(theta) -> int:
    try:
        t = int(theta)
    except (TypeError, ValueError):
        t = None
    if t is None or t not in (-1, 0, 1) or t != theta:
        raise DomainError(f"statistics parameter must be -1, 0 or +1, got {theta!r}")
    return t


def _zeta_any(x: float) -> float:
    """Riemann zeta at real x != 1, including negative half-integers."""
    if x > 1.0:
        return float(_zeta_right(x))
    if x == 0.5:
        return ZETA_HALF
    # functional equation, valid for x < 0 (and x in (0,1) except the pole)
    return (2.0 ** x * math.pi ** (x - 1.0) * math.sin(math.pi * x / 2.0)
            * math.gamma(1.0 - x) * float(_zeta_right(1.0 - x)))


def _gamma_half(s: float) -> float:
    """Gamma(s) for half-integer s of either sign, from Gamma(1/2) = sqrt(pi)."""
    g = math.sqrt(math.pi)
    x = 0.5
    while x < s - 0.25:
        g *= x
        x += 1.0
    while x > s + 0.25:
        x -= 1.0
        g /= x
    return g


_KS = np.arange(1, _K_SERIES + 1, dtype=float)
_KPOW = {s: _KS ** (-s) for s in ORDERS}
_ALT = (-1.0) ** (_KS + 1)
_ZTAB = {s: np.array([_zeta_any(s - k) for k in range(_K_ROBINSON + 1)])
         for s in ORDERS}
_INV_FACT = 1.0 / np.array([math.factorial(k) for k in range(_K_ROBINSON + 1)],
                           dtype=float)
_GAMMA_1MS = {s: _gamma_half(1.0 - s) for s in ORDERS}
_GAMMA_S = {s: _gamma_half(s) for s in ORDERS}
_GL_NODES, _GL_WEIGHTS = leggauss(64)


@dataclass(frozen=True)
class PolylogSet:
    """The five li[s] values at one (z, theta)."""

    z: float
    theta: int
    li: Mapping[float, float]

    def as_dict(self) -> dict:
        """JSON-friendly form with fraction-string order keys."""
        return {
            "z": self.z,
            "theta": self.theta,
            "li": {f"{int(2 * s)}/2": self.li[s] for s in ORDERS},
        }


def _validate_z(z: np.ndarray, theta: int) -> None:
    if not np.all(np.isfinite(z)):
        raise DomainError("fugacity must be finite")
    if np.any(z <= 0.0):
        raise DomainError("fugacity must be positive")
    if theta == -1 and np.any(z >= BOSE_Z_MAX):
        raise DomainError(
            f"Boson fugacity must stay below {BOSE_Z_MAX} (condensation boundary)")


def _series(z: np.ndarray, theta: int) -> Dict[float, np.ndarray]:
    zk = np.empty((z.size, _K_SERIES))
    zk[:, 0] = z
    for k in range(1, _K_SERIES):
        zk[:, k] = zk[:, k - 1] * z
    sign = _ALT if theta == 1 else 1.0
    return {s: zk @ (sign * _KPOW[s]) for s in ORDERS}


def _fermi_quadrature(z: np.ndarray) -> Dict[float, np.ndarray]:
    mu = np.log(z)
    upper = max(1.0, float(np.max(mu))) + _TAIL_MARGIN
    y, wy = _GL_NODES, _GL_WEIGHTS
    y01 = 0.5 * (y + 1.0)
    t_parts = [y01 ** 2]
    w_parts = [0.5 * wy * 2.0 * y01]  # dt = 2 y dy on the kinked first panel
    n_panels = int(math.ceil((upper - 1.0) / _PANEL_WIDTH))
    edges = np.linspace(1.0, upper, n_panels + 1)
    for a, b in zip(edges[:-1], edges[1:]):
        t_parts.append(0.5 * (b - a) * (y + 1.0) + a)
        w_parts.append(0.5 * (b - a) * wy)
    t = np.concatenate(t_parts)
    w = np.concatenate(w_parts)
    # occupancy 1 / (exp(x) + 1) written so the exponential never overflows
    # for large mu: e^-x / (1 + e^-x) above x = 0, 1 / (1 + e^x) below;
    # in place, since these (z.size, t.size) passes are the solver's hot loop
    x = t[None, :] - mu[:, None]
    ex = np.abs(x)
    np.exp(np.negative(ex, out=ex), out=ex)
    occ = np.where(x >= 0.0, ex, 1.0)
    ex += 1.0
    occ /= ex
    sq = np.sqrt(t)
    tpow = {0.5: 1.0 / sq, 1.5: sq, 2.5: t * sq, 3.5: t * t * sq,
            4.5: t * t * t * sq}
    return {s: occ @ (w * tpow[s]) / _GAMMA_S[s] for s in ORDERS}


def _bose_robinson(z: np.ndarray) -> Dict[float, np.ndarray]:
    mu = np.log(z)  # in (-0.106, 0)
    ks = np.arange(_K_ROBINSON + 1)
    muk = mu[:, None] ** ks[None, :]
    out = {}
    for s in ORDERS:
        out[s] = (_GAMMA_1MS[s] * (-mu) ** (s - 1.0)
                  + muk @ (_ZTAB[s] * _INV_FACT))
    return out


def eval_polylog_batch(z, theta) -> Dict[float, np.ndarray]:
    """Vectorized evaluation; returns a dict order -> array matching z's shape.

    Parameters
    ----------
    z : array_like of positive fugacities (Boson: < 1 - 1e-12).
    theta : -1, 0 or +1.
    """
    theta = _check_theta(theta)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    _validate_z(z, theta)
    if theta == 0:
        return {s: z.copy() for s in ORDERS}
    out = {s: np.empty_like(z) for s in ORDERS}
    lo = z <= _SERIES_Z_MAX
    if lo.any():
        part = _series(z[lo], theta)
        for s in ORDERS:
            out[s][lo] = part[s]
    hi = ~lo
    if hi.any():
        part = _fermi_quadrature(z[hi]) if theta == 1 else _bose_robinson(z[hi])
        for s in ORDERS:
            out[s][hi] = part[s]
    return out


def eval_polylog_set(z: float, theta) -> PolylogSet:
    """Evaluate all five orders at a single fugacity."""
    theta = _check_theta(theta)
    vals = eval_polylog_batch(float(z), theta)
    return PolylogSet(z=float(z), theta=theta,
                      li={s: float(vals[s][0]) for s in ORDERS})
