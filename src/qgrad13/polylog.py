"""Half-integer polylogarithm kernels for quantum gas statistics.

Evaluates li[s] := -theta * Li_s(-theta * z) for the five orders
s in {1/2, 3/2, 5/2, 7/2, 9/2} and statistics theta = +1 (Fermion),
0 (classical) and -1 (Boson).  For theta = 0 the convention degenerates to
li[s] = z for every order.  These are the Fermi-Dirac / Bose-Einstein
functions that carry every fugacity dependence downstream.

Evaluation strategy (none of it is tunable at call sites, and every step is
elementwise, so a point's value does not depend on the batch around it and
results are reproducible bit for bit).  Both statistics switch branch at
z = e^-1, mu = ln z = -1:

* z <= e^-1: direct power series sum_k (+-1)^(k+1) z^k / k^s, 48 terms; each
  point's powers are a running product along its own contiguous row, the
  layout that sets the order in which einsum sums each order per point.
* Fermion, e^-1 < z <= FERMI_Z_MAX = 1e12: 14 Chebyshev expansions of degree
  24 in mu, on equal pieces of [-1, ln 1e12], evaluated by Clenshaw's
  recurrence on (points, 5) rows gathered from a (degree, piece, order) copy
  of the table.  The table is built at import from the Fermi-Dirac integral
  (1/Gamma(s)) \\int_0^inf t^(s-1) / (exp(t - ln z) + 1) dt on Gauss-Legendre
  panels, with t = y^2 on [0,1] to absorb the t^(-1/2) endpoint of the
  s = 1/2 order.  This quadrature is the one li path whose values depend on
  its batch: the node grid reaches from the batch's largest z, and each order
  is one BLAS product over all points.  So its occupancy is built in blocks
  of rows into one array (the import's peak holds one such array, not
  three), and each order is one product.  Larger Fermion fugacities are
  rejected; the fugacity fit searches up to the same bound.
* Boson, e^-1 < z < 1: Robinson's expansion in powers of mu,
  Li_s(e^mu) = Gamma(1-s) (-mu)^(s-1) + sum_k zeta(s-k) mu^k / k!,
  k <= 20, the powers a running product over power-major rows, zeta(k + 1/2)
  from a pinned table and zeta at negative arguments from the functional
  equation; its terms fall like (|mu| / 2 pi)^k.

Against 30-digit mpmath values the series is within 1e-15 relative, the
Boson expansion within 2e-15 and the Fermion table within 3e-15 (its
worst is at the switch); every branch stays within 5e-15, and the branches
meet at the switch to better than 1e-14.
"""
from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import DomainError

ORDERS = (0.5, 1.5, 2.5, 3.5, 4.5)

#: Boson fugacities at or above this are rejected (condensation boundary).
BOSE_Z_MAX = 1.0 - 1e-12

#: Fermion fugacities above this are rejected (top of the Fermi-Dirac table).
FERMI_Z_MAX = 1e12

#: Fermion hyperbolicity bound: the root of c1^2 - 4 c0, above which the
#: equilibrium quartic x^2 - c1 x + c0 has complex roots (`state.LiCoeffs`).
#: li and the fit hold up to FERMI_Z_MAX; hyperbolicity only below this.
FERMI_Z_C = 230284.0276080967

#: exclusive upper bound on z per statistics (`_validate_z`)
_Z_BELOW = {-1: BOSE_Z_MAX, 0: math.inf, 1: math.nextafter(FERMI_Z_MAX, math.inf)}

ZETA_HALF = -1.4603545088095868  # zeta(1/2)
#: zeta(k + 1/2) for k = 1..20, the floats scipy.special.zeta 1.17.1 returns:
#: all the zeta values the Robinson coefficients need
_ZETA_HALF_INTEGERS = (
    2.612375348685488, 1.3414872572509173, 1.1267338673170566,
    1.0547075107614543, 1.0252045799546856, 1.0120058998885249,
    1.005826727536523, 1.0028592508824157, 1.0014125906121736,
    1.000700842641736, 1.0003486558834918, 1.000173751733643,
    1.0000866867274623, 1.0000432810242568, 1.000021619904246,
    1.0000108031249002, 1.0000053992970512, 1.000002698895944,
    1.0000013491977429, 1.0000006745156182)

_K_SERIES = 48   # on z <= e^-1 the 49th term is below 1e-20 of li
_SERIES_Z_MAX = math.exp(-1.0)
_K_ROBINSON = 20  # on -1 < mu < 0 the mu^21 term is below 1e-17 of li
_CHEB_PIECES = 14
_CHEB_DEGREE = 24
_PANEL_WIDTH = 6.0
_TAIL_MARGIN = 55.0
_OCC_ROWS = 8   # occupancy rows per block of `_fermi_quadrature`


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
        return _ZETA_HALF_INTEGERS[int(x) - 1]
    if x == 0.5:
        return ZETA_HALF
    # functional equation, valid for x < 0 (and x in (0,1) except the pole)
    return (2.0 ** x * math.pi ** (x - 1.0) * math.sin(math.pi * x / 2.0)
            * math.gamma(1.0 - x) * _ZETA_HALF_INTEGERS[int(1.0 - x) - 1])


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


_S = np.array(ORDERS)[:, None]
_KS = np.arange(1, _K_SERIES + 1, dtype=float)
#: (5, K) series coefficients (+-1)^(k+1) / k^s, one row per order
_SERIES_COEF = {1: (-1.0) ** (_KS + 1) * _KS ** -_S, -1: _KS ** -_S}
#: (K + 1, 5) Robinson coefficients zeta(s - k) / k!, highest power last
_ROBINSON_COEF = np.array([[_zeta_any(s - k) / math.factorial(k) for s in ORDERS]
                           for k in range(_K_ROBINSON + 1)])
_GAMMA_1MS = np.array([_gamma_half(1.0 - s) for s in ORDERS])[:, None]
_GAMMA_S = tuple(_gamma_half(s) for s in ORDERS)
_GL_NODES, _GL_WEIGHTS = leggauss(64)


def _validate_z(z: np.ndarray, theta: int) -> None:
    """One test against `_Z_BELOW` clears a batch; a failing one is diagnosed."""
    if z.size == 0 or (np.minimum.reduce(z, axis=None) > 0.0
                       and np.maximum.reduce(z, axis=None) < _Z_BELOW[theta]):
        return
    if not np.isfinite(z).all():
        raise DomainError("fugacity must be finite")
    if (z <= 0.0).any():
        raise DomainError("fugacity must be positive")
    if theta == -1:   # finite and positive, so above the bound
        raise DomainError(
            f"Boson fugacity must stay below {BOSE_Z_MAX} (condensation boundary)")
    raise DomainError(f"Fermion fugacity must not exceed {FERMI_Z_MAX:g} (range of "
                      "the Fermi-Dirac table)")


def _series(z: np.ndarray, theta: int) -> np.ndarray:
    zk = np.empty((z.size, _K_SERIES))
    zk[:] = z[:, None]
    np.multiply.accumulate(zk, axis=1, out=zk)
    # einsum sums each (order, point) on its own (a BLAS product does not), in
    # an order set by the layout: each point's powers stay contiguous
    return np.einsum("nk,sk->sn", zk, _SERIES_COEF[theta])


def _fermi_quadrature(z: np.ndarray) -> np.ndarray:
    """li for Fermions by the panel quadrature: (5, N), rows in ORDERS order."""
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
    # a block's temporaries stay small, so only `occ` is full size
    occ = np.empty((z.size, t.size))
    for lo in range(0, z.size, _OCC_ROWS):
        x = t - mu[lo:lo + _OCC_ROWS, None]
        ex = np.exp(-np.abs(x))
        np.divide(np.where(x >= 0.0, ex, 1.0), ex + 1.0,
                  out=occ[lo:lo + _OCC_ROWS])
    sq = np.sqrt(t)
    tpow = (1.0 / sq, sq, t * sq, t * t * sq, t * t * t * sq)
    # one product per order over the whole batch: BLAS orders its sums by
    # shape, so summing row blocks would move the table's last bits
    return np.stack([occ @ (w * tp) / g for tp, g in zip(tpow, _GAMMA_S)])


_CHEB_EDGES = np.linspace(-1.0, math.log(FERMI_Z_MAX), _CHEB_PIECES + 1)
_CHEB_MID = 0.5 * (_CHEB_EDGES[1:] + _CHEB_EDGES[:-1])
_CHEB_HALF = 0.5 * (_CHEB_EDGES[1:] - _CHEB_EDGES[:-1])


def _chebyshev_table() -> np.ndarray:
    """(degree + 1, 5, pieces) Chebyshev coefficients of li in mu = ln z.

    Built from the panel quadrature at the first-kind Chebyshev nodes of
    every piece, in one call, and a discrete cosine transform.
    """
    n = _CHEB_DEGREE + 1
    theta_i = np.pi * (np.arange(n) + 0.5) / n
    mu = _CHEB_MID[:, None] + _CHEB_HALF[:, None] * np.cos(theta_i)[None, :]
    f = _fermi_quadrature(np.exp(mu.ravel())).reshape((len(ORDERS),) + mu.shape)
    # T_k at node i is cos(pi k (2i + 1) / 2n): reducing the integer k (2i + 1)
    # modulo 4n first keeps the angle, and so T_k, accurate to an ulp
    m = np.arange(n)[:, None] * (2 * np.arange(n) + 1)[None, :] % (4 * n)
    dct = np.cos(np.pi * m / (2 * n))                         # (k, i)
    coef = (2.0 / n) * np.einsum("ki,spi->ksp", dct, f)
    coef[0] *= 0.5
    return coef


_CHEB_COEF = _chebyshev_table()
#: the same coefficients as (degree + 1, pieces, 5): a point's gather is rows
_CHEB_ROWS = np.ascontiguousarray(_CHEB_COEF.transpose(0, 2, 1))


def _fermi_chebyshev(mu: np.ndarray) -> np.ndarray:
    """li for Fermions at mu = ln z in [-1, ln FERMI_Z_MAX]: (5, N).

    Clenshaw's recurrence on each point's piece, elementwise throughout.
    The gather copies each point's five coefficients of a degree as one row
    and 2 x is full shape, so every pass runs on contiguous (N, 5) arrays;
    the result is their (5, N) transpose.
    """
    j = np.searchsorted(_CHEB_EDGES[1:-1], mu, side="right")   # 0 .. pieces - 1
    x = ((mu - _CHEB_MID[j]) / _CHEB_HALF[j])[:, None]
    c = _CHEB_ROWS.take(j, axis=1)
    shape = (mu.size, len(ORDERS))
    b1, b2, t, two_x = c[-1].copy(), np.zeros(shape), np.empty(shape), np.empty(shape)
    np.multiply(x, 2.0, out=two_x)
    for ck in c[-2:0:-1]:
        # b1 <- 2 x b1 - b2 + c_k, in place: this loop is the kernel's cost
        np.multiply(two_x, b1, out=t)
        t -= b2
        t += ck
        b1, b2, t = t, b1, b2
    return (x * b1 - b2 + c[0]).T


def _bose_robinson(mu: np.ndarray) -> np.ndarray:
    """li for Bosons at mu = ln z in (-1, 0): (5, N)."""
    mk = np.empty((_K_ROBINSON, mu.size))
    mk[:] = mu
    np.multiply.accumulate(mk, axis=0, out=mk)   # power-major: one pass a power
    # summed per (order, point) like the series, the smallest terms first;
    # einsum sums the reversed powers of a point in order in either layout
    return (_GAMMA_1MS * (-mu) ** (_S - 1.0) + _ROBINSON_COEF[0][:, None]
            + np.einsum("nk,ks->sn", mk.T[:, ::-1], _ROBINSON_COEF[:0:-1]))


def eval_polylog_batch(z, theta) -> np.ndarray:
    """Vectorized evaluation: li as one (5,) + z.shape array, row k holding
    li[ORDERS[k]] (z at least 1-D).

    Parameters
    ----------
    z : array_like of positive fugacities (Boson: < 1 - 1e-12, Fermion:
        <= 1e12).
    theta : -1, 0 or +1.
    """
    theta = _check_theta(theta)
    z = np.atleast_1d(np.asarray(z, dtype=float))
    _validate_z(z, theta)
    if theta == 0:
        return np.repeat(z[None], len(ORDERS), axis=0)
    shape = (len(ORDERS),) + z.shape
    above = _fermi_chebyshev if theta == 1 else _bose_robinson
    lo = z <= _SERIES_Z_MAX
    n_lo = np.count_nonzero(lo)
    # the kernels are elementwise: one that serves every point runs unmasked
    if n_lo == z.size:
        return _series(z.ravel(), theta).reshape(shape)
    if n_lo == 0:
        return above(np.log(z.ravel())).reshape(shape)
    vals = np.empty(shape)
    vals[:, lo] = _series(z[lo], theta)
    vals[:, ~lo] = above(np.log(z[~lo]))
    return vals
