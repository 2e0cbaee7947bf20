"""Checks of the half-integer polylogarithm kernels.

Frozen reference values were generated with mpmath at 40 digits before the
evaluator was written; the mpmath cross-check below regenerates a few of
them live so a regression cannot hide behind the frozen copies.
"""
import hashlib
import math
import os
import subprocess
import sys
import tracemalloc

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta

import qgrad13
from qgrad13 import BOSE_Z_MAX, ZETA_HALF, DomainError, eval_polylog_batch
from qgrad13 import polylog, spectral, state
from qgrad13.polylog import ORDERS

# mpmath, 40 digits, rounded to double; one value per order
FERMION_Z5 = (1.297265404819419, 2.284211284873108, 3.17005576844848,
              3.849002029404993, 4.314728869554372)

BOSON_NEAR_ONE_32 = 2.612020872517075  # li[3/2] at z = 1 - 1e-8


def test_fermion_hyperbolicity_bound_against_mpmath():
    """FERMI_Z_C is the root of c1^2 - 4 c0 at 40 digits, and the coefficient
    record's discriminant changes sign across it."""
    def disc(mu):
        L1, L3, L5, L7, L9 = (-mpmath.polylog(mpmath.mpf(k) / 2, -mpmath.exp(mu))
                              for k in (1, 3, 5, 7, 9))
        S = 5 * L1 * L5 - 3 * L3 ** 2
        c0 = 3 * (7 * L3 * L7 - 5 * L5 ** 2) / S
        c1 = (140 * L1 * L5 * L9 + 175 * L1 * L7 ** 2 - 84 * L3 ** 2 * L9
              - 75 * L3 * L5 * L7) / (15 * L7 * S)
        return mpmath.re(c1 ** 2 - 4 * c0)

    with mpmath.workdps(40):
        z_c = float(mpmath.exp(mpmath.findroot(disc, mpmath.mpf("12.347"))))
    assert abs(polylog.FERMI_Z_C / z_c - 1.0) <= 1e-10
    for z, sign in ((0.99 * z_c, 1.0), (1.01 * z_c, -1.0)):
        c = state.EquilibriumParams(theta=1, z=z, u=np.zeros(3), T=1.0).coeffs
        assert sign * (c.c1 ** 2 - 4.0 * c.c0) > 0.0


def test_fermion_branch_crossing_against_mpmath():
    """FERMI_Z_CROSS is the root of alpha^2 - c1 alpha + c0 at 40 digits, to
    1e-10, and the coefficient record's branch gap changes sign across it.
    li is the Fermi-Dirac integral over x = t^2 here: mpmath.polylog near
    z = -12 takes about a second per order at 40 digits."""
    def li(s, mu):
        f = lambda t: t ** (2 * s - 1) / (mpmath.exp(t * t - mu) + 1)
        return 2 * mpmath.quad(f, [0, mpmath.sqrt(mu), mpmath.inf]) / mpmath.gamma(s)

    def gap(mu):
        L1, L3, L5, L7, L9 = (li(mpmath.mpf(k) / 2, mu) for k in (1, 3, 5, 7, 9))
        S = 5 * L1 * L5 - 3 * L3 ** 2
        c0 = 3 * (7 * L3 * L7 - 5 * L5 ** 2) / S
        c1 = (140 * L1 * L5 * L9 + 175 * L1 * L7 ** 2 - 84 * L3 ** 2 * L9
              - 75 * L3 * L5 * L7) / (15 * L7 * S)
        alpha = 7 * L9 / (5 * L7)
        return alpha ** 2 - c1 * alpha + c0

    with mpmath.workdps(40):
        mu = mpmath.findroot(gap, (mpmath.mpf("2.458"), mpmath.mpf("2.459")), tol=1e-30)
        z_star = float(mpmath.exp(mu))
    assert abs(spectral.FERMI_Z_CROSS / z_star - 1.0) <= 1e-10
    gaps = []
    for z in (0.99 * z_star, 1.01 * z_star):
        c = state.EquilibriumParams(theta=1, z=z, u=np.zeros(3), T=1.0).coeffs
        gaps.append(c.alpha * c.alpha - c.c1 * c.alpha + c.c0)
    assert gaps[0] * gaps[1] < 0.0


def test_fermion_z5_frozen():
    got = eval_polylog_batch(5.0, 1)
    assert got.shape == (5, 1)
    for val, ref in zip(got[:, 0], FERMION_Z5):
        assert abs(float(val) / ref - 1.0) < 1e-12


def test_fermion_z1_eta_identities():
    # -Li_s(-1) = (1 - 2^(1-s)) zeta(s), the Dirichlet eta function
    got = eval_polylog_batch(1.0, 1)
    assert abs(float(got[0, 0]) / ((1.0 - math.sqrt(2.0)) * ZETA_HALF) - 1.0) < 1e-12
    eta_32 = (1.0 - 2.0 ** -0.5) * float(zeta(1.5))
    assert abs(float(got[1, 0]) / eta_32 - 1.0) < 1e-12


def test_boson_near_condensation():
    got = eval_polylog_batch(1.0 - 1e-8, -1)
    assert abs(float(got[1, 0]) / BOSON_NEAR_ONE_32 - 1.0) < 1e-10
    # approaches zeta(3/2) from below at a sqrt(1-z) rate
    assert 0.0 < float(zeta(1.5)) - float(got[1, 0]) < 1e-3
    # the s = 1/2 order diverges like Gamma(1/2)/sqrt(-ln z) + zeta(1/2)
    mu = math.log(1.0 - 1e-8)
    ref = math.sqrt(math.pi / -mu) + ZETA_HALF
    assert abs(float(got[0, 0]) / ref - 1.0) < 1e-10


def test_classical_identity_is_bitwise():
    z = np.array([1e-3, 0.25, 1.0, 7.5, 1e4])
    got = eval_polylog_batch(z, 0)
    assert got.shape == (5, z.size)
    assert np.all(got == z)


@pytest.mark.parametrize("theta,zs", [
    (1, [0.3, 1.2, 5.0, 40.0]),
    (-1, [0.3, 0.95, 0.999999]),
])
def test_against_mpmath(theta, zs):
    mpmath.mp.dps = 30
    for z in zs:
        got = eval_polylog_batch(z, theta)[:, 0]
        for k, s in enumerate(ORDERS):
            val = -theta * mpmath.polylog(s, -theta * z)
            # continuation through Lerch can leave a spurious tiny imag part
            assert abs(mpmath.im(val)) < 1e-25 * abs(val)
            ref = float(mpmath.re(val))
            assert abs(got[k] / ref - 1.0) < 5e-13, (theta, z, s)


def _chebyshev_test_mu():
    """ln z at every piece edge of the Fermion table and two points inside each
    piece, over (-1, ln FERMI_Z_MAX]."""
    edges = polylog._CHEB_EDGES
    return np.linspace(edges[0], edges[-1], 3 * (edges.size - 1) + 1)[1:]


def test_fermi_chebyshev_against_mpmath(monkeypatch):
    """The Fermion table against mpmath at 30 digits, FERMI_Z_MAX included;
    eval_polylog_batch runs the table, never the panel quadrature."""
    def quadrature_called(z):
        raise AssertionError("eval_polylog_batch reached the panel quadrature")

    monkeypatch.setattr(polylog, "_fermi_quadrature", quadrature_called)
    z = np.append(np.exp(_chebyshev_test_mu()[:-1]), polylog.FERMI_Z_MAX)
    assert z.size >= 40 and np.all(z > polylog._SERIES_Z_MAX)
    got = eval_polylog_batch(z, 1)
    mpmath.mp.dps = 30
    for i, zi in enumerate(z):
        for k, s in enumerate(ORDERS):
            ref = float(mpmath.re(-mpmath.polylog(s, -mpmath.mpf(zi))))
            assert abs(got[k, i] / ref - 1.0) < 1e-14, (zi, s)


def test_fermi_chebyshev_continuous_at_piece_edges():
    edges = polylog._CHEB_EDGES[1:-1]
    below = polylog._fermi_chebyshev(np.nextafter(edges, -np.inf))
    above = polylog._fermi_chebyshev(np.nextafter(edges, np.inf))
    assert np.all(np.abs(above / below - 1.0) < 1e-14)


def _mpmath_worst(z, theta):
    """Largest relative distance of li from 30-digit mpmath over z and orders."""
    got = eval_polylog_batch(z, theta)
    worst = 0.0
    with mpmath.workdps(30):
        for i, zi in enumerate(z):
            for k, s in enumerate(ORDERS):
                ref = float(mpmath.re(-theta * mpmath.polylog(s, -theta * mpmath.mpf(zi))))
                worst = max(worst, abs(got[k, i] / ref - 1.0))
    return worst


def test_bose_robinson_against_mpmath(rng):
    """Robinson's expansion serves every Boson z in (e^-1, 1)."""
    e1 = polylog._SERIES_Z_MAX
    z = np.concatenate([[np.nextafter(e1, 1.0)], rng.uniform(e1, 0.99, 30),
                        1.0 - 10.0 ** -rng.uniform(2.0, 11.0, 10)])
    assert _mpmath_worst(z, -1) < 5e-15


@pytest.mark.parametrize("theta", [1, -1], ids=["fermion", "boson"])
def test_series_against_mpmath(theta, rng):
    """The 48-term series serves every z up to e^-1, that bound included."""
    z = np.concatenate([[polylog._SERIES_Z_MAX], rng.uniform(0.05, 0.3678, 25),
                        10.0 ** rng.uniform(-12.0, -1.3, 10)])
    assert _mpmath_worst(z, theta) < 5e-15


def test_branch_junction_continuity():
    # one ulp above e^-1 switches branch; the smooth change over one ulp is
    # ~1e-16, so the gap measures the branch mismatch itself
    z_lo = polylog._SERIES_Z_MAX
    z_hi = float(np.nextafter(z_lo, 1.0))
    for th in (1, -1):
        lo = eval_polylog_batch(z_lo, th)
        hi = eval_polylog_batch(z_hi, th)
        for k in range(len(ORDERS)):
            assert abs(float(lo[k, 0]) - float(hi[k, 0])) < 1e-10


def test_batch_matches_scalars_across_branches(rng):
    """1000 z per statistics over every branch: the whole batch, a sub-batch
    and one-by-one calls give the same bits."""
    fermion = np.append(np.exp(rng.uniform(math.log(1e-3),
                                           math.log(polylog.FERMI_Z_MAX), 999)),
                        polylog.FERMI_Z_MAX)
    boson = rng.permutation(np.concatenate([
        rng.uniform(1e-3, 0.9, 500), 1.0 - 10.0 ** -rng.uniform(1.0, 9.0, 500)]))
    e1 = polylog._SERIES_Z_MAX
    switch = [e1, float(np.nextafter(e1, 1.0))]
    for theta, z in ((1, np.append(fermion, switch)), (-1, np.append(boson, switch))):
        assert np.any(z <= e1) and np.any(z > e1)
        whole = eval_polylog_batch(z, theta)
        sub = eval_polylog_batch(z[3::7], theta)
        single = [eval_polylog_batch(zi, theta) for zi in z]
        for k in range(len(ORDERS)):
            assert np.array_equal(whole[k], [v[k, 0] for v in single]), (theta, k)
            assert np.array_equal(whole[k][3::7], sub[k]), (theta, k)


def test_order_monotonicity(theta):
    if theta == 0:
        pytest.skip("all orders coincide classically")
    zs = np.array([0.05, 0.5, 0.89, 0.93]) if theta == -1 \
        else np.array([0.05, 0.5, 2.0, 30.0])
    got = eval_polylog_batch(zs, theta)
    for lo, hi in zip(got[:-1], got[1:]):
        if theta == -1:
            assert np.all(lo > hi)  # Bose functions drop with order
        else:
            assert np.all(lo < hi)


def test_monotone_in_z(theta):
    zs = np.linspace(0.05, 0.95 if theta == -1 else 20.0, 40)
    got = eval_polylog_batch(zs, theta)
    for row in got:
        assert np.all(np.diff(row) > 0.0)


@pytest.mark.parametrize("theta,z", [(1, 0.4), (1, 8.0), (-1, 0.4), (-1, 0.97)])
def test_derivative_identity(theta, z):
    # d li[s] / dz = li[s-1] / z, by central difference
    h = 1e-6 * z
    li = eval_polylog_batch(z, theta)
    for k in range(1, len(ORDERS)):
        hi = float(eval_polylog_batch(z + h, theta)[k, 0])
        lo = float(eval_polylog_batch(z - h, theta)[k, 0])
        fd = (hi - lo) / (2.0 * h)
        assert abs(float(li[k - 1, 0]) / z / fd - 1.0) < 1e-8


@pytest.mark.parametrize("bad", [0.0, -1.0, float("nan"), float("inf")])
def test_rejects_bad_fugacity(bad, theta):
    with pytest.raises(DomainError):
        eval_polylog_batch(bad, theta)


def test_rejects_boson_condensation():
    with pytest.raises(DomainError):
        eval_polylog_batch(1.0, -1)
    with pytest.raises(DomainError):
        eval_polylog_batch(BOSE_Z_MAX, -1)
    # one ulp below the boundary is still admissible
    eval_polylog_batch(float(np.nextafter(BOSE_Z_MAX, 0.0)), -1)


def test_rejects_fermion_above_table():
    """The Fermi-Dirac table ends at FERMI_Z_MAX, the top of the fit's range."""
    assert state._LOG_Z_HI[1] == math.log(polylog.FERMI_Z_MAX)
    eval_polylog_batch(polylog.FERMI_Z_MAX, 1)
    with pytest.raises(DomainError):
        eval_polylog_batch(float(np.nextafter(polylog.FERMI_Z_MAX, np.inf)), 1)


def _z_diagnosis(z, theta):
    """The fugacity check as it was before its combined fast test: the
    behaviour `polylog._validate_z` keeps."""
    if not np.isfinite(z).all():
        raise DomainError("fugacity must be finite")
    if (z <= 0.0).any():
        raise DomainError("fugacity must be positive")
    if theta == -1 and (z >= BOSE_Z_MAX).any():
        raise DomainError(
            f"Boson fugacity must stay below {BOSE_Z_MAX} (condensation boundary)")
    if theta == 1 and (z > polylog.FERMI_Z_MAX).any():
        raise DomainError(
            f"Fermion fugacity must not exceed {polylog.FERMI_Z_MAX:g} (range of the "
            "Fermi-Dirac table)")


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -0.0, -1.0,
                                 BOSE_Z_MAX, float(np.nextafter(BOSE_Z_MAX, 0.0)),
                                 polylog.FERMI_Z_MAX,
                                 float(np.nextafter(polylog.FERMI_Z_MAX, np.inf)),
                                 1e300, 5e-324, None])
def test_fugacity_check_matches_diagnosis(bad, theta):
    """Same exception type and message, or none, at every bound: Boson z at
    BOSE_Z_MAX is rejected, Fermion z at FERMI_Z_MAX accepted and the next
    float above it rejected.  The entry sits between admissible ones."""
    z = np.array([0.5, 0.2] + ([] if bad is None else [bad]) + [0.3])
    outcomes = []
    for check in (_z_diagnosis, polylog._validate_z):
        try:
            check(z, theta)
            outcomes.append(None)
        except DomainError as exc:
            outcomes.append((type(exc), str(exc)))
    assert outcomes[0] == outcomes[1]
    if bad == polylog.FERMI_Z_MAX and theta == 1:
        assert outcomes[0] is None
    polylog._validate_z(np.array([]), theta)


@pytest.mark.parametrize("bad_theta", [2, -2, 0.5, "x"])
def test_rejects_bad_theta(bad_theta):
    with pytest.raises(DomainError):
        eval_polylog_batch(0.5, bad_theta)


@given(z=st.floats(min_value=1e-6, max_value=0.89))
@settings(max_examples=60, deadline=None)
def test_series_partial_sum_bounds(z):
    """First terms of the defining series bracket the value, on the series
    branch (z <= e^-1) and past it."""
    fermi = eval_polylog_batch(z, 1)
    bose = eval_polylog_batch(z, -1)
    for k, s in enumerate(ORDERS):
        f = float(fermi[k, 0])
        assert z - z * z / 2.0 ** s <= f <= z
        b = float(bose[k, 0])
        assert z <= b <= z / (1.0 - z) + 1e-15


def _masked_fermi_quadrature(z):
    """The panel quadrature with the occupancy scattered through masks."""
    mu = np.log(z)
    upper = max(1.0, float(np.max(mu))) + polylog._TAIL_MARGIN
    y, wy = polylog._GL_NODES, polylog._GL_WEIGHTS
    y01 = 0.5 * (y + 1.0)
    t_parts, w_parts = [y01 ** 2], [0.5 * wy * 2.0 * y01]
    n_panels = int(math.ceil((upper - 1.0) / polylog._PANEL_WIDTH))
    edges = np.linspace(1.0, upper, n_panels + 1)
    for a, b in zip(edges[:-1], edges[1:]):
        t_parts.append(0.5 * (b - a) * (y + 1.0) + a)
        w_parts.append(0.5 * (b - a) * wy)
    t, w = np.concatenate(t_parts), np.concatenate(w_parts)
    occ = np.empty((z.size, t.size))
    x = t[None, :] - mu[:, None]
    pos = x >= 0.0
    ex = np.exp(np.where(pos, -x, x))
    occ[pos] = (ex / (1.0 + ex))[pos]
    occ[~pos] = (1.0 / (1.0 + ex))[~pos]
    sq = np.sqrt(t)
    tpow = (1.0 / sq, sq, t * sq, t * t * sq, t * t * t * sq)
    return [occ @ (w * tp) / g for tp, g in zip(tpow, polylog._GAMMA_S)]


def test_fermi_quadrature_bits_match_masked_occupancy(rng):
    """The occupancy without boolean scatters rounds exactly as the masked one,
    at batch sizes on and off a multiple of the occupancy's row block, the
    table's 350 among them."""
    assert 350 % polylog._OCC_ROWS and 9 % polylog._OCC_ROWS
    for size in (1, 7, 9, 350, 400):
        # ln z from -0.1 to 27, and the top of the Fermion range, 1e12
        z = np.append(np.exp(rng.uniform(-0.1, 27.0, size - 1)), 1e12)
        got = polylog._fermi_quadrature(z)
        ref = _masked_fermi_quadrature(z)
        assert got.shape == (5, size)
        for k in range(len(ORDERS)):
            assert np.array_equal(got[k], ref[k]), (size, k)


# The kernels as they ran before their layouts changed: references that the
# kernels must match bit for bit.  A point's value is summed by einsum, whose
# order follows its operands' layout, so these pin the layouts' effect too.

def _series_reference(z, theta):
    zk = np.cumprod(np.broadcast_to(z[:, None], (z.size, polylog._K_SERIES)), axis=1)
    return np.einsum("nk,sk->sn", zk, polylog._SERIES_COEF[theta])


def _robinson_reference(mu):
    mk = np.cumprod(np.broadcast_to(mu[:, None], (mu.size, polylog._K_ROBINSON)), axis=1)
    return (polylog._GAMMA_1MS * (-mu) ** (polylog._S - 1.0)
            + polylog._ROBINSON_COEF[0][:, None]
            + np.einsum("nk,ks->sn", mk[:, ::-1], polylog._ROBINSON_COEF[:0:-1]))


def _chebyshev_reference(mu):
    j = np.searchsorted(polylog._CHEB_EDGES, mu, side="right") - 1
    j = np.minimum(np.maximum(j, 0), polylog._CHEB_PIECES - 1)
    x = (mu - polylog._CHEB_MID[j]) / polylog._CHEB_HALF[j]
    c = polylog._CHEB_COEF.take(j, axis=2)
    two_x = np.repeat(2.0 * x[None, :], len(ORDERS), axis=0)
    b1, b2, t = c[-1].copy(), np.zeros_like(c[0]), np.empty_like(c[0])
    for ck in c[-2:0:-1]:
        np.multiply(two_x, b1, out=t)
        t -= b2
        t += ck
        b1, b2, t = t, b1, b2
    return x * b1 - b2 + c[0]


_KERNEL_SIZES = (1, 2, 7, 64, 257, 1000, 8193)   # 8193: past einsum's buffer


def _with_edges(draw, edges, size):
    """`size` points: the edge points first, as many as fit, then draws."""
    edges = np.asarray(edges, dtype=float)[:size]
    return np.concatenate([edges, draw(size - edges.size)])


def _up(x):
    return float(np.nextafter(x, np.inf))


def _down(x):
    return float(np.nextafter(x, -np.inf))


@pytest.mark.parametrize("theta", [1, -1], ids=["fermion", "boson"])
def test_series_bits_match_reference(theta, rng):
    """The series at z = e^-1, one ulp below it and the smallest normal float,
    and at random z down to 1e-300."""
    e1 = polylog._SERIES_Z_MAX
    for size in _KERNEL_SIZES:
        z = _with_edges(lambda n: 10.0 ** rng.uniform(-300.0, math.log10(e1), n),
                        [e1, _down(e1), np.finfo(float).tiny, 0.25], size)
        got = polylog._series(z, theta)
        assert got.shape == (5, size)
        assert np.array_equal(got, _series_reference(z, theta)), size


def test_bose_robinson_bits_match_reference(rng):
    """Robinson's expansion one ulp above e^-1, at the float below
    BOSE_Z_MAX and the one below that, and at random z in (e^-1, 1)."""
    e1 = polylog._SERIES_Z_MAX
    top = _down(BOSE_Z_MAX)
    for size in _KERNEL_SIZES:
        z = _with_edges(lambda n: np.concatenate([
            rng.uniform(e1, 0.99, n - n // 2),
            1.0 - 10.0 ** -rng.uniform(2.0, 12.0, n // 2)]),
            [_up(e1), top, _down(top), 0.5], size)
        mu = np.log(z)
        got = polylog._bose_robinson(mu)
        assert got.shape == (5, size)
        assert np.array_equal(got, _robinson_reference(mu)), size


def test_fermi_chebyshev_bits_match_reference(rng):
    """The Fermion table one ulp above e^-1, at z = 1e12, at every piece
    edge and one ulp to either side of it, and at random mu."""
    e1 = polylog._SERIES_Z_MAX
    edges = polylog._CHEB_EDGES
    edge_mu = np.concatenate([edges, np.nextafter(edges, -np.inf)[1:],
                              np.nextafter(edges, np.inf)[:-1]])
    for size in _KERNEL_SIZES:
        mu = _with_edges(lambda n: rng.uniform(-1.0, math.log(polylog.FERMI_Z_MAX), n),
                         np.concatenate([[math.log(_up(e1)),
                                          math.log(polylog.FERMI_Z_MAX)], edge_mu]),
                         size)
        got = polylog._fermi_chebyshev(mu)
        assert got.shape == (5, size)
        assert np.array_equal(got, _chebyshev_reference(mu)), size


@pytest.mark.parametrize("theta", [1, -1], ids=["fermion", "boson"])
def test_batch_bits_match_reference_kernels(theta, rng):
    """eval_polylog_batch on one branch, on the other and on both mixed,
    flat and as a 2-D batch, is the reference kernels routed by z <= e^-1;
    z = e^-1 itself and the top of the range are among the points."""
    e1 = polylog._SERIES_Z_MAX
    top = polylog.FERMI_Z_MAX if theta == 1 else _down(BOSE_Z_MAX)
    above = _chebyshev_reference if theta == 1 else _robinson_reference
    for size in (1, 7, 257, 8193):
        lo = _with_edges(lambda n: 10.0 ** rng.uniform(-12.0, math.log10(e1), n),
                         [e1], size)
        hi = _with_edges(lambda n: np.exp(rng.uniform(_up(-1.0), math.log(top), n)),
                         [top], size)
        mixed = np.where(rng.random(size) < 0.5, lo, hi)
        for z in (lo, hi, mixed, mixed[:size - size % 2].reshape(-1, 2)):
            flat = z.ravel()
            ref = np.empty((5, flat.size))
            below = flat <= e1
            ref[:, below] = _series_reference(flat[below], theta)
            ref[:, ~below] = above(np.log(flat[~below]))
            got = eval_polylog_batch(z, theta)
            assert got.shape == (5,) + z.shape
            assert np.array_equal(got.reshape(5, -1), ref), size


def test_chebyshev_table_bits_pinned():
    """The Fermion table built at import, byte for byte."""
    assert polylog._CHEB_COEF.shape == (25, 5, 14)
    assert hashlib.sha256(polylog._CHEB_COEF.tobytes()).hexdigest() == (
        "2891854b6140f6d0b7a7f3421f15f5603127e54ce6689569df0d3d1a54df824f")


def test_chebyshev_table_peak_memory():
    """Building the table holds one full (nodes, quadrature points) occupancy
    and only small blocks besides: its traced peak stays within 1.25 times
    that array's bytes."""
    rows = polylog._CHEB_PIECES * (polylog._CHEB_DEGREE + 1)
    one = rows * 960 * 8   # 15 panels of 64 Gauss-Legendre points
    tracemalloc.start()
    try:
        coef = polylog._chebyshev_table()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rows == 350 and np.array_equal(coef, polylog._CHEB_COEF)
    assert peak <= 1.25 * one, peak


def test_zeta_table_pins_scipy_and_mpmath():
    """The Robinson coefficients' zeta values are scipy's floats, within
    1e-15 of 30-digit mpmath."""
    table = polylog._ZETA_HALF_INTEGERS
    assert len(table) == 20
    with mpmath.workdps(30):
        for k, value in enumerate(table, start=1):
            assert value == float(zeta(k + 0.5)), k
            exact = mpmath.zeta(mpmath.mpf(k) + mpmath.mpf(1) / 2)
            assert abs(value - exact) <= 1e-15 * exact, k


def test_import_loads_no_scipy_submodule():
    """The package runs on numpy alone: importing it and its CLI, a Fermion
    sweep (which names the branch crossing) and the annihilation suite (which
    checks across it) load no scipy module."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(qgrad13.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, qgrad13, qgrad13.cli\n"
            "loaded = lambda: sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "print(loaded())\n"
            "qgrad13.cli.main(['sweep-eigs', '--theta', '1'])\n"
            "qgrad13.cli.main(['verify', '--suite', 'annihilation'])\n"
            "print(loaded())")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout.splitlines()
    assert out[0] == "[]"
    assert "branch crossing at z = 11.687471852165643" in out
    assert "verify: OK" in out
    assert out[-1] == "[]"
