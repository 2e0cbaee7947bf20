"""Checks of the half-integer polylogarithm kernels.

Frozen reference values were generated with mpmath at 40 digits before the
evaluator was written; the mpmath cross-check below regenerates a few of
them live so a regression cannot hide behind the frozen copies.
"""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import zeta

from qgrad13 import (BOSE_Z_MAX, ZETA_HALF, DomainError, eval_polylog_batch,
                     eval_polylog_set)
from qgrad13 import polylog
from qgrad13.polylog import ORDERS

# mpmath, 40 digits, rounded to double
FERMION_Z5 = {
    0.5: 1.297265404819419,
    1.5: 2.284211284873108,
    2.5: 3.17005576844848,
    3.5: 3.849002029404993,
    4.5: 4.314728869554372,
}

BOSON_NEAR_ONE_32 = 2.612020872517075  # li[3/2] at z = 1 - 1e-8


def test_fermion_z5_frozen():
    got = eval_polylog_batch(5.0, 1)
    for s, ref in FERMION_Z5.items():
        assert abs(float(got[s][0]) / ref - 1.0) < 1e-12


def test_fermion_z1_eta_identities():
    # -Li_s(-1) = (1 - 2^(1-s)) zeta(s), the Dirichlet eta function
    got = eval_polylog_batch(1.0, 1)
    assert abs(float(got[0.5][0]) / ((1.0 - math.sqrt(2.0)) * ZETA_HALF) - 1.0) < 1e-12
    eta_32 = (1.0 - 2.0 ** -0.5) * float(zeta(1.5))
    assert abs(float(got[1.5][0]) / eta_32 - 1.0) < 1e-12


def test_boson_near_condensation():
    got = eval_polylog_batch(1.0 - 1e-8, -1)
    assert abs(float(got[1.5][0]) / BOSON_NEAR_ONE_32 - 1.0) < 1e-10
    # approaches zeta(3/2) from below at a sqrt(1-z) rate
    assert 0.0 < float(zeta(1.5)) - float(got[1.5][0]) < 1e-3
    # the s = 1/2 order diverges like Gamma(1/2)/sqrt(-ln z) + zeta(1/2)
    mu = math.log(1.0 - 1e-8)
    ref = math.sqrt(math.pi / -mu) + ZETA_HALF
    assert abs(float(got[0.5][0]) / ref - 1.0) < 1e-10


def test_classical_identity_is_bitwise():
    z = np.array([1e-3, 0.25, 1.0, 7.5, 1e4])
    got = eval_polylog_batch(z, 0)
    for s in ORDERS:
        assert np.all(got[s] == z)


@pytest.mark.parametrize("theta,zs", [
    (1, [0.3, 1.2, 5.0, 40.0]),
    (-1, [0.3, 0.95, 0.999999]),
])
def test_against_mpmath(theta, zs):
    mpmath.mp.dps = 30
    for z in zs:
        got = eval_polylog_set(z, theta)
        for s in ORDERS:
            val = -theta * mpmath.polylog(s, -theta * z)
            # continuation through Lerch can leave a spurious tiny imag part
            assert abs(mpmath.im(val)) < 1e-25 * abs(val)
            ref = float(mpmath.re(val))
            assert abs(got.li[s] / ref - 1.0) < 5e-13, (theta, z, s)


def test_branch_junction_continuity():
    # one ulp above 0.9 switches branch; the smooth change over one ulp is
    # ~1e-15, so the gap measures the branch mismatch itself
    z_hi = float(np.nextafter(0.9, 1.0))
    for th in (1, -1):
        lo = eval_polylog_batch(0.9, th)
        hi = eval_polylog_batch(z_hi, th)
        for s in ORDERS:
            assert abs(float(lo[s][0]) - float(hi[s][0])) < 1e-10


def test_batch_matches_scalars_across_branches():
    z = np.array([0.5, 5.0])  # series branch and quadrature branch together
    batch = eval_polylog_batch(z, 1)
    for i, zi in enumerate(z):
        single = eval_polylog_batch(float(zi), 1)
        for s in ORDERS:
            assert batch[s][i] == single[s][0]


def test_order_monotonicity(theta):
    if theta == 0:
        pytest.skip("all orders coincide classically")
    zs = np.array([0.05, 0.5, 0.89, 0.93]) if theta == -1 \
        else np.array([0.05, 0.5, 2.0, 30.0])
    got = eval_polylog_batch(zs, theta)
    for lo, hi in zip(ORDERS[:-1], ORDERS[1:]):
        if theta == -1:
            assert np.all(got[lo] > got[hi])  # Bose functions drop with order
        else:
            assert np.all(got[lo] < got[hi])


def test_monotone_in_z(theta):
    zs = np.linspace(0.05, 0.95 if theta == -1 else 20.0, 40)
    got = eval_polylog_batch(zs, theta)
    for s in ORDERS:
        assert np.all(np.diff(got[s]) > 0.0)


@pytest.mark.parametrize("theta,z", [(1, 0.4), (1, 8.0), (-1, 0.4), (-1, 0.97)])
def test_derivative_identity(theta, z):
    # d li[s] / dz = li[s-1] / z, by central difference
    h = 1e-6 * z
    li = eval_polylog_batch(z, theta)
    for s in (1.5, 2.5, 3.5, 4.5):
        hi = float(eval_polylog_batch(z + h, theta)[s][0])
        lo = float(eval_polylog_batch(z - h, theta)[s][0])
        fd = (hi - lo) / (2.0 * h)
        assert abs(float(li[s - 1.0][0]) / z / fd - 1.0) < 1e-8


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


@pytest.mark.parametrize("bad_theta", [2, -2, 0.5, "x"])
def test_rejects_bad_theta(bad_theta):
    with pytest.raises(DomainError):
        eval_polylog_batch(0.5, bad_theta)


@given(z=st.floats(min_value=1e-6, max_value=0.89))
@settings(max_examples=60, deadline=None)
def test_series_partial_sum_bounds(z):
    """First terms of the defining series bracket the value on the series branch."""
    fermi = eval_polylog_batch(z, 1)
    bose = eval_polylog_batch(z, -1)
    for s in ORDERS:
        f = float(fermi[s][0])
        assert z - z * z / 2.0 ** s <= f <= z
        b = float(bose[s][0])
        assert z <= b <= z / (1.0 - z) + 1e-15


def test_set_as_dict_round_trip():
    ps = eval_polylog_set(0.7, -1)
    d = ps.as_dict()
    assert d["theta"] == -1 and d["z"] == 0.7
    assert set(d["li"]) == {"1/2", "3/2", "5/2", "7/2", "9/2"}
    assert d["li"]["5/2"] == ps.li[2.5]


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
    tpow = {0.5: 1.0 / sq, 1.5: sq, 2.5: t * sq, 3.5: t * t * sq,
            4.5: t * t * t * sq}
    return {s: occ @ (w * tpow[s]) / polylog._GAMMA_S[s] for s in ORDERS}


def test_fermi_quadrature_bits_match_masked_occupancy(rng):
    """The occupancy without boolean scatters rounds exactly as the masked one."""
    for size in (1, 7, 400):
        # ln z from -0.1 to 27, and the top of the Fermion range, 1e12
        z = np.append(np.exp(rng.uniform(-0.1, 27.0, size - 1)), 1e12)
        got = polylog._fermi_quadrature(z)
        ref = _masked_fermi_quadrature(z)
        for s in ORDERS:
            assert np.array_equal(got[s], ref[s]), (size, s)
