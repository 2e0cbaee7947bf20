"""Equilibrium thermodynamics, fugacity fitting and the moment ansatz."""
import math

import numpy as np
import pytest

import qgrad13 as q
from qgrad13 import state
from qgrad13 import (CondensationError, DomainError, EquilibriumParams,
                     MomentState5, NoSolution, QuadratureNotConverged)
from qgrad13.analysis import random_moment_state


def _li(eq):
    return q.eval_polylog_set(eq.z, eq.theta).li


def test_equilibrium_density_pressure_formula(theta):
    z = 0.6 if theta == -1 else 2.0
    for T, hhat in ((1.0, 1.0), (0.35, 1.0), (2.0, 4.5)):
        eq = EquilibriumParams(theta=theta, z=z, u=np.zeros(3), T=T, hhat=hhat)
        li = _li(eq)
        pref = hhat * (2.0 * math.pi * T) ** 1.5
        assert abs(eq.rho / (pref * li[1.5]) - 1.0) < 1e-14
        assert abs(eq.p / (pref * T * li[2.5]) - 1.0) < 1e-14


def test_equilibrium_params_evaluates_polylog_once(theta, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return q.eval_polylog_batch(*args, **kwargs)

    monkeypatch.setattr(state, "eval_polylog_batch", counting)
    eq = EquilibriumParams(theta=theta, z=0.6, u=np.zeros(3), T=1.3)
    eq.li, eq.rho, eq.p
    assert len(calls) == 1
    eq.coeffs.alpha
    assert len(calls) == 1


def test_coefficient_record_batch_matches_scalar(theta):
    """The record over N fugacities is N scalar records, bit for bit.

    Both sides get the same li values: a batch li evaluation may round
    differently from one-by-one calls, and that is not the record's business.
    """
    zs = [0.05, 0.3, 0.6, 0.9] if theta == -1 else [0.05, 0.6, 3.0, 40.0]
    Ts = [0.4, 1.0, 1.7, 3.1]
    eqs = [EquilibriumParams(theta=theta, z=z, u=np.zeros(3), T=T)
           for z, T in zip(zs, Ts)]
    li = {s: np.array([eq.li[s] for eq in eqs]) for s in q.ORDERS}
    batch = state.LiCoeffs(li, np.array(Ts))
    for i, eq in enumerate(eqs):
        for name, value in vars(eq.coeffs).items():
            got = getattr(batch, name)[i]
            assert np.float64(got).tobytes() == np.float64(value).tobytes(), name


def test_equilibrium_moments_match_quadrature():
    # integrate the equilibrium distribution directly: number density and
    # (1/3) trace of the pressure tensor must land on the closed forms
    eq = EquilibriumParams(theta=-1, z=0.5, u=np.array([0.2, -0.1, 0.05]), T=2.0)
    st = q.equilibrium_state13(eq)
    f = lambda V: q.grad_ansatz_eval(st, eq, V)
    mass = q.moment_quadrature(f, eq, lambda V, C: np.ones(len(V)),
                               n_nodes=96, half_width=8.0)
    press = q.moment_quadrature(f, eq, lambda V, C: np.sum(C * C, axis=1) / 3.0,
                                n_nodes=96, half_width=8.0)
    assert abs(mass / eq.rho - 1.0) < 1e-8
    assert abs(press / eq.p - 1.0) < 1e-8


def test_ansatz_scales_inversely_with_hhat():
    base = EquilibriumParams(theta=1, z=1.5, u=np.zeros(3), T=1.0)
    scaled = EquilibriumParams(theta=1, z=1.5, u=np.zeros(3), T=1.0, hhat=3.0)
    v = np.array([[0.3, -0.2, 1.0], [0.0, 0.0, 0.0]])
    f0 = q.grad_ansatz_eval(q.equilibrium_state13(base), base, v)
    f3 = q.grad_ansatz_eval(q.equilibrium_state13(scaled), scaled, v)
    # rho triples with hhat while the occupancy stays put, so f itself is
    # hhat-independent; the moments pick up the factor through rho/hhat
    np.testing.assert_allclose(f3, f0, rtol=1e-13)


def test_fit_equilibrium_round_trip_reference_point():
    eq = EquilibriumParams(theta=1, z=3.0, u=np.zeros(3), T=0.8)
    back = q.fit_equilibrium(eq.rho, eq.p, 1)
    assert abs(back.z / 3.0 - 1.0) < 1e-10
    assert abs(back.T / 0.8 - 1.0) < 1e-10


def test_fit_equilibrium_round_trip_random(theta, rng):
    for _ in range(25):
        if theta == -1:
            z = float(rng.uniform(0.02, 0.98))
        else:
            z = float(10.0 ** rng.uniform(-2.0, 2.0 if theta == 1 else 1.0))
        T = float(rng.uniform(0.3, 3.0))
        hhat = float(rng.uniform(0.5, 2.0))
        eq = EquilibriumParams(theta=theta, z=z, u=np.zeros(3), T=T, hhat=hhat)
        back = q.fit_equilibrium(eq.rho, eq.p, theta, hhat=hhat)
        assert abs(back.z / z - 1.0) < 1e-10, z
        assert abs(back.T / T - 1.0) < 1e-10, z


def test_fit_state_recovers_equilibrium(theta, rng):
    for _ in range(10):
        st, eq = random_moment_state(rng, theta)
        back = q.fit_state(st, theta)
        assert abs(back.z / eq.z - 1.0) < 1e-10
        assert abs(back.T / eq.T - 1.0) < 1e-10
        np.testing.assert_array_equal(back.u, st.u)


def test_fit_fugacity_batch_round_trip(theta):
    if theta == -1:
        zs = np.array([0.05, 0.3, 0.9, 0.999, float(np.nextafter(q.BOSE_Z_MAX, 0)) / 1.001])
    elif theta == 1:
        zs = np.array([0.01, 1.0, 30.0, 500.0])
    else:
        zs = np.array([0.2, 1.0, 9.0])
    li = q.eval_polylog_batch(zs, theta)
    gstar = li[2.5] / li[1.5] ** (5.0 / 3.0)
    back = q.fit_fugacity_batch(gstar, theta)
    np.testing.assert_allclose(back, zs, rtol=1e-10)


def test_fugacity_fit_failure_modes():
    # Bosons: the ratio is bounded below by its condensation-boundary value
    # zeta(5/2)/zeta(3/2)^(5/3) ~ 0.2708
    li = q.eval_polylog_batch(float(np.nextafter(q.BOSE_Z_MAX, 0.0)), -1)
    g_min = float(li[2.5][0]) / float(li[1.5][0]) ** (5.0 / 3.0)
    with pytest.raises(CondensationError):
        q.fit_fugacity_batch(np.array([0.999 * g_min]), -1)
    # Fermions: the ratio tends to a positive constant in the degenerate limit
    with pytest.raises(NoSolution):
        q.fit_fugacity_batch(np.array([0.45]), 1)
    # and no statistics reaches arbitrarily dilute ratios within the z range
    with pytest.raises(NoSolution):
        q.fit_fugacity_batch(np.array([1e10]), 1)


def test_state5_hat_construction():
    eq = EquilibriumParams(theta=1, z=2.0, u=np.zeros(3), T=1.5)
    st = q.state5_from_hat(eq, sigma11_hat=0.4, q1_hat=-0.7, u1=0.3)
    assert st.p == eq.p
    assert abs(st.p11 - eq.p * 1.4) < 1e-13
    assert abs(st.q1 + 0.7 * eq.p * math.sqrt(1.5)) < 1e-13
    assert st.u1 == 0.3
    full = q.state13_from_state5(st)
    assert full.p_ij[0, 0] == st.p11
    # transverse pressures keep the trace: p22 = p33 = (3p - p11)/2
    assert abs(full.p_ij[1, 1] - 0.5 * (3.0 * eq.p - st.p11)) < 1e-13
    assert full.q[0] == st.q1 and full.q[1] == 0.0


@pytest.mark.parametrize("shat", [-1.0, -1.5, 2.0, 2.5])
def test_state5_rejects_outside_window(shat):
    eq = EquilibriumParams(theta=0, z=1.0, u=np.zeros(3), T=1.0)
    with pytest.raises(DomainError):
        MomentState5(rho=eq.rho, u1=0.0, p11=eq.p * (1.0 + shat), q1=0.0, p=eq.p)


def test_ansatz_reproduces_its_own_moments(theta, rng):
    for _ in range(3):
        st, eq = random_moment_state(rng, theta, bose_z_max=0.8)
        mom = q.ansatz_moments(st, eq, n_nodes=72, half_width=8.0)
        scale = eq.p
        assert abs(mom["rho"] - st.rho) < 1e-6 * st.rho
        np.testing.assert_allclose(mom["u"], st.u, atol=1e-6 * math.sqrt(eq.T))
        np.testing.assert_allclose(mom["p_ij"], st.p_ij, atol=1e-6 * scale)
        np.testing.assert_allclose(mom["q"], st.q, atol=1e-6 * scale * math.sqrt(eq.T))


def test_closure_moments_symmetries(theta, rng):
    st, eq = random_moment_state(rng, theta)
    cl = q.closure_moments(st, eq)
    qi = cl.q_ijk
    assert qi.shape == (3, 3, 3)
    # fully symmetric third moment, symmetric fourth-moment correction
    np.testing.assert_array_equal(qi, np.swapaxes(qi, 0, 1))
    np.testing.assert_array_equal(qi, np.swapaxes(qi, 1, 2))
    np.testing.assert_array_equal(cl.Delta_ij, cl.Delta_ij.T)
    # contraction identity: q_ijj = 2 q_i by the definition of heat flux
    np.testing.assert_allclose(np.einsum("ijj->i", qi), 2.0 * st.q,
                               rtol=0, atol=1e-10 * eq.p * math.sqrt(eq.T))


def test_quadrature_convergence_guard():
    eq = EquilibriumParams(theta=-1, z=0.99, u=np.zeros(3), T=1.0)
    st = q.equilibrium_state13(eq)
    f = lambda V: q.grad_ansatz_eval(st, eq, V)
    sel = lambda V, C: np.sum(C * C, axis=1)
    with pytest.raises(QuadratureNotConverged):
        q.moment_quadrature(f, eq, sel, n_nodes=8, check=True)
    # a resolved integrand passes the same guard
    smooth = EquilibriumParams(theta=0, z=1.0, u=np.zeros(3), T=1.0)
    st0 = q.equilibrium_state13(smooth)
    f0 = lambda V: q.grad_ansatz_eval(st0, smooth, V)
    q.moment_quadrature(f0, smooth, sel, n_nodes=48, half_width=8.0, check=True)


def test_equilibrium_params_validation():
    with pytest.raises(DomainError):
        EquilibriumParams(theta=-1, z=1.2, u=np.zeros(3), T=1.0)
    with pytest.raises(DomainError):
        EquilibriumParams(theta=1, z=2.0, u=np.zeros(3), T=-1.0)
    with pytest.raises(DomainError):
        EquilibriumParams(theta=1, z=2.0, u=np.zeros(3), T=1.0, hhat=0.0)


def test_equilibrium_params_dict_round_trip():
    eq = EquilibriumParams(theta=-1, z=0.4, u=np.array([0.1, 0.2, -0.3]), T=1.7)
    back = EquilibriumParams.from_dict(eq.as_dict())
    assert back.theta == eq.theta and back.z == eq.z and back.T == eq.T
    np.testing.assert_array_equal(back.u, eq.u)
