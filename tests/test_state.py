"""Equilibrium thermodynamics, fugacity fitting and the moment ansatz."""
import dataclasses
import hashlib
import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

import qgrad13 as q
from qgrad13 import state
from qgrad13 import (CondensationError, DomainError, EquilibriumParams,
                     MomentState5, NoSolution)
from qgrad13.analysis import random_moment_state


def _li(eq):
    return q.eval_polylog_batch(eq.z, eq.theta)[:, 0]


def test_equilibrium_density_pressure_formula(theta):
    z = 0.6 if theta == -1 else 2.0
    for T, hhat in ((1.0, 1.0), (0.35, 1.0), (2.0, 4.5)):
        eq = EquilibriumParams(theta=theta, z=z, u=np.zeros(3), T=T, hhat=hhat)
        li = _li(eq)
        pref = hhat * (2.0 * math.pi * T) ** 1.5
        assert abs(eq.rho / (pref * li[1]) - 1.0) < 1e-14
        assert abs(eq.p / (pref * T * li[2]) - 1.0) < 1e-14


def test_equilibrium_params_evaluates_polylog_once(theta, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return q.eval_polylog_batch(*args, **kwargs)

    monkeypatch.setattr(state, "eval_polylog_batch", counting)
    eq = EquilibriumParams(theta=theta, z=0.6, u=np.zeros(3), T=1.3)
    eq.coeffs.li, eq.rho, eq.p
    assert len(calls) == 1
    eq.coeffs.alpha
    assert len(calls) == 1


def test_coefficient_record_batch_matches_scalar(theta):
    """The record over N fugacities is N scalar records, bit for bit.

    The batch takes its li from one batched evaluation, each scalar record
    from its own; li at a point does not depend on the batch around it.
    """
    zs = [0.05, 0.3, 0.6, 0.9] if theta == -1 else [0.05, 0.6, 3.0, 40.0]
    Ts = [0.4, 1.0, 1.7, 3.1]
    eqs = [EquilibriumParams(theta=theta, z=z, u=np.zeros(3), T=T)
           for z, T in zip(zs, Ts)]
    batch = state.LiCoeffs(q.eval_polylog_batch(zs, theta), np.array(Ts))
    for i, eq in enumerate(eqs):
        for name in _COEFF_NAMES:
            got, value = getattr(batch, name)[i], getattr(eq.coeffs, name)
            assert np.float64(got).tobytes() == np.float64(value).tobytes(), name


#: every coefficient of `LiCoeffs`, in the order of its formulas
_COEFF_NAMES = ("T", "L1", "L3", "L5", "L7", "L9", "L13", "L35", "L53", "L75", "L97",
                "r", "r2", "Delta", "phi", "psi", "b_low", "b_high", "dfrak", "Tc",
                "tfrak", "rho_phi_rho", "p_phi_p", "rho_psi_rho", "p_psi_p", "frakB",
                "m2", "m3", "Mrho", "alpha", "c0", "c1", "x_plus", "x_minus")


def _coeff_draws(theta, n):
    """Fermion z up to 1e6 (past FERMI_Z_C, where x_plus is NaN), Boson z up
    to 1 - 1e-11, classical z over six decades; T in [0.3, 3]."""
    rng = np.random.Generator(np.random.Philox(20261019 + theta))
    if theta == 1:
        z = 10.0 ** rng.uniform(-3.0, 6.0, n)
    elif theta == -1:
        z = 1.0 - 10.0 ** rng.uniform(-11.0, math.log10(0.99), n)
    else:
        z = 10.0 ** rng.uniform(-3.0, 3.0, n)
    return z, rng.uniform(0.3, 3.0, n)


def _coeff_digest(records, order):
    """Read every coefficient in `order`, with warnings as errors, then hash
    them in `_COEFF_NAMES` order (NaN written as one bit pattern)."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        read = [{name: getattr(c, name) for name in order} for c in records]
    h = hashlib.sha256()
    for values in read:
        for name in _COEFF_NAMES:
            v = np.asarray(values[name], dtype=float)
            h.update(name.encode() + np.where(np.isnan(v), np.nan, v).tobytes())
    return h.hexdigest()[:32]


@pytest.mark.parametrize("theta, digests", [
    (-1, ("7878677c7dae84fcb6f216c77494fee4", "df0316fa8b2ed8188b5e7c4d87513318")),
    (0, ("cd0538ccd6c762ffaf475b85f9081afb", "b9e55592645feb22a190be6e101aa5d9")),
    (1, ("4587558b1c843ebb7e79d2f83b70cd3c", "0753f73fe57587237a029ecfcbf8ce75")),
], ids=["boson", "classical", "fermion"])
def test_coefficient_record_pinned_in_any_read_order(theta, digests):
    """Every coefficient, bit for bit as the eagerly built record gave it,
    whichever coefficient is read first: 12 single equilibria (floats) and
    one record over 400 fugacities, read forwards and backwards.  Each
    float record also equals its entry of the batch, for every name."""
    z, T = _coeff_draws(theta, 400)
    li = q.eval_polylog_batch(z, theta)
    for order in (_COEFF_NAMES, _COEFF_NAMES[::-1]):
        floats = [EquilibriumParams(theta=theta, z=z[i], u=np.zeros(3), T=T[i]).coeffs
                  for i in range(12)]
        batch = state.LiCoeffs(li, T)
        assert (_coeff_digest(floats, order), _coeff_digest([batch], order)) == digests
        for i, c in enumerate(floats):
            for name in _COEFF_NAMES:
                a, b = np.float64(getattr(c, name)), getattr(batch, name)[i]
                assert np.array_equal(a, b, equal_nan=True), (i, name)
                assert np.signbit(a) == np.signbit(b) or np.isnan(a), (i, name)


def test_coefficient_record_computes_only_what_is_read():
    """A reader of the solver's five coefficients leaves the rest unbuilt."""
    z, T = _coeff_draws(1, 8)
    c = state.LiCoeffs(q.eval_polylog_batch(z, 1), T)
    for name in ("rho_phi_rho", "p_phi_p", "Tc", "dfrak", "x_plus"):
        getattr(c, name)
    for name in ("tfrak", "rho_psi_rho", "p_psi_p", "frakB", "m2", "m3", "Mrho",
                 "alpha", "b_low", "b_high", "x_minus", "phi", "psi"):
        assert name not in vars(c), name


@pytest.mark.parametrize("z", [1.0 - 1e-6, 1.0 - 1e-10])
def test_quartic_small_root_at_bose_edge(z):
    """x_minus keeps full precision where (c1 - root) / 2 cancels."""
    with mpmath.workdps(40):
        L1, L3, L5, L7, L9 = (mpmath.polylog(mpmath.mpf(k) / 2, z)
                              for k in (1, 3, 5, 7, 9))
        S = 5 * L1 * L5 - 3 * L3 ** 2
        c0 = 3 * (7 * L3 * L7 - 5 * L5 ** 2) / S
        c1 = (140 * L1 * L5 * L9 + 175 * L1 * L7 ** 2 - 84 * L3 ** 2 * L9
              - 75 * L3 * L5 * L7) / (15 * L7 * S)
        ref = float((c1 - mpmath.sqrt(c1 ** 2 - 4 * c0)) / 2)
    got = EquilibriumParams(theta=-1, z=z, u=np.zeros(3), T=1.0).coeffs.x_minus
    assert abs(got / ref - 1.0) < 1e-14


def test_equilibrium_moments_match_quadrature():
    # integrate the equilibrium distribution directly: number density and
    # (1/3) trace of the pressure tensor must land on the closed forms
    eq = EquilibriumParams(theta=-1, z=0.5, u=np.array([0.2, -0.1, 0.05]), T=2.0)
    mom = q.ansatz_moments(q.equilibrium_state13(eq), eq, n_nodes=96, half_width=8.0)
    assert abs(mom["rho"] / eq.rho - 1.0) < 1e-8
    assert abs(np.trace(mom["p_ij"]) / 3.0 / eq.p - 1.0) < 1e-8


def test_ansatz_scales_inversely_with_hhat():
    base = EquilibriumParams(theta=1, z=1.5, u=np.zeros(3), T=1.0)
    scaled = EquilibriumParams(theta=1, z=1.5, u=np.zeros(3), T=1.0, hhat=3.0)
    v = np.array([[0.3, -0.2, 1.0], [0.0, 0.0, 0.0]])
    f0 = state.grad_ansatz_eval(q.equilibrium_state13(base), base, v)
    f3 = state.grad_ansatz_eval(q.equilibrium_state13(scaled), scaled, v)
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
        back = q.fit_equilibrium(st.rho, st.p, theta, u=st.u)
        assert abs(back.z / eq.z - 1.0) < 1e-10
        assert abs(back.T / eq.T - 1.0) < 1e-10
        np.testing.assert_array_equal(back.u, st.u)


def test_batched_fit_is_fit_equilibrium_one_by_one(theta, rng):
    """`state._fit` on 300 states at once equals fit_equilibrium per state.

    Every step of the fit is elementwise and li at a point does not depend
    on the batch it is evaluated in, so the two agree bit for bit for every
    statistics.
    """
    states = [random_moment_state(rng, theta)[0] for _ in range(300)]
    rho = np.array([st.rho for st in states])
    p = np.array([st.p for st in states])
    z, T, li, fell_back, _ = state._fit(rho, p, theta)
    assert not fell_back
    ref = [q.fit_equilibrium(r, pp, theta) for r, pp in zip(rho, p)]
    z_ref = np.array([e.z for e in ref])
    T_ref = np.array([e.T for e in ref])
    np.testing.assert_array_equal(z, z_ref)
    np.testing.assert_array_equal(T, T_ref)
    np.testing.assert_array_equal(li, q.eval_polylog_batch(z, theta))


def test_fit_equilibrium_evaluates_li_once_per_fugacity(theta, monkeypatch):
    """The fit's li at the fitted z becomes the equilibrium's: a quantum fit
    makes 2 range-end, 40 bisection and 3 Newton calls and one at z; a
    classical one only the last."""
    calls = []

    def counting(z, th):
        calls.append(z)
        return q.eval_polylog_batch(z, th)

    monkeypatch.setattr(state, "eval_polylog_batch", counting)
    eq = q.fit_equilibrium(1.0, 1.0, theta)
    assert len(calls) == (1 if theta == 0 else 46)
    monkeypatch.undo()
    assert eq.coeffs.li == EquilibriumParams(theta=theta, z=eq.z, u=np.zeros(3), T=eq.T).coeffs.li


def test_fit_range_errors_name_the_first_offending_entry():
    li = q.eval_polylog_batch(np.array([0.3, 0.5]), -1)
    gstar = li[2] / li[1] ** (5.0 / 3.0)
    bad = np.array([gstar[0], gstar[1], 0.1, gstar[0], 0.1])
    with pytest.raises(CondensationError) as exc:
        state.fit_fugacity_batch(bad, -1)
    assert exc.value.index == 2
    with pytest.raises(NoSolution) as exc:
        state.fit_fugacity_batch(np.array([1.0, 2.0, -1.0]), 1)
    assert exc.value.index == 2
    # a warm start maps the fallback's index back to the full batch: cells 2
    # (a far guess) and 6 (needs z >= 1) miss, and the second of them offends
    eq = EquilibriumParams(theta=-1, z=0.5, u=np.zeros(3), T=1.0)
    rho = np.full(8, eq.rho)
    p = np.full(8, eq.p)
    rho[6] *= 3.0
    guess = np.full(8, 0.5)
    guess[2] = 1e-10
    with pytest.raises(CondensationError) as exc:
        state._fit(rho, p, -1, guess=(guess, q.eval_polylog_batch(guess, -1)))
    assert exc.value.index == 6


def test_near_condensation_refit_costs_nothing():
    """Within about 5e-11 of condensation one ulp of z moves the curve by
    more than 1e-11, so the fallback check allows that ulp too: an
    unchanged second refit evaluates no li and takes no bracket."""
    rng = np.random.Generator(np.random.Philox(7))
    z = 1.0 - 10.0 ** rng.uniform(math.log10(3e-12), -3.0, 3000)
    T = rng.uniform(0.5, 2.0, z.size)
    li = q.eval_polylog_batch(z, -1)
    rho = (2.0 * math.pi * T) ** 1.5 * li[1]
    p = rho * T * li[2] / li[1]
    z0, _, li0, _, _ = state._fit(rho, p, -1)
    z1, _, li1, fell_back, _ = state._fit(rho, p, -1, guess=(z0, li0))
    assert not fell_back
    z2, _, li2, fell_back, points = state._fit(rho, p, -1, guess=(z1, li1))
    assert (fell_back, points) == (False, 0)
    np.testing.assert_array_equal(z2, z1)


def _fit_digest(out):
    z, T, li, fell_back, points = out
    h = hashlib.sha256()
    for a in (z, T, li):
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:32], fell_back, points


@pytest.mark.parametrize("theta, pins", [
    (-1, (("767b1e57d121b8ef1c1a8027ef612f62", False, 17602),
          ("6d6de174db403d053c62e47226c922f7", False, 963),
          ("c9d033d722fa1082544bbdd2cf07116f", True, 2264))),
    (0, (("abbe127c01fca474cc1299d57e6f6590", False, 400),
         ("2cb29f026fc708b192f07ba064432228", False, 400),
         ("516f229c597fd82a6bd157c405b0ae2f", False, 400))),
    (1, (("aca19077b9bcc5412028cfe412145a2f", False, 17602),
         ("5a6dedb15d1f804ecb0f8e6455a52566", False, 978),
         ("22a570b5df959ddb88b705a09d2607fe", True, 1780))),
], ids=["boson", "classical", "fermion"])
def test_fit_bits_pinned(theta, pins):
    """z, T and li bit for bit, with (fell_back, points), on 400 seeded
    states: a cold fit, a warm refit after a 1e-3 relative nudge of p (cells
    move) and one after every eighth p jumps 2 to 20 times (some fall back)."""
    rng = np.random.Generator(np.random.Philox(31))
    n = 400
    z = rng.uniform(0.05, 0.99, n) if theta == -1 else 10.0 ** rng.uniform(-1.5, 1.5, n)
    T = rng.uniform(0.3, 3.0, n)
    li = q.eval_polylog_batch(z, theta)
    rho = (2.0 * math.pi * T) ** 1.5 * li[1]
    p = rho * T * li[2] / li[1]
    cold = state._fit(rho, p, theta)
    p = p * (1.0 + 1e-3 * rng.standard_normal(n))
    nudged = state._fit(rho, p, theta, guess=(cold[0], cold[2]))
    p[::8] *= rng.uniform(2.0, 20.0, p[::8].size)
    jumped = state._fit(rho, p, theta, guess=(nudged[0], nudged[2]))
    assert tuple(map(_fit_digest, (cold, nudged, jumped))) == pins


def test_fit_fugacity_batch_round_trip(theta):
    if theta == -1:
        zs = np.array([0.05, 0.3, 0.9, 0.999, float(np.nextafter(q.BOSE_Z_MAX, 0)) / 1.001])
    elif theta == 1:
        zs = np.array([0.01, 1.0, 30.0, 500.0])
    else:
        zs = np.array([0.2, 1.0, 9.0])
    li = q.eval_polylog_batch(zs, theta)
    gstar = li[2] / li[1] ** (5.0 / 3.0)
    back = state.fit_fugacity_batch(gstar, theta)
    np.testing.assert_allclose(back, zs, rtol=1e-10)


def test_fugacity_fit_failure_modes():
    # Bosons: the ratio is bounded below by its condensation-boundary value
    # zeta(5/2)/zeta(3/2)^(5/3) ~ 0.2708
    li = q.eval_polylog_batch(float(np.nextafter(q.BOSE_Z_MAX, 0.0)), -1)
    g_min = float(li[2, 0]) / float(li[1, 0]) ** (5.0 / 3.0)
    with pytest.raises(CondensationError):
        state.fit_fugacity_batch(np.array([0.999 * g_min]), -1)
    # Fermions: the ratio tends to a positive constant in the degenerate limit
    with pytest.raises(NoSolution):
        state.fit_fugacity_batch(np.array([0.45]), 1)
    # and no statistics reaches arbitrarily dilute ratios within the z range
    with pytest.raises(NoSolution):
        state.fit_fugacity_batch(np.array([1e10]), 1)


def test_state5_hat_construction():
    eq = EquilibriumParams(theta=1, z=2.0, u=np.zeros(3), T=1.5)
    st = q.state5_from_hat(dataclasses.replace(eq, u=(0.3, 0, 0)), sigma11_hat=0.4, q1_hat=-0.7)
    assert st.p == eq.p
    assert abs(st.p11 - eq.p * 1.4) < 1e-13
    assert abs(st.q1 + 0.7 * eq.p * math.sqrt(1.5)) < 1e-13
    assert st.u1 == 0.3


@pytest.mark.parametrize("shat", [-1.0, -1.5, 2.0, 2.5])
def test_state5_rejects_outside_window(shat):
    eq = EquilibriumParams(theta=0, z=1.0, u=np.zeros(3), T=1.0)
    with pytest.raises(DomainError):
        MomentState5(rho=eq.rho, u1=0.0, p11=eq.p * (1.0 + shat), q1=0.0, p=eq.p)


@pytest.mark.parametrize("rho", [math.inf, math.nan])
def test_state5_rejects_non_finite_density(rho):
    """An infinite density is a domain error, as in MomentState13."""
    with pytest.raises(DomainError):
        MomentState5(rho=rho, u1=0.0, p11=1.0, q1=0.0, p=1.0)


@pytest.mark.parametrize("u1, q1_hat", [(math.nan, 0.0), (0.0, math.nan),
                                         (math.inf, 0.0), (0.0, -math.inf)])
def test_states_reject_non_finite_velocity_or_heat_flux(u1, q1_hat):
    """u and q must be finite in both states: a NaN there is a domain error,
    not a verdict."""
    eq = EquilibriumParams(theta=0, z=1.0, u=np.zeros(3), T=1.0)
    with pytest.raises(DomainError, match="finite"):
        q.state5_from_hat(dataclasses.replace(eq, u=(u1, 0, 0)), 0.0, q1_hat)
    st = q.equilibrium_state13(eq)
    with pytest.raises(DomainError, match="finite"):
        q.MomentState13(rho=st.rho, u=[u1, 0.0, 0.0], p_ij=st.p_ij,
                        q=[q1_hat, 0.0, 0.0])


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


def _einsum_closure_q_ijk(q_vec):
    """closure_moments' q_ijk as three einsums over the identity: its reference."""
    delta = np.eye(3)
    return 0.4 * (np.einsum("ij,k->ijk", delta, q_vec)
                  + np.einsum("ik,j->ijk", delta, q_vec)
                  + np.einsum("kj,i->ijk", delta, q_vec))


def test_closure_moments_q_ijk_matches_einsum_bitwise(theta, rng):
    for _ in range(20):
        st, eq = random_moment_state(rng, theta)
        assert np.array_equal(q.closure_moments(st, eq).q_ijk,
                              _einsum_closure_q_ijk(st.q))


def _reference_closure_delta(st, eq):
    """closure_moments' Delta_ij with sigma and p rebuilt from p_ij: its reference."""
    li = dict(zip(q.ORDERS, eq.coeffs.li))
    p = float(st.p_ij.trace()) / 3.0
    sigma = st.p_ij - p * np.eye(3)
    pref = eq.hhat * (2.0 * math.pi * eq.T) ** 1.5 * eq.T ** 2 * li[3.5]
    return pref * (5.0 * np.eye(3) + 7.0 * (sigma / p)
                   * li[2.5] * li[4.5] / li[3.5] ** 2)


def _with_hhat(eq, hhat):
    return EquilibriumParams(theta=eq.theta, z=eq.z, u=eq.u, T=eq.T, hhat=hhat)


def test_closure_moments_delta_ij_matches_reference_bitwise(theta, rng):
    """Delta_ij bit for bit, at hhat = 1 and at hhat != 1."""
    for _ in range(20):
        st, eq = random_moment_state(rng, theta)
        for e in (eq, _with_hhat(eq, 0.4), _with_hhat(eq, 2.5)):
            assert np.array_equal(q.closure_moments(st, e).Delta_ij,
                                  _reference_closure_delta(st, e)), e.hhat


def _pointwise_moments(st, eq, n_nodes, half_width):
    """The moments of ansatz_moments summed point by point over the same
    spherical nodes: the reference for its separable contraction."""
    x, wts = leggauss(n_nodes)
    radius = half_width * math.sqrt(eq.T)
    r = 0.5 * radius * (x + 1.0)
    C = (r[:, None, None] * state._DIRS[None, :, :]).reshape(-1, 3)
    W = np.outer(0.5 * radius * wts * r * r, state._DIR_WEIGHTS).reshape(-1)
    V = eq.u + C
    c2 = np.einsum("ni,ni->n", C, C)
    fw = eq.hhat * W * state.grad_ansatz_eval(st, eq, V)
    rho = float(np.sum(fw))
    return {"rho": rho, "u": (fw @ V) / rho,
            "p_ij": np.einsum("n,ni,nj->ij", fw, C, C),
            "q": 0.5 * ((fw * c2) @ C),
            "q_ijk": np.einsum("n,ni,nj,nk->ijk", fw, C, C, C),
            "Delta_ij": np.einsum("n,ni,nj->ij", fw * c2, C, C)}


def _tensor_grid_moments(st, eq, n_nodes, half_width):
    """The moments of ansatz_moments on a 3-axis Gauss-Legendre tensor grid
    over the box u +- half_width sqrt(T): the reference for the spherical rule."""
    x, wts = leggauss(n_nodes)
    half = half_width * math.sqrt(eq.T)
    axes = [eq.u[i] + half * x for i in range(3)]
    V = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 3)
    W = (wts[:, None, None] * wts[None, :, None] * wts[None, None, :]
         ).reshape(-1) * half ** 3
    C = V - eq.u
    c2 = np.einsum("ni,ni->n", C, C)
    fw = eq.hhat * W * state.grad_ansatz_eval(st, eq, V)
    rho = float(np.sum(fw))
    return {"rho": rho, "u": (fw @ V) / rho,
            "p_ij": np.einsum("n,ni,nj->ij", fw, C, C),
            "q": 0.5 * ((fw * c2) @ C),
            "q_ijk": np.einsum("n,ni,nj,nk->ijk", fw, C, C, C),
            "Delta_ij": np.einsum("n,ni,nj->ij", fw * c2, C, C)}


def _moment_gaps(got, ref):
    """Per moment, max |got - ref| over 1 + max |ref|."""
    return {k: float(np.max(np.abs(np.subtract(got[k], ref[k])))
                     / (1.0 + np.max(np.abs(ref[k])))) for k in ref}


def test_ansatz_moments_match_tensor_grid(theta, rng):
    nodes = 96 if theta == -1 else 64
    for _ in range(3):
        st, eq = random_moment_state(rng, theta, bose_z_max=0.8)
        got = q.ansatz_moments(st, eq, n_nodes=nodes, half_width=8.0)
        ref = _tensor_grid_moments(st, eq, nodes, 8.0)
        gaps = _moment_gaps(got, ref)
        assert max(gaps.values()) <= 1e-6, (eq.z, gaps)


@pytest.mark.parametrize("nodes", [64, 96])
def test_ansatz_moments_match_pointwise_contraction(theta, nodes, rng):
    for _ in range(3):
        st, eq = random_moment_state(rng, theta, bose_z_max=0.9)
        got = q.ansatz_moments(st, eq, n_nodes=nodes, half_width=8.0)
        gaps = _moment_gaps(got, _pointwise_moments(st, eq, nodes, 8.0))
        assert max(gaps.values()) <= 1e-13, (eq.z, gaps)


def _point_major_ansatz(st, eq, v):
    """grad_ansatz_eval as it ran on point-major (N, 3) velocities, with
    einsum row sums and the products c @ sigma and c @ q: its reference."""
    v = np.asarray(v, dtype=float)
    single = v.ndim == 1
    li = dict(zip(q.ORDERS, eq.coeffs.li))
    T, p, z, theta = eq.T, eq.p, eq.z, eq.theta
    c = v.reshape(-1, 3) - eq.u
    c2 = np.einsum("ni,ni->n", c, c)
    ez = z * np.exp(-c2 / (2.0 * T))
    feq = ez if theta == 0 else ez / (1.0 + theta * ez)
    sig = st.sigma
    sterm = (np.einsum("ni,ni->n", c @ sig, c) / T
             - np.trace(sig) * (li[2.5] / li[1.5])) * (li[2.5] / li[3.5]) / (2.0 * p)
    qterm = (c @ st.q) * (c2 / T - 5.0 * li[3.5] / li[2.5]) \
        / (5.0 * p * T * eq.coeffs.frakB)
    out = feq * (1.0 + sterm + qterm)
    return float(out[0]) if single else out


def _point_major_moments(st, eq, n_nodes, half_width):
    """ansatz_moments as it ran on point-major nodes eq.u + C: its reference."""
    x, wts = leggauss(n_nodes)
    radius = half_width * math.sqrt(eq.T)
    r = 0.5 * radius * (x + 1.0)
    w_r = 0.5 * radius * wts * r * r
    D = state._DIRS
    C = (r[:, None, None] * D[None, :, :]).reshape(-1, 3)
    f = (eq.hhat * _point_major_ansatz(st, eq, eq.u + C)).reshape(n_nodes, -1)
    m = (w_r * r ** np.arange(5.0)[:, None]) @ f * state._DIR_WEIGHTS
    rho = float(np.sum(m[0]))
    return {"rho": rho, "u": eq.u + (m[1] @ D) / rho,
            "p_ij": (m[2] * D.T) @ D, "q": 0.5 * (m[3] @ D),
            "q_ijk": (m[3] * D.T[:, None] * D.T) @ D,
            "Delta_ij": (m[4] * D.T) @ D}


def test_component_rows_are_the_point_major_reference(theta, rng):
    """The quadrature on component rows (3, P) gives the point-major
    reference's moments and ansatz values bit for bit, at u != 0 and at
    hhat != 1."""
    for i in range(30):
        st, eq = random_moment_state(rng, theta)
        assert np.all(eq.u != 0.0)
        for nodes, half_width in ((64, 8.0), (96, 8.0), (192, 12.0)):
            got = q.ansatz_moments(st, eq, n_nodes=nodes, half_width=half_width)
            ref = _point_major_moments(st, eq, nodes, half_width)
            for k, v in ref.items():
                assert np.array_equal(got[k], v), (nodes, k)
        if i < 10:
            for hhat in (0.4, 2.5):
                e = _with_hhat(eq, hhat)
                got = q.ansatz_moments(st, e, n_nodes=64, half_width=8.0)
                for k, v in _point_major_moments(st, e, 64, 8.0).items():
                    assert np.array_equal(got[k], v), (hhat, k)
        V = eq.u + rng.normal(size=(500, 3)) * 2.0 * math.sqrt(eq.T)
        assert np.array_equal(state.grad_ansatz_eval(st, eq, V),
                              _point_major_ansatz(st, eq, V))
        one = state.grad_ansatz_eval(st, eq, V[0])
        assert type(one) is float and one == _point_major_ansatz(st, eq, V[0])


def test_ansatz_moments_peak_memory(theta, rng):
    """One call at 96 radii holds about ten P-length doubles (P = 96 * 32):
    the node rows, the peculiar rows, the point-major copy or the stress
    product, and the result; the elementwise steps allocate nothing."""
    st, eq = random_moment_state(rng, theta)
    q.ansatz_moments(st, eq, n_nodes=96, half_width=8.0)   # radial rule cached
    tracemalloc.start()
    try:
        q.ansatz_moments(st, eq, n_nodes=96, half_width=8.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 11 * 96 * 32 * 8, peak


@pytest.mark.parametrize("n_nodes, half_width", [
    (64, -8.0), (64, 0.0), (64, math.nan), (64, math.inf), (0, 12.0)])
def test_ansatz_moments_rejects_bad_rule(n_nodes, half_width):
    """A rule with no radii or a sphere that is not positive and finite is a
    domain error, not negative or NaN moments."""
    eq = EquilibriumParams(theta=1, z=2.0, u=np.zeros(3), T=1.0)
    with pytest.raises(DomainError, match="half_width" if n_nodes else "n_nodes"):
        q.ansatz_moments(q.equilibrium_state13(eq), eq, n_nodes=n_nodes,
                         half_width=half_width)


def test_ansatz_moments_angular_rule_is_exact(theta, rng, monkeypatch):
    # doubling both angular counts must not move any moment: the fixed rule
    # already integrates every angular part exactly
    st, eq = random_moment_state(rng, theta)
    base = q.ansatz_moments(st, eq, n_nodes=64, half_width=8.0)
    dirs, weights = state._sphere_rule(8, 16)
    monkeypatch.setattr(state, "_DIRS", dirs)
    monkeypatch.setattr(state, "_DIR_WEIGHTS", weights)
    fine = q.ansatz_moments(st, eq, n_nodes=64, half_width=8.0)
    for k, ref in fine.items():
        gap = np.max(np.abs(np.subtract(base[k], ref)))
        assert gap < 1e-12 * np.max(np.abs(ref)), (k, gap)


@pytest.mark.parametrize("z", [0.95, 0.99, 0.999, 1.0 - 1e-6])
def test_closure_by_quadrature_at_bose_edge(z):
    eq = EquilibriumParams(theta=-1, z=z, u=np.array([0.3, -0.2, 0.1]), T=1.3)
    S = np.array([[1.0, 0.2, 0.0], [0.2, -0.5, 0.1], [0.0, 0.1, -0.5]])
    st = q.MomentState13(rho=eq.rho, u=eq.u, p_ij=eq.p * (np.eye(3) + 0.3 * S),
                         q=np.array([0.4, -0.3, 0.2]) * eq.p * math.sqrt(eq.T))
    mom = q.ansatz_moments(st, eq, n_nodes=96, half_width=8.0)
    closed = q.closure_moments(st, eq)
    gaps = _moment_gaps(mom, {"q_ijk": closed.q_ijk, "Delta_ij": closed.Delta_ij})
    assert max(gaps.values()) <= 1e-6, gaps


def _closure_by_quadrature_at(rng, theta, zs):
    """c8-style states at the fugacities zs: at half width 12 sqrt(T) and 192
    radii the quadrature meets the closure to 1e-12."""
    for z in zs:
        T = float(rng.uniform(0.5, 2.0))
        eq = EquilibriumParams(theta=theta, z=z, u=rng.uniform(-1.0, 1.0, 3), T=T)
        S = rng.uniform(-1.0, 1.0, (3, 3))
        S = 0.5 * (S + S.T)
        S -= (S.trace() / 3.0) * np.eye(3)
        amp = rng.uniform(0.0, 0.9) / np.abs(np.linalg.eigvalsh(S)).max()
        st = q.MomentState13(rho=eq.rho, u=eq.u, p_ij=eq.p * (np.eye(3) + amp * S),
                             q=rng.uniform(-1.5, 1.5, 3) * eq.p * math.sqrt(T))
        mom = q.ansatz_moments(st, eq, n_nodes=192, half_width=12.0)
        closed = q.closure_moments(st, eq)
        gaps = _moment_gaps(mom, {"q_ijk": closed.q_ijk, "Delta_ij": closed.Delta_ij})
        assert max(gaps.values()) <= 1e-12, (z, gaps)


def test_closure_by_quadrature_up_to_the_fermion_bound(rng):
    """40 c8-style Fermion states, z log-uniform on [1e2, 0.95 FERMI_Z_C]: at
    half width 12 sqrt(T) and 192 radii the quadrature meets the closure to
    1e-12 (at c8's 8 and 64 the cut-off tail leaves ~2e-7 near z_c)."""
    z_hi = 0.95 * q.polylog.FERMI_Z_C
    zs = np.exp(rng.uniform(math.log(1e2), math.log(z_hi), 40))
    _closure_by_quadrature_at(rng, 1, zs)


def test_closure_by_quadrature_up_to_the_condensation_edge(rng):
    """40 c8-style Boson states, 1 - z log-uniform on [1e-9, 1e-1]: the
    Fermion test's bound holds there too (c8 stops at z = 0.9, where its
    8 sqrt(T) cut-off leaves ~5e-10)."""
    _closure_by_quadrature_at(rng, -1, 1.0 - 10.0 ** rng.uniform(-9.0, -1.0, 40))


def test_ansatz_moments_node_count(monkeypatch):
    # the closure checks stay cheap only while the node set grows linearly
    # in n_nodes; a tensor grid would make this n_nodes**3
    points = []
    real = state.grad_ansatz_eval

    def counting(st, eq, v):
        points.append(len(v))
        return real(st, eq, v)

    monkeypatch.setattr(state, "grad_ansatz_eval", counting)
    eq = EquilibriumParams(theta=1, z=2.0, u=np.zeros(3), T=1.0)
    q.ansatz_moments(q.equilibrium_state13(eq), eq, n_nodes=96)
    assert 0 < sum(points) <= 64 * 96


def test_ansatz_moments_builds_radial_rule_once(monkeypatch):
    eq = EquilibriumParams(theta=-1, z=0.5, u=np.zeros(3), T=1.0)
    st = q.equilibrium_state13(eq)
    first = q.ansatz_moments(st, eq, n_nodes=40)

    def fail(n):
        raise AssertionError("leggauss called again")

    monkeypatch.setattr(state, "leggauss", fail)
    again = q.ansatz_moments(st, eq, n_nodes=40)
    for k, v in first.items():
        np.testing.assert_array_equal(again[k], v)


@pytest.mark.parametrize("hhat", [math.inf, math.nan, -1.0])
def test_equilibrium_params_rejects_hhat_outside_0_inf(hhat):
    with pytest.raises(DomainError, match=f"hhat must be positive and finite, got {hhat}"):
        EquilibriumParams(theta=0, z=1.0, u=np.zeros(3), T=1.0, hhat=hhat)


@pytest.mark.parametrize("hhat", [math.inf, 0.0, -1.0, math.nan])
def test_fit_equilibrium_rejects_hhat_outside_0_inf(hhat):
    """The fit names hhat, as EquilibriumParams does, before it fits."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError) as exc:
            q.fit_equilibrium(1.0, 1.0, 1, hhat=hhat)
    assert type(exc.value) is DomainError
    assert str(exc.value) == f"hhat must be positive and finite, got {hhat}"


@pytest.mark.parametrize("key, value, message", [
    ("rho", "x", "rho must be a number, got 'x'"),
    ("rho", [1.0, 2.0], "rho must be a number, got [1.0, 2.0]"),
    ("u", [0.0, 0.0], "u must be 3 numbers, got [0.0, 0.0]"),
    ("q", None, "q must be 3 numbers, got None"),
    ("p_ij", "a", "p_ij must be 3x3 numbers, got 'a'"),
    ("p_ij", [[1.0, 0.0], [0.0, 1.0]], "p_ij must be 3x3 numbers, got [[1.0, 0.0], [0.0, 1.0]]"),
], ids=["rho-str", "rho-list", "u-2", "q-null", "p_ij-str", "p_ij-2x2"])
def test_moment_state_from_dict_names_the_malformed_key(key, value, message):
    """A malformed value in a state file is a DomainError (exit 3 on the
    command line) that names its key."""
    d = q.equilibrium_state13(EquilibriumParams(theta=0, z=1.0, u=np.zeros(3), T=1.0)).as_dict()
    assert np.array_equal(q.MomentState13.from_dict(d).p_ij, d["p_ij"])
    with pytest.raises(DomainError) as exc:
        q.MomentState13.from_dict({**d, key: value})
    assert str(exc.value) == message


def test_equilibrium_params_validation():
    with pytest.raises(DomainError):
        EquilibriumParams(theta=-1, z=1.2, u=np.zeros(3), T=1.0)
    with pytest.raises(DomainError):
        EquilibriumParams(theta=1, z=2.0, u=np.zeros(3), T=-1.0)
    with pytest.raises(DomainError):
        EquilibriumParams(theta=1, z=2.0, u=np.zeros(3), T=1.0, hhat=0.0)


_SIDE = {"z": 1.0, "u1": 0.0, "T": 1.0}
_RUN = {"theta": 0, "cells": 8, "length": 1.0, "cfl": 0.4, "tau": 0.1, "t_end": 0.1,
        "left": _SIDE, "right": _SIDE}
_EQ = EquilibriumParams(theta=1, z=2.0, u=np.zeros(3), T=1.0)
_POSITIVE_INPUTS = {
    "temperature": lambda x: EquilibriumParams(theta=0, z=1.0, u=np.zeros(3), T=x),
    "hhat": lambda x: EquilibriumParams(theta=0, z=1.0, u=np.zeros(3), T=1.0, hhat=x),
    "density": lambda x: q.MomentState13(rho=x, u=np.zeros(3), p_ij=np.eye(3),
                                         q=np.zeros(3)),
    "length": lambda x: q.SimConfig(**{**_RUN, "length": x}),
    "tau": lambda x: q.SimConfig(**{**_RUN, "tau": x}),
    "t_end": lambda x: q.SimConfig(**{**_RUN, "t_end": x}),
    "relaxation time": lambda x: q.maxwellian_iteration_nsf(q.SystemKind.FinalR13, 0, 1.0,
                                                            tau=x),
    "half_width": lambda x: q.ansatz_moments(q.equilibrium_state13(_EQ), _EQ, half_width=x),
}


@pytest.mark.parametrize("value", [0, -1, math.nan, math.inf])
@pytest.mark.parametrize("name", list(_POSITIVE_INPUTS))
def test_every_positive_input_has_one_rule_and_one_message(name, value):
    """Each positive number a caller passes in is checked by one rule, which
    names it and the value, as a float, in one wording."""
    with pytest.raises(DomainError) as exc:
        _POSITIVE_INPUTS[name](value)
    assert type(exc.value) is DomainError
    assert str(exc.value) == f"{name} must be positive and finite, got {float(value)}"


def test_moment_state_names_the_keys_it_lacks():
    with pytest.raises(DomainError) as exc:
        q.MomentState13.from_dict({"rho": 1.0, "p_ij": np.eye(3).tolist()})
    assert str(exc.value) == "moment state lacks ['q', 'u']"
