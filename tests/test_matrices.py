"""Assembly of the quasi-linear coefficient matrices and their invariants."""
import math

import numpy as np
import pytest

import qgrad13 as q
from qgrad13 import DomainError, EquilibriumParams, MomentState13, SystemKind
from qgrad13.analysis import random_moment_state

KINDS = list(SystemKind)


def _swap_state(st, eq, a, b):
    """Relabel spatial axes a <-> b (0-based) in every tensorial slot."""
    idx = np.arange(3)
    idx[[a, b]] = idx[[b, a]]
    st2 = MomentState13(rho=st.rho, u=st.u[idx], p_ij=st.p_ij[np.ix_(idx, idx)],
                        q=st.q[idx])
    eq2 = EquilibriumParams(theta=eq.theta, z=eq.z, u=eq.u[idx], T=eq.T,
                            hhat=eq.hhat)
    return st2, eq2


def test_pslot_layout():
    assert [q.pslot(i, j) for i, j in
            ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))] == [4, 5, 6, 7, 8, 9]
    assert q.pslot(2, 1) == q.pslot(1, 2)
    assert q.pslot(3, 2) == q.pslot(2, 3)


def test_classical_equilibrium_reduced_matrix():
    eq = EquilibriumParams(theta=0, z=1.0, u=np.zeros(3), T=1.0)
    st5 = q.state5_from_hat(eq, 0.0, 0.0)
    rho = (2.0 * math.pi) ** 1.5  # = p at z = 1, T = 1
    expect = np.array([
        [0.0, rho, 0.0, 0.0, 0.0],
        [0.0, 0.0, 1.0 / rho, 0.0, 0.0],
        [0.0, 3.0 * rho, 0.0, 1.2, 0.0],
        [-2.5, 0.0, 1.0, 0.0, 1.5],
        [0.0, 5.0 * rho / 3.0, 0.0, 2.0 / 3.0, 0.0],
    ])
    np.testing.assert_allclose(q.assemble_A5_grad(st5, eq), expect,
                               rtol=0, atol=1e-13 * rho)


def test_reduced_matrix_fixed_couplings(theta, rng):
    z = 0.5 if theta == -1 else 2.0
    eq = EquilibriumParams(theta=theta, z=z, u=np.zeros(3), T=1.4)
    for _ in range(5):
        shat = float(rng.uniform(-0.9, 1.9))
        qhat = float(rng.uniform(-2.0, 2.0))
        u1 = float(rng.uniform(-1.0, 1.0))
        st5 = q.state5_from_hat(eq, shat, qhat, u1=u1)
        A = q.assemble_A5_grad(st5, eq)
        sigma11 = st5.p11 - st5.p
        np.testing.assert_allclose(A[0], [u1, st5.rho, 0, 0, 0], atol=1e-14)
        np.testing.assert_allclose(A[1], [0, u1, 1.0 / st5.rho, 0, 0], atol=1e-14)
        assert abs(A[2, 1] - 3.0 * st5.p11) < 1e-11
        assert abs(A[2, 3] - 1.2) < 1e-14
        assert abs(A[4, 1] - (5.0 * st5.p + 2.0 * sigma11) / 3.0) < 1e-11
        assert abs(A[4, 3] - 2.0 / 3.0) < 1e-14
        assert np.all(np.diag(A) == u1)


def test_reduce_to_1d_matches_display_form(theta, rng):
    z = 0.7 if theta == -1 else 1.3
    eq = EquilibriumParams(theta=theta, z=z, u=np.zeros(3), T=0.9)
    st5 = q.state5_from_hat(eq, 0.35, -1.1, u1=0.2)
    direct = q.assemble_A5_grad(st5, eq)
    reduced = q.reduce_to_1d(SystemKind.Grad13, st5, eq)
    np.testing.assert_allclose(reduced, direct, rtol=0,
                               atol=1e-12 * np.max(np.abs(direct)))


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.name)
def test_galilean_shift(kind, theta, rng):
    st, eq = random_moment_state(rng, theta)
    for d in (1, 2, 3):
        du = 0.42
        shift = np.zeros(3)
        shift[d - 1] = du
        st2 = MomentState13(rho=st.rho, u=st.u + shift, p_ij=st.p_ij, q=st.q)
        eq2 = EquilibriumParams(theta=eq.theta, z=eq.z, u=eq.u + shift, T=eq.T)
        A = q.assemble_A(kind, st, eq, d)
        A2 = q.assemble_A(kind, st2, eq2, d)
        # (u + du) - u leaves one rounding error on the diagonal
        np.testing.assert_allclose(A2 - A, du * np.eye(13), rtol=0, atol=1e-13)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.name)
def test_direction_is_linear_combination(kind, rng):
    st, eq = random_moment_state(rng, -1)
    n = rng.normal(size=3)
    n /= np.linalg.norm(n)
    combo = sum(n[d - 1] * q.assemble_A(kind, st, eq, d) for d in (1, 2, 3))
    np.testing.assert_array_equal(q.assemble_A_direction(kind, st, eq, n), combo)


def test_axis_permutation_consistency(rng):
    st, eq = random_moment_state(rng, 1)
    for d, other in ((2, 1), (3, 2)):
        P = q.axis_permutation_matrix(d)
        st_sw, eq_sw = _swap_state(st, eq, 0, d - 1)
        A_d = q.assemble_A(SystemKind.Grad13, st, eq, d)
        A_1 = q.assemble_A(SystemKind.Grad13, st_sw, eq_sw, 1)
        np.testing.assert_array_equal(A_d, P @ A_1 @ np.linalg.inv(P))


def test_factorization_of_final_regularization(theta, rng):
    for _ in range(4):
        st, eq = random_moment_state(rng, theta)
        for d in (1, 2, 3):
            sm = q.assemble_A_regularized(st, eq, d)
            assert sm.kind is SystemKind.FinalR13
            scale = max(1.0, float(np.max(np.abs(sm.D @ sm.A))))
            assert np.max(np.abs(sm.B - sm.M @ sm.D)) < 1e-10 * scale
            # same eigenvalues as M shifted by the frame speed
            lam_A = np.sort(np.linalg.eigvals(sm.A).real)
            lam_M = np.sort(np.linalg.eigvals(sm.M).real) + st.u[d - 1]
            np.testing.assert_allclose(lam_A, lam_M, rtol=0,
                                       atol=1e-8 * (1.0 + np.max(np.abs(lam_A))))


def test_M_ignores_the_nonequilibrium_part(theta, rng):
    st_a, eq = random_moment_state(rng, theta)
    # second state: same equilibrium, different stress deviator and heat flux
    st_b = MomentState13(rho=st_a.rho, u=st_a.u,
                         p_ij=np.diag([1.2, 0.9, 0.9]) * eq.p, q=-0.5 * st_a.q)
    M_a = q.assemble_A_regularized(st_a, eq, 1).M
    M_b = q.assemble_A_regularized(st_b, eq, 1).M
    np.testing.assert_array_equal(M_a, M_b)
    np.testing.assert_array_equal(M_a, q.assemble_M(eq, 1))


def test_equilibrium_closure_agreement(theta):
    """At vanishing stress deviator and heat flux the final regularization
    coincides with the plain closure; the projection variant only does so
    classically."""
    z = 0.8 if theta == -1 else 3.0
    eq = EquilibriumParams(theta=theta, z=z, u=np.array([0.3, -0.2, 0.1]), T=1.1)
    st = q.equilibrium_state13(eq)
    for d in (1, 2, 3):
        A_g = q.assemble_A(SystemKind.Grad13, st, eq, d)
        A_f = q.assemble_A(SystemKind.FinalR13, st, eq, d)
        A_t = q.assemble_A(SystemKind.TrivialR13, st, eq, d)
        scale = np.max(np.abs(A_g))
        assert np.max(np.abs(A_g - A_f)) <= 1e-12 * scale
        gap = np.max(np.abs(A_g - A_t))
        if theta == 0:
            assert gap <= 1e-12 * scale
        else:
            assert gap > 1e-6 * scale


def test_spectrum_scale_covariance(theta):
    z = 0.4 if theta == -1 else 1.7
    for T in (0.25, 4.0):
        eq1 = EquilibriumParams(theta=theta, z=z, u=np.zeros(3), T=1.0)
        eqT = EquilibriumParams(theta=theta, z=z, u=np.zeros(3), T=T)
        lam1 = np.sort(np.linalg.eigvals(
            q.assemble_A5_grad(q.state5_from_hat(eq1, 0.3, 0.8), eq1)).real)
        lamT = np.sort(np.linalg.eigvals(
            q.assemble_A5_grad(q.state5_from_hat(eqT, 0.3, 0.8), eqT)).real)
        np.testing.assert_allclose(lamT, math.sqrt(T) * lam1, rtol=1e-10,
                                   atol=1e-12 * float(np.max(np.abs(lamT))))


def test_mismatched_equilibrium_rejected(rng):
    st, eq = random_moment_state(rng, 1)
    other = EquilibriumParams(theta=1, z=2.0 * eq.z, u=eq.u, T=eq.T)
    with pytest.raises(DomainError):
        q.assemble_A(SystemKind.Grad13, st, other, 1)


def test_li_coefficients_classical_limits():
    eq = EquilibriumParams(theta=0, z=1.0, u=np.zeros(3), T=1.0)
    c = eq.coeffs
    # every li ratio collapses to 1 classically, so the mixing coefficients
    # take their ideal-gas values
    assert abs(c.frakB - 1.0) < 1e-14
    assert abs(c.b_low - c.b_high) < 1e-14
