"""Eigenvalue classification, characteristic polynomials, annihilation."""
import math

import numpy as np
import pytest

import qgrad13 as q
from qgrad13 import Classification, EquilibriumParams, NoRoot, spectral, state
from qgrad13.spectral import (brute_charpoly_reduced, char_poly_A5_analytic,
                              charpoly_coeffs)


def test_charpoly_on_companion_matrix():
    # companion of x^3 - 2x^2 - 5x + 6 = (x-1)(x+2)(x-3)
    C = np.array([[0.0, 0.0, -6.0], [1.0, 0.0, 5.0], [0.0, 1.0, 2.0]])
    np.testing.assert_allclose(charpoly_coeffs(C), [1.0, -2.0, -5.0, 6.0],
                               atol=1e-12)


def test_charpoly_random_matches_numpy(rng):
    A = rng.normal(size=(6, 6))
    np.testing.assert_allclose(charpoly_coeffs(A), np.poly(A), rtol=1e-9,
                               atol=1e-9)


class TestVerdicts:
    def test_distinct_real(self):
        v = q.diagonalizability_test(np.diag([0.0, 1.0, -2.0]))
        assert v.classification is Classification.HyperbolicStrict
        assert v.min_gap > 0.1  # scaled gap, well clear of the cluster tol
        assert v.max_imag == 0.0

    def test_repeated_but_diagonalizable(self):
        v = q.diagonalizability_test(np.diag([1.0, 1.0, 3.0]))
        assert v.classification is Classification.HyperbolicDegenerate
        mult = sorted(c.algebraic for c in v.diagnostics)
        assert mult == [1, 2]

    def test_jordan_block_defective(self):
        J = np.array([[1.0, 1.0], [0.0, 1.0]])
        v = q.diagonalizability_test(J)
        assert v.classification is Classification.NonDiagonalizable

    def test_complex_pair(self):
        R = np.array([[0.0, -1.0], [1.0, 0.0]])
        v = q.diagonalizability_test(R)
        assert v.classification is Classification.NonHyperbolic
        assert v.max_imag > 0.4  # scaled by 1 + |lambda|

    def test_noise_does_not_flip_degenerate(self, rng):
        A = np.diag([1.0, 1.0, 3.0]) + 1e-14 * rng.normal(size=(3, 3))
        v = q.diagonalizability_test(A)
        assert v.classification is Classification.HyperbolicDegenerate

    def test_as_dict_is_json_friendly(self):
        import json
        v = q.diagonalizability_test(np.diag([1.0, 2.0]))
        json.dumps(v.as_dict())


def test_classify_batch_matches_single(rng):
    mats = np.stack([np.diag([0.0, 1.0, 2.0]),
                     np.diag([1.0, 1.0, 2.0]),
                     np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0],
                               [0.0, 0.0, 2.0]]),
                     np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0],
                               [0.0, 0.0, 1.0]])])
    codes, aux = q.classify_batch(mats)
    assert list(codes) == [0, 1, 2, 3]
    assert aux["max_imag"][3] > 0.4


def test_analytic_reduced_charpoly(theta, rng):
    z = 0.6 if theta == -1 else 1.8
    eq = EquilibriumParams(theta=theta, z=z, u=np.zeros(3), T=1.3)
    rt = math.sqrt(eq.T)
    for _ in range(6):
        st5 = q.state5_from_hat(eq, float(rng.uniform(-0.9, 1.9)),
                                float(rng.uniform(-2, 2)),
                                u1=float(rng.uniform(-1, 1)))
        A5 = q.assemble_A5_grad(st5, eq)
        coeffs = char_poly_A5_analytic(st5, eq)
        lam = np.linalg.eigvals(A5)
        resid = rt / 75.0 * np.polyval(coeffs, (lam - st5.u1) / rt)
        scale = np.max(np.abs(lam)) ** 5 + 1.0
        assert np.max(np.abs(resid)) < 1e-10 * scale


def test_equilibrium_spectrum_classical_constants():
    spectrum = q.char_poly_equilibrium(1.0, 0)
    assert abs(spectrum.alpha_hat - 1.4) < 1e-14
    assert abs(spectrum.c0 - 3.0) < 1e-14
    assert abs(spectrum.c1 - 5.2) < 1e-14
    # x solves x^2 - (26/5) x + 3 = 0
    lo, hi = sorted(np.roots([1.0, -5.2, 3.0]).real)
    assert abs(spectrum.x_minus - lo) < 1e-13
    assert abs(spectrum.x_plus - hi) < 1e-13
    lam = np.sort(spectrum.lambda_hat)
    expect = np.sort(np.concatenate([
        np.zeros(5),
        [math.sqrt(1.4)] * 2, [-math.sqrt(1.4)] * 2,
        [math.sqrt(lo), -math.sqrt(lo), math.sqrt(hi), -math.sqrt(hi)]]))
    np.testing.assert_allclose(lam, expect, atol=1e-12)


def test_equilibrium_spectrum_matches_eigensolver(theta, rng):
    z = float(rng.uniform(0.1, 0.9)) if theta == -1 \
        else float(10.0 ** rng.uniform(-1, 1))
    T = float(rng.uniform(0.5, 2.0))
    u1 = float(rng.uniform(-1, 1))
    spectrum = q.char_poly_equilibrium(z, theta, T=T)
    eq = EquilibriumParams(theta=theta, z=z, u=np.array([u1, 0.0, 0.0]), T=T)
    st = q.equilibrium_state13(eq)
    A1 = q.assemble_A(q.SystemKind.Grad13, st, eq, 1)
    lam_num = np.sort(np.linalg.eigvals(A1).real)
    np.testing.assert_allclose(np.sort(spectrum.eigenvalues(u1)), lam_num,
                               rtol=0, atol=1e-8 * (1.0 + np.max(np.abs(lam_num))))


def test_equilibrium_full_system_is_degenerate(theta):
    z = 0.5 if theta == -1 else 2.0
    eq = EquilibriumParams(theta=theta, z=z, u=np.zeros(3), T=1.0)
    st = q.equilibrium_state13(eq)
    v = q.diagonalizability_test(q.assemble_A(q.SystemKind.Grad13, st, eq, 1))
    assert v.classification is Classification.HyperbolicDegenerate
    mult = sorted(c.algebraic for c in v.diagnostics)
    assert mult == [1, 1, 1, 1, 2, 2, 5]


@pytest.mark.parametrize("eps", [0.0, 0.3])
def test_shear_charpoly_classical_coefficients(eps):
    cc = q.shear_charpoly_coeffs(1.0, 0, eps)
    e2 = eps * eps
    assert abs(cc.c0 - 3.0) < 1e-12
    assert abs(cc.c1 - 5.2) < 1e-12
    assert abs(cc.c2 - (-105.0 + 8.0 * e2)) < 1e-10
    assert abs(cc.c3 - (257.0 + 48.0 * e2)) < 1e-10
    assert abs(cc.c4 + 165.0) < 1e-10
    assert abs(cc.const + 28.0 * e2) < 1e-10


def test_charpoly_unperturbed_factorization(theta, rng):
    """With no shear perturbation the degree-8 factor splits into the
    equilibrium quartic times (x - alpha_hat), tying the coefficients
    together."""
    z = float(rng.uniform(0.1, 0.9)) if theta == -1 \
        else float(10.0 ** rng.uniform(-1, 1))
    cc = q.shear_charpoly_coeffs(z, theta, 0.0)
    spectrum = q.char_poly_equilibrium(z, theta)
    a = spectrum.alpha_hat
    assert abs(cc.const) < 1e-10
    assert abs(cc.c4 + 25.0 * (a + cc.c1)) < 1e-8 * (1.0 + abs(cc.c4))
    assert abs(cc.c3 - 25.0 * (cc.c0 + a * cc.c1)) < 1e-8 * (1.0 + abs(cc.c3))
    assert abs(cc.c2 + 25.0 * a * cc.c0) < 1e-8 * (1.0 + abs(cc.c2))


def test_brute_charpoly_matches_closed_form(rng):
    for _ in range(8):
        theta = int(rng.integers(-1, 2))
        z = float(rng.uniform(0.1, 0.9)) if theta == -1 \
            else float(10.0 ** rng.uniform(-1, 1))
        eps = float(rng.uniform(-0.5, 0.5))
        got = brute_charpoly_reduced(z, theta, eps)
        cc = q.shear_charpoly_coeffs(z, theta, eps)
        assert got["lam3_residual"] < 1e-8
        assert got["deflation_residual"] < 1e-8
        assert abs(got["lead"] - 25.0) < 1e-8
        for name, ref in (("c4", cc.c4), ("c3", cc.c3), ("c2", cc.c2),
                          ("const", cc.const)):
            assert abs(got[name] - ref) <= 1e-8 * (1.0 + abs(ref)), (theta, z, eps)


def test_annihilation_at_equilibrium(theta):
    zs = [0.2, 0.5, 0.9] if theta == -1 else [0.1, 1.0, 20.0]
    tol = 1e-12 if theta == 0 else 1e-9
    for z in zs:
        eq = EquilibriumParams(theta=theta, z=z, u=np.zeros(3), T=1.0)
        M1 = q.assemble_M(eq, 1)
        assert q.annihilation_residual(M1, z, theta, T=1.0) <= tol, z


def test_fermion_crossing_location_and_neighborhood():
    z_star = q.fermion_crossing()
    assert abs(z_star - 11.687) < 5e-3
    for z in (z_star - 0.05, z_star, z_star + 0.05):
        eq = EquilibriumParams(theta=1, z=z, u=np.zeros(3), T=1.0)
        M1 = q.assemble_M(eq, 1)
        assert q.annihilation_residual(M1, z, 1, T=1.0) <= 1e-9, z


def test_fermion_crossing_requires_bracket():
    with pytest.raises(NoRoot):
        q.fermion_crossing(lo=20.0, hi=30.0)


def test_closed_forms_evaluate_polylog_once(theta, monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return q.eval_polylog_batch(*args, **kwargs)

    for mod in (state, spectral):
        monkeypatch.setattr(mod, "eval_polylog_batch", counting, raising=False)
    z = 0.5 if theta == -1 else 2.0
    q.char_poly_equilibrium(z, theta)
    assert len(calls) == 1
    eq = EquilibriumParams(theta=theta, z=z, u=np.zeros(3), T=1.0)
    M1 = q.assemble_M(eq, 1)
    calls.clear()
    q.annihilation_residual(M1, z, theta, T=1.0)
    assert len(calls) == 1
