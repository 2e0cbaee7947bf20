"""Eigenvalue classification, characteristic polynomials, annihilation."""
import dataclasses
import math
import warnings

import numpy as np
import pytest

import qgrad13 as q
from qgrad13 import (Classification, EquilibriumParams, analysis, matrices,
                     spectral, state)
from qgrad13.analysis import random_fugacity, random_moment_state, random_unit_vectors
from qgrad13.polylog import FERMI_Z_C
from qgrad13.spectral import CLASS_CODES, brute_charpoly_reduced, charpoly_coeffs


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


def test_classify_batch_eigenvalues_are_complex_on_a_real_stack():
    """`eigenvalues` keeps one dtype, also where eigvals finds no imaginary part."""
    real = np.stack([np.diag([0.0, 1.0, 2.0]), np.diag([1.0, 1.0, 2.0]),
                     np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])])
    assert np.linalg.eigvals(real).dtype == np.float64
    codes, aux = q.classify_batch(real)
    assert list(codes) == [0, 1, 2]
    assert aux["eigenvalues"].dtype == np.complex128
    np.testing.assert_array_equal(aux["eigenvalues"].real, np.linalg.eigvals(real))
    np.testing.assert_array_equal(aux["max_imag"], 0.0)


def _loop_verdict(A):
    """Per-matrix reference: cluster one value at a time, np.mean per
    cluster, one SVD per cluster; (class, min_gap, max_imag, clusters)."""
    w = np.linalg.eigvals(A)
    rel_im = np.abs(w.imag) / (1.0 + np.abs(w))
    if np.any(rel_im > spectral.IMAG_TOL):
        return "NonHyperbolic", 0.0, float(rel_im.max()), None
    clusters = []
    for v in np.sort(w.real):
        prev = clusters[-1][-1] if clusters else None
        if prev is not None and v - prev <= spectral.GAP_TOL * (
                1.0 + max(abs(prev), abs(v))):
            clusters[-1].append(v)
        else:
            clusters.append([v])
    reps = [np.mean(c) for c in clusters]
    gaps = [(b - a) / (1.0 + abs(a)) for a, b in zip(reps, reps[1:])]
    scale = np.linalg.norm(A, 2)
    diags, cls = [], "HyperbolicStrict"
    for c, lam in zip(clusters, reps):
        geo, smin = 1, None
        if len(c) > 1:
            sv = np.linalg.svd(A - lam * np.eye(len(A)), compute_uv=False)
            geo, smin = int(np.sum(sv <= spectral.SV_TOL * scale)), float(sv[-1])
            cls = "NonDiagonalizable" if geo < len(c) or cls == "NonDiagonalizable" \
                else "HyperbolicDegenerate"
        diags.append((float(lam), len(c), geo, smin))
    return cls, min(gaps, default=math.inf), float(rel_im.max()), diags


def test_batch_codes_are_the_single_verdicts(rng):
    """One classifier: each cell of a mixed stack gets the code, min_gap and
    max_imag of its own N = 1 verdict, and both match the per-matrix loop
    bit for bit (cluster means included, up to a 9-fold cluster)."""
    P = np.eye(13)[rng.permutation(13)]   # exact: a rounded Jordan block splits
    d = np.arange(13.0) - 6.0
    repeated = np.diag(np.r_[d[:10], 4.5, 4.5, 4.5])
    jordan = np.diag(np.r_[d[:12], d[11]])
    jordan[11, 12] = 1.0
    rotation = np.diag(d)
    rotation[:2, :2] = [[0.0, -1.0], [1.0, 0.0]]
    ninefold = np.diag(np.r_[np.full(9, 0.3), d[:4]])
    mats = [np.diag(d)] + [P @ J @ P.T
                           for J in (repeated, jordan, rotation, ninefold)]
    for i in range(200):
        st, eq = random_moment_state(rng, (-1, 0, 1)[i % 3])
        ndir = random_unit_vectors(rng, 1)[0]
        mats.append(q.assemble_A_regularized(st, eq, ndir).A)
    codes, aux = q.classify_batch(np.stack(mats))
    verdicts = [q.diagonalizability_test(A) for A in mats]
    assert list(codes[:5]) == [0, 1, 2, 3, 1]
    assert list(codes) == [CLASS_CODES[v.classification] for v in verdicts]
    np.testing.assert_array_equal(aux["min_gap"], [v.min_gap for v in verdicts])
    np.testing.assert_array_equal(aux["max_imag"], [v.max_imag for v in verdicts])
    assert aux["n_slow"][0] == 203   # every FinalR13 matrix has a cluster
    for A, v in zip(mats, verdicts):
        cls, min_gap, max_imag, diags = _loop_verdict(A)
        assert (v.classification.value, v.min_gap, v.max_imag) \
            == (cls, min_gap, max_imag)
        if diags is not None:
            assert [(c.value.real, c.algebraic, c.geometric, c.min_singular_value)
                    for c in v.diagnostics] == diags


def test_single_final_verdicts_are_the_batch_cells(rng):
    """300 c5-style FinalR13 matrices, each with clusters of sizes 2, 2 and 5:
    every N = 1 verdict is its cell of the stacked classification, bit for
    bit, eigenvalues and each cluster's value, multiplicities and min_sv."""
    draws = [random_moment_state(rng, (-1, 0, 1)[i % 3]) for i in range(300)]
    sm = matrices.regularized_stack(matrices.stack_states(*zip(*draws)),
                                    random_unit_vectors(rng, len(draws)))
    codes, aux = q.classify_batch(sm.A)
    c = aux["clusters"]
    for i, A in enumerate(sm.A):
        v = q.diagonalizability_test(A)
        assert CLASS_CODES[v.classification] == codes[i]
        assert (v.min_gap, v.max_imag) == (aux["min_gap"][i], aux["max_imag"][i])
        np.testing.assert_array_equal(v.eigenvalues, np.sort_complex(aux["eigenvalues"][i]))
        mine = c["cell"] == i
        assert [(d.value, d.algebraic, d.geometric, d.min_singular_value)
                for d in v.diagnostics] == [
            (complex(x), a, g, None if a == 1 else s)
            for x, a, g, s in zip(c["value"][mine].tolist(), c["algebraic"][mine].tolist(),
                                  c["geometric"][mine].tolist(), c["min_sv"][mine].tolist())]
        assert sorted(d.algebraic for d in v.diagnostics if d.algebraic > 1) == [2, 2, 5]


def test_one_state_check_makes_a_fixed_set_of_solves(monkeypatch):
    """Draw, direction, regularized assembly and verdict: two eigvalsh (the
    draw's amplitude, MomentState13's positive definiteness), two svd (D's
    condition, one gather of the clusters) and one eigvals per state."""
    calls = {"eigvalsh": 0, "svd": 0, "eigvals": 0}

    def counting(name, f):
        def wrapped(*args, **kwargs):
            calls[name] += 1
            return f(*args, **kwargs)
        return wrapped

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counting(name, getattr(np.linalg, name)))
    rng = np.random.Generator(np.random.Philox(20261020))
    for i in range(60):
        st, eq = random_moment_state(rng, (1, -1, 0)[i % 3])
        sm = q.assemble_A_regularized(st, eq, random_unit_vectors(rng, 1)[0])
        assert q.diagonalizability_test(sm.A).classification in (
            Classification.HyperbolicStrict, Classification.HyperbolicDegenerate)
    assert calls == {"eigvalsh": 120, "svd": 120, "eigvals": 60}


def _classify_reference(A_stack):
    """`classify_batch` with the slow path it had before the Frobenius bounds:
    one gather of the slow cells and of every cluster's A - mean I, one SVD,
    and SV_TOL * ||A||_2 from the slow cells' svd(A)[:, 0]."""
    A_stack = np.asarray(A_stack, dtype=float)
    N, k = A_stack.shape[:2]
    w = np.linalg.eigvals(A_stack)
    max_imag = (np.maximum.reduce(np.abs(w.imag) / (1.0 + np.abs(w)), axis=1)
                if w.dtype.kind == "c" else np.zeros(N))
    real = max_imag <= spectral.IMAG_TOL
    x = np.sort(w.real, axis=1)
    ax = np.abs(x)
    join = x[:, 1:] - x[:, :-1] <= spectral.GAP_TOL * (
        1.0 + np.maximum(ax[:, :-1], ax[:, 1:]))
    start = np.concatenate((real[:, None], ~join & real[:, None]),
                           axis=1).ravel().nonzero()[0]
    cell = start // k
    algebraic = np.minimum(np.concatenate((start[1:], [N * k])), (cell + 1) * k) - start
    x = x.ravel()
    value = x[start] + 0.0
    pair = (algebraic > 1).nonzero()[0]
    first, size, owner = start[pair], algebraic[pair], cell[pair]
    for m in np.bincount(size).nonzero()[0]:
        sel = size == m
        value[pair[sel]] = np.add.reduce(x[first[sel, None] + np.arange(m)], 1) / m
    rel_gap = (value[1:] - value[:-1]) / (1.0 + np.abs(value[:-1]))
    min_gap = np.where(real, np.inf, 0.0)
    np.minimum.at(min_gap, cell[1:], np.where(cell[1:] == cell[:-1], rel_gap, np.inf))
    slow = np.bincount(owner, minlength=N).nonzero()[0]
    mats = A_stack[np.concatenate((slow, owner))]
    mats.reshape(-1, k * k)[slow.size:, ::k + 1] -= value[pair, None]
    sv = np.linalg.svd(mats, compute_uv=False)
    scale = np.zeros(N)
    scale[slow] = sv[:slow.size, 0]
    sv = sv[slow.size:]
    geometric = np.ones(start.size, dtype=np.intp)
    geometric[pair] = np.add.reduce(
        sv <= spectral.SV_TOL * np.maximum(scale[owner], 1e-300)[:, None], 1)
    min_sv = np.full(start.size, np.nan)
    min_sv[pair] = sv[:, -1]
    codes = np.where(real, 0, 3).astype(np.int8)
    codes[slow] = 1
    codes[cell[geometric < algebraic]] = 2
    clusters = {"cell": cell, "value": value, "algebraic": algebraic,
                "geometric": geometric, "min_sv": min_sv}
    return codes, {"max_imag": max_imag, "min_gap": min_gap,
                   "eigenvalues": w.astype(complex, copy=False),
                   "n_slow": np.array([slow.size]), "clusters": clusters}


def _assert_classified_as_reference(A_stack):
    """classify_batch's codes and every aux array equal the reference's."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        codes, aux = q.classify_batch(A_stack)
    ref_codes, ref = _classify_reference(A_stack)
    assert codes.dtype == ref_codes.dtype and np.array_equal(codes, ref_codes)
    for key in ("max_imag", "min_gap", "eigenvalues", "n_slow"):
        assert aux[key].dtype == ref[key].dtype and np.array_equal(aux[key], ref[key]), key
    for key in ("cell", "value", "algebraic", "geometric", "min_sv"):
        got, want = aux["clusters"][key], ref["clusters"][key]
        assert got.dtype == want.dtype, key
        assert np.array_equal(got, want, equal_nan=key == "min_sv"), key
    return codes


def _clustered(rng, k, n):
    """n k x k matrices similar to diagonals with repeated values, some with
    a Jordan block, some with a tiny perturbation."""
    out = []
    for i in range(n):
        d = np.repeat(rng.normal(size=k), rng.integers(1, 4, size=k))[:k]
        J = np.diag(d)
        if i % 3 == 1 and d[0] == d[1]:
            J[0, 1] = 1.0
        P = rng.normal(size=(k, k))
        A = P @ J @ np.linalg.inv(P)
        if i % 3 == 2:
            A += 1e-12 * rng.normal(size=(k, k))
        out.append(A)
    return np.stack(out)


def test_slow_path_is_the_reference_on_mixed_stacks(rng):
    """Random and clustered 5x5 and 13x13 stacks, the zero matrix, scaled
    identities from 1e-200 to 1e200 and N = 1 stacks classify exactly as the
    one-gather slow path did."""
    for k in (5, 13):
        _assert_classified_as_reference(rng.normal(size=(200, k, k)))
        mixed = np.concatenate((_clustered(rng, k, 300), rng.normal(size=(50, k, k))))
        codes = _assert_classified_as_reference(mixed)
        assert set(codes.tolist()) >= {1, 2, 3}
        for A in mixed[:3]:
            _assert_classified_as_reference(A[None])
    scaled = np.stack([c * np.eye(13) for c in
                       (0.0, 1e-200, -1e-150, 1e-3, 1.0, 7.0, -1e150, 1e200)])
    assert list(_assert_classified_as_reference(scaled)) == [1] * 8
    for A in scaled[[0, 1, 7]]:
        _assert_classified_as_reference(A[None])
    jordan = 1e-200 * (np.eye(13) + np.eye(13, k=1))
    assert _assert_classified_as_reference(jordan[None])[0] == 2


def test_slow_path_is_the_reference_on_a_region_reg_grid(monkeypatch):
    """Every FinalR13 cell of region-reg has a cluster; the stacks the scan
    classifies, random and fixed direction, match the reference."""
    seen = []

    def checked(A_stack):
        seen.append(len(A_stack))
        _assert_classified_as_reference(A_stack)
        return q.classify_batch(A_stack)

    monkeypatch.setattr(analysis, "classify_batch", checked)
    for direction in ("random", 2):
        grid = q.region_scan_regularized(1, 2.5, n=21, direction=direction, seed=4,
                                         threads=1)
        assert grid.metadata["n_slow"] == grid.metadata["n_classified"]
    assert sum(seen) == 21 * 21 + 11 * 11   # axis 2: one quadrant


def test_slow_path_falls_back_to_the_exact_norm(monkeypatch):
    """2 I + eps at (0, 1), eps log-spaced on [1e-9, 1e-6], sweeps the defect's
    singular value eps through [SV_TOL F / sqrt(13), SV_TOL F]: those clusters
    take the SVD of A for ||A||_2 and classify as the reference does.  The 600
    clusters are gathered at most 256 at a time."""
    calls = []
    svd = np.linalg.svd

    def recording(a, *args, **kwargs):
        calls.append(np.array(a))
        return svd(a, *args, **kwargs)

    stack = np.tile(2.0 * np.eye(13), (600, 1, 1))
    stack[:, 0, 1] = np.logspace(-9, -6, 600)
    monkeypatch.setattr(np.linalg, "svd", recording)
    codes = _assert_classified_as_reference(stack)
    monkeypatch.undo()
    assert 200 < np.sum(codes == 1) < 400 and np.sum(codes == 1) + np.sum(codes == 2) == 600
    calls = calls[:len(calls) - 1]   # the last is the reference's one gather
    diagonals = [np.diagonal(a, axis1=1, axis2=2) for a in calls]
    gathers = [a for a, d in zip(calls, diagonals) if np.all(d == 0.0)]
    exact = [a for a, d in zip(calls, diagonals) if np.all(d == 2.0)]
    assert len(gathers) == 3 and max(len(a) for a in gathers) == spectral._GATHER
    assert exact and len(gathers) + len(exact) == len(calls)


def _a_coeffs(c, rho, p, p11):
    """Reduced-system entries a1, a2, a3 at (rho, p, p11), from raw li ratios:
    the reference for the q1 row of the Grad13 5x5 matrix."""
    T = c.T
    b = c.b_low
    L1, L3, L5, L7, L9 = c.L1, c.L3, c.L5, c.L7, c.L9
    sig11 = p11 - p
    a1 = (5.0 * p * T * b / (2.0 * rho)) * (3.5 * L3 ** 2 * L7 / (L1 * L5 ** 2)
                                            - 2.5 * L3 / L1) \
        + (7.0 * sig11 * T * b / (2.0 * rho)) * (
            L3 ** 2 * L9 / (L1 * L5 * L7)
            - 2.5 * (L3 / L1 - L3 * L5 * L9 / (L1 * L7 ** 2)))
    a2 = 3.5 * T * c.L97 - 1.5 * p / rho - p11 / rho
    a3 = 2.5 * T * ((1.0 + b) * c.L75
                    - 1.5 * b * (L3 / L1) * (1.0 - c.r)) \
        + 3.5 * T * ((sig11 * b / p - 1.0) * c.L97
                     - 1.5 * b * (L3 / L1) * (sig11 / p) * (1.0 - c.r2))
    return a1, a2, a3


def test_grad_reduced_matrix_matches_raw_li_reference(theta, rng):
    """The 5x5 Grad13 matrix, FinalR13's plus four non-equilibrium terms,
    equals the a1..a3 display form to 1e-14 of each row's largest entry."""
    for _ in range(200):
        z = random_fugacity(rng, theta)
        eq = EquilibriumParams(theta=theta, z=z, u=np.zeros(3),
                               T=float(rng.uniform(0.5, 2.0)))
        shat, qhat, u1 = (float(rng.uniform(*b))
                          for b in ((-0.999, 1.999), (-3.0, 3.0), (-1.0, 1.0)))
        st5 = q.state5_from_hat(dataclasses.replace(eq, u=(u1, 0, 0)), shat, qhat)
        rho, u1, p11, q1, p = st5.rho, st5.u1, st5.p11, st5.q1, st5.p
        a1, a2, a3 = _a_coeffs(eq.coeffs, rho, p, p11)
        ref = np.array([[u1, rho, 0.0, 0.0, 0.0],
                        [0.0, u1, 1.0 / rho, 0.0, 0.0],
                        [0.0, 3.0 * p11, u1, 1.2, 0.0],
                        [-a1, 3.2 * q1, a2, u1, a3],
                        [0.0, p + (2.0 / 3.0) * p11, 0.0, 2.0 / 3.0, u1]])
        got = q.assemble_A5_grad(st5, eq)
        rows = np.max(np.abs(ref), axis=1, keepdims=True)
        assert np.max(np.abs(got - ref) / rows) <= 1e-14, (z, eq.T)


def _char_poly_A5_analytic(st5, eq):
    """Degree-5 coefficients (highest first) in lam_hat = (lam - u1)/sqrt(T).

    p(lam_hat) = lam_hat (75 T^2 lam_hat^4
                          - (90 a2 + 50 a3 + 225 p11/rho) T lam_hat^2
                          - 288 (q1/rho) sqrt(T) lam_hat
                          + 90 (a1 + a3 sigma11/rho))
    """
    T = eq.T
    rho, p11, q1, p = st5.rho, st5.p11, st5.q1, st5.p
    a1, a2, a3 = _a_coeffs(eq.coeffs, rho, p, p11)
    C2 = 90.0 * a2 + 50.0 * a3 + 225.0 * p11 / rho
    return np.array([75.0 * T ** 2, 0.0, -C2 * T,
                     -288.0 * (q1 / rho) * math.sqrt(T),
                     90.0 * (a1 + a3 * st5.sigma11 / rho), 0.0])


def test_analytic_reduced_charpoly(theta, rng):
    z = 0.6 if theta == -1 else 1.8
    eq = EquilibriumParams(theta=theta, z=z, u=np.zeros(3), T=1.3)
    rt = math.sqrt(eq.T)
    for _ in range(6):
        shat, qhat, u1 = (float(rng.uniform(*b)) for b in ((-0.9, 1.9), (-2, 2), (-1, 1)))
        st5 = q.state5_from_hat(dataclasses.replace(eq, u=(u1, 0, 0)), shat, qhat)
        A5 = q.assemble_A5_grad(st5, eq)
        coeffs = _char_poly_A5_analytic(st5, eq)
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
        assert q.annihilation_residual(M1, z, theta) <= tol, z


def test_fermion_crossing_location_and_neighborhood():
    z_star = q.fermion_crossing()
    assert abs(z_star - 11.687) < 5e-3
    for z in (z_star - 0.05, z_star, z_star + 0.05):
        eq = EquilibriumParams(theta=1, z=z, u=np.zeros(3), T=1.0)
        M1 = q.assemble_M(eq, 1)
        assert q.annihilation_residual(M1, z, 1) <= 1e-9, z


def test_char_poly_equilibrium_names_the_fermion_bound():
    """Above FERMI_Z_C the quartic's roots are complex: a DomainError that
    names the bound, not a convergence failure, also past li's table."""
    q.char_poly_equilibrium(0.99 * FERMI_Z_C, 1)
    for z in (3e5, 1e13):
        with pytest.raises(q.DomainError, match=f"FERMI_Z_C = {FERMI_Z_C!r}"):
            q.char_poly_equilibrium(z, 1)


def test_regularization_hyperbolic_up_to_the_domain_edges(monkeypatch):
    """c5's draw and direction, with Fermion z log-uniform on
    [1e2, 0.95 FERMI_Z_C] and Boson z uniform in log(1 - z) on
    [0.99, 1 - 1e-9]: no state is NonDiagonalizable or NonHyperbolic."""
    rng = np.random.Generator(np.random.Philox(20261019))
    ranges = {1: lambda: 10.0 ** rng.uniform(2.0, math.log10(0.95 * FERMI_Z_C)),
              -1: lambda: 1.0 - 10.0 ** rng.uniform(-9.0, -2.0)}
    bad = {}
    for theta, n in ((1, 1500), (-1, 2400)):
        monkeypatch.setattr(analysis, "random_fugacity",
                            lambda rng, theta, bose_z_max: float(ranges[theta]()))
        codes = []
        for start in range(0, n, 1024):
            drawn = [random_moment_state(rng, theta)
                     for _ in range(min(1024, n - start))]
            sm = matrices.regularized_stack(matrices.stack_states(*zip(*drawn)),
                                            random_unit_vectors(rng, len(drawn)))
            codes.append(q.classify_batch(sm.A)[0])
        bad[theta] = int(np.sum(np.concatenate(codes)
                                >= CLASS_CODES[Classification.NonDiagonalizable]))
    assert bad == {1: 0, -1: 0}


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
    q.annihilation_residual(M1, z, theta)
    assert len(calls) == 1


def _fluxes_1d(U, theta):
    """The 1D fluxes, the integrals of xi1 psi f for psi = 1, xi1, xi1^2,
    |xi|^2 and xi1 |xi|^2, by quadrature of the ansatz f whose densities, the
    integrals of psi f, are U."""
    rho, m1, e11, e, Q = U
    u1 = m1 / rho
    p11 = e11 - rho * u1 ** 2
    p = (e - rho * u1 ** 2) / 3.0
    q1 = 0.5 * (Q - rho * u1 ** 3 - 3.0 * p * u1 - 2.0 * u1 * p11)
    eq = q.fit_equilibrium(rho, p, theta, u=(u1, 0.0, 0.0))
    pt = 0.5 * (3.0 * p - p11)
    st = q.MomentState13(rho=rho, u=eq.u, p_ij=np.diag([p11, pt, pt]),
                         q=[q1, 0.0, 0.0])
    m = q.ansatz_moments(st, eq, n_nodes=400, half_width=14.0)
    r, P11, trp = m["rho"], m["p_ij"][0, 0], np.trace(m["p_ij"])
    Q1, Q111, D11 = m["q"][0], m["q_ijk"][0, 0, 0], m["Delta_ij"][0, 0]
    return np.array([r * u1, r * u1 ** 2 + P11,
                     r * u1 ** 3 + 3.0 * u1 * P11 + Q111,
                     r * u1 ** 3 + u1 * trp + 2.0 * u1 * P11 + 2.0 * Q1,
                     r * u1 ** 4 + u1 ** 2 * trp + 5.0 * u1 ** 2 * P11
                     + 4.0 * u1 * Q1 + 2.0 * u1 * Q111 + D11])


@pytest.mark.parametrize("z", [1e2, 2.2e5, 2.4e5, 1e6])
def test_quadrature_jacobian_matches_equilibrium_quartic(z):
    """An oracle free of LiCoeffs' chain rule and of closure_moments: the
    central-difference Jacobian of the quadrature fluxes at equilibrium, T = 1,
    has eigenvalues u1 + {0, +-sqrt(x_+-)}, complex above FERMI_Z_C."""
    u1 = 0.4
    ref = EquilibriumParams(theta=1, z=z, u=np.zeros(3), T=1.0)
    rho, p = ref.rho, ref.p
    U = np.array([rho, rho * u1, rho * u1 ** 2 + p, rho * u1 ** 2 + 3.0 * p,
                  rho * u1 ** 3 + 5.0 * p * u1])
    J = np.empty((5, 5))
    for j, h in enumerate(1e-5 * U):
        step = np.zeros(5)
        step[j] = h
        J[:, j] = (_fluxes_1d(U + step, 1) - _fluxes_1d(U - step, 1)) / (2.0 * h)
    got = list(np.linalg.eigvals(J) - u1)
    roots = np.sqrt(np.roots([1.0, -ref.coeffs.c1, ref.coeffs.c0]).astype(complex))
    assert (z > FERMI_Z_C) == bool(np.any(roots.imag != 0.0))
    for want in np.concatenate([[0.0], roots, -roots]):
        k = int(np.argmin(np.abs(np.subtract(got, want))))
        assert abs(got[k] - want) <= 1e-6 * max(1.0, abs(want)), (z, want, got)
        got.pop(k)
