"""Assembly of the quasi-linear coefficient matrices and their invariants."""
import dataclasses
import hashlib
import math
import re
import warnings

import numpy as np
import pytest

import qgrad13 as q
from qgrad13 import DomainError, EquilibriumParams, MomentState13, SystemKind, solver1d
from qgrad13 import matrices
from qgrad13.analysis import random_fugacity, random_moment_state, random_unit_vectors

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


def _state13_from_state5(st5):
    """Embed the 1D reduction: p22 = p33 = (3p - p11)/2, transverse moments zero."""
    p_perp = 0.5 * (3.0 * st5.p - st5.p11)
    return MomentState13(rho=st5.rho, u=np.array([st5.u1, 0.0, 0.0]),
                         p_ij=np.diag([st5.p11, p_perp, p_perp]),
                         q=np.array([st5.q1, 0.0, 0.0]))


# selection and embedding between w (13) and w5 = (rho, u1, p11, q1, p)
_S_REDUCE = np.zeros((5, 13))
_S_REDUCE[0, 0] = _S_REDUCE[1, 1] = _S_REDUCE[2, 4] = _S_REDUCE[3, 10] = 1.0
_S_REDUCE[4, 4] = _S_REDUCE[4, 7] = _S_REDUCE[4, 9] = 1.0 / 3.0
_T_EMBED = np.zeros((13, 5))
_T_EMBED[0, 0] = _T_EMBED[1, 1] = _T_EMBED[4, 2] = _T_EMBED[10, 3] = 1.0
_T_EMBED[7, 4] = _T_EMBED[9, 4] = 1.5
_T_EMBED[7, 2] = _T_EMBED[9, 2] = -0.5


def _reduce_to_1d(kind, st5, eq):
    """5x5 convection matrix of the chosen model on the 1D-symmetric manifold,
    taken from the full 13x13 assembly: the reference for the closed forms."""
    A = q.assemble_A(kind, _state13_from_state5(st5), eq, 1)
    return _S_REDUCE @ A @ _T_EMBED


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
        st5 = q.state5_from_hat(dataclasses.replace(eq, u=(u1, 0, 0)), shat, qhat)
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
    st5 = q.state5_from_hat(dataclasses.replace(eq, u=(0.2, 0, 0)), 0.35, -1.1)
    full = _state13_from_state5(st5)
    assert full.p_ij[0, 0] == st5.p11
    # transverse pressures keep the trace: p22 = p33 = (3p - p11)/2
    assert abs(full.p_ij[1, 1] - 0.5 * (3.0 * eq.p - st5.p11)) < 1e-13
    assert full.q[0] == st5.q1 and full.q[1] == 0.0
    direct = q.assemble_A5_grad(st5, eq)
    reduced = _reduce_to_1d(SystemKind.Grad13, st5, eq)
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


def _axis_permutation_matrix(d):
    """Representation P of the axis swap 1 <-> d on w."""
    s = {1: d, d: 1}
    P = np.zeros((13, 13))
    P[0, 0] = 1.0
    for i in (1, 2, 3):
        P[i, s.get(i, i)] = P[9 + i, 9 + s.get(i, i)] = 1.0
    for i, j in ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)):
        P[q.pslot(i, j), q.pslot(s.get(i, i), s.get(j, j))] = 1.0
    return P


def test_axis_permutation_consistency(rng):
    st, eq = random_moment_state(rng, 1)
    for d, other in ((2, 1), (3, 2)):
        P = _axis_permutation_matrix(d)
        st_sw, eq_sw = _swap_state(st, eq, 0, d - 1)
        A_d = q.assemble_A(SystemKind.Grad13, st, eq, d)
        A_1 = q.assemble_A(SystemKind.Grad13, st_sw, eq_sw, 1)
        np.testing.assert_array_equal(A_d, P @ A_1 @ np.linalg.inv(P))


def test_M_d_is_the_axis_swap_of_M_1(theta, rng):
    _, eq = random_moment_state(rng, theta)
    for d in (2, 3):
        P = _axis_permutation_matrix(d)
        np.testing.assert_array_equal(q.assemble_M(eq, d), P.T @ q.assemble_M(eq, 1) @ P)


def _bits_equal(batch, one):
    """Equal as arrays and in every sign bit, so signed zeros count too."""
    np.testing.assert_array_equal(batch, one)
    np.testing.assert_array_equal(np.signbit(batch), np.signbit(one))


def _skipping_sum(axis_matrix, n):
    """sum_d n_d axis_matrix(d) from zeros over the nonzero n_d of n / |n|,
    the directional sum as the per-state assembly once wrote it."""
    n = np.asarray(n, dtype=float) / np.linalg.norm(n)
    A = np.zeros((13, 13))
    for d in (1, 2, 3):
        if n[d - 1] != 0.0:
            A += n[d - 1] * axis_matrix(d)
    return A


def test_batch_is_the_states_one_by_one(rng):
    """Every stacked assembly equals its N single-state calls bit for bit:
    each kind and axis, each kind along a direction, and the regularized
    direction, A, D, M and B.  Along directions with zero components, an
    axis among them, adding every component equals the old sum that skipped
    the zero ones."""
    states, eqs = zip(*(random_moment_state(rng, (-1, 0, 1)[i % 3]) for i in range(60)))
    special = [(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0),
               (0.0, 0.0, -3.0)]
    dirs = np.vstack([special, random_unit_vectors(rng, len(states) - len(special))])
    S = matrices.stack_states(states, eqs)
    assert S.coeffs.L1.shape == (len(states),)
    for kind in KINDS:
        axes = matrices.assemble_axes(kind, S)
        along = matrices.assemble_along(kind, S, dirs)
        for i, (st, eq) in enumerate(zip(states, eqs)):
            for d in (1, 2, 3):
                _bits_equal(axes[i, d - 1], q.assemble_A(kind, st, eq, d))
            _bits_equal(along[i], q.assemble_A_direction(kind, st, eq, dirs[i]))
            _bits_equal(along[i], _skipping_sum(lambda d: q.assemble_A(kind, st, eq, d),
                                                dirs[i]))
    sm = matrices.regularized_stack(S, dirs)
    for i, (st, eq) in enumerate(zip(states, eqs)):
        one = q.assemble_A_regularized(st, eq, dirs[i])
        for name in ("A", "D", "M", "B"):
            _bits_equal(getattr(sm, name)[i], getattr(one, name))
        _bits_equal(sm.M[i], _skipping_sum(lambda d: q.assemble_M(eq, d), dirs[i]))
    st, eq = states[0], eqs[0]
    for kind in KINDS:
        _bits_equal(q.assemble_A_direction(kind, st, eq, 2),
                    _skipping_sum(lambda d: q.assemble_A(kind, st, eq, d), 2 * np.eye(3)[1]))
    with pytest.raises(DomainError):
        matrices.assemble_along(SystemKind.Grad13, S, np.zeros((len(states), 3)))


def test_factorization_of_final_regularization(theta, rng):
    for _ in range(4):
        st, eq = random_moment_state(rng, theta)
        for d in (1, 2, 3):
            sm = q.assemble_A_regularized(st, eq, d)
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


@pytest.mark.parametrize("n", [(math.nan, 0.0, 0.0), (0.0, -math.inf, 0.0),
                               (1e200, 1e200, 0.0), (0.0, 0.0, 0.0)],
                         ids=["nan", "inf", "norm-overflows", "zero"])
def test_direction_must_be_finite_with_a_finite_nonzero_norm(n, rng):
    """A direction with a non-finite component, or whose norm is zero or
    overflows, is a DomainError naming it, where NaN and inf once gave an
    all-NaN A and an overflowing norm the zero direction."""
    st, eq = random_moment_state(rng, 1)
    for assemble in (lambda: q.assemble_A_regularized(st, eq, n),
                     lambda: q.assemble_A_direction(SystemKind.FinalR13, st, eq, n),
                     lambda: matrices.regularized_stack(
                         matrices.stack_states((st, st), (eq, eq)), [(0.0, 1.0, 0.0), n])):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)   # the overflow itself
            with pytest.raises(DomainError, match=re.escape(str(list(n)))):
                assemble()


def test_nan_factorization_residual_is_singular(rng, monkeypatch):
    """The residual check fails on NaN, as it does on a residual above its bound."""
    st, eq = random_moment_state(rng, 0)
    monkeypatch.setattr(matrices, "_m_axes", lambda c: np.full((3, 169, 1), np.nan))
    with pytest.raises(q.SingularD, match="state 0: factorization residual nan"):
        q.assemble_A_regularized(st, eq, (0.0, 0.6, 0.8))


@pytest.mark.parametrize("axis", [0, -1, 4])
def test_axis_outside_1_to_3_is_a_domain_error(axis, rng):
    """An integer direction names one of the axes 1, 2 and 3, where 0 and -1
    once indexed from the end (axes 3 and 2) and 4 raised an IndexError."""
    st, eq = random_moment_state(rng, 1)
    for assemble in (lambda: q.assemble_A(SystemKind.Grad13, st, eq, axis),
                     lambda: q.assemble_M(eq, axis),
                     lambda: q.assemble_A_direction(SystemKind.FinalR13, st, eq, axis),
                     lambda: q.assemble_A_regularized(st, eq, axis)):
        with pytest.raises(DomainError, match=f"axis must be 1, 2 or 3, got {axis}$"):
            assemble()


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


def _assembly_digests():
    """sha256 of every assembly's bytes, signed zeros included: each kind and
    axis and the factors along one random direction on 50 c5-style states,
    and the solver's FinalR13 stack with its radii on 400 cells per statistics."""
    rng = np.random.Generator(np.random.Philox(20261018))
    h = {name: hashlib.sha256() for name in ("assemble_A", "regularized", "a5_final")}
    for i in range(50):
        st, eq = random_moment_state(rng, (-1, 0, 1)[i % 3])
        for kind in KINDS:
            for d in (1, 2, 3):
                h["assemble_A"].update(q.assemble_A(kind, st, eq, d).tobytes())
        sm = q.assemble_A_regularized(st, eq, random_unit_vectors(rng, 1)[0])
        for M in (sm.A, sm.D, sm.M, sm.B):
            h["regularized"].update(M.tobytes())
    for theta in (-1, 0, 1):
        z = np.array([random_fugacity(rng, theta) for _ in range(400)])
        p = rng.uniform(0.5, 3.0, 400)
        w = np.column_stack([rng.uniform(0.5, 3.0, 400), rng.uniform(-1.0, 1.0, 400),
                             p * (1.0 + rng.uniform(-0.9, 1.9, 400)),
                             p * rng.uniform(-2.0, 2.0, 400), p])
        A, radius = solver1d._a5_final_stack(w, rng.uniform(0.5, 2.0, 400),
                                             q.eval_polylog_batch(z, theta))
        h["a5_final"].update(A.tobytes() + radius.tobytes())
    return {name: d.hexdigest()[:32] for name, d in h.items()}


def test_assembly_bits_pinned():
    """Every entry of every assembly, recorded before the 13x13 assemblies were
    merged into one routine and the solver's 5x5 stack moved to `_a5_stack`,
    and re-recorded with the assembly code unchanged when li moved its branch
    switch to z = e^-1."""
    assert _assembly_digests() == {"assemble_A": "e87ccd46b2e2ff665a8cc0eb4ff24eff",
                                   "regularized": "90ddcaa9a8ee0497ba0445749098c3c9",
                                   "a5_final": "21f7554e2b39f7afc0d8ce1f2e50703a"}


@pytest.mark.parametrize("ops", [matrices._a_ops(kind) for kind in KINDS]
                         + [matrices._d_ops()], ids=[k.value for k in KINDS] + ["D"])
def test_op_tables_keep_the_term_order_rule(ops):
    """One scatter per term sums each entry in the loops' order only if no
    (d, row, col) entry takes two ops of one term and every entry meets its
    terms in the order the terms first appear in the op list."""
    rank = {term: n for n, term in enumerate(dict.fromkeys(op[3] for op in ops))}
    by_entry = {}
    for d, row, col, term, *_ in ops:
        by_entry.setdefault((d, row, col), []).append(rank[term])
    for entry, ranks in by_entry.items():
        assert ranks == sorted(set(ranks)), entry


def test_r13_kinds_read_the_regularized_table():
    """A's R13 ops are compiled once: both R13 kinds read the first 507 rows
    of the table that also holds D."""
    for kind in (SystemKind.FinalR13, SystemKind.TrivialR13):
        assert matrices._TABLES[kind] is matrices._REGULARIZED
