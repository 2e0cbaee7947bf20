"""1D relaxation solver: preservation, decay, stiff limit, bookkeeping."""
import dataclasses
import math

import numpy as np
import pytest

import qgrad13 as q
from qgrad13 import (CFLViolation, DomainError, EquilibriumParams,
                     InadmissibleCell, SimConfig, SystemKind)
from qgrad13 import solver1d, state
from qgrad13.polylog import FERMI_Z_C
from test_matrices import _reduce_to_1d


def _uniform_config(theta=1, z=2.0, T=1.0, **kw):
    side = dict(z=z, u1=0.0, T=T)
    args = dict(theta=theta, cells=16, length=1.0, cfl=0.45, tau=0.1,
                t_end=0.1, left=side, right=dict(side), n_snapshots=3)
    args.update(kw)
    return SimConfig(**args)


def test_initial_condition_split():
    cfg = SimConfig(theta=0, cells=8, length=2.0, cfl=0.4, tau=1.0, t_end=0.1,
                    left=dict(z=1.0, u1=0.1, T=1.0),
                    right=dict(z=2.0, u1=-0.2, T=1.5))
    x, w0 = q.initial_condition(cfg)
    np.testing.assert_allclose(x, (np.arange(8) + 0.5) * 0.25)
    eq_l = EquilibriumParams(theta=0, z=1.0, u=(0.1, 0, 0), T=1.0)
    eq_r = EquilibriumParams(theta=0, z=2.0, u=(-0.2, 0, 0), T=1.5)
    np.testing.assert_allclose(w0[0], [eq_l.rho, 0.1, eq_l.p, 0.0, eq_l.p])
    np.testing.assert_allclose(w0[-1], [eq_r.rho, -0.2, eq_r.p, 0.0, eq_r.p])
    assert np.all(w0[:4, 0] == w0[0, 0]) and np.all(w0[4:, 0] == w0[-1, 0])


def test_config_and_start_evaluate_li_once_per_side(monkeypatch):
    """The start reads the equilibria the config built to check its sides."""
    points = _counting_points(monkeypatch)
    q.initial_condition(_uniform_config(left=dict(z=0.5, u1=0.1, T=2.0)))
    assert points == [1, 1]


def _fit(w, theta, guess=None):
    return state._fit(w[:, 0], w[:, 4], theta, 1.0, guess)


def _random_cells(theta, rng, n):
    """Admissible non-equilibrium cells: sigma11/p in (-1, 2), q1, u1 != 0."""
    rows = []
    for _ in range(n):
        z = float(rng.uniform(0.05, 0.99)) if theta == -1 \
            else float(10.0 ** rng.uniform(-1.5, 1.5))
        eq = EquilibriumParams(theta=theta, z=z, u=np.zeros(3),
                               T=float(rng.uniform(0.3, 3.0)))
        shat = float(rng.uniform(-0.99, 1.99))
        qhat = float(rng.choice([-1, 1]) * rng.uniform(0.01, 2))
        u1 = float(rng.choice([-1, 1]) * rng.uniform(0.01, 2))
        st5 = q.state5_from_hat(dataclasses.replace(eq, u=(u1, 0, 0)), shat, qhat)
        rows.append([st5.rho, st5.u1, st5.p11, st5.q1, st5.p])
    return np.array(rows)


def test_coefficient_stack_matches_reduction(theta, rng):
    z = 0.5 if theta == -1 else 2.0
    eq = EquilibriumParams(theta=theta, z=z, u=np.zeros(3), T=1.3)
    rows, states = [], []
    for _ in range(4):
        shat, qhat, u1 = (float(rng.uniform(*b)) for b in ((-0.5, 1.0), (-1, 1), (-1, 1)))
        st5 = q.state5_from_hat(dataclasses.replace(eq, u=(u1, 0, 0)), shat, qhat)
        states.append(st5)
        rows.append([st5.rho, st5.u1, st5.p11, st5.q1, st5.p])
    w = np.array(rows)
    _, T, li, _, _ = _fit(w, theta)
    stack, _ = solver1d._a5_final_stack(w, T, li)
    for i, st5 in enumerate(states):
        ref = _reduce_to_1d(SystemKind.FinalR13, st5, eq)
        np.testing.assert_allclose(stack[i], ref, rtol=0,
                                   atol=1e-10 * np.max(np.abs(ref)))


def test_spectral_radius_matches_eigvals(theta, rng):
    """The factorization's radius |u1| + sqrt(T x_plus) is max |eigvals(A)|."""
    w = _random_cells(theta, rng, 400)
    _, T, li, _, _ = _fit(w, theta)
    A, radius = solver1d._a5_final_stack(w, T, li)
    ref = np.max(np.abs(np.linalg.eigvals(A)), axis=1)
    np.testing.assert_allclose(radius, ref, rtol=1e-13, atol=0)


@pytest.mark.parametrize("theta", [1, -1], ids=["fermion", "boson"])
def test_warm_step_evaluates_polylog_at_most_four_times(theta, rng,
                                                        monkeypatch):
    """Three Newton iterates and the residual check; the matrices reuse it."""
    z0 = 2.0 if theta == 1 else 0.5
    eq = EquilibriumParams(theta=theta, z=z0, u=np.zeros(3), T=1.0)
    w = np.tile([eq.rho, 0.0, eq.p, 0.0, eq.p], (64, 1))
    z_prev, _, li_prev, _, _ = _fit(w, theta)
    w[:, 4] *= 1.0 + 1e-3 * rng.standard_normal(64)   # one step's change
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return q.eval_polylog_batch(*args, **kwargs)

    monkeypatch.setattr(state, "eval_polylog_batch", counting)
    z, T, li, fell_back, _ = _fit(w, theta, (z_prev, li_prev))
    solver1d._a5_final_stack(w, T, li)
    assert not fell_back
    assert len(calls) <= 4


def _counting_points(monkeypatch):
    """Patch the fit's li with one that records the points of every call."""
    points = []

    def counting(z, theta):
        points.append(np.size(z))
        return q.eval_polylog_batch(z, theta)

    monkeypatch.setattr(state, "eval_polylog_batch", counting)
    return points


@pytest.mark.parametrize("theta", [1, -1], ids=["fermion", "boson"])
def test_unchanged_cells_cost_no_polylog_point(theta, rng, monkeypatch):
    """A warm fit evaluates li only at cells whose (rho, p) moved; the rest
    keep z, T and li bit for bit.  The fugacities cover every li branch: both
    sides of the switch at e^-1, Fermions where the table meets 0.8 < z < 0.9
    and deep in it, Bosons near condensation."""
    zs = (0.1, 0.3, 0.36, 0.37, 0.38, 0.82, 0.85, 0.879, 2.0, 7.0, 50.0) \
        if theta == 1 else (0.1, 0.3, 0.36, 0.37, 0.38, 0.5, 0.95, 0.999, 0.9999)
    rows = []
    for z in np.repeat(zs, 16):
        eq = EquilibriumParams(theta=theta, z=z, u=np.zeros(3),
                               T=float(rng.uniform(0.5, 2.0)))
        rows.append([eq.rho, 0.0, eq.p, 0.0, eq.p])
    w = np.array(rows)
    z0, T0, li0, _, _ = _fit(w, theta)
    moved = np.zeros(len(w), dtype=bool)
    moved[rng.choice(len(w), 20, replace=False)] = True
    w[moved, 4] *= 1.0 + 1e-3 * rng.standard_normal(20)
    points = _counting_points(monkeypatch)
    z, T, li, fell_back, n_points = _fit(w, theta, (z0, li0))
    assert not fell_back
    assert n_points == sum(points) <= 3 * np.count_nonzero(moved)
    same = ~moved
    np.testing.assert_array_equal(z[same], z0[same])
    np.testing.assert_array_equal(T[same], T0[same])
    np.testing.assert_array_equal(li[:, same], li0[:, same])
    np.testing.assert_array_equal(li, q.eval_polylog_batch(z, theta))
    points.clear()
    assert _fit(w, theta, (z, li))[4] == sum(points) == 0


@pytest.mark.parametrize("theta", [1, -1], ids=["fermion", "boson"])
def test_warm_fit_is_fit_cell_by_cell(theta, rng):
    """The warm fit of a batch equals the warm fit of each cell alone, also
    for cells whose far guess sends them to the bracketed fit."""
    w = _random_cells(theta, rng, 80)
    z0, _, li0, _, _ = _fit(w, theta)
    w[:, 4] *= 1.0 + 1e-2 * rng.standard_normal(80)
    z0[[3, 41]] = 1e-9
    li0[:, [3, 41]] = q.eval_polylog_batch(np.array([1e-9]), theta)
    z, T, li, fell_back, _ = _fit(w, theta, (z0, li0))
    assert fell_back
    for i in range(len(w)):
        zi, Ti, lii, _, _ = _fit(w[i:i + 1], theta, (z0[i:i + 1], li0[:, i:i + 1]))
        np.testing.assert_array_equal(z[i:i + 1], zi)
        np.testing.assert_array_equal(T[i:i + 1], Ti)
        np.testing.assert_array_equal(li[:, i:i + 1], lii)


def test_warm_step_evaluates_polylog_at_most_three_times(monkeypatch):
    """Over a Riemann run, each warm fit that does not fall back makes at
    most three li calls: the guess's li replaces the first iterate's.  The
    first fit is warm too, seeded by the initial condition."""
    cfg = SimConfig(theta=1, cells=100, length=1.0, cfl=0.45, tau=0.05,
                    t_end=0.03, left=dict(z=6.0, u1=0.2, T=1.2),
                    right=dict(z=1.5, u1=-0.2, T=0.8), n_snapshots=2)
    points = _counting_points(monkeypatch)
    per_step = []

    def fit(*args):
        points.clear()
        out = state._fit(*args)
        if args[4] is not None and not out[3]:
            per_step.append(len(points))
        return out

    monkeypatch.setattr(solver1d, "_fit", fit)
    res = q.run(cfg)
    assert len(per_step) == res.steps - res.newton_fallbacks
    assert max(per_step) <= 3


def test_built_in_start_seeds_the_first_fit(theta, monkeypatch):
    """From the built-in start the first fit begins at the initial
    condition's own fugacities: it spends at most 3 li points per cell, and
    the bracketed fit runs only on fallbacks.  A `w0` run starts cold."""
    z = dict(zip((1, -1, 0), ((6.0, 1.5), (0.97, 0.3), (1.0, 0.4))))[theta]
    cfg = SimConfig(theta=theta, cells=100, length=1.0, cfl=0.45, tau=0.05,
                    t_end=0.03, left=dict(z=z[0], u1=0.2, T=1.2),
                    right=dict(z=z[1], u1=-0.2, T=0.8), n_snapshots=2)
    brackets, fits = [], []
    bracketed, fit = state.fit_fugacity_batch, state._fit

    def counting_bracket(*args):
        brackets.append(args)
        return bracketed(*args)

    def recording_fit(*args):
        fits.append(fit(*args))
        return fits[-1]

    monkeypatch.setattr(state, "fit_fugacity_batch", counting_bracket)
    monkeypatch.setattr(solver1d, "_fit", recording_fit)
    res = q.run(cfg)
    assert len(brackets) == res.newton_fallbacks
    assert not fits[0][3] and fits[0][4] <= 3 * cfg.cells
    brackets.clear()
    fits.clear()
    res = q.run(cfg, q.initial_condition(cfg)[1])
    assert len(brackets) == res.newton_fallbacks + 1
    assert fits[0][4] == state._bracket_points(cfg.cells, theta) + cfg.cells


def test_fit_points_count_every_polylog_point(theta, monkeypatch):
    """`fit_points` is the number of li points the run's fits evaluated,
    cold start and fallbacks included."""
    z = dict(zip((1, -1, 0), ((6.0, 1.5), (0.97, 0.3), (1.0, 0.4))))[theta]
    cfg = SimConfig(theta=theta, cells=100, length=1.0, cfl=0.45, tau=0.05,
                    t_end=0.03, left=dict(z=z[0], u1=0.2, T=1.2),
                    right=dict(z=z[1], u1=-0.2, T=0.8), n_snapshots=2)
    _, w0 = q.initial_condition(cfg)
    points = _counting_points(monkeypatch)
    res = q.run(cfg, w0)
    assert res.fit_points == sum(points) > 0
    if theta == -1:
        assert res.newton_fallbacks > 0


def test_newton_fallbacks_reported():
    res = q.run(_uniform_config(theta=1, t_end=0.05))
    assert res.newton_fallbacks == 0
    cfg = SimConfig(theta=-1, cells=100, length=1.0, cfl=0.45, tau=0.05,
                    t_end=0.03, left=dict(z=0.97, u1=0.2, T=1.2),
                    right=dict(z=0.3, u1=-0.2, T=0.8), n_snapshots=2)
    first, second = q.run(cfg), q.run(cfg)
    assert first.newton_fallbacks == second.newton_fallbacks
    assert 0 < first.newton_fallbacks <= first.steps


def test_uniform_equilibrium_preserved(theta):
    z = 0.5 if theta == -1 else 2.0
    cfg = _uniform_config(theta=theta, z=z, t_end=0.2)
    x, w0 = q.initial_condition(cfg)
    res = q.run(cfg)
    assert res.steps > 5
    for k in range(cfg.n_snapshots):
        np.testing.assert_allclose(res.snapshots[k], w0, rtol=1e-13, atol=0)
    drift = np.abs(res.ledger["mass"] - res.ledger["mass"][0])
    assert np.max(drift) <= 1e-13 * res.ledger["mass"][0]


def test_homogeneous_decay_matches_exponential(theta):
    z = 0.5 if theta == -1 else 2.0
    tau = 0.05
    cfg = _uniform_config(theta=theta, z=z, tau=tau, t_end=0.2, n_snapshots=5)
    x, w0 = q.initial_condition(cfg)
    w0 = w0.copy()
    w0[:, 2] = 1.3 * w0[:, 4]          # sigma11 = 0.3 p
    w0[:, 3] = 0.2 * w0[:, 4]          # q1 = 0.2 p
    res = q.run(cfg, w0=w0)
    sig0 = w0[0, 2] - w0[0, 4]
    for k, t in enumerate(res.times):
        decay = math.exp(-t / tau)
        sig = res.snapshots[k, :, 2] - res.snapshots[k, :, 4]
        np.testing.assert_allclose(sig, sig0 * decay, rtol=1e-12)
        np.testing.assert_allclose(res.snapshots[k, :, 3], w0[:, 3] * decay,
                                   rtol=1e-12)
        # the equilibrium part does not move
        np.testing.assert_allclose(res.snapshots[k][:, [0, 1, 4]],
                                   w0[:, [0, 1, 4]], rtol=0,
                                   atol=1e-13 * np.max(w0))


def test_stiff_riemann_tracks_equilibrium():
    cfg = SimConfig(theta=-1, cells=100, length=1.0, cfl=0.45, tau=1e-6,
                    t_end=0.05, left=dict(z=0.5, u1=0.0, T=1.2),
                    right=dict(z=0.3, u1=0.0, T=1.0), n_snapshots=2)
    res = q.run(cfg)
    w = res.snapshots[-1]
    p = w[:, 4]
    assert np.all(np.abs(w[:, 2] - p) <= 1e-3 * p)
    assert np.all(np.abs(w[:, 3]) <= 1e-3 * p)


def test_smooth_periodic_mass_conserved():
    cfg = _uniform_config(theta=1, z=2.0, cells=64, t_end=0.3, tau=0.05,
                          n_snapshots=4)
    x, w0 = q.initial_condition(cfg)
    w0 = w0.copy()
    bump = 1.0 + 0.05 * np.sin(2.0 * math.pi * x / cfg.length)
    # perturb along an isothermal family so every cell stays admissible
    for i, b in enumerate(bump):
        eq = EquilibriumParams(theta=1, z=2.0 * b, u=np.zeros(3), T=1.0)
        w0[i] = [eq.rho, 0.0, eq.p, 0.0, eq.p]
    res = q.run(cfg, w0=w0)
    mass = res.ledger["mass"]
    assert abs(mass[-1] / mass[0] - 1.0) <= 1e-3
    assert np.all(np.isfinite(res.snapshots))


def test_copy_boundary_keeps_far_field():
    cfg = SimConfig(theta=0, cells=64, length=1.0, cfl=0.45, tau=0.02,
                    t_end=0.02, left=dict(z=1.0, u1=0.0, T=1.0),
                    right=dict(z=1.3, u1=0.0, T=1.0), boundary="copy",
                    n_snapshots=2)
    x, w0 = q.initial_condition(cfg)
    res = q.run(cfg)
    # waves from the center jump cannot have reached the outermost cells
    np.testing.assert_allclose(res.snapshots[-1][0], w0[0], rtol=1e-12)
    np.testing.assert_allclose(res.snapshots[-1][-1], w0[-1], rtol=1e-12)


def test_inadmissible_cell_reports_index():
    cfg = _uniform_config()
    x, w0 = q.initial_condition(cfg)
    w0 = w0.copy()
    w0[7, 4] = -1.0
    with pytest.raises(InadmissibleCell) as exc:
        q.run(cfg, w0=w0)
    assert exc.value.index == 7


def test_condensing_cell_is_reported_by_index():
    """A Boson cell with three times the density at the same pressure needs
    z >= 1; the fit's range error names that cell."""
    cfg = _uniform_config(theta=-1, z=0.5)
    x, w0 = q.initial_condition(cfg)
    w0 = w0.copy()
    w0[5, 0] *= 3.0
    with pytest.raises(InadmissibleCell) as exc:
        q.run(cfg, w0=w0)
    assert exc.value.index == 5
    assert "condensation" in str(exc.value)


def test_non_finite_spectral_radius_is_inadmissible():
    """Past z ~ 2.3e5 the Fermion quartic has complex roots, so the radius
    is NaN; the run stops at the first such cell instead of in the CFL check."""
    cfg = _uniform_config(theta=1, z=5.0)
    cfg = dataclasses.replace(cfg, right=dict(z=1e6, u1=0.0, T=1.0))
    with pytest.raises(InadmissibleCell) as exc:
        q.run(cfg)
    assert exc.value.index == cfg.cells // 2
    message = str(exc.value)
    assert "step 1" in message and "t = 0" in message and "z = 1e+06" in message


def test_radius_past_the_fermion_bound_names_it():
    """At z = 3e5 > FERMI_Z_C the radius is NaN, and the error says why."""
    cfg = _uniform_config(theta=1, z=5.0)
    cfg = dataclasses.replace(cfg, right=dict(z=3e5, u1=0.0, T=1.0))
    with pytest.raises(InadmissibleCell) as exc:
        q.run(cfg)
    assert exc.value.index == cfg.cells // 2
    assert str(exc.value).endswith(
        f"z = 300000 above the Fermion bound FERMI_Z_C = {FERMI_Z_C:.6g}")


def _edge_config(theta, z_left, z_right, **kw):
    args = dict(theta=theta, cells=100, length=1.0, cfl=0.45, tau=0.05,
                t_end=0.06, left=dict(z=z_left, u1=0.1, T=1.0),
                right=dict(z=z_right, u1=-0.1, T=1.0))
    args.update(kw)
    return SimConfig(**args)


def test_fermion_run_below_the_bound_finishes():
    """A jump whose cells stay below FERMI_Z_C runs to the end."""
    res = q.run(_edge_config(1, 2.2e5, 1e3))
    assert (res.steps, res.newton_fallbacks) == (60, 9)


@pytest.mark.parametrize("theta, z_left, z_right, index, cause", [
    (1, 2.1e5, 1e5, 1, f"in step 10 at t = 0.0110762, z = 231921 above the Fermion "
                       f"bound FERMI_Z_C = {FERMI_Z_C:.6g}"),
    (-1, 1.0 - 1e-6, 0.99, 3, "no admissible fugacity in step 8 at t = 0.014192: "
                              "no Boson fugacity below condensation"),
], ids=["fermion-past-z_c", "boson-condensation"])
def test_runs_past_the_domain_edges_name_the_cause(theta, z_left, z_right, index,
                                                   cause):
    """A compression past FERMI_Z_C, or to condensation, stops at the cell
    that crossed, with the cause in the message."""
    with pytest.raises(InadmissibleCell) as exc:
        q.run(_edge_config(theta, z_left, z_right))
    assert exc.value.index == index
    assert cause in str(exc.value)


def test_rarefaction_names_the_column_that_broke():
    """The classical u1 = -2 | +2 rarefaction drives p11 negative beside the
    jump in step 6; the error names p11, its value, the step and its time."""
    side = dict(z=1.0, u1=-2.0, T=1.0)
    cfg = _edge_config(0, 1.0, 1.0, cells=200, tau=1.0,
                       left=side, right=dict(side, u1=2.0))
    with pytest.raises(InadmissibleCell) as exc:
        q.run(cfg)
    assert exc.value.index == 99
    assert str(exc.value) == ("cell 99 inadmissible: p11 = -0.442322 is not positive "
                              "in step 6 at t = 0.00272363")


@pytest.mark.parametrize("cfg, index, quantity, value, step, t", [
    (_edge_config(0, 1.0, 1.0, cells=200, tau=1.0, left=dict(z=1.0, u1=-2.0, T=1.0),
                  right=dict(z=1.0, u1=2.0, T=1.0)),
     99, "p11", -0.442322, 6, 0.00272363),
    (_edge_config(1, 2.1e5, 1e5), 1, "spectral radius", math.nan, 10, 0.0110762),
    (_edge_config(-1, 1.0 - 1e-6, 0.99), 3, "fugacity", None, 8, 0.014192),
], ids=["rarefaction", "fermion-past-z_c", "boson-condensation"])
def test_inadmissible_cell_carries_the_failure_as_data(cfg, index, quantity, value,
                                                       step, t):
    """The failure's quantity, value, step and time are fields, not only text."""
    with pytest.raises(InadmissibleCell) as exc:
        q.run(cfg)
    err = exc.value
    assert (err.index, err.quantity, err.step) == (index, quantity, step)
    assert err.t == pytest.approx(t, rel=1e-5)
    if value is None:
        assert err.value is None
    else:
        assert err.value == pytest.approx(value, rel=1e-5, nan_ok=True)


def test_initial_check_failure_has_no_step():
    cfg = _uniform_config()
    w0 = q.initial_condition(cfg)[1].copy()
    w0[7, 4] = -1.0
    with pytest.raises(InadmissibleCell) as exc:
        q.run(cfg, w0=w0)
    err = exc.value
    assert (err.index, err.quantity, err.value, err.step, err.t) == (7, "p", -1.0,
                                                                     None, None)


def _column_diagnosis(w):
    """The per-step check as it was before its combined fast test: the
    behaviour `_validate_cells` keeps for every state."""
    finite = np.all(np.isfinite(w), axis=1)
    if not np.all(finite):
        raise InadmissibleCell(int(np.argmin(finite)), "non-finite moments")
    rho, _, p11, _, p = (w[:, k] for k in range(5))
    ok = (rho > 0.0) & (p > 0.0) & (p11 > 0.0)
    if not np.all(ok):
        i = int(np.argmin(ok))
        for name, k in (("rho", 0), ("p11", 2), ("p", 4)):
            if not w[i, k] > 0.0:
                raise InadmissibleCell(i, f"{name} = {w[i, k]:.6g} is not positive")
    ratio = p11 / p - 1.0
    ok = (ratio > -1.0) & (ratio < 2.0)
    if not np.all(ok):
        idx = int(np.argmin(ok))
        raise InadmissibleCell(idx, f"sigma11/p = {ratio[idx]:.6g} "
                                    "outside (-1, 2)")


def _outcome(check, w):
    try:
        with np.errstate(all="ignore"):
            check(w)
    except InadmissibleCell as exc:
        return type(exc), exc.index, str(exc)
    return None


def _cell_edits():
    """Lists of (cell, column, value or a function of the cell's p)."""
    nan, inf = math.nan, math.inf
    edits = [[(3, k, v)] for k in range(5) for v in (nan, inf, -inf)]
    edits += [[(5, 0, 0.0)], [(5, 0, -1.0)], [(2, 4, 0.0)], [(2, 4, -1e-300)],
              [(6, 2, 0.0)], [(6, 2, -1.0)], [(1, 4, 1e-300), (1, 2, 1e300)]]
    for f in (lambda p: 1e-300 * p, lambda p: 3.0 * p, lambda p: 3.5 * p,
              lambda p: np.nextafter(3.0 * p, 0.0), lambda p: 2.999 * p,
              lambda p: 1e-3 * p, lambda p: np.nextafter(0.0, 1.0)):
        edits.append([(4, 2, f)])
    edits += [[(6, 1, nan), (2, 0, -1.0)], [(4, 0, -1.0), (1, 2, lambda p: 5 * p)],
              [(5, 2, lambda p: 4 * p), (2, 2, lambda p: 1e-301 * p)], []]
    return edits


@pytest.mark.parametrize("edit", _cell_edits())
def test_cell_check_matches_column_diagnosis(edit, rng):
    """Type, index and message of the first failure, or none, as before."""
    p = rng.uniform(0.5, 2.0, 8)
    w = np.column_stack([rng.uniform(0.5, 2.0, 8), rng.uniform(-1.0, 1.0, 8),
                         p * (1.0 + rng.uniform(-0.9, 1.9, 8)),
                         rng.uniform(-1.0, 1.0, 8), p])
    for cell, col, value in edit:
        w[cell, col] = value(w[cell, 4]) if callable(value) else value
    expected = _outcome(_column_diagnosis, w)
    assert _outcome(solver1d._validate_cells, w) == expected
    if not edit:
        assert expected is None
    for row in w[:, None]:       # a MomentState5 is the check's one-row case
        assert _outcome(lambda r: q.MomentState5(*r[0]), row) \
            == _outcome(solver1d._validate_cells, row)


def test_solver_holds_no_fit_of_its_own():
    """The fugacity fit lives in `state`; the solver only calls it."""
    assert not hasattr(solver1d, "_fit_cells")
    for name in ("_gstar", "_z_from_log", "_newton", "_LOG_Z_LO", "_LOG_Z_HI",
                 "_LOG_Z_HI_BOSON", "_LOG_Z_HI_FERMION", "eval_polylog_batch",
                 "fit_fugacity_batch"):
        assert not hasattr(solver1d, name), name
    assert solver1d._fit is state._fit
    assert "fit_state" not in q.__all__


def test_step_budget_guard(monkeypatch):
    monkeypatch.setattr(solver1d, "_MAX_STEPS", 3)
    with pytest.raises(CFLViolation):
        q.run(_uniform_config(t_end=5.0))


def test_zero_spectral_radius_is_an_inadmissible_cell(monkeypatch):
    """A zero radius gives no usable time step: the one radius guard stops
    the run at cell 0 in step 1, as it does a non-finite radius."""
    real = solver1d._a5_final_stack

    def still(w, T, li):
        A, radius = real(w, T, li)
        return A, np.zeros_like(radius)

    monkeypatch.setattr(solver1d, "_a5_final_stack", still)
    with pytest.raises(InadmissibleCell) as exc:
        q.run(_uniform_config())
    err = exc.value
    assert (err.index, err.quantity, err.value, err.step) == (0, "spectral radius",
                                                              0.0, 1)
    assert str(err).startswith("cell 0 inadmissible: spectral radius 0.0 in step 1 ")


@pytest.mark.parametrize("bad", [
    dict(cells=3),
    dict(cfl=1.5),
    dict(cfl=0.0),
    dict(tau=-0.1),
    dict(t_end=0.0),
    dict(boundary="reflect"),
    dict(n_snapshots=1),
    dict(left=dict(u1=0.0, T=1.0)),          # missing z
    dict(left=dict(z=1.2, u1=0.0, T=1.0), theta=-1),  # Boson z >= 1
    dict(cells=10.5),
    dict(n_snapshots=2.5),
    dict(length="x"),
])
def test_config_validation(bad):
    args = dict(theta=0, cells=8, length=1.0, cfl=0.4, tau=1.0, t_end=0.1,
                left=dict(z=1.0, u1=0.0, T=1.0),
                right=dict(z=1.0, u1=0.0, T=1.0))
    args.update(bad)
    with pytest.raises(DomainError):
        SimConfig(**args)


def test_config_rejects_infinite_hhat():
    """An infinite hhat fails where the run is described, not in the first
    cell check."""
    with pytest.raises(DomainError, match="hhat must be positive and finite, got inf"):
        _uniform_config(hhat=math.inf)


@pytest.mark.parametrize("key, value, message", [
    ("cells", "abc", "cells must be an integer, got 'abc'"),
    ("cells", 10.7, "cells must be an integer, got 10.7"),
    ("n_snapshots", 2.5, "n_snapshots must be an integer, got 2.5"),
    ("length", [1.0], "length must be a number, got [1.0]"),
    ("hhat", None, "hhat must be a number, got None"),
    ("left", 5, "left must be an object with keys z, u1 and T, got 5"),
    ("right", "abc", "right must be an object with keys z, u1 and T, got 'abc'"),
    ("left", dict(z="x", u1=0.0, T=1.0), "left z must be a number, got 'x'"),
], ids=["cells-str", "cells-10.7", "n_snapshots-2.5", "length-list", "hhat-null",
        "left-int", "right-str", "left-z-str"])
def test_config_from_dict_names_the_malformed_key(key, value, message):
    """A malformed value in a run description is a DomainError (exit 3 on
    the command line) that names its key; integral floats still count."""
    d = dataclasses.asdict(_uniform_config())
    assert SimConfig.from_dict({**d, "cells": 8.0, "n_snapshots": 3.0}) \
        == _uniform_config(cells=8, n_snapshots=3)
    with pytest.raises(DomainError) as exc:
        SimConfig.from_dict({**d, key: value})
    assert str(exc.value) == message


def test_config_dict_round_trip():
    cfg = _uniform_config(boundary="copy", n_snapshots=7)
    assert SimConfig.from_dict(dataclasses.asdict(cfg)) == cfg


def test_csv_outputs(tmp_path):
    cfg = _uniform_config(t_end=0.05)
    res = q.run(cfg)
    snap = tmp_path / "snap.csv"
    led = tmp_path / "ledger.csv"
    q.write_snapshot_csv(res, str(snap))
    q.write_ledger_csv(res, str(led))
    s_lines = snap.read_text().splitlines()
    assert s_lines[0] == "x,rho,u1,p11,q1,p"
    assert len(s_lines) == 1 + cfg.cells
    l_lines = led.read_text().splitlines()
    assert l_lines[0] == "time,mass,momentum,energy"
    assert len(l_lines) == 1 + cfg.n_snapshots
    # deterministic bytes on rewrite
    again = tmp_path / "snap2.csv"
    q.write_snapshot_csv(res, str(again))
    assert again.read_bytes() == snap.read_bytes()


def test_snapshot_times_hit_exactly():
    cfg = _uniform_config(t_end=0.11, n_snapshots=6)
    res = q.run(cfg)
    np.testing.assert_allclose(res.times, np.linspace(0.0, 0.11, 6),
                               rtol=0, atol=1e-12)


@pytest.mark.parametrize("d, message", [
    ({k: v for k, v in dataclasses.asdict(_uniform_config()).items() if k != "tau"},
     "run description lacks ['tau']"),
    ({**dataclasses.asdict(_uniform_config()), "left": {"z": 2.0, "u1": 0.0}},
     "left state lacks ['T']"),
])
def test_config_names_the_keys_it_lacks(d, message):
    with pytest.raises(DomainError) as exc:
        SimConfig.from_dict(d)
    assert str(exc.value) == message


def test_config_from_dict_defaults_are_the_fields_defaults():
    """A run description with only the required keys gives the dataclass
    defaults, which are written in one place."""
    side = {"z": 2.0, "u1": 0.0, "T": 1.0}
    required = {"theta": 1, "cells": 16, "length": 1.0, "cfl": 0.45, "tau": 0.1,
                "t_end": 0.1, "left": side, "right": dict(side)}
    cfg = SimConfig.from_dict(required)
    assert cfg == SimConfig(**required)
    assert (cfg.boundary, cfg.hhat, cfg.n_snapshots) == ("periodic", 1.0, 11)
