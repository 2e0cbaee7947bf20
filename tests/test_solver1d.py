"""1D relaxation solver: preservation, decay, stiff limit, bookkeeping."""
import math

import numpy as np
import pytest

import qgrad13 as q
from qgrad13 import (CFLViolation, DomainError, EquilibriumParams,
                     InadmissibleCell, SimConfig, SystemKind)
from qgrad13 import solver1d, state


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


def _gstar(w):
    return 2.0 * math.pi * w[:, 4] * w[:, 0] ** (-5.0 / 3.0)


def _random_cells(theta, rng, n):
    """Admissible non-equilibrium cells: sigma11/p in (-1, 2), q1, u1 != 0."""
    rows = []
    for _ in range(n):
        z = float(rng.uniform(0.05, 0.99)) if theta == -1 \
            else float(10.0 ** rng.uniform(-1.5, 1.5))
        eq = EquilibriumParams(theta=theta, z=z, u=np.zeros(3),
                               T=float(rng.uniform(0.3, 3.0)))
        st5 = q.state5_from_hat(eq, float(rng.uniform(-0.99, 1.99)),
                                float(rng.choice([-1, 1]) * rng.uniform(0.01, 2)),
                                u1=float(rng.choice([-1, 1])
                                         * rng.uniform(0.01, 2)))
        rows.append([st5.rho, st5.u1, st5.p11, st5.q1, st5.p])
    return np.array(rows)


def test_coefficient_stack_matches_reduction(theta, rng):
    z = 0.5 if theta == -1 else 2.0
    eq = EquilibriumParams(theta=theta, z=z, u=np.zeros(3), T=1.3)
    rows, states = [], []
    for _ in range(4):
        st5 = q.state5_from_hat(eq, float(rng.uniform(-0.5, 1.0)),
                                float(rng.uniform(-1, 1)),
                                u1=float(rng.uniform(-1, 1)))
        states.append(st5)
        rows.append([st5.rho, st5.u1, st5.p11, st5.q1, st5.p])
    w = np.array(rows)
    _, li, _ = solver1d._fit_cells(_gstar(w), theta, None)
    stack, _ = solver1d._a5_final_stack(w, 1.0, li)
    for i, st5 in enumerate(states):
        ref = q.reduce_to_1d(SystemKind.FinalR13, st5, eq)
        np.testing.assert_allclose(stack[i], ref, rtol=0,
                                   atol=1e-10 * np.max(np.abs(ref)))


def test_spectral_radius_matches_eigvals(theta, rng):
    """The factorization's radius |u1| + sqrt(T x_plus) is max |eigvals(A)|."""
    w = _random_cells(theta, rng, 400)
    _, li, _ = solver1d._fit_cells(_gstar(w), theta, None)
    A, radius = solver1d._a5_final_stack(w, 1.0, li)
    ref = np.max(np.abs(np.linalg.eigvals(A)), axis=1)
    np.testing.assert_allclose(radius, ref, rtol=1e-13, atol=0)


@pytest.mark.parametrize("theta", [1, -1], ids=["fermion", "boson"])
def test_warm_step_evaluates_polylog_at_most_four_times(theta, rng,
                                                        monkeypatch):
    """Three Newton iterates and the residual check; the matrices reuse it."""
    z0 = 2.0 if theta == 1 else 0.5
    eq = EquilibriumParams(theta=theta, z=z0, u=np.zeros(3), T=1.0)
    w = np.tile([eq.rho, 0.0, eq.p, 0.0, eq.p], (64, 1))
    z_prev, _, _ = solver1d._fit_cells(_gstar(w), theta, None)
    w[:, 4] *= 1.0 + 1e-3 * rng.standard_normal(64)   # one step's change
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return q.eval_polylog_batch(*args, **kwargs)

    for mod in (state, solver1d):
        monkeypatch.setattr(mod, "eval_polylog_batch", counting)
    z, li, fell_back = solver1d._fit_cells(_gstar(w), theta, z_prev)
    solver1d._a5_final_stack(w, 1.0, li)
    assert not fell_back
    assert len(calls) <= 4


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


def test_step_budget_guard(monkeypatch):
    monkeypatch.setattr(solver1d, "_MAX_STEPS", 3)
    with pytest.raises(CFLViolation):
        q.run(_uniform_config(t_end=5.0))


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
])
def test_config_validation(bad):
    args = dict(theta=0, cells=8, length=1.0, cfl=0.4, tau=1.0, t_end=0.1,
                left=dict(z=1.0, u1=0.0, T=1.0),
                right=dict(z=1.0, u1=0.0, T=1.0))
    args.update(bad)
    with pytest.raises(DomainError):
        SimConfig(**args)


def test_config_dict_round_trip():
    cfg = _uniform_config(boundary="copy", n_snapshots=7)
    assert SimConfig.from_dict(cfg.as_dict()) == cfg


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
