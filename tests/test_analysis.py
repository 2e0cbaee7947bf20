"""Region scans, fugacity sweeps, transport reports, verification suites."""
import json
import math

import numpy as np
import pytest

import qgrad13 as q
from qgrad13 import Classification, EquilibriumParams, analysis
from qgrad13.analysis import random_moment_state, random_unit_vectors


# ---------------------------------------------------------------------------
# region scans

def test_scan_deterministic_and_thread_invariant():
    a = q.region_scan_1d(-1, 0.5, n=61)
    b = q.region_scan_1d(-1, 0.5, n=61)
    c = q.region_scan_1d(-1, 0.5, n=61, threads=3)
    np.testing.assert_array_equal(a.cells, b.cells)
    np.testing.assert_array_equal(a.cells, c.cells)


def test_scan_mirror_symmetry_exact(theta):
    z = 0.7 if theta == -1 else 1.5
    g = q.region_scan_1d(theta, z, n=51)
    np.testing.assert_array_equal(g.cells, g.cells[::-1])
    assert np.any(g.y == 0.0)  # odd grid carries the symmetry axis


def test_scan_codes_and_metadata():
    g = q.region_scan_1d(1, 2.0, n=41)
    assert set(np.unique(g.cells)).issubset({-1, 0, 1, 2, 3})
    assert g.metadata["system"] == "Grad13"
    assert g.metadata["mirrored"] is True
    assert g.x_name == "sigma11_hat" and g.y_name == "q1_hat"


def test_area_fraction_trends_with_fugacity():
    bose_dilute = q.area_fraction(q.region_scan_1d(-1, 0.1, n=101))
    bose_dense = q.area_fraction(q.region_scan_1d(-1, 0.9, n=101))
    fermi_dilute = q.area_fraction(q.region_scan_1d(1, 0.1, n=101))
    fermi_dense = q.area_fraction(q.region_scan_1d(1, 2.0, n=101))
    assert bose_dense > bose_dilute
    assert fermi_dense < fermi_dilute
    for f in (bose_dilute, bose_dense, fermi_dilute, fermi_dense):
        assert 0.0 < f < 1.0


def test_equilibrium_point_strictly_hyperbolic(theta):
    # the reduced system has five distinct wave speeds at sigma = q = 0
    z = 0.5 if theta == -1 else 2.0
    eq = EquilibriumParams(theta=theta, z=z, u=np.zeros(3), T=1.0)
    st5 = q.state5_from_hat(eq, 0.0, 0.0)
    v = q.diagonalizability_test(q.assemble_A5_grad(st5, eq))
    assert v.classification is Classification.HyperbolicStrict


def test_cross_section_shows_boundary_equilibrium():
    g = q.region_scan_3d_cross_section(0, 1.0, n=41)
    # the shear axis ends at the admissibility boundary
    assert np.all(g.cells[:, 0] == -1) and np.all(g.cells[:, -1] == -1)
    counts = {int(k): int(v) for k, v in zip(*np.unique(g.cells, return_counts=True))}
    # mostly non-hyperbolic, a thin hyperbolic sliver, no strict cells
    assert set(counts).issubset({-1, 1, 3})
    assert counts[3] > counts[1] > 0
    assert 0.0 < q.area_fraction(g) < 0.15


def test_regularized_scan_fully_hyperbolic():
    for direction in ("random", 1):
        g = q.region_scan_regularized(-1, 0.5, n=31, direction=direction, seed=2)
        admissible = g.cells[g.cells >= 0]
        assert admissible.size > 0
        assert np.all((admissible == 0) | (admissible == 1))
        assert q.area_fraction(g) == 1.0


def test_regularized_scan_seed_reproducible():
    a = q.region_scan_regularized(1, 2.0, n=21, direction="random", seed=5)
    b = q.region_scan_regularized(1, 2.0, n=21, direction="random", seed=5)
    np.testing.assert_array_equal(a.cells, b.cells)


def test_regularized_scan_grad_comparison():
    g = q.region_scan_regularized(0, 1.0, n=31, direction=1, compare_grad=True)
    assert "grad_area_fraction" in g.metadata
    assert g.metadata["grad_area_fraction"] < q.area_fraction(g)


def test_scan_rejects_non_affine_assembly():
    shat = np.linspace(-0.5, 0.5, 5)
    qhat = np.linspace(-1.0, 1.0, 5)
    curved = lambda s, qh, d: np.diag([s * s, qh, 1.0])
    for direction in (1, (0.0, 1.0, 1.0), "random"):
        with pytest.raises(RuntimeError, match="affine"):
            analysis._scan(curved, shat, qhat, 1, direction)


def test_region_csv_byte_identical(tmp_path):
    g = q.region_scan_1d(-1, 0.4, n=31)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    q.write_region_csv(g, str(p1))
    q.write_region_csv(g, str(p2))
    assert p1.read_bytes() == p2.read_bytes()
    meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
    assert meta["nx"] == 31 and meta["ny"] == 31
    assert meta["system"] == "Grad13"
    assert sum(meta["class_counts"].values()) == 31 * 31
    header = p1.read_text().splitlines()[0]
    assert header == "sigma11_hat,q1_hat,class_code"
    assert len(p1.read_text().splitlines()) == 1 + 31 * 31


# ---------------------------------------------------------------------------
# fugacity sweeps

def test_sweep_classical_branches_constant():
    sw = q.eigen_sweep_fugacity(0)
    assert sw.crossing_z is None
    ref = {"zero": 0.0, "sqrt_alpha": math.sqrt(1.4)}
    lo, hi = sorted(np.roots([1.0, -5.2, 3.0]).real)
    ref["sqrt_x_minus"], ref["sqrt_x_plus"] = math.sqrt(lo), math.sqrt(hi)
    for name, vals in sw.branches.items():
        np.testing.assert_allclose(vals, ref[name], rtol=0, atol=1e-16 + 1e-12)


def test_sweep_fermion_finds_crossing():
    sw = q.eigen_sweep_fugacity(1)
    assert sw.crossing_z is not None
    assert abs(sw.crossing_z - 11.687) < 5e-3


def test_sweep_boson_range_capped():
    sw = q.eigen_sweep_fugacity(-1)
    assert np.max(sw.z) < 1.0
    assert sw.crossing_z is None


def test_sweep_csv(tmp_path):
    sw = q.eigen_sweep_fugacity(1, z_values=np.logspace(-1, 1, 11))
    p = tmp_path / "sweep.csv"
    q.write_sweep_csv(sw, str(p))
    lines = p.read_text().splitlines()
    assert lines[0].startswith("z,")
    assert len(lines) == 12
    json.loads((tmp_path / "sweep.csv.meta.json").read_text())


# ---------------------------------------------------------------------------
# linearization and transport

def test_linearization_report(theta):
    z = 0.6 if theta == -1 else 2.0
    rep = q.linearization_equality(theta, z)
    assert np.all(rep.e_final <= 1e-12 * rep.scale)
    if theta == 0:
        assert rep.classical_collapse
        assert np.all(rep.e_trivial <= 1e-12 * rep.scale)
    else:
        assert not rep.classical_collapse
        assert np.all(rep.e_trivial > 1e-6 * rep.scale)
    json.dumps(rep.as_dict())


@pytest.mark.parametrize("kind", [q.SystemKind.Grad13, q.SystemKind.FinalR13],
                         ids=lambda k: k.name)
def test_nsf_correct_models(kind, theta):
    z = 0.5 if theta == -1 else 2.0
    rep = q.maxwellian_iteration_nsf(kind, theta, z, T=1.2, tau=0.8)
    assert rep.mu == rep.mu_reference  # shear viscosity tau p, exactly
    assert np.max(np.abs(rep.residual)) <= 1e-10 * abs(rep.kappa_star)
    # closed form of the Fourier coefficient
    li = q.eval_polylog_set(z, theta).li
    p = EquilibriumParams(theta=theta, z=z, u=np.zeros(3), T=1.2).p
    kappa = 2.5 * 0.8 * p * (3.5 * li[3.5] / li[2.5] - 2.5 * li[2.5] / li[1.5])
    assert abs(rep.kappa_star / kappa - 1.0) < 1e-12


def test_nsf_trivial_model_misses_fourier_law(theta):
    if theta == 0:
        pytest.skip("classically all three models coincide")
    z = 0.5 if theta == -1 else 2.0
    rep = q.maxwellian_iteration_nsf(q.SystemKind.TrivialR13, theta, z)
    assert rep.mu == rep.mu_reference  # viscosity still exact
    assert np.max(np.abs(rep.residual)) > 1e-2 * abs(rep.kappa_star)
    json.dumps(rep.as_dict())


def test_nsf_scales_linearly_with_tau():
    a = q.maxwellian_iteration_nsf(q.SystemKind.FinalR13, 1, 2.0, tau=1.0)
    b = q.maxwellian_iteration_nsf(q.SystemKind.FinalR13, 1, 2.0, tau=2.0)
    assert abs(b.mu / a.mu - 2.0) < 1e-14
    assert abs(b.kappa_star / a.kappa_star - 2.0) < 1e-14


# ---------------------------------------------------------------------------
# random states and suites

def test_random_states_admissible(theta, rng):
    for _ in range(20):
        st, eq = random_moment_state(rng, theta)
        p = float(np.trace(st.p_ij)) / 3.0
        assert abs(p / eq.p - 1.0) < 1e-12
        np.testing.assert_array_equal(st.p_ij, st.p_ij.T)
        assert np.min(np.linalg.eigvalsh(st.p_ij)) > 0.0999 * p


def test_random_unit_vectors(rng):
    v = random_unit_vectors(rng, 50)
    np.testing.assert_allclose(np.linalg.norm(v, axis=1), 1.0, rtol=1e-12)


def test_suite_runner():
    out = q.run_verification_suite("charpoly")
    assert out["ok"] is True
    assert out["suites"][0]["suite"] == "charpoly"
    assert all(c["ok"] for c in out["suites"][0]["checks"])
    with pytest.raises(KeyError):
        q.run_verification_suite("no-such-suite")
