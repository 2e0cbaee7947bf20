"""Region scans, fugacity sweeps, transport reports, verification suites."""
import hashlib
import json
import math

import numpy as np
import pytest

import qgrad13 as q
from qgrad13 import Classification, EquilibriumParams, analysis, spectral, state
from qgrad13.analysis import random_moment_state, random_unit_vectors
from qgrad13.matrices import assemble_axes, stack_states


# ---------------------------------------------------------------------------
# region scans

def test_scan_deterministic_and_thread_invariant():
    a = q.region_scan_1d(-1, 0.5, n=61)
    b = q.region_scan_1d(-1, 0.5, n=61)
    c = q.region_scan_1d(-1, 0.5, n=61, threads=3)
    np.testing.assert_array_equal(a.cells, b.cells)
    np.testing.assert_array_equal(a.cells, c.cells)


def test_default_threads_are_the_cpus_this_process_may_use(monkeypatch):
    monkeypatch.setattr(analysis.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(analysis.os, "cpu_count", lambda: 64)
    assert analysis._resolve_threads(None) == 1
    assert analysis._resolve_threads(3) == 3
    monkeypatch.delattr(analysis.os, "sched_getaffinity")
    assert analysis._resolve_threads(None) == 64


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


def test_scan_sidecar_reports_the_classifier(tmp_path):
    """The sidecar says what classify_batch did, whatever the thread count."""
    keys = ("n_classified", "n_slow", "hyperbolic_min_gap", "hyperbolic_max_imag")
    keys += tuple("grad_" + k for k in keys)
    grids = [q.region_scan_regularized(1, 2.0, n=41, seed=1, threads=t,
                                       compare_grad=True)
             for t in (1, 2)]
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for g, p in zip(grids, paths):
        q.write_region_csv(g, str(p))
    assert paths[0].read_bytes() == paths[1].read_bytes()
    metas = [json.loads(p.with_suffix(".csv.meta.json").read_text())
             for p in paths]
    assert [metas[0][k] for k in keys] == [metas[1][k] for k in keys]
    meta = metas[0]
    assert meta["n_classified"] == 41 * 41 > 1024   # more than one chunk
    assert meta["n_slow"] == meta["n_classified"]   # FinalR13 always clusters
    assert 0.0 < meta["hyperbolic_min_gap"] < 1.0
    assert 0.0 <= meta["hyperbolic_max_imag"] <= q.spectral.IMAG_TOL
    # the Grad13 grid of --compare-grad reports the same counters
    assert meta["grad_n_classified"] == meta["n_classified"]
    assert 0 <= meta["grad_n_slow"] <= meta["grad_n_classified"]
    assert 0.0 < meta["grad_hyperbolic_min_gap"]
    assert 0.0 <= meta["grad_hyperbolic_max_imag"] <= q.spectral.IMAG_TOL
    mirrored = q.region_scan_1d(0, 1.0, n=41).metadata
    assert mirrored["n_classified"] == 21 * 41   # computed rows only


def test_regularized_scan_rejects_zero_direction():
    with pytest.raises(q.DomainError):
        q.region_scan_regularized(0, 1.0, n=11, direction=[0.0, 0.0, 0.0])


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


def _full_shear_grid(kind, eq, n, direction):
    """Codes of every cell of a `_shear_scan` grid, each classified, and how
    many of the cells a scan classifies (an axis direction's sigma12_hat >= 0,
    q1_hat >= 0 quadrant, or all for "random") have an eigenvalue cluster.
    The matrices are built from the `_BASIS` points in the scan's own order,
    along an axis or per cell along the scan's Philox directions (seed 0)."""
    shat, qhat = np.linspace(-1.0, 1.0, n), np.linspace(-2.0, 2.0, n)
    basis = [state._shear_state(eq, s, qh) for s, qh in analysis._BASIS]
    X = assemble_axes(kind, stack_states(basis, [eq] * 4))
    A0, As, Aq = X[0], (X[1] - X[0]) / 0.5, X[2] - X[0]
    classified = np.zeros((n, n), dtype=bool)
    if direction == "random":
        N = random_unit_vectors(np.random.Generator(np.random.Philox(0)), n * n)
        A0, As, Aq = (np.einsum("cd,dij->cij", N, B) for B in (A0, As, Aq))
        classified[:] = True
    else:
        A0, As, Aq = A0[direction - 1], As[direction - 1], Aq[direction - 1]
        classified[n // 2:, n // 2:] = True
    S, Q = np.meshgrid(shat, qhat)
    stack = S.ravel()[:, None, None] * As + A0 + Q.ravel()[:, None, None] * Aq
    codes, aux = q.classify_batch(stack)
    clusters = aux["clusters"]
    slow = np.zeros(n * n, dtype=bool)
    slow[clusters["cell"][clusters["algebraic"] > 1]] = True
    cells = codes.reshape(n, n)
    cells[:, np.abs(shat) >= 1.0] = spectral.CODE_INADMISSIBLE
    return cells, int(np.count_nonzero(slow & classified.ravel()))


@pytest.mark.parametrize("n", [21, 22, 33, 34])
def test_axis_scans_classify_one_quadrant_of_the_full_grid(theta, n):
    """An axis direction mirrors the sigma12_hat >= 0 columns and the
    q1_hat >= 0 rows, and a random one classifies every cell, more than 1024
    of them (several chunks) at n = 33 and 34: region3d and region-reg along
    each axis and at random, with and without --compare-grad, equal every
    cell classified on its own, with the same count of cells classified and
    of those on the slow path."""
    z = {1: 5.0, 0: 1.0, -1: 0.9}[theta]
    eq = EquilibriumParams(theta=theta, z=z, u=np.zeros(3), T=1.0)
    quadrant = (n - n // 2) ** 2
    directions = (1, 2, 3, "random")
    grad = {d: _full_shear_grid(q.SystemKind.Grad13, eq, n, d) for d in directions}
    g3 = q.region_scan_3d_cross_section(theta, z, n=n)
    np.testing.assert_array_equal(g3.cells, grad[1][0])
    assert (g3.metadata["n_classified"], g3.metadata["n_slow"]) == (quadrant, grad[1][1])
    for d in directions:
        g = q.region_scan_regularized(theta, z, n=n, direction=d, compare_grad=True)
        cells, n_slow = _full_shear_grid(q.SystemKind.FinalR13, eq, n, d)
        np.testing.assert_array_equal(g.cells, cells)
        assert g.metadata["grad_class_counts"] == analysis.class_counts(grad[d][0])
        classified = n * n if d == "random" else quadrant
        assert g.metadata["grad_n_classified"] == g.metadata["n_classified"] == classified
        assert (g.metadata["n_slow"], g.metadata["grad_n_slow"]) == (n_slow, grad[d][1])
        alone = q.region_scan_regularized(theta, z, n=n, direction=d)
        np.testing.assert_array_equal(alone.cells, g.cells)
        assert alone.metadata == {k: v for k, v in g.metadata.items()
                                  if not k.startswith("grad_")}


def test_axis_scan_hands_the_classifier_one_quadrant(monkeypatch):
    """region3d at n = 31 classifies 16 x 16 matrices; a vector direction
    along the same axis classifies every column of the q1_hat >= 0 rows."""
    sizes = []

    def counting(A_stack):
        sizes.append(A_stack.shape[0])
        return spectral.classify_batch(A_stack)

    monkeypatch.setattr(analysis, "classify_batch", counting)
    g = q.region_scan_3d_cross_section(1, 2.0, n=31)
    assert sum(sizes) == g.metadata["n_classified"] == 16 * 16
    sizes.clear()
    vec = q.region_scan_regularized(1, 2.0, n=31, direction=[0.0, 1.0, 0.0])
    assert sum(sizes) == vec.metadata["n_classified"] == 16 * 31
    axis = q.region_scan_regularized(1, 2.0, n=31, direction=2)
    np.testing.assert_array_equal(vec.cells, axis.cells)


def test_scan_rejects_non_affine_assembly():
    shat = np.linspace(-0.5, 0.5, 5)
    qhat = np.linspace(-1.0, 1.0, 5)
    curved = np.array([[np.diag([s * s, qh, 1.0])] * 3 for s, qh in analysis._BASIS])
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


def _code_grid(x, y, cells):
    return analysis.RegionGrid(theta=1, z=2.0, T=1.0, x_name="sigma11_hat",
                               y_name="q1_hat", x=np.asarray(x, dtype=float),
                               y=np.asarray(y, dtype=float),
                               cells=np.asarray(cells, dtype=np.int8))


def test_region_csv_rows_match_per_cell_formatting(tmp_path):
    """Byte for byte the per-cell writer: a scan, a grid holding every code
    from -1 to 3, one column and one row."""
    grids = [q.region_scan_1d(1, 2.0, n=7),
             _code_grid(np.linspace(-0.999, 1.999, 9), np.linspace(-3.0, 3.0, 7),
                        np.random.default_rng(3).integers(-1, 4, size=(7, 9))),
             _code_grid([0.1], [-1.0, 0.0, 1.0 / 3.0, 2.0, 5e-300],
                        [[-1], [0], [1], [2], [3]]),
             _code_grid([-1.0, 0.25, 1.0 / 7.0, 1e20, 0.0], [2.5], [[3, 2, 1, 0, -1]])]
    assert set(grids[1].cells.ravel().tolist()) == {-1, 0, 1, 2, 3}
    path = tmp_path / "r.csv"
    for g in grids:
        q.write_region_csv(g, str(path))
        lines = [f"{g.x_name},{g.y_name},class_code"]
        for iy in range(g.y.size):
            for ix in range(g.x.size):
                lines.append(f"{analysis._fmt(g.x[ix])},{analysis._fmt(g.y[iy])},"
                             f"{int(g.cells[iy, ix])}")
        assert path.read_bytes() == ("\n".join(lines) + "\n").encode()


# ---------------------------------------------------------------------------
# fugacity sweeps

def _sweep(theta, T=1.0):
    """The equilibrium spectrum over the default grid, and its branch columns."""
    spectrum = q.char_poly_equilibrium(analysis.default_sweep_grid(theta), theta, T)
    return spectrum, *analysis._sweep_columns(spectrum)


def test_sweep_classical_branches_constant():
    _, cols, crossing = _sweep(0)
    assert crossing is None
    ref = {"zero": 0.0, "sqrt_alpha": math.sqrt(1.4)}
    lo, hi = sorted(np.roots([1.0, -5.2, 3.0]).real)
    ref["sqrt_x_minus"], ref["sqrt_x_plus"] = math.sqrt(lo), math.sqrt(hi)
    assert list(cols) == ["zero", "sqrt_x_minus", "sqrt_alpha", "sqrt_x_plus"]
    for name, vals in cols.items():
        np.testing.assert_allclose(vals, ref[name], rtol=0, atol=1e-16 + 1e-12)


def test_sweep_fermion_finds_crossing():
    _, _, crossing = _sweep(1)
    assert crossing is not None
    assert abs(crossing - 11.687) < 5e-3


def test_sweep_boson_range_capped():
    spectrum, _, crossing = _sweep(-1)
    assert np.max(spectrum.z) < 1.0
    assert crossing is None


def test_sweep_csv(tmp_path):
    spectrum = q.char_poly_equilibrium(np.logspace(-1, 1, 11), 1)
    p = tmp_path / "sweep.csv"
    q.write_sweep_csv(spectrum, str(p))
    lines = p.read_text().splitlines()
    assert lines[0] == "z,zero,sqrt_x_minus,sqrt_alpha,sqrt_x_plus"
    assert len(lines) == 12
    json.loads((tmp_path / "sweep.csv.meta.json").read_text())


_FIELDS = ("alpha_hat", "c0", "c1", "x_minus", "x_plus")


@pytest.mark.parametrize("T", [1.0, 0.7])
def test_sweep_is_the_spectrum_point_by_point(theta, T):
    """The array call over a grid gives every field, bit for bit, as the float
    call does at each of its fugacities; the float call gives float fields."""
    spectrum, cols, _ = _sweep(theta, T)
    ones = [q.char_poly_equilibrium(float(z), theta, T) for z in spectrum.z]
    assert all(type(getattr(one, name)) is float for one in ones for name in _FIELDS)
    for name in _FIELDS:
        ref = np.array([getattr(one, name) for one in ones])
        assert getattr(spectrum, name).tobytes() == ref.tobytes(), name
    assert spectrum.lambda_hat.shape == (spectrum.z.size, 13)
    for get in (lambda s: s.lambda_hat, lambda s: s.eigenvalues(0.3)):
        assert get(spectrum).tobytes() == np.stack([get(one) for one in ones]).tobytes()
    ref = np.array([[math.sqrt(T * one.x_minus), math.sqrt(T * one.alpha_hat),
                     math.sqrt(T * one.x_plus)] for one in ones])
    got = np.stack([cols["sqrt_x_minus"], cols["sqrt_alpha"], cols["sqrt_x_plus"]], 1)
    assert got.tobytes() == ref.tobytes()


def _count_li_calls(monkeypatch):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return q.eval_polylog_batch(*args, **kwargs)

    for mod in (state, spectral):
        monkeypatch.setattr(mod, "eval_polylog_batch", counting)
    return calls


@pytest.mark.parametrize("theta, most", [(1, 12), (-1, 1), (0, 1)])
def test_sweep_evaluates_li_once(theta, most, monkeypatch):
    """A default sweep is one li evaluation; the Fermion branch crossing is a
    pinned constant and evaluates none."""
    calls = _count_li_calls(monkeypatch)
    _sweep(theta)
    assert len(calls) <= most
    assert calls[0][0].size == 161


def test_default_sweep_makes_one_li_call(theta, monkeypatch):
    """A default sweep evaluates li once, on its whole 161-point grid."""
    calls = _count_li_calls(monkeypatch)
    _sweep(theta)
    assert len(calls) == 1 and calls[0][0].size == 161


@pytest.mark.parametrize("grid, named", [
    ([1e2, 3e5, 1e13], "z=300000.0"),
    ([1e13, 1e2], "z=10000000000000.0"),
])
def test_sweep_names_the_first_z_past_the_fermion_bound(grid, named):
    """A Fermion grid past FERMI_Z_C names its first such z, also where the
    grid reaches past li's table (FERMI_Z_MAX)."""
    with pytest.raises(q.DomainError, match="complex roots") as exc:
        q.char_poly_equilibrium(grid, 1)
    assert f"{named}, above" in str(exc.value)


def test_sweep_rejects_negative_temperature():
    for z in (analysis.default_sweep_grid(0), 1.0):
        with pytest.raises(q.DomainError, match="temperature"):
            q.char_poly_equilibrium(z, 0, T=-1.0)


def test_sweep_rejects_infinite_temperature():
    """T = inf is a domain error, not inf and NaN speeds."""
    for z in (analysis.default_sweep_grid(0), 2.0):
        with pytest.raises(q.DomainError, match="temperature must be finite"):
            q.char_poly_equilibrium(z, 1, T=math.inf)


# ---------------------------------------------------------------------------
# linearization and transport

def test_linearization_report(theta):
    z = 0.6 if theta == -1 else 2.0
    rep = q.linearization_equality(theta, z)
    assert np.all(rep.e_final <= 1e-12 * rep.scale)
    if theta == 0:
        assert np.all(rep.e_trivial <= 1e-12 * rep.scale)
    else:
        assert np.all(rep.e_trivial > 1e-6 * rep.scale)


@pytest.mark.parametrize("kind", [q.SystemKind.Grad13, q.SystemKind.FinalR13],
                         ids=lambda k: k.name)
def test_nsf_correct_models(kind, theta):
    z = 0.5 if theta == -1 else 2.0
    rep = q.maxwellian_iteration_nsf(kind, theta, z, T=1.2, tau=0.8)
    assert rep.mu == rep.mu_reference  # shear viscosity tau p, exactly
    assert np.max(np.abs(rep.residual)) <= 1e-10 * abs(rep.kappa_star)
    # closed form of the Fourier coefficient
    l3, l5, l7 = q.eval_polylog_batch(z, theta)[1:4, 0]
    p = EquilibriumParams(theta=theta, z=z, u=np.zeros(3), T=1.2).p
    kappa = 2.5 * 0.8 * p * (3.5 * l7 / l5 - 2.5 * l5 / l3)
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


@pytest.mark.parametrize("tau", [-1.0, 0.0, math.nan, math.inf])
def test_nsf_rejects_a_relaxation_time_not_positive_and_finite(tau):
    with pytest.raises(q.DomainError, match="relaxation time"):
        q.maxwellian_iteration_nsf(q.SystemKind.FinalR13, 1, 2.0, tau=tau)


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


def test_random_draws_digest_pinned():
    """300 seeded states per statistics, their equilibria and li, and 10201
    unit vectors (region-reg's 101 x 101 grid) hash to the recorded digest:
    the draws keep their bits through any trim of their fixed calls."""
    h = hashlib.sha256()
    for theta in (-1, 0, 1):
        gen = np.random.Generator(np.random.Philox(20261021 + theta))
        for _ in range(300):
            st, eq = random_moment_state(gen, theta)
            for a in (st.rho, st.u, st.p_ij, st.q, eq.z, eq.T, eq.u, eq.coeffs.li):
                h.update(np.asarray(a, dtype=float).tobytes())
    gen = np.random.Generator(np.random.Philox(20261021))
    h.update(random_unit_vectors(gen, 10201).tobytes())
    assert h.hexdigest() == \
        "198c59dd896af6ec216d4bbf7ae13a95cc4d4da0c36be3e56e5b1f04955a5b89"


def test_suite_runner():
    out = q.run_verification_suite("charpoly")
    assert out["ok"] is True
    assert out["suites"][0]["suite"] == "charpoly"
    assert all(c["ok"] for c in out["suites"][0]["checks"])
    with pytest.raises(KeyError):
        q.run_verification_suite("no-such-suite")


def test_verify_charpoly_brackets_the_fermion_bound(monkeypatch):
    """The charpoly suite checks that c1^2 - 4 c0 changes sign between 0.99
    and 1.01 FERMI_Z_C; a bound placed off the sign change fails it."""
    def bracket():
        checks = analysis.verify_charpoly(seed=0)["checks"]
        return [c for c in checks if c["name"].startswith("FERMI_Z_C brackets")]

    (check,) = bracket()
    assert check["ok"] and check["value"] < 0.0
    for wrong in (2.0e5, 2.6e5):
        monkeypatch.setattr(analysis, "FERMI_Z_C", wrong)
        assert not bracket()[0]["ok"]


def test_fugacity_ranges_come_from_one_table():
    """The draws and grids span the table's ranges, bit for bit as written out."""
    assert analysis._Z_RANGE == {1: (1e-2, 1e2), -1: (0.01, 0.99), 0: (1e-2, 10.0)}
    for theta, lo, hi in ((1, -2.0, 2.0), (-1, -2.0, math.log10(0.99)), (0, -2.0, 1.0)):
        np.testing.assert_array_equal(analysis.default_sweep_grid(theta, 17),
                                      np.logspace(lo, hi, 17))
    np.testing.assert_array_equal(analysis._annihilation_grid(-1),
                                  np.linspace(0.01, 0.99, 9))
    np.testing.assert_array_equal(analysis._annihilation_grid(1),
                                  np.logspace(-2.0, 2.0, 9))
    a = np.random.Generator(np.random.Philox(7))
    b = np.random.Generator(np.random.Philox(7))
    for theta in (1, -1, 0) * 20:
        want = {1: lambda: 10.0 ** b.uniform(-2.0, 2.0),
                -1: lambda: b.uniform(0.01, 0.99),
                0: lambda: 10.0 ** b.uniform(-2.0, 1.0)}[theta]()
        assert analysis.random_fugacity(a, theta) == want


_SCANS = {"region1d": q.region_scan_1d, "region3d": q.region_scan_3d_cross_section,
          "region-reg": q.region_scan_regularized}


@pytest.mark.parametrize("kw, message", [
    ({"n": 0}, "n must be a positive integer, got 0"),
    ({"n": 2.5}, "n must be a positive integer, got 2.5"),
    ({"q1_hat_max": math.nan}, "q1_hat_max must be positive and finite, got nan"),
    ({"q1_hat_max": math.inf}, "q1_hat_max must be positive and finite, got inf"),
    ({"q1_hat_max": 0.0}, "q1_hat_max must be positive and finite, got 0.0"),
    ({"q1_hat_max": -1.0}, "q1_hat_max must be positive and finite, got -1.0"),
])
@pytest.mark.parametrize("scan", list(_SCANS))
def test_scans_check_their_grid_inputs(scan, kw, message):
    """A bad grid size or q1_hat range is a DomainError that names it, not
    a LinAlgError, a reshape error or a reversed axis."""
    with pytest.raises(q.DomainError) as exc:
        _SCANS[scan](0, 1.0, **{"n": 5, **kw})
    assert str(exc.value) == message


_EQ = EquilibriumParams(theta=1, z=2.0, u=np.zeros(3), T=1.0)
_COUNTS = [   # (the input's name, a call that passes it)
    pytest.param("n", lambda n: q.region_scan_1d(0, 1.0, n=n), id="n"),
    pytest.param("threads", lambda t: q.region_scan_regularized(0, 1.0, n=5, threads=t),
                 id="threads"),
    pytest.param("n_nodes", lambda n: q.ansatz_moments(q.equilibrium_state13(_EQ), _EQ,
                                                       n_nodes=n), id="n_nodes"),
    pytest.param("n", lambda n: analysis.default_sweep_grid(1, n), id="sweep-n"),
]


@pytest.mark.parametrize("value", [0, -1, 2.5])
@pytest.mark.parametrize("name, call", _COUNTS)
def test_every_count_has_one_rule_and_one_message(name, call, value):
    """A grid size, a rule's node count, a worker count and a sweep's grid
    size pass one check, which names the input and its value in one wording,
    not a numpy TypeError, a silent clamp to one worker or an empty grid."""
    with pytest.raises(q.DomainError) as exc:
        call(value)
    assert str(exc.value) == f"{name} must be a positive integer, got {value!r}"


@pytest.mark.parametrize("theta", [2, "1", None])
def test_random_draws_check_theta(theta):
    """A statistics other than -1, 0 or +1 is a DomainError before any draw."""
    for draw in (analysis.random_fugacity, random_moment_state):
        rng = np.random.Generator(np.random.Philox(7))
        with pytest.raises(q.DomainError, match="statistics parameter"):
            draw(rng, theta)
        assert rng.random() == np.random.Generator(np.random.Philox(7)).random()


def test_scan_rejects_a_direction_string_other_than_random():
    with pytest.raises(q.DomainError) as exc:
        q.region_scan_regularized(0, 1.0, n=5, direction="Random")
    assert str(exc.value) == ("direction must be 'random', an axis or 3 numbers, "
                              "got 'Random'")
