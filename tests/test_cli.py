"""Command line interface: exit codes, JSON payloads, artifact determinism."""
import dataclasses
import hashlib
import inspect
import json
import warnings

import numpy as np
import pytest

import qgrad13 as q
from qgrad13 import analysis, cli
from qgrad13.cli import main
from qgrad13.polylog import FERMI_Z_C


def test_polylog_json(capsys):
    assert main(["polylog", "--theta", "0", "--z", "0.5", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["theta"] == 0
    assert all(v == 0.5 for v in out["li"].values())


def test_polylog_text(capsys):
    assert main(["polylog", "--theta", "1", "--z", "5.0"]) == 0
    text = capsys.readouterr().out
    assert "li[1/2]" in text and "li[9/2]" in text
    assert "1.2972654" in text  # frozen reference value at z = 5


@pytest.mark.parametrize("theta, z, digest", [
    (1, "0.2", "b21a69a752439322e1c9d413e4a5975290e8acbdedee33417f0f303353c84424"),
    (1, "0.9", "b625482e93970e04a2f90d40784ff0edd73f7a786a5aa9cd3e0f29bf70f56e93"),
    (-1, "0.2", "cf6f3dda4d293325960816178f004a68b08dcaa7a073fab78e7f64ce725e50d1"),
    (-1, "0.9", "7c6c22a18071c487317e8b9246fcdbeddad63f93f26cec9887e3ee7b9ac78a48"),
    (0, "0.2", "e7820a9e169a640293c9a2a3e4402fb3a432b83ad1bb940cedc450a989e15dd7"),
    (0, "0.9", "81378d192618d7c2fbfd5dcf243de6557298dfd0814bc90e11c1286bb1b6b424"),
    (1, "5", "0c5936dd50c5b003230eb39bec3698de5b1b277661ba9804775c94ca60b02798"),
    (0, "5", "f660c2e9dae2843a94543fac7d15cbaadc383643555dab21b3942af7a64cb47b"),
])
def test_polylog_output_frozen(theta, z, digest, capsys):
    """`polylog` text then `--json`, byte for byte; the JSON carries z, theta
    and li keyed by fraction strings, with the text's values."""
    h = hashlib.sha256()
    outs = []
    for extra in ([], ["--json"]):
        assert main(["polylog", "--theta", str(theta), "--z", z] + extra) == 0
        outs.append(capsys.readouterr().out)
        h.update(outs[-1].encode())
    assert h.hexdigest() == digest
    d = json.loads(outs[1])
    assert set(d) == {"z", "theta", "li"} and (d["z"], d["theta"]) == (float(z), theta)
    assert list(d["li"]) == ["1/2", "3/2", "5/2", "7/2", "9/2"]
    text = [float(line.split(" = ")[1]) for line in outs[0].splitlines()[1:]]
    assert text == list(d["li"].values())


def test_eigs_equilibrium(capsys):
    assert main(["eigs", "--theta", "1", "--z", "2.0", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["class"] == "HyperbolicDegenerate"
    mults = sorted(d["algebraic_multiplicity"] for d in out["diagnostics"])
    assert mults == [1, 1, 1, 1, 2, 2, 5]


def test_eigs_needs_a_state(capsys):
    assert main(["eigs", "--theta", "1"]) == 2
    assert capsys.readouterr().err.strip() != ""


@pytest.mark.parametrize("option", [["--z", "3"], ["--T", "5"]], ids=["z", "T"])
def test_eigs_state_takes_no_z_or_T(option, tmp_path, capsys):
    """The state file's own fit sets z and T, so either option is a usage
    error (exit 2), not silently ignored."""
    f = tmp_path / "state.json"
    eq = q.EquilibriumParams(theta=1, z=2.0, u=np.zeros(3), T=1.0)
    f.write_text(json.dumps(q.equilibrium_state13(eq).as_dict()))
    assert main(["eigs", "--theta", "1", "--state", str(f)] + option) == 2
    captured = capsys.readouterr()
    assert "--z and --T do not combine with --state" in captured.err
    assert captured.out == ""


def test_eigs_rejects_infinite_hhat(capsys):
    assert main(["eigs", "--theta", "0", "--z", "1", "--hhat", "inf"]) == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "DomainError", "message": "hhat must be positive and finite, got inf"}


@pytest.mark.parametrize("hhat", ["inf", "0"])
def test_eigs_from_state_rejects_hhat_outside_0_inf(tmp_path, capsys, hhat):
    """The fit of a state file names hhat, not the pressure/density ratio."""
    eq = q.EquilibriumParams(theta=0, z=1.0, u=np.zeros(3), T=1.0)
    f = tmp_path / "st.json"
    f.write_text(json.dumps(q.equilibrium_state13(eq).as_dict()))
    assert main(["eigs", "--theta", "0", "--state", str(f), "--hhat", hhat]) == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "DomainError",
                   "message": f"hhat must be positive and finite, got {float(hhat)}"}


def test_eigs_from_state_file(tmp_path, capsys):
    eq = q.EquilibriumParams(theta=-1, z=0.5, u=np.zeros(3), T=1.0)
    st = q.equilibrium_state13(eq)
    d = st.as_dict()
    d["p_ij"][0][1] = d["p_ij"][1][0] = 0.2 * eq.p  # shear perturbation
    f = tmp_path / "state.json"
    f.write_text(json.dumps(d))
    dump = tmp_path / "eigs.csv"
    rc = main(["eigs", "--theta", "-1", "--state", str(f),
               "--system", "regularized", "--dump", str(dump), "--json"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["class"] in ("HyperbolicStrict", "HyperbolicDegenerate")
    lines = dump.read_text().splitlines()
    assert lines[0] == "re,im"
    assert len(lines) == 14


def test_eigs_perturbed_grad_goes_complex(tmp_path, capsys):
    eq = q.EquilibriumParams(theta=0, z=0.5, u=np.zeros(3), T=1.0)
    st = q.equilibrium_state13(eq)
    d = st.as_dict()
    d["p_ij"][0][1] = d["p_ij"][1][0] = 1e-3 * eq.p
    f = tmp_path / "state.json"
    f.write_text(json.dumps(d))
    assert main(["eigs", "--theta", "0", "--state", str(f),
                 "--system", "grad", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["class"] == "NonHyperbolic"


@pytest.mark.parametrize("state_file, argv, digest", [
    (False, ["--theta", "1", "--z", "2.0"],
     "53fcae62743cea77da65dbf31dde8f36f389ace52748644a79c1165c4e7b4608"),
    (True, ["--theta", "-1"],
     "b60a7331d16b17958358409f80dc338977511881475bf0fd36bf3537f5c09f4a"),
], ids=["fermion-equilibrium", "boson-sheared"])
def test_eigs_regularized_json_frozen(state_file, argv, digest, tmp_path, capsys):
    """The verdict payload, byte for byte (digest of numpy's bundled LAPACK
    eigensolver output on x86-64)."""
    if state_file:
        eq = q.EquilibriumParams(theta=-1, z=0.5, u=np.zeros(3), T=1.0)
        d = q.equilibrium_state13(eq).as_dict()
        d["p_ij"][0][1] = d["p_ij"][1][0] = 0.2 * eq.p
        d["q"][0] = 0.3 * eq.p
        f = tmp_path / "state.json"
        f.write_text(json.dumps(d))
        argv = argv + ["--state", str(f)]
    assert main(["eigs", "--system", "regularized", "--dir", "1,1,0", "--json"]
                + argv) == 0
    out = capsys.readouterr().out
    assert json.loads(out)["class"] == "HyperbolicDegenerate"
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("system, state_file, digest", [
    ("grad", False, "b57cdb2de060e1d629ad0d0e84bed8ec247b9ef233747dd0124d27410c19070f"),
    ("grad", True, "36a2a4db61930212f95fa004ca3880a5da91b800184e9b2c46c72dfb0b149f07"),
    ("trivial", False, "cc090c53d70e873deb37d66f15b4f7d7b90b4daca6d7ec1d3ee1891e0667f47b"),
    ("trivial", True, "076650aa088d81052b7b8d0fad5f2ba43ca12b69d9cce616fe78291052fe7208"),
], ids=["grad-fermion-equilibrium", "grad-boson-sheared",
        "trivial-fermion-equilibrium", "trivial-boson-sheared"])
def test_eigs_grad_and_trivial_json_frozen(system, state_file, digest, tmp_path,
                                           capsys):
    """`eigs --json` of the plain closure and the projection foil, byte for
    byte, at a Fermion equilibrium and at a sheared Boson state (digests of
    numpy's bundled LAPACK eigensolver output on x86-64)."""
    argv = ["--theta", "1", "--z", "2.0"]
    if state_file:
        eq = q.EquilibriumParams(theta=-1, z=0.5, u=np.zeros(3), T=1.0)
        d = q.equilibrium_state13(eq).as_dict()
        d["p_ij"][0][1] = d["p_ij"][1][0] = 0.2 * eq.p
        d["q"][0] = 0.3 * eq.p
        f = tmp_path / "state.json"
        f.write_text(json.dumps(d))
        argv = ["--theta", "-1", "--state", str(f)]
    assert main(["eigs", "--system", system, "--dir", "1,1,0", "--json"] + argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, key", [
    (["simulate", "--config"], "theta"),
    (["eigs", "--theta", "0", "--state"], "rho"),
], ids=["config", "state"])
def test_malformed_input_file_is_domain_error(argv, key, tmp_path, capsys):
    f = tmp_path / "in.json"
    f.write_text(json.dumps({"cells": 8}))
    assert main(argv + [str(f)]) == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "DomainError"
    assert repr(key) in err["message"]


@pytest.mark.parametrize("field, value", [("q", "NaN"), ("u", "Infinity")])
def test_non_finite_state_file_is_domain_error(field, value, tmp_path, capsys):
    """A non-finite velocity or heat flux is a domain error (exit 3), not a
    linear-algebra traceback."""
    eq = q.EquilibriumParams(theta=0, z=0.5, u=np.zeros(3), T=1.0)
    d = q.equilibrium_state13(eq).as_dict()
    d[field][0] = float(value)
    f = tmp_path / "state.json"
    f.write_text(json.dumps(d))
    assert value in f.read_text()
    assert main(["eigs", "--theta", "0", "--state", str(f)]) == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "DomainError" and "finite" in err["message"]


def test_region1d_deterministic_artifact(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for p in (a, b):
        rc = main(["region1d", "--theta", "0", "--z", "1.0", "--n", "21",
                   "--out", str(p)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.meta.json").exists()
    assert "fraction" in capsys.readouterr().out


def test_region_reg_compare(capsys):
    rc = main(["region-reg", "--theta", "1", "--z", "2.0", "--n", "15",
               "--direction", "1", "--compare-grad"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fraction" in out and "grad" in out.lower()


_REGION_SCANS = [["region1d", "--n", "41"],
                 ["region3d", "--n", "31"],
                 ["region-reg", "--n", "31", "--compare-grad", "--seed", "5"],
                 ["region-reg", "--n", "21", "--direction", "2"],
                 ["region-reg", "--n", "21", "--direction", "1,2,0.5", "--compare-grad"]]
_REGION_DIGESTS = {   # per scan: (CSV sha256, sidecar sha256)
    (1, "2.5"): [("4ab0de2e4ede819eee0d9d83cb25d7fcbb0cf06ab56ef92a1929ff9c8ae3697a",
                  "9cca6f78f6c5c76b66e3e18e8603a3f2d25f7aa423915755030cb183180be4e2"),
                 ("4338462ce9bcdb7477f304d4e7c159cf0a6dda26c7b9fc86f1f42a9b73b04bc9",
                  "7dc927d5c213bb2a11facc2f99cf4d817bcf0b8aa929de8b1f739f195871c59a"),
                 ("6993d715e7fd1c43c97d2945bccfc2e7882ceb616882aa6139d7663d8772ebe5",
                  "cc5cdd3aa0b708f6b2550bcd2dd25d80fabbbe5b3e5d900ad5cf69f5d6203c50"),
                 ("3e044a6a944d1133e18ec9b95ab08f5712d28c45c9d871a7f327597399a77602",
                  "fdc191cd9feb04d99bb470385a3e2f548c3b1d763c02bf2ba3335b5b4479304c"),
                 ("3e044a6a944d1133e18ec9b95ab08f5712d28c45c9d871a7f327597399a77602",
                  "3456021c685d66ad753d7e7830224ee859afae5facc9e818275854832f896976")],
    (0, "2.5"): [("24c12feeb017c0e52bce7919ff1f166dd0b94794058ce1e4dcfeaf4dd548bb0e",
                  "96c9596fb3e54743d8358a6bf58806110e5f25dd1390e21c735f8abf61f38dee"),
                 ("87d8eb89aeb06ca4ab05bd0831a1feb5ce027ae57b81d87e3c3c463c8659524d",
                  "ca7a334919e65cb52386e38258a7b280747e81b016c60f362b4c318c270846f7"),
                 ("6993d715e7fd1c43c97d2945bccfc2e7882ceb616882aa6139d7663d8772ebe5",
                  "c2ca0e0cd7f8fa3c6ec6a2775af5e6d7ad6af6039193fda017b1b851dd556edc"),
                 ("3e044a6a944d1133e18ec9b95ab08f5712d28c45c9d871a7f327597399a77602",
                  "f54454d1bddf2e0ccbeebf69aa6ba8c50fe4ed9c6a5c9d0787010bf1287dc7c7"),
                 ("3e044a6a944d1133e18ec9b95ab08f5712d28c45c9d871a7f327597399a77602",
                  "0da7a0dab9af6676a67019a90fc44890a762099c5ae6e58bce4bb2cbbae52617")],
    (-1, "0.7"): [("cde5351c3ba9c6c6e8bd5ba4ed5c34ee95d238c33b9ba74a9725d7a9df1db642",
                   "ea9510b55dc6df599c7b368931fe434deeb2aa18906659b0db4e2e8c43d9b2ed"),
                  ("4c0d8aafc28474647e92308166b1eb605f9a9ce59dfb4f5a541cdb94d2437d29",
                   "60c180b1c4fd1c54464373864c50d7d99bcf7e0b4c95d0b62b4d9e75e0907bf0"),
                  ("6993d715e7fd1c43c97d2945bccfc2e7882ceb616882aa6139d7663d8772ebe5",
                   "17b8f4cb75790f59888993ac2f097ad378bdf148b524eef895c9b5c988643ef6"),
                  ("3e044a6a944d1133e18ec9b95ab08f5712d28c45c9d871a7f327597399a77602",
                   "5c425f57b4e58737d829f875576194068ee636795d9b148ba0c8851ed908fc2b"),
                  ("3e044a6a944d1133e18ec9b95ab08f5712d28c45c9d871a7f327597399a77602",
                   "4e4eb1509ab0a5a96485bf93c80328aaece9727c1124f0ea9e678f7b8ce566d2")],
}


@pytest.mark.parametrize("theta, z", list(_REGION_DIGESTS))
def test_region_artifacts_frozen(theta, z, tmp_path, capsys):
    """Each scan's CSV and sidecar, byte for byte, each pinned on its own.
    hyperbolic_min_gap moves by up to 1.3e-8 under a one-ulp change of the
    matrix entries, so the sidecars pin the scans' basis matrices bit for
    bit, not only their class codes."""
    path = tmp_path / "r.csv"
    for argv, (csv, meta) in zip(_REGION_SCANS, _REGION_DIGESTS[theta, z]):
        assert main(argv + ["--theta", str(theta), "--z", z, "--out", str(path)]) == 0
        assert hashlib.sha256(path.read_bytes()).hexdigest() == csv, argv
        sidecar = (tmp_path / "r.csv.meta.json").read_bytes()
        assert hashlib.sha256(sidecar).hexdigest() == meta, argv
    capsys.readouterr()


@pytest.mark.parametrize("command, scan", [("region1d", "region_scan_1d"),
                                           ("region3d", "region_scan_3d_cross_section"),
                                           ("region-reg", "region_scan_regularized")])
def test_region_commands_look_their_scan_up_at_call_time(command, scan, monkeypatch,
                                                         capsys):
    """Each region subcommand runs its scan as `analysis` binds it when the
    command runs, after the parser is cached, so a wrapper set on the module
    (the benchmark's tracing) sees every call."""
    argv = [command, "--theta", "0", "--z", "1.0", "--n", "5"]
    assert main(argv) == 0
    calls, original = [], getattr(analysis, scan)
    monkeypatch.setattr(analysis, scan,
                        lambda *a, **kw: calls.append(a) or original(*a, **kw))
    assert main(argv) == 0
    assert calls == [(0, 1.0)]
    capsys.readouterr()


def test_region_reg_vector_direction(capsys):
    rc = main(["region-reg", "--theta", "0", "--z", "1.0", "--n", "11",
               "--direction", "0.6,0.8,0.0"])
    assert rc == 0


def test_region_reg_zero_direction_exit3(capsys):
    rc = main(["region-reg", "--theta", "0", "--z", "1.0", "--n", "11",
               "--direction", "0,0,0"])
    assert rc == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "DomainError"


@pytest.mark.parametrize("direction", ["4", "1,2", "x", "1,2,x", "nan,0,1", "inf,0,0"])
def test_region_reg_bad_direction_is_usage_error(direction, capsys):
    """Not an axis 1..3 or three finite components: a usage error naming it."""
    with pytest.raises(SystemExit) as exc:
        main(["region-reg", "--theta", "0", "--z", "1.0", "--n", "5",
              "--direction", direction])
    assert exc.value.code == 2
    assert f"argument --direction: must be an axis 1, 2 or 3 or three finite " \
           f"comma floats: {direction!r}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["region1d", "--theta", "0", "--z", "1.0", "--n", "-3"],
    ["sweep-eigs", "--theta", "1", "--n", "0"],
], ids=["region1d-negative-n", "sweep-eigs-zero-n"])
def test_nonpositive_n_is_usage_error(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "positive integer" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-1", "2.5"])
def test_bad_threads_is_usage_error(threads, capsys):
    """A worker count that is not a positive integer is a usage error, not a
    silent run on one worker."""
    with pytest.raises(SystemExit) as exc:
        main(["region1d", "--theta", "0", "--z", "1.0", "--n", "5",
              "--threads", threads])
    assert exc.value.code == 2
    assert "argument --threads" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["polylog", "region1d", "region3d", "region-reg"])
def test_temperature_only_where_it_is_read(command, capsys):
    """Only eigs, sweep-eigs and nsf read --T; the others reject it."""
    grid = [] if command == "polylog" else ["--n", "5"]
    with pytest.raises(SystemExit) as exc:
        main([command, "--theta", "1", "--z", "2", *grid, "--T", "5"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --T 5" in capsys.readouterr().err


@pytest.mark.parametrize("qmax", ["0", "-2"])
@pytest.mark.parametrize("scan", ["region1d", "region3d", "region-reg"])
def test_nonpositive_qmax_is_usage_error(scan, qmax, capsys):
    with pytest.raises(SystemExit) as exc:
        main([scan, "--theta", "0", "--z", "1.0", "--n", "5", "--qmax", qmax])
    assert exc.value.code == 2
    assert f"--qmax: must be a positive number: {qmax}" in capsys.readouterr().err


@pytest.mark.parametrize("tau", ["-1", "0", "nan", "inf"])
def test_nsf_nonpositive_tau_is_usage_error(tau, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["nsf", "--theta", "1", "--z", "2", "--tau", tau])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert f"--tau: must be a positive number: {tau}" in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("option, value", [("--zmin", "-1"), ("--zmax", "0")])
def test_sweep_eigs_nonpositive_bound_is_usage_error(option, value, capsys):
    bounds = {"--zmin": "0.5", "--zmax": "5", option: value}
    with warnings.catch_warnings():
        warnings.simplefilter("error")   # numpy's log10 warning would raise
        with pytest.raises(SystemExit) as exc:
            main(["sweep-eigs", "--theta", "1", "--n", "5"]
                 + [t for kv in bounds.items() for t in kv])
    assert exc.value.code == 2
    assert f"{option}: must be a positive number: {value}" in capsys.readouterr().err


@pytest.mark.parametrize("bound", [["--zmin", "5"], ["--zmax", "5"]],
                         ids=["zmin-only", "zmax-only"])
def test_sweep_eigs_needs_both_bounds(bound, capsys):
    assert main(["sweep-eigs", "--theta", "1", "--n", "5"] + bound) == 2
    captured = capsys.readouterr()
    assert "--zmin and --zmax" in captured.err
    assert captured.out == ""


def test_no_setting_without_a_caller():
    """The settings no caller set stay gone: the suites read only the seed,
    the classifiers only the matrix, and the scans span fixed windows."""
    def params(fn):
        return list(inspect.signature(fn).parameters)

    for fn in analysis._SUITES.values():
        assert params(fn) == ["seed"], fn.__name__
    assert params(q.run_verification_suite) == ["name", "seed"]
    assert params(q.classify_batch) == ["A_stack"]
    assert params(q.diagonalizability_test) == ["A"]
    assert params(q.fermion_crossing) == []
    assert params(analysis._classify_cells) == ["build_stack", "n_cells",
                                                "threads"]
    assert "sigma11_hat_window" not in params(q.region_scan_1d)
    for fn in (q.region_scan_3d_cross_section, q.region_scan_regularized):
        assert "sigma12_hat_max" not in params(fn)
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "polylog", "--threads", "2"])
    assert exc.value.code == 2
    # nor the settings, fields and li copy no caller set or read
    assert params(q.linearization_equality) == ["theta", "z"]
    assert params(q.annihilation_residual) == ["M1", "z", "theta"]
    assert params(q.state5_from_hat) == ["eq", "sigma11_hat", "q1_hat"]
    for cls, names in ((q.SystemMatrices, ["A", "D", "M", "B"]),
                       (q.LinearizationReport, ["scale", "e_final", "e_trivial"])):
        assert [f.name for f in dataclasses.fields(cls)] == names
    assert not hasattr(q.InadmissibleCell(0, "x"), "reason")
    eq = q.EquilibriumParams(theta=0, z=1.0, u=np.zeros(3), T=1.0)
    assert not hasattr(eq, "li") and eq.coeffs.li == (1.0,) * 5


def test_no_export_only_tests_use():
    """One 13x13 assembly, one 5x5 builder and one equilibrium spectrum: the
    per-model copies and the sweep's copy stay gone, and the helpers only
    tests call stay out of the public names."""
    from qgrad13 import matrices

    for name in ("assemble_A_grad_3d", "assemble_D", "axis_permutation_matrix"):
        assert name not in q.__all__ and not hasattr(q, name), name
    for name in ("assemble_A_grad_3d", "_assemble_A_reg", "_a_coeffs", "assemble_D",
                 "axis_permutation_matrix"):
        assert not hasattr(matrices, name), name
    for name in ("FugacitySweep", "eigen_sweep_fugacity"):
        assert name not in q.__all__ and not hasattr(analysis, name), name
    assert not hasattr(q.spectral, "_real_quartic_roots")
    for name in ("fit_fugacity_batch", "charpoly_coeffs", "grad_ansatz_eval"):
        assert name not in q.__all__ and not hasattr(q, name), name


def test_sweep_eigs(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    rc = main(["sweep-eigs", "--theta", "1", "--zmin", "0.1", "--zmax", "50",
               "--n", "25", "--out", str(out_file)])
    assert rc == 0
    assert len(out_file.read_text().splitlines()) == 26
    assert "11.68" in capsys.readouterr().out  # branch crossing location


def test_sweep_eigs_prints_a_one_point_grid_once(capsys):
    """The first and last rows of a one-point sweep are one row, printed once."""
    assert main(["sweep-eigs", "--theta", "1", "--n", "1"]) == 0
    rows = [line for line in capsys.readouterr().out.splitlines()
            if line.startswith("z=")]
    assert rows == ["z=0.01: zero=0, sqrt_x_minus=0.8146534508786667, "
                    "sqrt_alpha=1.1834767742132613, sqrt_x_plus=2.1312672910453228"]


@pytest.mark.parametrize("argv, digest", [
    (["--theta", "-1"], "3c8f34c0653d16e041c193b749748179660615c3549c5809335a32a1994c76a6"),
    (["--theta", "0"], "df3ef1c19887b4766aa86e8ef6b6a7c156ae6608743537aef323a8caf63a2da6"),
    (["--theta", "1"], "e6f3735363fd01b80d57457285cfc1a7c3360fb1d9e471a44276e93ded8bff7f"),
    (["--theta", "1", "--T", "0.7", "--zmin", "0.1", "--zmax", "50", "--n", "25"],
     "b35897066c53c460e40242cfea744d53d906ce24e9737842eae662bd5970b4ff"),
], ids=["boson", "classical", "fermion", "fermion-T0.7"])
def test_sweep_eigs_output_frozen(argv, digest, tmp_path, capsys):
    """`sweep-eigs --out` stdout, CSV and sidecar, byte for byte.  T = 0.7 is
    where sqrt(T x) and sqrt(T) sqrt(x) round apart."""
    out = str(tmp_path / "sweep.csv")
    assert main(["sweep-eigs"] + argv + ["--out", out]) == 0
    h = hashlib.sha256(capsys.readouterr().out.replace(out, "OUT").encode())
    for path in (out, out + ".meta.json"):
        with open(path, "rb") as fh:
            h.update(fh.read())
    assert h.hexdigest() == digest


def test_sweep_eigs_names_the_fermion_bound(capsys):
    """Past FERMI_Z_C the equilibrium quartic has complex roots: a domain
    error (exit 3) that names the bound."""
    assert main(["sweep-eigs", "--theta", "1", "--zmin", "1e2", "--zmax", "3e5",
                 "--n", "3"]) == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "DomainError"
    assert f"FERMI_Z_C = {FERMI_Z_C!r}" in err["message"]
    assert "z=300000" in err["message"]


def test_sweep_eigs_rejects_infinite_temperature(capsys):
    """--T inf is a domain error (exit 3), not a table of inf speeds."""
    assert main(["sweep-eigs", "--theta", "0", "--T", "inf", "--n", "3"]) == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err == {"type": "DomainError",
                   "message": "temperature must be finite, got inf"}


def test_eigs_names_the_fermion_bound(tmp_path, capsys):
    """Above FERMI_Z_C, from --z or from a --state file, the class line names
    the bound and --json gains `fermi_z_c`; below it, or for TrivialR13,
    whose heat-flux rows do not share the quartic, neither appears."""
    eq = q.EquilibriumParams(theta=1, z=3e5, u=np.zeros(3), T=1.0)
    f = tmp_path / "state.json"
    f.write_text(json.dumps(q.equilibrium_state13(eq).as_dict()))
    for source in (["--z", "3e5"], ["--state", str(f)]):
        argv = ["eigs", "--theta", "1", "--system", "regularized"] + source
        assert main(argv) == 0
        head = capsys.readouterr().out.splitlines()[0]
        assert head.startswith("system=FinalR13 class=NonHyperbolic (z = ")
        assert head.endswith(f" above the Fermion bound FERMI_Z_C = {FERMI_Z_C:.6g})")
        assert main(argv + ["--json"]) == 0
        assert json.loads(capsys.readouterr().out)["fermi_z_c"] == FERMI_Z_C
    for argv in (["--z", "2e5", "--system", "regularized"],
                 ["--z", "3e5", "--system", "trivial"]):
        assert main(["eigs", "--theta", "1"] + argv) == 0
        assert "FERMI_Z_C" not in capsys.readouterr().out
    assert main(["eigs", "--theta", "1", "--z", "2e5", "--json"]) == 0
    assert "fermi_z_c" not in json.loads(capsys.readouterr().out)


#: one run per statistics, 400 cells to t = 0.01: (left, right) sides
_SIM_SIDES = {1: ({"z": 6.0, "u1": 0.1, "T": 1.0}, {"z": 2.0, "u1": -0.1, "T": 1.2}),
              0: ({"z": 0.8, "u1": 0.1, "T": 1.0}, {"z": 0.3, "u1": -0.1, "T": 1.2}),
              -1: ({"z": 0.95, "u1": 0.1, "T": 1.0}, {"z": 0.4, "u1": -0.1, "T": 1.2})}


@pytest.mark.parametrize("theta, digest", [
    (-1, "3c8d28a07219a3b8a690a3d29d73e34cbd9d8c32ad37440bfe956e3ecf4dae59"),
    (0, "6d9345f9d87346c6af6ca29a00c20f543327bab3c64473587bc9c0ec61b5d0b8"),
    (1, "9fefcab65b19521dcc877e3d300842e94f8ab17ea1cb5877d4b2ceb6bb034d3e"),
], ids=["boson", "classical", "fermion"])
def test_simulate_artifacts_frozen(theta, digest, tmp_path, capsys):
    """`simulate --out-prefix` stdout (steps, max_speed, mass drift, Newton
    fallbacks, fit points), snapshots and ledger, byte for byte."""
    left, right = _SIM_SIDES[theta]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"theta": theta, "cells": 400, "length": 1.0,
                               "cfl": 0.45, "tau": 0.05, "t_end": 0.01,
                               "n_snapshots": 3, "left": left, "right": right}))
    prefix = str(tmp_path / "run")
    assert main(["simulate", "--config", str(cfg), "--out-prefix", prefix]) == 0
    h = hashlib.sha256(capsys.readouterr().out.replace(prefix, "PREFIX").encode())
    for f in sorted(tmp_path.glob("run_*")):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    assert h.hexdigest() == digest


def test_main_builds_its_parser_once(capsys):
    main(["polylog", "--theta", "0", "--z", "1"])
    parser = cli.build_parser()
    main(["polylog", "--theta", "1", "--z", "2"])
    assert cli.build_parser() is parser
    assert "li[9/2]" in capsys.readouterr().out


def test_nsf_json(capsys):
    rc = main(["nsf", "--theta", "1", "--z", "2.0", "--tau", "0.5", "--json"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["kind"] == "FinalR13"
    assert out["mu"] == out["mu_reference"]
    assert max(abs(r) for r in out["residual"]) < 1e-10 * out["kappa_star"]


def test_nsf_trivial_reports_mismatch(capsys):
    rc = main(["nsf", "--theta", "-1", "--z", "0.5", "--system", "trivial",
               "--json"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert max(abs(r) for r in out["residual"]) > 1e-2 * out["kappa_star"]


@pytest.mark.parametrize("system, digest", [
    ("grad", "98186d9189465debcd9b47c341a2e167915a1f54538eb5d7b583a3fa9a038afc"),
    ("regularized", "23551cd6ede47c20c7a14d42145f89895579390561250cbff44fa252371a8511"),
    ("trivial", "2ff195c2cd9d680ce75fd8dee7d76a3a196a1bd51de0b9504225e25626f9490d"),
], ids=["grad", "regularized", "trivial"])
def test_nsf_output_frozen(system, digest, capsys):
    """`nsf` text then `--json` per statistics, byte for byte."""
    h = hashlib.sha256()
    for theta, z in (("-1", "0.5"), ("0", "1.0"), ("1", "2.0")):
        for extra in ([], ["--json"]):
            assert main(["nsf", "--theta", theta, "--z", z, "--T", "1.3",
                         "--tau", "0.5", "--system", system] + extra) == 0
            h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == digest


def test_verify_suite(capsys):
    assert main(["verify", "--suite", "charpoly"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "verify: OK" in out
    assert "FAIL" not in out


@pytest.mark.parametrize("seed, digest", [
    (0, "f2d77197f77d912ff7930f7c21ce8292772b539128b31df60e6d8f438c51a29a"),
    (7, "fc7cdbd8aa719a09a5d98187ddb6005eede21ed31b55e0eadbf53342176094b0"),
], ids=["seed0", "seed7"])
def test_verify_all_output_frozen(seed, digest, capsys):
    """`verify --suite all` stdout, byte for byte: every suite's verdicts and
    values, the polylog suite's table-vs-quadrature value among them."""
    assert main(["verify", "--suite", "all", "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_simulate_artifacts(tmp_path, capsys):
    cfg = dict(theta=0, cells=32, length=1.0, cfl=0.45, tau=0.05, t_end=0.05,
               left=dict(z=1.0, u1=0.0, T=1.0),
               right=dict(z=1.3, u1=0.0, T=1.0), boundary="copy",
               n_snapshots=3)
    f = tmp_path / "run.json"
    f.write_text(json.dumps(cfg))
    prefix = str(tmp_path / "out")
    rc = main(["simulate", "--config", str(f), "--out-prefix", prefix])
    assert rc == 0
    assert (tmp_path / "out_ledger.csv").exists()
    for k in range(3):
        assert (tmp_path / f"out_snap{k:03d}.csv").exists()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("steps=") and "max_speed=" in lines[0]
    assert lines[1].startswith("mass_drift=")
    assert lines[2] == "newton_fallbacks=0"
    steps = int(lines[0].split()[0].split("=")[1])
    assert lines[3] == f"fit_points={32 * steps}"   # classically li at z only


_RUN = dict(theta=0, cells=8, length=1.0, cfl=0.45, tau=0.05, t_end=0.01,
            left=dict(z=1.0, u1=0.0, T=1.0), right=dict(z=1.3, u1=0.0, T=1.0))


@pytest.mark.parametrize("case", ["config-missing", "config-not-json", "state-missing",
                                  "region-out", "eigs-dump", "out-prefix"])
def test_file_errors_exit3_naming_the_path(case, tmp_path, capsys):
    """A file that cannot be read, parsed or written ends in exit 3 with the
    JSON error naming its path, not in a traceback with exit 1."""
    missing = str(tmp_path / "missing")
    run = tmp_path / "run.json"
    run.write_text(json.dumps(_RUN))
    path, argv = {
        "config-missing": (missing, ["simulate", "--config", missing]),
        "config-not-json": (str(run), ["simulate", "--config", str(run)]),
        "state-missing": (missing, ["eigs", "--theta", "0", "--state", missing]),
        "region-out": (missing, ["region1d", "--theta", "0", "--z", "1", "--n", "5",
                                 "--out", missing + "/grid.csv"]),
        "eigs-dump": (missing, ["eigs", "--theta", "0", "--z", "1",
                                "--dump", missing + "/eigs.csv"]),
        "out-prefix": (missing, ["simulate", "--config", str(run),
                                 "--out-prefix", missing + "/run"]),
    }[case]
    if case == "config-not-json":
        run.write_text("theta: 0\n")
    assert main(argv) == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert path in err["message"]
    assert err["type"] == ("DomainError" if case == "config-not-json" else "FileNotFoundError")


def test_simulate_invalid_config_exit3(tmp_path, capsys):
    cfg = dict(theta=0, cells=32, length=1.0, cfl=2.0, tau=0.05, t_end=0.05,
               left=dict(z=1.0, u1=0.0, T=1.0),
               right=dict(z=1.0, u1=0.0, T=1.0))
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(f)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "DomainError"


def test_simulate_past_fermion_edge_exit3(tmp_path, capsys):
    cfg = dict(theta=1, cells=16, length=1.0, cfl=0.45, tau=0.05, t_end=0.05,
               left=dict(z=1e6, u1=0.0, T=1.0), right=dict(z=1e6, u1=0.0, T=1.0))
    f = tmp_path / "edge.json"
    f.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(f)]) == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "InadmissibleCell"
    assert err["message"].startswith("cell 0 inadmissible: spectral radius nan")


def test_domain_error_exit3(capsys):
    assert main(["polylog", "--theta", "-1", "--z", "1.5"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert "condensation" in err["error"]["message"]


def test_polylog_past_fermion_table_exit3(capsys):
    z = float(np.nextafter(1e12, np.inf))
    assert main(["polylog", "--theta", "1", "--z", repr(z)]) == 3
    err = json.loads(capsys.readouterr().err)["error"]
    assert err["type"] == "DomainError" and "Fermion" in err["message"]


def test_help_documents_units(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "units" in out and "fugacity" in out
