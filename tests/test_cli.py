"""Command line interface: exit codes, JSON payloads, artifact determinism."""
import json

import numpy as np
import pytest

import qgrad13 as q
from qgrad13.cli import main


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


def test_eigs_equilibrium(capsys):
    assert main(["eigs", "--theta", "1", "--z", "2.0", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["class"] == "HyperbolicDegenerate"
    mults = sorted(d["algebraic_multiplicity"] for d in out["diagnostics"])
    assert mults == [1, 1, 1, 1, 2, 2, 5]


def test_eigs_needs_a_state(capsys):
    assert main(["eigs", "--theta", "1"]) == 2
    assert capsys.readouterr().err.strip() != ""


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


def test_region_reg_vector_direction(capsys):
    rc = main(["region-reg", "--theta", "0", "--z", "1.0", "--n", "11",
               "--direction", "0.6,0.8,0.0"])
    assert rc == 0


def test_sweep_eigs(tmp_path, capsys):
    out_file = tmp_path / "sweep.csv"
    rc = main(["sweep-eigs", "--theta", "1", "--zmin", "0.1", "--zmax", "50",
               "--n", "25", "--out", str(out_file)])
    assert rc == 0
    assert len(out_file.read_text().splitlines()) == 26
    assert "11.68" in capsys.readouterr().out  # branch crossing location


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


def test_verify_suite(capsys):
    assert main(["verify", "--suite", "charpoly"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "verify: OK" in out
    assert "FAIL" not in out


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


def test_simulate_invalid_config_exit3(tmp_path, capsys):
    cfg = dict(theta=0, cells=32, length=1.0, cfl=2.0, tau=0.05, t_end=0.05,
               left=dict(z=1.0, u1=0.0, T=1.0),
               right=dict(z=1.0, u1=0.0, T=1.0))
    f = tmp_path / "bad.json"
    f.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(f)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "DomainError"


def test_domain_error_exit3(capsys):
    assert main(["polylog", "--theta", "-1", "--z", "1.5"]) == 3
    err = json.loads(capsys.readouterr().err)
    assert "condensation" in err["error"]["message"]


def test_help_documents_units(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "units" in out and "fugacity" in out
