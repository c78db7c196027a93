"""Command-line plumbing: every subcommand, every exit code, reproducible
artifacts."""

import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from numpy.testing import assert_allclose

from bckosc.cli import main

from conftest import SCENARIO_DIR

DRIVEN = str(SCENARIO_DIR / "underdamped_driven.cfg")
SHO = str(SCENARIO_DIR / "sho.cfg")
RAMP = str(SCENARIO_DIR / "ramp_omega.cfg")


# ---------- verify ----------

def test_verify_passes_on_bundled_scenarios(tmp_path, capsys):
    for cfg in (SHO, DRIVEN, RAMP):
        rc = main(["verify", "--scenario", cfg, "--out", str(tmp_path),
                   "--rtol", "1e-12", "--atol", "1e-14"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert out.count("PASS") == 7 and "FAIL" not in out
        assert "Omega mean" in out
    report = (tmp_path / "verify_report.csv").read_text().splitlines()
    assert report[0] == "t,re_I,im_I,IQ,Omega,C,ermakov_residual"
    assert report[-1].startswith("# max_drift_I=")


def _force_at_t0(tmp_path):
    # F(t0) = 0.5: the driven scenario with its sine turned into a cosine
    text = (SCENARIO_DIR / "underdamped_driven.cfg").read_text()
    cfg = tmp_path / "phase.cfg"
    cfg.write_text(text.replace("frequency = 0.9",
                                "frequency = 0.9\nphase = 1.5707963267948966"))
    return str(cfg)


def test_verify_passes_with_force_at_t0(tmp_path, capsys):
    # the sigma ODE starts with sigma'(t0) = -gamma(t0) F(t0)
    cfg = _force_at_t0(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["verify", "--scenario", cfg, "--out", str(tmp_path),
                   "--rtol", "1e-12", "--atol", "1e-14", "--tol", "1e-8"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert out.count("PASS") == 7 and "FAIL" not in out


def test_propagate_passes_with_force_at_t0(tmp_path, capsys):
    cfg = _force_at_t0(tmp_path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["propagate", "--scenario", cfg, "--out", str(tmp_path),
                   "--periods", "0.5", "--dt", "0.004",
                   "--min-overlap", "0.9999"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert out.count("PASS") == 1 and "FAIL" not in out


def test_verify_reports_omega_value(tmp_path, capsys):
    rc = main(["verify", "--scenario", DRIVEN, "--out", str(tmp_path)])
    assert rc == 0
    line = [l for l in capsys.readouterr().out.splitlines()
            if l.startswith("Omega mean")][0]
    assert_allclose(float(line.split()[-1]), 2.0 * math.sqrt(0.99),
                    rtol=0, atol=1e-9)


def test_verify_strict_tolerance_fails(tmp_path, capsys):
    # an impossible drift bound must be reported honestly as exit 1
    rc = main(["verify", "--scenario", DRIVEN, "--out", str(tmp_path),
               "--tol", "1e-16"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_quiet_suppresses_chatter(tmp_path, capsys):
    rc = main(["verify", "--scenario", SHO, "--out", str(tmp_path),
               "--quiet"])
    assert rc == 0
    assert capsys.readouterr().out == ""


def test_reports_are_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for out in (a, b):
        assert main(["verify", "--scenario", DRIVEN, "--out", str(out),
                     "--quiet"]) == 0
    assert ((a / "verify_report.csv").read_bytes()
            == (b / "verify_report.csv").read_bytes())


# ---------- spectrum ----------

def test_spectrum(tmp_path, capsys):
    rc = main(["spectrum", "--scenario", DRIVEN, "--out", str(tmp_path),
               "--nmax", "3"])
    assert rc == 0
    lines = (tmp_path / "spectrum.csv").read_text().splitlines()
    assert lines[0] == "n,eigenvalue"
    assert len(lines) == 5
    vals = [float(l.split(",")[1]) for l in lines[1:]]
    ref = [2.0 * math.sqrt(0.99) * (n + 0.5) for n in range(4)]
    assert_allclose(vals, ref, rtol=0, atol=1e-8)
    assert "n=3" in capsys.readouterr().out


# ---------- wavefunction ----------

def test_wavefunction(tmp_path, capsys):
    rc = main(["wavefunction", "--scenario", DRIVEN, "--out", str(tmp_path),
               "--n", "1", "--t", "1.0"])
    assert rc == 0
    lines = (tmp_path / "wavefunction.csv").read_text().splitlines()
    assert lines[0] == "q,re_psi,im_psi,abs2"
    footer = lines[-1]
    assert footer.startswith("# exp_q=")
    for key in ("exp_p=", "var_q=", "var_p=", "product=", "norm="):
        assert key in footer
    # abs2 column is consistent with the amplitude columns
    q, re, im, a2 = (float(x) for x in lines[len(lines) // 2].split(","))
    assert_allclose(a2, re * re + im * im, rtol=1e-12, atol=1e-300)
    assert "<q>=" in capsys.readouterr().out


def test_wavefunction_narrow_grid_is_exit_4(tmp_path, capsys):
    doc = (tmp_path / "narrow.cfg")
    doc.write_text((SCENARIO_DIR / "underdamped_driven.cfg").read_text()
                   .replace("qmin = -16.0", "qmin = -3.0")
                   .replace("qmax = 16.0", "qmax = 3.0"))
    rc = main(["wavefunction", "--scenario", str(doc), "--out",
               str(tmp_path), "--n", "6", "--t", "3.0"])
    assert rc == 4
    err = capsys.readouterr().err
    assert "suggested qmax:" in err


# ---------- propagate ----------

def test_propagate_sho(tmp_path, capsys):
    rc = main(["propagate", "--scenario", SHO, "--out", str(tmp_path),
               "--n", "0", "--dt", "1e-2"])
    assert rc == 0
    lines = (tmp_path / "propagation.csv").read_text().splitlines()
    assert lines[0] == "t,norm,overlap,fidelity_defect"
    assert "min overlap" in capsys.readouterr().out


def test_propagate_coarse_step_fails_tolerance(tmp_path, capsys):
    rc = main(["propagate", "--scenario", DRIVEN, "--out", str(tmp_path),
               "--n", "0", "--dt", "0.5", "--periods", "1"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_propagate_grid_clipped_in_mid_run_is_exit_4(tmp_path, capsys):
    # undamped, the packet keeps its width while its center drifts: the
    # grid holds psi_0 at t0 and clips it half a period later
    doc = tmp_path / "drift.cfg"
    text = (SCENARIO_DIR / "underdamped_driven.cfg").read_text()
    for old, new in (("value = 0.1", "value = 0"),
                     ("qmin = -16", "qmin = -8.5"),
                     ("qmax = 16", "qmax = 8.5"),
                     ("npoints = 1024", "npoints = 256")):
        assert old in text
        text = text.replace(old, new)
    doc.write_text(text)
    assert main(["wavefunction", "--scenario", str(doc), "--out",
                 str(tmp_path), "--quiet"]) == 0
    rc = main(["propagate", "--scenario", str(doc), "--out", str(tmp_path),
               "--periods", "0.5", "--dt", "0.02"])
    assert rc == 4
    err = capsys.readouterr().err
    assert "clips the envelope" in err and "suggested qmax:" in err


# ---------- sweep ----------

def test_sweep_damping(tmp_path, capsys):
    rc = main(["sweep", "--scenario", DRIVEN, "--out", str(tmp_path),
               "--param", "g", "--range", "0:0.1", "--steps", "2",
               "--rtol", "1e-12", "--atol", "1e-14", "--tol", "1e-6"])
    assert rc == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == ("param,value,Omega,drift_I,drift_IQ,"
                        "uncertainty_n0_t1,status")
    assert len(lines) == 3
    assert all(l.endswith(",ok") for l in lines[1:])
    # g = 0 row: undamped Omega = 2 m omega hbar
    row0 = lines[1].split(",")
    assert row0[1] == "0"
    assert_allclose(float(row0[2]), 2.0, rtol=0, atol=1e-9)
    assert "status=ok" in capsys.readouterr().out


def test_sweep_reports_solver_failures(tmp_path):
    # at g = 0.3 the envelope decays below representable positivity over
    # this window; the row must say so and the exit code must reflect it
    rc = main(["sweep", "--scenario", DRIVEN, "--out", str(tmp_path),
               "--param", "g", "--range", "0.3:0.3", "--steps", "1",
               "--quiet"])
    assert rc == 1
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[1].endswith("failed:GammaVanishes")


def test_sweep_force_params_need_sinusoid(tmp_path):
    rc = main(["sweep", "--scenario", SHO, "--out", str(tmp_path),
               "--param", "F0", "--range", "0:0.5", "--steps", "1",
               "--quiet"])
    assert rc == 1
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[1].endswith("failed:ValidationError")


def test_sweep_bad_range_is_exit_2(tmp_path, capsys):
    rc = main(["sweep", "--scenario", SHO, "--out", str(tmp_path),
               "--param", "g", "--range", "nonsense", "--steps", "2"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


# ---------- error paths ----------

def test_missing_file_is_exit_2(tmp_path, capsys):
    rc = main(["verify", "--scenario", str(tmp_path / "absent.cfg")])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_document_is_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[scenario]\nt0 = 0\nt1 = 5\n[omega]\ntype = cubist\n")
    rc = main(["verify", "--scenario", str(bad), "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_non_finite_tabulated_sample_is_exit_2(tmp_path, capsys):
    doc = tmp_path / "nan_sample.cfg"
    doc.write_text("[scenario]\nt0 = 0\nt1 = 3\n[omega]\ntype = tabulated\n"
                   "samples = 0:1, 1:nan, 2:1, 3:1\n")
    rc = main(["verify", "--scenario", str(doc), "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_degenerate_amplitude_is_exit_3(tmp_path, capsys):
    doc = tmp_path / "degenerate.cfg"
    doc.write_text("[scenario]\nt0 = 0\nt1 = 5\n"
                   "[omega]\ntype = constant\nvalue = 1.0\n"
                   "[beta0]\nre = 1\nim = 0\ndre = 0.5\ndim = 0\n")
    rc = main(["verify", "--scenario", str(doc), "--out", str(tmp_path)])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_cli_loads_neither_scipy_linalg_nor_numba(tmp_path):
    # scipy.linalg alone doubles a bare interpreter's memory, and numba is
    # not a dependency; neither may be pulled in by the common commands.
    # scipy is not a runtime dependency at all: tabulated time functions
    # load none of it.  The ODE tableau is built with plain numpy, so
    # numpy.polynomial stays unloaded too
    code = (
        "import sys, bckosc\n"
        "from bckosc.cli import main\n"
        "args = ['--scenario', sys.argv[1], '--out', sys.argv[2], '--quiet']\n"
        "rc = main(['verify'] + args)\n"
        "rc |= main(['propagate', '--dt', '0.01', '--periods', '0.2']"
        " + args)\n"
        "print(rc, sorted(m for m in sys.modules\n"
        "                 if m.startswith(tuple(sys.argv[3:]))))\n")
    tabulated = tmp_path / "tabulated.cfg"
    tabulated.write_text("[scenario]\nt0 = 0\nt1 = 3\n[omega]\n"
                         "type = tabulated\n"
                         "samples = 0:1.0, 1:1.1, 2:1.2, 3:1.3\n")
    path = os.pathsep.join(p for p in sys.path if p)
    for cfg, prefixes in ((DRIVEN, ["scipy.linalg", "numba",
                                    "numpy.polynomial"]),
                          (str(tabulated), ["scipy", "numba",
                                            "numpy.polynomial"])):
        out = subprocess.run([sys.executable, "-c", code, cfg, str(tmp_path)]
                             + prefixes, env=dict(os.environ, PYTHONPATH=path),
                             capture_output=True, text=True, timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "0 []", cfg


def test_unknown_flag_raises_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--scenario", SHO, "--frobnicate"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_out_directory_is_created(tmp_path):
    nested = tmp_path / "deep" / "er"
    rc = main(["spectrum", "--scenario", SHO, "--out", str(nested),
               "--quiet"])
    assert rc == 0
    assert (nested / "spectrum.csv").exists()
