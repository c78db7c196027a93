"""Command-line plumbing: every subcommand, every exit code, reproducible
artifacts."""

import ast
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import types
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import bckosc
import bckosc.cli
from bckosc import _accel, invariants, ode, propagator
from bckosc.core import Scenario, tf_document, write_csv
from bckosc.cli import _sweep_scenario, main

from conftest import SCENARIO_DIR

DATA_DIR = SCENARIO_DIR.parent / "tests" / "data"
DRIVEN = str(SCENARIO_DIR / "underdamped_driven.cfg")
SHO = str(SCENARIO_DIR / "sho.cfg")
RAMP = str(SCENARIO_DIR / "ramp_omega.cfg")
TABULATED = ("[scenario]\nt0 = 0\nt1 = 3\n[omega]\ntype = tabulated\n"
             "samples = 0:1.0, 1:1.1, 2:1.2, 3:1.3\n")


# ---------- verify ----------

def test_verify_passes_on_bundled_scenarios(tmp_path, capsys):
    for cfg in (SHO, DRIVEN, RAMP):
        rc = main(["verify", "--scenario", cfg, "--out", str(tmp_path),
                   "--rtol", "1e-12", "--atol", "1e-14"])
        out = capsys.readouterr().out
        assert rc == 0, out
        assert out.count("PASS") == 8 and "FAIL" not in out
        assert "Omega mean" in out
    report = (tmp_path / "verify_report.csv").read_text().splitlines()
    assert report[0] == "t,re_I,im_I,IQ,Omega,C,ermakov_residual"
    assert report[-1].startswith("# max_drift_I=")


def _scaled(fn, k):
    """fn with entry k of the tuple it returns scaled by 1.01."""
    def planted(*args):
        out = list(fn(*args))
        out[k] = 1.01 * out[k]
        return tuple(out)
    return planted


_IQ_C_ENVELOPE = ["IQ drift", "C vs 2(Omega/m hbar)^2",
                  "gamma ODE vs 2|beta|^2", "sigma ODE vs -2Re(b*F)"]


@pytest.mark.parametrize("owner, name, k, failing", [
    (invariants, "iq_coefficients", 1, ["IQ drift"]),
    (invariants, "iq_coefficients", 3, ["IQ drift"]),
    (invariants, "_wronskian_omega", 1, ["C vs 2(Omega/m hbar)^2"]),
    *((invariants, "envelope_group", k, _IQ_C_ENVELOPE) for k in range(3)),
    (invariants, "envelope_group", 3, ["IQ drift", "sigma ODE vs -2Re(b*F)"]),
    (invariants, "envelope_group", 4, ["IQ drift"]),
    (invariants, "envelope_group", 5, ["IQ drift"]),
    *((Scenario, "hamiltonian_coefficients", k, ["I drift", "IQ drift"])
      for k in range(3)),
], ids=["c2", "c4", "Omega", "gamma", "gamma'", "gamma''", "sigma",
        "sigma'", "F_sigma", "K", "V", "D"])
def test_verify_catches_a_planted_error(tmp_path, capsys, monkeypatch,
                                        owner, name, k, failing):
    # one quantity 1% off, and exactly the listed checks fail.  c2, c4,
    # sigma' and F_sigma reach verify only through I_Q, and every drift is
    # relative, so only the C identity sees Omega's value.  An envelope
    # entry scales both the frame and the envelope ODEs' initial values
    monkeypatch.setattr(owner, name, _scaled(getattr(owner, name), k))
    rc = main(["verify", "--scenario", DRIVEN, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    failed = [line.rsplit(None, 4)[0] for line in out.splitlines()
              if line.endswith("FAIL")]
    assert rc == 1 and failed == failing, out


# the entries of A(t) each system verify integrates sets, which name it:
# the envelope alone has (2, 2), the companion (1, 2) next to (1, 1)
_SYSTEM_ENTRIES = {"amplitude": {(0, 1), (1, 0), (1, 1), (2, 0)},
                   "envelope": {(0, 1), (1, 2), (2, 0), (2, 1), (2, 2)},
                   "companion": {(0, 1), (1, 0), (1, 1), (1, 2)}}
_ENVELOPE_ODES = ["gamma ODE vs 2|beta|^2", "sigma ODE vs -2Re(b*F)"]


@pytest.mark.parametrize("system, entry, factor, failing", [
    *(("envelope", entry, 1.01, _ENVELOPE_ODES)
      for entry in ((2, 2), (2, 1), (2, 0))),
    ("companion", (1, 2), 1.01, ["sigma ODE vs -2Re(b*F)"]),
    ("companion", (1, 2), -1.0, ["sigma ODE vs -2Re(b*F)"]),
    ("amplitude", (1, 1), 1.01,
     ["I drift", "IQ drift", "omega drift", "C drift", "ermakov residual",
      *_ENVELOPE_ODES]),
    ("amplitude", (2, 0), 1.01,
     ["I drift", "IQ drift", "sigma ODE vs -2Re(b*F)"]),
    ("amplitude", (1, 0), 1.01, ["I drift", "IQ drift", *_ENVELOPE_ODES]),
], ids=["gamma:-6g", "gamma:(2,1)", "gamma:(2,0)", "sigma:drive",
        "sigma:-drive", "beta:-2g", "beta:e^G_F", "beta:-omega^2"])
def test_verify_catches_a_planted_error_in_an_ode_system(
        tmp_path, capsys, monkeypatch, system, entry, factor, failing):
    # one entry of one system's A(t) scaled, and exactly the listed checks
    # fail.  The amplitude's damping reaches every check but the C
    # identity, which holds on any amplitude frame
    assemble = ode._assemble

    def planted(t, entries):
        if entries.keys() == _SYSTEM_ENTRIES[system]:
            entries = {**entries, entry: factor * entries[entry]}
        return assemble(t, entries)

    monkeypatch.setattr(ode, "_assemble", planted)
    rc = main(["verify", "--scenario", DRIVEN, "--out", str(tmp_path)])
    out = capsys.readouterr().out
    failed = [line.rsplit(None, 4)[0] for line in out.splitlines()
              if line.endswith("FAIL")]
    assert rc == 1 and failed == failing, out


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
    assert out.count("PASS") == 8 and "FAIL" not in out


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


def test_verify_footer_omega_drift_is_the_printed_one(tmp_path, capsys):
    rc = main(["verify", "--scenario", DRIVEN, "--out", str(tmp_path)])
    assert rc == 0
    line = [l for l in capsys.readouterr().out.splitlines()
            if l.startswith("omega drift")][0]
    footer = (tmp_path / "verify_report.csv").read_text().splitlines()[-1]
    value = float(footer.rsplit("omega_drift=", 1)[1])
    assert line.split()[2] == f"{value:.5e}"


def test_verify_driven_matches_the_golden_csv(tmp_path, capsys):
    # tests/data/verify_driven.csv was written with the bench's verify
    # arguments and 64 samples: a rework of the ODE or invariant path must
    # keep every column and footer value within 1e-14 of it, relative to
    # 1 + |value|
    rc = main(["verify", "--scenario", DRIVEN, "--out", str(tmp_path),
               "--rtol", "1e-12", "--atol", "1e-14", "--tol", "1e-8",
               "--samples", "64"])
    assert rc == 0, capsys.readouterr().out
    golden = DATA_DIR / "verify_driven.csv"
    lines = [(tmp_path / "verify_report.csv").read_text().splitlines(),
             golden.read_text().splitlines()]
    header = "t,re_I,im_I,IQ,Omega,C,ermakov_residual"
    assert lines[0][0] == lines[1][0] == header
    got, want = (np.array([[float(v) for v in row.split(",")]
                           for row in rows[1:-1]]) for rows in lines)
    assert got.shape == want.shape == (64, 7)
    footers = [dict(item.split("=") for item in rows[-1][2:].split(", "))
               for rows in lines]
    assert footers[0].keys() == footers[1].keys() == {
        "max_drift_I", "max_drift_IQ", "omega_drift"}
    got = np.append(got, [float(footers[0][k]) for k in footers[1]])
    want = np.append(want, [float(footers[1][k]) for k in footers[1]])
    gap = np.max(np.abs(got - want) / (1.0 + np.abs(want)))
    assert gap <= 1e-14, gap


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


def test_csv_writers_print_each_value_as_17_digits(tmp_path):
    # the per-row %-format of the writers against one f"{float(v):.17g}"
    # per value, and abs(v) ** 2 of a numpy scalar for the wavefunction's
    # abs2, on random values of every magnitude and the special ones; a
    # footer's -0.0 is written as 0
    rng = np.random.default_rng(20261019)
    col = np.concatenate([rng.normal(size=200), rng.normal(size=40)
                          * 10.0 ** rng.integers(-300, 300, 40),
                          [0.0, -0.0, 5e-324, -1.7976931348623157e308,
                           np.inf, -np.inf, np.nan, 1.0, 0.1, -2.5]])
    cols = [np.roll(col, k) for k in range(7)]
    values = np.empty(col.shape, dtype=complex)
    values.real, values.imag = cols[1], cols[2]

    def expected(header, rows):
        return header + "".join(",".join(f"{float(v):.17g}" for v in row)
                                + "\n" for row in rows)

    series = {"ts": cols[0], "I": values, "IQ": cols[3],
              "C": cols[5], "ermakov": cols[6], "drift_I": -0.0,
              "drift_IQ": 1e-300,
              "omega_report": types.SimpleNamespace(omega=cols[4],
                                                    max_rel_drift=np.nan)}
    path = tmp_path / "report.csv"
    bckosc.write_verification_report(path, series)
    assert path.read_text() == expected(
        "t,re_I,im_I,IQ,Omega,C,ermakov_residual\n", zip(*cols)) + (
        "# max_drift_I=0, max_drift_IQ=1e-300, omega_drift=nan\n")
    run = bckosc.PropagationRun(
        initial=None, dt=0.1, slice_ts=cols[0], slice_norms=cols[1],
        overlaps=cols[2], step_norms=cols[4])
    run.to_csv(path)
    assert path.read_text() == expected("t,norm,overlap,fidelity_defect\n",
                                        zip(*cols[:3], 1.0 - cols[2]))
    # |v|^2 overflows past 1e154, in the writer as in abs(v) ** 2
    with np.errstate(over="ignore"):
        bckosc.WaveFunction(qs=cols[0], values=values, t=0.0).to_csv(
            path, footer={"exp_q": -0.0, "norm": 1.0})
        abs2 = [abs(v) ** 2 for v in values]
    assert path.read_text() == expected(
        "q,re_psi,im_psi,abs2\n",
        zip(cols[0], cols[1], cols[2], abs2)) + "# exp_q=0, norm=1\n"
    # the spectrum's integer n column prints as an integer
    bckosc.write_spectrum_csv(path, cols[3])
    assert path.read_text() == expected("n,eigenvalue\n",
                                        enumerate(cols[3]))
    # sweep's str columns are written as they are
    param, status = ["F0"] * col.size, [f"s{k}" for k in range(col.size)]
    write_csv(path, "param,value,status", [param, cols[0], status])
    assert path.read_text() == "param,value,status\n" + "".join(
        f"{p},{float(v):.17g},{st}\n" for p, v, st in zip(param, cols[0],
                                                        status))


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


def test_undriven_packet_centre_prints_as_zero(tmp_path, capsys):
    # psi_2 needs 13.9 widths against the plain oscillator's qmax of 12;
    # the undriven centre is -0.0, which must not print as "-0"
    rc = main(["wavefunction", "--scenario", SHO, "--out", str(tmp_path),
               "--n", "2", "--t", "1"])
    assert rc == 4
    assert "centered at q = 0 " in capsys.readouterr().err


def test_undriven_expectations_print_as_zero(tmp_path, capsys):
    # <q> and <p> of an undriven state are exactly -0.0 on sho.cfg and <q>
    # on ramp_omega.cfg; neither the printout nor the footer shows "-0"
    for cfg, shown in ((SHO, "<q>=0  <p>=0  "), (RAMP, "<q>=0  ")):
        assert main(["wavefunction", "--scenario", cfg, "--out",
                     str(tmp_path)]) == 0
        assert shown in capsys.readouterr().out
        footer = (tmp_path / "wavefunction.csv").read_text().splitlines()[-1]
        assert footer.startswith("# exp_q=0, ") and "=-0," not in footer


# ---------- propagate ----------

def test_propagate_sho(tmp_path, capsys):
    rc = main(["propagate", "--scenario", SHO, "--out", str(tmp_path),
               "--n", "0", "--dt", "1e-2"])
    assert rc == 0
    lines = (tmp_path / "propagation.csv").read_text().splitlines()
    assert lines[0] == "t,norm,overlap,fidelity_defect"
    assert "min overlap" in capsys.readouterr().out


def test_propagate_driven_matches_the_golden_csv(tmp_path, capsys):
    # tests/data/propagate_driven.csv was written by the split-operator
    # step with the bench's arguments: a rework of the step must keep
    # every column within 1e-14 of it
    rc = main(["propagate", "--scenario", DRIVEN, "--out", str(tmp_path),
               "--n", "0", "--periods", "0.5", "--dt", "0.004",
               "--min-overlap", "0.9999"])
    assert rc == 0, capsys.readouterr().out
    golden = DATA_DIR / "propagate_driven.csv"
    lines = [(tmp_path / "propagation.csv").read_text().splitlines(),
             golden.read_text().splitlines()]
    assert lines[0][0] == lines[1][0] == "t,norm,overlap,fidelity_defect"
    got, want = (np.array([[float(v) for v in row.split(",")]
                           for row in rows[1:]]) for rows in lines)
    assert got.shape == want.shape == (199, 4)
    assert_allclose(got, want, rtol=0, atol=1e-14)


def test_propagate_two_driven_periods_passes(tmp_path, capsys):
    # the state is resolved on the driven grid over two periods, and the
    # split-operator step holds it to 1.95e-10 at this dt; a three-point
    # stencil's dispersion failed it at 3.04e-2
    rc = main(["propagate", "--scenario", DRIVEN, "--out", str(tmp_path),
               "--n", "0", "--periods", "2", "--dt", "0.004"])
    out = capsys.readouterr().out
    assert rc == 0, out
    assert "fidelity defect" in out and "PASS" in out


def test_propagate_coarse_step_fails_tolerance(tmp_path, capsys):
    rc = main(["propagate", "--scenario", DRIVEN, "--out", str(tmp_path),
               "--n", "0", "--dt", "0.5", "--periods", "1"])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


@pytest.mark.parametrize("dt", ["0", "nan", "-0.004", "inf"])
def test_propagate_rejects_a_bad_dt(tmp_path, capsys, dt):
    rc = main(["propagate", "--scenario", DRIVEN, "--out", str(tmp_path),
               "--periods", "0.5", "--dt", dt])
    assert rc == 2
    assert "dt must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "propagation.csv").exists()


@pytest.mark.parametrize("dt", ["1e-9", "1e-320"])
def test_propagate_refuses_more_steps_than_it_can_hold(tmp_path, capsys,
                                                       monkeypatch, dt):
    # 6.28e9 steps would ask np.empty for 50 GB of norms; at 1e-320 the
    # step count is inf.  Both are refused before anything is allocated
    empty = np.empty

    def sized(shape, *args, **kwargs):
        assert np.prod(shape) <= ode.MAX_COUNT + 1, f"np.empty({shape})"
        return empty(shape, *args, **kwargs)

    monkeypatch.setattr(np, "empty", sized)
    rc = main(["propagate", "--scenario", SHO, "--out", str(tmp_path),
               "--dt", dt])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: propagation needs more than 1048576 steps")
    assert not (tmp_path / "propagation.csv").exists()


def test_propagate_negative_omega_is_exit_3(tmp_path, capsys):
    # beta(t0) = 1, beta'(t0) = -i turns the sho.cfg oscillator's Omega to -2
    doc = tmp_path / "retrograde.cfg"
    doc.write_text((SCENARIO_DIR / "sho.cfg").read_text()
                   + "\n[beta0]\nre = 1\nim = 0\ndre = 0\ndim = -1\n")
    rc = main(["propagate", "--scenario", str(doc), "--out", str(tmp_path)])
    assert rc == 3
    assert "error: effective frequency not positive" in capsys.readouterr().err


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
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "failed rows             0.00000e+00  (tol 0)  PASS"
    assert out[1].endswith("status=ok") and out[3].startswith("wrote ")


def test_sweep_row_is_ok_only_when_all_eight_checks_pass(tmp_path, capsys,
                                                        monkeypatch):
    # Omega 1% off fails only the C identity (see the planted-error table),
    # and the row must see it, as verify does
    monkeypatch.setattr(invariants, "_wronskian_omega",
                        _scaled(invariants._wronskian_omega, 1))
    rc = main(["sweep", "--scenario", DRIVEN, "--out", str(tmp_path),
               "--param", "g", "--range", "0.1:0.1", "--steps", "1"])
    assert rc == 1
    row = (tmp_path / "sweep.csv").read_text().splitlines()[1]
    assert row.startswith("g,0.10000000000000001,")
    assert row.endswith(",tolerance")
    out = capsys.readouterr().out
    assert "failed rows             1.00000e+00  (tol 0)  FAIL" in out


def test_sweep_reports_solver_failures(tmp_path):
    # at g = 0.3 gamma decays to about 1e-16, but e^G gamma keeps its scale:
    # the row is evaluated and fails its drift bound.  At g = 1.5 > omega
    # the default underdamped amplitude has no initial values: the row
    # must say so, and the exit code must reflect it
    rc = main(["sweep", "--scenario", DRIVEN, "--out", str(tmp_path),
               "--param", "g", "--range", "0.3:1.5", "--steps", "2",
               "--quiet"])
    assert rc == 1
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[1].startswith("g,0.29999999999999999,")
    assert lines[1].endswith(",tolerance")
    assert lines[2] == "g,1.5,nan,nan,nan,nan,failed:InvalidIC"


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


def test_sweep_steps_must_be_positive(tmp_path, capsys):
    rc = main(["sweep", "--scenario", SHO, "--out", str(tmp_path),
               "--param", "g", "--range", "0:0.1", "--steps", "0"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_sweep_omega_lands_its_value(tmp_path):
    rc = main(["sweep", "--scenario", SHO, "--out", str(tmp_path),
               "--param", "omega", "--range", "1.5:1.5", "--steps", "1",
               "--quiet"])
    assert rc == 0
    row = (tmp_path / "sweep.csv").read_text().splitlines()[1].split(",")
    assert row[:2] == ["omega", "1.5"] and row[-1] == "ok"
    # the undamped Omega is 2 m omega hbar
    assert_allclose(float(row[2]), 3.0, rtol=0, atol=1e-9)


def test_sweep_force_params_land_their_value():
    s = bckosc.parse_scenario_file(DRIVEN)
    assert tf_document(_sweep_scenario(s, "alpha", 0.7).force) == (
        "sinusoid", {"amplitude": 0.5, "frequency": 0.7, "phase": 0.0})
    assert tf_document(_sweep_scenario(s, "F0", 0.2).force) == (
        "sinusoid", {"amplitude": 0.2, "frequency": 0.9, "phase": 0.0})


def test_sweep_non_finite_value_fails_its_row(tmp_path):
    rc = main(["sweep", "--scenario", SHO, "--out", str(tmp_path),
               "--param", "g", "--range", "0:nan", "--steps", "2",
               "--quiet"])
    assert rc == 1
    lines = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert len(lines) == 2
    assert lines[0].startswith("g,0,") and lines[0].endswith(",ok")
    assert lines[1].startswith("g,nan,")
    assert lines[1].endswith(",failed:ValidationError")


def test_sweep_infinite_range_end_warns_nothing(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["sweep", "--scenario", SHO, "--out", str(tmp_path),
                   "--param", "g", "--range", "0:inf", "--steps", "3",
                   "--quiet"])
    assert rc == 1
    lines = (tmp_path / "sweep.csv").read_text().splitlines()[1:]
    assert len(lines) == 3
    # the finite end keeps its value: 0 * inf would make it nan
    assert lines[0].startswith("g,0,") and lines[0].endswith(",ok")
    assert all(l.endswith(",failed:ValidationError") for l in lines[1:])


# ---------- error paths ----------

@pytest.mark.parametrize("argv", [
    ["verify", "--samples", "0"],
    ["verify", "--samples", "-3"],
    ["verify", "--samples", "1"],
    ["verify", "--tol", "inf"],
    ["verify", "--tol", "nan"],
    ["verify", "--tol", "0"],
    ["spectrum", "--nmax", "-1"],
    ["propagate", "--min-overlap", "nan"],
    ["propagate", "--min-overlap", "1.5"],
    ["propagate", "--periods", "0"],
    ["propagate", "--periods", "inf"],
    ["sweep", "--param", "g", "--range", "0:1", "--samples", "1"],
    ["propagate", "--dt", "0"],
    ["propagate", "--dt", "nan"],
    ["propagate", "--dt", "inf"],
    ["propagate", "--n", "-1"],
    ["wavefunction", "--n", "-1"],
    ["wavefunction", "--t", "nan"],
    ["wavefunction", "--t", "inf"],
    ["verify", "--samples", str(10 ** 15)],
    ["spectrum", "--nmax", str(10 ** 15)],
    ["sweep", "--param", "g", "--range", "0:1", "--steps", str(10 ** 15)],
], ids=["samples-0", "samples-negative", "samples-1", "tol-inf", "tol-nan",
        "tol-0", "nmax-negative", "min-overlap-nan", "min-overlap-above-1",
        "periods-0", "periods-inf", "sweep-samples-1", "dt-0", "dt-nan",
        "dt-inf", "propagate-n-negative", "wavefunction-n-negative",
        "t-nan", "t-inf", "samples-huge", "nmax-huge", "steps-huge"])
def test_bad_numeric_flag_is_exit_2_before_any_work(tmp_path, capsys, argv):
    # a count above core.MAX_COUNT is refused, not left to fail numpy's
    # allocation
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main([*argv, "--scenario", SHO, "--out", str(out)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {argv[-2]} must be ")
    assert len(err.splitlines()) == 1
    assert "Traceback" not in err
    assert not out.exists()     # refused before the output directory is made


@pytest.mark.parametrize("command", ["wavefunction", "propagate"])
def test_grid_too_large_to_allocate_is_exit_2(tmp_path, capsys, command):
    doc = tmp_path / "huge.cfg"
    text = (SCENARIO_DIR / "sho.cfg").read_text()
    assert text.count("npoints = 1024") == 1
    doc.write_text(text.replace("npoints = 1024", f"npoints = {10 ** 15}"))
    rc = main([command, "--scenario", str(doc), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == ("error: npoints must be in [16, 1048576], "
                   f"got {10 ** 15}\n")


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


@pytest.mark.parametrize("kind", ["document", "samples"])
def test_a_file_that_is_not_utf8_is_exit_2(tmp_path, capsys, kind):
    # a \xff byte in the scenario document or in its tabulated sample file
    doc, samples = tmp_path / "doc.cfg", tmp_path / "force.csv"
    text = ("[scenario]\nt0 = 0\nt1 = 3\n[omega]\ntype = constant\n"
            "value = 1\n[force]\ntype = tabulated\nfile = force.csv\n")
    rows = "t,F\n0,0\n1,0.1\n2,0.2\n3,0.1\n"
    bad = doc if kind == "document" else samples
    doc.write_bytes((b"# \xff\n" if bad is doc else b"") + text.encode())
    samples.write_bytes((b"# \xff\n" if bad is samples else b"")
                        + rows.encode())
    rc = main(["verify", "--scenario", str(doc), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error: ") and f"cannot read '{bad}': " in err
    assert "can't decode byte 0xff" in err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


def test_non_finite_tabulated_sample_is_exit_2(tmp_path, capsys):
    doc = tmp_path / "nan_sample.cfg"
    doc.write_text("[scenario]\nt0 = 0\nt1 = 3\n[omega]\ntype = tabulated\n"
                   "samples = 0:1, 1:nan, 2:1, 3:1\n")
    rc = main(["verify", "--scenario", str(doc), "--out", str(tmp_path)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("edit, flags", [
    (("value = 1", "value = nan"), []),
    (("t1 = 6.2831853071795862", "t1 = inf"), []),
    (None, ["--rtol", "inf"]),
], ids=["omega-nan", "t1-inf", "rtol-inf"])
def test_non_finite_number_is_exit_2(tmp_path, capsys, edit, flags):
    doc = tmp_path / "sho.cfg"
    text = (SCENARIO_DIR / "sho.cfg").read_text()
    doc.write_text(text if edit is None else text.replace(*edit))
    rc = main(["verify", "--scenario", str(doc), "--out", str(tmp_path),
               *flags])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("error:") and "finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", [
    ["verify"], ["spectrum"], ["wavefunction"], ["propagate"],
    ["sweep", "--param", "g", "--range", "0:0.1"]], ids=lambda c: c[0])
@pytest.mark.parametrize("edits, message", [
    ((("t0 = 0\n", "t0 = -1e308\n"),
      ("t1 = 6.2831853071795862", "t1 = 1e308")), "t1 - t0 overflows"),
    ((("qmin = -12", "qmin = -1e308"), ("qmax = 12", "qmax = 1e308")),
     "qmax - qmin overflows"),
], ids=["window", "grid"])
def test_overflowing_width_is_exit_2(tmp_path, capsys, command, edits,
                                     message):
    # each end is finite, their difference is not
    text = (SCENARIO_DIR / "sho.cfg").read_text()
    for old, new in edits:
        assert text.count(old) == 1
        text = text.replace(old, new)
    doc = tmp_path / "wide.cfg"
    doc.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rc = main([*command, "--scenario", str(doc), "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith(f"error: {message}, got [-1e+308, 1e+308]")
    assert "Traceback" not in err
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


# a drawn token in place of one document value or of a numeric flag's value
_TOKENS = st.sampled_from(["nan", "inf", "-inf", "1e308", "-0", "", "word"]) \
    | st.integers(-3, 12).map(str)
_NUMERIC_FLAGS = {
    "verify": ("--samples", "--tol", "--rtol", "--atol"),
    "spectrum": ("--samples", "--tol", "--rtol", "--atol", "--nmax"),
    "wavefunction": ("--tol", "--rtol", "--atol", "--n", "--t"),
}


@settings(derandomize=True, database=None, max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from((SHO, DRIVEN, RAMP)), st.sampled_from(
    sorted(_NUMERIC_FLAGS)), st.data())
def test_any_token_at_the_boundary_is_an_exit_code(tmp_path, cfg, command,
                                                   data):
    lines = Path(cfg).read_text().splitlines()
    values = [i for i, line in enumerate(lines) if " = " in line]
    i = data.draw(st.sampled_from(values))
    lines[i] = f"{lines[i].split(' = ')[0]} = {data.draw(_TOKENS)}"
    doc = tmp_path / "doc.cfg"
    doc.write_text("\n".join(lines) + "\n")
    flags = data.draw(st.lists(st.sampled_from(_NUMERIC_FLAGS[command]),
                               unique=True, max_size=2))
    # flag=value, so that a value such as -inf is not read as a flag
    argv = [command, "--scenario", str(doc), "--out", str(tmp_path),
            *(f"{flag}={data.draw(_TOKENS)}" for flag in flags)]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        try:
            rc = main(argv)
        except SystemExit as exc:   # argparse refuses a value it cannot
            rc = exc.code           # convert, with a usage line
    assert rc in (0, 1, 2, 3, 4), (argv, lines[i], err.getvalue())
    assert "Traceback" not in err.getvalue()


def test_degenerate_amplitude_is_exit_3(tmp_path, capsys):
    doc = tmp_path / "degenerate.cfg"
    doc.write_text("[scenario]\nt0 = 0\nt1 = 5\n"
                   "[omega]\ntype = constant\nvalue = 1.0\n"
                   "[beta0]\nre = 1\nim = 0\ndre = 0.5\ndim = 0\n")
    rc = main(["verify", "--scenario", str(doc), "--out", str(tmp_path)])
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def test_amplitude_overflow_is_exit_3(tmp_path, capsys):
    # damping -20 grows beta like e^{40 t}, past the float range near 17.7
    doc = tmp_path / "antidamped.cfg"
    doc.write_text("[scenario]\nt0 = 0\nt1 = 20\n"
                   "[omega]\ntype = constant\nvalue = 1.0\n"
                   "[damping]\ntype = constant\nvalue = -20\n"
                   "[beta0]\nre = 1\nim = 0\ndre = 0\ndim = 0\n")
    rc = main(["verify", "--scenario", str(doc), "--out", str(tmp_path)])
    assert rc == 3
    assert "amplitude system" in capsys.readouterr().err


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
    tabulated.write_text(TABULATED)
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


# the bckosc modules every CLI command loads
CLI_MODULES = ["bckosc", "bckosc.cli", "bckosc.core", "bckosc.errors",
               "bckosc.invariants", "bckosc.ode"]


@pytest.mark.parametrize("argv, loaded", [
    ([], ["bckosc"]),
    (["verify", "--scenario", DRIVEN], CLI_MODULES),
    (["verify", "--scenario", "tabulated.cfg"], CLI_MODULES),
    (["spectrum", "--scenario", SHO], CLI_MODULES + ["bckosc.quantum"]),
    (["propagate", "--scenario", SHO],
     CLI_MODULES + ["bckosc.propagator", "bckosc.quantum"]),
], ids=["import", "verify", "verify-tabulated", "spectrum", "propagate"])
def test_each_entry_point_loads_only_the_code_it_runs(tmp_path, argv,
                                                      loaded):
    # each bckosc module a process imports is compiled from source where
    # no bytecode is cached: verify needs neither the quantum nor the
    # propagation modules, and a spline solves its own system
    code = ("import json, sys, bckosc\n"
            "if sys.argv[1:]:\n"
            "    from bckosc.cli import main\n"
            "    assert main(sys.argv[1:]) == 0\n"
            "assert 'numpy' in sys.modules\n"
            "print(json.dumps(sorted(m for m in sys.modules\n"
            "                        if m.split('.')[0] == 'bckosc')))\n")
    (tmp_path / "tabulated.cfg").write_text(TABULATED)
    if argv:
        argv = [*argv, "--out", str(tmp_path), "--quiet"]
    path = os.pathsep.join(p for p in sys.path if p)
    out = subprocess.run([sys.executable, "-c", code, *argv], cwd=tmp_path,
                         env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert json.loads(out.stdout) == loaded


@pytest.mark.parametrize("argv, name", [
    (["propagate", "--dt", "0.01", "--periods", "0.2"],
     "propagate_and_compare"),
    (["wavefunction"], "eval_psin"),
], ids=["propagate", "wavefunction"])
def test_commands_call_the_function_bound_on_cli(tmp_path, monkeypatch, argv,
                                                 name):
    # the benchmark's traced run rebinds these names on bckosc.cli before
    # main runs, and restores them after: main must call what it finds
    # bound there, and bind the module's own function where nothing is
    own = getattr(bckosc, name)
    calls = []

    def spy(*args, **kwargs):
        calls.append(name)
        return own(*args, **kwargs)

    argv = [*argv, "--scenario", SHO, "--out", str(tmp_path), "--quiet"]
    monkeypatch.setattr(bckosc.cli, name, spy)
    assert main(argv) == 0
    assert calls
    monkeypatch.undo()
    assert getattr(bckosc.cli, name) is own
    monkeypatch.delitem(vars(bckosc.cli), name, raising=False)
    assert main(argv) == 0
    assert vars(bckosc.cli)[name] is own


def test_no_command_holds_a_solution_past_its_last_reader(tmp_path,
                                                         monkeypatch):
    # only weak references to each amplitude solution are kept: propagate
    # frees it before the split-operator step's buffers are made, and
    # sweep frees each row's before the next row integrates
    refs, dead = [], []
    integrate, step = bckosc.cli.integrate_beta, propagator._SplitStep

    def weak(s):
        dead.append([r() is None for r in refs])
        sol = integrate(s)
        refs.append(weakref.ref(sol))
        return sol

    def buffered(*args):
        dead.append([r() is None for r in refs])
        return step(*args)

    monkeypatch.setattr(bckosc.cli, "integrate_beta", weak)
    monkeypatch.setattr(propagator, "_SplitStep", buffered)
    assert main(["propagate", "--scenario", SHO, "--out", str(tmp_path),
                 "--dt", "0.01", "--periods", "0.2", "--quiet"]) == 0
    assert dead[1:] == [[True]]
    refs.clear()
    dead.clear()
    assert main(["sweep", "--scenario", DRIVEN, "--out", str(tmp_path),
                 "--param", "g", "--range", "0:0.1", "--steps", "3",
                 "--quiet"]) == 0
    assert dead == [[], [True], [True, True]]


def test_bench_trace_targets_resolve():
    # the benchmark's traced run wraps every name perfbench/spans.py lists,
    # and its metadata line reads bckosc._accel.NUMBA_ENABLED: a deleted or
    # renamed name must fail here.  The file is executed from its source
    # text, so nothing is written next to it
    path = SCENARIO_DIR.parent / "perfbench" / "spans.py"
    spans = types.ModuleType("perfbench_spans")
    exec(compile(path.read_text(), str(path), "exec"), spans.__dict__)
    targets = spans._targets()
    assert targets
    for owner, attr, name, _ in targets:
        assert callable(getattr(owner, attr, None)), (owner, attr, name)
    assert isinstance(_accel.NUMBA_ENABLED, bool)


def _bench_constants(*names):
    """The named constants of perfbench/run.py, read from its syntax tree
    without running it: literals as they are, a re.compile(...) call as
    its compiled pattern."""
    path = SCENARIO_DIR.parent / "perfbench" / "run.py"
    found = {}
    for node in ast.parse(path.read_text()).body:
        if (isinstance(node, ast.Assign) and len(node.targets) == 1
                and getattr(node.targets[0], "id", None) in names):
            value = node.value
            if isinstance(value, ast.Call):     # re.compile(pattern)
                found[node.targets[0].id] = re.compile(
                    ast.literal_eval(value.args[0]))
            else:
                found[node.targets[0].id] = ast.literal_eval(value)
    return [found[name] for name in names]


@pytest.mark.parametrize("argv", [
    ["verify", "--rtol", "1e-12", "--atol", "1e-14", "--tol", "1e-8"],
    ["propagate", "--n", "0", "--periods", "0.5", "--dt", "0.004",
     "--min-overlap", "0.9999"],
], ids=["verify", "propagate"])
def test_check_lines_match_the_bench_parser(tmp_path, capsys, argv):
    # the benchmark counts a run as failed on a check line its CHECK_LINE
    # does not parse, or on a label of CHECKS it does not find
    checks, check_line = _bench_constants("CHECKS", "CHECK_LINE")
    assert main([*argv, "--scenario", DRIVEN, "--out", str(tmp_path)]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.endswith(("PASS", "FAIL"))]
    assert lines and all(check_line.match(line) for line in lines), lines
    labels = {check_line.match(line).group(1) for line in lines}
    assert set(checks[argv[0]]) <= labels


def test_public_names_resolve_once():
    names = bckosc.__all__
    assert len(set(names)) == len(names)
    assert set(names) <= set(dir(bckosc))
    for name in names:
        # the object its defining module holds, not a copy
        obj = getattr(bckosc, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name


def test_unknown_flag_raises_usage_error(capsys):
    # propagate reads no --tol and wavefunction no --samples, so neither
    # takes them
    for argv in (["verify", "--frobnicate"], ["propagate", "--tol", "1e-6"],
                 ["wavefunction", "--samples", "64"]):
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--scenario", SHO, *argv[1:]])
        assert exc.value.code == 2
    capsys.readouterr()


def test_out_directory_is_created(tmp_path):
    nested = tmp_path / "deep" / "er"
    rc = main(["spectrum", "--scenario", SHO, "--out", str(nested),
               "--quiet"])
    assert rc == 0
    assert (nested / "spectrum.csv").exists()
