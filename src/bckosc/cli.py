"""Command-line front end: scenario files in, CSV artifacts and summary
lines out.

Subcommands: verify, spectrum, wavefunction, propagate, sweep.  Exit
codes: 0 all requested checks passed, 1 tolerance failure, 2 parse or
validation error, 3 solver failure, 4 grid too narrow (a suggested qmax is
printed).
"""

import argparse
import importlib
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .core import TimeFunction, parse_scenario_file, tf_document
from .errors import BckoscError, OmegaNotPositive, ValidationError
from .invariants import (compute_omega, envelope_ics, frame_from_beta,
                         verification_series, write_verification_report)
from .ode import (integrate_beta, integrate_classical, integrate_gamma,
                  integrate_sigma)

# What each command other than verify takes from propagator and quantum,
# which verify never runs.  main binds a command's names into this
# module's globals just before the command runs, and __getattr__ serves
# them before that: perfbench/spans.py reads and rebinds them as
# attributes of this module to trace them, and main leaves a name it finds
# bound alone.  Once spans.py is gone these can become local imports.
_DEFERRED = {
    "spectrum": ("build_spectrum", "write_spectrum_csv"),
    "wavefunction": ("eval_psin", "expectation_qp", "uncertainty_product"),
    "propagate": ("propagate_and_compare",),
    "sweep": ("uncertainty_product",),
}


def __getattr__(name):
    if not any(name in names for names in _DEFERRED.values()):
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(__package__), name)


def _say(args, msg):
    if not args.quiet:
        print(msg)


def _fmt(v):
    # + 0.0 turns -0.0 into 0.0, so an exact zero never prints as "-0"
    return f"{v + 0.0:.17g}"


def _check(args, label, value, tol):
    ok = value <= tol
    _say(args, f"{label:<22s} {value:12.5e}  (tol {tol:g})  "
               f"{'PASS' if ok else 'FAIL'}")
    return ok


# what each numeric flag must be, checked before any work
_FLAG_RULES = {
    "samples": (lambda v: v >= 2, ">= 2"),
    "tol": (lambda v: 0 < v < math.inf, "positive and finite"),
    "min_overlap": (lambda v: 0 <= v <= 1, "in [0, 1]"),
    "periods": (lambda v: 0 < v < math.inf, "positive and finite"),
    "nmax": (lambda v: v >= 0, ">= 0"),
    "steps": (lambda v: v >= 1, ">= 1"),
    "dt": (lambda v: 0 < v < math.inf, "positive and finite"),
    "n": (lambda v: v >= 0, ">= 0"),
    "t": (math.isfinite, "finite"),
}


def _check_flags(args):
    for name, (ok, what) in _FLAG_RULES.items():
        v = getattr(args, name, None)
        if v is not None and not ok(v):
            flag = name.replace("_", "-")
            raise ValidationError(f"--{flag} must be {what}, got {v}")


def _apply_overrides(s, args):
    kw = {}
    if args.rtol is not None:
        kw["rtol"] = args.rtol
    if args.atol is not None:
        kw["atol"] = args.atol
    return replace(s, **kw) if kw else s


def _verify_pipeline(s, samples):
    """Shared by verify and sweep: beta, one trajectory, drift series."""
    beta_sol = integrate_beta(s)
    traj = integrate_classical(s, 1.0, 0.0)
    series = verification_series(s, beta_sol, traj, samples=samples)
    return beta_sol, series


def cmd_verify(s, args, outdir):
    _, series = _verify_pipeline(s, args.samples)
    om = series["omega_report"]
    gamma_ics, sigma_ics = envelope_ics(s)
    gamma_sol = integrate_gamma(s, *gamma_ics)
    sigma_sol = integrate_sigma(s, gamma_sol, *sigma_ics)
    ts, fr = series["ts"], series["frame"]
    gamma_dev = float(np.max(np.abs(gamma_sol(ts)[:, 0] - fr.gamma)))
    sigma_dev = float(np.max(np.abs(sigma_sol(ts)[:, 0] - fr.sigma)))
    C = series["C"]
    c_dev = float(np.max(np.abs(C - 2.0 * om.omega ** 2 / (s.m * s.hbar) ** 2))
                  / (1.0 + np.max(np.abs(C))))
    path = outdir / "verify_report.csv"
    write_verification_report(path, series)
    ok = True
    ok &= _check(args, "I drift", series["drift_I"], args.tol)
    ok &= _check(args, "IQ drift", series["drift_IQ"], args.tol)
    ok &= _check(args, "omega drift", om.max_rel_drift, args.tol)
    ok &= _check(args, "C drift", series["drift_C"], args.tol)
    ok &= _check(args, "C vs 2(Omega/m hbar)^2", c_dev, args.tol)
    ok &= _check(args, "ermakov residual", series["max_ermakov"], args.tol)
    ok &= _check(args, "gamma ODE vs 2|beta|^2", gamma_dev, args.tol)
    ok &= _check(args, "sigma ODE vs -2Re(b*F)", sigma_dev, args.tol)
    _say(args, f"Omega mean {_fmt(om.mean)}")
    _say(args, f"wrote {path}")
    return 0 if ok else 1


def cmd_spectrum(s, args, outdir):
    beta_sol = integrate_beta(s)
    om = compute_omega(s, beta_sol, samples=args.samples)
    entries = build_spectrum(om.mean, args.nmax)
    path = outdir / "spectrum.csv"
    write_spectrum_csv(path, entries)
    for e in entries:
        _say(args, f"n={e.n}  eigenvalue={_fmt(e.eigenvalue)}")
    ok = _check(args, "omega drift", om.max_rel_drift, args.tol)
    _say(args, f"wrote {path}")
    return 0 if ok else 1


def cmd_wavefunction(s, args, outdir):
    beta_sol = integrate_beta(s)
    t = s.t0 if args.t is None else args.t
    fr = frame_from_beta(s, beta_sol, t)
    wf = eval_psin(args.n, s, fr, t)
    q_exp, p_exp = expectation_qp(args.n, fr, s)
    unc = uncertainty_product(args.n, fr, s)
    footer = ("# exp_q={}, exp_p={}, var_q={}, var_p={}, product={}, norm={}"
              .format(_fmt(q_exp), _fmt(p_exp), _fmt(unc.var_q),
                      _fmt(unc.var_p), _fmt(unc.product), _fmt(wf.norm)))
    path = outdir / "wavefunction.csv"
    wf.to_csv(path, footer=footer)
    ok = _check(args, "norm defect", abs(wf.norm - 1.0), args.tol)
    _say(args, f"<q>={_fmt(q_exp)}  <p>={_fmt(p_exp)}  "
               f"product={_fmt(unc.product)}")
    _say(args, f"wrote {path}")
    return 0 if ok else 1


def cmd_propagate(s, args, outdir):
    beta_sol = integrate_beta(s)
    om = compute_omega(s, beta_sol, samples=args.samples)
    wbar_eff = om.mean / (2.0 * s.m * s.hbar)
    if wbar_eff <= 0:
        raise OmegaNotPositive("effective frequency not positive")
    period = 2.0 * math.pi / wbar_eff
    t1 = s.t0 + args.periods * period
    if t1 > s.t1:
        t1 = s.t1
        _say(args, f"window clipped to scenario end t1={_fmt(t1)}")
    run = propagate_and_compare(s, args.n, s.t0, t1, args.dt,
                                beta_sol=beta_sol)
    path = outdir / "propagation.csv"
    run.to_csv(path)
    defect = 1.0 - run.min_overlap
    ok = _check(args, "fidelity defect", defect, 1.0 - args.min_overlap)
    _say(args, f"min overlap {_fmt(run.min_overlap)}  "
               f"max step norm drift {run.max_step_norm_drift:.3e}")
    _say(args, f"wrote {path}")
    return 0 if ok else 1


def _sweep_scenario(s, param, value):
    if param == "g":
        return replace(s, damping=TimeFunction.constant(value))
    if param == "omega":
        return replace(s, omega=TimeFunction.constant(value))
    name, keys = tf_document(s.force)
    if name != "sinusoid":
        raise ValidationError(
            f"sweep parameter {param!r} needs a sinusoidal force")
    keys["amplitude" if param == "F0" else "frequency"] = value
    return replace(s, force=TimeFunction.sinusoid(**keys))


def cmd_sweep(s, args, outdir):
    try:
        lo_s, hi_s = args.range.split(":")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError:
        raise ValidationError(f"bad --range {args.range!r}; expected lo:hi")
    # an infinite end makes np.linspace warn and turns the other end into
    # nan (0 * inf), so both ends are pinned; non-finite values fail their
    # rows below
    with np.errstate(invalid="ignore"):
        values = np.linspace(lo, hi, args.steps)
    values[0], values[-1] = lo, hi
    values = [lo] if (args.steps == 1 or lo == hi) else list(values)
    rows = []
    any_failed = False
    for v in values:
        try:
            sv = _sweep_scenario(s, args.param, v)
            beta_sol, series = _verify_pipeline(sv, args.samples)
            om = series["omega_report"]
            fr1 = frame_from_beta(sv, beta_sol, sv.t1)
            unc = uncertainty_product(0, fr1, sv).product
            passed = (series["drift_I"] <= args.tol
                      and series["drift_IQ"] <= args.tol
                      and om.max_rel_drift <= args.tol)
            status = "ok" if passed else "tolerance"
            any_failed |= not passed
            rows.append((v, _fmt(om.mean), _fmt(series["drift_I"]),
                         _fmt(series["drift_IQ"]), _fmt(unc), status))
        except (BckoscError, FloatingPointError) as exc:
            any_failed = True
            rows.append((v, "nan", "nan", "nan", "nan",
                         f"failed:{type(exc).__name__}"))
    path = outdir / "sweep.csv"
    with open(path, "w", newline="\n") as fh:
        fh.write("param,value,Omega,drift_I,drift_IQ,"
                 "uncertainty_n0_t1,status\n")
        for row in rows:
            fh.write(f"{args.param},{row[0]:.17g},{row[1]},{row[2]},"
                     f"{row[3]},{row[4]},{row[5]}\n")
    for row in rows:
        _say(args, f"{args.param}={row[0]:.17g}  Omega={row[1]}  "
                   f"status={row[5]}")
    _say(args, f"wrote {path}")
    return 1 if any_failed else 0


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="bckosc",
        description="Invariant, spectrum and wavefunction checks for the "
                    "damped driven time-dependent harmonic oscillator")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help, samples=True, tol=True):
        # --samples and --tol only where the command reads them
        p = sub.add_parser(name, help=help)
        p.add_argument("--scenario", required=True,
                       help="scenario config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--rtol", type=float, default=None,
                       help="override integrator relative tolerance")
        p.add_argument("--atol", type=float, default=None,
                       help="override integrator absolute tolerance")
        if samples:
            p.add_argument("--samples", type=int, default=512,
                           help="report sample count")
        if tol:
            p.add_argument("--tol", type=float, default=1e-6,
                           help="pass/fail drift tolerance")
        p.add_argument("--quiet", action="store_true")
        p.set_defaults(fn=fn)
        return p

    command("verify", cmd_verify, "invariant drift report")

    p = command("spectrum", cmd_spectrum, "eigenvalues Omega (n + 1/2)")
    p.add_argument("--nmax", type=int, default=10)

    p = command("wavefunction", cmd_wavefunction,
                "eigenfunction CSV at a time", samples=False)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--t", type=float, default=None,
                   help="evaluation time (default t0)")

    p = command("propagate", cmd_propagate,
                "numeric propagation against the analytic state", tol=False)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--periods", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--min-overlap", type=float, default=1.0 - 1e-3)

    p = command("sweep", cmd_sweep, "parameter sweep summary rows")
    p.add_argument("--param", required=True,
                   choices=("g", "omega", "F0", "alpha"))
    p.add_argument("--range", required=True, help="lo:hi")
    p.add_argument("--steps", type=int, default=5)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        _check_flags(args)
        for name in _DEFERRED.get(args.command, ()):
            if name not in globals():
                globals()[name] = __getattr__(name)
        s = parse_scenario_file(args.scenario)
        s = _apply_overrides(s, args)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        return args.fn(s, args, outdir)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BckoscError as exc:
        print(f"error: {exc}", file=sys.stderr)
        qmax = getattr(exc, "suggested_qmax", None)
        if qmax is not None:
            print(f"suggested qmax: {qmax:g}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
