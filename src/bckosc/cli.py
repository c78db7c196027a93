"""Command-line front end: scenario files in, CSV artifacts and summary
lines out.

Subcommands: verify, spectrum, wavefunction, propagate, sweep.  Exit
codes: 0 all requested checks passed, 1 tolerance failure, 2 parse or
validation error, 3 solver failure, 4 grid too narrow (a suggested qmax is
printed).
"""

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .core import TimeFunction, parse_scenario_file
from .errors import (BckoscError, DegenerateSolutions, DegreeTooLarge,
                     GammaVanishes, GridTooNarrow, InsufficientSlices,
                     InvalidIC, NotUnderdamped, OmegaNotPositive, OutOfDomain,
                     ParseError, SolverBreakdown, StepSizeUnderflow,
                     UnsupportedForceShape, ValidationError)
from .invariants import (compute_omega, envelope_ics, frame_from_beta,
                         omega_report, verification_series,
                         write_verification_report)
from .ode import (integrate_beta, integrate_classical, integrate_gamma,
                  integrate_sigma)
from .propagator import propagate_and_compare
from .quantum import (build_spectrum, eval_psin, expectation_qp,
                      uncertainty_product, write_spectrum_csv)

_PARSE_ERRORS = (ParseError, ValidationError, InvalidIC, OutOfDomain,
                 UnsupportedForceShape, NotUnderdamped, InsufficientSlices,
                 DegreeTooLarge, OSError)
_SOLVER_ERRORS = (StepSizeUnderflow, SolverBreakdown, DegenerateSolutions,
                  GammaVanishes, OmegaNotPositive)


def _say(args, msg):
    if not args.quiet:
        print(msg)


def _fmt(v):
    return f"{v:.17g}"


def _check(args, label, value, tol):
    ok = value <= tol
    _say(args, f"{label:<22s} {value:12.5e}  (tol {tol:g})  "
               f"{'PASS' if ok else 'FAIL'}")
    return ok


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
    return beta_sol, series, omega_report(series["frame"])


def cmd_verify(s, args, outdir):
    beta_sol, series, om = _verify_pipeline(s, args.samples)
    gamma_ics, sigma_ics = envelope_ics(s)
    gamma_sol = integrate_gamma(s, *gamma_ics)
    sigma_sol = integrate_sigma(s, gamma_sol, *sigma_ics)
    ts, fr = series["ts"], series["frame"]
    gamma_dev = float(np.max(np.abs(gamma_sol(ts)[:, 0] - fr.gamma)))
    sigma_dev = float(np.max(np.abs(sigma_sol(ts)[:, 0] - fr.sigma)))
    path = outdir / "verify_report.csv"
    write_verification_report(path, series)
    ok = True
    ok &= _check(args, "I drift", series["drift_I"], args.tol)
    ok &= _check(args, "IQ drift", series["drift_IQ"], args.tol)
    ok &= _check(args, "omega drift", om.max_rel_drift, args.tol)
    ok &= _check(args, "C drift", series["drift_C"], args.tol)
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
    unc = uncertainty_product(args.n, fr, s, full=True)
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
    if s.force.kind != 1:
        raise ValidationError(
            f"sweep parameter {param!r} needs a sinusoidal force")
    amp, freq, ph, off = (float(x) for x in s.force.params[:4])
    if param == "F0":
        amp = value
    else:
        freq = value
    return replace(s, force=TimeFunction.sinusoid(amp, freq, ph).affine(
        1.0, off) if off else TimeFunction.sinusoid(amp, freq, ph))


def cmd_sweep(s, args, outdir):
    try:
        lo_s, hi_s = args.range.split(":")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError:
        raise ValidationError(f"bad --range {args.range!r}; expected lo:hi")
    if args.steps < 1:
        raise ValidationError("--steps must be >= 1")
    values = [lo] if (args.steps == 1 or lo == hi) \
        else list(np.linspace(lo, hi, args.steps))
    rows = []
    any_failed = False
    for v in values:
        try:
            sv = _sweep_scenario(s, args.param, v)
            beta_sol, series, om = _verify_pipeline(sv, args.samples)
            fr1 = frame_from_beta(sv, beta_sol, sv.t1)
            unc = uncertainty_product(0, fr1, sv)
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

    def common(p):
        p.add_argument("--scenario", required=True,
                       help="scenario config file")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--rtol", type=float, default=None,
                       help="override integrator relative tolerance")
        p.add_argument("--atol", type=float, default=None,
                       help="override integrator absolute tolerance")
        p.add_argument("--samples", type=int, default=512,
                       help="report sample count")
        p.add_argument("--tol", type=float, default=1e-6,
                       help="pass/fail drift tolerance")
        p.add_argument("--quiet", action="store_true")

    p = sub.add_parser("verify", help="invariant drift report")
    common(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("spectrum", help="eigenvalues Omega (n + 1/2)")
    common(p)
    p.add_argument("--nmax", type=int, default=10)
    p.set_defaults(fn=cmd_spectrum)

    p = sub.add_parser("wavefunction", help="eigenfunction CSV at a time")
    common(p)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--t", type=float, default=None,
                   help="evaluation time (default t0)")
    p.set_defaults(fn=cmd_wavefunction)

    p = sub.add_parser("propagate",
                       help="numeric propagation against the analytic state")
    common(p)
    p.add_argument("--n", type=int, default=0)
    p.add_argument("--periods", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--min-overlap", type=float, default=1.0 - 1e-3)
    p.set_defaults(fn=cmd_propagate)

    p = sub.add_parser("sweep", help="parameter sweep summary rows")
    common(p)
    p.add_argument("--param", required=True,
                   choices=("g", "omega", "F0", "alpha"))
    p.add_argument("--range", required=True, help="lo:hi")
    p.add_argument("--steps", type=int, default=5)
    p.set_defaults(fn=cmd_sweep)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        s = parse_scenario_file(args.scenario)
        s = _apply_overrides(s, args)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        return args.fn(s, args, outdir)
    except GridTooNarrow as exc:
        print(f"error: {exc}", file=sys.stderr)
        if exc.suggested_qmax is not None:
            print(f"suggested qmax: {exc.suggested_qmax:g}", file=sys.stderr)
        return 4
    except _PARSE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _SOLVER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
