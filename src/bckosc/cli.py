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

from .core import (MAX_COUNT, TimeFunction, parse_scenario_file,
                   tf_document, write_csv)
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
    "wavefunction": ("eval_psin", "moments"),
    "propagate": ("propagate_and_compare",),
    "sweep": ("moments",),
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


# what each numeric flag must be, checked before any work
_FLAG_RULES = {
    "samples": (lambda v: 2 <= v <= MAX_COUNT, f"in [2, {MAX_COUNT}]"),
    "tol": (lambda v: 0 < v < math.inf, "positive and finite"),
    "min_overlap": (lambda v: 0 <= v <= 1, "in [0, 1]"),
    "periods": (lambda v: 0 < v < math.inf, "positive and finite"),
    "nmax": (lambda v: 0 <= v <= MAX_COUNT, f"in [0, {MAX_COUNT}]"),
    "steps": (lambda v: 1 <= v <= MAX_COUNT, f"in [1, {MAX_COUNT}]"),
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
    kw = {k: getattr(args, k) for k in ("rtol", "atol")
          if getattr(args, k) is not None}
    return replace(s, **kw) if kw else s


def _verify_checks(s, samples, tol):
    """Shared by verify and sweep: the amplitude, the drift series and
    verify's eight (label, value, bound) checks."""
    beta_sol = integrate_beta(s)
    traj = integrate_classical(s, 1.0, 0.0)
    series = verification_series(s, beta_sol, traj, samples=samples)
    gamma_ics, sigma_ics = envelope_ics(s)
    gamma_sol = integrate_gamma(s, *gamma_ics)
    sigma_sol = integrate_sigma(s, gamma_sol, *sigma_ics)
    ts, fr = series["ts"], series["frame"]
    gamma_dev = float(np.max(np.abs(gamma_sol(ts)[:, 0] - fr.gamma)))
    sigma_dev = float(np.max(np.abs(sigma_sol(ts)[:, 0] - fr.sigma)))
    checks = [("I drift", series["drift_I"], tol),
              ("IQ drift", series["drift_IQ"], tol),
              ("omega drift", series["omega_report"].max_rel_drift, tol),
              ("C drift", series["drift_C"], tol),
              ("C vs 2(Omega/m hbar)^2", series["C_vs_omega"], tol),
              ("ermakov residual", series["max_ermakov"], tol),
              ("gamma ODE vs 2|beta|^2", gamma_dev, tol),
              ("sigma ODE vs -2Re(b*F)", sigma_dev, tol)]
    return beta_sol, series, checks


def _passed(checks):
    return all(value <= bound for _, value, bound in checks)


# each command returns (path written, (label, value, bound) checks, notes)

def cmd_verify(s, args, outdir):
    _, series, checks = _verify_checks(s, args.samples, args.tol)
    path = outdir / "verify_report.csv"
    write_verification_report(path, series)
    return path, checks, [f"Omega mean {_fmt(series['omega_report'].mean)}"]


def cmd_spectrum(s, args, outdir):
    beta_sol = integrate_beta(s)
    om = compute_omega(s, beta_sol, samples=args.samples)
    eigenvalues = build_spectrum(om.mean, args.nmax)
    path = outdir / "spectrum.csv"
    write_spectrum_csv(path, eigenvalues)
    for n, ev in enumerate(eigenvalues):
        _say(args, f"n={n}  eigenvalue={_fmt(ev)}")
    return path, [("omega drift", om.max_rel_drift, args.tol)], []


def cmd_wavefunction(s, args, outdir):
    beta_sol = integrate_beta(s)
    t = s.t0 if args.t is None else args.t
    fr = frame_from_beta(s, beta_sol, t)
    wf = eval_psin(args.n, s, fr)
    q_exp, p_exp, var_q, var_p = moments(args.n, fr, s)
    product = var_q * var_p
    path = outdir / "wavefunction.csv"
    wf.to_csv(path, footer=dict(exp_q=q_exp, exp_p=p_exp, var_q=var_q,
                                var_p=var_p, product=product, norm=wf.norm))
    return path, [("norm defect", abs(wf.norm - 1.0), args.tol)], [
        f"<q>={_fmt(q_exp)}  <p>={_fmt(p_exp)}  product={_fmt(product)}"]


def cmd_propagate(s, args, outdir):
    # propagate_and_compare takes the solution's last reference and frees it
    sol = [integrate_beta(s)]
    om = compute_omega(s, sol[0], samples=args.samples)
    wbar_eff = om.mean / (2.0 * s.m * s.hbar)
    if wbar_eff <= 0:
        raise OmegaNotPositive("effective frequency not positive")
    period = 2.0 * math.pi / wbar_eff
    t1 = s.t0 + args.periods * period
    if t1 > s.t1:
        t1 = s.t1
        _say(args, f"window clipped to scenario end t1={_fmt(t1)}")
    run = propagate_and_compare(s, args.n, s.t0, t1, args.dt,
                                beta_sol=sol.pop())
    path = outdir / "propagation.csv"
    run.to_csv(path)
    return path, [("fidelity defect", 1.0 - run.min_overlap,
                   1.0 - args.min_overlap)], [
        f"min overlap {_fmt(run.min_overlap)}  "
        f"max step norm drift {run.max_step_norm_drift:.3e}"]


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


def _sweep_row(s, args, v):
    """One sweep row and its status; the row's solutions die on return,
    before the next row integrates."""
    sv = _sweep_scenario(s, args.param, v)
    beta_sol, series, checks = _verify_checks(sv, args.samples, args.tol)
    _, _, var_q, var_p = moments(0, frame_from_beta(sv, beta_sol, sv.t1), sv)
    return ((series["omega_report"].mean, series["drift_I"],
             series["drift_IQ"], var_q * var_p),
            "ok" if _passed(checks) else "tolerance")


def cmd_sweep(s, args, outdir):
    try:
        lo, hi = map(float, args.range.split(":"))
    except ValueError:
        raise ValidationError(f"bad --range {args.range!r}; expected lo:hi")
    # an infinite end makes np.linspace warn and turns the other end into
    # nan (0 * inf), so both ends are pinned; non-finite values fail their
    # rows below
    with np.errstate(invalid="ignore"):
        values = np.linspace(lo, hi, args.steps)
    values[0], values[-1] = lo, hi
    values = [lo] if (args.steps == 1 or lo == hi) else list(values)
    results, status = [], []
    for v in values:
        try:
            row, st = _sweep_row(s, args, v)
        except (BckoscError, FloatingPointError) as exc:
            row, st = (math.nan,) * 4, f"failed:{type(exc).__name__}"
        results.append(row)
        status.append(st)
    results = np.array(results)
    path = outdir / "sweep.csv"
    write_csv(path, "param,value,Omega,drift_I,drift_IQ,uncertainty_n0_t1,"
              "status", [[args.param] * len(values), values, *results.T,
                         status])
    failed = sum(st != "ok" for st in status)
    return path, [("failed rows", failed, 0)], [
        f"{args.param}={v:.17g}  Omega={_fmt(om)}  status={st}"
        for v, om, st in zip(values, results[:, 0], status)]


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
    p.add_argument("--range", required=True,
                   help="lo:hi; a negative lo needs the form --range=lo:hi")
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
        s = _apply_overrides(parse_scenario_file(args.scenario), args)
        outdir = Path(args.out)
        outdir.mkdir(parents=True, exist_ok=True)
        path, checks, notes = args.fn(s, args, outdir)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BckoscError as exc:
        print(f"error: {exc}", file=sys.stderr)
        qmax = getattr(exc, "suggested_qmax", None)
        if qmax is not None:
            print(f"suggested qmax: {qmax:g}", file=sys.stderr)
        return exc.exit_code
    for label, value, bound in checks:
        _say(args, f"{label:<22s} {value:12.5e}  (tol {bound:g})  "
                   f"{'PASS' if value <= bound else 'FAIL'}")
    for note in notes:
        _say(args, note)
    _say(args, f"wrote {path}")
    return 0 if _passed(checks) else 1


if __name__ == "__main__":
    sys.exit(main())
