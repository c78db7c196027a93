"""Invariants, spectra and wavefunctions of the damped, driven,
time-dependent harmonic oscillator in the scaled-mass (exponentially
time-dependent mass) formulation."""

import importlib
import os
import sys

# numpy is the one module bckosc loads at import.  Its OpenBLAS starts a
# spinning worker per CPU when it loads, and bckosc's matrix products are
# too small to use one: load it with one thread, unless the user set a
# count (OpenBLAS reads these once, at load).
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" in sys.modules or any(v in os.environ for v in _BLAS_VARS):
    __import__("numpy")
else:
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        __import__("numpy")
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

# Each public name and the submodule that defines it.  A name's module is
# imported when the name is first read (PEP 562), so a process compiles
# only the modules it uses: `bckosc verify` never loads propagator or
# quantum.
_EXPORTS = {
    "core": ("Scenario", "TimeFunction", "parse_scenario",
             "parse_scenario_file", "twice_integral"),
    "errors": ("BckoscError", "DegenerateSolutions", "DegreeTooLarge",
               "GammaVanishes", "GridTooNarrow", "InvalidIC",
               "OmegaNotPositive", "OutOfDomain", "ParseError",
               "SolverBreakdown", "StepSizeUnderflow", "ValidationError"),
    "invariants": ("InvariantFrame", "OmegaReport", "compute_omega",
                   "ermakov_residual", "eval_linear_invariant",
                   "eval_quadratic_invariant", "first_integral_C",
                   "frame_from_beta", "omega_of_frame", "verification_series",
                   "write_verification_report"),
    "ode": ("ODESolution", "integrate_beta", "integrate_classical",
            "integrate_gamma", "integrate_sigma"),
    "propagator": ("PropagationRun", "propagate_and_compare"),
    "quantum": ("WaveFunction", "build_spectrum", "eval_psin", "moments",
                "write_spectrum_csv"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items()
              for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
