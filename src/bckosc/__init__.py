"""Invariants, spectra and wavefunctions of the damped, driven,
time-dependent harmonic oscillator in the scaled-mass (exponentially
time-dependent mass) formulation."""

import os
import sys

# numpy's OpenBLAS starts a spinning worker per CPU when it loads, and
# bckosc's matrix products are too small to use one: load it with one
# thread, unless the user set a count (OpenBLAS reads these once, at load).
_BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")
if "numpy" not in sys.modules and not any(v in os.environ for v in _BLAS_VARS):
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    try:
        __import__("numpy")
    finally:
        del os.environ["OPENBLAS_NUM_THREADS"]

from .core import (Scenario, TimeFunction, parse_scenario,
                   parse_scenario_file, serialize_scenario, twice_integral)
from .errors import (BckoscError, DegenerateSolutions, DegreeTooLarge,
                     GammaVanishes, GridTooNarrow, InvalidIC,
                     OmegaNotPositive, OutOfDomain, ParseError,
                     SolverBreakdown, StepSizeUnderflow, ValidationError)
from .invariants import (CReductionReport, InvariantFrame, OmegaReport,
                         c_ics_from_gamma_sigma, compute_omega,
                         ermakov_residual, eval_linear_invariant,
                         eval_quadratic_invariant, first_integral_C,
                         frame_from_beta, omega_of_frame, verification_series,
                         verify_c_reduction, write_verification_report)
from .ode import (ODESolution, integrate_beta, integrate_c_system,
                  integrate_classical, integrate_gamma, integrate_sigma)
from .propagator import (PropagationRun, build_hamiltonian,
                         crank_nicolson_step, propagate_and_compare)
from .quantum import (SpectrumEntry, UncertaintyReport, WaveFunction,
                      apply_IQ, apply_ladder, build_spectrum, eval_psin,
                      expectation_qp, inner, uncertainty_product,
                      write_spectrum_csv)

__version__ = "0.1.0"

__all__ = [
    "BckoscError", "CReductionReport", "DegenerateSolutions",
    "DegreeTooLarge", "GammaVanishes", "GridTooNarrow", "InvalidIC",
    "InvariantFrame", "ODESolution", "OmegaNotPositive", "OmegaReport",
    "OutOfDomain", "ParseError", "PropagationRun", "Scenario",
    "SolverBreakdown", "SpectrumEntry", "StepSizeUnderflow", "TimeFunction",
    "UncertaintyReport", "ValidationError", "WaveFunction", "apply_IQ",
    "apply_ladder", "build_hamiltonian", "build_spectrum",
    "c_ics_from_gamma_sigma", "compute_omega", "crank_nicolson_step",
    "ermakov_residual", "eval_linear_invariant", "eval_psin",
    "eval_quadratic_invariant", "expectation_qp", "first_integral_C",
    "frame_from_beta", "inner", "integrate_beta", "integrate_c_system",
    "integrate_classical", "integrate_gamma", "integrate_sigma",
    "omega_of_frame", "parse_scenario", "parse_scenario_file",
    "propagate_and_compare", "serialize_scenario", "twice_integral",
    "uncertainty_product", "verification_series", "verify_c_reduction",
    "write_verification_report",
]
