"""Invariants, spectra and wavefunctions of the damped, driven,
time-dependent harmonic oscillator in the scaled-mass (exponentially
time-dependent mass) formulation."""

from .core import (Scenario, TimeFunction, eval_G, parse_scenario,
                   parse_scenario_file, serialize_scenario, twice_integral)
from .errors import (BckoscError, DegenerateSolutions, DegreeTooLarge,
                     GammaVanishes, GridTooNarrow, InsufficientSlices,
                     InvalidIC, NotUnderdamped, OmegaNotPositive, OutOfDomain,
                     ParseError, SolverBreakdown, StepSizeUnderflow,
                     UnsupportedForceShape, ValidationError)
from .invariants import (CReductionReport, InvariantFrame, OmegaReport,
                         compute_omega, ermakov_residual,
                         eval_conjugate_invariant, eval_linear_invariant,
                         eval_quadratic_invariant, first_integral_C,
                         frame_from_beta, omega_of_frame, verification_series,
                         verify_c_reduction, write_verification_report)
from .ode import (BetaSolution, ODESolution, Trajectory, accumulate_F,
                  c_ics_from_gamma_sigma, gamma_ics_from_beta,
                  integrate_beta, integrate_c_system, integrate_classical,
                  integrate_gamma, integrate_sigma)
from .propagator import (PropagationRun, build_hamiltonian,
                         crank_nicolson_step, propagate_and_compare)
from .quantum import (SpectrumEntry, UncertaintyComparison, UncertaintyReport,
                      UnderdampedParams, WaveFunction, apply_IQ, apply_ladder,
                      build_spectrum, eval_psi0, eval_psin, expectation_qp,
                      hermite, inner, schrodinger_residual,
                      uncertainty_product, underdamped_closed_forms,
                      underdamped_params, underdamped_uncertainty_factors,
                      write_spectrum_csv)

__version__ = "0.1.0"

__all__ = [
    "BckoscError", "BetaSolution", "CReductionReport", "DegenerateSolutions",
    "DegreeTooLarge", "GammaVanishes", "GridTooNarrow", "InsufficientSlices",
    "InvalidIC", "InvariantFrame", "NotUnderdamped", "ODESolution",
    "OmegaNotPositive", "OmegaReport", "OutOfDomain", "ParseError",
    "PropagationRun", "Scenario", "SolverBreakdown", "SpectrumEntry",
    "StepSizeUnderflow", "TimeFunction", "Trajectory",
    "UncertaintyComparison", "UncertaintyReport", "UnderdampedParams",
    "UnsupportedForceShape", "ValidationError", "WaveFunction",
    "accumulate_F", "apply_IQ", "apply_ladder", "build_hamiltonian",
    "build_spectrum", "c_ics_from_gamma_sigma", "compute_omega",
    "crank_nicolson_step", "ermakov_residual", "eval_G",
    "eval_conjugate_invariant", "eval_linear_invariant", "eval_psi0",
    "eval_psin", "eval_quadratic_invariant", "expectation_qp",
    "first_integral_C", "frame_from_beta", "gamma_ics_from_beta", "hermite",
    "inner", "integrate_beta", "integrate_c_system", "integrate_classical",
    "integrate_gamma", "integrate_sigma", "omega_of_frame", "parse_scenario",
    "parse_scenario_file", "propagate_and_compare", "schrodinger_residual",
    "serialize_scenario", "twice_integral", "uncertainty_product",
    "underdamped_closed_forms", "underdamped_params",
    "underdamped_uncertainty_factors", "verification_series",
    "verify_c_reduction", "write_verification_report",
]
