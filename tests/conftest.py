"""Shared fixtures: the bundled scenarios, tightened for verification work,
with their amplitude solutions integrated once per session; and the
coefficient-system reduction check that criterion 5 and the invariant tests
share."""

import pathlib
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from bckosc import (integrate_beta, integrate_gamma, integrate_sigma,
                    parse_scenario_file)
from bckosc.invariants import envelope_ics, iq_coefficients

from oracles import coefficient_solution

SCENARIO_DIR = pathlib.Path(__file__).resolve().parent.parent / "scenarios"

# verification tolerances: the bundled files default to 1e-10/1e-12, which
# leaves the linear-invariant drift just above the 1e-8 bar once e^G has
# grown to ~3e5; two more digits cost ~50 ms per scenario
RTOL = 1e-12
ATOL = 1e-14


def load_scenario(name, **overrides):
    s = parse_scenario_file(str(SCENARIO_DIR / name))
    return replace(s, rtol=RTOL, atol=ATOL, **overrides)


@pytest.fixture(scope="session")
def driven():
    """Constant-parameter underdamped oscillator with a sinusoidal drive
    (m = hbar = 1, omega = 1, g = 0.1, F0 = 0.5, alpha = 0.9)."""
    return load_scenario("underdamped_driven.cfg")


@pytest.fixture(scope="session")
def sho():
    """Plain m = omega = hbar = 1 oscillator, no damping, no drive."""
    return load_scenario("sho.cfg")


@pytest.fixture(scope="session")
def ramp():
    """Linearly ramped frequency with light constant damping."""
    return load_scenario("ramp_omega.cfg")


@pytest.fixture(scope="session")
def driven_beta(driven):
    return integrate_beta(driven)


@pytest.fixture(scope="session")
def sho_beta(sho):
    return integrate_beta(sho)


@pytest.fixture(scope="session")
def ramp_beta(ramp):
    return integrate_beta(ramp)


def coefficient_reduction(s, c3_shift=0.0, samples=512):
    """How far the oracle's solution of the five coefficient ODEs of I_Q
    strays from their reduction onto the envelope pair (gamma, sigma).

    The reference is ``iq_coefficients`` of the package's envelope
    solutions from ``envelope_ics``, at ``samples`` times.  The oracle's
    coefficient solution starts from the reference at t0, with c3 shifted
    by ``c3_shift``.  Returns (c0, c_sol, deviation): the oracle's initial
    values, its dense solution (t -> (5, ...)) and the largest deviation
    of a c_k from its reference, scaled by 1 + sup |reference| for that k.
    """
    gamma_ics, sigma_ics = envelope_ics(s)
    gamma_sol = integrate_gamma(s, *gamma_ics)
    sigma_sol = integrate_sigma(s, gamma_sol, *sigma_ics)
    ts = np.linspace(s.t0, s.t1, samples)
    ga, si = gamma_sol(ts), sigma_sol(ts)
    ref = np.array(iq_coefficients(SimpleNamespace(
        m=s.m, expG=np.exp(s.G(ts)), omega=s.omega(ts), damping=s.damping(ts),
        force=s.force(ts), gamma=ga[:, 0], dgamma=ga[:, 1], ddgamma=ga[:, 2],
        sigma=si[:, 0], dsigma=si[:, 1])))
    c0 = ref[:, 0].copy()
    c0[2] += c3_shift
    c_sol = coefficient_solution(s, tuple(c0.tolist()))
    deviation = np.max(np.abs(c_sol(ts) - ref).max(axis=1)
                       / (1.0 + np.abs(ref).max(axis=1)))
    return c0, c_sol, float(deviation)
