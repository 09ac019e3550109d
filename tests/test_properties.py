"""Every public entry point returns finite output or raises ValueError (the
quadrature oracle may also raise RuntimeError when its Gauss rule does not
converge).

Hypothesis draws tau >= 0 (subnormals included) and any finite omega and t;
under the suite's RuntimeWarning filter, an overflow or NaN that numpy only
warns about fails the test too.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from decogate.bounds import ShorScenario, assess
from decogate.decoherence import (
    MIN_MC_SAMPLES,
    averaged_phase_factor,
    gamma_char,
    gap_exponents,
    kernel_integrals,
)
from decogate.dynamics import HamiltonianSpec, compare_evolutions, exact_map
from decogate.fidelity import Method, closed_two_bit_tensor, fidelity_one_bit, fidelity_two_bit
from decogate.gates import GateContext
from decogate.statemath import DensityMatrix
from decogate.sweep import SweepSpec, run_sweep

TAU = st.floats(min_value=0.0, allow_infinity=False, allow_subnormal=True)
FINITE = st.floats(allow_nan=False, allow_infinity=False)
PROPERTY = settings(max_examples=300, deadline=None, derandomize=True)


def finite_or_value_error(call):
    """call() with its result checked finite, or None if it raised ValueError."""
    try:
        out = call()
    except ValueError:
        return None
    assert np.all(np.isfinite(out)), out
    return out


def context(omega, tau):
    return GateContext(omega=omega, eta=0.1, n_ions=20, tau=tau)


def gate_values(gate, ctx):
    res = gate(ctx)
    return [res.fidelity, res.one_minus_f, res.stderr]


@PROPERTY
@given(omega=FINITE, t=FINITE, tau=TAU)
def test_analytic_gate_fidelities(omega, t, tau):
    for gate in (lambda ctx: fidelity_one_bit(t, ctx), fidelity_two_bit):
        finite_or_value_error(lambda: gate_values(gate, context(omega, tau)))


# the oracles cost milliseconds per call, so fewer examples
ORACLE = settings(max_examples=200, deadline=None, derandomize=True)


@ORACLE
@given(omega=FINITE, t=FINITE, tau=TAU)
def test_monte_carlo_gate_fidelities(omega, t, tau):
    for gate in (lambda ctx: fidelity_one_bit(t, ctx, Method.MONTE_CARLO, MIN_MC_SAMPLES),
                 lambda ctx: fidelity_two_bit(ctx, Method.MONTE_CARLO, MIN_MC_SAMPLES)):
        finite_or_value_error(lambda: gate_values(gate, context(omega, tau)))


@ORACLE
@given(omega=FINITE, t=FINITE, tau=TAU)
def test_quadrature_gate_fidelities(omega, t, tau):
    for gate in (lambda ctx: fidelity_one_bit(t, ctx, Method.QUADRATURE),
                 lambda ctx: fidelity_two_bit(ctx, Method.QUADRATURE)):
        try:
            finite_or_value_error(lambda: gate_values(gate, context(omega, tau)))
        except RuntimeError as exc:
            assert "did not converge" in str(exc)


@PROPERTY
@given(omega=FINITE, tau=TAU)
def test_closed_two_bit_tensor_known_entries(omega, tau):
    def known():
        tensor = closed_two_bit_tensor(context(omega, tau))
        return tensor.values[tensor.known]

    finite_or_value_error(known)


@PROPERTY
@given(omega=FINITE, t=FINITE, tau=TAU)
def test_kernels_rates_and_phase_factor(omega, t, tau):
    finite_or_value_error(lambda: list(vars(kernel_integrals(t, omega, tau)).values()))
    finite_or_value_error(lambda: gap_exponents(np.array([[0.0, omega], [-omega, 0.0]]), tau))
    finite_or_value_error(lambda: averaged_phase_factor(omega, t, tau))


# evolution in the energy basis: the exact map of a diagonal H, whose gaps
# are checked for overflow before any is formed
@PROPERTY
@given(omega=FINITE, t=FINITE, tau=TAU)
def test_evolve_energy_basis(omega, t, tau):
    rho0 = DensityMatrix(np.full((3, 3), 1 / 3, dtype=complex))
    h = np.diag([0.0, omega, -omega])
    finite_or_value_error(lambda: exact_map(HamiltonianSpec(h), rho0, t, tau).matrix)


def symmetric(dim, entries):
    """The real symmetric matrix whose upper triangle, row by row, is entries."""
    h = np.zeros((dim, dim))
    h[np.triu_indices(dim)] = entries
    return h + np.triu(h, 1).T


SYMMETRIC = st.integers(1, 4).flatmap(
    lambda dim: st.lists(FINITE, min_size=dim * (dim + 1) // 2, max_size=dim * (dim + 1) // 2)
    .map(lambda entries: symmetric(dim, entries)))


# any list of times, or the evolve CLI's grid: n equal steps up to a time
GRID = st.one_of(
    st.lists(FINITE, max_size=30),
    st.builds(lambda t, n: list(np.linspace(t / max(n, 1), t, n)),
              st.floats(min_value=0.0, max_value=1e300, exclude_min=True), st.integers(0, 30)))


@PROPERTY
@given(h=SYMMETRIC, tau=TAU, times=GRID)
def test_compare_evolutions(h, tau, times):
    # a real symmetric H of dimension 1 to 4 and grids of up to 30 times
    rho0 = np.zeros(h.shape, dtype=complex)
    rho0[0, 0] = 1.0

    def distances():
        cmp = compare_evolutions(HamiltonianSpec(h), DensityMatrix(rho0), times, tau)
        return cmp.trace_distance + cmp.max_offdiag_error

    finite_or_value_error(distances)


@PROPERTY
@given(gate=st.sampled_from(["one_bit", "two_bit"]), omega=FINITE, tau_min=FINITE, tau_max=FINITE)
# 10**log10(tau_max) rounds past the largest float
@example(gate="one_bit", omega=1.0, tau_min=1.0, tau_max=1.7976931348622105e308)
def test_analytic_sweep(gate, omega, tau_min, tau_max):
    def one_minus_f():
        spec = SweepSpec(gate, tau_min, tau_max, 5, context(omega, 1e-8))
        return [[r.tau, r.omega_tau, r.fractional_error, r.one_minus_f, r.stderr] for r in run_sweep(spec)]

    finite_or_value_error(one_minus_f)


@PROPERTY
@given(bits=st.integers(1, 10**400), omega=FINITE, eta=FINITE, tau=TAU)
def test_assess_report_is_finite_strict_json(bits, omega, eta, tau):
    try:
        doc = assess(ShorScenario(bits, omega, eta, tau)).to_dict()
    except ValueError:
        return
    # strict JSON: no NaN or Infinity; an infinite decoherence time is null
    json.dumps(doc, allow_nan=False)
    assert (doc["decoherence_time"] is None) == (doc["gamma"] == 0 or 1 / doc["gamma"] == math.inf)



@pytest.mark.parametrize("call", [
    lambda: gamma_char(1e300, 1e10, 0.0),     # omega t overflows
    lambda: gamma_char(1e300, 1e-5, 1e10),    # omega tau overflows
    lambda: gamma_char(1e300, 1e-5, np.array([1e-8, 1e10])),
    lambda: context(5e-324, 1e-8),            # omega' underflows to 0
    lambda: assess(ShorScenario(4, 1e300, 0.1, 1e-8)),   # gamma overflows
    lambda: assess(ShorScenario(4, 1e-320, 1e-5, 1e-8)),  # op_time overflows
    lambda: assess(ShorScenario(10**113, 1e5, 0.1, 1e-8)),  # n_ops is too large for a float
], ids=["omega_t", "omega_tau", "omega_tau_array", "omega_prime", "gamma", "op_time", "total_time"])
def test_overflow_is_a_value_error(call):
    with pytest.raises(ValueError):
        call()
