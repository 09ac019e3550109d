import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decogate.gates import (
    DIM,
    UNIVERSAL_SEQUENCE,
    GateContext,
    PulseStep,
    coupled_pairs,
    ideal_two_bit_gate,
    one_bit_unitary,
    pulse_parts,
)
from decogate.statemath import LOGICAL_INDICES, basis_index


def pulse_unitary(step: PulseStep, area: float) -> np.ndarray:
    """The dense 18x18 pulse unitary U(A) = q + cos(A/2) r + sin(A/2) b."""
    q, r, b = pulse_parts(step)
    return q + math.cos(0.5 * area) * r + math.sin(0.5 * area) * b


ALL_STEPS = [
    PulseStep(target_ion=n, polarization=q, nominal_area=math.pi)
    for n in (1, 2)
    for q in (0, 1)
]


def test_context_validation():
    with pytest.raises(ValueError):
        GateContext(omega=-1.0, eta=0.1, n_ions=20, tau=1e-8)
    with pytest.raises(ValueError):
        GateContext(omega=1e5, eta=0.1, n_ions=0, tau=1e-8)
    with pytest.raises(ValueError):
        GateContext(omega=1e5, eta=0.1, n_ions=20, tau=-1e-8)


@pytest.mark.parametrize("field", ["omega", "eta", "tau", "phi"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_context_rejects_non_finite(field, bad):
    params = dict(omega=1e5, eta=0.1, n_ions=20, tau=1e-8, phi=0.0)
    params[field] = bad
    with pytest.raises(ValueError, match=field):
        GateContext(**params)


def test_omega_prime():
    ctx = GateContext(omega=1e5, eta=0.1, n_ions=20, tau=1e-8)
    assert ctx.omega_prime == pytest.approx(0.1 * 1e5 / math.sqrt(20), rel=1e-15)


@settings(max_examples=100, deadline=None)
@given(area=st.floats(0.0, 8 * math.pi), phi=st.floats(-math.pi, math.pi))
def test_one_bit_unitary_is_unitary(area, phi):
    u = one_bit_unitary(area, phi)
    assert np.abs(u @ u.conj().T - np.eye(2)).max() < 1e-13


def test_one_bit_unitary_matrix_elements():
    area, phi = 0.7, 0.3
    u = one_bit_unitary(area, phi)
    c, s = math.cos(area / 2), math.sin(area / 2)
    # columns are the images of |g>, |e>
    assert u[0, 0] == pytest.approx(c)
    assert u[1, 0] == pytest.approx(-1j * np.exp(1j * phi) * s)
    assert u[0, 1] == pytest.approx(-1j * np.exp(-1j * phi) * s)
    assert u[1, 1] == pytest.approx(c)


@settings(max_examples=80, deadline=None)
@given(
    area=st.floats(0.0, 8 * math.pi),
    step_idx=st.integers(0, len(ALL_STEPS) - 1),
)
def test_pulse_unitary_is_unitary(area, step_idx):
    u = pulse_unitary(ALL_STEPS[step_idx], area)
    assert np.abs(u @ u.conj().T - np.eye(DIM)).max() < 1e-13


@pytest.mark.parametrize("step", ALL_STEPS)
def test_pulse_support_is_exactly_the_coupled_pairs(step):
    pairs = coupled_pairs(step)
    assert len(pairs) == 3  # one pair per spectator ion level
    touched = {i for pair in pairs for i in pair}
    rng = np.random.default_rng(9)
    for area in rng.uniform(0.1, 4 * math.pi, size=20):
        u = pulse_unitary(step, float(area))
        delta = u - np.eye(DIM)
        nz_rows = set(np.nonzero(np.abs(delta).max(axis=1) > 1e-15)[0].tolist())
        assert nz_rows <= touched
        for a, b in pairs:
            block = u[np.ix_([a, b], [a, b])]
            c, s = math.cos(area / 2), math.sin(area / 2)
            assert np.abs(np.abs(block) - np.array([[abs(c), abs(s)], [abs(s), abs(c)]])).max() < 1e-13


def test_pi_pulse_swaps_pair_population():
    step = UNIVERSAL_SEQUENCE[0]  # pi pulse on ion 1, q=0
    u = pulse_unitary(step, math.pi)
    src = basis_index("e", "g", 0)
    dst = basis_index("g", "g", 1)
    vec = np.zeros(DIM, dtype=complex)
    vec[src] = 1.0
    out = u @ vec
    assert abs(out[dst]) == pytest.approx(1.0, abs=1e-14)


def test_two_pi_pulse_gives_minus_one_on_pair():
    step = UNIVERSAL_SEQUENCE[1]  # 2pi pulse on ion 2 through the auxiliary level
    u = pulse_unitary(step, 2 * math.pi)
    for a, b in coupled_pairs(step):
        assert u[a, a] == pytest.approx(-1.0, abs=1e-14)
        assert u[b, b] == pytest.approx(-1.0, abs=1e-14)


def test_composite_at_exact_areas_equals_ideal_gate():
    u = np.eye(DIM, dtype=complex)
    for step in UNIVERSAL_SEQUENCE:
        u = pulse_unitary(step, step.nominal_area) @ u
    ideal = ideal_two_bit_gate()
    cols = u[:, list(LOGICAL_INDICES)]
    ideal_cols = ideal[:, list(LOGICAL_INDICES)]
    assert np.abs(cols - ideal_cols).max() < 1e-14


def test_ideal_two_bit_gate_sign_structure():
    ideal = ideal_two_bit_gate()
    logical = ideal[np.ix_(LOGICAL_INDICES, LOGICAL_INDICES)]
    assert np.abs(logical - np.diag([1.0, 1.0, 1.0, -1.0])).max() < 1e-14


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("call, name", [
    (lambda x: one_bit_unitary(x, 0.3), "area"),
    (lambda x: one_bit_unitary(0.7, x), "phi"),
], ids=["one_bit_area", "one_bit_phi"])
def test_gate_unitaries_reject_non_finite_inputs(call, name, bad):
    with pytest.raises(ValueError, match=name):
        call(bad)
