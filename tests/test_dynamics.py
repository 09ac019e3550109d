import math

import numpy as np
import pytest

from decogate.decoherence import averaged_phase_factor
from decogate.dynamics import (
    HamiltonianSpec,
    compare_evolutions,
    exact_map,
    me2_integrate,
    trace_distance,
)
from decogate.fidelity import f0000_one_bit
from decogate.gates import GateContext
from decogate.statemath import DensityMatrix, validate_density


OMEGA = 1e5
H_RABI = HamiltonianSpec(0.5 * OMEGA * np.array([[0.0, 1.0], [1.0, 0.0]]))
RHO_G = DensityMatrix(np.diag([1.0, 0.0]).astype(complex))


def rk4_me2(hm, rho, t, tau, dt):
    """Classical RK4 on d rho/dt = -i[H,rho] - (tau/2)[H,[H,rho]]: an integrator
    oracle independent of the closed-form me2_integrate."""
    if not 0 < dt <= t:
        raise ValueError("require 0 < dt <= t")

    def rhs(r):
        comm = hm @ r - r @ hm
        return -1j * comm - 0.5 * tau * (hm @ comm - comm @ hm)

    n_steps = math.ceil(t / dt)
    step = t / n_steps
    for _ in range(n_steps):
        k1 = rhs(rho)
        k2 = rhs(rho + 0.5 * step * k1)
        k3 = rhs(rho + 0.5 * step * k2)
        k4 = rhs(rho + step * k3)
        rho = rho + (step / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return rho


def random_hamiltonian(dim, norm, seed):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h = 0.5 * (a + a.conj().T)
    return HamiltonianSpec(h * norm / np.max(np.abs(np.linalg.eigvalsh(h))))


def test_hamiltonian_spec_rejects_non_hermitian():
    with pytest.raises(ValueError):
        HamiltonianSpec(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_exact_map_matches_phase_factor_law():
    # in the eigenbasis the coherence picks up the averaged phase factor
    t, tau = 1e-4, 1e-7
    w = H_RABI.eigenvalues
    rho = exact_map(H_RABI, RHO_G, t, tau)
    v = H_RABI.eigenvectors
    rho_eig = v.conj().T @ rho.matrix @ v
    rho0_eig = v.conj().T @ RHO_G.matrix @ v
    factor = averaged_phase_factor(w[1] - w[0], t, tau).conjugate()
    assert rho_eig[0, 1] == pytest.approx(rho0_eig[0, 1] * factor, rel=1e-12)
    assert np.abs(np.diag(rho_eig) - np.diag(rho0_eig)).max() < 1e-14


def test_exact_map_excited_population_equals_fidelity_complement():
    # qubit pi rotation at Omega*tau = 1e-3: the surviving ground population
    # equals the closed-form diagonal fidelity tensor element
    ctx = GateContext(omega=OMEGA, eta=0.1, n_ions=20, tau=1e-8)
    t = math.pi / OMEGA
    rho = exact_map(H_RABI, RHO_G, t, ctx.tau)
    # ideal pi pulse sends |g> to |e>; the averaged excited population is F0000
    assert rho.matrix[1, 1].real == pytest.approx(f0000_one_bit(t, ctx), abs=1e-12)


def test_exact_map_unitary_limit():
    t = 1e-5
    rho = exact_map(H_RABI, RHO_G, t, 0.0)
    u = H_RABI.eigenvectors @ np.diag(
        np.exp(-1j * H_RABI.eigenvalues * t)
    ) @ H_RABI.eigenvectors.conj().T
    ref = u @ RHO_G.matrix @ u.conj().T
    assert np.abs(rho.matrix - ref).max() < 1e-12


def test_me2_preserves_trace_and_hermiticity():
    rho = me2_integrate(H_RABI, RHO_G, math.pi / OMEGA, 1e-8)
    report = validate_density(rho)
    assert report.trace_error < 1e-10
    assert report.hermiticity_error < 1e-12


def test_me2_matches_exact_at_small_tau():
    t = math.pi / OMEGA
    tau = 1e-8  # Omega*tau = 1e-3
    exact = exact_map(H_RABI, RHO_G, t, tau)
    approx = me2_integrate(H_RABI, RHO_G, t, tau)
    assert trace_distance(exact.matrix, approx.matrix) < 1e-5


def test_me2_breaks_down_at_large_tau():
    t = math.pi / OMEGA
    tau = 1e-6  # Omega*tau = 1e-1
    exact = exact_map(H_RABI, RHO_G, t, tau)
    approx = me2_integrate(H_RABI, RHO_G, t, tau)
    assert trace_distance(exact.matrix, approx.matrix) > 1e-3


@pytest.mark.parametrize("dim", [2, 6, 18])
def test_me2_matches_rk4_oracle(dim):
    # ||H|| t = 5 and ||H|| tau = 0.05: several periods with visible dephasing;
    # ||H|| dt = 5e-3 keeps the oracle's global error near 1e-11
    h = random_hamiltonian(dim, OMEGA, seed=dim)
    rng = np.random.default_rng(100 + dim)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    rho0 = DensityMatrix(np.outer(psi, psi.conj()))
    t, tau = 5.0 / OMEGA, 0.05 / OMEGA
    closed = me2_integrate(h, rho0, t, tau)
    oracle = rk4_me2(h.matrix, rho0.matrix, t, tau, 5e-3 / h.spectral_norm)
    assert trace_distance(closed.matrix, oracle) <= 1e-9


def test_rk4_oracle_halving_check():
    t = math.pi / OMEGA
    # the step used as a reference moves by less than 1e-8 when halved
    dt = 1e-3 / H_RABI.spectral_norm
    full = rk4_me2(H_RABI.matrix, RHO_G.matrix, t, 1e-8, dt)
    half = rk4_me2(H_RABI.matrix, RHO_G.matrix, t, 1e-8, dt / 2)
    assert np.max(np.abs(full - half)) < 1e-8
    # an absurdly coarse step does not
    coarse = rk4_me2(H_RABI.matrix, RHO_G.matrix, t, 1e-6, t / 3)
    coarse_half = rk4_me2(H_RABI.matrix, RHO_G.matrix, t, 1e-6, t / 6)
    assert np.max(np.abs(coarse - coarse_half)) > 1e-8


def test_rk4_oracle_rejects_bad_step():
    with pytest.raises(ValueError):
        rk4_me2(H_RABI.matrix, RHO_G.matrix, 1e-5, 1e-8, 0.0)
    with pytest.raises(ValueError):
        rk4_me2(H_RABI.matrix, RHO_G.matrix, 1e-5, 1e-8, 1.0)


@pytest.mark.parametrize("tau", [math.nan, math.inf, -1e-8])
@pytest.mark.parametrize("evolve", [exact_map, me2_integrate])
def test_evolution_rejects_bad_tau(evolve, tau):
    with pytest.raises(ValueError):
        evolve(H_RABI, RHO_G, 1e-5, tau)


@pytest.mark.parametrize("t", [math.nan, math.inf, 0.0, -1e-5])
@pytest.mark.parametrize("evolve", [exact_map, me2_integrate])
def test_evolution_rejects_bad_time(evolve, t):
    with pytest.raises(ValueError):
        evolve(H_RABI, RHO_G, t, 1e-8)


@pytest.mark.parametrize(
    "t_grid, tau",
    [
        ([1e-6, 2e-6], math.nan),
        ([1e-6, 2e-6], -1e-8),
        ([1e-6, math.nan], 1e-8),
        ([math.nan, 2e-6], 1e-8),
        ([1e-6, math.inf], 1e-8),
        ([0.0, 2e-6], 1e-8),
        ([2e-6, 1e-6], 1e-8),
    ],
)
def test_compare_evolutions_rejects_bad_input(t_grid, tau):
    with pytest.raises(ValueError):
        compare_evolutions(H_RABI, RHO_G, t_grid, tau)


def test_compare_evolutions_cost_does_not_grow_with_time():
    # Omega = 1e5 out to t = 1 s is ~1e8 steps for a fixed-step integrator;
    # the closed form costs the same at every t
    t_grid = list(np.linspace(0.1, 1.0, 10))
    cmp = compare_evolutions(H_RABI, RHO_G, t_grid, 1e-8)
    assert np.all(np.isfinite(cmp.trace_distance))
    assert np.all(np.isfinite(cmp.max_offdiag_error))
    assert validate_density(me2_integrate(H_RABI, RHO_G, 1.0, 1e-8)).ok


def test_trace_distance_basics():
    a = np.diag([1.0, 0.0]).astype(complex)
    b = np.diag([0.0, 1.0]).astype(complex)
    assert trace_distance(a, a) == pytest.approx(0.0, abs=1e-15)
    assert trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)


def test_compare_evolutions_grid():
    t_grid = list(np.linspace(1e-6, math.pi / OMEGA, 8))
    cmp = compare_evolutions(H_RABI, RHO_G, t_grid, 1e-8)
    assert len(cmp.times) == len(cmp.trace_distance) == len(cmp.max_offdiag_error) == 8
    assert all(d >= 0 for d in cmp.trace_distance)
    assert max(cmp.trace_distance) < 1e-5


def test_commuting_initial_state_is_stationary():
    # rho0 diagonal in the energy eigenbasis: both evolutions leave it fixed
    v0 = H_RABI.eigenvectors[:, 0]
    rho0 = DensityMatrix(np.outer(v0, v0.conj()))
    t = math.pi / OMEGA
    exact = exact_map(H_RABI, rho0, t, 1e-7)
    approx = me2_integrate(H_RABI, rho0, t, 1e-7)
    assert trace_distance(exact.matrix, rho0.matrix) < 1e-12
    assert trace_distance(approx.matrix, rho0.matrix) < 1e-10
