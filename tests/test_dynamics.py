import math
import tracemalloc

import numpy as np
import pytest

import decogate.decoherence as decoherence_mod
import decogate.dynamics as dynamics_mod
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
    oracle = rk4_me2(h.matrix, rho0.matrix, t, tau, 5e-3 / np.max(np.abs(h.eigenvalues)))
    assert trace_distance(closed.matrix, oracle) <= 1e-9


def test_rk4_oracle_halving_check():
    t = math.pi / OMEGA
    # the step used as a reference moves by less than 1e-8 when halved
    dt = 1e-3 / np.max(np.abs(H_RABI.eigenvalues))
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


def random_state(dim, seed):
    rng = np.random.default_rng(seed)
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    return DensityMatrix(np.outer(psi, psi.conj()))


@pytest.mark.parametrize("evolve", [
    lambda h, rho: exact_map(h, rho, 1e-5, 1e-8),
    lambda h, rho: me2_integrate(h, rho, 1e-5, 1e-8),
    lambda h, rho: compare_evolutions(h, rho, [1e-5, 2e-5], 1e-8),
], ids=["exact_map", "me2_integrate", "compare_evolutions"])
def test_state_of_another_dimension_is_rejected(evolve):
    with pytest.raises(ValueError, match="dimension 3 does not match the Hamiltonian's 2"):
        evolve(H_RABI, DensityMatrix(np.eye(3, dtype=complex) / 3))


@pytest.mark.parametrize("tau_norm", [0.0, "subnormal", 1e-4, 1e-1])
@pytest.mark.parametrize("dim", [1, 2, 6, 18])
def test_compare_evolutions_equals_the_per_time_path(dim, tau_norm):
    h = random_hamiltonian(dim, OMEGA, seed=30 + dim)
    rho0 = random_state(dim, seed=40 + dim)
    norm = np.max(np.abs(h.eigenvalues))
    tau = 5e-324 if tau_norm == "subnormal" else tau_norm / norm
    t_grid = list(np.linspace(0.2, 5.0, 13) / norm)
    cmp = compare_evolutions(h, rho0, t_grid, tau)
    off = ~np.eye(dim, dtype=bool)
    for t, dist, off_err in zip(t_grid, cmp.trace_distance, cmp.max_offdiag_error):
        exact, approx = exact_map(h, rho0, t, tau).matrix, me2_integrate(h, rho0, t, tau).matrix
        assert abs(dist - trace_distance(exact, approx)) <= 1e-13
        assert abs(off_err - np.abs(exact - approx)[off].max(initial=0.0)) <= 1e-13
    assert cmp.times == t_grid


def test_compare_evolutions_rejects_a_nested_grid():
    with pytest.raises(ValueError, match="sequence of times"):
        compare_evolutions(H_RABI, RHO_G, [[1e-6, 2e-6]], 1e-8)


def test_compare_evolutions_on_an_empty_grid():
    cmp = compare_evolutions(H_RABI, RHO_G, [], 1e-8)
    assert (cmp.times, cmp.trace_distance, cmp.max_offdiag_error) == ([], [], [])


def test_compare_evolutions_blocks_are_independent():
    dim = 18
    block = dynamics_mod._GRID_BLOCK_ENTRIES // dim**2
    h, rho0 = random_hamiltonian(dim, OMEGA, seed=7), random_state(dim, seed=8)
    t_grid = list(np.linspace(0.01, 5.0, block + block // 2 + 1) / OMEGA)
    half = len(t_grid) // 2
    whole = compare_evolutions(h, rho0, t_grid, 1e-2 / OMEGA)
    parts = [compare_evolutions(h, rho0, part, 1e-2 / OMEGA) for part in (t_grid[:half], t_grid[half:])]
    for field in ("trace_distance", "max_offdiag_error"):
        joined = getattr(parts[0], field) + getattr(parts[1], field)
        assert np.allclose(getattr(whole, field), joined, rtol=0, atol=1e-15)


def test_trace_distance_of_a_stack_is_per_matrix():
    a = np.array([random_state(5, seed).matrix for seed in range(4)])
    b = a[[2, 0, 3, 1]]
    stacked = trace_distance(a, b)
    assert stacked.shape == (4,)
    assert np.array_equal(stacked, [trace_distance(x, y) for x, y in zip(a, b)])


def test_compare_evolutions_takes_one_pass_per_grid(monkeypatch):
    h, rho0 = random_hamiltonian(6, OMEGA, seed=2), random_state(6, seed=3)
    calls = {"gamma_char": 0, "eigvalsh": 0}

    def counting(name, fn):
        def spy(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return spy

    monkeypatch.setattr(decoherence_mod, "gamma_char", counting("gamma_char", decoherence_mod.gamma_char))
    monkeypatch.setattr(np.linalg, "eigvalsh", counting("eigvalsh", np.linalg.eigvalsh))
    cmp = compare_evolutions(h, rho0, list(np.linspace(0.5, 5.0, 10) / OMEGA), 1e-2 / OMEGA)
    assert len(cmp.trace_distance) == 10
    assert calls == {"gamma_char": 1, "eigvalsh": 1}


def test_compare_evolutions_memory_does_not_grow_with_the_grid():
    # an unblocked (20000, 18, 18) complex stack is 104 MB
    h, rho0 = random_hamiltonian(18, OMEGA, seed=5), random_state(18, seed=6)
    t_grid = np.linspace(0.01, 5.0, 20_000) / OMEGA
    tracemalloc.start()
    try:
        cmp = compare_evolutions(h, rho0, t_grid, 1e-2 / OMEGA)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(cmp.trace_distance) == 20_000
    assert peak < 32 * 2**20
