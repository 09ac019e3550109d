"""Exact averaged evolution vs the second-order phase-destroying equation.

The exact averaged map acts diagonally in the Hamiltonian eigenbasis (decay
and shift per energy gap); its second-order-in-tau truncation is the familiar
double-commutator master equation d rho/dt = -i[H, rho] - (tau/2)[H,[H, rho]].
That equation is linear, time-invariant and diagonal in the same basis, so it
is solved in closed form per gap w: rho_nm(t) = e^{-i w t - tau w^2 t/2}
rho_nm(0).  compare_evolutions quantifies the truncation error between the two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .decoherence import evolve_energy_basis
from .statemath import DensityMatrix, hermitian_eigen


@dataclass
class HamiltonianSpec:
    """Hermitian Hamiltonian in units of rad/s (hbar = 1)."""

    matrix: np.ndarray
    basis: list | None = None

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        # eigendecomposition validates Hermiticity and is reused by exact_map
        self._eigvals, self._eigvecs = hermitian_eigen(self.matrix)

    @property
    def eigenvalues(self) -> np.ndarray:
        return self._eigvals

    @property
    def eigenvectors(self) -> np.ndarray:
        return self._eigvecs

    @property
    def spectral_norm(self) -> float:
        return float(np.max(np.abs(self._eigvals)))


@dataclass
class EvolutionComparison:
    times: list[float]
    trace_distance: list[float]
    max_offdiag_error: list[float] = field(default_factory=list)


def _check_domain(times, tau: float, energies) -> None:
    """Raise unless tau and the times are in domain and, for the largest gap
    w (energies ascending), w, w t and tau t w^2 / 2 are finite."""
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError(f"tau must be finite and nonnegative, got {tau}")
    if not all(math.isfinite(t) and t > 0 for t in times):
        raise ValueError("times must be finite and positive")
    # as Python floats, an overflow is an inf and no numpy warning
    span = float(energies[-1]) - float(energies[0])
    if not all(math.isfinite(span * t) and math.isfinite(0.5 * tau * t * span * span) for t in times):
        raise ValueError(f"the energy gap {span} overflows the phase or the decay exponent")


def _me2_energy_basis(rho_eig: DensityMatrix, energies, t: float, tau: float) -> DensityMatrix:
    """Second-order truncation of evolve_energy_basis: the exact solution of the
    double-commutator master equation, e^{-i w t - tau w^2 t/2} per gap w."""
    gaps = energies[:, None] - energies[None, :]
    # tau t first: at tau = 0 the decay is 0 even where gaps**2 would overflow
    return DensityMatrix(rho_eig.matrix * np.exp(-1j * gaps * t - 0.5 * tau * t * gaps * gaps))


def _in_eigenbasis(evolve, h: HamiltonianSpec, rho0: DensityMatrix, t: float, tau: float) -> DensityMatrix:
    """Rotate to the eigenbasis, apply the per-gap factors of `evolve`, rotate back."""
    _check_domain([t], tau, h.eigenvalues)
    v = h.eigenvectors
    rho_eig = DensityMatrix(v.conj().T @ rho0.matrix @ v)
    evolved = evolve(rho_eig, h.eigenvalues, t, tau)
    return DensityMatrix(v @ evolved.matrix @ v.conj().T, basis=rho0.basis)


def exact_map(h: HamiltonianSpec, rho0: DensityMatrix, t: float, tau: float) -> DensityMatrix:
    """Exact averaged evolution: per-gap decay and shift factors E[e^{-i w t'}]
    (decoherence.gamma_char) in the eigenbasis."""
    return _in_eigenbasis(evolve_energy_basis, h, rho0, t, tau)


def me2_integrate(h: HamiltonianSpec, rho0: DensityMatrix, t: float, tau: float) -> DensityMatrix:
    """Closed-form solution of the second-order phase-destroying master equation.

    The double commutator is a Lindblad dephasing with L = sqrt(tau) H, so the
    result is a valid density matrix for every t > 0 and tau >= 0.
    """
    return _in_eigenbasis(_me2_energy_basis, h, rho0, t, tau)


def trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    w = np.linalg.eigvalsh(0.5 * ((a - b) + (a - b).conj().T))
    return 0.5 * float(np.sum(np.abs(w)))


def compare_evolutions(
    h: HamiltonianSpec,
    rho0: DensityMatrix,
    t_grid,
    tau: float,
) -> EvolutionComparison:
    """Per-time trace distance and max off-diagonal deviation between the
    exact averaged map and the second-order truncation."""
    t_grid = list(t_grid)
    _check_domain(t_grid, tau, h.eigenvalues)
    if any(t_grid[k] >= t_grid[k + 1] for k in range(len(t_grid) - 1)):
        raise ValueError("t_grid must be ascending")
    v = h.eigenvectors
    rho_eig = DensityMatrix(v.conj().T @ rho0.matrix @ v)
    offdiag_mask = ~np.eye(rho0.dim, dtype=bool)
    dists, offs = [], []
    for t in t_grid:
        exact = evolve_energy_basis(rho_eig, h.eigenvalues, t, tau).matrix
        me2 = _me2_energy_basis(rho_eig, h.eigenvalues, t, tau).matrix
        # the trace distance is basis-independent; the off-diagonal error is not
        dists.append(trace_distance(exact, me2))
        delta = v @ (exact - me2) @ v.conj().T
        offs.append(float(np.max(np.abs(delta[offdiag_mask]))) if rho0.dim > 1 else 0.0)
    return EvolutionComparison(times=t_grid, trace_distance=dists, max_offdiag_error=offs)
