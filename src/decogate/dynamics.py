"""Exact averaged evolution vs the second-order phase-destroying equation.

The exact averaged map acts diagonally in the Hamiltonian eigenbasis (decay
and shift per energy gap); its second-order-in-tau truncation is the familiar
double-commutator master equation d rho/dt = -i[H, rho] - (tau/2)[H,[H, rho]].
That equation is linear, time-invariant and diagonal in the same basis, so it
is solved in closed form per gap w: rho_nm(t) = e^{-i w t - tau w^2 t/2}
rho_nm(0).  Both are fixed per-gap factors in time: the exact one is e^{t z}
for the unit-time exponent z of each gap (decoherence.gap_exponents).

compare_evolutions quantifies the truncation error between the two over a
time grid in one batched pass per block of grid times: z once per gap, both
factor stacks by broadcasting the times, one stacked eigvalsh for the trace
distances and one stacked rotation for the off-diagonal errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .decoherence import gap_exponents
from .statemath import DensityMatrix, hermitian_eigen


@dataclass
class HamiltonianSpec:
    """Hermitian Hamiltonian in rad/s (hbar = 1), eigenvalues ascending."""

    matrix: np.ndarray
    eigenvalues: np.ndarray = field(init=False)
    eigenvectors: np.ndarray = field(init=False)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        # eigendecomposition validates Hermiticity and is reused by every evolution
        self.eigenvalues, self.eigenvectors = hermitian_eigen(self.matrix)


@dataclass
class EvolutionComparison:
    times: list[float]
    trace_distance: list[float]
    max_offdiag_error: list[float]


def _check_domain(times: np.ndarray, tau: float, energies) -> None:
    """Raise unless tau and the times are in domain and, for the largest gap
    w (energies ascending) and the latest time t, w, w t and tau t w^2 / 2
    are finite."""
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError(f"tau must be finite and nonnegative, got {tau}")
    if not (np.isfinite(times).all() and (times > 0).all()):
        raise ValueError("times must be finite and positive")
    # as Python floats, an overflow is an inf and no numpy warning; both
    # products grow with t, so the latest time bounds them all (and an
    # empty grid forms none)
    span, t = float(energies[-1]) - float(energies[0]), float(times.max(initial=0.0))
    if times.size and not (math.isfinite(span * t) and math.isfinite(0.5 * tau * t * span * span)):
        raise ValueError(f"the energy gap {span} overflows the phase or the decay exponent")


def _eigenbasis_state(h: HamiltonianSpec, rho0: DensityMatrix) -> np.ndarray:
    """rho0 in the eigenbasis of H, once their dimensions are checked to agree."""
    if rho0.dim != len(h.eigenvalues):
        raise ValueError(f"the state's dimension {rho0.dim} does not match "
                         f"the Hamiltonian's {len(h.eigenvalues)}")
    v = h.eigenvectors
    return v.conj().T @ rho0.matrix @ v


def _gaps(energies: np.ndarray) -> np.ndarray:
    """The energy gaps w_nm = E_n - E_m."""
    return energies[:, None] - energies[None, :]


def _me2_factors(gaps: np.ndarray, t, tau: float) -> np.ndarray:
    """Second-order truncation of the exact factors e^{t z} (gap_exponents):
    the double-commutator equation's solution e^{-i w t - tau w^2 t/2} per gap
    w, for a time t or an array of times that broadcasts against gaps."""
    # tau t first: at tau = 0 the decay is 0 even where gaps**2 would overflow
    return np.exp(-1j * gaps * t - 0.5 * tau * t * gaps * gaps)


def _checked_gaps(h: HamiltonianSpec, t: float, tau: float) -> np.ndarray:
    """H's energy gaps once t and tau pass _check_domain, before any factor is formed."""
    _check_domain(np.array([t], dtype=float), tau, h.eigenvalues)
    return _gaps(h.eigenvalues)


def _in_eigenbasis(h: HamiltonianSpec, rho0: DensityMatrix, factors: np.ndarray) -> DensityMatrix:
    """rho0 in the eigenbasis of H times the per-gap factors, rotated back."""
    v = h.eigenvectors
    return DensityMatrix(v @ (_eigenbasis_state(h, rho0) * factors) @ v.conj().T)


def exact_map(h: HamiltonianSpec, rho0: DensityMatrix, t: float, tau: float) -> DensityMatrix:
    """Exact averaged evolution: rho_nm(t) = e^{t z_nm} rho_nm(0) in the eigenbasis
    for the unit-time exponent z = -gamma - i nu of each gap w_nm = E_n - E_m
    (decoherence.gap_exponents); the populations there keep their bits."""
    return _in_eigenbasis(h, rho0, np.exp(t * gap_exponents(_checked_gaps(h, t, tau), tau)))


def me2_integrate(h: HamiltonianSpec, rho0: DensityMatrix, t: float, tau: float) -> DensityMatrix:
    """Closed-form solution of the second-order phase-destroying master equation.

    The double commutator is a Lindblad dephasing with L = sqrt(tau) H, so the
    result is a valid density matrix for every t > 0 and tau >= 0.
    """
    return _in_eigenbasis(h, rho0, _me2_factors(_checked_gaps(h, t, tau), t, tau))


def trace_distance(a: np.ndarray, b: np.ndarray):
    """Trace distance ||a - b||_1 / 2 of Hermitian a and b, from the
    eigenvalues of the difference's Hermitian part; stacks (..., n, n) give
    an array (...) of distances, one eigvalsh for the whole stack."""
    d = a - b
    w = np.linalg.eigvalsh(0.5 * (d + np.swapaxes(d, -1, -2).conj()))
    dist = 0.5 * np.abs(w).sum(axis=-1)
    return float(dist) if dist.ndim == 0 else dist


# Entries in each (times, n, n) stack of a compare_evolutions block; bounds
# working memory, not the result.  Grids of up to 202 times at dimension 18
# (2**16 / 18**2) run in one block.
_GRID_BLOCK_ENTRIES = 2**16


def compare_evolutions(
    h: HamiltonianSpec,
    rho0: DensityMatrix,
    t_grid,
    tau: float,
) -> EvolutionComparison:
    """Per-time trace distance and max off-diagonal deviation between the
    exact averaged map and the second-order truncation.

    Each gap's exact exponent is computed once; each block of grid times
    then takes both factor stacks by broadcasting, one stacked eigvalsh for
    the trace distances and one stacked rotation for the off-diagonal errors.
    """
    rho_eig = _eigenbasis_state(h, rho0)
    t_grid = list(t_grid)
    times = np.asarray(t_grid, dtype=float)
    if times.ndim != 1:
        raise ValueError("t_grid must be a sequence of times")
    _check_domain(times, tau, h.eigenvalues)
    if np.any(times[1:] <= times[:-1]):
        raise ValueError("t_grid must be ascending")
    if not t_grid:
        return EvolutionComparison(times=[], trace_distance=[], max_offdiag_error=[])
    v, gaps = h.eigenvectors, _gaps(h.eigenvalues)
    exponents = gap_exponents(gaps, tau)
    offdiag = ~np.eye(len(gaps), dtype=bool)
    block = max(1, _GRID_BLOCK_ENTRIES // gaps.size)
    dists, offs = [], []
    for start in range(0, len(times), block):
        t = times[start:start + block, None, None]
        exact, me2 = rho_eig * np.exp(t * exponents), rho_eig * _me2_factors(gaps, t, tau)
        # the trace distance is basis-independent; the off-diagonal error is not
        dists += trace_distance(exact, me2).tolist()
        delta = np.abs(v @ (exact - me2) @ v.conj().T)
        offs += delta[:, offdiag].max(axis=1, initial=0.0).tolist()
    return EvolutionComparison(times=t_grid, trace_distance=dists, max_offdiag_error=offs)
