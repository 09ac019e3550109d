"""Ideal and area-parameterized trapped-ion gate actions.

One-bit gates are resonant carrier rotations on a single ion.  The universal
two-bit (conditional-phase) gate is the three-pulse sideband sequence
pi (ion 1, q=0) / 2pi (ion 2, q=1) / pi (ion 1, q=0), acting on the
18-dimensional space of two three-level ions and the {0,1} phonon states of
the center-of-mass mode.  Each sideband pulse rotates the two-dimensional
blocks {|excited>_n |0>, |g>_n |1>} and leaves every other basis state alone;
that block structure is exact for all states reachable from the logical
register, which is what justifies the phonon truncation.

Every pulse is written once as parts (q, r, b), U(A) = q + cos(A/2) r +
sin(A/2) b: r projects onto the rotated blocks, q = 1 - r, and b is their
off-diagonal part (`carrier_parts`, `pulse_parts`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .statemath import basis_index

DIM = 18

PI = math.pi


@dataclass(frozen=True)
class GateContext:
    """Physical gate parameters; omega_prime is the sideband Rabi frequency."""

    omega: float
    eta: float
    n_ions: int
    tau: float
    phi: float = 0.0

    def __post_init__(self):
        for name in ("omega", "eta", "tau", "phi"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.omega <= 0:
            raise ValueError("Rabi frequency must be positive")
        if not 0 < self.eta < 1:
            raise ValueError("Lamb-Dicke parameter must be in (0, 1)")
        if self.n_ions < 1:
            raise ValueError("need at least one trapped ion")
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")
        if self.omega_prime == 0:
            raise ValueError(f"sideband Rabi frequency eta*omega/sqrt(n_ions) underflows to 0 "
                             f"at omega={self.omega}")

    @property
    def omega_prime(self) -> float:
        return self.eta * self.omega / math.sqrt(self.n_ions)


@dataclass(frozen=True)
class PulseStep:
    """One sideband pulse: which ion, which polarization, nominal area."""

    target_ion: int
    polarization: int
    nominal_area: float

    def __post_init__(self):
        if self.target_ion not in (1, 2):
            raise ValueError("target ion must be 1 or 2")
        if self.polarization not in (0, 1):
            raise ValueError("polarization q must be 0 or 1")


# The universal gate sequence: pi / 2pi / pi.
UNIVERSAL_SEQUENCE = (
    PulseStep(target_ion=1, polarization=0, nominal_area=PI),
    PulseStep(target_ion=2, polarization=1, nominal_area=2 * PI),
    PulseStep(target_ion=1, polarization=0, nominal_area=PI),
)


def carrier_parts(phi: float = 0.0) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q, r, b) of the carrier rotation on {|g>, |e>}: it rotates the whole
    space, so q = 0 and r = 1, and b = [[0, -i e^{-i phi}], [-i e^{i phi}, 0]]."""
    b = np.array([[0.0, -1j * np.exp(-1j * phi)], [-1j * np.exp(1j * phi), 0.0]])
    return np.zeros((2, 2)), np.eye(2), b


def one_bit_unitary(area: float, phi: float = 0.0) -> np.ndarray:
    """Carrier rotation on {|g>, |e>}: |g> -> cos(A/2)|g> - i e^{i phi}
    sin(A/2)|e>, |e> -> cos(A/2)|e> - i e^{-i phi} sin(A/2)|g>."""
    if not (math.isfinite(area) and math.isfinite(phi)):
        raise ValueError(f"area and phi must be finite, got area={area}, phi={phi}")
    q, r, b = carrier_parts(phi)
    return q + math.cos(0.5 * area) * r + math.sin(0.5 * area) * b


def coupled_pairs(step: PulseStep) -> list[tuple[int, int]]:
    """Index pairs (|excited>_n |0>, |g>_n |1>) rotated by the pulse, one per
    spectator level of the other ion."""
    excited = "e" if step.polarization == 0 else "ep"
    pairs = []
    for spectator in ("g", "e", "ep"):
        if step.target_ion == 1:
            hi = basis_index(excited, spectator, 0)
            lo = basis_index("g", spectator, 1)
        else:
            hi = basis_index(spectator, excited, 0)
            lo = basis_index(spectator, "g", 1)
        pairs.append((hi, lo))
    return pairs


def pulse_parts(step: PulseStep) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q, r, b) of the 18x18 pulse unitary U(A) = q + cos(A/2) r + sin(A/2) b:
    r projects onto the coupled_pairs blocks, q = 1 - r, and b = -i on the
    blocks' off-diagonal."""
    r = np.zeros((DIM, DIM))
    b = np.zeros((DIM, DIM), dtype=complex)
    for hi, lo in coupled_pairs(step):
        r[hi, hi] = r[lo, lo] = 1.0
        b[hi, lo] = b[lo, hi] = -1j
    return np.eye(DIM) - r, r, b


def ideal_two_bit_gate() -> np.ndarray:
    """Conditional phase gate: |e>|e>|0> picks up -1, everything else +1."""
    u = np.eye(DIM, dtype=complex)
    ee0 = basis_index("e", "e", 0)
    u[ee0, ee0] = -1.0
    return u
