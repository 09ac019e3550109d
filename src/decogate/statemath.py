"""Dense complex linear algebra on small Hilbert spaces.

Everything here operates on plain numpy complex arrays; the spaces involved
never exceed dimension 18 (two three-level ions times a two-level phonon
mode), so dense storage is used throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Numerical tolerances for density-matrix validity.
HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
EIGENVALUE_FLOOR = -1e-10

# Internal levels of one ion: ground, excited, auxiliary excited.
ION_LEVELS = ("g", "e", "ep")


def basis_index(ion1_level: str, ion2_level: str, phonon: int) -> int:
    """Index of |ion1, ion2, phonon> in the 18-state basis: levels in
    ION_LEVELS order, phonon fastest."""
    if ion1_level not in ION_LEVELS or ion2_level not in ION_LEVELS:
        raise ValueError(f"unknown ion level in ({ion1_level!r}, {ion2_level!r})")
    if phonon not in (0, 1):
        raise ValueError(f"phonon number must be 0 or 1, got {phonon}")
    return (ION_LEVELS.index(ion1_level) * 3 + ION_LEVELS.index(ion2_level)) * 2 + phonon


# Logical computational basis |g g 0>, |g e 0>, |e g 0>, |e e 0>.
LOGICAL_INDICES = (
    basis_index("g", "g", 0),
    basis_index("g", "e", 0),
    basis_index("e", "g", 0),
    basis_index("e", "e", 0),
)


def hermiticity_error(m: np.ndarray) -> float:
    return float(np.max(np.abs(m - m.conj().T)))


def hermitian_eigen(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns (eigenvalues ascending, eigenvector matrix V) with m = V diag(w) V†.
    Raises ValueError if an entry is not finite or the input fails the
    Hermiticity tolerance.
    """
    m = np.asarray(m, dtype=complex)
    if not np.all(np.isfinite(m)):
        raise ValueError("non-finite entries")
    if hermiticity_error(m) > HERMITICITY_TOL * max(1.0, float(np.max(np.abs(m)))):
        raise ValueError("not Hermitian")
    w, v = np.linalg.eigh(m)
    return w, v


@dataclass
class DensityMatrix:
    """Complex Hermitian unit-trace matrix."""

    matrix: np.ndarray

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("density matrix must be square")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass
class ValidityReport:
    hermiticity_error: float
    trace_error: float
    min_eigenvalue: float
    hermitian_ok: bool = field(init=False)
    trace_ok: bool = field(init=False)
    positive_ok: bool = field(init=False)

    def __post_init__(self):
        self.hermitian_ok = self.hermiticity_error <= HERMITICITY_TOL
        self.trace_ok = self.trace_error <= TRACE_TOL
        self.positive_ok = self.min_eigenvalue >= EIGENVALUE_FLOOR

    @property
    def ok(self) -> bool:
        return self.hermitian_ok and self.trace_ok and self.positive_ok


def validate_density(rho: DensityMatrix | np.ndarray) -> ValidityReport:
    """Check Hermiticity, unit trace, and positivity of a candidate state."""
    m = rho.matrix if isinstance(rho, DensityMatrix) else np.asarray(rho, dtype=complex)
    herm = hermiticity_error(m)
    tr = abs(float(np.trace(m).real) - 1.0) + abs(float(np.trace(m).imag))
    # eigh of the symmetrized matrix; symmetrization changes nothing when the
    # Hermiticity check passes and keeps the report well defined when it fails
    w = np.linalg.eigvalsh(0.5 * (m + m.conj().T))
    return ValidityReport(
        hermiticity_error=herm,
        trace_error=tr,
        min_eigenvalue=float(w[0]),
    )
