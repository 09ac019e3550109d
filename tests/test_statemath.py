import numpy as np
import pytest

from decogate.statemath import (
    ION_LEVELS,
    LOGICAL_INDICES,
    DensityMatrix,
    basis_index,
    hermitian_eigen,
    validate_density,
)


def test_basis_ordering():
    # index = (i1*3 + i2)*2 + phonon with levels ordered (g, e, ep), phonon fastest
    labels = [(l1, l2, ph) for l1 in ION_LEVELS for l2 in ION_LEVELS for ph in (0, 1)]
    assert [basis_index(*label) for label in labels] == list(range(18))


def test_basis_index_matches_labels():
    assert basis_index("g", "g", 0) == 0
    assert basis_index("g", "e", 0) == 2
    assert basis_index("e", "g", 0) == 6
    assert basis_index("e", "e", 0) == 8
    assert basis_index("ep", "ep", 1) == 17


def test_logical_indices_are_computational_zero_phonon():
    assert LOGICAL_INDICES == (0, 2, 6, 8)
    logical = (basis_index(l1, l2, 0) for l1 in ("g", "e") for l2 in ("g", "e"))
    assert tuple(logical) == LOGICAL_INDICES


def test_basis_index_rejects_bad_labels():
    with pytest.raises(ValueError):
        basis_index("x", "g", 0)
    with pytest.raises(ValueError):
        basis_index("g", "g", 2)


def test_hermitian_eigen_residual():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    h = 0.5 * (a + a.conj().T)
    w, v = hermitian_eigen(h)
    residual = np.abs(h @ v - v * w).max()
    assert residual < 1e-12 * max(1.0, np.abs(w).max())
    assert np.abs(v.conj().T @ v - np.eye(8)).max() < 1e-12


def test_hermitian_eigen_rejects_non_hermitian():
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_eigen(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_hermitian_eigen_rejects_non_finite(bad):
    # NaN compares false, so the Hermiticity check alone would pass it
    with pytest.raises(ValueError, match="non-finite"):
        hermitian_eigen(np.array([[0.0, bad], [np.conj(bad), 0.0]]))


def test_validate_density_accepts_valid_state():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    report = validate_density(DensityMatrix(rho))
    assert report.ok
    assert report.hermitian_ok and report.trace_ok and report.positive_ok


def test_validate_density_flags_violations():
    bad_trace = validate_density(np.eye(2))
    assert not bad_trace.trace_ok and not bad_trace.ok

    bad_herm = validate_density(np.array([[0.5, 0.1j], [0.3j, 0.5]]))
    assert not bad_herm.hermitian_ok

    bad_pos = validate_density(np.diag([1.5, -0.5]).astype(complex))
    assert not bad_pos.positive_ok


def test_density_matrix_requires_square():
    with pytest.raises(ValueError):
        DensityMatrix(np.zeros((2, 3)))
