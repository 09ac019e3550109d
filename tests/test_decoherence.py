import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decogate.decoherence import (
    AreaDistribution,
    DegenerateDistributionError,
    TimeDistribution,
    averaged_phase_factor,
    decay_rates,
    evolve_energy_basis,
    gamma_char,
    kernel_integrals,
    mc_average,
    quad_average,
    quad_cdf_grid,
)
from decogate.statemath import DensityMatrix


# --- distribution basics -------------------------------------------------


@pytest.mark.parametrize("shape", [0.5, 1.0, 10.0, 3141.59])
def test_pdf_normalization_and_moments(shape):
    tau = 1e-3
    dist = TimeDistribution(t=shape * tau, tau=tau)
    norm = quad_average(lambda x: np.ones_like(x), dist)
    mean = quad_average(lambda x: x, dist)
    second = quad_average(lambda x: x * x, dist)
    assert norm == pytest.approx(1.0, abs=1e-8)
    assert mean == pytest.approx(dist.mean, rel=1e-6)
    assert second - mean**2 == pytest.approx(dist.variance, rel=1e-6)


def test_mode_at_t_minus_tau():
    # for shape > 1 the gamma mode sits at (k-1)*scale = t - tau
    t, tau = 1.0, 0.05
    dist = TimeDistribution(t=t, tau=tau)
    grid = np.linspace(0.5, 1.5, 20001)
    pdf = dist.pdf(grid)
    assert grid[np.argmax(pdf)] == pytest.approx(t - tau, abs=2e-4)


def test_degenerate_distribution_raises():
    dist = TimeDistribution(t=1.0, tau=0.0)
    with pytest.raises(DegenerateDistributionError):
        dist.pdf(1.0)
    area = AreaDistribution(t=1.0, tau=0.0, omega_mean=1.0)
    with pytest.raises(DegenerateDistributionError):
        area.sample(np.random.default_rng(0), 10)


@pytest.mark.parametrize(
    "make",
    [
        lambda bad: TimeDistribution(t=bad, tau=1e-8),
        lambda bad: TimeDistribution(t=1e-5, tau=bad),
        lambda bad: AreaDistribution(t=bad, tau=1e-8, omega_mean=1e5),
        lambda bad: AreaDistribution(t=1e-5, tau=bad, omega_mean=1e5),
        lambda bad: AreaDistribution(t=1e-5, tau=1e-8, omega_mean=bad),
    ],
)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
def test_distributions_reject_out_of_domain(make, bad):
    with pytest.raises(ValueError):
        make(bad)


def test_fractional_error_scaling():
    dist = AreaDistribution(t=1e-4, tau=1e-8, omega_mean=1e5)
    assert math.sqrt(dist.variance) / dist.mean == pytest.approx(
        math.sqrt(dist.tau / dist.t), rel=1e-12
    )


# --- sampler vs pdf ------------------------------------------------------


@pytest.mark.parametrize("shape", [0.5, 2.0, 100.0])
def test_sampler_ks_against_quadrature_cdf(shape):
    tau = 1e-2
    dist = AreaDistribution(t=shape * tau, tau=tau, omega_mean=1.0)
    rng = np.random.default_rng(42)
    n = 1_000_000
    samples = np.sort(dist.sample(rng, n))
    grid, cdf = quad_cdf_grid(dist)
    model = np.interp(samples, grid, cdf, left=0.0, right=1.0)
    empirical = np.arange(1, n + 1) / n
    ks = np.abs(empirical - model).max()
    assert ks < 0.002


def test_sampler_gaussian_limit_skewness():
    # t/tau >= 1e4: sample skewness should be tiny (theory 2/sqrt(k) = 0.02)
    dist = AreaDistribution(t=1.0, tau=1e-4, omega_mean=1.0)
    rng = np.random.default_rng(1)
    x = dist.sample(rng, 1_000_000)
    z = (x - x.mean()) / x.std()
    assert abs(np.mean(z**3)) < 0.05


# --- Gamma characteristic function ---------------------------------------

_bad_scale = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]), st.floats(max_value=-5e-324)
)
_scale_ok = st.floats(0.0, 1e6)


@settings(max_examples=200, deadline=None)
@given(
    omega=st.floats(-1e12, 1e12),
    bad=_bad_scale,
    good=_scale_ok,
    bad_is_t=st.booleans(),
)
def test_gamma_char_rejects_out_of_domain(omega, bad, good, bad_is_t):
    t, tau = (bad, good) if bad_is_t else (good, bad)
    with pytest.raises(ValueError):
        gamma_char(omega, t, tau)


@settings(max_examples=300, deadline=None)
@given(
    omega=st.floats(-1e12, 1e12),
    t=st.floats(0.0, 1e6),
    tau=st.one_of(st.just(0.0), st.floats(1e-30, 1e3)),
)
def test_gamma_char_finite_with_modulus_at_most_one(omega, t, tau):
    log_modulus, angle = gamma_char(omega, t, tau)
    assert math.isfinite(log_modulus) and math.isfinite(angle)
    assert log_modulus <= 0.0


@pytest.mark.parametrize(
    "closed_form",
    [
        lambda tau: averaged_phase_factor(1e5, 1e-4, tau),
        lambda tau: decay_rates(1e5, tau),
        lambda tau: evolve_energy_basis(DensityMatrix(np.eye(2) / 2), [0.0, 1e5], 1e-4, tau),
        lambda tau: kernel_integrals(1e-4, 1e5, tau),
    ],
)
@pytest.mark.parametrize("tau", [math.nan, math.inf, -1e-8])
def test_closed_forms_reject_bad_tau(closed_form, tau):
    with pytest.raises(ValueError, match="tau"):
        closed_form(tau)


def test_gamma_char_is_elementwise_in_omega_and_matches_the_complex_power():
    omega = np.array([[-3e5, 0.0], [1e4, 2e5]])
    t, tau = 3e-5, 1e-7
    log_modulus, angle = gamma_char(omega, t, tau)
    assert log_modulus.shape == angle.shape == (2, 2)
    want = (1 - 1j * omega * tau) ** (-t / tau)
    assert np.allclose(np.exp(log_modulus + 1j * angle), want, rtol=1e-12, atol=0)
    # tau = 0 is the delta at t
    log_modulus, angle = gamma_char(omega, t, 0.0)
    assert np.array_equal(log_modulus, np.zeros((2, 2))) and np.array_equal(angle, omega * t)


# --- averaged phase factor -----------------------------------------------


def test_phase_factor_example():
    # Omega*tau = 1e-3 pi rotation: magnitude e^{-gamma t}, phase -(pi - 1.047e-6)
    val = averaged_phase_factor(1e5, math.pi / 1e5, 1e-8)
    assert abs(val) == pytest.approx(0.9984304375, rel=1e-9)
    assert np.angle(val) == pytest.approx(-(math.pi - 1.047197e-6), abs=1e-11)


def test_phase_factor_quadrature_oracle():
    omega, t, tau = 2e4, 1e-4, 1e-7
    closed = averaged_phase_factor(omega, t, tau)
    dist = TimeDistribution(t=t, tau=tau)
    re = quad_average(lambda x: np.cos(omega * x), dist)
    im = -quad_average(lambda x: np.sin(omega * x), dist)
    assert abs(closed - complex(re, im)) < 1e-9


def test_phase_factor_delta_limit():
    omega, t = 1e5, 1e-4
    assert averaged_phase_factor(omega, t, 0.0) == pytest.approx(
        complex(math.cos(omega * t), -math.sin(omega * t)), abs=1e-15
    )


@settings(max_examples=200, deadline=None)
@given(
    omega=st.floats(1e2, 1e6),
    tau=st.floats(1e-10, 1e-5),
    t1=st.floats(1e-7, 1e-3),
    t2=st.floats(1e-7, 1e-3),
)
def test_phase_factor_semigroup(omega, tau, t1, t2):
    lhs = averaged_phase_factor(omega, t1 + t2, tau)
    rhs = averaged_phase_factor(omega, t1, tau) * averaged_phase_factor(omega, t2, tau)
    assert abs(lhs - rhs) < 1e-12


# --- decay rates and energy-basis evolution -------------------------------


def test_decay_rates_example():
    ch = decay_rates(1e5, 1e-8)
    assert ch.gamma == pytest.approx(50.0, rel=1e-5)
    assert ch.nu == pytest.approx(99999.9667, rel=1e-8)


def test_decay_rates_small_tau_expansion():
    # for w*tau << 1: gamma -> w^2 tau / 2 and nu -> w
    omega, tau = 1e4, 1e-9
    ch = decay_rates(omega, tau)
    assert ch.gamma == pytest.approx(0.5 * omega**2 * tau, rel=1e-6)
    assert ch.nu == pytest.approx(omega, rel=1e-6)


def test_decay_rates_delta_limit():
    ch = decay_rates(1e5, 0.0)
    assert ch.gamma == 0.0 and ch.nu == 1e5


def test_evolve_energy_basis_preserves_diagonal_bitwise():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    out = evolve_energy_basis(DensityMatrix(rho), np.array([0.0, 1e4, 5e4]), 1e-4, 1e-7)
    assert np.array_equal(np.diag(out.matrix), np.diag(rho))


def test_evolve_energy_basis_offdiagonal_decay():
    rho = 0.5 * np.ones((2, 2), dtype=complex)
    energies = np.array([0.0, 1e5])
    t, tau = 1e-4, 1e-7
    out = evolve_energy_basis(DensityMatrix(rho), energies, t, tau)
    expected = 0.5 * averaged_phase_factor(1e5, t, tau).conjugate()
    # rho_{01} evolves with omega_{01} = E_0 - E_1 = -1e5
    assert out.matrix[0, 1] == pytest.approx(expected, rel=1e-12)
    assert out.matrix[1, 0] == pytest.approx(expected.conjugate(), rel=1e-12)


# --- kernel integrals ------------------------------------------------------


@pytest.mark.parametrize("op_tau", [1e-4, 1e-3, 1e-2])
@pytest.mark.parametrize("n_half_turns", [1, 2])
def test_kernel_integrals_vs_quadrature(op_tau, n_half_turns):
    omega_p = 1e5
    tau = op_tau / omega_p
    t = n_half_turns * math.pi / omega_p
    k = kernel_integrals(t, omega_p, tau)
    dist = AreaDistribution(t=t, tau=tau, omega_mean=omega_p)
    assert k.c1 == pytest.approx(quad_average(lambda a: np.cos(a / 2), dist), abs=1e-9)
    assert k.s1 == pytest.approx(quad_average(lambda a: np.sin(a / 2), dist), abs=1e-9)
    assert k.c2 == pytest.approx(quad_average(lambda a: np.cos(a / 2) ** 2, dist), abs=1e-9)
    assert k.s2 == pytest.approx(quad_average(lambda a: np.sin(a / 2) ** 2, dist), abs=1e-9)
    assert k.z == pytest.approx(
        quad_average(lambda a: np.sin(a / 2) * np.cos(a / 2), dist), abs=1e-9
    )
    assert k.s2 == pytest.approx(1.0 - k.c2, abs=1e-15)


def test_kernel_integrals_delta_limit():
    omega_p, t = 1e5, math.pi / 2e5
    k = kernel_integrals(t, omega_p, 0.0)
    half = 0.5 * omega_p * t
    assert k.c1 == pytest.approx(math.cos(half), abs=1e-15)
    assert k.s1 == pytest.approx(math.sin(half), abs=1e-15)
    assert k.c2 == pytest.approx(math.cos(half) ** 2, abs=1e-15)
    assert k.z == pytest.approx(0.5 * math.sin(omega_p * t), abs=1e-15)


def test_kernel_first_moment_mc():
    dist = AreaDistribution(t=math.pi / 1e5, tau=1e-8, omega_mean=1e5)
    rng = np.random.default_rng(11)
    mean, stderr = mc_average(lambda a: np.cos(a / 2), dist, 200_000, rng)
    ref = quad_average(lambda a: np.cos(a / 2), dist)
    assert abs(mean - ref) < 5 * stderr


def test_frozen_c1_full_turn():
    # C1 at nominal area 2*pi, Omega'*tau = 1e-3 (oracle-derived value; both
    # adaptive quadrature and 1e6-sample Monte Carlo agree to their precision)
    omega_p = 1e3
    tau = 1e-3 / omega_p
    k = kernel_integrals(2 * math.pi / omega_p, omega_p, tau)
    assert k.c1 == pytest.approx(-0.9992149102790738, abs=1e-12)
