import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from decogate import decoherence, validate
from decogate.decoherence import (
    MIN_MC_SAMPLES,
    AreaDistribution,
    DegenerateDistributionError,
    averaged_phase_factor,
    deviation_char,
    gamma_char,
    gap_exponents,
    gauss_average,
    kernel_integrals,
    mc_average,
    quad_average,
    sample_area,
)
from decogate.dynamics import HamiltonianSpec, exact_map
from decogate.fidelity import _u
from decogate.statemath import DensityMatrix


def gap_rates(omega: float, tau: float) -> tuple[float, float]:
    """(gamma, nu) of the gap omega, from gap_exponents on the 2x2 gaps
    [[0, omega], [-omega, 0]]: z = -gamma - i nu."""
    z = gap_exponents(np.array([[0.0, omega], [-omega, 0.0]]), tau)[0, 1]
    return -z.real, -z.imag


# --- distribution basics -------------------------------------------------


@pytest.mark.parametrize("shape", [1e-2, 0.3, 1.0, 3.99, 4.0, 31.4, 1e4, 1e7, 1e10])
def test_gauss_rule_normalisation_and_moments(shape):
    # both branches of the rule: Gauss-Jacobi below shape 4, Laguerre above;
    # the central moment, since E[A^2] - mean^2 cancels at large shape
    dist = AreaDistribution(t=shape * 1e-3, tau=1e-3, omega_mean=1.0)

    def moments(a):
        return np.stack([np.ones_like(a), a, (a - dist.mean) ** 2], axis=-1)

    (norm, mean, var), _ = gauss_average(lambda dev: moments(dist.mean + dev), dist)
    assert norm == pytest.approx(1.0, rel=1e-11)
    assert mean == pytest.approx(dist.mean, rel=1e-11)
    assert var == pytest.approx(dist.variance, rel=1e-11)


def test_quad_average_calls_f_with_python_floats():
    seen = set()

    def f(a):
        seen.add(type(a))
        return math.cos(a)

    for dist in (AreaDistribution(1.0, 0.1, 1.0), AreaDistribution(1.0, 1.0, 1.0)):
        quad_average(f, dist)
    assert seen == {float}


def test_quadratures_of_one_distribution_reuse_its_gauss_rules():
    # every pulse kernel of one distribution is checked by its own quadrature
    dist = AreaDistribution(math.pi / 1e5, 1e-9, 1e5)
    decoherence._gamma_rule.cache_clear()
    first = quad_average(lambda a: math.cos(a / 2), dist)
    built = decoherence._gamma_rule.cache_info().misses
    assert quad_average(lambda a: math.cos(a / 2), dist) == first
    info = decoherence._gamma_rule.cache_info()
    assert built >= 2 and (info.misses, info.hits) == (built, built)


def test_cached_gauss_rule_is_read_only():
    for shape in (0.3, 31.4):
        for array in decoherence._gamma_rule(shape, 8):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0.0


@pytest.mark.parametrize("shape", [4.0, 7.5, 31.4, 1e4, 1e10, 1e14])
def test_laguerre_rule_reproduces_the_gamma_moments_through_degree_five(shape):
    # an n-point Gauss rule integrates every polynomial of degree up to
    # 2n - 1 exactly, so it holds the standardized Gamma's moments 1, 0, 1,
    # 2/sqrt(k), 3 + 6/k and 20/sqrt(k) + 24/k^(3/2).  Shapes below 4 are left
    # out: their rule is Gauss-Jacobi on [0, 50] with e^-x moved into the
    # weights, which is not exact for low-degree polynomials.
    r = math.sqrt(shape)
    want = [1.0, 0.0, 1.0, 2 / r, 3 + 6 / shape, 20 / r + 24 / (shape * r)]
    for n in (8, 16, 32, 64):
        y, w = decoherence._gamma_rule(shape, n)
        assert np.allclose([w @ y**j for j in range(6)], want, rtol=0.0, atol=1e-12)


def _rotated(mean: float, s: float):
    """cos and sin of s (mean + dev), by angle addition: no rounding of a
    large mean + dev."""
    c, sn = math.cos(s * mean), math.sin(s * mean)
    return (lambda dev: c * np.cos(s * dev) - sn * np.sin(s * dev),
            lambda dev: sn * np.cos(s * dev) + c * np.sin(s * dev))


def test_gauss_average_does_not_stop_early():
    # the ladder starts at 8 nodes: two coarse estimates that agree must
    # also agree with the 512-node rule, over both branches of the rule and
    # area spreads up to half a radian, for the Gauss moments' integrand
    # and the pulse kernels'
    def products(dev):
        u = np.stack([np.ones_like(dev), *_u(dev)], axis=-1)
        return u[:, :, None] * u[:, None, :]

    bad = []
    for shape in np.logspace(-3, 14, 35):
        for sd in (1e-6, 1e-3, 0.1, 0.5):
            scale = sd / math.sqrt(shape)
            dist = AreaDistribution(t=shape * scale, tau=scale, omega_mean=1.0)
            y, w = decoherence._gamma_rule(dist.shape, 512)
            for f in (products, *_rotated(dist.mean, 1.0), *_rotated(dist.mean, 0.5)):
                value, diff = gauss_average(f, dist)
                vals = f(math.sqrt(dist.variance) * y)
                ref = (w @ vals.reshape(512, -1)).reshape(vals.shape[1:])
                top = max(1.0, float(np.max(np.abs(ref))))
                if not (np.max(np.abs(value - ref)) <= 1e-11 * top
                        and diff <= decoherence.QUAD_ABS_TOL * max(1.0, float(np.max(np.abs(value))))):
                    bad.append((shape, sd, f))
    assert bad == []


def test_quad_average_raises_when_the_rule_does_not_converge():
    # about 1600 periods over the rule's [0, 50] span: 512 nodes cannot resolve it
    with pytest.raises(RuntimeError, match="did not converge"):
        quad_average(lambda a: math.cos(200 * a), AreaDistribution(0.3, 1.0, 1.0))


def test_degenerate_distribution_raises():
    area = AreaDistribution(t=1.0, tau=0.0, omega_mean=1.0)
    with pytest.raises(DegenerateDistributionError):
        sample_area(area, np.random.default_rng(0), 10)
    # quad_average, like every oracle, takes the delta at the mean
    assert quad_average(math.cos, area) == math.cos(1.0)


@pytest.mark.parametrize(
    "make",
    [
        lambda bad: AreaDistribution(t=bad, tau=1e-8, omega_mean=1.0),
        lambda bad: AreaDistribution(t=1e-5, tau=bad, omega_mean=1.0),
        lambda bad: AreaDistribution(t=bad, tau=1e-8, omega_mean=1e5),
        lambda bad: AreaDistribution(t=1e-5, tau=bad, omega_mean=1e5),
        lambda bad: AreaDistribution(t=1e-5, tau=1e-8, omega_mean=bad),
    ],
)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
def test_distributions_reject_out_of_domain(make, bad):
    with pytest.raises(ValueError):
        make(bad)


@pytest.mark.parametrize("t, tau, omega_mean", [
    (1e-5, 1e305, 1e5),    # scale
    (1e305, 1e-8, 1e5),    # mean
    (1e300, 1e10, 1e5),    # variance
    (5e-324, 1e10, 1.0),   # shape t/tau underflows to 0
])
def test_distribution_rejects_overflowing_moments(t, tau, omega_mean):
    with pytest.raises(ValueError, match="flows"):
        AreaDistribution(t=t, tau=tau, omega_mean=omega_mean)


def test_gauss_rule_refuses_a_node_that_overflows():
    # shape 1e-306 and scale 1e307: finite moments, but the rule's [0, 50]
    # span reaches 5e308
    dist = AreaDistribution(t=1e-10, tau=1e296, omega_mean=1e11)
    with pytest.raises(ValueError, match="node overflows"):
        gauss_average(lambda dev: np.cos(dist.mean + dev), dist)


@pytest.mark.parametrize("tau", [0.0, 5e-324])
def test_degenerate_distribution_is_the_delta_at_the_mean(tau):
    # tau = 0, or t/tau overflows: the one decision every oracle reads
    dist = AreaDistribution(t=1.0, tau=tau, omega_mean=2.0)
    assert dist.degenerate
    # every sample is cos(2); averaging 1000 of them leaves only rounding
    mean, stderr = mc_average(np.cos, dist, 1000, np.random.default_rng(0))
    assert mean == pytest.approx(math.cos(2.0), rel=1e-15) and stderr < 1e-15
    assert gauss_average(lambda dev: np.cos(dist.mean + dev), dist) == (math.cos(2.0), 0.0)
    with pytest.raises(DegenerateDistributionError):
        sample_area(dist, np.random.default_rng(0))
    assert not AreaDistribution(t=1e-300, tau=5e-324, omega_mean=2.0).degenerate


def test_fractional_error_scaling():
    dist = AreaDistribution(t=1e-4, tau=1e-8, omega_mean=1e5)
    assert math.sqrt(dist.variance) / dist.mean == pytest.approx(
        math.sqrt(dist.tau / dist.t), rel=1e-12
    )


# --- sampler vs the exact cdf ---------------------------------------------


@pytest.mark.parametrize("shape", [0.01, 0.5, 2.0, 100.0, 1e4])
def test_sampler_ks_against_quadrature_cdf(shape):
    tau = 1e-2
    dist = AreaDistribution(t=shape * tau, tau=tau, omega_mean=1.0)
    rng = np.random.default_rng(42)
    n = 1_000_000
    samples = np.sort(sample_area(dist, rng, n))
    # the regularised lower incomplete gamma function is the Gamma cdf
    model = special.gammainc(dist.shape, samples / dist.scale)
    empirical = np.arange(1, n + 1) / n
    ks = np.abs(empirical - model).max()
    assert ks < 0.002


def test_sampler_gaussian_limit_skewness():
    # t/tau >= 1e4: sample skewness should be tiny (theory 2/sqrt(k) = 0.02)
    dist = AreaDistribution(t=1.0, tau=1e-4, omega_mean=1.0)
    rng = np.random.default_rng(1)
    x = sample_area(dist, rng, 1_000_000)
    z = (x - x.mean()) / x.std()
    assert abs(np.mean(z**3)) < 0.05


def test_sampler_moments_check_passes_at_the_fewest_samples():
    # the variance's 6 standard errors at n = 1000, not a fixed 5%
    assert all(validate.check_sampler_moments(MIN_MC_SAMPLES, seed).passed for seed in range(200))


def test_sampler_moments_check_fails_on_a_variance_only_fault(monkeypatch):
    # shape x 1.03, scale / 1.03: the mean is exact and the variance 2.9% low
    monkeypatch.setattr(validate, "sample_area",
                        lambda d, rng, n: rng.gamma(d.shape * 1.03, d.scale / 1.03, size=n))
    for seed in range(3):
        assert not validate.check_sampler_moments(1_000_000, seed).passed


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(
    omega=st.floats(-1e300, 1e300),
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
        lambda tau, omega: averaged_phase_factor(omega, 1e-4, tau),
        lambda tau, omega: gap_rates(omega, tau),
        # the exponents exact_map takes for a two-level H = diag(0, omega)
        lambda tau, omega: gap_exponents(np.array([[0.0, -omega], [omega, 0.0]]), tau),
        lambda tau, omega: kernel_integrals(1e-4, omega, tau),
    ],
)
@pytest.mark.parametrize(
    "tau, omega, bad",
    [
        (math.nan, 1e5, "tau"),
        (math.inf, 1e5, "tau"),
        (-1e-8, 1e5, "tau"),
        (1e-8, math.nan, "omega"),
        (1e-8, math.inf, "omega"),
        (1e-8, -math.inf, "omega"),
    ],
    ids=["nan", "inf", "-1e-08", "omega=nan", "omega=inf", "omega=-inf"],
)
def test_closed_forms_reject_bad_tau(closed_form, tau, omega, bad):
    with pytest.raises(ValueError, match=bad):
        closed_form(tau, omega)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_gamma_char_does_not_overflow_at_huge_omega_tau():
    # accuracy at large omega tau is pinned in test_mpmath_oracle
    assert gamma_char(1e200, 0.0, 1.0) == (0.0, 0.0)
    assert gap_rates(1e200, 1.0)[0] == pytest.approx(math.log(1e200), rel=1e-15)
    # omega = 0, as on gap_exponents' diagonal
    assert gamma_char(np.zeros(3), 1.0, 1.0)[0].tolist() == [0.0, 0.0, 0.0]


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


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("omega", [3e5, -2e4, np.array([2e5, 1e5])])
def test_gamma_char_with_array_tau_equals_its_scalar_calls(omega):
    taus = np.logspace(-21, -4, 60)
    t = 3e-5
    log_modulus, angle = gamma_char(omega, t, taus)
    assert log_modulus.shape == angle.shape == np.shape(omega) + taus.shape
    for k, tau in enumerate(taus.tolist()):
        want_l, want_a = gamma_char(omega, t, tau)
        assert np.array_equal(log_modulus[..., k], want_l)
        assert np.array_equal(angle[..., k], want_a)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("tau", [5e-324, 1e-320, 1e-314])
@pytest.mark.parametrize("t", [3e-5, np.float64(3e-5)], ids=["float", "float64"])
def test_gamma_char_takes_the_delta_limit_where_t_over_tau_overflows(tau, t):
    for omega in (1e5, np.array([2e3, 1e3])):
        assert np.array_equal(gamma_char(omega, t, tau), gamma_char(omega, t, 0.0))
        # the array branch, entry by entry, next to a tau where t/tau is finite
        log_modulus, angle = gamma_char(omega, t, np.array([tau, 1e-8]))
        for k, x in enumerate((tau, 1e-8)):
            want_l, want_a = gamma_char(omega, t, x)
            assert np.array_equal(log_modulus[..., k], want_l)
            assert np.array_equal(angle[..., k], want_a)


@pytest.mark.parametrize("x", [*np.logspace(-100, 2, 18), 9.99e-9, 1e-8])
def test_deviation_char_matches_mpmath(x):
    # -k log(1 - i x) - i k x at k = 3, against 400 digits: the log modulus to
    # a few ulp everywhere, the deviation angle too where its series runs, and
    # elsewhere to a few ulp of the subtracted phase k x
    k = 3.0
    with mpmath.workdps(400):
        want = -k * mpmath.log(mpmath.mpc(1, -x)) - mpmath.mpc(0, k * mpmath.mpf(x))
        want_l, want_a = mpmath.re(want), mpmath.im(want)
        log_modulus, angle = deviation_char(x, k, 1.0)
        assert abs((log_modulus - want_l) / want_l) <= 1e-15
        bound = 1e-15 * (abs(want_a) if x < 1e-8 else k * x)
        assert abs(angle - want_a) <= bound


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("omega", [3e5, -2e4, np.array([2e5, 1e5])])
def test_deviation_char_with_array_tau_equals_its_scalar_calls(omega):
    # omega tau from 3e-16 to 3e3, across the series' edge, and the delta limit
    taus = np.concatenate([[1e-320], np.logspace(-21, -2, 60)])
    t = 3e-5
    log_modulus, angle = deviation_char(omega, t, taus)
    assert log_modulus.shape == angle.shape == np.shape(omega) + taus.shape
    for k, tau in enumerate(taus.tolist()):
        want_l, want_a = deviation_char(omega, t, tau)
        assert np.array_equal(log_modulus[..., k], want_l)
        assert np.array_equal(angle[..., k], want_a)
    assert np.array_equal(deviation_char(omega, t, 0.0), np.zeros((2,) + np.shape(omega)))


@pytest.mark.parametrize("bad", [0.0, -1e-8, math.nan, math.inf])
def test_gamma_char_rejects_array_tau_with_a_bad_entry(bad):
    taus = np.array([1e-9, bad, 1e-7])
    with pytest.raises(ValueError, match="tau"):
        gamma_char(1e5, 1e-4, taus)


def test_kernel_integrals_with_array_tau_equal_its_scalar_calls():
    taus = np.logspace(-12, -5, 20)
    k = kernel_integrals(math.pi / 1e5, 1e5, taus)
    for j, tau in enumerate(taus.tolist()):
        want = kernel_integrals(math.pi / 1e5, 1e5, tau)
        for name in ("c1", "s1", "c2", "s2", "z"):
            assert getattr(k, name)[j] == pytest.approx(getattr(want, name), rel=1e-15, abs=0)


# --- averaged phase factor -----------------------------------------------


def test_phase_factor_example():
    # Omega*tau = 1e-3 pi rotation: magnitude e^{-gamma t}, phase -(pi - 1.047e-6)
    val = averaged_phase_factor(1e5, math.pi / 1e5, 1e-8)
    assert abs(val) == pytest.approx(0.9984304375, rel=1e-9)
    assert np.angle(val) == pytest.approx(-(math.pi - 1.047197e-6), abs=1e-11)


def test_phase_factor_quadrature_oracle():
    omega, t, tau = 2e4, 1e-4, 1e-7
    closed = averaged_phase_factor(omega, t, tau)
    dist = AreaDistribution(t=t, tau=tau, omega_mean=1.0)
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
    gamma, nu = gap_rates(1e5, 1e-8)
    assert gamma == pytest.approx(50.0, rel=1e-5)
    assert nu == pytest.approx(99999.9667, rel=1e-8)


def test_decay_rates_small_tau_expansion():
    # for w*tau << 1: gamma -> w^2 tau / 2 and nu -> w
    omega, tau = 1e4, 1e-9
    gamma, nu = gap_rates(omega, tau)
    assert gamma == pytest.approx(0.5 * omega**2 * tau, rel=1e-6)
    assert nu == pytest.approx(omega, rel=1e-6)


def test_decay_rates_delta_limit():
    gamma, nu = gap_rates(1e5, 0.0)
    assert gamma == 0.0 and nu == 1e5


# evolution in the energy basis: the exact map of a diagonal H
def test_evolve_energy_basis_preserves_diagonal_bitwise():
    rng = np.random.default_rng(5)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    out = exact_map(HamiltonianSpec(np.diag([0.0, 1e4, 5e4])), DensityMatrix(rho), 1e-4, 1e-7)
    assert np.array_equal(np.diag(out.matrix), np.diag(rho))


def test_evolve_energy_basis_offdiagonal_decay():
    rho = 0.5 * np.ones((2, 2), dtype=complex)
    t, tau = 1e-4, 1e-7
    out = exact_map(HamiltonianSpec(np.diag([0.0, 1e5])), DensityMatrix(rho), t, tau)
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
