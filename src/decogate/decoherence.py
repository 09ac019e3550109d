"""Gamma-distributed evolution-time averaging and its consequences.

The model treats the elapsed evolution time (equivalently, the accumulated
pulse area) as a Gamma-distributed random variable with shape t/tau and scale
tau (area: Omega*tau).  Averaging unitary evolution over that distribution
decays off-diagonal density-matrix elements in the energy basis while leaving
populations untouched.  This module provides the distributions, their
sampling, the decay/shift rates, the averaged phase factor, the closed-form
pulse-average kernels, and Monte Carlo / adaptive-quadrature oracles used to
cross-check every closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

from .statemath import DensityMatrix

# Mass allowed outside the truncated quadrature window.
QUAD_TAIL_MASS = 1e-12
QUAD_ABS_TOL = 1e-12


class DegenerateDistributionError(ValueError):
    """Raised when a pdf is requested at tau = 0 (delta-function limit)."""


@dataclass(frozen=True)
class TimeDistribution:
    """Gamma distribution over the effective evolution time.

    Shape t/tau, scale tau; mean t, variance tau*t.  tau -> 0 collapses to a
    delta at t (callers must branch on tau == 0 before evaluating the pdf).
    """

    t: float
    tau: float

    def __post_init__(self):
        _check_time_scales(self.t, self.tau)

    @property
    def shape(self) -> float:
        return self.t / self.tau

    @property
    def scale(self) -> float:
        return self.tau

    @property
    def mean(self) -> float:
        return self.t

    @property
    def variance(self) -> float:
        return self.tau * self.t

    def log_pdf(self, t_prime):
        return _gamma_log_pdf(np.asarray(t_prime, dtype=float), self.shape, self.scale)

    def pdf(self, t_prime):
        if self.tau == 0:
            raise DegenerateDistributionError("degenerate distribution; use delta limit")
        return np.exp(self.log_pdf(t_prime))


@dataclass(frozen=True)
class AreaDistribution:
    """Gamma distribution over the accumulated pulse area.

    Shape t/tau, scale omega_mean*tau; mean omega_mean*t, variance
    omega_mean^2*t*tau, so the fractional error is sqrt(tau/t).
    """

    t: float
    tau: float
    omega_mean: float

    def __post_init__(self):
        _check_time_scales(self.t, self.tau)
        if not (math.isfinite(self.omega_mean) and self.omega_mean > 0):
            raise ValueError(f"mean frequency must be finite and positive, got {self.omega_mean}")

    @property
    def shape(self) -> float:
        return self.t / self.tau

    @property
    def scale(self) -> float:
        return self.omega_mean * self.tau

    @property
    def mean(self) -> float:
        return self.omega_mean * self.t

    @property
    def variance(self) -> float:
        return self.omega_mean**2 * self.t * self.tau

    def log_pdf(self, a):
        return _gamma_log_pdf(np.asarray(a, dtype=float), self.shape, self.scale)

    def pdf(self, a):
        if self.tau == 0:
            raise DegenerateDistributionError("degenerate distribution; use delta limit")
        return np.exp(self.log_pdf(a))

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return sample_area(self, rng, n)


def _check_time_scales(t: float, tau: float) -> None:
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"nominal time t must be finite and positive, got {t}")
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError(f"scaling time tau must be finite and nonnegative, got {tau}")


def _gamma_log_pdf(x: np.ndarray, shape: float, scale: float) -> np.ndarray:
    """log pdf of Gamma(shape, scale), safe for shapes up to ~1e6."""
    if scale == 0:
        raise DegenerateDistributionError("degenerate distribution; use delta limit")
    scalar = np.ndim(x) == 0
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.full(x.shape, -np.inf)
    pos = x > 0
    xs = x[pos] / scale
    out[pos] = (
        (shape - 1.0) * np.log(xs) - xs - special.gammaln(shape) - math.log(scale)
    )
    # x == 0 has finite density only for shape == 1 (exponential)
    if shape == 1.0:
        out[x == 0] = -math.log(scale)
    elif shape < 1.0:
        out[x == 0] = np.inf
    return out[0] if scalar else out


def pdf_time(d: TimeDistribution, t_prime):
    return d.pdf(t_prime)


def pdf_area(d: AreaDistribution, a):
    return d.pdf(a)


def sample_area(d: AreaDistribution, rng: np.random.Generator, n: int = 1) -> np.ndarray:
    """Draw n samples of the pulse area; valid for any shape t/tau > 0."""
    if d.tau == 0:
        raise DegenerateDistributionError("degenerate distribution; use delta limit")
    return rng.gamma(d.shape, d.scale, size=n)


def gamma_char(omega, t: float, tau: float):
    """Characteristic function E[e^{i omega t'}] = (1 - i omega tau)^(-t/tau) of
    t' ~ Gamma(shape t/tau, scale tau) as (log modulus, angle) =
    (-(t/tau) log1p(omega^2 tau^2)/2, (t/tau) arctan(omega tau)), on the
    principal branch for any t/tau; tau = 0 is the delta limit (0, omega t).
    omega may be an array; t and tau must be finite and nonnegative."""
    if not (math.isfinite(t) and math.isfinite(tau) and t >= 0 and tau >= 0):
        raise ValueError(f"t and tau must be finite and nonnegative, got t={t}, tau={tau}")
    if tau == 0:
        return np.zeros(np.shape(omega)), omega * t
    k, x = t / tau, omega * tau
    return -0.5 * k * np.log1p(x * x), k * np.arctan(x)


def one_minus_re(log_modulus, angle):
    """1 - e^l cos(a) as -expm1(l) + 2 e^l sin^2(a/2): non-negative terms, so
    no cancellation as the value goes to 0."""
    return -np.expm1(log_modulus) + 2.0 * np.exp(log_modulus) * np.sin(0.5 * angle) ** 2


@dataclass(frozen=True)
class DecayChannel:
    """Decay rate and shifted frequency of one energy-gap coherence."""

    omega_nm: float
    gamma: float
    nu: float


def decay_rates(omega_nm: float, tau: float) -> DecayChannel:
    """Decay rate gamma = ln(1 + w^2 tau^2)/(2 tau) and shifted frequency
    nu = arctan(w tau)/tau, the characteristic function over unit time;
    tau = 0 gives the unitary limits (0, w)."""
    log_modulus, angle = gamma_char(omega_nm, 1.0, tau)
    return DecayChannel(omega_nm=omega_nm, gamma=-float(log_modulus), nu=float(angle))


def averaged_phase_factor(omega: float, t: float, tau: float) -> complex:
    """Gamma-averaged phase e^{-gamma t} e^{-i nu t} = E[e^{-i omega t'}]."""
    log_modulus, angle = gamma_char(-omega, t, tau)
    return complex(np.exp(log_modulus + 1j * angle))


def evolve_energy_basis(
    rho0: DensityMatrix, energies, t: float, tau: float
) -> DensityMatrix:
    """Averaged evolution in the energy eigenbasis.

    rho_{n,m}(t) = e^{-gamma_{n,m} t} e^{-i nu_{n,m} t} rho_{n,m}(0) with
    omega_{n,m} = E_n - E_m.  Diagonal elements are preserved bitwise (the
    factor is exactly 1 at omega = 0).
    """
    energies = np.asarray(energies, dtype=float)
    if energies.shape != (rho0.dim,):
        raise ValueError(
            f"energies length {energies.shape} does not match dimension {rho0.dim}"
        )
    log_modulus, angle = gamma_char(energies[None, :] - energies[:, None], t, tau)
    factors = np.exp(log_modulus + 1j * angle)
    # exact 1 on the diagonal regardless of rounding in the general expression
    np.fill_diagonal(factors, 1.0)
    return DensityMatrix(rho0.matrix * factors, basis=rho0.basis)


@dataclass(frozen=True)
class KernelValues:
    """Pulse-averaged trigonometric moments of a sideband pulse of nominal
    duration t: C1 = E[cos(A/2)], S1 = E[sin(A/2)], C2 = E[cos^2(A/2)],
    S2 = E[sin^2(A/2)], Z = E[sin(A/2)cos(A/2)]."""

    c1: float
    s1: float
    c2: float
    s2: float
    z: float


def kernel_integrals(t: float, omega_prime: float, tau: float) -> KernelValues:
    """Closed forms of the averaged pulse kernels from the characteristic
    function of the area A at the half and the full angle; exact-pulse limits
    at tau = 0.  C2 and S2 are (1 +- E[cos A])/2, each without cancellation."""
    w = np.array([omega_prime, 0.5 * omega_prime])
    (l_full, l_half), (a_full, a_half) = gamma_char(w, t, tau)
    r_half = math.exp(l_half)
    return KernelValues(
        c1=r_half * math.cos(a_half),
        s1=r_half * math.sin(a_half),
        c2=0.5 * float(one_minus_re(l_full, a_full + math.pi)),
        s2=0.5 * float(one_minus_re(l_full, a_full)),
        z=0.5 * math.exp(l_full) * math.sin(a_full),
    )


def mc_average(f, d: AreaDistribution, n: int, rng: np.random.Generator):
    """Sample mean and standard error of f(A) under the area distribution."""
    if n < 2:
        raise ValueError("need at least 2 samples")
    samples = sample_area(d, rng, n)
    vals = np.asarray(f(samples), dtype=float)
    mean = float(np.mean(vals))
    stderr = float(np.std(vals, ddof=1) / math.sqrt(n))
    return mean, stderr


def _quad_window(shape: float, scale: float) -> tuple[float, float]:
    """Truncation window [lo, hi] carrying all but < QUAD_TAIL_MASS of the
    Gamma mass, verified via the regularized incomplete gamma function."""
    mean = shape * scale
    std = math.sqrt(shape) * scale
    lo = max(0.0, mean - 12.0 * std)
    hi = mean + 12.0 * std
    # widen until the analytic tail bound holds (12 sigma is already ample
    # for shape >~ 1; small shapes need the lower edge pinned at 0)
    while special.gammaincc(shape, hi / scale) > QUAD_TAIL_MASS:
        hi *= 2.0
    if lo > 0 and special.gammainc(shape, lo / scale) > QUAD_TAIL_MASS:
        lo = 0.0
    return lo, hi


def quad_average(f, d: AreaDistribution) -> float:
    """Adaptive-quadrature expectation of f(A); the independent oracle for
    every closed-form kernel."""
    lo, hi = _quad_window(d.shape, d.scale)

    def integrand(a):
        return f(a) * float(d.pdf(a))

    val, _ = integrate.quad(
        integrand, lo, hi, epsabs=QUAD_ABS_TOL, epsrel=QUAD_ABS_TOL, limit=400
    )
    return val


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(32)


def composite_gl_nodes(lo: float, hi: float, n_panels: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of a composite 32-point Gauss-Legendre rule."""
    edges = np.linspace(lo, hi, n_panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    a = (mid[:, None] + half[:, None] * _GL_NODES[None, :]).ravel()
    w = (half[:, None] * _GL_WEIGHTS[None, :]).ravel()
    return a, w


def quad_average_matrix(matrix_fn, d: AreaDistribution, dim: int) -> np.ndarray:
    """E[matrix_fn(A)] by composite Gauss-Legendre with panel doubling.

    matrix_fn maps a scalar area to a (dim, dim) complex matrix; panels
    double until successive estimates agree to QUAD_ABS_TOL entrywise.
    """
    lo, hi = _quad_window(d.shape, d.scale)

    def estimate(n_panels: int) -> np.ndarray:
        a, w = composite_gl_nodes(lo, hi, n_panels)
        w = w * d.pdf(a)
        acc = np.zeros((dim, dim), dtype=complex)
        for ai, wi in zip(a, w):
            acc += wi * matrix_fn(ai)
        return acc

    n = 2
    prev = estimate(n)
    for _ in range(8):
        n *= 2
        cur = estimate(n)
        if np.max(np.abs(cur - prev)) < QUAD_ABS_TOL:
            return cur
        prev = cur
    return prev


def quad_cdf_grid(d: AreaDistribution, n_points: int = 4001) -> tuple[np.ndarray, np.ndarray]:
    """CDF of the area distribution on a dense grid, by cumulative Simpson
    integration of the pdf (used as the sampler's distributional oracle)."""
    lo, hi = _quad_window(d.shape, d.scale)
    if d.shape < 1.0:
        # pdf diverges at 0; start the grid just inside, resolve the
        # singularity on a log-spaced grid, and account for the small
        # analytic head mass via the incomplete gamma lower tail
        lo = max(lo, 1e-12 * d.scale)
        grid = np.geomspace(lo, hi, n_points)
    else:
        grid = np.linspace(max(lo, 1e-300), hi, n_points)
    pdf = d.pdf(grid)
    cdf = integrate.cumulative_simpson(pdf, x=grid, initial=0.0)
    cdf += float(special.gammainc(d.shape, lo / d.scale))
    return grid, np.clip(cdf, 0.0, 1.0)
