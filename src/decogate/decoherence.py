"""Gamma-distributed evolution-time averaging and its consequences.

The model treats the elapsed evolution time (equivalently, the accumulated
pulse area) as a Gamma-distributed random variable with shape t/tau and scale
tau (area: Omega*tau).  Averaging unitary evolution over that distribution
decays off-diagonal density-matrix elements in the energy basis while leaving
populations untouched.  This module provides the one distribution,
`AreaDistribution` (the time itself at omega_mean = 1), its sampling, the
decay/shift rates and their unit-time exponent per energy gap
(`gap_exponents`), the averaged phase factor, the characteristic function of
the deviation from the mean (`deviation_char`), the closed-form pulse-average
kernels, and the two oracles that cross-check every closed form: one chunked
Monte Carlo loop (`_mc_moments`, `mc_average`) and one Gauss rule for the
Gamma weight (`gauss_average`, `quad_average`), whose node count doubles from
8 until two estimates agree.  The distribution decides
once whether it is the delta at its mean (`degenerate`); both oracles read
that.  The Gauss rule is built from the Gamma's three-term recurrence alone
(Golub-Welsch), not its pdf or characteristic function, so it is independent
of the closed forms.  Both oracles hand f the deviation A - mean, not A: the
Gauss rule at each node, Monte Carlo per draw (from the normal limit above
shape 2**54, where the mean's rounding would swamp the spread)."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .statemath import DensityMatrix

QUAD_ABS_TOL = 1e-12
# Gauss rules of 8, 16, ..., 512 nodes; the oracles mostly stop at 16 or 32.
# Shapes below 4 use Gauss-Jacobi on [0, 50] instead of Gauss-Laguerre;
# P(Gamma(4) > 50) = 4.3e-18.
_GAUSS_NODES = (8, 16, 32, 64, 128, 256, 512)
_JACOBI_MAX_SHAPE, _JACOBI_SPAN = 4.0, 50.0


class DegenerateDistributionError(ValueError):
    """Raised when a pdf or a sample is requested of the delta-function limit."""


@dataclass(frozen=True)
class AreaDistribution:
    """Gamma distribution over the accumulated pulse area.

    Shape t/tau, scale omega_mean*tau; mean omega_mean*t, variance
    omega_mean^2*t*tau, so the fractional error is sqrt(tau/t).  With
    omega_mean = 1 it is the distribution of the evolution time itself.
    """

    t: float
    tau: float
    omega_mean: float

    def __post_init__(self):
        if not (all(map(math.isfinite, (self.t, self.tau, self.omega_mean)))
                and self.t > 0 and self.tau >= 0 and self.omega_mean > 0):
            raise ValueError(f"need finite t > 0, tau >= 0 and omega_mean > 0, got {self}")
        for name in ("mean", "scale", "variance"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"the area distribution's {name} overflows for {self}")
        if not (self.degenerate or self.shape > 0):
            raise ValueError(f"the area distribution's shape t/tau underflows to 0 for {self}")

    @property
    def degenerate(self) -> bool:
        """The delta at the mean: tau = 0, or tau so small that t/tau
        overflows (the limit gamma_char takes).  Every oracle reads this."""
        return _delta(self.t, self.tau)

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
        return self.mean * self.scale

    def log_pdf(self, a):
        """log pdf at the areas a, safe for shapes up to ~1e6."""
        if self.degenerate:
            raise DegenerateDistributionError("degenerate distribution; use delta limit")
        shape, scale = self.shape, self.scale
        scalar = np.ndim(a) == 0
        x = np.atleast_1d(np.asarray(a, dtype=float))
        out = np.full(x.shape, -np.inf)
        pos = x > 0
        xs = x[pos] / scale
        out[pos] = (shape - 1.0) * np.log(xs) - xs - math.lgamma(shape) - math.log(scale)
        # x == 0 has finite density only for shape == 1 (exponential)
        if shape == 1.0:
            out[x == 0] = -math.log(scale)
        elif shape < 1.0:
            out[x == 0] = np.inf
        return out[0] if scalar else out

    def pdf(self, a):
        return np.exp(self.log_pdf(a))


def _delta(t: float, tau):
    """`AreaDistribution.degenerate` for t and tau (as Python floats, t/tau
    overflows to an inf, no warning); an ndarray tau, positive, gives an array."""
    if isinstance(tau, np.ndarray):
        with np.errstate(over="ignore"):
            return np.isinf(t / tau)
    return tau == 0 or float(t) / float(tau) == math.inf


def sample_area(d: AreaDistribution, rng: np.random.Generator, n: int = 1) -> np.ndarray:
    """Draw n samples of the pulse area; valid for any shape t/tau > 0."""
    if d.degenerate:
        raise DegenerateDistributionError("degenerate distribution; use delta limit")
    return rng.gamma(d.shape, d.scale, size=n)


def gamma_char(omega, t: float, tau):
    """Characteristic function E[e^{i omega t'}] = (1 - i omega tau)^(-t/tau) of
    t' ~ Gamma(shape t/tau, scale tau) as (log modulus, angle) =
    (-(t/tau) log1p(omega^2 tau^2)/2, (t/tau) arctan(omega tau)), on the
    principal branch for any t/tau and finite for any finite omega tau;
    tau = 0, and any tau so small that t/tau overflows, is the delta limit
    (0, omega t).
    t and tau must be finite and nonnegative, and omega, omega t and omega tau
    finite; omega may be an array.  tau may also be an ndarray of finite,
    positive entries: the results then have shape np.shape(omega) + tau.shape."""
    # scalars skip the numpy check, which costs about 3 us per call
    if not (math.isfinite(omega) if np.isscalar(omega) else np.isfinite(omega).all()):
        raise ValueError(f"omega must be finite, got {omega}")
    # -k log(1 - i x) = -(k/2) log1p(x^2) + i k arctan(x); the complex log
    # forms no x^2, so it neither overflows at large |x| nor loses small |x|
    if isinstance(tau, np.ndarray):
        if not (math.isfinite(t) and t >= 0 and np.all((tau > 0) & np.isfinite(tau))):
            raise ValueError(f"t must be finite and nonnegative and every tau finite "
                             f"and positive, got t={t}, tau={tau}")
        _check_products(omega, max(t, float(tau.max(initial=0.0))))
        delta = _delta(t, tau)
        k = np.where(delta, 0.0, t / np.where(delta, 1.0, tau))
        z = -k * np.log(1 - 1j * np.multiply.outer(omega, tau))
        return z.real, z.imag + np.multiply.outer(omega, delta) * t
    if not (math.isfinite(t) and math.isfinite(tau) and t >= 0 and tau >= 0):
        raise ValueError(f"t and tau must be finite and nonnegative, got t={t}, tau={tau}")
    # only outside this range can t/tau, omega t or omega tau overflow
    if not (t <= 1 and 1e-300 <= tau <= 1):
        _check_products(omega, max(t, tau))
        if _delta(t, tau):
            return np.zeros(np.shape(omega)), omega * t
    z = -(t / tau) * np.log(1 - 1j * (omega * tau))
    return z.real, z.imag


def deviation_char(omega, t: float, tau):
    """gamma_char of the deviation t' - t from the mean: (log modulus, angle -
    omega t); the delta limit is (0, 0).  Below |x| = |omega tau| = 1e-8 both
    come from their series' first terms: the log modulus is -(omega t) x / 2,
    as gamma_char's loses x^2 to underflow below about x = 1e-154, and the
    angle is (2/3) x times it, as subtracting omega t would leave the
    angle's rounding (about 1e-32 in a 1 - F)."""
    log_modulus, angle = gamma_char(omega, t, tau)
    x = np.multiply.outer(omega, tau)
    # where the series' second terms are under the rounding, unless gamma_char took the delta
    small = (np.abs(x) < 1e-8) & ~_delta(t, tau)
    x = np.where(small, x, 0.0)
    phase = np.reshape(np.multiply(omega, t), np.shape(omega) + (1,) * np.ndim(tau))
    log_modulus = np.where(small, -0.5 * phase * x, log_modulus)
    return log_modulus, np.where(small, (2.0 / 3.0) * x * log_modulus, angle - phase)


def _check_products(omega, span: float) -> None:
    """Raise unless omega t and omega tau are finite, for span = max(t, tau)
    and a finite omega."""
    # a span of at most 1 cannot overflow; the product of Python floats is an
    # inf, not a numpy warning
    if span > 1 and not math.isfinite(span * float(np.max(np.abs(omega), initial=0.0))):
        raise ValueError(f"omega*t and omega*tau must be finite, got omega={omega}, max(t, tau)={span}")


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


def gap_exponents(gaps: np.ndarray, tau: float) -> np.ndarray:
    """The unit-time exponent z = -gamma - i nu of each energy gap omega =
    E_n - E_m in the square array gaps (decay_rates), from one gamma_char
    call: the averaged factor E[e^{-i omega t'}] at time t is e^{t z}.  The
    diagonal is exactly 0, so populations keep a factor of exactly 1."""
    log_modulus, angle = gamma_char(-gaps, 1.0, tau)
    z = log_modulus + 1j * angle
    np.fill_diagonal(z, 0.0)
    return z


def evolve_energy_basis(
    rho0: DensityMatrix, energies, t: float, tau: float
) -> DensityMatrix:
    """Averaged evolution in the energy eigenbasis.

    rho_{n,m}(t) = e^{-gamma_{n,m} t} e^{-i nu_{n,m} t} rho_{n,m}(0) with
    omega_{n,m} = E_n - E_m (gap_exponents).  Diagonal elements are preserved
    bitwise.
    """
    energies = np.asarray(energies, dtype=float)
    if energies.shape != (rho0.dim,):
        raise ValueError(
            f"energies length {energies.shape} does not match dimension {rho0.dim}"
        )
    if not (math.isfinite(t) and t >= 0):
        raise ValueError(f"t must be finite and nonnegative, got {t}")
    gaps = energies[:, None] - energies[None, :]
    z = gap_exponents(gaps, tau)
    # |z| <= |omega|, so a finite omega t keeps t z finite
    _check_products(gaps, t)
    return DensityMatrix(rho0.matrix * np.exp(t * z), basis=rho0.basis)


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


def kernel_integrals(t: float, omega_prime: float, tau) -> KernelValues:
    """Closed forms of the averaged pulse kernels from the area's characteristic
    function at the full and the half angle, C2 and S2 = (1 +- E[cos A])/2
    without cancellation; exact at tau = 0, arrays for an ndarray tau."""
    (l_full, l_half), (a_full, a_half) = gamma_char(np.array([omega_prime, 0.5 * omega_prime]), t, tau)
    r_half = np.exp(l_half)
    return KernelValues(
        c1=r_half * np.cos(a_half),
        s1=r_half * np.sin(a_half),
        c2=0.5 * one_minus_re(l_full, a_full + math.pi),
        s2=0.5 * one_minus_re(l_full, a_full),
        z=0.5 * np.exp(l_full) * np.sin(a_full),
    )


# Fewest samples a Monte Carlo estimate accepts, for every estimator.
MIN_MC_SAMPLES = 1000
# Samples drawn and reduced at a time; bounds working memory, not the result.
_MC_CHUNK = 4096
# Above this shape the area's deviation is drawn from its normal limit.
_NORMAL_SHAPE = 2.0**54


def _sample_deviation(d: AreaDistribution, rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws of the deviation A - mean of the area: 0 at a degenerate d, the
    Gamma draw less the mean up to shape 2**54, the normal limit above it.
    There the standardised Gamma's skewness 2/sqrt(k) is at most 1.5e-8,
    while subtracting the mean would quantise the deviations to eps sqrt(k)
    standard deviations."""
    if d.degenerate:
        return np.zeros(n)
    if d.shape > _NORMAL_SHAPE:
        return math.sqrt(d.variance) * rng.standard_normal(n)
    return sample_area(d, rng, n) - d.mean


def _mc_moments(dists, statistic, n_samples: int, rng: np.random.Generator | None):
    """Mean and standard error of statistic(*deviations), an (n, ...) array,
    over exactly n_samples draws of one area deviation A - mean from each
    distribution in dists (`_sample_deviation`), as `gauss_average` hands f.

    Chunk means and centred sums of squares are merged with Chan's formula,
    which unlike a raw sum of squares stays accurate when the statistic
    barely varies (F near 1).  Complex spreads add in quadrature.  The
    squares are summed in units of a per-run scale, a power of two at or
    above the first chunk's largest |statistic| (1 where that is 0): exact,
    so it changes no bit of a spread whose squares are normal floats, and a
    statistic of 1e-300 keeps its spread instead of squaring it to 0.
    """
    if n_samples < MIN_MC_SAMPLES:
        raise ValueError(f"need at least {MIN_MC_SAMPLES} Monte Carlo samples, got {n_samples}")
    rng = np.random.default_rng(0) if rng is None else rng
    count, mean, m2 = 0, 0.0, 0.0
    for start in range(0, n_samples, _MC_CHUNK):
        n = min(_MC_CHUNK, n_samples - start)
        x = statistic(*(_sample_deviation(d, rng, n) for d in dists))
        x_mean = x.mean(axis=0)
        delta, share = x_mean - mean, n / (count + n)
        dev = np.abs(x - x_mean)
        if not count:
            top = np.abs(x_mean) + dev.max(axis=0)
            scale = np.ldexp(1.0, np.frexp(np.where(top > 0, top, 1.0))[1])
        dev /= scale
        dev *= dev
        m2 = m2 + dev.sum(axis=0) + np.abs(delta / scale) ** 2 * count * share
        mean = mean + delta * share
        count += n
    return mean, scale * np.sqrt(m2 / ((count - 1) * count))


def mc_average(f, d: AreaDistribution, n: int, rng: np.random.Generator):
    """Sample mean and standard error of f(A) over exactly n draws of the
    area, n >= MIN_MC_SAMPLES; f maps an (n,) array of areas to an (n,)
    array.  At a degenerate d every sample is f at the mean."""
    mean, stderr = _mc_moments((d,), lambda dev: f(d.mean + dev), n, rng)
    return float(mean), float(stderr)


@functools.lru_cache(maxsize=8)
def _gamma_rule(k: float, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss rule for Gamma(k, 1) in the standardised variable
    y = (x - k)/sqrt(k), with weights summing to 1, by Golub & Welsch (Math.
    Comp. 23, 1969): the Jacobi matrix's eigenvalues and the squared first
    components of its eigenvectors.  Cached, so both arrays are read-only.

    k >= 4: generalised Laguerre, weight x^(k-1) e^-x.  k < 4: Gauss-Jacobi
    for the weight x^(k-1) on [0, 50], with e^-x moved into the weights and
    the weights normalised by their own sum.
    """
    i = np.arange(1, n, dtype=float)
    if k >= _JACOBI_MAX_SHAPE:
        diag, off = 2 * np.arange(n) / math.sqrt(k), np.sqrt(i * (1 + (i - 1) / k))
    else:
        b = k - 1.0  # Jacobi exponents (0, b) of (1 - u)^0 (1 + u)^b on [-1, 1]
        s = 2 * i + b
        # b + 2, i + b and s +- 1 from k: from b, i = 1 rounds them to 0 at k < 2^-52
        diag = np.concatenate(([b / (k + 1)], b * b / (s * (s + 2))))
        off = 2 * i * (i - 1 + k) / (s * np.sqrt((2 * i + k) * (2 * (i - 1) + k)))
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    if k >= _JACOBI_MAX_SHAPE:
        y, w = nodes, vecs[0] ** 2
    else:
        x = 0.5 * _JACOBI_SPAN * (1.0 + nodes)
        w = vecs[0] ** 2 * np.exp(-x)
        y, w = (x - k) / math.sqrt(k), w / w.sum()
    y.setflags(write=False)
    w.setflags(write=False)
    return y, w


def gauss_average(f, d: AreaDistribution):
    """E[f(A - mean)] by the Gamma Gauss rule at 8, 16, 32, ... nodes, until
    two successive estimates agree within QUAD_ABS_TOL * max(1, |value|).

    f maps an (n,) array of deviations A - mean to an (n, ...) array.
    Returns (value, difference of the last two estimates); a degenerate d is
    the delta, f at deviation 0.  Raises RuntimeError if 512 nodes do not
    converge.
    """
    if d.degenerate:
        return f(np.zeros(1))[0], 0.0
    sd = math.sqrt(d.variance)

    def estimate(n: int):
        y, w = _gamma_rule(d.shape, n)
        # as Python floats, an overflow is an inf and no numpy warning
        if not math.isfinite(d.mean + sd * float(y[-1])):
            raise ValueError(f"the Gauss rule's largest node overflows for {d}")
        vals = f(sd * y)
        # one (n,) @ (n, m) product: bitwise tensordot's, without its overhead
        return (w @ vals.reshape(n, -1)).reshape(vals.shape[1:])

    prev = estimate(_GAUSS_NODES[0])
    for n in _GAUSS_NODES[1:]:
        cur = estimate(n)
        err = float(np.max(np.abs(cur - prev)))
        if err <= QUAD_ABS_TOL * max(1.0, float(np.max(np.abs(cur)))):
            return cur, err
        prev = cur
    raise RuntimeError(
        f"Gauss rule for shape {d.shape:.6g} did not converge at {n} nodes: "
        f"the last two estimates differ by {err:.3e}"
    )


def quad_average(f, d: AreaDistribution) -> float:
    """E[f(A)] by the Gamma Gauss rule, calling f on one float area at a time
    (at the mean for a degenerate d): the oracle for every closed-form kernel."""
    value, _ = gauss_average(lambda dev: np.array([float(f(x)) for x in (d.mean + dev).tolist()]), d)
    return float(value)
