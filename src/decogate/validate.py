"""Cross-checks of closed-form results against Monte Carlo and quadrature
oracles. Used by the `decogate validate` subcommand and the acceptance tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .decoherence import (
    AreaDistribution,
    averaged_phase_factor,
    kernel_integrals,
    mc_average,
    quad_average,
    sample_area,
)
from .dynamics import HamiltonianSpec, exact_map
from .fidelity import (
    Method,
    closed_two_bit_tensor,
    fidelity_mc_two_bit,
    fidelity_one_bit,
    fidelity_two_bit,
    mc_two_bit_tensor,
    quad_two_bit_tensor,
)
from .gates import GateContext
from .statemath import DensityMatrix, validate_density

# Gates: closed form vs quadrature, exact identities, Monte Carlo in stderrs.
_QUAD_TOL, _EXACT_TOL, _N_SIGMA = 1e-9, 1e-12, 5.0


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str


def _check(name: str, passed: bool, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def check_phase_factor_quadrature() -> CheckResult:
    """Averaged phase factor: closed form vs the Gamma Gauss rule."""
    worst = 0.0
    for omega, t, tau in [(1e5, math.pi / 1e5, 1e-8), (2e4, 1e-4, 1e-7), (1e5, 1e-4, 1e-6)]:
        closed = averaged_phase_factor(omega, t, tau)
        dist = AreaDistribution(t=t, tau=tau, omega_mean=1.0)
        re = quad_average(lambda x: np.cos(omega * x), dist)
        im = -quad_average(lambda x: np.sin(omega * x), dist)
        worst = max(worst, abs(closed - complex(re, im)))
    return _check("phase_factor_quadrature", worst < _QUAD_TOL, f"max |closed-quad| = {worst:.3e}")


def check_kernel_quadrature() -> CheckResult:
    """Pulse kernel moments: closed form vs the Gamma Gauss rule."""
    worst = 0.0
    omega_p = 1e5
    for op_tau in (1e-4, 1e-3, 1e-2):
        tau = op_tau / omega_p
        for t in (math.pi / omega_p, 2 * math.pi / omega_p):
            k = kernel_integrals(t, omega_p, tau)
            dist = AreaDistribution(t=t, tau=tau, omega_mean=omega_p)
            ref = {
                "c1": quad_average(lambda a: np.cos(a / 2), dist),
                "s1": quad_average(lambda a: np.sin(a / 2), dist),
                "c2": quad_average(lambda a: np.cos(a / 2) ** 2, dist),
                "s2": quad_average(lambda a: np.sin(a / 2) ** 2, dist),
                "z": quad_average(lambda a: np.sin(a / 2) * np.cos(a / 2), dist),
            }
            for key, val in ref.items():
                worst = max(worst, abs(getattr(k, key) - val))
    return _check("kernel_quadrature", worst < _QUAD_TOL, f"max |closed-quad| = {worst:.3e}")


def check_kernel_mc(n_samples: int, seed: int) -> CheckResult:
    """First kernel moment: Monte Carlo vs the Gamma Gauss rule."""
    dist = AreaDistribution(t=math.pi / 1e5, tau=1e-8, omega_mean=1e5)
    rng = np.random.default_rng(seed)
    mean, stderr = mc_average(lambda a: np.cos(a / 2), dist, n_samples, rng)
    ref = quad_average(lambda a: np.cos(a / 2), dist)
    diff = abs(mean - ref)
    return _check("kernel_mc", diff < _N_SIGMA * stderr,
                  f"|mc-quad| = {diff:.3e}, stderr = {stderr:.3e}")


def check_sampler_moments(n_samples: int, seed: int) -> CheckResult:
    """Gamma area sampler reproduces the first two moments within 6 relative
    stderrs: the variance's is sqrt((2 + 6/k) / n), 6/k the excess kurtosis."""
    rng = np.random.default_rng(seed)
    dist = AreaDistribution(t=math.pi, tau=1e-3, omega_mean=1.0)
    x = sample_area(dist, rng, n_samples)
    mean_err = abs(float(x.mean()) - dist.mean) / dist.mean
    var_err = abs(float(x.var()) - dist.variance) / dist.variance
    mean_se = math.sqrt(dist.variance / n_samples) / dist.mean
    var_se = math.sqrt((2 + 6 / dist.shape) / n_samples)
    ok = mean_err < 6 * mean_se and var_err < 6 * var_se
    return _check("sampler_moments", ok,
                  f"rel mean err = {mean_err:.3e}, rel var err = {var_err:.3e}")


def check_one_bit_mc(n_samples: int, seed: int) -> CheckResult:
    """One-bit pi-pulse infidelity: closed form vs Monte Carlo."""
    ctx = GateContext(omega=1e5, eta=0.1, n_ions=20, tau=1e-8)
    t = math.pi / ctx.omega
    exact = fidelity_one_bit(t, ctx, Method.ANALYTIC)
    rng = np.random.default_rng(seed)
    mc = fidelity_one_bit(t, ctx, Method.MONTE_CARLO, n_samples, rng)
    diff = abs(mc.fidelity - exact.fidelity)
    ok = diff < _N_SIGMA * mc.stderr
    return _check("one_bit_mc", ok, f"|mc-exact| = {diff:.3e}, stderr = {mc.stderr:.3e}")


def check_two_bit_mc(n_samples: int, seed: int) -> CheckResult:
    """Two-bit composite-pulse infidelity: closed form vs Monte Carlo."""
    ctx = GateContext(omega=1e5, eta=0.1, n_ions=20, tau=1e-8)
    exact = fidelity_two_bit(ctx, Method.ANALYTIC)
    rng = np.random.default_rng(seed)
    mc = fidelity_mc_two_bit(ctx, n_samples, rng)
    diff = abs(mc.fidelity - exact.fidelity)
    ok = diff < _N_SIGMA * mc.stderr
    return _check("two_bit_mc", ok, f"|mc-exact| = {diff:.3e}, stderr = {mc.stderr:.3e}")


def check_two_bit_quadrature() -> CheckResult:
    """Two-bit fidelity tensor: closed forms vs the pulse-by-pulse Gauss-rule
    average."""
    worst = 0.0
    eta, n_ions, tau = 0.1, 20, 1e-8
    for op_tau in (1e-4, 1e-3, 1e-2):
        omega = op_tau / tau * math.sqrt(n_ions) / eta
        ctx = GateContext(omega=omega, eta=eta, n_ions=n_ions, tau=tau)
        closed = closed_two_bit_tensor(ctx)
        quad = quad_two_bit_tensor(ctx)
        mask = closed.known
        worst = max(worst, float(np.abs(closed.values[mask] - quad.values[mask]).max()))
    return _check("two_bit_quadrature", worst < _QUAD_TOL, f"max |closed-quad| = {worst:.3e}")


def check_quadrature_infidelity() -> CheckResult:
    """Both gates' 1 - F: closed form vs the Gauss-rule oracle, relative, at
    noise so small that the absolute tensor check sees nothing."""
    worst = 0.0
    for op_tau in (1e-12, 1e-8, 1e-4):
        ctx1 = GateContext(omega=1e5, eta=0.1, n_ions=20, tau=op_tau / 1e5)
        ctx2 = GateContext(omega=1e5, eta=0.1, n_ions=20, tau=op_tau / ctx1.omega_prime)
        t = math.pi / ctx1.omega
        for exact, quad in (
            (fidelity_one_bit(t, ctx1), fidelity_one_bit(t, ctx1, Method.QUADRATURE)),
            (fidelity_two_bit(ctx2), fidelity_two_bit(ctx2, Method.QUADRATURE)),
        ):
            worst = max(worst, abs(quad.one_minus_f - exact.one_minus_f) / exact.one_minus_f)
    return _check("quadrature_infidelity", worst < 1e-10, f"max relative |closed-quad| = {worst:.3e}")


def check_semigroup() -> CheckResult:
    """Averaged phase factors compose multiplicatively in time."""
    worst = 0.0
    for omega, tau in [(1e5, 1e-8), (2e4, 1e-7), (1e5, 1e-6)]:
        for t1, t2 in [(1e-5, 2e-5), (3e-5, 3e-5), (1e-6, 9e-5)]:
            lhs = averaged_phase_factor(omega, t1 + t2, tau)
            rhs = averaged_phase_factor(omega, t1, tau) * averaged_phase_factor(omega, t2, tau)
            worst = max(worst, abs(lhs - rhs))
    return _check("semigroup", worst < _EXACT_TOL, f"max composition defect = {worst:.3e}")


def check_diagonal_conservation() -> CheckResult:
    """The exact map of a diagonal H, evolution in the energy basis, leaves
    populations bitwise unchanged."""
    rng = np.random.default_rng(7)
    a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    rho = a @ a.conj().T
    rho /= np.trace(rho).real
    h = HamiltonianSpec(np.diag([0.0, 1e4, 3e4, 1e5]))
    out = exact_map(h, DensityMatrix(rho), t=1e-4, tau=1e-7)
    exact = bool(np.all(np.diag(out.matrix) == np.diag(rho)))
    report = validate_density(out)
    ok = exact and report.ok
    return _check("diagonal_conservation", ok,
                  f"diagonal bitwise = {exact}, state valid = {report.ok}")


def check_distribution_moments() -> CheckResult:
    """The Gamma Gauss rule's normalisation (1e-8) and first two moments
    (1e-6 relative)."""
    worst_norm = 0.0
    worst_mom = 0.0
    for shape in (0.5, 1.0, 10.0, 3141.59):
        dist = AreaDistribution(t=shape * 1e-3, tau=1e-3, omega_mean=1.0)
        norm = quad_average(lambda a: np.ones_like(a), dist)
        mean = quad_average(lambda a: a, dist)
        var = quad_average(lambda a: a * a, dist) - mean**2
        worst_norm = max(worst_norm, abs(norm - 1.0))
        worst_mom = max(
            worst_mom,
            abs(mean - dist.mean) / dist.mean,
            abs(var - dist.variance) / dist.variance,
        )
    ok = worst_norm < 1e-8 and worst_mom < 1e-6
    return _check("distribution_moments", ok,
                  f"norm err = {worst_norm:.3e}, moment rel err = {worst_mom:.3e}")


def check_two_bit_tensor_mc(n_samples: int, seed: int) -> CheckResult:
    """Two-bit fidelity tensor, all 256 entries: Monte Carlo vs the Gauss rule
    within max(5 stderr, 1e-12); the floor covers entries of stderr 0."""
    ctx = GateContext(omega=1e5, eta=0.1, n_ions=20, tau=1e-8)
    rng = np.random.default_rng(seed)
    mc, stderr = mc_two_bit_tensor(ctx, max(n_samples // 100, 2000), rng)
    diff = np.abs(mc.values - quad_two_bit_tensor(ctx).values)
    margin = float((diff / np.maximum(_N_SIGMA * stderr, _EXACT_TOL)).max())
    return _check("two_bit_tensor_mc", margin <= 1.0,
                  f"max |mc-quad| / max(5 stderr, 1e-12) = {margin:.3f}")


def check_delta_limit() -> CheckResult:
    """tau -> 0: both gates are exact."""
    ctx = GateContext(omega=1e5, eta=0.1, n_ions=20, tau=0.0)
    r1 = fidelity_one_bit(math.pi / ctx.omega, ctx, Method.ANALYTIC)
    r2 = fidelity_two_bit(ctx, Method.ANALYTIC)
    worst = max(abs(r1.fidelity - 1.0), abs(r2.fidelity - 1.0))
    return _check("delta_limit", worst < _EXACT_TOL, f"max |F-1| = {worst:.3e}")


def run_all(n_samples: int = 1_000_000, seed: int = 0) -> list[CheckResult]:
    return [
        check_phase_factor_quadrature(),
        check_kernel_quadrature(),
        check_kernel_mc(n_samples, seed),
        check_sampler_moments(n_samples, seed),
        check_one_bit_mc(n_samples, seed),
        check_two_bit_mc(n_samples, seed),
        check_two_bit_quadrature(),
        check_quadrature_infidelity(),
        check_semigroup(),
        check_diagonal_conservation(),
        check_distribution_moments(),
        check_two_bit_tensor_mc(n_samples, seed),
        check_delta_limit(),
    ]
