"""1-F of both analytic gates, and the per-sample two-bit Monte Carlo kernel,
against a 50-digit mpmath oracle.

The oracle evaluates the Gamma characteristic function (1 - i s x)^(-k), the
tensor closed forms and the dense 18x18 pulse products in 50-digit
arithmetic, for the exact float inputs the library receives, so 1 - F there
carries no cancellation error even at Omega*tau = 1e-16 or a 1e-10 rad area
deviation.
"""

import math

import mpmath
import numpy as np
import pytest

import decogate.fidelity as fidelity_mod
from decogate.decoherence import gamma_char
from decogate.fidelity import TWO_BIT_W_DIAG, TWO_BIT_W_OFF, fidelity_one_bit, fidelity_two_bit
from decogate.gates import UNIVERSAL_SEQUENCE, GateContext, ideal_two_bit_gate, pulse_parts
from decogate.statemath import LOGICAL_INDICES

mpmath.mp.dps = 50

# Omega*tau (one bit), Omega'*tau (two bit); its first 35 points are logspace(-16, 1, 35)
NOISE_GRID = np.logspace(-16, 12, 57)
OMEGA = 1e5


def _char(omega: float, t: float, tau: float, s, mult: int = 1):
    """E[e^{i s A}] of the area A of `mult` back-to-back pulses of time t."""
    k = mpmath.mpf(t) / mpmath.mpf(tau)
    x = mpmath.mpf(omega) * mpmath.mpf(tau)
    return mpmath.power(mpmath.mpc(1, -s * x), -mult * k)


def one_bit_infidelity_mp(t: float, ctx: GateContext):
    # 1 - F = (3/4)(1 - E[cos^2((A - Omega t)/2)])
    shifted = _char(ctx.omega, t, ctx.tau, 1) * mpmath.expj(-mpmath.mpf(ctx.omega) * mpmath.mpf(t))
    return mpmath.mpf(3) / 8 * (1 - mpmath.re(shifted))


def two_bit_infidelity_mp(ctx: GateContext):
    wp = ctx.omega_prime
    t1 = math.pi / wp
    half = mpmath.mpf(1) / 2
    full_pi, half_pi = _char(wp, t1, ctx.tau, 1), _char(wp, t1, ctx.tau, half)
    c1, s1 = mpmath.re(half_pi), mpmath.im(half_pi)
    c2, s2, z = (1 + mpmath.re(full_pi)) / 2, (1 - mpmath.re(full_pi)) / 2, mpmath.im(full_pi) / 2
    c1_2pi = mpmath.re(_char(wp, t1, ctx.tau, half, mult=2))
    c2_2pi = (1 + mpmath.re(_char(wp, t1, ctx.tau, 1, mult=2))) / 2
    f2222 = c2**2 + s2**2 * c2_2pi - 2 * z**2 * c1_2pi
    f3333 = c2**2 + s2**2 - 2 * z**2
    f20 = c1**2 - s1**2 * c1_2pi
    f30 = s1**2 - c1**2
    f32 = -(c2**2) - s2**2 * c1_2pi + z**2 * (1 + c1_2pi)
    fid = (2 + f2222 + f3333) / 8 + (2 + 4 * f20 + 4 * f30 + 2 * f32) / 24
    return 1 - fid


def _rel_err(got: float, want) -> float:
    return float(abs((mpmath.mpf(got) - want) / want))


@pytest.mark.parametrize("noise", NOISE_GRID)
def test_one_bit_infidelity_matches_mpmath(noise):
    ctx = GateContext(omega=OMEGA, eta=0.1, n_ions=20, tau=noise / OMEGA)
    t = math.pi / ctx.omega
    res = fidelity_one_bit(t, ctx)
    assert _rel_err(res.one_minus_f, one_bit_infidelity_mp(t, ctx)) <= 1e-12
    assert res.fidelity == 1.0 - res.one_minus_f


@pytest.mark.parametrize("noise", NOISE_GRID)
def test_two_bit_infidelity_matches_mpmath(noise):
    base = GateContext(omega=OMEGA, eta=0.1, n_ions=20, tau=1e-8)
    ctx = GateContext(omega=OMEGA, eta=0.1, n_ions=20, tau=noise / base.omega_prime)
    res = fidelity_two_bit(ctx)
    assert _rel_err(res.one_minus_f, two_bit_infidelity_mp(ctx)) <= 1e-12
    assert res.fidelity == 1.0 - res.one_minus_f


@pytest.mark.parametrize("x", np.logspace(-150, 300, 10))
def test_gamma_char_matches_mpmath_from_tiny_to_huge_omega_tau(x):
    # log modulus and angle of (1 - i x)^(-k), each to a few ulp, from
    # x = 1e-150 to well past x^2's overflow at x ~ 1.3e154
    k = 3.0
    want = -k * mpmath.log(mpmath.mpc(1, -x))
    log_modulus, angle = gamma_char(x, k, 1.0)
    assert _rel_err(log_modulus, mpmath.re(want)) <= 1e-15
    assert _rel_err(angle, mpmath.im(want)) <= 1e-15


def two_bit_sample_infidelity_mp(areas):
    """1 - F_n of one sample from the dense 18x18 pulse products, with each
    pulse at its exact nominal area (pi or 2pi) plus the float deviation
    A - A0 that the library sees."""
    states = mpmath.matrix(np.eye(18)[:, list(LOGICAL_INDICES)].tolist())
    for step, a in zip(UNIVERSAL_SEQUENCE, areas):
        half = (round(step.nominal_area / math.pi) * mpmath.pi + (mpmath.mpf(a) - step.nominal_area)) / 2
        q, r, b = (mpmath.matrix(m.tolist()) for m in pulse_parts(step))
        states = (q + mpmath.cos(half) * r + mpmath.sin(half) * b) * states
    ideal = np.diag(ideal_two_bit_gate()).real
    # amp[i, j'] = <j'|U^dag W|i>; F_n = w_off (sum|amp|^2 + |tr amp|^2) + (w_diag - 2 w_off) sum|amp_ii|^2
    amp = [[ideal[d] * states[d, i] for d in LOGICAL_INDICES] for i in range(4)]
    diag = [amp[i][i] for i in range(4)]
    total = sum(abs(x) ** 2 for row in amp for x in row)
    w_diag, w_off = mpmath.mpf(1) / 8, mpmath.mpf(1) / 24
    f = w_off * (total + abs(sum(diag)) ** 2) + (w_diag - 2 * w_off) * sum(abs(x) ** 2 for x in diag)
    return 1 - f


@pytest.mark.parametrize("seed", range(10))
def test_two_bit_kernel_matches_mpmath_dense_product(seed):
    # deviations of 1e-10 to 1e-1 rad of either sign: of one scale on odd
    # seeds (1 - F_n down to ~1e-20), of independent scales on even ones
    assert (TWO_BIT_W_DIAG, TWO_BIT_W_OFF) == (1 / 8, 1 / 24)
    rng = np.random.default_rng(seed)
    exponents = rng.uniform(-9.7, -1, 1) + rng.uniform(-0.3, 0, 3) if seed % 2 else rng.uniform(-10, -1, 3)
    deviations = rng.choice([-1.0, 1.0], 3) * 10**exponents
    areas = [step.nominal_area + d for step, d in zip(UNIVERSAL_SEQUENCE, deviations)]
    got = fidelity_mod._kernel_statistic(fidelity_mod._two_bit_kernel())(
        *(np.array([a - step.nominal_area]) for a, step in zip(areas, UNIVERSAL_SEQUENCE)))
    assert _rel_err(float(got[0]), two_bit_sample_infidelity_mp(areas)) <= 1e-12


def _ulps(got: np.ndarray, want) -> np.ndarray:
    """|got - want| in units of the spacing of floats at want."""
    return np.array([float(abs(mpmath.mpf(g) - w) / float(np.spacing(abs(float(w))))) for g, w in zip(got, want)])


@pytest.mark.filterwarnings("error")
def test_tangent_rows_match_mpmath():
    # u(d)'s rows sin(d/2) and 2 sin^2(d/4) from one tan(d/4): for |d| in
    # [1e-150, 1e3], and within 1e-9 of the poles d = 2 pi (2m + 1) of the
    # tangent, where sin(d/2) goes to 0 and 2 sin^2(d/4) to 2
    rng = np.random.default_rng(5)
    spread = rng.choice([-1.0, 1.0], 1500) * 10 ** rng.uniform(-150, 3, 1500)
    poles = np.array([2 * math.pi * (2 * m + 1) for m in range(5)])
    near = (poles[:, None] + rng.choice([-1.0, 1.0], (5, 100)) * 10 ** rng.uniform(-15, -9, (5, 100))).ravel()
    d = np.concatenate([spread, poles, np.nextafter(poles, 0.0), np.nextafter(poles, 100.0), near])
    s, v = fidelity_mod._u(d)
    assert _ulps(s, [mpmath.sin(mpmath.mpf(x) / 2) for x in d]).max() <= 4
    assert _ulps(v, [2 * mpmath.sin(mpmath.mpf(x) / 4) ** 2 for x in d]).max() <= 4
    s0, v0 = fidelity_mod._u(np.zeros(3))
    assert not s0.any() and not v0.any()
