"""1-F of both analytic gates against a 50-digit mpmath oracle.

The oracle evaluates the Gamma characteristic function (1 - i s x)^(-k) and
the tensor closed forms in 50-digit arithmetic, for the exact float inputs
the library receives, so 1 - F there carries no cancellation error even at
Omega*tau = 1e-16.
"""

import math

import mpmath
import numpy as np
import pytest

from decogate.decoherence import gamma_char
from decogate.fidelity import fidelity_one_bit, fidelity_two_bit
from decogate.gates import GateContext

mpmath.mp.dps = 50

NOISE_GRID = np.logspace(-16, 1, 35)  # Omega*tau (one bit), Omega'*tau (two bit)
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
