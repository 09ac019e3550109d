"""The benchmark's own closed forms, written independently of decogate.

Every average rests on the Gamma characteristic function: for an area
A ~ Gamma(shape k, scale x), E[exp(i s A)] = (1 - i s x)^(-k).  It is kept in
polar form (log-modulus, angle) so that 1 - F is formed without cancellation.
"""

from __future__ import annotations

import math

import numpy as np


def char(x, k):
    """(log |E e^{iA}|, arg E e^{iA}) for A ~ Gamma(k, x); arrays broadcast."""
    return -0.5 * k * np.log1p(x * x), k * np.arctan(x)


def one_bit_infidelity(omega, tau):
    """1 - F of the carrier pi rotation (t = pi/omega).

    Per sample U_ideal^dag U(A) is a rotation by A - omega t, and the gate
    average gives 1 - F = (3/8) (1 - E cos(A - omega t)).
    """
    x = omega * tau
    log_mod, ang = char(x, np.pi / x)
    phase = ang - np.pi
    return 0.375 * (-np.expm1(log_mod) + np.exp(log_mod) * 2.0 * np.sin(0.5 * phase) ** 2)


def pulse_moments(x, k):
    """Averaged trig moments of one sideband pulse at noise x = omega' tau and
    shape k = t/tau: (C1, S1, C2, S2, Z) = E[cos A/2], E[sin A/2],
    E[cos^2 A/2], E[sin^2 A/2], E[sin A/2 cos A/2]."""
    lh, ah = char(0.5 * x, k)
    lf, af = char(x, k)
    c2 = 0.5 * (1.0 + np.exp(lf) * np.cos(af))
    s2 = 0.5 * (-np.expm1(lf) + np.exp(lf) * 2.0 * np.sin(0.5 * af) ** 2)
    return (np.exp(lh) * np.cos(ah), np.exp(lh) * np.sin(ah), c2, s2, 0.5 * np.exp(lf) * np.sin(af))


def two_bit_known_entries(x: float) -> dict[tuple[int, int, int, int], float]:
    """Known entries F[i', i, j', j] of the three-pulse (pi, 2pi, pi) gate's
    fidelity tensor at x = omega' tau."""
    c1p, s1p, c2p, s2p, zp = pulse_moments(x, math.pi / x)
    c1_2, _, c2_2, _, _ = pulse_moments(x, 2 * math.pi / x)
    fam = {
        "20": c1p**2 - s1p**2 * c1_2,
        "30": s1p**2 - c1p**2,
        "32": zp**2 * (1.0 + c1_2) - c2p**2 - s2p**2 * c1_2,
    }
    out = {(0, 0, 0, 0): 1.0, (1, 1, 1, 1): 1.0, (1, 0, 0, 1): 1.0, (0, 1, 1, 0): 1.0}
    out[(2, 2, 2, 2)] = c2p**2 + s2p**2 * c2_2 - 2 * zp**2 * c1_2
    out[(3, 3, 3, 3)] = c2p**2 + s2p**2 - 2 * zp**2
    for key, pairs in (
        ("20", ((2, 0), (2, 1), (0, 2), (1, 2))),
        ("30", ((3, 0), (3, 1), (0, 3), (1, 3))),
        ("32", ((3, 2), (2, 3))),
    ):
        for ip, j in pairs:
            out[(ip, j, j, ip)] = fam[key]
    for i in range(4):
        for j in range(4):
            if i != j:
                out[(i, i, j, j)] = 0.0
    return {k: float(v) for k, v in out.items()}


def two_bit_fidelity(x: float) -> float:
    """F = (1/8) sum_i F[i,i,i,i] + (1/24) sum_{i != j} (F[i,i,j,j] + F[j,i,i,j])."""
    e = two_bit_known_entries(x)
    diag = sum(e[(i, i, i, i)] for i in range(4))
    off = sum(e[(i, i, j, j)] + e[(j, i, i, j)] for i in range(4) for j in range(4) if i != j)
    return diag / 8.0 + off / 24.0


def shor_report(bits: int, omega: float, eta: float, tau: float, threshold: float = 0.1) -> dict:
    n_ions = 5 * bits
    omega_prime = eta * omega / math.sqrt(n_ions)
    gamma = 2.0 * omega_prime**2 * tau
    op_time = 4.0 * math.pi * math.sqrt(n_ions) / (eta * omega)
    n_ops = (10 * bits) ** 3
    ratio = op_time * n_ops * gamma
    return {
        "n_ions": n_ions,
        "omega_prime": omega_prime,
        "gamma": gamma,
        "decoherence_time": 1.0 / gamma,
        "op_time": op_time,
        "n_ops": n_ops,
        "total_time": op_time * n_ops,
        "ratio": ratio,
        "feasible": ratio < threshold,
    }


def _trace_distance(a: np.ndarray, b: np.ndarray) -> float:
    d = a - b
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(0.5 * (d + d.conj().T)))))


def evolution_distances(h: np.ndarray, rho0: np.ndarray, times, tau: float):
    """Trace distance and max off-diagonal gap between the exact averaged map
    and the second-order equation d rho/dt = -i[H,rho] - (tau/2)[H,[H,rho]],
    both solved per energy gap w in H's eigenbasis:
    exact exp(-(t/tau)(log1p(w^2 tau^2)/2 + i arctan(w tau))), second order
    exp(-i w t - tau w^2 t / 2)."""
    w, v = np.linalg.eigh(h)
    gaps = w[:, None] - w[None, :]
    rho_eig = v.conj().T @ rho0 @ v
    off = ~np.eye(len(w), dtype=bool)
    dists, offs = [], []
    for t in times:
        exact = np.exp(-(t / tau) * (0.5 * np.log1p((gaps * tau) ** 2) + 1j * np.arctan(gaps * tau)))
        second = np.exp(-1j * gaps * t - 0.5 * tau * gaps**2 * t)
        a = v @ (rho_eig * exact) @ v.conj().T
        b = v @ (rho_eig * second) @ v.conj().T
        dists.append(_trace_distance(a, b))
        offs.append(float(np.max(np.abs((a - b)[off]))))
    return dists, offs
