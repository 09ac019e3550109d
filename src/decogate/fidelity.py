"""Averaged process operators, fidelity tensors, and gate fidelities.

The averaged process operator Rbar_{i',i} is the pulse-area average of
U(A)|i><i'|U(A)^dag; the fidelity tensor F[i',i,j',j] compares it to the
ideal gate U via <j'|U^dag Rbar_{i',i} U|j>, and the gate fidelity is a fixed
linear contraction of the tensor (weights 3/8, 1/8 for one bit; 1/8, 1/24 for
two bits).  Every analytic path here has an independent Monte Carlo and
quadrature oracle.

Every Monte Carlo estimate runs one chunked loop (`_mc_moments`) over exactly
the requested number of samples per pulse and reports the per-sample
standard error; there is no batch count.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .decoherence import (
    QUAD_ABS_TOL,
    AreaDistribution,
    quad_average_matrix,
    sample_area,
)
from .gates import (
    DIM,
    apply_pulse_batch,
    PI,
    UNIVERSAL_SEQUENCE,
    GateContext,
    coupled_pairs,
    ideal_one_bit_gate,
    ideal_two_bit_gate,
    one_bit_unitary,
    pulse_unitary,
)
from .statemath import LOGICAL_INDICES


class Method(str, Enum):
    ANALYTIC = "analytic"
    MONTE_CARLO = "monte_carlo"
    QUADRATURE = "quadrature"


@dataclass
class FidelityTensor:
    """4-index tensor F[i', i, j', j]; entries not fixed by the closed forms
    are NaN with known=False."""

    n_states: int
    values: np.ndarray
    known: np.ndarray

    @classmethod
    def full(cls, values: np.ndarray) -> "FidelityTensor":
        n = values.shape[0]
        return cls(n_states=n, values=values, known=np.ones((n,) * 4, dtype=bool))


@dataclass
class GateFidelityResult:
    fidelity: float
    one_minus_f: float
    method: Method
    stderr: float
    context: GateContext
    nominal_time: float


def fractional_error(t: float, tau: float) -> float:
    """Fractional pulse-area error sqrt(tau/t)."""
    if t <= 0:
        raise ValueError("t must be positive")
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    return math.sqrt(tau / t)


def contract_fidelity(tensor: FidelityTensor, w_diag: float, w_off: float) -> float:
    """F = w_diag * sum_i F[i,i,i,i] + w_off * sum_{i != j} (F[i,i,j,j] +
    F[j,i,i,j])."""
    n = tensor.n_states
    v = tensor.values
    total = 0.0 + 0.0j
    for i in range(n):
        total += w_diag * v[i, i, i, i]
    for i in range(n):
        for j in range(n):
            if i != j:
                total += w_off * (v[i, i, j, j] + v[j, i, i, j])
    if abs(total.imag) > 1e-10:
        raise ValueError(f"fidelity contraction is not real: {total}")
    return float(total.real)


# --------------------------------------------------------------------------
# One-bit gate
# --------------------------------------------------------------------------

ONE_BIT_W_DIAG = 3.0 / 8.0
ONE_BIT_W_OFF = 1.0 / 8.0


def _area_char(dist: AreaDistribution | None, omega: float, t: float, tau: float):
    """E[cos A] and E[sin A] under the area distribution (s = 1 moments of the
    characteristic function (1 - i s Omega tau)^{-t/tau})."""
    if tau == 0:
        return math.cos(omega * t), math.sin(omega * t)
    k = t / tau
    theta = omega * tau
    decay = math.exp(-0.5 * k * math.log1p(theta * theta))
    ang = k * math.atan(theta)
    return decay * math.cos(ang), decay * math.sin(ang)


def rbar_one_bit(i: int, i_prime: int, t: float, ctx: GateContext) -> np.ndarray:
    """Averaged process operator E[U(A)|i><i'|U(A)^dag] for the carrier
    rotation, in closed form via the Gamma characteristic function."""
    if i not in (0, 1) or i_prime not in (0, 1):
        raise ValueError("state indices must be 0 or 1")
    if t < 0:
        raise ValueError("t must be nonnegative")
    # U entries written as alpha*cos(A/2) + beta*sin(A/2)
    alpha = np.eye(2, dtype=complex)
    beta = np.array(
        [
            [0.0, -1j * np.exp(-1j * ctx.phi)],
            [-1j * np.exp(1j * ctx.phi), 0.0],
        ],
        dtype=complex,
    )
    if t == 0:
        e_cos, e_sin = 1.0, 0.0
    else:
        e_cos, e_sin = _area_char(None, ctx.omega, t, ctx.tau)
    e_c2 = 0.5 * (1.0 + e_cos)
    e_s2 = 0.5 * (1.0 - e_cos)
    e_cs = 0.5 * e_sin
    out = np.empty((2, 2), dtype=complex)
    for a in range(2):
        for b in range(2):
            aa = alpha[a, i] * np.conj(alpha[b, i_prime])
            bb = beta[a, i] * np.conj(beta[b, i_prime])
            ab = alpha[a, i] * np.conj(beta[b, i_prime]) + beta[a, i] * np.conj(
                alpha[b, i_prime]
            )
            out[a, b] = aa * e_c2 + bb * e_s2 + ab * e_cs
    return out


def f0000_one_bit(t: float, ctx: GateContext) -> float:
    """Closed form of the averaged overlap E[cos^2((A - Omega t)/2)], the
    single independent tensor element of the one-bit gate."""
    if ctx.tau == 0:
        return 1.0
    k = t / ctx.tau
    theta = ctx.omega * ctx.tau
    decay = math.exp(-0.5 * k * math.log1p(theta * theta))
    ang = k * math.atan(theta)
    wt = ctx.omega * t
    return 0.5 * (1.0 + decay * (math.cos(wt) * math.cos(ang) + math.sin(wt) * math.sin(ang)))


def _tensor_from_rbar(rbar_fn, u_ideal: np.ndarray, n_states: int) -> FidelityTensor:
    values = np.empty((n_states,) * 4, dtype=complex)
    for ip in range(n_states):
        for i in range(n_states):
            m = u_ideal.conj().T @ rbar_fn(i, ip) @ u_ideal
            values[ip, i] = m
    return FidelityTensor.full(values)


def closed_one_bit_tensor(t: float, ctx: GateContext) -> FidelityTensor:
    """Full 2x2x2x2 fidelity tensor of the carrier rotation."""
    if t <= 0:
        raise ValueError("t must be positive")
    u = ideal_one_bit_gate(t, ctx)
    return _tensor_from_rbar(lambda i, ip: rbar_one_bit(i, ip, t, ctx), u, 2)


def fidelity_one_bit(
    t: float,
    ctx: GateContext,
    method: Method | str = Method.ANALYTIC,
    n_samples: int = 1_000_000,
    rng: np.random.Generator | None = None,
) -> GateFidelityResult:
    """Averaged one-bit gate fidelity after a rotation of nominal time t."""
    method = Method(method)
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"t must be finite and positive, got {t}")
    if method is Method.ANALYTIC:
        f = contract_fidelity(closed_one_bit_tensor(t, ctx), ONE_BIT_W_DIAG, ONE_BIT_W_OFF)
        stderr = 0.0
    elif method is Method.MONTE_CARLO:
        f, stderr = map(float, _mc_moments(
            (AreaDistribution(t, ctx.tau, ctx.omega),),
            lambda a: _amp_to_fidelity(_one_bit_amp(a, t, ctx), ONE_BIT_W_DIAG, ONE_BIT_W_OFF),
            n_samples, rng))
    else:
        f = _fidelity_one_bit_quad(t, ctx)
        stderr = 0.0
    return GateFidelityResult(
        fidelity=f,
        one_minus_f=1.0 - f,
        method=method,
        stderr=stderr,
        context=ctx,
        nominal_time=t,
    )


def _one_bit_amp(areas: np.ndarray, t: float, ctx: GateContext) -> np.ndarray:
    """amp[n, i, j'] = <j'|U_ideal^dag U(A_n)|i> for batched areas, with
    U(A) = cos(A/2) 1 + sin(A/2) B the carrier rotation."""
    b = np.array([[0.0, -1j * np.exp(-1j * ctx.phi)], [-1j * np.exp(1j * ctx.phi), 0.0]])
    ideal = ideal_one_bit_gate(t, ctx).conj()
    # amp[n, i, j'] = cos(A_n/2) conj(U_ideal[i, j']) + sin(A_n/2) (B^T conj(U_ideal))[i, j']
    cos_part = np.multiply.outer(np.cos(0.5 * areas), ideal)
    return cos_part + np.multiply.outer(np.sin(0.5 * areas), b.T @ ideal)


def _fidelity_one_bit_quad(t: float, ctx: GateContext) -> float:
    """Quadrature oracle: build each Rbar by numerically averaging the actual
    rotation matrices, then contract."""
    if ctx.tau == 0:
        return contract_fidelity(closed_one_bit_tensor(t, ctx), ONE_BIT_W_DIAG, ONE_BIT_W_OFF)
    dist = AreaDistribution(t, ctx.tau, ctx.omega)
    u_ideal = ideal_one_bit_gate(t, ctx)

    def rbar(i, ip):
        m0 = np.zeros((2, 2), dtype=complex)
        m0[i, ip] = 1.0
        return quad_average_matrix(
            lambda a: one_bit_unitary(a, ctx.phi) @ m0 @ one_bit_unitary(a, ctx.phi).conj().T,
            dist,
            2,
        )

    tensor = _tensor_from_rbar(rbar, u_ideal, 2)
    return contract_fidelity(tensor, ONE_BIT_W_DIAG, ONE_BIT_W_OFF)


# --------------------------------------------------------------------------
# Monte Carlo estimator
# --------------------------------------------------------------------------

# Fewest samples a Monte Carlo estimate accepts, for every estimator.
MIN_MC_SAMPLES = 1000
# Samples drawn and reduced at a time; bounds working memory, not the result.
_MC_CHUNK = 4096


def _mc_moments(dists, statistic, n_samples: int, rng: np.random.Generator | None):
    """Mean and standard error of statistic(*areas), an (n, ...) array, over
    exactly n_samples draws of one area from each distribution in dists
    (tau = 0 is the delta at the mean).

    Chunk means and centred sums of squares are merged with Chan's formula,
    which unlike a raw sum of squares stays accurate when the statistic
    barely varies (F near 1).  Complex spreads add in quadrature.
    """
    if n_samples < MIN_MC_SAMPLES:
        raise ValueError(f"need at least {MIN_MC_SAMPLES} Monte Carlo samples, got {n_samples}")
    rng = np.random.default_rng(0) if rng is None else rng
    count, mean, m2 = 0, 0.0, 0.0
    for start in range(0, n_samples, _MC_CHUNK):
        n = min(_MC_CHUNK, n_samples - start)
        areas = [np.full(n, d.mean) if d.tau == 0 else sample_area(d, rng, n) for d in dists]
        x = statistic(*areas)
        x_mean = x.mean(axis=0)
        delta, share = x_mean - mean, n / (count + n)
        m2 = m2 + (np.abs(x - x_mean) ** 2).sum(axis=0) + np.abs(delta) ** 2 * count * share
        mean = mean + delta * share
        count += n
    return mean, np.sqrt(m2 / ((count - 1) * count))


def _amp_to_fidelity(amp: np.ndarray, w_diag: float, w_off: float) -> np.ndarray:
    """Per-sample fidelities from amp[n, i, j'] = <j'|U^dag W|i>.

    contract_fidelity applied to one sample's tensor F[i',i,j',j] =
    amp[i,j'] conj(amp[i',j]) reduces to F_n = w_off (sum_ij |a_ij|^2 +
    |sum_i a_ii|^2) + (w_diag - 2 w_off) sum_i |a_ii|^2.
    """
    p = np.abs(amp) ** 2
    off = p.sum(axis=(1, 2)) + np.abs(np.einsum("nii->n", amp)) ** 2
    return w_off * off + (w_diag - 2 * w_off) * np.einsum("nii->n", p)


# --------------------------------------------------------------------------
# Two-bit gate
# --------------------------------------------------------------------------

TWO_BIT_W_DIAG = 1.0 / 8.0
TWO_BIT_W_OFF = 1.0 / 24.0

_EXCHANGE_20 = ((2, 0), (2, 1), (0, 2), (1, 2))
_EXCHANGE_30 = ((3, 0), (3, 1), (0, 3), (1, 3))
_EXCHANGE_32 = ((3, 2), (2, 3))


def pulse_distributions(ctx: GateContext) -> tuple[AreaDistribution, ...]:
    """Area distributions of the three pulses (nominal pi, 2pi, pi)."""
    wp = ctx.omega_prime
    t1 = PI / wp
    t2 = 2 * PI / wp
    return (
        AreaDistribution(t1, ctx.tau, wp),
        AreaDistribution(t2, ctx.tau, wp),
        AreaDistribution(t1, ctx.tau, wp),
    )


def closed_two_bit_tensor(ctx: GateContext) -> FidelityTensor:
    """Closed-form elements of the two-bit fidelity tensor.

    All elements entering the fidelity contraction are fixed: the diagonal
    family, the exchange families, and the vanishing cross-population
    elements.  Remaining elements are left unknown (NaN).
    """
    from .decoherence import kernel_integrals

    wp = ctx.omega_prime
    kp = kernel_integrals(PI / wp, wp, ctx.tau)
    k2 = kernel_integrals(2 * PI / wp, wp, ctx.tau)
    c2p, s2p, zp, c1p, s1p = kp.c2, kp.s2, kp.z, kp.c1, kp.s1
    c2_2pi = k2.c2
    c1_2pi = k2.c1

    values = np.full((4, 4, 4, 4), np.nan, dtype=complex)
    known = np.zeros((4, 4, 4, 4), dtype=bool)

    def put(ip, i, jp, j, val):
        values[ip, i, jp, j] = val
        known[ip, i, jp, j] = True

    put(0, 0, 0, 0, 1.0)
    put(1, 1, 1, 1, 1.0)
    put(1, 0, 0, 1, 1.0)
    put(0, 1, 1, 0, 1.0)
    put(2, 2, 2, 2, c2p**2 + s2p**2 * c2_2pi - 2 * zp**2 * c1_2pi)
    put(3, 3, 3, 3, c2p**2 + s2p**2 - 2 * zp**2)
    f20 = c1p**2 - s1p**2 * c1_2pi
    for ip, jj in _EXCHANGE_20:
        put(ip, jj, jj, ip, f20)
    f30 = -(c1p**2) + s1p**2
    for ip, jj in _EXCHANGE_30:
        put(ip, jj, jj, ip, f30)
    f32 = -(c2p**2) - s2p**2 * c1_2pi + zp**2 + zp**2 * c1_2pi
    for ip, jj in _EXCHANGE_32:
        put(ip, jj, jj, ip, f32)
    for i in range(4):
        for j in range(4):
            if i != j:
                put(i, i, j, j, 0.0)
    return FidelityTensor(n_states=4, values=values, known=known)


def fidelity_two_bit(
    ctx: GateContext,
    method: Method | str = Method.ANALYTIC,
    n_samples: int = 1_000_000,
    rng: np.random.Generator | None = None,
) -> GateFidelityResult:
    """Averaged fidelity of the three-pulse universal two-bit gate.

    The nominal gate time is fixed by the pulse sequence (4 pi / omega');
    there is no free time parameter.
    """
    method = Method(method)
    nominal_time = 4 * PI / ctx.omega_prime
    if method is Method.ANALYTIC:
        f = contract_fidelity(closed_two_bit_tensor(ctx), TWO_BIT_W_DIAG, TWO_BIT_W_OFF)
        stderr = 0.0
    elif method is Method.MONTE_CARLO:
        f, stderr = map(float, _mc_moments(
            pulse_distributions(ctx),
            lambda *a: _amp_to_fidelity(_two_bit_amp(*a), TWO_BIT_W_DIAG, TWO_BIT_W_OFF),
            n_samples, rng))
    else:
        tensor = quad_two_bit_tensor(ctx)
        f = contract_fidelity(tensor, TWO_BIT_W_DIAG, TWO_BIT_W_OFF)
        stderr = 0.0
    return GateFidelityResult(
        fidelity=f,
        one_minus_f=1.0 - f,
        method=method,
        stderr=stderr,
        context=ctx,
        nominal_time=nominal_time,
    )


def _two_bit_amp(a1: np.ndarray, a2: np.ndarray, a3: np.ndarray) -> np.ndarray:
    """amp[n, i, j'] = <j'|U_ideal^dag W(A1, A2, A3)|i> for (n,) area arrays.

    Each logical column is carried as {basis index: amplitude} through only
    the coupled_pairs blocks it reaches, never as a dense 18-vector; the
    dense reference is composite_action.
    """
    cols = [{start: 1.0} for start in LOGICAL_INDICES]
    for step, a in zip(UNIVERSAL_SEQUENCE, (a1, a2, a3)):
        c, s = np.cos(0.5 * a), np.sin(0.5 * a)
        off_hi, off_lo = -1j * np.exp(-1j * step.phase) * s, -1j * np.exp(1j * step.phase) * s
        for hi, lo in coupled_pairs(step):
            for col in cols:
                if hi in col or lo in col:
                    x_hi, x_lo = col.get(hi, 0.0), col.get(lo, 0.0)
                    col[hi] = c * x_hi + off_hi * x_lo
                    col[lo] = off_lo * x_hi + c * x_lo
    ideal = ideal_two_bit_gate()[:, list(LOGICAL_INDICES)].conj()
    amp = np.zeros((len(a1), 4, 4), dtype=complex)
    for i, col in enumerate(cols):
        for d, x in col.items():
            for j in np.flatnonzero(ideal[d]):
                amp[:, i, j] += ideal[d, j] * x
    return amp


def mc_two_bit_tensor(
    ctx: GateContext, n_samples: int, rng: np.random.Generator | None = None
) -> tuple[FidelityTensor, np.ndarray]:
    """Monte Carlo tensor F[i', i, j', j] = E[amp[i, j'] conj(amp[i', j])]
    and its per-element standard errors."""

    def products(*areas):
        amp = _two_bit_amp(*areas)
        return amp[:, None, :, :, None] * amp.conj()[:, :, None, None, :]  # [n, i', i, j', j]

    mean, stderr = _mc_moments(pulse_distributions(ctx), products, n_samples, rng)
    return FidelityTensor.full(mean), stderr


def fidelity_mc_two_bit(
    ctx: GateContext, n_samples: int, rng: np.random.Generator | None = None
) -> GateFidelityResult:
    """Monte Carlo two-bit fidelity over n_samples sampled pulse triples."""
    return fidelity_two_bit(ctx, Method.MONTE_CARLO, n_samples, rng)


def _averaged_pulse_superop(step, dist: AreaDistribution) -> np.ndarray:
    """Superoperator of the area-averaged pulse conjugation, as a
    (DIM^2, DIM^2) matrix acting on vectorized density operators:
    G[(p q), (r c)] = E[U(A)[r, p] conj(U(A)[c, q])], so that
    vec(E[U M U^dag]) = vec(M) @ G for row-major vectorization.

    Composite Gauss-Legendre with panel doubling; the node images are built
    with the same batched pulse application used by the Monte Carlo path.
    """
    from .decoherence import _quad_window, composite_gl_nodes

    lo, hi = _quad_window(dist.shape, dist.scale)

    def estimate(n_panels: int) -> np.ndarray:
        a, w = composite_gl_nodes(lo, hi, n_panels)
        w = w * dist.pdf(a)
        n_nodes = a.size
        eye = np.broadcast_to(np.eye(DIM, dtype=complex), (n_nodes, DIM, DIM)).copy()
        cols = apply_pulse_batch(eye, step, a[:, None])  # cols[n, p, :] = U(a_n) e_p
        flat = cols.reshape(n_nodes, DIM * DIM)
        g4 = ((flat * w[:, None]).T @ flat.conj()).reshape(DIM, DIM, DIM, DIM)
        # reorder [p, r, q, c] -> [(p q), (r c)]
        return g4.transpose(0, 2, 1, 3).reshape(DIM * DIM, DIM * DIM)

    n = 2
    prev = estimate(n)
    for _ in range(7):
        n *= 2
        cur = estimate(n)
        if np.max(np.abs(cur - prev)) < QUAD_ABS_TOL:
            return cur
        prev = cur
    return prev


def quad_two_bit_tensor(ctx: GateContext) -> FidelityTensor:
    """Quadrature oracle for the two-bit tensor: iterated one-dimensional
    averaging of |i><i'| through the three pulses (exact by independence of
    the pulse areas)."""
    dists = pulse_distributions(ctx)
    u = ideal_two_bit_gate()
    cols = u[:, list(LOGICAL_INDICES)]
    if ctx.tau == 0:
        stages = []
        for step in UNIVERSAL_SEQUENCE:
            up = pulse_unitary(step, step.nominal_area)
            stages.append(("unitary", up))
    else:
        g_pi = _averaged_pulse_superop(UNIVERSAL_SEQUENCE[0], dists[0])
        g_2pi = _averaged_pulse_superop(UNIVERSAL_SEQUENCE[1], dists[1])
        stages = [("superop", g_pi), ("superop", g_2pi), ("superop", g_pi)]
    values = np.empty((4, 4, 4, 4), dtype=complex)
    for ip in range(4):
        for i in range(4):
            m = np.zeros((DIM, DIM), dtype=complex)
            m[LOGICAL_INDICES[i], LOGICAL_INDICES[ip]] = 1.0
            for kind, op in stages:
                if kind == "unitary":
                    m = op @ m @ op.conj().T
                else:
                    m = (m.reshape(-1) @ op).reshape(DIM, DIM)
            values[ip, i] = cols.conj().T @ m @ cols
    return FidelityTensor.full(values)
