"""Averaged process operators, fidelity tensors, and gate fidelities.

The averaged process operator Rbar_{i',i} is the pulse-area average of
U(A)|i><i'|U(A)^dag; the fidelity tensor F[i',i,j',j] compares it to the
ideal gate U via <j'|U^dag Rbar_{i',i} U|j>, and the gate fidelity is a fixed
linear contraction of the tensor (weights 3/8, 1/8 for one bit; 1/8, 1/24 for
two bits).  Every analytic path here has an independent Monte Carlo and
quadrature oracle, and all three rest on one logical-block table.  With each
pulse U(A) = q + cos(A/2) r + sin(A/2) b (`gates`), the gate W(A) = U_p(A_p)
... U_1(A_1) expands over one part per pulse, and its amplitudes
<d|U^dag W(A)|i> on the logical states |i> are sum_k w_k(A) T[k, i, d],
where w_k(A) = prod_p v(A_p)[codes[k, p]] and v(A) = (1, cos(A/2), sin(A/2)).

Monte Carlo averages a per-sample infidelity 1 - F_n, not F_n, so a 1 - F
far below the rounding of F = 1 is still resolved.  Rebasing each pulse's
parts to its nominal area A0 gives the table in the area deviations delta =
A - A0, with v replaced by u(delta) = (1, sin(delta/2), 2 sin^2(delta/4)); its
all-zero code term is the ideal gate, and by unitarity 1 - F_n is a sum of
squares of the remaining terms, ||w(delta) @ K||^2 for one real kernel K per
gate (`_infidelity_kernel`).

The closed forms and the quadrature oracle average the same tables: with
independent areas, E[w_k w_l] = prod_p M_p[codes[k, p], codes[l, p]] for one
moment matrix M_p = E[u u^T] per pulse, so the two-bit tensor and 1 - F are
averages of T[k] conj(T[l]) and (K K^T)[k, l] (`_contract_moments`).  The
two differ only in M_p: closed forms on `deviation_char`, the characteristic
function of the deviation from the mean area, or the Gauss rule, also on that
deviation.  (The mean area Omega' t is the nominal one up to the rounding of
t = pi / Omega'.)

Both oracles are the ones of `decoherence`: every Monte Carlo estimate runs
its one chunked loop (`_mc_moments`) over exactly the requested number of
samples per pulse and reports the per-sample standard error, and every
quadrature runs its one Gauss rule; each reads the distribution's own
decision whether it is the delta at its mean (tau = 0, or t/tau overflows).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .decoherence import (
    _MC_CHUNK,
    AreaDistribution,
    _mc_moments,
    deviation_char,
    gauss_average,
    kernel_integrals,
    one_minus_re,
)
from .gates import (
    PI,
    UNIVERSAL_SEQUENCE,
    GateContext,
    carrier_parts,
    ideal_one_bit_gate,
    ideal_two_bit_gate,
    pulse_parts,
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
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"t must be finite and positive, got {t}")
    if not (math.isfinite(tau) and tau >= 0):
        raise ValueError(f"tau must be finite and nonnegative, got {tau}")
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
# Logical-block table
# --------------------------------------------------------------------------


def _v(a: np.ndarray) -> np.ndarray:
    """v(A) = (1, cos(A/2), sin(A/2)) for each area, as (n, 3): the weights of
    the parts (q, r, b) in U(A) = q + cos(A/2) r + sin(A/2) b."""
    return np.stack([np.ones_like(a), np.cos(0.5 * a), np.sin(0.5 * a)], axis=-1)


def _logical_table(parts_seq, ideal: np.ndarray, logical, leak: bool = False):
    """(codes, T) of the gate whose pulses have the parts (q, r, b) in
    parts_seq, in time order: T[k, i, d] = <d|U^dag W_k|i> for the logical
    |i>, with d over the logical states and then, if leak, over every other
    state.  Only terms with a nonzero T[k] stay."""
    rows = list(logical) + [d for d in range(len(ideal)) if leak and d not in logical]
    cols = np.eye(len(ideal))[:, list(logical)]
    terms = cols[None]
    for parts in parts_seq:
        terms = np.einsum("cde,kel->kcdl", np.stack(parts), terms).reshape(-1, *cols.shape)
    table = np.swapaxes(np.eye(len(ideal))[:, rows].T @ ideal.conj().T @ terms, 1, 2)
    codes = np.array(list(np.ndindex(*(3,) * len(parts_seq))))
    keep = np.any(table != 0, axis=(1, 2))
    return codes[keep], table[keep]


def _table_amp(table, *areas) -> np.ndarray:
    """amp[n, i, j'] = sum_k w_k(A_n) T[k, i, j'] for table = (codes, T) and
    one (n,) area array per pulse."""
    codes, t = table
    w = 1.0
    for a, c in zip(areas, codes.T):
        w = w * _v(a)[:, c]
    return (w @ t.reshape(len(t), -1)).reshape(-1, *t.shape[1:])


# Table entries are sums of products of entries of unit-norm parts, so an
# entry that is 0 in exact arithmetic comes out as a few ulp at most; the
# kernel treats anything this small as 0.
_ROUNDING = 1e-12


def _infidelity_kernel(pulses, ideal: np.ndarray, logical, w_diag: float, w_off: float):
    """(nominal areas, codes, K) with 1 - F_n = ||w(delta_n) @ K||^2 for the
    gate whose pulses are the (parts, nominal area) pairs in `pulses`.

    Each pulse's parts are rebased to its nominal area A0, U(A0 + delta) =
    (q + c0 r + s0 b) + sin(delta/2) (c0 b - s0 r) - 2 sin^2(delta/4) (c0 r +
    s0 b) with (c0, s0) = (cos, sin)(A0/2), so w_k = prod_p u(delta_p)[codes[k,
    p]].  The all-zero code term is the ideal gate (checked) and is dropped;
    the rest give the logical block E = M - 1 and the leaked amplitudes
    directly.  By unitarity and n sum|x_i|^2 - |sum x_i|^2 = sum_{i<j}|x_i -
    x_j|^2, the contraction is 1 - F_n = w_off sum_{i<j}|E_ii - E_jj|^2 +
    (w_off (n - 2) + w_diag) sum_{i!=j}|E_ij|^2 + (w_off (n - 1) + w_diag) *
    leaked norm, a sum of squares of real linear forms in w: K's columns.
    """
    rebased = []
    for (q, r, b), a0 in pulses:
        c0, s0 = math.cos(0.5 * a0), math.sin(0.5 * a0)
        rebased.append((q + c0 * r + s0 * b, c0 * b - s0 * r, -(c0 * r + s0 * b)))
    codes, t = _logical_table(rebased, ideal, logical, leak=True)
    n = len(logical)
    if codes[0].any() or np.abs(t[0] - np.eye(*t.shape[1:])).max() > _ROUNDING:
        raise ValueError("the pulses at their nominal areas do not make the ideal gate")
    codes, t = codes[1:], t[1:]
    i, j = np.triu_indices(n, 1)
    terms = np.concatenate([
        math.sqrt(w_off) * (t[:, i, i] - t[:, j, j]),
        math.sqrt(w_off * (n - 2) + w_diag) * t[:, :, :n][:, ~np.eye(n, dtype=bool)],
        math.sqrt(w_off * (n - 1) + w_diag) * t[:, :, n:].reshape(len(t), -1),
    ], axis=1)
    k = np.concatenate([terms.real, terms.imag], axis=1)
    k[np.abs(k) <= _ROUNDING] = 0.0
    rows = k.any(axis=1)
    return tuple(a0 for _, a0 in pulses), codes[rows], k[rows][:, k.any(axis=0)]


def _moment_pairs(codes, weights):
    """(pairs, W) with sum_kl G[k,l] weights[k,l] = sum_t W[t] prod_p
    M_p.flat[pairs[p, t]], G[k,l] = prod_p M_p[codes[k,p], codes[l,p]], for
    symmetric M_p: over k <= l, W = weights[k,l] + weights[l,k] (once at k = l)."""
    n = len(codes)
    merged = weights + np.swapaxes(weights, 0, 1)
    merged[np.diag_indices(n)] = weights[np.diag_indices(n)]
    k, l = np.nonzero(np.triu(np.abs(merged).reshape(n, n, -1).max(axis=-1) > _ROUNDING))
    return (3 * codes[k] + codes[l]).T, merged[k, l]


def _contract_moments(pairs, moments):
    """sum_kl G[k,l] weights[k,l] for pairs = _moment_pairs(codes, weights) and
    one symmetric (3, 3, ...) M_p per pulse, summed by halving: elementwise, so
    an array of M_p gives bitwise the sums of its entries (BLAS would not)."""
    pairs, w = pairs
    g = functools.reduce(np.multiply, (np.take(m.reshape((9,) + m.shape[2:]), p, axis=0)
                                       for m, p in zip(moments, pairs)))
    terms = w.reshape(w.shape + (1,) * (g.ndim - 1)) * g.reshape(g.shape[:1] + (1,) * (w.ndim - 1) + g.shape[1:])
    n = len(terms)
    while n > 1:
        terms[:n // 2] += terms[(n + 1) // 2:n]
        n = (n + 1) // 2
    return terms[0]


# --------------------------------------------------------------------------
# One-bit gate
# --------------------------------------------------------------------------

ONE_BIT_W_DIAG = 3.0 / 8.0
ONE_BIT_W_OFF = 1.0 / 8.0


def rbar_one_bit(i: int, i_prime: int, t: float, ctx: GateContext) -> np.ndarray:
    """Averaged process operator E[U(A)|i><i'|U(A)^dag] for the carrier
    rotation, in closed form via the Gamma characteristic function."""
    if i not in (0, 1) or i_prime not in (0, 1):
        raise ValueError("state indices must be 0 or 1")
    k = kernel_integrals(t, ctx.omega, ctx.tau)
    # U|i> = cos(A/2) e_i + sin(A/2) B e_i, so the average of the outer
    # product weighs the four column products by C2, S2, Z, Z
    _, e, b = carrier_parts(ctx.phi)
    ei, bi, ej, bj = e[:, i], b[:, i], e[:, i_prime].conj(), b[:, i_prime].conj()
    return k.c2 * np.outer(ei, ej) + k.s2 * np.outer(bi, bj) + k.z * (
        np.outer(ei, bj) + np.outer(bi, ej)
    )


def _one_minus_f0000(omega: float, t: float, tau):
    """1 - E[cos^2((A - Omega t)/2)] = (1 - e^l cos(a))/2 with (l, a) the
    characteristic function of the carrier area's deviation A - Omega t; an
    ndarray tau gives an array."""
    return 0.5 * one_minus_re(*deviation_char(omega, t, tau))


def _one_bit_infidelity(omega: float, t: float, tau):
    """Analytic 1 - F: the contraction weights reduce the tensor to
    F = 1/4 + (3/4) f0000."""
    return 0.75 * _one_minus_f0000(omega, t, tau)


def f0000_one_bit(t: float, ctx: GateContext) -> float:
    """Closed form of the averaged overlap E[cos^2((A - Omega t)/2)], the
    single independent tensor element of the one-bit gate."""
    return 1.0 - float(_one_minus_f0000(ctx.omega, t, ctx.tau))


def closed_one_bit_tensor(t: float, ctx: GateContext) -> FidelityTensor:
    """Full 2x2x2x2 fidelity tensor of the carrier rotation."""
    if t <= 0:
        raise ValueError("t must be positive")
    u = ideal_one_bit_gate(t, ctx)
    return FidelityTensor.full(np.array(
        [[u.conj().T @ rbar_one_bit(i, ip, t, ctx) @ u for i in range(2)] for ip in range(2)]))


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
    stderr = 0.0
    if method is Method.ANALYTIC:
        one_minus_f = float(_one_bit_infidelity(ctx.omega, t, ctx.tau))
    elif method is Method.MONTE_CARLO:
        # the distribution first: it names an overflowing nominal area Omega t
        dist = AreaDistribution(t, ctx.tau, ctx.omega)
        kernel = _infidelity_kernel(((carrier_parts(ctx.phi), dist.mean),),
                                    ideal_one_bit_gate(t, ctx), (0, 1), ONE_BIT_W_DIAG, ONE_BIT_W_OFF)
        one_minus_f, stderr = map(float, _mc_moments((dist,), _kernel_statistic(kernel), n_samples, rng))
    else:
        # the same reduction by quadrature on the deviation: 1 - F = (3/4) E[sin^2(delta/2)]
        one_minus_f = 0.75 * float(gauss_average(
            lambda dev: np.sin(0.5 * dev) ** 2, AreaDistribution(t, ctx.tau, ctx.omega))[0])
    return GateFidelityResult(
        fidelity=1.0 - one_minus_f,
        one_minus_f=one_minus_f,
        method=method,
        stderr=stderr,
        context=ctx,
        nominal_time=t,
    )


# --------------------------------------------------------------------------
# Monte Carlo estimator
# --------------------------------------------------------------------------

# Each row of u(delta) = (1, sin(delta/2), 2 sin^2(delta/4)), by code.
_U_ROWS = (np.ones_like, lambda d: np.sin(0.5 * d), lambda d: 2 * np.sin(0.25 * d) ** 2)


def _kernel_statistic(kernel):
    """statistic(*areas) for _mc_moments: the per-sample 1 - F_n =
    ||w(A_n - A0) @ K||^2 for kernel = (A0, codes, K) and one area array per
    pulse, of at most _MC_CHUNK samples.

    Each pulse builds only the rows of u that its codes use (the one-bit
    kernel's codes are all 1).  Samples run along the last axis, where row
    gathers and sums over rows are fast, and the work arrays are reused from
    chunk to chunk: fresh ones of the two-bit size cost a page fault per
    4 KB, most of the time otherwise.
    """
    nominal, codes, k = kernel
    # per pulse, the rows its codes use and each code's index among them
    # (not np.unique, whose first call raises peak RSS by about 0.7 MB)
    used = [sorted(set(c.tolist())) for c in codes.T]
    rows = [(u, np.searchsorted(u, c)) for u, c in zip(used, codes.T)]
    w_all, g_all, y_all = (np.empty((m, _MC_CHUNK)) for m in (len(codes), len(codes), k.shape[1]))

    def statistic(*areas):
        n = len(areas[0])
        w, g, y = w_all[:, :n], g_all[:, :n], y_all[:, :n]
        w.fill(1.0)
        for a, a0, (used, c) in zip(areas, nominal, rows):
            d = a - a0
            u = np.stack([_U_ROWS[r](d) for r in used])
            # mode="clip" (the codes are in range) lets take write into g unbuffered
            w *= np.take(u, c, axis=0, out=g, mode="clip")
        np.matmul(k.T, w, out=y)
        y *= y
        return y.sum(axis=0)

    return statistic


# --------------------------------------------------------------------------
# Two-bit gate
# --------------------------------------------------------------------------

TWO_BIT_W_DIAG = 1.0 / 8.0
TWO_BIT_W_OFF = 1.0 / 24.0

_TWO_BIT_PULSES = [(pulse_parts(step), step.nominal_area) for step in UNIVERSAL_SEQUENCE]
# The two-bit gate's table: 4 of its 27 terms have a nonzero logical block.
_TWO_BIT_TABLE = _logical_table([p for p, _ in _TWO_BIT_PULSES], ideal_two_bit_gate(), LOGICAL_INDICES)
# F[i', i, j', j] = sum_kl G[k,l] T[k, i, j'] conj(T[l, i', j]), G from E[v v^T].
_TWO_BIT_TENSOR = _moment_pairs(
    _TWO_BIT_TABLE[0], np.einsum("kab,lcd->klcabd", _TWO_BIT_TABLE[1], _TWO_BIT_TABLE[1].conj()))
# v(A0 + delta) = R u(delta) at each nominal area A0, so E[v v^T] = R E[u u^T] R^T.
_REBASE = [np.array([[1, 0, 0], [c, -s, -c], [s, c, -s]])
           for c, s in ((math.cos(0.5 * a0), math.sin(0.5 * a0)) for _, a0 in _TWO_BIT_PULSES)]
# The closed tensor's known entries: those contract_fidelity reads, F[i,i,j,j] and F[j,i,i,j].
_TWO_BIT_KNOWN = np.einsum("ab,cd->abcd", *[np.eye(4)] * 2) + np.einsum("ad,bc->abcd", *[np.eye(4)] * 2) > 0


@functools.cache
def _two_bit_kernel():
    """The two-bit gate's Monte Carlo kernel, 16 of its 26 deviation terms
    on 8 real columns; built on first use, so importing costs nothing."""
    return _infidelity_kernel(_TWO_BIT_PULSES, ideal_two_bit_gate(), LOGICAL_INDICES,
                              TWO_BIT_W_DIAG, TWO_BIT_W_OFF)


@functools.cache
def _two_bit_infidelity_weights():
    """K K^T as moment pairs: 1 - F = sum_kl G[k,l] (K K^T)[k,l]."""
    _, codes, k = _two_bit_kernel()
    return _moment_pairs(codes, k @ k.T)


def pulse_distributions(ctx: GateContext) -> tuple[AreaDistribution, ...]:
    """Area distributions of the three pulses (nominal pi, 2pi, pi)."""
    wp = ctx.omega_prime
    return tuple(AreaDistribution(step.nominal_area / wp, ctx.tau, wp) for step in UNIVERSAL_SEQUENCE)


def _closed_moments(omega_prime: float, tau) -> list:
    """Per pulse, E[u(d) u(d)^T] as (3, 3) + tau.shape for the area deviation
    d, from E sin and E[1 - cos] of d and d/2: the characteristic function of
    the pi pulse's deviation (`deviation_char`), to the power m for a pulse of
    m times the area.  E[sin^2(d/2)] = E[1 - cos d]/2, E[sin(d/2) (1 -
    cos(d/2))] = E sin(d/2) - E[sin d]/2 and E[(1 - cos(d/2))^2] = 2 E[1 -
    cos(d/2)] - E[1 - cos d]/2."""
    s, shape = np.array([1.0, 0.5]), (1,) * np.ndim(tau)
    log_modulus, angle = deviation_char(s * omega_prime, PI / omega_prime, tau)
    powers = np.reshape([a0 / PI for _, a0 in _TWO_BIT_PULSES], (-1,) + shape)
    log_modulus, angle = log_modulus[:, None] * powers, angle[:, None] * powers
    sin_full, sin_half = np.exp(log_modulus) * np.sin(angle)
    vers_full, vers_half = one_minus_re(log_modulus, angle)
    ss, sv, vv = 0.5 * vers_full, sin_half - 0.5 * sin_full, 2.0 * vers_half - 0.5 * vers_full
    m = np.array([np.ones_like(ss), sin_half, vers_half, sin_half, ss, sv, vers_half, sv, vv])
    return [m.reshape((3, 3) + ss.shape)[:, :, p] for p in range(len(ss))]


def _gauss_moments(ctx: GateContext) -> list:
    """Per pulse, E[u(delta) u(delta)^T] by the Gauss rule on the deviation
    from the mean, once per distinct distribution."""
    def products(dev):
        u = np.stack([row(dev) for row in _U_ROWS], axis=-1)
        return u[:, :, None] * u[:, None, :]
    dists = pulse_distributions(ctx)
    moments = {d: gauss_average(products, d)[0] for d in set(dists)}
    return [moments[d] for d in dists]


def _two_bit_infidelity(omega_prime: float, tau):
    """Analytic 1 - F; an ndarray tau gives an array."""
    return _contract_moments(_two_bit_infidelity_weights(), _closed_moments(omega_prime, tau))


def _two_bit_tensor(moments) -> np.ndarray:
    """F[i', i, j', j] from one deviation moment matrix E[u u^T] per pulse."""
    return _contract_moments(_TWO_BIT_TENSOR, [r @ m @ r.T for r, m in zip(_REBASE, moments)])


def closed_two_bit_tensor(ctx: GateContext) -> FidelityTensor:
    """Closed-form two-bit tensor on the entries contract_fidelity reads; NaN elsewhere."""
    values = _two_bit_tensor(_closed_moments(ctx.omega_prime, ctx.tau))
    values[~_TWO_BIT_KNOWN] = np.nan
    return FidelityTensor(n_states=4, values=values, known=_TWO_BIT_KNOWN.copy())


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
    stderr = 0.0
    if method is Method.ANALYTIC:
        one_minus_f = float(_two_bit_infidelity(ctx.omega_prime, ctx.tau))
    elif method is Method.MONTE_CARLO:
        one_minus_f, stderr = map(float, _mc_moments(
            pulse_distributions(ctx), _kernel_statistic(_two_bit_kernel()), n_samples, rng))
    else:
        one_minus_f = float(_contract_moments(_two_bit_infidelity_weights(), _gauss_moments(ctx)))
    return GateFidelityResult(
        fidelity=1.0 - one_minus_f,
        one_minus_f=one_minus_f,
        method=method,
        stderr=stderr,
        context=ctx,
        nominal_time=nominal_time,
    )


def mc_two_bit_tensor(
    ctx: GateContext, n_samples: int, rng: np.random.Generator | None = None
) -> tuple[FidelityTensor, np.ndarray]:
    """Monte Carlo tensor F[i', i, j', j] = E[amp[i, j'] conj(amp[i', j])]
    and its per-element standard errors."""

    def products(*areas):
        amp = _table_amp(_TWO_BIT_TABLE, *areas)
        return amp[:, None, :, :, None] * amp.conj()[:, :, None, None, :]  # [n, i', i, j', j]

    mean, stderr = _mc_moments(pulse_distributions(ctx), products, n_samples, rng)
    return FidelityTensor.full(mean), stderr


def fidelity_mc_two_bit(
    ctx: GateContext, n_samples: int, rng: np.random.Generator | None = None
) -> GateFidelityResult:
    """Monte Carlo two-bit fidelity over n_samples sampled pulse triples."""
    return fidelity_two_bit(ctx, Method.MONTE_CARLO, n_samples, rng)


def quad_two_bit_tensor(ctx: GateContext) -> FidelityTensor:
    """Quadrature oracle for the two-bit tensor: the Gauss rule's moments."""
    return FidelityTensor.full(_two_bit_tensor(_gauss_moments(ctx)))
