"""Averaged process operators, fidelity tensors, and gate fidelities.

The averaged process operator Rbar_{i',i} is the pulse-area average of
U(A)|i><i'|U(A)^dag; the fidelity tensor F[i',i,j',j] compares it to the
ideal gate U via <j'|U^dag Rbar_{i',i} U|j>, and the gate fidelity is a fixed
linear contraction of the tensor (weights 3/8, 1/8 for one bit; 1/8, 1/24 for
two bits).  Every analytic path here has an independent Monte Carlo and
quadrature oracle, and both rest on one logical-block table.  With each pulse
U(A) = q + cos(A/2) r + sin(A/2) b (`gates`), the gate W(A) = U_p(A_p) ...
U_1(A_1) expands over one part per pulse, and its amplitudes <d|U^dag W(A)|i>
on the logical states |i> are sum_k w_k(A) T[k, i, d], where w_k(A) =
prod_p v(A_p)[codes[k, p]] and v(A) = (1, cos(A/2), sin(A/2)).  Quadrature
averages each w_k w_l with the Gamma Gauss rule of `decoherence.gauss_average`.

Monte Carlo averages a per-sample infidelity 1 - F_n, not F_n, so a 1 - F
far below the rounding of F = 1 is still resolved.  Rebasing each pulse's
parts to its nominal area A0 gives the table in the area deviations delta =
A - A0, with v replaced by u(delta) = (1, sin(delta/2), 2 sin^2(delta/4)); its
all-zero code term is the ideal gate, and by unitarity 1 - F_n is a sum of
squares of the remaining terms, ||w(delta) @ K||^2 for one real kernel K per
gate (`_infidelity_kernel`).  The closed forms do not use the table.

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
    _kernels,
    _mc_moments,
    gamma_char,
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
    """1 - E[cos^2((A - Omega t)/2)] = (1 - e^l cos(angle - Omega t))/2 with
    (l, angle) the characteristic function of the carrier area A; an ndarray
    tau gives an array."""
    log_modulus, angle = gamma_char(omega, t, tau)
    return 0.5 * one_minus_re(log_modulus, angle - omega * t)


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
        # the same reduction by quadrature: 1 - F = (3/4) E[sin^2((A - Omega t)/2)]
        one_minus_f = 0.75 * float(gauss_average(
            lambda a: np.sin(0.5 * (a - ctx.omega * t)) ** 2,
            AreaDistribution(t, ctx.tau, ctx.omega))[0])
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

# Closed-form families of the two-bit tensor, each of ideal value 1: the
# contraction weight of each entry and the entries F[i', i, j', j] it fixes.
_TWO_BIT_FAMILIES = {
    "2222": (TWO_BIT_W_DIAG, ((2, 2, 2, 2),)),
    "3333": (TWO_BIT_W_DIAG, ((3, 3, 3, 3),)),
    "20": (TWO_BIT_W_OFF, tuple((ip, j, j, ip) for ip, j in ((2, 0), (2, 1), (0, 2), (1, 2)))),
    "30": (TWO_BIT_W_OFF, tuple((ip, j, j, ip) for ip, j in ((3, 0), (3, 1), (0, 3), (1, 3)))),
    "32": (TWO_BIT_W_OFF, ((3, 2, 2, 3), (2, 3, 3, 2))),
}


# The two-bit gate's table: 4 of its 27 terms have a nonzero logical block.
_TWO_BIT_TABLE = _logical_table(
    [pulse_parts(step) for step in UNIVERSAL_SEQUENCE], ideal_two_bit_gate(), LOGICAL_INDICES)


@functools.cache
def _two_bit_kernel():
    """The two-bit gate's Monte Carlo kernel, 16 of its 26 deviation terms
    on 8 real columns; built on first use, so importing costs nothing."""
    return _infidelity_kernel(
        [(pulse_parts(step), step.nominal_area) for step in UNIVERSAL_SEQUENCE],
        ideal_two_bit_gate(), LOGICAL_INDICES, TWO_BIT_W_DIAG, TWO_BIT_W_OFF)


def pulse_distributions(ctx: GateContext) -> tuple[AreaDistribution, ...]:
    """Area distributions of the three pulses (nominal pi, 2pi, pi)."""
    wp = ctx.omega_prime
    return tuple(AreaDistribution(step.nominal_area / wp, ctx.tau, wp) for step in UNIVERSAL_SEQUENCE)


def _two_bit_defects(omega_prime: float, tau) -> dict:
    """Defects 1 - F of the closed-form two-bit tensor families as sums of
    non-negative terms: exact rearrangements of F2222 = C2^2 + S2^2 C2' -
    2 Z^2 C1', F3333 = C2^2 + S2^2 - 2 Z^2, F20 = C1^2 - S1^2 C1', F30 = S1^2
    - C1^2 and F32 = Z^2 (1 + C1') - C2^2 - S2^2 C1' in the pi-pulse kernels
    and the 2pi-pulse ones (primed).  The 2pi pulse's characteristic function
    is the pi pulse's squared, which gives d1 = 1 + C1' and d2 = 1 - C2' in
    terms of e = 1 - |E e^{iA}|^2 at the half and the full angle.  An ndarray
    tau gives arrays."""
    log_modulus, angle = gamma_char(
        np.array([omega_prime, 0.5 * omega_prime]), PI / omega_prime, tau)
    k = _kernels(log_modulus, angle)
    e_full, e_half = -np.expm1(2 * log_modulus)
    d1 = e_half + 2 * k.c1**2
    d2 = 0.5 * e_full + 4 * k.z**2
    return {
        "2222": 0.5 * e_full + k.s2**2 * d2 + 2 * k.z**2 * d1,
        "3333": d2,
        "20": e_half + k.s1**2 * d1,
        "30": d1,
        "32": 2 * k.c2**2 + 0.5 * e_full + k.z**2 * (2 - d1) + k.s2**2 * d1,
    }


def _two_bit_infidelity(omega_prime: float, tau):
    """Analytic 1 - F: the contraction of the closed-form families."""
    defects = _two_bit_defects(omega_prime, tau)
    return sum(w * len(e) * defects[n] for n, (w, e) in _TWO_BIT_FAMILIES.items())


def closed_two_bit_tensor(ctx: GateContext) -> FidelityTensor:
    """Closed-form elements of the two-bit fidelity tensor.

    All elements entering the fidelity contraction are fixed: the diagonal
    family, the exchange families (ideal value 1 minus their defect), and the
    vanishing cross-population elements.  Remaining elements are left
    unknown (NaN).
    """
    values = np.full((4, 4, 4, 4), np.nan, dtype=complex)
    known = np.zeros((4, 4, 4, 4), dtype=bool)

    def put(entries, val):
        for e in entries:
            values[e] = val
            known[e] = True

    put([(0, 0, 0, 0), (1, 1, 1, 1), (1, 0, 0, 1), (0, 1, 1, 0)], 1.0)
    for name, defect in _two_bit_defects(ctx.omega_prime, ctx.tau).items():
        put(_TWO_BIT_FAMILIES[name][1], 1.0 - defect)
    put([(i, i, j, j) for i in range(4) for j in range(4) if i != j], 0.0)
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
    stderr = 0.0
    if method is Method.ANALYTIC:
        one_minus_f = float(_two_bit_infidelity(ctx.omega_prime, ctx.tau))
    elif method is Method.MONTE_CARLO:
        one_minus_f, stderr = map(float, _mc_moments(
            pulse_distributions(ctx), _kernel_statistic(_two_bit_kernel()), n_samples, rng))
    else:
        tensor = quad_two_bit_tensor(ctx)
        one_minus_f = 1.0 - contract_fidelity(tensor, TWO_BIT_W_DIAG, TWO_BIT_W_OFF)
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
    """Quadrature oracle for the two-bit tensor: F[i',i,j',j] = sum_kl G[k,l]
    T[k,i,j'] conj(T[l,i',j]) with G[k,l] = E[w_k w_l] = prod_p M_p[codes[k,p],
    codes[l,p]] by independence of the pulse areas, and M_p = E[v(A_p) v(A_p)^T]
    by the Gauss rule, once per distinct distribution."""
    codes, table = _TWO_BIT_TABLE
    dists = pulse_distributions(ctx)
    moments = {d: gauss_average(lambda a: np.einsum("ni,nj->nij", _v(a), _v(a)), d)[0]
               for d in set(dists)}
    g = np.prod([moments[d][np.ix_(c, c)] for d, c in zip(dists, codes.T)], axis=0)
    return FidelityTensor.full(np.einsum("kl,kab,lcd->cabd", g, table, table.conj()))
