"""Averaged process operators, fidelity tensors, and gate fidelities.

The averaged process operator Rbar_{i',i} is the pulse-area average of
U(A)|i><i'|U(A)^dag; the fidelity tensor F[i',i,j',j] compares it to the
ideal gate U via <j'|U^dag Rbar_{i',i} U|j>, and the gate fidelity is a fixed
linear contraction of the tensor (weights 3/8, 1/8 for one bit; 1/8, 1/24 for
two bits).  With each pulse U(A) = q + cos(A/2) r + sin(A/2) b (`gates`), the
gate W(A) = U_p(A_p) ... U_1(A_1) expands over one part per pulse, and its
amplitudes <d|U^dag W(A)|i> on the logical states |i> are sum_k w_k(A) T[k,
i, d], where w_k(A) = prod_p v(A_p)[codes[k, p]] and v(A) = (1, cos(A/2),
sin(A/2)).  Rebasing each pulse's parts to its nominal area A0 gives the
table in the area deviations delta = A - A0, with v replaced by u(delta) =
(1, sin(delta/2), 2 sin^2(delta/4)); its all-zero code term is the ideal
gate, and by unitarity 1 - F_n is a sum of squares of the remaining terms,
||w(delta) @ K||^2 for one real kernel K per gate (`_infidelity_kernel`).
Both rows of u past the first come from one tan(delta/4) (`_u`).

Both gates run one estimator (`_infidelity`) on their kernel.  Monte Carlo
averages the per-sample 1 - F_n, not F_n, so a 1 - F far below the rounding
of F = 1 is still resolved; it reads ||w(delta) @ L||^2 for a factor L of
K K^T on K's rank, 5 columns for the two-bit K's 8.  The closed form and
the quadrature oracle average the same sum: with independent areas,
E[w_k w_l] = prod_p
M_p[codes[k, p], codes[l, p]] for one moment matrix M_p = E[u u^T] per
pulse, so 1 - F is the average of (K K^T)[k, l], and the two-bit tensor that
of T[k] conj(T[l]) (`_contract_moments`).  The two differ only in M_p:
closed forms on `deviation_char`, the characteristic function of the
deviation from the mean area, or the Gauss rule on that deviation.  Both
oracles are those of `decoherence`, and each reads the distribution's
decision whether it is the delta at its mean.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

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
    one_bit_unitary,
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


class _Kernel(NamedTuple):
    """A gate's kernel: 1 - F_n = ||w(delta_n) @ k||^2 = ||w(delta_n) @
    factor||^2, w_k = prod_p u(delta_p)[codes[k, p]]."""

    codes: np.ndarray
    k: np.ndarray
    # factor factor^T = k k^T, on as many columns as k's rank
    factor: np.ndarray


def _rank_factor(k: np.ndarray) -> np.ndarray:
    """L = K Q for an orthonormal basis Q of K's rows, by Gram-Schmidt (each
    row projected out twice), so L L^T = K K^T on rank(K) columns; entries
    as small as the rounding are 0, as in K."""
    q = np.empty((0, k.shape[1]))
    for row in k:
        for _ in range(2):
            row = row - (row @ q.T) @ q
        norm = math.sqrt(row @ row)
        if norm > _ROUNDING:
            q = np.vstack([q, row / norm])
    factor = k @ q.T
    factor[np.abs(factor) <= _ROUNDING] = 0.0
    return factor


def _infidelity_kernel(pulses, ideal: np.ndarray, logical, w_diag: float, w_off: float) -> _Kernel:
    """The kernel of the gate whose pulses are the (parts, nominal area)
    pairs in `pulses`: 1 - F_n = ||w(delta_n) @ K||^2.

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
    k = k[rows][:, k.any(axis=0)]
    return _Kernel(codes[rows], k, _rank_factor(k))


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
# One estimator for both gates
# --------------------------------------------------------------------------

def _u(d, out=None):
    """Rows 1 and 2 of u(d) = (1, sin(d/2), 2 sin^2(d/4)), written to out
    (two arrays like d) if given, from one t = tan(d/4) per deviation:
    sin(d/2) = 2t / (1 + t^2) and 2 sin^2(d/4) = t sin(d/2).  Both are
    exactly 0 at d = 0, and t^2 cannot overflow: no float d/4 lies within
    1e-154 of an odd multiple of pi/2."""
    s, v = (np.empty_like(d), np.empty_like(d)) if out is None else out
    t = np.tan(0.25 * d)
    np.multiply(t, t, out=v)
    v += 1.0
    np.divide(t, v, out=s)
    s *= 2.0
    np.multiply(t, s, out=v)
    return s, v


def _kernel_statistic(kernel: _Kernel):
    """statistic(*deviations) for _mc_moments: the per-sample 1 - F_n =
    ||w(delta_n) @ L||^2 for the kernel's factor L and one array per pulse
    of its area's deviations delta from their mean, the nominal area, of at
    most _MC_CHUNK samples.

    Each pulse that any code uses takes one tangent per sample (`_u`), and
    each w_k of two or more factors is the row of its code without the last
    factor times that factor's row: the product of its code's nonzero
    factors in pulse order.  The factors u[0] = 1 it skips would multiply
    exactly, so the result is bitwise the full product.  A row the kernel
    lacks (a u row or a partial product no code is) gets a zero column of
    L^T.  The all-zero code, the ideal gate, is not in a kernel, so every
    code has a factor.  Samples run along the last axis, where sums over
    rows are fast, and the work arrays are reused from chunk to chunk: fresh
    ones of the two-bit size cost a page fault per 4 KB, most of the time
    otherwise.
    """
    codes, _, factor = kernel
    # the row of w for each code, as its (pulse, u row) factors in pulse order
    index = {tuple((p, int(r)) for p, r in enumerate(c) if r): i for i, c in enumerate(codes)}

    def row(fs):
        return index.setdefault(fs, len(index))

    u_rows = [(p, row(((p, 1),)), row(((p, 2),))) for p in sorted({p for fs in index for p, _ in fs})]
    products = list(dict.fromkeys((row(fs[:j]), row(fs[:j - 1]), row(fs[j - 1:j]))
                                  for fs in list(index) for j in range(2, len(fs) + 1)))
    lt = np.zeros((factor.shape[1], len(index)))
    lt[:, :len(codes)] = factor.T
    w_all, y_all = np.empty((len(index), _MC_CHUNK)), np.empty((len(lt), _MC_CHUNK))

    def statistic(*d):
        n = len(d[0])
        w, y = w_all[:, :n], y_all[:, :n]
        for p, s, v in u_rows:
            _u(d[p], out=(w[s], w[v]))
        for target, head, last in products:
            np.multiply(w[head], w[last], out=w[target])
        np.matmul(lt, w, out=y)
        y *= y
        return y.sum(axis=0)

    return statistic


class _Gate(NamedTuple):
    """A gate for _infidelity: the cached function that builds its kernel,
    and its pulses' Rabi frequency and durations."""

    kernel_of: object
    omega: float
    times: tuple


@functools.cache
def _infidelity_pairs(kernel_of):
    """K K^T of kernel_of()'s kernel as moment pairs: 1 - F = sum G (K K^T)."""
    codes, k, _ = kernel_of()
    return _moment_pairs(codes, k @ k.T)


def _closed_moments(gate: _Gate, tau) -> list:
    """Per pulse of the gate, E[u(d) u(d)^T] as (3, 3) + tau.shape for the
    area deviation d, from E sin and E[1 - cos] of d and d/2: the first
    pulse's characteristic function (`deviation_char`) to the power times[p]
    / times[0], exact for a Gamma (and 1 for the first, even of duration 0).
    E[sin^2(d/2)] = E[1 - cos d]/2, E[sin(d/2) (1 - cos(d/2))] = E sin(d/2) -
    E[sin d]/2 and E[(1 - cos(d/2))^2] = 2 E[1 - cos(d/2)] - E[1 - cos d]/2."""
    times, s, shape = gate.times, np.array([1.0, 0.5]), (1,) * np.ndim(tau)
    log_modulus, angle = deviation_char(s * gate.omega, times[0], tau)
    powers = np.reshape([1.0] + [t / times[0] for t in times[1:]], (-1,) + shape)
    log_modulus, angle = log_modulus[:, None] * powers, angle[:, None] * powers
    sin_full, sin_half = np.exp(log_modulus) * np.sin(angle)
    vers_full, vers_half = one_minus_re(log_modulus, angle)
    ss, sv, vv = 0.5 * vers_full, sin_half - 0.5 * sin_full, 2.0 * vers_half - 0.5 * vers_full
    m = np.array([np.ones_like(ss), sin_half, vers_half, sin_half, ss, sv, vers_half, sv, vv])
    return [m.reshape((3, 3) + ss.shape)[:, :, p] for p in range(len(ss))]


def _gauss_moments(dists) -> list:
    """Per pulse distribution, E[u(delta) u(delta)^T] by the Gauss rule on
    the deviation from the mean, once per distinct distribution."""
    def products(dev):
        u = np.stack([np.ones_like(dev), *_u(dev)], axis=-1)
        return u[:, :, None] * u[:, None, :]
    moments = {d: gauss_average(products, d)[0] for d in set(dists)}
    return [moments[d] for d in dists]


def _infidelity(gate: _Gate, tau, method: Method, n_samples: int = 1_000_000,
                rng: np.random.Generator | None = None):
    """(1 - F, stderr) of the gate at noise tau: the moment contraction of
    K K^T on closed-form or Gauss-rule moments, or the Monte Carlo mean of
    ||w(delta) @ K||^2.  An ndarray tau gives arrays (analytic only)."""
    if method is Method.ANALYTIC:
        moments = _closed_moments(gate, tau)
    else:
        # the distributions first: they name an overflowing nominal area or scale
        dists = tuple(AreaDistribution(t, tau, gate.omega) for t in gate.times)
        if method is Method.MONTE_CARLO:
            return _mc_moments(dists, _kernel_statistic(gate.kernel_of()), n_samples, rng)
        moments = _gauss_moments(dists)
    return _contract_moments(_infidelity_pairs(gate.kernel_of), moments), 0.0


def _gate_fidelity(gate: _Gate, ctx: GateContext, method, n_samples: int,
                   rng: np.random.Generator | None, nominal_time: float) -> GateFidelityResult:
    """The gate's _infidelity at ctx.tau as a result record."""
    method = Method(method)
    one_minus_f, stderr = map(float, _infidelity(gate, ctx.tau, method, n_samples, rng))
    return GateFidelityResult(fidelity=1.0 - one_minus_f, one_minus_f=one_minus_f, method=method,
                              stderr=stderr, context=ctx, nominal_time=nominal_time)


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


def f0000_one_bit(t: float, ctx: GateContext) -> float:
    """Closed form of the averaged overlap E[cos^2((A - Omega t)/2)], the
    single independent tensor element of the one-bit gate: 1 - E[sin^2(delta/2)]."""
    return 1.0 - float(_closed_moments(_one_bit_gate(t, ctx), ctx.tau)[0][1, 1])


def closed_one_bit_tensor(t: float, ctx: GateContext) -> FidelityTensor:
    """Full 2x2x2x2 fidelity tensor of the carrier rotation."""
    if t <= 0:
        raise ValueError("t must be positive")
    u = ideal_one_bit_gate(t, ctx)
    return FidelityTensor.full(np.array(
        [[u.conj().T @ rbar_one_bit(i, ip, t, ctx) @ u for i in range(2)] for ip in range(2)]))


@functools.cache
def _one_bit_kernel():
    """The carrier rotation's kernel at phi = 0 and nominal area pi.  Its one
    term, sin(delta/2) U(A0)^dag (c0 b - s0) = sin(delta/2) b, and K K^T =
    3/4 hold at every A0 and phi, so it serves every t and phi."""
    return _infidelity_kernel(((carrier_parts(0.0), PI),), one_bit_unitary(PI), (0, 1),
                              ONE_BIT_W_DIAG, ONE_BIT_W_OFF)


def _one_bit_gate(t: float, ctx: GateContext) -> _Gate:
    """The carrier rotation of nominal time t."""
    return _Gate(_one_bit_kernel, ctx.omega, (t,))


def fidelity_one_bit(
    t: float,
    ctx: GateContext,
    method: Method | str = Method.ANALYTIC,
    n_samples: int = 1_000_000,
    rng: np.random.Generator | None = None,
) -> GateFidelityResult:
    """Averaged one-bit gate fidelity after a rotation of nominal time t."""
    if not (math.isfinite(t) and t > 0):
        raise ValueError(f"t must be finite and positive, got {t}")
    return _gate_fidelity(_one_bit_gate(t, ctx), ctx, method, n_samples, rng, t)


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
    """The two-bit gate's kernel, 16 of its 26 deviation terms on 8 real
    columns of rank 5 (two pairs of equal columns, and a fifth the
    difference of two others), so its factor has 5; built on first use, so
    importing costs nothing."""
    return _infidelity_kernel(_TWO_BIT_PULSES, ideal_two_bit_gate(), LOGICAL_INDICES,
                              TWO_BIT_W_DIAG, TWO_BIT_W_OFF)


def _two_bit_gate(ctx: GateContext) -> _Gate:
    """The three pulses (nominal areas pi, 2pi, pi) at Omega'."""
    wp = ctx.omega_prime
    return _Gate(_two_bit_kernel, wp, tuple(a0 / wp for _, a0 in _TWO_BIT_PULSES))


def pulse_distributions(ctx: GateContext) -> tuple[AreaDistribution, ...]:
    """Area distributions of the three pulses (nominal pi, 2pi, pi)."""
    wp = ctx.omega_prime
    return tuple(AreaDistribution(step.nominal_area / wp, ctx.tau, wp) for step in UNIVERSAL_SEQUENCE)


def _two_bit_tensor(moments) -> np.ndarray:
    """F[i', i, j', j] from one deviation moment matrix E[u u^T] per pulse."""
    return _contract_moments(_TWO_BIT_TENSOR, [r @ m @ r.T for r, m in zip(_REBASE, moments)])


def closed_two_bit_tensor(ctx: GateContext) -> FidelityTensor:
    """Closed-form two-bit tensor on the entries contract_fidelity reads; NaN elsewhere."""
    values = _two_bit_tensor(_closed_moments(_two_bit_gate(ctx), ctx.tau))
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
    return _gate_fidelity(_two_bit_gate(ctx), ctx, method, n_samples, rng, 4 * PI / ctx.omega_prime)


def mc_two_bit_tensor(
    ctx: GateContext, n_samples: int, rng: np.random.Generator | None = None
) -> tuple[FidelityTensor, np.ndarray]:
    """Monte Carlo tensor F[i', i, j', j] = E[amp[i, j'] conj(amp[i', j])]
    and its per-element standard errors."""

    dists = pulse_distributions(ctx)

    def products(*deviations):
        amp = _table_amp(_TWO_BIT_TABLE, *(d.mean + dev for d, dev in zip(dists, deviations)))
        return amp[:, None, :, :, None] * amp.conj()[:, :, None, None, :]  # [n, i', i, j', j]

    mean, stderr = _mc_moments(dists, products, n_samples, rng)
    return FidelityTensor.full(mean), stderr


def fidelity_mc_two_bit(
    ctx: GateContext, n_samples: int, rng: np.random.Generator | None = None
) -> GateFidelityResult:
    """Monte Carlo two-bit fidelity over n_samples sampled pulse triples."""
    return fidelity_two_bit(ctx, Method.MONTE_CARLO, n_samples, rng)


def quad_two_bit_tensor(ctx: GateContext) -> FidelityTensor:
    """Quadrature oracle for the two-bit tensor: the Gauss rule's moments."""
    return FidelityTensor.full(_two_bit_tensor(_gauss_moments(pulse_distributions(ctx))))
