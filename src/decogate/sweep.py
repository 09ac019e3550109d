"""Parameter sweeps of 1-F vs the fractional pulse-area error.

The sweep spans a log-spaced grid in tau at fixed physical parameters and
reports, per point, the dimensionless noise strength (Omega tau or Omega'
tau), the fractional pulse-area error sqrt(tau/t_ref), and 1-F.  The
reference time is the pi-pulse duration of the respective gate.  A log-log
least-squares fit recovers the quadratic small-noise scaling (slope 2).

The analytic grid is one array pass through the same closed forms that a
single fidelity query uses; Monte Carlo and quadrature still run point by
point, each Monte Carlo point on its own spawned random stream.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fidelity import Method, fidelity_one_bit, fidelity_two_bit
from .fidelity import _one_bit_infidelity, _two_bit_infidelity
from .gates import GateContext


@dataclass(frozen=True)
class SweepSpec:
    gate: str  # "one_bit" | "two_bit"
    tau_min: float
    tau_max: float
    points: int
    context: GateContext
    method: Method | str = Method.ANALYTIC
    mc_samples: int = 1_000_000

    def __post_init__(self):
        if self.gate not in ("one_bit", "two_bit"):
            raise ValueError("gate must be 'one_bit' or 'two_bit'")
        for name in ("tau_min", "tau_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.tau_min <= 0:
            raise ValueError("tau_min must be positive")
        if self.tau_max <= self.tau_min:
            raise ValueError("empty range: tau_max must exceed tau_min")
        if self.points < 2:
            raise ValueError("need at least 2 points")


@dataclass(frozen=True)
class SweepRow:
    tau: float
    omega_tau: float
    fractional_error: float
    one_minus_f: float
    stderr: float


def run_sweep(spec: SweepSpec, seed: int = 0) -> list[SweepRow]:
    """Evaluate the sweep grid; rows in ascending tau, deterministic per seed
    (Monte Carlo points draw from independently spawned per-point streams)."""
    method = Method(spec.method)
    ctx = spec.context
    # 10**log10(tau_max) can round past the largest float
    with np.errstate(over="ignore"):
        taus = np.logspace(math.log10(spec.tau_min), math.log10(spec.tau_max), spec.points)
    if not np.isfinite(taus[-1]):
        raise ValueError(f"tau_max {spec.tau_max} overflows on the log-spaced grid")
    one_bit = spec.gate == "one_bit"
    omega = ctx.omega if one_bit else ctx.omega_prime
    t_ref = math.pi / omega
    if method is Method.ANALYTIC:
        one_minus_f = (_one_bit_infidelity(omega, t_ref, taus) if one_bit
                       else _two_bit_infidelity(omega, taus))
        stderr = np.zeros_like(taus)
    else:
        results = []
        for tau, child in zip(taus, np.random.SeedSequence(seed).spawn(len(taus))):
            point = replace(ctx, tau=float(tau))
            rng = np.random.default_rng(child)
            results.append(
                fidelity_one_bit(t_ref, point, method, spec.mc_samples, rng) if one_bit
                else fidelity_two_bit(point, method, spec.mc_samples, rng))
        one_minus_f = [r.one_minus_f for r in results]
        stderr = [r.stderr for r in results]
    columns = np.column_stack([taus, omega * taus, np.sqrt(taus / t_ref), one_minus_f, stderr])
    return [SweepRow(*row) for row in columns.tolist()]


def fit_loglog_slope(rows: list[SweepRow]) -> tuple[float, float, float]:
    """Least-squares fit of log10(1-F) vs log10(fractional error); returns
    (slope, intercept, r_squared)."""
    if len(rows) < 3:
        raise ValueError("need at least 3 rows to fit")
    for k, row in enumerate(rows):
        if row.one_minus_f <= 0:
            raise ValueError(
                f"row {k} (tau={row.tau:g}) has nonpositive 1-F {row.one_minus_f:g}"
            )
    x = np.log10([r.fractional_error for r in rows])
    y = np.log10([r.one_minus_f for r in rows])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_res = float(np.sum(resid**2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(slope), float(intercept), r_squared
