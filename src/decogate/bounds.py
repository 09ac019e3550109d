"""Feasibility calculus for factoring on a decohering trapped-ion machine.

For an L-bit factorization: N_a = 5L ions, sideband frequency
omega' = eta*omega/sqrt(5L), coherence decay rate gamma = 2*omega'^2*tau,
per-operation time 4*pi*sqrt(5L)/(eta*omega), and (10L)^3 elementary
operations.  The run is feasible when total_time * gamma stays below a
"much less than one" threshold (default 0.1; the four-bit verdict is
insensitive to any reasonable choice).
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

DEFAULT_FEASIBILITY_THRESHOLD = 0.1

# First-order one-bit pi-rotation error law: 1 - F ~ (3/16) pi Omega tau.
ONE_BIT_ERROR_COEFF = 3.0 * math.pi / 16.0


@dataclass(frozen=True)
class ShorScenario:
    bits: int
    omega: float
    eta: float
    tau: float

    def __post_init__(self):
        if self.bits < 1:
            raise ValueError("bit count must be at least 1")
        for name in ("omega", "eta", "tau"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.omega <= 0:
            raise ValueError("physical parameters must be positive")
        if not 0 < self.eta < 1:
            raise ValueError("Lamb-Dicke parameter must be in (0, 1)")
        if self.tau < 0:
            raise ValueError("tau must be nonnegative")


@dataclass
class FeasibilityReport:
    n_ions: int
    omega_prime: float
    gamma: float
    decoherence_time: float
    op_time: float
    n_ops: int
    total_time: float
    ratio: float
    feasible: bool

    def to_dict(self) -> dict:
        """The fields as strict JSON values: an infinite decoherence time
        (tau = 0, or 1/gamma overflows) is None."""
        doc = asdict(self)
        if math.isinf(self.decoherence_time):
            doc["decoherence_time"] = None
        return doc


def _as_float(n: int) -> float:
    """n as a float, inf where it is too large for one."""
    try:
        return float(n)
    except OverflowError:
        return math.inf


def assess(
    s: ShorScenario, feasibility_threshold: float = DEFAULT_FEASIBILITY_THRESHOLD
) -> FeasibilityReport:
    """Derive the feasibility report for a single algorithm run."""
    if not (math.isfinite(feasibility_threshold) and feasibility_threshold > 0):
        raise ValueError(f"feasibility threshold must be finite and positive, got {feasibility_threshold}")
    n_ions = 5 * s.bits
    n_ops = (10 * s.bits) ** 3
    # no **, no division by a product and no int too large for a float, so
    # an overflow or underflow is an inf for the check below, not an exception
    sqrt_ions = math.sqrt(_as_float(n_ions))
    omega_prime = s.eta * s.omega / sqrt_ions
    gamma = 2.0 * omega_prime * omega_prime * s.tau
    op_time = 4.0 * math.pi * sqrt_ions / s.eta / s.omega
    total_time = op_time * _as_float(n_ops)
    ratio = total_time * gamma
    derived = {"omega_prime": omega_prime, "gamma": gamma, "op_time": op_time,
               "total_time": total_time, "ratio": ratio}
    for name, value in derived.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} is {value} for {s}")
    return FeasibilityReport(
        n_ions=n_ions,
        omega_prime=omega_prime,
        gamma=gamma,
        decoherence_time=(math.inf if gamma == 0 else 1.0 / gamma),
        op_time=op_time,
        n_ops=n_ops,
        total_time=total_time,
        ratio=ratio,
        feasible=bool(ratio < feasibility_threshold),
    )


def required_tau(omega: float, target_error: float) -> float:
    """Scaling time needed for a one-bit pi rotation to reach the target error,
    inverting the first-order law (3/16) pi Omega tau = target.  The exact
    1 - F rises monotonically in tau to a supremum of 3/4 that it never
    reaches, so a target of 3/4 or more is refused."""
    if not (math.isfinite(omega) and omega > 0):
        raise ValueError(f"omega must be finite and positive, got {omega}")
    if not 0 < target_error < 0.75:
        raise ValueError(f"target error must be in (0, 0.75): the one-bit 1-F never reaches "
                         f"its supremum 3/4, got {target_error}")
    return target_error / (ONE_BIT_ERROR_COEFF * omega)
