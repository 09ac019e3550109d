"""Gamma-averaged non-dissipative decoherence model for trapped-ion gates."""

from .bounds import FeasibilityReport, ShorScenario, assess, required_tau
from .decoherence import (
    AreaDistribution,
    DecayChannel,
    DegenerateDistributionError,
    KernelValues,
    averaged_phase_factor,
    decay_rates,
    evolve_energy_basis,
    gamma_char,
    kernel_integrals,
    mc_average,
    one_minus_re,
    quad_average,
    sample_area,
)
from .dynamics import (
    EvolutionComparison,
    HamiltonianSpec,
    compare_evolutions,
    exact_map,
    me2_integrate,
)
from .fidelity import (
    FidelityTensor,
    GateFidelityResult,
    Method,
    closed_one_bit_tensor,
    closed_two_bit_tensor,
    fidelity_mc_two_bit,
    fidelity_one_bit,
    fidelity_two_bit,
    fractional_error,
    rbar_one_bit,
)
from .gates import (
    GateContext,
    PulseStep,
    UNIVERSAL_SEQUENCE,
    ideal_one_bit_gate,
    ideal_two_bit_gate,
    one_bit_unitary,
    pulse_unitary,
)
from .statemath import (
    BasisLabel,
    DensityMatrix,
    ValidityReport,
    hermitian_eigen,
    kron,
    two_bit_basis,
    validate_density,
)
from .sweep import SweepRow, SweepSpec, fit_loglog_slope, run_sweep

__version__ = "0.1.0"
