"""Gamma-averaged non-dissipative decoherence model for trapped-ion gates.

Each export is imported from its submodule on first access (PEP 562), so
importing the package, or the numpy-free ``bounds``, loads no numpy.
"""

import importlib

# Every exported name, under the submodule that defines it.
_SUBMODULE_EXPORTS = {
    "bounds": ("FeasibilityReport", "ShorScenario", "assess", "required_tau"),
    "decoherence": (
        "AreaDistribution",
        "DegenerateDistributionError",
        "KernelValues",
        "averaged_phase_factor",
        "gamma_char",
        "kernel_integrals",
        "mc_average",
        "one_minus_re",
        "quad_average",
        "sample_area",
    ),
    "dynamics": (
        "EvolutionComparison",
        "HamiltonianSpec",
        "compare_evolutions",
        "exact_map",
        "me2_integrate",
    ),
    "fidelity": (
        "FidelityTensor",
        "GateFidelityResult",
        "Method",
        "closed_one_bit_tensor",
        "closed_two_bit_tensor",
        "fidelity_mc_two_bit",
        "fidelity_one_bit",
        "fidelity_two_bit",
    ),
    "gates": (
        "GateContext",
        "PulseStep",
        "UNIVERSAL_SEQUENCE",
        "ideal_two_bit_gate",
        "one_bit_unitary",
    ),
    "statemath": (
        "DensityMatrix",
        "ValidityReport",
        "hermitian_eigen",
        "validate_density",
    ),
    "sweep": ("SweepRow", "SweepSpec", "fit_loglog_slope", "run_sweep"),
}
_EXPORTS = {name: module for module, names in _SUBMODULE_EXPORTS.items() for name in names}

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _SUBMODULE_EXPORTS:
        # `decogate.fidelity` without importing decogate.fidelity first
        return importlib.import_module(f".{name}", __name__)
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_EXPORTS[name]}", __name__), name)
    globals()[name] = value  # later lookups skip __getattr__
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
