import math

import pytest

from decogate.bounds import (
    DEFAULT_FEASIBILITY_THRESHOLD,
    ONE_BIT_ERROR_COEFF,
    FeasibilityReport,
    ShorScenario,
    assess,
    required_tau,
)
from decogate.fidelity import fidelity_one_bit
from decogate.gates import GateContext


DEFAULTS = dict(omega=1e5, eta=0.1, tau=1e-8)


def test_four_bit_report_frozen():
    # hand-checked arithmetic: N_a = 5L = 20, Omega' = eta*Omega/sqrt(20),
    # gamma = 2 Omega'^2 tau = 0.1/s, op time 4 pi sqrt(20)/(eta Omega),
    # n_ops = (10 L)^3 = 64000
    report = assess(ShorScenario(bits=4, **DEFAULTS))
    assert report.n_ions == 20
    assert report.omega_prime == pytest.approx(0.1 * 1e5 / math.sqrt(20), rel=1e-9)
    assert report.gamma == pytest.approx(0.1, rel=1e-9)
    assert report.decoherence_time == pytest.approx(10.0, rel=1e-9)
    assert report.op_time == pytest.approx(4 * math.pi * math.sqrt(20) / (0.1 * 1e5), rel=1e-9)
    assert report.n_ops == 64000
    assert report.total_time == pytest.approx(359.6705142292852, rel=1e-9)
    assert report.ratio == pytest.approx(35.96705142292852, rel=1e-9)
    assert report.feasible is False


def test_report_field_names():
    report = assess(ShorScenario(bits=4, **DEFAULTS))
    assert set(report.to_dict()) == {
        "n_ions", "omega_prime", "gamma", "decoherence_time",
        "op_time", "n_ops", "total_time", "ratio", "feasible",
    }


def test_ratio_monotone_in_bits():
    ratios = [assess(ShorScenario(bits=bits, **DEFAULTS)).ratio for bits in range(1, 9)]
    assert ratios == sorted(ratios)
    assert all(not assess(ShorScenario(bits=bits, **DEFAULTS)).feasible
               for bits in range(2, 9))


def test_feasible_at_tiny_tau():
    report = assess(ShorScenario(bits=4, omega=1e5, eta=0.1, tau=1e-13))
    assert report.ratio < DEFAULT_FEASIBILITY_THRESHOLD
    assert report.feasible is True


def test_gamma_small_tau_consistency():
    # gamma = 2 Omega'^2 tau agrees with ln(1 + (Omega' tau)^2)/tau-style exact
    # rates to first order; at Omega'*tau = 1e-3 the relative gap is < 1%
    scenario = ShorScenario(bits=4, omega=1e-3 / 1e-8 * math.sqrt(20) / 0.1,
                            eta=0.1, tau=1e-8)
    report = assess(scenario)
    op_tau = report.omega_prime * scenario.tau
    assert op_tau == pytest.approx(1e-3, rel=1e-12)
    exact_pair_rate = math.log1p((2 * op_tau) ** 2) / (2 * scenario.tau)
    assert report.gamma == pytest.approx(exact_pair_rate, rel=0.01)


def test_required_tau_value():
    tau = required_tau(1e5, 1e-6)
    assert 1e-11 <= tau <= 3e-11
    assert tau == pytest.approx(1e-6 / (ONE_BIT_ERROR_COEFF * 1e5), rel=1e-12)


def test_required_tau_round_trip():
    omega, target = 1e5, 1e-6
    tau = required_tau(omega, target)
    ctx = GateContext(omega=omega, eta=0.1, n_ions=20, tau=tau)
    res = fidelity_one_bit(math.pi / omega, ctx)
    assert res.one_minus_f == pytest.approx(target, rel=0.05)


@pytest.mark.parametrize("omega, target", [(math.nan, 1e-6), (math.inf, 1e-6), (0.0, 1e-6),
                                           (1e5, math.nan), (1e5, math.inf),
                                           (1e5, 0.75), (1e5, 0.9)])
def test_required_tau_rejects_out_of_domain(omega, target):
    with pytest.raises(ValueError):
        required_tau(omega, target)


def test_required_improvement_factor():
    # relative to tau = 1e-8, required stability improves by >= 300x
    assert 1e-8 / required_tau(1e5, 1e-6) >= 300


def test_scenario_validation():
    with pytest.raises(ValueError):
        ShorScenario(bits=0, **DEFAULTS)
    with pytest.raises(ValueError):
        ShorScenario(bits=4, omega=-1.0, eta=0.1, tau=1e-8)


@pytest.mark.parametrize("field", ["omega", "eta", "tau"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_scenario_rejects_non_finite(field, bad):
    with pytest.raises(ValueError, match=field):
        ShorScenario(bits=4, **{**DEFAULTS, field: bad})


@pytest.mark.parametrize("threshold", [math.nan, math.inf, 0.0, -1.0])
def test_assess_rejects_bad_threshold(threshold):
    with pytest.raises(ValueError, match="threshold"):
        assess(ShorScenario(bits=4, **DEFAULTS), threshold)
