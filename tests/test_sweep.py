import math
from dataclasses import replace

import numpy as np
import pytest

import decogate.decoherence
from decogate.fidelity import Method, fidelity_one_bit, fidelity_two_bit
from decogate.gates import GateContext
from decogate.sweep import SweepRow, SweepSpec, fit_loglog_slope, run_sweep


CTX = GateContext(omega=1e5, eta=0.1, n_ions=20, tau=1e-8)


def make_spec(gate="one_bit", **kw):
    base = dict(gate=gate, tau_min=1e-10, tau_max=1e-8, points=9,
                context=CTX, method=Method.ANALYTIC)
    base.update(kw)
    return SweepSpec(**base)


def test_grid_is_logarithmic_and_ascending():
    rows = run_sweep(make_spec())
    taus = [r.tau for r in rows]
    assert len(rows) == 9
    assert taus[0] == pytest.approx(1e-10) and taus[-1] == pytest.approx(1e-8)
    ratios = [taus[i + 1] / taus[i] for i in range(len(taus) - 1)]
    assert all(r == pytest.approx(ratios[0], rel=1e-9) for r in ratios)


def test_rows_are_immutable_records_of_python_floats():
    rows = run_sweep(make_spec())
    assert isinstance(rows, list)
    assert SweepRow._fields == ("tau", "omega_tau", "fractional_error", "one_minus_f", "stderr")
    assert all(type(value) is float for row in rows for value in row)
    with pytest.raises(AttributeError):
        rows[0].tau = 1.0


@pytest.mark.parametrize("gate", ["one_bit", "two_bit"])
def test_slope_two_in_small_tau_regime(gate):
    # infidelity vs fractional area error: quadratic, i.e. log-log slope 2
    rows = run_sweep(make_spec(gate=gate))
    slope, _, r2 = fit_loglog_slope(rows)
    assert slope == pytest.approx(2.0, abs=0.05)
    assert r2 > 0.9999


def test_rows_monotone_in_tau():
    rows = run_sweep(make_spec())
    infs = [r.one_minus_f for r in rows]
    fracs = [r.fractional_error for r in rows]
    assert infs == sorted(infs)
    assert fracs == sorted(fracs)


def test_fractional_error_column():
    rows = run_sweep(make_spec(gate="one_bit"))
    t = math.pi / CTX.omega
    for r in rows:
        assert r.fractional_error == pytest.approx(math.sqrt(r.tau / t), rel=1e-12)
        assert r.omega_tau == pytest.approx(CTX.omega * r.tau, rel=1e-12)


def test_two_bit_abscissa_uses_sideband_frequency():
    rows = run_sweep(make_spec(gate="two_bit"))
    for r in rows:
        assert r.omega_tau == pytest.approx(CTX.omega_prime * r.tau, rel=1e-12)


def test_mc_sweep_deterministic_per_seed():
    spec = make_spec(points=3, method=Method.MONTE_CARLO, mc_samples=5000)
    a = run_sweep(spec, seed=123)
    b = run_sweep(spec, seed=123)
    assert [r.one_minus_f for r in a] == [r.one_minus_f for r in b]
    c = run_sweep(spec, seed=124)
    assert [r.one_minus_f for r in a] != [r.one_minus_f for r in c]


def test_spec_validation_errors():
    with pytest.raises(ValueError, match="gate"):
        make_spec(gate="three_bit")
    with pytest.raises(ValueError, match="empty range"):
        make_spec(tau_min=1e-8, tau_max=1e-10)
    with pytest.raises(ValueError, match="at least 2 points"):
        make_spec(points=1)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("field", ["tau_min", "tau_max"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_spec_rejects_non_finite_tau_bounds(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        make_spec(**{field: value})


def _noise_grid_spec(gate, points=200):
    # Omega tau (Omega' tau) from 1e-16 to 10
    scale = CTX.omega if gate == "one_bit" else CTX.omega_prime
    return make_spec(gate=gate, tau_min=1e-16 / scale, tau_max=10 / scale, points=points), scale


@pytest.mark.parametrize("gate", ["one_bit", "two_bit"])
def test_analytic_rows_match_per_point_queries(gate):
    spec, scale = _noise_grid_spec(gate)
    t_ref = math.pi / scale
    rows = run_sweep(spec)
    grid = np.logspace(math.log10(spec.tau_min), math.log10(spec.tau_max), spec.points)
    assert [row.tau for row in rows] == grid.tolist()
    for row in rows:
        ctx = replace(CTX, tau=row.tau)
        res = fidelity_one_bit(t_ref, ctx) if gate == "one_bit" else fidelity_two_bit(ctx)
        assert row.one_minus_f == pytest.approx(res.one_minus_f, rel=1e-15, abs=0)
        assert row.omega_tau == scale * row.tau
        assert row.fractional_error == math.sqrt(row.tau / t_ref)
        assert row.stderr == 0.0


@pytest.mark.parametrize("gate", ["one_bit", "two_bit"])
def test_analytic_sweep_evaluates_the_grid_in_one_call(gate, monkeypatch):
    # every closed form reaches gamma_char through decogate.decoherence
    calls = []

    def spy(*args, _inner=decogate.decoherence.gamma_char):
        calls.append(np.shape(args[2]))
        return _inner(*args)

    monkeypatch.setattr(decogate.decoherence, "gamma_char", spy)
    spec, _ = _noise_grid_spec(gate, points=50)
    assert len(run_sweep(spec)) == 50
    assert calls == [(50,)]


def test_fit_rejects_degenerate_rows():
    rows = run_sweep(make_spec(points=2))
    with pytest.raises(ValueError):
        fit_loglog_slope(rows[:1])
