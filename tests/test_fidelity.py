import math

import numpy as np
import pytest

import decogate.decoherence as decoherence_mod
import decogate.fidelity as fidelity_mod
import decogate.validate as validate_mod
from decogate.decoherence import (
    MIN_MC_SAMPLES,
    AreaDistribution,
    kernel_integrals,
    mc_average,
    quad_average,
    sample_area,
)
from decogate.fidelity import (
    ONE_BIT_W_DIAG,
    ONE_BIT_W_OFF,
    TWO_BIT_W_DIAG,
    TWO_BIT_W_OFF,
    FidelityTensor,
    Method,
    closed_one_bit_tensor,
    closed_two_bit_tensor,
    contract_fidelity,
    f0000_one_bit,
    fidelity_mc_two_bit,
    fidelity_one_bit,
    fidelity_two_bit,
    fractional_error,
    mc_two_bit_tensor,
    pulse_distributions,
    quad_two_bit_tensor,
    rbar_one_bit,
)
from decogate.gates import (
    DIM,
    UNIVERSAL_SEQUENCE,
    GateContext,
    carrier_parts,
    ideal_one_bit_gate,
    ideal_two_bit_gate,
    one_bit_unitary,
    pulse_parts,
)
from decogate.statemath import LOGICAL_INDICES, validate_density


CTX = GateContext(omega=1e5, eta=0.1, n_ions=20, tau=1e-8)  # Omega*tau = 1e-3
T_PI = math.pi / CTX.omega


def ctx_at_op_tau(op_tau: float) -> GateContext:
    """Context whose sideband Rabi frequency satisfies Omega'*tau = op_tau."""
    eta, n_ions, tau = 0.1, 20, 1e-8
    return GateContext(omega=op_tau / tau * math.sqrt(n_ions) / eta,
                       eta=eta, n_ions=n_ions, tau=tau)


# --- frozen oracle-derived values -----------------------------------------


def test_frozen_f0000():
    assert f0000_one_bit(T_PI, CTX) == pytest.approx(0.9992152187558311, abs=1e-12)


def test_f0000_of_a_zero_time_rotation_is_one():
    assert f0000_one_bit(0.0, CTX) == 1.0


def test_frozen_one_bit_infidelity():
    res = fidelity_one_bit(T_PI, CTX)
    assert res.one_minus_f == pytest.approx(5.885859331267e-4, rel=1e-10)
    # first-order law 1 - F = (3/16) pi Omega tau at small Omega tau
    assert res.one_minus_f == pytest.approx(3 * math.pi / 16 * 1e-3, rel=2e-3)


def test_frozen_two_bit_infidelity():
    ctx = ctx_at_op_tau(1e-3)
    res = fidelity_two_bit(ctx)
    assert res.one_minus_f == pytest.approx(1.176376946861e-3, rel=1e-9)
    # first-order law 1 - F = (3/8) pi Omega' tau
    assert res.one_minus_f == pytest.approx(3 * math.pi / 8 * 1e-3, rel=2e-3)


def test_frozen_two_bit_default_context():
    res = fidelity_two_bit(CTX)
    assert res.one_minus_f == pytest.approx(2.6342194241e-5, rel=1e-9)


# --- structural identities --------------------------------------------------


def test_one_bit_fidelity_identity():
    # contraction weights reduce to F = (3/4) F^{00}_{00} + 1/4 for this gate
    f0000 = f0000_one_bit(T_PI, CTX)
    res = fidelity_one_bit(T_PI, CTX)
    assert res.fidelity == pytest.approx(0.75 * f0000 + 0.25, abs=1e-14)


def test_contract_fidelity_weights():
    assert (ONE_BIT_W_DIAG, ONE_BIT_W_OFF) == (3 / 8, 1 / 8)
    assert (TWO_BIT_W_DIAG, TWO_BIT_W_OFF) == (1 / 8, 1 / 24)
    ident = np.zeros((2, 2, 2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            ident[i, i, j, j] = 1.0  # perfect gate: F^{ii}_{jj} = 1
    assert contract_fidelity(FidelityTensor.full(ident), 3 / 8, 1 / 8) == pytest.approx(1.0)


def test_rbar_trace_relations():
    for i in range(2):
        for ip in range(2):
            r = rbar_one_bit(i, ip, T_PI, CTX)
            tr = np.trace(r)
            if i == ip:
                assert tr == pytest.approx(1.0, abs=1e-12)
            else:
                assert abs(tr) < 1e-12


def test_rbar_diagonal_is_valid_density():
    for i in range(2):
        report = validate_density(rbar_one_bit(i, i, T_PI, CTX))
        assert report.ok


def test_tensor_conjugation_symmetry():
    rng = np.random.default_rng(0)
    tensor, _ = mc_two_bit_tensor(CTX, 5000, rng)
    v = tensor.values
    assert np.abs(v - v.conj().transpose(1, 0, 3, 2)).max() < 1e-12


def test_two_bit_tensor_check_fails_on_a_transposed_quadrature_tensor(monkeypatch):
    # the Monte Carlo and quadrature tensors agree entry by entry; swapping
    # i and i' in one of them (a fault conjugation symmetry cannot see) fails
    assert validate_mod.check_two_bit_tensor_mc(200_000, 0).passed
    quad = validate_mod.quad_two_bit_tensor
    monkeypatch.setattr(validate_mod, "quad_two_bit_tensor",
                        lambda ctx: FidelityTensor.full(quad(ctx).values.transpose(1, 0, 2, 3)))
    assert not validate_mod.check_two_bit_tensor_mc(200_000, 0).passed


def test_closed_one_bit_tensor_contracts_to_fidelity():
    tensor = closed_one_bit_tensor(T_PI, CTX)
    f = contract_fidelity(tensor, ONE_BIT_W_DIAG, ONE_BIT_W_OFF)
    assert f == pytest.approx(fidelity_one_bit(T_PI, CTX).fidelity, abs=1e-13)


def test_closed_two_bit_tensor_known_mask():
    tensor = closed_two_bit_tensor(CTX)
    # every element entering the contraction is known; the rest are NaN
    assert tensor.known[~np.isnan(tensor.values.real)].all()
    f = contract_fidelity(tensor, TWO_BIT_W_DIAG, TWO_BIT_W_OFF)
    assert f == pytest.approx(fidelity_two_bit(CTX).fidelity, abs=1e-13)


def test_cross_population_elements_vanish():
    # F^{ii}_{jj} = 0 for i != j, checked against the Monte Carlo oracle
    rng = np.random.default_rng(1)
    tensor, stderr = mc_two_bit_tensor(CTX, 50_000, rng)
    for i in range(4):
        for j in range(4):
            if i != j:
                val = tensor.values[i, i, j, j]
                assert abs(val) < max(5 * stderr[i, i, j, j], 1e-12)


def test_pulse_area_spread_ratio():
    # pi pulse area spread relative to a carrier pulse of equal nominal area:
    # sigma(A') / sigma(A) = sqrt(Omega'/Omega) at fixed area, i.e. the
    # sideband pulse takes sqrt(N_a)/eta times longer and is relatively tighter
    d1, d2, d3 = pulse_distributions(CTX)
    assert d1.omega_mean == pytest.approx(CTX.omega_prime)
    assert d1.mean == pytest.approx(math.pi)
    assert d2.mean == pytest.approx(2 * math.pi)
    assert d3.mean == pytest.approx(math.pi)
    ratio = CTX.omega / CTX.omega_prime
    assert ratio == pytest.approx(math.sqrt(CTX.n_ions) / CTX.eta, rel=1e-12)


def test_fractional_error():
    assert fractional_error(1e-4, 1e-8) == pytest.approx(1e-2, rel=1e-12)
    assert fractional_error(1e-4, 0.0) == 0.0


@pytest.mark.parametrize("t, tau", [(math.nan, 1e-8), (math.inf, 1e-8), (1e-4, math.nan),
                                    (1e-4, math.inf), (0.0, 1e-8), (1e-4, -1e-8)])
def test_fractional_error_rejects_out_of_domain(t, tau):
    with pytest.raises(ValueError):
        fractional_error(t, tau)


# --- oracle agreement --------------------------------------------------------


# (nominal time, phi) of the one-bit rotations the oracles are checked at
ONE_BIT_ROTATIONS = pytest.mark.parametrize("t, phi", [(T_PI, 0.0), (0.6 * T_PI, 0.7), (2 * T_PI, 2.0)])


@ONE_BIT_ROTATIONS
def test_one_bit_mc_within_five_sigma(t, phi):
    rng = np.random.default_rng(7)
    ctx = GateContext(omega=1e5, eta=0.1, n_ions=20, tau=1e-8, phi=phi)
    exact = fidelity_one_bit(t, ctx)
    mc = fidelity_one_bit(t, ctx, Method.MONTE_CARLO, 200_000, rng)
    assert abs(mc.fidelity - exact.fidelity) < 5 * mc.stderr
    assert mc.stderr > 0


@pytest.mark.parametrize("noise", np.geomspace(1e-16, 1e-1, 6))
def test_mc_infidelity_within_five_sigma_down_to_tiny_noise(noise):
    # Omega tau (one bit) and Omega' tau (two bit) = noise; below ~1e-8 every
    # per-sample F rounds to 1, so this needs the per-sample infidelity
    rng = np.random.default_rng(11)
    ctx1 = GateContext(omega=1e5, eta=0.1, n_ions=20, tau=noise / 1e5)
    ctx2 = ctx_at_op_tau(noise)
    for mc, exact in (
        (fidelity_one_bit(T_PI, ctx1, Method.MONTE_CARLO, 20_000, rng), fidelity_one_bit(T_PI, ctx1)),
        (fidelity_mc_two_bit(ctx2, 20_000, rng), fidelity_two_bit(ctx2)),
    ):
        assert mc.stderr > 0
        assert abs(mc.one_minus_f - exact.one_minus_f) < 5 * mc.stderr
        assert mc.fidelity == 1.0 - mc.one_minus_f


@ONE_BIT_ROTATIONS
def test_one_bit_quadrature_matches_closed_form(t, phi):
    ctx = GateContext(omega=1e5, eta=0.1, n_ions=20, tau=1e-8, phi=phi)
    exact = fidelity_one_bit(t, ctx)
    quad = fidelity_one_bit(t, ctx, Method.QUADRATURE)
    assert abs(quad.fidelity - exact.fidelity) < 1e-9
    assert quad.one_minus_f == pytest.approx(exact.one_minus_f, rel=1e-12, abs=0)


def test_two_bit_mc_within_five_sigma():
    rng = np.random.default_rng(8)
    exact = fidelity_two_bit(CTX)
    mc = fidelity_mc_two_bit(CTX, 50_000, rng)
    assert abs(mc.fidelity - exact.fidelity) < 5 * mc.stderr


def test_two_bit_quadrature_matches_closed_form():
    ctx = ctx_at_op_tau(1e-3)
    closed = closed_two_bit_tensor(ctx)
    quad = quad_two_bit_tensor(ctx)
    mask = closed.known
    assert np.abs(closed.values[mask] - quad.values[mask]).max() < 1e-9


@pytest.mark.parametrize("noise", [*np.logspace(-16, 1, 35), 1e-30, 1e-150, 1e-160, 1e-200, 1e-300])
def test_quadrature_infidelity_matches_the_closed_form_relatively(noise):
    # Omega tau (one bit) and Omega' tau (two bit) = noise: 1 - F itself, with
    # the Gauss rule on the area deviation, so no 1 - F is formed from F
    ctx1 = GateContext(omega=1e5, eta=0.1, n_ions=20, tau=noise / CTX.omega)
    ctx2 = GateContext(omega=1e5, eta=0.1, n_ions=20, tau=noise / CTX.omega_prime)
    for quad, exact in ((fidelity_one_bit(T_PI, ctx1, Method.QUADRATURE), fidelity_one_bit(T_PI, ctx1)),
                        (fidelity_two_bit(ctx2, Method.QUADRATURE), fidelity_two_bit(ctx2))):
        assert quad.one_minus_f == pytest.approx(exact.one_minus_f, rel=1e-12, abs=0)
        assert quad.fidelity == 1.0 - quad.one_minus_f


@pytest.mark.parametrize("noise", [1e-4, 1e-1, 10.0])
def test_quadrature_infidelity_is_the_contracted_quadrature_tensor(noise):
    ctx = ctx_at_op_tau(noise)
    tensor = quad_two_bit_tensor(ctx)
    quad = fidelity_two_bit(ctx, Method.QUADRATURE)
    assert quad.one_minus_f == pytest.approx(
        1.0 - contract_fidelity(tensor, TWO_BIT_W_DIAG, TWO_BIT_W_OFF), abs=1e-13)


def test_closed_two_bit_tensor_knows_exactly_the_contracted_entries():
    tensor = closed_two_bit_tensor(CTX)
    assert tensor.known.sum() == 28
    assert np.isnan(tensor.values[~tensor.known]).all()
    # every known entry is read by the contraction, and no other entry is
    base = contract_fidelity(tensor, TWO_BIT_W_DIAG, TWO_BIT_W_OFF)
    for idx in map(tuple, np.argwhere(tensor.known)):
        values = tensor.values.copy()
        values[idx] += 1.0
        bumped = FidelityTensor(4, values, tensor.known)
        assert contract_fidelity(bumped, TWO_BIT_W_DIAG, TWO_BIT_W_OFF) != base


@pytest.mark.parametrize("noise", [1e-4, 1e-1, 10.0])
def test_rebase_maps_deviation_moments_to_area_moments(noise):
    # v(A0 + delta) = R u(delta): R E[u u^T] R^T is the Gauss rule's E[v v^T]
    # taken on the area itself, for each pulse
    dists = pulse_distributions(ctx_at_op_tau(noise))
    for r, m, d in zip(fidelity_mod._REBASE, fidelity_mod._gauss_moments(dists), dists):
        def products(dev, d=d):
            v = fidelity_mod._v(d.mean + dev)
            return v[:, :, None] * v[:, None, :]
        direct, _ = decoherence_mod.gauss_average(products, d)
        assert np.abs(r @ m @ r.T - direct).max() < 1e-13


@pytest.mark.parametrize("weights", ["kernel", "tensor"])
def test_moment_contraction_matches_the_dense_sum(weights):
    # sum_kl G[k,l] W[k,l], G[k,l] = prod_p M_p[codes[k,p], codes[l,p]], for
    # random symmetric M_p: the sum over moment pairs against the dense one
    if weights == "kernel":
        codes, k, _ = fidelity_mod._two_bit_kernel()
        w = k @ k.T
    else:
        codes, t = fidelity_mod._TWO_BIT_TABLE
        w = np.einsum("kab,lcd->klcabd", t, t.conj())
    rng = np.random.default_rng(13)
    moments = [a + a.T for a in rng.normal(size=(3, 3, 3))]
    g = np.prod([m[np.ix_(c, c)] for m, c in zip(moments, codes.T)], axis=0)
    dense = np.tensordot(g, w, axes=2)
    paired = fidelity_mod._contract_moments(fidelity_mod._moment_pairs(codes, w), moments)
    assert np.abs(paired - dense).max() <= 1e-13 * np.abs(dense).max()


KERNEL_MOMENTS = {
    "c1": lambda a: math.cos(a / 2),
    "s1": lambda a: math.sin(a / 2),
    "c2": lambda a: math.cos(a / 2) ** 2,
    "s2": lambda a: math.sin(a / 2) ** 2,
    "z": lambda a: math.sin(a / 2) * math.cos(a / 2),
}


@pytest.mark.parametrize("noise", np.geomspace(1e-8, 10.0, 10))
def test_quadrature_oracles_match_closed_forms_over_the_noise_range(noise):
    # one-bit F at Omega tau = noise
    ctx1 = GateContext(omega=1e5, eta=0.1, n_ions=20, tau=noise / 1e5)
    quad = fidelity_one_bit(T_PI, ctx1, Method.QUADRATURE)
    assert abs(quad.fidelity - fidelity_one_bit(T_PI, ctx1).fidelity) < 1e-12
    # every known two-bit tensor entry and the five kernels at Omega' tau = noise
    ctx2 = ctx_at_op_tau(noise)
    closed, quad2 = closed_two_bit_tensor(ctx2), quad_two_bit_tensor(ctx2)
    assert np.abs(closed.values[closed.known] - quad2.values[closed.known]).max() < 1e-12
    wp = ctx2.omega_prime
    for nominal in (math.pi, 2 * math.pi):
        k = kernel_integrals(nominal / wp, wp, ctx2.tau)
        dist = AreaDistribution(nominal / wp, ctx2.tau, wp)
        for name, f in KERNEL_MOMENTS.items():
            assert abs(getattr(k, name) - quad_average(f, dist)) < 1e-12, name


def dense_logical_states(a1, a2, a3):
    """W(A_n)|i> for the logical |i> as (n, 4, 18): the dense 18x18 pulse
    unitaries q + cos(A/2) r + sin(A/2) b applied in sequence, batched over
    samples by broadcasting."""
    states = np.eye(DIM, dtype=complex)[:, list(LOGICAL_INDICES)]
    for step, a in zip(UNIVERSAL_SEQUENCE, (a1, a2, a3)):
        q, r, b = pulse_parts(step)
        c, s = np.cos(0.5 * a)[:, None, None], np.sin(0.5 * a)[:, None, None]
        states = q @ states + c * (r @ states) + s * (b @ states)
    return np.swapaxes(states, 1, 2)


def rbar_two_bit_mc(ctx, n_samples, rng):
    """Monte Carlo averaged process operators Rbar[i', i] as (4, 4, 18, 18)."""
    states = dense_logical_states(*(sample_area(d, rng, n_samples) for d in pulse_distributions(ctx)))
    return np.einsum("nid,npe->pide", states, states.conj()) / n_samples


def test_rbar_two_bit_mc_diagonal_is_valid_density():
    rng = np.random.default_rng(3)
    rbar = rbar_two_bit_mc(CTX, 20_000, rng)
    for i in range(4):
        report = validate_density(np.ascontiguousarray(rbar[i, i]))
        assert report.hermiticity_error < 1e-10
        assert report.trace_error < 1e-10
        assert report.min_eigenvalue > -1e-10


# --- Monte Carlo estimator --------------------------------------------------

MC_ESTIMATORS = {
    "one_bit": (
        lambda n, rng: fidelity_one_bit(T_PI, CTX, Method.MONTE_CARLO, n, rng),
        (AreaDistribution(T_PI, CTX.tau, CTX.omega),),
    ),
    "two_bit": (lambda n, rng: fidelity_mc_two_bit(CTX, n, rng), pulse_distributions(CTX)),
    "tensor": (lambda n, rng: mc_two_bit_tensor(CTX, n, rng), pulse_distributions(CTX)),
    "mc_average": (
        lambda n, rng: mc_average(np.cos, AreaDistribution(T_PI, CTX.tau, CTX.omega), n, rng),
        (AreaDistribution(T_PI, CTX.tau, CTX.omega),),
    ),
}


@pytest.mark.parametrize("name", sorted(MC_ESTIMATORS))
@pytest.mark.parametrize("n_samples", [MIN_MC_SAMPLES, 4097])
def test_mc_draws_exactly_the_requested_samples(monkeypatch, name, n_samples):
    estimate, pulses = MC_ESTIMATORS[name]
    calls = []

    def spy(dist, rng, n=1):
        calls.append((dist, n))
        return sample_area(dist, rng, n)

    monkeypatch.setattr(decoherence_mod, "sample_area", spy)
    estimate(n_samples, np.random.default_rng(4))
    # pulses are drawn in sequence order within each chunk
    assert [d for d, _ in calls] == list(pulses) * (len(calls) // len(pulses))
    per_pulse = [sum(n for _, n in calls[k :: len(pulses)]) for k in range(len(pulses))]
    assert per_pulse == [n_samples] * len(pulses)


@pytest.mark.parametrize("name", sorted(MC_ESTIMATORS))
@pytest.mark.parametrize("n_samples", [-5, 0, MIN_MC_SAMPLES - 1])
def test_mc_rejects_too_few_samples(name, n_samples):
    estimate, _ = MC_ESTIMATORS[name]
    with pytest.raises(ValueError, match="samples"):
        estimate(n_samples, np.random.default_rng(0))


def test_mc_delta_limit_is_exact():
    ctx0 = GateContext(omega=1e5, eta=0.1, n_ions=20, tau=0.0)
    one = fidelity_one_bit(math.pi / ctx0.omega, ctx0, Method.MONTE_CARLO, MIN_MC_SAMPLES)
    for res in (one, fidelity_mc_two_bit(ctx0, MIN_MC_SAMPLES)):
        assert abs(res.fidelity - 1.0) < 1e-12
        assert res.stderr < 1e-12


def test_one_bit_mc_resolves_deviations_below_the_ulp_of_the_mean():
    # Omega tau = 1e-30: the area's spread, 1.8e-15, is about 4 ulp of its
    # mean pi, so subtracting the mean from a Gamma draw quantised it
    ctx = GateContext(omega=1e5, eta=0.1, n_ions=20, tau=1e-35)
    mc = fidelity_one_bit(T_PI, ctx, Method.MONTE_CARLO, 20_000, np.random.default_rng(0))
    exact = fidelity_one_bit(T_PI, ctx).one_minus_f
    assert abs(mc.one_minus_f - exact) <= 5 * mc.stderr


@pytest.mark.parametrize("tau", [1e-200, 1e-300])
@pytest.mark.parametrize("gate", ["one_bit", "two_bit"])
def test_mc_resolves_the_spread_of_a_tiny_infidelity(gate, tau):
    # 1 - F_n near 1e-196 (1e-296): the squares of its deviations from the
    # mean underflowed to 0, so the run reported a stderr of 0
    ctx = GateContext(omega=1e5, eta=0.1, n_ions=20, tau=tau)
    run = {"one_bit": lambda *args: fidelity_one_bit(T_PI, ctx, *args),
           "two_bit": lambda *args: fidelity_two_bit(ctx, *args)}[gate]
    mc = run(Method.MONTE_CARLO, 20_000, np.random.default_rng(0))
    assert mc.stderr > 0
    assert abs(mc.one_minus_f - run(Method.ANALYTIC).one_minus_f) <= 5 * mc.stderr


def test_mc_takes_one_tangent_per_pulse_per_chunk(monkeypatch):
    # one chunk of 1000 samples: one tan per pulse, and no sine or cosine
    ctx = GateContext(omega=1e5, eta=0.1, n_ions=20, tau=1e-8)
    gates = {1: lambda: fidelity_one_bit(T_PI, ctx, Method.MONTE_CARLO, MIN_MC_SAMPLES),
             3: lambda: fidelity_two_bit(ctx, Method.MONTE_CARLO, MIN_MC_SAMPLES)}
    for run in gates.values():
        run()  # builds each kernel outside the count
    calls = []
    for name in ("tan", "sin", "cos"):
        def spy(*args, _real=getattr(np, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)
        monkeypatch.setattr(np, name, spy)
    for pulses, run in gates.items():
        calls.clear()
        run()
        assert calls == ["tan"] * pulses


def test_mc_moments_merge_without_cancellation():
    # F_n = 1 - 1e-9 (A_n - mean): a raw sum of F^2 would lose the whole variance
    dist = AreaDistribution(T_PI, CTX.tau, CTX.omega)
    n = 3 * decoherence_mod._MC_CHUNK + 17
    mean, stderr = decoherence_mod._mc_moments(
        (dist,), lambda dev: 1.0 - 1e-9 * dev, n, np.random.default_rng(5))
    direct = 1.0 - 1e-9 * (sample_area(dist, np.random.default_rng(5), n) - dist.mean)
    assert mean == pytest.approx(direct.mean(), abs=1e-15)
    assert stderr == pytest.approx(direct.std(ddof=1) / math.sqrt(n), rel=1e-6, abs=0)


def _dense_two_bit_amp(a1, a2, a3):
    cols = ideal_two_bit_gate()[:, list(LOGICAL_INDICES)]
    return np.einsum("dj,nid->nij", cols.conj(), dense_logical_states(a1, a2, a3))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_two_bit_amp_matches_dense_composition(seed):
    rng = np.random.default_rng(seed)
    areas = [rng.uniform(0.0, 4 * math.pi, 256) for _ in range(3)]
    amp = fidelity_mod._table_amp(fidelity_mod._TWO_BIT_TABLE, *areas)
    assert np.abs(amp - _dense_two_bit_amp(*areas)).max() < 1e-13


def test_two_bit_amp_at_nominal_areas_is_identity():
    areas = [np.array([step.nominal_area]) for step in UNIVERSAL_SEQUENCE]
    amp = fidelity_mod._table_amp(fidelity_mod._TWO_BIT_TABLE, *areas)
    assert np.abs(amp - _dense_two_bit_amp(*areas)).max() < 1e-13
    assert np.abs(amp[0] - np.eye(4)).max() < 1e-13
    # 4 of the 27 products of one part per pulse reach the logical block
    assert len(fidelity_mod._TWO_BIT_TABLE[1]) == 4


def _per_sample_infidelity(amp, w_diag, w_off):
    """1 - contract_fidelity of each sample's tensor F[i',i,j',j] =
    amp[i,j'] conj(amp[i',j]): the subtraction the kernel avoids."""
    return np.array([1.0 - contract_fidelity(FidelityTensor.full(np.einsum("ij,kl->kijl", a, a.conj())),
                                             w_diag, w_off) for a in amp])


def _assert_kernel_matches_dense(got, want):
    # the dense side forms 1 - F by subtraction, so it carries a few ulp of 1
    # on top of the 1e-12 relative; test_mpmath_oracle covers small deviations
    keep = want >= 1e-6
    assert keep.sum() > len(want) // 2
    assert np.all(np.abs(got[keep] - want[keep]) <= 1e-12 * want[keep] + 16 * np.finfo(float).eps)


def _random_deviations(rng, n, low, high):
    return rng.choice([-1.0, 1.0], n) * 10 ** rng.uniform(low, high, n)


@pytest.mark.parametrize("seed", [0, 1])
def test_two_bit_kernel_matches_the_dense_per_sample_contraction(seed):
    rng = np.random.default_rng(seed)
    areas = [step.nominal_area + _random_deviations(rng, 400, -4, 0.5) for step in UNIVERSAL_SEQUENCE]
    got = fidelity_mod._kernel_statistic(fidelity_mod._two_bit_kernel())(
        *(a - step.nominal_area for a, step in zip(areas, UNIVERSAL_SEQUENCE)))
    want = _per_sample_infidelity(_dense_two_bit_amp(*areas), TWO_BIT_W_DIAG, TWO_BIT_W_OFF)
    _assert_kernel_matches_dense(got, want)
    # 16 of the 26 deviation terms reach 8 real columns of rank 5: the
    # statistic reads a factor L on 5 columns with L L^T = K K^T
    _, k, factor = fidelity_mod._two_bit_kernel()
    assert k.shape == (16, 8) and factor.shape == (16, 5)
    assert np.abs(factor @ factor.T - k @ k.T).max() <= 1e-15


@pytest.mark.parametrize("phi", [0.0, 0.7])
def test_one_bit_kernel_matches_the_dense_per_sample_contraction(phi):
    rng = np.random.default_rng(9)
    a0 = 1.3
    ideal = one_bit_unitary(a0, phi)
    kernel = fidelity_mod._infidelity_kernel(
        ((carrier_parts(phi), a0),), ideal, (0, 1), ONE_BIT_W_DIAG, ONE_BIT_W_OFF)
    areas = a0 + _random_deviations(rng, 400, -4, 0.5)
    got = fidelity_mod._kernel_statistic(kernel)(areas - a0)
    amp = np.array([(ideal.conj().T @ one_bit_unitary(a, phi)).T for a in areas])
    _assert_kernel_matches_dense(got, _per_sample_infidelity(amp, ONE_BIT_W_DIAG, ONE_BIT_W_OFF))
    # one term, sin(delta/2) b, so 1 - F_n = (3/4) sin^2(delta/2) for any phi
    assert np.allclose(got, 0.75 * np.sin(0.5 * (areas - a0)) ** 2, rtol=1e-14, atol=0)
    assert len(kernel.codes) == 1


def _all_rows_statistic(kernel, *deviations):
    """The kernel statistic in its gather form: every row of u built for
    every pulse, and w_k the product over all pulses of the rows its code
    picks, u[0] = 1 included, contracted with the kernel's factor."""
    codes, _, factor = kernel
    w = 1.0
    for d, c in zip(deviations, codes.T):
        w = w * np.stack([np.ones_like(d), *fidelity_mod._u(d)])[c]
    return ((factor.T @ w) ** 2).sum(axis=0)


@pytest.mark.parametrize("gate", ["one_bit", "one_bit_phi", "two_bit"])
def test_kernel_statistic_builds_only_the_rows_it_uses(gate):
    rng = np.random.default_rng(12)
    if gate == "two_bit":
        kernel = fidelity_mod._two_bit_kernel()
    else:
        phi = 0.7 if gate == "one_bit_phi" else 0.0
        kernel = fidelity_mod._infidelity_kernel(
            ((carrier_parts(phi), 1.3),), one_bit_unitary(1.3, phi), (0, 1),
            ONE_BIT_W_DIAG, ONE_BIT_W_OFF)
    statistic = fidelity_mod._kernel_statistic(kernel)
    # a full Monte Carlo chunk, then a short one through the reused work arrays
    for n in (fidelity_mod._MC_CHUNK, 300):
        deviations = [_random_deviations(rng, n, -6, 0.5) for _ in kernel.codes.T]
        # the same products in the same order: bitwise equal
        assert np.array_equal(statistic(*deviations), _all_rows_statistic(kernel, *deviations))


def test_two_bit_quadrature_stops_at_the_nodes_it_needs(monkeypatch):
    # the oracle benchmark's noise levels: golden-ratio points over
    # log Omega' tau in [1e-4, 1e-1]
    rule, sizes = decoherence_mod._gamma_rule, []

    def spy(k, n):
        sizes.append(n)
        return rule(k, n)

    monkeypatch.setattr(decoherence_mod, "_gamma_rule", spy)
    golden, top = (math.sqrt(5.0) - 1.0) / 2.0, []
    for k in range(100):
        sizes.clear()
        quad_two_bit_tensor(ctx_at_op_tau(1e-4 * 1e3 ** ((k * golden) % 1.0)))
        top.append(max(sizes))
    assert max(top) <= 32 and top.count(16) >= 90


def test_kernel_refuses_pulses_that_miss_the_ideal_gate():
    with pytest.raises(ValueError, match="ideal gate"):
        fidelity_mod._infidelity_kernel(((carrier_parts(0.0), 1.3),), one_bit_unitary(1.4),
                                        (0, 1), ONE_BIT_W_DIAG, ONE_BIT_W_OFF)


def test_one_bit_amp_matches_the_carrier_rotation():
    ctx = GateContext(omega=1e5, eta=0.1, n_ions=20, tau=1e-8, phi=0.7)
    ideal = ideal_one_bit_gate(0.6 * T_PI, ctx)
    table = fidelity_mod._logical_table((carrier_parts(ctx.phi),), ideal, (0, 1))
    areas = np.random.default_rng(8).uniform(0.0, 4 * math.pi, 64)
    amp = fidelity_mod._table_amp(table, areas)
    # amp[n, i, j'] = <j'|U_ideal^dag U(A_n)|i>
    want = [(ideal.conj().T @ one_bit_unitary(a, ctx.phi)).T for a in areas]
    assert np.abs(amp - np.array(want)).max() < 1e-13
    assert len(table[1]) == 2


# --- limits -------------------------------------------------------------------


def test_delta_limit_exact():
    ctx0 = GateContext(omega=1e5, eta=0.1, n_ions=20, tau=0.0)
    for method in (Method.ANALYTIC, Method.QUADRATURE):
        assert abs(fidelity_one_bit(math.pi / ctx0.omega, ctx0, method).fidelity - 1.0) < 1e-12
        assert abs(fidelity_two_bit(ctx0, method).fidelity - 1.0) < 1e-12


def test_infidelity_monotone_in_tau():
    taus = [1e-9, 1e-8, 1e-7, 1e-6]
    one = [fidelity_one_bit(T_PI, GateContext(omega=1e5, eta=0.1, n_ions=20, tau=t)).one_minus_f
           for t in taus]
    two = [fidelity_two_bit(GateContext(omega=1e5, eta=0.1, n_ions=20, tau=t)).one_minus_f
           for t in taus]
    assert one == sorted(one)
    assert two == sorted(two)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("tau", [5e-324, 1e-310])
def test_oracles_at_a_subnormal_tau(tau):
    # 5e-324: t/tau overflows, so every oracle takes the delta limit; 1e-310:
    # the two-bit Gauss rule runs at shape 1.4e307, and Monte Carlo resolves
    # the spread of its 1 - F_n of about 1e-306
    ctx = GateContext(omega=1e5, eta=0.1, n_ions=20, tau=tau)
    for res in (fidelity_one_bit(T_PI, ctx, Method.MONTE_CARLO, MIN_MC_SAMPLES),
                fidelity_two_bit(ctx, Method.MONTE_CARLO, MIN_MC_SAMPLES),
                fidelity_one_bit(T_PI, ctx, Method.QUADRATURE)):
        assert res.one_minus_f == pytest.approx(0.0, abs=1e-30)
        assert (res.stderr == 0.0) == (tau == 5e-324 or res.method is Method.QUADRATURE)
    # and the two-bit quadrature agrees with the closed form
    quad = fidelity_two_bit(ctx, Method.QUADRATURE).one_minus_f
    assert abs(quad - fidelity_two_bit(ctx).one_minus_f) < 1e-15


@pytest.mark.parametrize("gate", [
    lambda ctx: fidelity_one_bit(T_PI, ctx, Method.MONTE_CARLO, MIN_MC_SAMPLES),
    lambda ctx: fidelity_two_bit(ctx, Method.MONTE_CARLO, MIN_MC_SAMPLES),
], ids=["one_bit", "two_bit"])
def test_mc_at_an_overflowing_scale_is_a_value_error(gate):
    with pytest.raises(ValueError, match="overflows"):
        gate(GateContext(omega=1e5, eta=0.1, n_ions=20, tau=1e305))
