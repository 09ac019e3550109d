"""The four workloads: seeded inputs, one operation each, and its checks.

Each workload cycles through a fixed list of op kinds.  Every op records the
time of its parts: ``main`` and ``side`` (see README.md for what they are on
each workload).  Checks compare decogate's outputs with ``reference.py``.

Inputs come from a generator seeded by (seed, op index), except the
oracle's noise level: see Oracle.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
import time

import numpy as np

import reference as ref

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
ETA = 0.1
IONS = 20


def op_rng(seed: int, k: int) -> np.random.Generator:
    return np.random.default_rng([seed, k])


def log_uniform(u: float, lo: float, hi: float) -> float:
    return lo * (hi / lo) ** u


def omega_prime(omega: float) -> float:
    return ETA * omega / math.sqrt(IONS)


class Parts(dict):
    """Accumulates wall time per named part of one op."""

    @contextlib.contextmanager
    def __call__(self, name: str):
        start = time.perf_counter()
        try:
            yield
        finally:
            self[name] = self.get(name, 0.0) + time.perf_counter() - start


def _close(a: float, b: float, rel: float) -> bool:
    return math.isfinite(a) and abs(a - b) <= rel * abs(b)


# ---------------------------------------------------------------- cli


class Cli:
    """Fresh ``python -m decogate.cli`` processes (in-process ``main`` when
    traced).  main = fidelity and shor queries, side = 2000-point sweeps."""

    name = "cli"
    cycle = ("f1", "f2", "shor", "sweep1", "f1", "f2", "shor", "sweep2")
    sweep_points = 2000

    def __init__(self, in_process: bool = False):
        self.in_process = in_process

    def inputs(self, seed: int, k: int, small: bool = False) -> dict:
        rng = op_rng(seed, k)
        kind = self.cycle[k % len(self.cycle)]
        omega = log_uniform(rng.random(), 5e4, 2e5)
        tau = log_uniform(rng.random(), 1e-6, 1e-3) / omega
        common = ["--omega", repr(omega), "--eta", repr(ETA), "--ions", str(IONS)]
        inp = {"kind": kind, "omega": omega, "tau": tau}
        if kind == "f1":
            argv = ["fidelity", "--gate", "one-bit", "--rotation", "pi"]
        elif kind == "f2":
            argv = ["fidelity", "--gate", "two-bit"]
        elif kind == "shor":
            inp["bits"] = int(rng.integers(1, 9))
            argv = ["shor", "--bits", str(inp["bits"])]
        else:
            gate = "one-bit" if kind == "sweep1" else "two-bit"
            scale = omega if gate == "one-bit" else omega_prime(omega)
            lo = 1e-5 * (1.0 + 0.5 * rng.random())
            hi = 1e-3 * (0.7 + 0.3 * rng.random())
            points = 50 if small else self.sweep_points
            inp.update(gate=gate, points=points)
            argv = ["sweep", "--gate", gate, "--tau-min", repr(lo / scale),
                    "--tau-max", repr(hi / scale), "--points", str(points), "--fit"]
        inp["argv"] = argv + common + ["--tau", repr(tau)]
        return inp

    def part_of(self, inp) -> str:
        return "side" if inp["kind"].startswith("sweep") else "main"

    def run(self, inp, parts: Parts):
        part = self.part_of(inp)
        if not self.in_process:
            cmd = [sys.executable, "-m", "decogate.cli", *inp["argv"]]
            with parts(part):
                proc = subprocess.run(cmd, capture_output=True, text=True)
            return proc.returncode, proc.stdout
        import decogate.cli

        buf = io.StringIO()
        with parts(part), contextlib.redirect_stdout(buf):
            try:
                code = decogate.cli.main(list(inp["argv"]))
            except SystemExit as exc:
                code = exc.code
        return code, buf.getvalue()

    def check(self, inp, out) -> list[str]:
        code, text = out
        if code != 0:
            return [f"exit code {code}"]
        kind = inp["kind"]
        if kind.startswith("sweep"):
            return self._check_sweep(inp, text)
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            return [f"invalid JSON: {exc}"]
        omega, tau = inp["omega"], inp["tau"]
        if kind == "shor":
            want = ref.shor_report(inp["bits"], omega, ETA, tau)
            bad = [k for k, v in want.items()
                   if k not in doc or not (doc[k] == v if isinstance(v, bool) else _close(doc[k], v, 1e-12))]
            return [f"shor fields differ: {bad}"] if bad else []
        fid = doc.get("fidelity")
        if kind == "f1":
            want = 1.0 - ref.one_bit_infidelity(omega, tau)
        else:
            want = ref.two_bit_fidelity(omega_prime(omega) * tau)
        if not isinstance(fid, float) or not _close(fid, want, 1e-12):
            return [f"{kind} fidelity {fid!r} != {want!r}"]
        return []

    def _check_sweep(self, inp, text: str) -> list[str]:
        lines = text.strip().split("\n")
        if len(lines) != inp["points"] + 2 or not lines[-1].startswith("# slope="):
            return [f"sweep: {len(lines)} lines for {inp['points']} points"]
        rows = np.array([[float(v) for v in ln.split(",")[1:]] for ln in lines[1:-1]])
        tau, omega_tau, one_minus_f = rows[:, 0], rows[:, 1], rows[:, 3]
        if inp["gate"] == "one-bit":
            scale = inp["omega"]
            want = ref.one_bit_infidelity(scale, tau)
        else:
            scale = omega_prime(inp["omega"])
            want = np.array([1.0 - ref.two_bit_fidelity(scale * t) for t in tau])
        errs = []
        if not np.allclose(omega_tau, scale * tau, rtol=1e-10, atol=0):
            errs.append("sweep: omega_tau column does not match tau")
        worst = float(np.max(np.abs(one_minus_f - want)))
        if not worst <= 1e-12:
            errs.append(f"sweep: 1-F off by {worst:.3e}")
        slope = float(lines[-1].split("slope=")[1].split()[0])
        if not abs(slope - 2.0) <= 0.05:
            errs.append(f"sweep: slope {slope}")
        return errs


# ---------------------------------------------------------------- mc


class MonteCarlo:
    """main = two-bit MC at 2e5 samples, side = one-bit MC at 1e6 samples.
    Both counts divide by the estimator's 50 batches, so every requested
    sample is drawn."""

    name = "mc"
    cycle = ("mc2", "mc1")
    samples = {"mc2": 200_000, "mc1": 1_000_000}
    # gamma draws per requested sample: one area per pulse
    draws_per_sample = {"mc2": 3, "mc1": 1}

    def inputs(self, seed: int, k: int, small: bool = False) -> dict:
        rng = op_rng(seed, k)
        kind = self.cycle[k % 2]
        omega = log_uniform(rng.random(), 5e4, 2e5)
        x = log_uniform(rng.random(), 1e-4, 1e-2)
        n = self.samples[kind] // (40 if small else 1)
        return {"kind": kind, "omega": omega, "tau": x / omega_prime(omega),
                "samples": n, "rng_seed": [seed, k, 7]}

    def part_of(self, inp) -> str:
        return "main" if inp["kind"] == "mc2" else "side"

    def expected_draws(self, inp) -> int:
        return inp["samples"] * self.draws_per_sample[inp["kind"]]

    def run(self, inp, parts: Parts):
        from decogate import fidelity as fid
        from decogate.gates import GateContext

        ctx = GateContext(omega=inp["omega"], eta=ETA, n_ions=IONS, tau=inp["tau"])
        rng = np.random.default_rng(inp["rng_seed"])
        with parts(self.part_of(inp)):
            if inp["kind"] == "mc2":
                res = fid.fidelity_mc_two_bit(ctx, inp["samples"], rng)
            else:
                res = fid.fidelity_one_bit(math.pi / ctx.omega, ctx, fid.Method.MONTE_CARLO,
                                           inp["samples"], rng)
        return res.fidelity, res.stderr

    def check(self, inp, out) -> list[str]:
        f, stderr = out
        if inp["kind"] == "mc2":
            want = ref.two_bit_fidelity(omega_prime(inp["omega"]) * inp["tau"])
        else:
            want = 1.0 - ref.one_bit_infidelity(inp["omega"], inp["tau"])
        if not (math.isfinite(f) and stderr > 0 and abs(f - want) <= 5.0 * stderr):
            return [f"{inp['kind']}: {f!r} +- {stderr!r} vs closed form {want!r}"]
        return []


# ---------------------------------------------------------------- oracle


MOMENTS = (
    lambda a: math.cos(0.5 * a),
    lambda a: math.sin(0.5 * a),
    lambda a: math.cos(0.5 * a) ** 2,
    lambda a: math.sin(0.5 * a) ** 2,
    lambda a: math.sin(0.5 * a) * math.cos(0.5 * a),
)


class Oracle:
    """One closed-form vs quadrature check at one noise level x.
    main = two-bit quadrature tensor vs closed tensor; side = one-bit
    quadrature vs analytic fidelity and the five pulse kernels vs
    quad_average.

    The cost of panel-doubling quadrature jumps by up to 50x between
    neighbouring x below about 1e-3, depending on when successive estimates
    happen to agree; one check can take 2 s.  Drawn at random, such points
    would land in some runs and not others.  So the k-th op uses the k-th
    point of one fixed golden-ratio sequence over log x in [1e-4, 1e-1]:
    every run samples the same costs, and the seed draws the physical
    parameters.
    """

    name = "oracle"
    cycle = ("check",)
    tol = 1e-9

    def inputs(self, seed: int, k: int, small: bool = False) -> dict:
        rng = op_rng(seed, k)
        x = 1e-2 if small else log_uniform((k * GOLDEN) % 1.0, 1e-4, 1e-1)
        return {"kind": "check", "x": x, "omega": log_uniform(rng.random(), 5e4, 2e5)}

    def run(self, inp, parts: Parts):
        from decogate import decoherence as dec
        from decogate import fidelity as fid
        from decogate.gates import GateContext

        omega, x = inp["omega"], inp["x"]
        wp = omega_prime(omega)
        ctx2 = GateContext(omega=omega, eta=ETA, n_ions=IONS, tau=x / wp)
        ctx1 = GateContext(omega=omega, eta=ETA, n_ions=IONS, tau=x / omega)
        with parts("main"):
            quad2 = fid.quad_two_bit_tensor(ctx2)
            closed2 = fid.closed_two_bit_tensor(ctx2)
        with parts("side"):
            t1 = math.pi / omega
            quad1 = fid.fidelity_one_bit(t1, ctx1, fid.Method.QUADRATURE).fidelity
            closed1 = fid.fidelity_one_bit(t1, ctx1, fid.Method.ANALYTIC).fidelity
            kv = dec.kernel_integrals(math.pi / wp, wp, ctx2.tau)
            dist = dec.AreaDistribution(math.pi / wp, ctx2.tau, wp)
            moments = [dec.quad_average(f, dist) for f in MOMENTS]
        return {
            "quad2": quad2.values, "closed2": closed2.values, "known": closed2.known,
            "quad1": quad1, "closed1": closed1,
            "kernels": [kv.c1, kv.s1, kv.c2, kv.s2, kv.z], "moments": moments,
        }

    def check(self, inp, out) -> list[str]:
        x, tol = inp["x"], self.tol
        entries = ref.two_bit_known_entries(x)
        errs = []
        known = {tuple(int(i) for i in idx) for idx in np.argwhere(out["known"])}
        if known != set(entries):
            errs.append("closed two-bit tensor: unexpected set of known entries")
        for idx, want in entries.items():
            q, c = out["quad2"][idx], out["closed2"][idx]
            if not (abs(q - c) <= tol and abs(c - want) <= tol):
                errs.append(f"two-bit entry {idx}: quad {q} closed {c} reference {want}")
                break
        want1 = 1.0 - ref.one_bit_infidelity(inp["omega"], x / inp["omega"])
        if not (abs(out["quad1"] - out["closed1"]) <= tol and abs(out["closed1"] - want1) <= tol):
            errs.append(f"one-bit: quad {out['quad1']} closed {out['closed1']} reference {want1}")
        want_k = ref.pulse_moments(x, math.pi / x)
        for name, kv, mq, w in zip(("c1", "s1", "c2", "s2", "z"), out["kernels"], out["moments"], want_k):
            if not (abs(kv - mq) <= tol and abs(kv - w) <= tol):
                errs.append(f"kernel {name}: closed {kv} quad {mq} reference {w}")
        return errs


# ---------------------------------------------------------------- evolve


class Evolve:
    """compare_evolutions on a random Hermitian H (spectral norm 5e4 rad/s,
    t = 2e-4 s, 10-point grid).  main = dimension 18, side = dimensions 2
    and 6."""

    name = "evolve"
    cycle = (2, 18, 6, 18)
    norm = 5e4
    t_final = 2e-4
    tol = 1e-10

    def inputs(self, seed: int, k: int, small: bool = False) -> dict:
        rng = op_rng(seed, k)
        dim = self.cycle[k % len(self.cycle)]
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        h = 0.5 * (a + a.conj().T)
        h *= self.norm / np.max(np.abs(np.linalg.eigvalsh(h)))
        psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        psi /= np.linalg.norm(psi)
        x = log_uniform(rng.random(), 1e-4, 1e-1)
        t_final = self.t_final / (10 if small else 1)
        return {"kind": dim, "h": h, "rho0": np.outer(psi, psi.conj()), "tau": x / self.norm,
                "times": list(np.linspace(t_final / 10, t_final, 10))}

    def part_of(self, inp) -> str:
        return "main" if inp["kind"] == 18 else "side"

    def run(self, inp, parts: Parts):
        from decogate import dynamics as dyn
        from decogate.statemath import DensityMatrix

        with parts(self.part_of(inp)):
            spec = dyn.HamiltonianSpec(inp["h"])
            cmp = dyn.compare_evolutions(spec, DensityMatrix(inp["rho0"]), inp["times"], inp["tau"])
        return cmp.trace_distance, cmp.max_offdiag_error

    def check(self, inp, out) -> list[str]:
        dists, offs = out
        want_d, want_o = ref.evolution_distances(inp["h"], inp["rho0"], inp["times"], inp["tau"])
        if len(dists) != len(want_d) or len(offs) != len(want_o):
            return ["evolve: wrong number of grid points"]
        worst = max(np.max(np.abs(np.subtract(dists, want_d))), np.max(np.abs(np.subtract(offs, want_o))))
        if not worst <= self.tol:
            return [f"evolve dim {inp['kind']}: off by {worst:.3e}"]
        return []


WORKLOADS = {w.name: w for w in (Cli, MonteCarlo, Oracle, Evolve)}

