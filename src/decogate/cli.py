"""Command-line interface: fidelity queries, sweeps, feasibility reports,
master-equation comparisons, and the self-validation suite.

Exit codes: 0 success, 1 runtime/numeric failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from . import validate as validate_mod
from .bounds import DEFAULT_FEASIBILITY_THRESHOLD, ShorScenario, assess
from .dynamics import HamiltonianSpec, compare_evolutions
from .fidelity import MIN_MC_SAMPLES, Method, fidelity_one_bit, fidelity_two_bit
from .gates import GateContext
from .statemath import DensityMatrix
from .sweep import SweepSpec, fit_loglog_slope, run_sweep

# Defaults pinned to the experimentally fitted parameter regime.
DEFAULT_OMEGA = 1e5
DEFAULT_ETA = 0.1
DEFAULT_IONS = 20
DEFAULT_TAU = 1e-8
DEFAULT_SEED = 0


def _fmt(x: float) -> str:
    """Fixed 12-significant-digit scientific notation."""
    return f"{x:.11e}"


def _read_config(path: str) -> dict[str, str]:
    cfg = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, val = line.split("=", 1)
            cfg[key.strip()] = val.strip()
    return cfg


_CONFIG_KEYS = {
    "omega": float,
    "eta": float,
    "ions": int,
    "tau": float,
    "seed": int,
    "samples": int,
    "threshold": float,
}


def _resolve(args: argparse.Namespace, parser: argparse.ArgumentParser) -> None:
    """Fill unset flags from the config file, then from defaults."""
    cfg = {}
    if getattr(args, "config", None):
        try:
            cfg = _read_config(args.config)
        except (OSError, ValueError) as exc:
            parser.error(str(exc))
    defaults = {
        "omega": DEFAULT_OMEGA,
        "eta": DEFAULT_ETA,
        "ions": DEFAULT_IONS,
        "tau": DEFAULT_TAU,
        "seed": DEFAULT_SEED,
        "samples": 1_000_000,
        "threshold": DEFAULT_FEASIBILITY_THRESHOLD,
    }
    for key, cast in _CONFIG_KEYS.items():
        if getattr(args, key, None) is None:
            if key in cfg:
                setattr(args, key, cast(cfg[key]))
            elif hasattr(args, key):
                setattr(args, key, defaults[key])


def _emit(args: argparse.Namespace, text: str) -> None:
    if getattr(args, "out", None):
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_common(p: argparse.ArgumentParser, physical: bool = True) -> None:
    p.add_argument("--seed", type=int, default=None, help="random seed (default 0)")
    p.add_argument("--out", default=None, help="output path (default stdout)")
    p.add_argument("--config", default=None, help="key = value config file")
    if physical:
        p.add_argument("--omega", type=float, default=None, help="Rabi frequency [rad/s]")
        p.add_argument("--eta", type=float, default=None, help="Lamb-Dicke parameter")
        p.add_argument("--ions", type=int, default=None, help="number of trapped ions")
        p.add_argument("--tau", type=float, default=None, help="scaling time [s]")


def _context(args: argparse.Namespace) -> GateContext:
    return GateContext(omega=args.omega, eta=args.eta, n_ions=args.ions, tau=args.tau)


def cmd_fidelity(args, parser) -> int:
    _resolve(args, parser)
    method = Method.ANALYTIC if args.method == "analytic" else Method.MONTE_CARLO
    rng = np.random.default_rng(args.seed)
    try:
        ctx = _context(args)
        if args.gate == "one-bit":
            if args.rotation is not None:
                if args.rotation != "pi":
                    parser.error("only --rotation pi is supported")
                t = math.pi / ctx.omega
            elif args.time is not None:
                t = args.time
            else:
                parser.error("one-bit gate needs --time or --rotation pi")
            res = fidelity_one_bit(t, ctx, method, args.samples, rng)
        else:
            res = fidelity_two_bit(ctx, method, args.samples, rng)
    except ValueError as exc:
        parser.error(str(exc))
    report = {
        "gate": args.gate,
        "method": args.method,
        "fidelity": res.fidelity,
        "one_minus_fidelity": res.one_minus_f,
        "stderr": res.stderr,
        "params": {
            "omega": ctx.omega,
            "eta": ctx.eta,
            "n_ions": ctx.n_ions,
            "tau": ctx.tau,
            "nominal_time": res.nominal_time,
            "seed": args.seed,
        },
    }
    _emit(args, json.dumps(report, indent=2) + "\n")
    return 0


def cmd_sweep(args, parser) -> int:
    _resolve(args, parser)
    if args.points < 2:
        parser.error("need at least 2 points")
    gate = args.gate.replace("-", "_")
    try:
        ctx = _context(args)
        spec = SweepSpec(
            gate=gate,
            tau_min=args.tau_min,
            tau_max=args.tau_max,
            points=args.points,
            context=ctx,
            method=Method.ANALYTIC if args.method == "analytic" else Method.MONTE_CARLO,
            mc_samples=args.samples,
        )
        rows = run_sweep(spec, seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    lines = ["gate,tau,omega_tau,fractional_error,one_minus_fidelity,stderr"]
    for r in rows:
        lines.append(
            f"{args.gate},{_fmt(r.tau)},{_fmt(r.omega_tau)},"
            f"{_fmt(r.fractional_error)},{_fmt(r.one_minus_f)},{_fmt(r.stderr)}"
        )
    if args.fit:
        slope, _, r2 = fit_loglog_slope(rows)
        lines.append(f"# slope={_fmt(slope)} r2={_fmt(r2)}")
    try:
        _emit(args, "\n".join(lines) + "\n")
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_shor(args, parser) -> int:
    _resolve(args, parser)
    if args.bits < 1:
        parser.error("--bits must be at least 1")
    try:
        report = assess(ShorScenario(args.bits, args.omega, args.eta, args.tau), args.threshold)
    except ValueError as exc:
        parser.error(str(exc))
    _emit(args, json.dumps(report.to_dict(), indent=2) + "\n")
    return 0


def _load_hamiltonian(path: str) -> np.ndarray:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, list) or not data:
        raise ValueError("expected a nonempty list of rows")
    n = len(data)
    m = np.zeros((n, n), dtype=complex)
    for r, row in enumerate(data):
        if not isinstance(row, list) or len(row) != n:
            raise ValueError(f"row {r}: expected {n} entries")
        for c, entry in enumerate(row):
            if (
                not isinstance(entry, list)
                or len(entry) != 2
                or not all(isinstance(v, (int, float)) for v in entry)
            ):
                raise ValueError(f"row {r}, column {c}: expected [re, im]")
            m[r, c] = complex(entry[0], entry[1])
    return m


def cmd_evolve(args, parser) -> int:
    _resolve(args, parser)
    try:
        hm = _load_hamiltonian(args.hamiltonian)
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        parser.error(f"bad hamiltonian file: {exc}")
    try:
        h = HamiltonianSpec(hm)
    except ValueError as exc:
        parser.error(f"bad hamiltonian: {exc}")
    if args.points < 1:
        parser.error("need at least 1 point")
    if not (math.isfinite(args.t) and args.t > 0):
        parser.error(f"--t must be finite and positive, got {args.t}")
    dim = hm.shape[0]
    rho0 = np.zeros((dim, dim), dtype=complex)
    if args.rho0_eigenbasis:
        v0 = h.eigenvectors[:, 0]
        rho0 = np.outer(v0, v0.conj())
    else:
        rho0[0, 0] = 1.0
    t_grid = list(np.linspace(args.t / args.points, args.t, args.points))
    try:
        cmp = compare_evolutions(h, DensityMatrix(rho0), t_grid, args.tau)
    except ValueError as exc:
        parser.error(str(exc))
    lines = ["time,trace_distance,max_offdiag_error"]
    for t, td, off in zip(cmp.times, cmp.trace_distance, cmp.max_offdiag_error):
        lines.append(f"{_fmt(t)},{_fmt(td)},{_fmt(off)}")
    _emit(args, "\n".join(lines) + "\n")
    return 0


def cmd_validate(args, parser) -> int:
    _resolve(args, parser)
    if args.samples < MIN_MC_SAMPLES:
        parser.error(f"--samples must be at least {MIN_MC_SAMPLES}")
    results = validate_mod.run_all(n_samples=args.samples, seed=args.seed)
    width = max(len(r.name) for r in results)
    ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  {status}  {r.detail}")
        ok &= r.passed
    print(f"{'TOTAL':<{width}}  {'PASS' if ok else 'FAIL'}  "
          f"{sum(r.passed for r in results)}/{len(results)} checks passed")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="decogate",
        description="Gamma-averaged decoherence model of trapped-ion gates",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fidelity", help="gate fidelity at fixed parameters")
    _add_common(p)
    p.add_argument("--gate", choices=["one-bit", "two-bit"], required=True)
    p.add_argument("--method", choices=["analytic", "mc"], default="analytic")
    p.add_argument("--rotation", choices=["pi"], default=None,
                   help="nominal one-bit rotation (pi pulse)")
    p.add_argument("--time", type=float, default=None, help="one-bit rotation time [s]")
    p.add_argument("--samples", type=int, default=None, help="Monte Carlo sample count")
    p.set_defaults(func=cmd_fidelity)

    p = sub.add_parser("sweep", help="1-F vs fractional area error on a tau grid")
    _add_common(p)
    p.add_argument("--gate", choices=["one-bit", "two-bit"], required=True)
    p.add_argument("--tau-min", type=float, required=True)
    p.add_argument("--tau-max", type=float, required=True)
    p.add_argument("--points", type=int, default=20)
    p.add_argument("--method", choices=["analytic", "mc"], default="analytic")
    p.add_argument("--samples", type=int, default=None)
    p.add_argument("--fit", action="store_true", help="append log-log slope fit")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("shor", help="feasibility report for factoring an L-bit number")
    _add_common(p)
    p.add_argument("--bits", type=int, required=True)
    p.add_argument("--threshold", type=float, default=None,
                   help="feasibility threshold on total_time*gamma (default 0.1)")
    p.set_defaults(func=cmd_shor)

    p = sub.add_parser("evolve", help="exact averaged map vs second-order truncation")
    _add_common(p, physical=False)
    p.add_argument("--hamiltonian", required=True,
                   help="JSON matrix file: list of rows of [re, im] entries")
    p.add_argument("--t", type=float, required=True, help="final time [s]")
    p.add_argument("--tau", type=float, default=None)
    p.add_argument("--points", type=int, default=50, help="output grid size")
    p.add_argument("--rho0-eigenbasis", action="store_true",
                   help="start in the Hamiltonian ground eigenstate")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("validate", help="closed-form vs oracle cross-check suite")
    _add_common(p, physical=False)
    p.add_argument("--samples", type=int, default=None, help="Monte Carlo sample count")
    p.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except (ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
