"""Closed-loop measurement of one workload: one client, next op only after
the previous one completes, for a fixed number of seconds."""

from __future__ import annotations

import time
import traceback

from tracer import Tracer
from workloads import Parts

SAMPLE_TARGET = "decogate.fidelity:sample_area"

# End-to-end metrics of the untraced run.  main and side are the workload's
# two op kinds (or parts of its op); see README.md.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("main_p50_s", "s"),
    ("side_p50_s", "s"),
)

# Per-layer metrics of the traced run.  A layer's busy time is reported as
# its share of the traced op time: a layer a workload never calls reads 0,
# which as a share is a measurement rather than a time that never changes.
# Multiply by trace.op_s for seconds.  Counts and trace.*_s are per op cycle;
# cli.import_* come from fresh interpreters.
PER_LAYER = (
    ("cli.import_s", "s"), ("cli.import_scipy_share", "ratio"), ("cli.self_share", "ratio"),
    ("sweep.self_share", "ratio"), ("sweep.points", "count"), ("bounds.assess_share", "ratio"),
    ("fidelity.closed_share", "ratio"), ("fidelity.closed_calls", "count"),
    ("fidelity.project_share", "ratio"), ("fidelity.contract_share", "ratio"),
    ("fidelity.mc_batches", "count"),
    ("fidelity.superop_share", "ratio"), ("fidelity.superop_calls", "count"),
    ("decoherence.kernel_share", "ratio"), ("decoherence.kernel_calls", "count"),
    ("decoherence.sample_share", "ratio"), ("decoherence.samples", "count"),
    ("decoherence.quad_share", "ratio"), ("decoherence.quad_calls", "count"),
    ("decoherence.quad_matrix_share", "ratio"), ("decoherence.pdf_nodes", "count"),
    ("gates.compose_share", "ratio"), ("gates.pulse_apply_share", "ratio"),
    ("gates.pulse_columns", "count"), ("gates.bytes_computed", "bytes"),
    ("dynamics.rk4_share", "ratio"), ("dynamics.rhs_evals", "count"),
    ("dynamics.exact_map_share", "ratio"),
    ("statemath.eigen_share", "ratio"), ("statemath.eigen_calls", "count"),
    ("trace.op_s", "s"), ("trace.uncovered_share", "ratio"), ("trace.overhead_s", "s"),
    ("trace.absent_targets", "count"),
)


def run_op(w, inp, tracer: Tracer | None, totals: dict) -> tuple[dict, list[str]]:
    """Run and check one op; returns (part times, failures).

    Traced, the op runs twice on the same inputs: once plain, once with the
    wrappers installed, and the difference adds to the tracing overhead."""
    failures = []
    parts = Parts()
    try:
        if tracer is None:
            out = w.run(inp, parts)
        else:
            plain = Parts()
            w.run(inp, plain)
            drawn_before = tracer.counts["decoherence.samples"]
            start = time.perf_counter()
            with tracer.installed(), tracer.span("op"):
                out = w.run(inp, parts)
            traced = time.perf_counter() - start
            totals["op_s"] += traced
            totals["overhead_s"] += traced - sum(plain.values())
            if hasattr(w, "expected_draws") and SAMPLE_TARGET not in tracer.absent:
                drawn = tracer.counts["decoherence.samples"] - drawn_before
                if drawn != w.expected_draws(inp):
                    failures.append(f"{drawn:.0f} gamma draws, expected {w.expected_draws(inp)} "
                                    f"for {inp['samples']} requested samples")
        failures += w.check(inp, out)
    except Exception as exc:  # an op that raises is a failed op; keep measuring
        failures.append("".join(traceback.format_exception_only(exc)).strip())
        parts = Parts()
    return dict(parts), failures


def measure(w, seed: int, seconds: float, tracer: Tracer | None = None) -> dict:
    """Run ops until `seconds` have passed and at least one full cycle is
    done; a traced run stops on a cycle boundary so per-cycle figures
    compare across runs."""
    cycle = len(w.cycle)
    ops = []
    totals = {"op_s": 0.0, "overhead_s": 0.0}
    deadline = time.perf_counter() + seconds
    k = 0
    while True:
        inp = w.inputs(seed, k)
        parts, failures = run_op(w, inp, tracer, totals)
        ops.append({"kind": str(inp["kind"]), "parts": parts, "failures": failures})
        k += 1
        if time.perf_counter() >= deadline and k >= cycle and (tracer is None or k % cycle == 0):
            break
    result = {"ops": ops}
    if tracer is not None:
        result["layers"] = layer_metrics(tracer, totals, k // cycle)
        result["absent"] = tracer.absent
    return result


def layer_metrics(tracer: Tracer, totals: dict, cycles: int) -> dict:
    """Per-layer metrics except cli.import_*, which run.py measures."""
    op_s = totals["op_s"]
    out = {}
    for name, unit in PER_LAYER:
        if name.endswith("_share") and not name.startswith("cli.import"):
            span = "op" if name == "trace.uncovered_share" else name[: -len("_share")]
            out[name] = tracer.self_s.get(span, 0.0) / op_s
        elif unit in ("count", "bytes"):
            out[name] = tracer.counts.get(name, 0.0) / cycles
    out["trace.op_s"] = op_s / cycles
    out["trace.overhead_s"] = totals["overhead_s"] / cycles
    out["trace.absent_targets"] = float(len(tracer.absent))
    return out
