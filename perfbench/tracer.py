"""Spans and counters recorded around calls into decogate's modules.

Wrappers are installed on the name a caller looks up at call time, not where
the function is defined: decogate modules bind imported names directly
(``decogate.fidelity.sample_area`` is a separate binding from
``decogate.decoherence.sample_area``), so wrapping the definition would miss
those calls.  A target that no longer exists is recorded as absent; its
metrics read 0 and ``trace.absent_targets`` counts it.

Time is kept as self time per span name: the span's duration minus the time
of the traced spans nested directly inside it.  The benchmark's own ``op``
span encloses each operation, so its self time is the part of the op no
listed span covers.
"""

from __future__ import annotations

import contextlib
import importlib
import time
from collections import defaultdict

import numpy as np


def _pulse_counts(counts, args, kwargs, out):
    states = np.asarray(args[0] if args else kwargs["states"])
    counts["gates.pulse_columns"] += states.size // states.shape[-1]
    # computed from array shapes: the input read plus the output written
    counts["gates.bytes_computed"] += states.nbytes + np.asarray(out).nbytes


def _calls(metric):
    def count(counts, args, kwargs, out):
        counts[metric] += 1

    return count


def _size_of_result(metric):
    def count(counts, args, kwargs, out):
        counts[metric] += np.size(out)

    return count


def _pdf_nodes(counts, args, kwargs, out):
    counts["decoherence.pdf_nodes"] += np.size(args[1] if len(args) > 1 else kwargs["a"])


# (owner "module:attr[.attr]", span name or None for count-only, counter)
TARGETS = (
    ("decogate.cli:main", "cli.self", None),
    ("decogate.cli:run_sweep", "sweep.self", _size_of_result("sweep.points")),
    ("decogate.cli:fit_loglog_slope", "sweep.self", None),
    ("decogate.cli:assess", "bounds.assess", None),
    ("decogate.cli:fidelity_one_bit", "fidelity.closed", _calls("fidelity.closed_calls")),
    ("decogate.cli:fidelity_two_bit", "fidelity.closed", _calls("fidelity.closed_calls")),
    ("decogate.sweep:fidelity_one_bit", "fidelity.closed", _calls("fidelity.closed_calls")),
    ("decogate.sweep:fidelity_two_bit", "fidelity.closed", _calls("fidelity.closed_calls")),
    # closed_two_bit_tensor imports kernel_integrals inside the function, so
    # the lookup happens on decogate.decoherence at call time
    ("decogate.decoherence:kernel_integrals", "decoherence.kernel", _calls("decoherence.kernel_calls")),
    ("decogate.fidelity:_area_char", "decoherence.kernel", _calls("decoherence.kernel_calls")),
    ("decogate.fidelity:sample_area", "decoherence.sample", _size_of_result("decoherence.samples")),
    ("decogate.fidelity:composite_action", "gates.compose", None),
    ("decogate.gates:apply_pulse_batch", "gates.pulse_apply", _pulse_counts),
    ("decogate.fidelity:apply_pulse_batch", "gates.pulse_apply", _pulse_counts),
    ("decogate.fidelity:_one_bit_amp", "fidelity.project", None),
    ("decogate.fidelity:_two_bit_amp", "fidelity.project", None),
    ("decogate.fidelity:_amp_to_fidelity", "fidelity.contract", _calls("fidelity.mc_batches")),
    ("decogate.fidelity:_averaged_pulse_superop", "fidelity.superop", _calls("fidelity.superop_calls")),
    ("decogate.fidelity:quad_average_matrix", "decoherence.quad_matrix", None),
    ("decogate.decoherence:quad_average", "decoherence.quad", _calls("decoherence.quad_calls")),
    ("decogate.decoherence:AreaDistribution.pdf", None, _pdf_nodes),
    ("decogate.dynamics:compare_evolutions", "dynamics.rk4", None),
    ("decogate.dynamics:exact_map", "dynamics.exact_map", None),
    ("decogate.dynamics:_rhs", None, _calls("dynamics.rhs_evals")),
    ("decogate.dynamics:hermitian_eigen", "statemath.eigen", _calls("statemath.eigen_calls")),
)

def _resolve(target: str):
    """(owner object, attribute name, current value) or None if missing."""
    module_name, path = target.split(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    fn = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if fn is None:
        return None
    return owner, attr, fn


class Tracer:
    def __init__(self, targets=TARGETS):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self._stack: list[list] = []
        self._patches = []
        self.absent = []
        for target, span, count in targets:
            found = _resolve(target)
            if found is None:
                self.absent.append(target)
                continue
            owner, attr, fn = found
            self._patches.append((owner, attr, fn, self._wrapper(fn, span, count)))

    @contextlib.contextmanager
    def span(self, name: str):
        frame = [name, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - start
            self._stack.pop()
            self.self_s[name] += dur - frame[1]
            if self._stack:
                self._stack[-1][1] += dur

    def _wrapper(self, fn, span, count):
        tracer = self

        if span is None:
            def wrapper(*args, **kwargs):
                out = fn(*args, **kwargs)
                count(tracer.counts, args, kwargs, out)
                return out
        else:
            def wrapper(*args, **kwargs):
                with tracer.span(span):
                    out = fn(*args, **kwargs)
                if count is not None:
                    count(tracer.counts, args, kwargs, out)
                return out

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Swap every wrapper in for the duration of the block."""
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)
        try:
            yield self
        finally:
            for owner, attr, fn, _ in reversed(self._patches):
                setattr(owner, attr, fn)
