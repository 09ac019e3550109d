"""decogate benchmark: one workload, one closed-loop client, checked outputs.

    python3 perfbench/run.py --workload {cli,mc,oracle,evolve} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; decogate is imported from its src/.  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0, the
per-layer metrics (per op cycle, from spans around calls into each decogate
module) with --trace 1.  The lines before it name every metric with its unit
and sample count.  See README.md for what each workload measures and why.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# Cap BLAS/OpenMP threads before numpy loads, here and in every child.
for _var in THREAD_VARS:
    os.environ[_var] = str(NPROC)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))

import numpy as np  # noqa: E402

from harness import END_TO_END, PER_LAYER, measure  # noqa: E402
from workloads import WORKLOADS, Cli  # noqa: E402

SETUP_REPEATS = 3
# What main and side time, per workload, under the names the metrics carry
# in the human-readable lines.
PART_NAMES = {
    "cli": ("query", "sweep"),
    "mc": ("mc2", "mc1"),
    "oracle": ("oracle_two_bit", "oracle_one_bit"),
    "evolve": ("evolve_dim18", "evolve_dim2_6"),
}


class BenchError(RuntimeError):
    pass


def fresh_import(extra=()) -> tuple[float, str]:
    """Wall time of `import decogate.cli` in a new interpreter, and its stderr."""
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, *extra, "-c", "import decogate.cli"],
                          capture_output=True, text=True)
    elapsed = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"import decogate.cli failed: {proc.stderr.strip()}")
    return elapsed, proc.stderr


def import_breakdown() -> dict:
    """cli.import_s, the cumulative `-X importtime` of decogate.cli, and
    cli.import_scipy_share, the part of it spent importing scipy (cumulative
    time of every scipy import not nested in another); medians over
    SETUP_REPEATS fresh interpreters."""
    total, scipy = [], []
    for _ in range(SETUP_REPEATS):
        _, log = fresh_import(("-X", "importtime"))
        rows = re.findall(r"import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", log)
        cumulative = next(int(c) for c, _, name in rows if name == "decogate.cli")
        # rows come children first; walk them parents first with a stack of
        # (depth, is scipy) for the current path
        in_scipy, path = 0, []
        for c, indent, name in reversed(rows):
            while path and path[-1][0] >= len(indent):
                path.pop()
            is_scipy = name.split(".")[0] == "scipy"
            if is_scipy and not any(s for _, s in path):
                in_scipy += int(c)
            path.append((len(indent), is_scipy))
        total.append(cumulative * 1e-6)
        scipy.append(in_scipy / cumulative)
    return {"cli.import_s": statistics.median(total),
            "cli.import_scipy_share": statistics.median(scipy)}


def start_worker(args) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait until it is ready; returns it and its set-up
    time (process start, imports and the warm-up ops)."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
         repr(args.seconds), str(args.trace)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    ready = time.perf_counter() - start
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker for {args.workload} did not start (exit {proc.returncode})")
    return proc, ready


def run_in_workers(args) -> tuple[dict, list[float]]:
    """Set up SETUP_REPEATS fresh workers one after another and measure in
    the last one."""
    setups = []
    for _ in range(SETUP_REPEATS - 1):
        proc, ready = start_worker(args)
        setups.append(ready)
        proc.communicate("")
    proc, ready = start_worker(args)
    setups.append(ready)
    try:
        out, _ = proc.communicate("go\n", timeout=args.seconds + 150)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("measuring worker timed out")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"measuring worker exited with {proc.returncode}")
    return json.loads(out.strip().split("\n")[-1]), setups


def percentile_level(n: int) -> int | None:
    """Highest listed percentile with at least 10 samples beyond it."""
    for q in (99, 95, 90, 75, 50):
        if n * (100 - q) / 100 >= 10:
            return q
    return None


def timing_lines(name: str, values: list[float]) -> list[str]:
    """p50 and the highest percentile the sample count supports."""
    n = len(values)
    lines = [f"{name}_p50_s {statistics.median(values):.6g} s n={n}"]
    q = percentile_level(n)
    if q is None:
        lines[0] += " (fewer than 20 samples: no percentile has 10 beyond it)"
    elif q > 50:
        lines.append(f"{name}_p{q}_s {float(np.percentile(values, q)):.6g} s n={n}")
    return lines


def end_to_end(name: str, result: dict, setups: list[float]) -> tuple[dict, list[str]]:
    ops = [op for op in result["ops"] if op["parts"]]
    main = [op["parts"]["main"] for op in ops if "main" in op["parts"]]
    side = [op["parts"]["side"] for op in ops if "side" in op["parts"]]
    busy = sum(sum(op["parts"].values()) for op in ops)
    if not main or not side:
        raise BenchError("no completed op of one of the workload's kinds")
    metrics = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
        "main_p50_s": statistics.median(main),
        "side_p50_s": statistics.median(side),
    }
    main_name, side_name = PART_NAMES[name]
    # ops_per_s is printed, not gated: on the oracle it follows a few slow
    # multi-threaded quadratures, and its spread over ten runs reached 0.27
    lines = [f"setup_s {metrics['setup_s']:.6g} s n={len(setups)}",
             f"peak_rss_mb {metrics['peak_rss_mb']:.6g} MB",
             f"ops_per_s {len(ops) / busy:.6g} 1/s n={len(ops)}"]
    lines += timing_lines(main_name, main) + timing_lines(side_name, side)
    if name == "mc":
        for kind, times in (("mc2", main), ("mc1", side)):
            rate = WORKLOADS["mc"].samples[kind] * len(times) / sum(times)
            lines.append(f"{kind}_samples_per_s {rate:.6g} 1/s n={len(times)}")
    if name in ("oracle", "evolve"):
        lines += timing_lines(name, [sum(op["parts"].values()) for op in ops])
    return metrics, lines


def per_layer(result: dict) -> tuple[dict, list[str]]:
    layers = {**result["layers"], **import_breakdown()}
    metrics = {name: layers[name] for name, _ in PER_LAYER}
    lines = []
    for name, unit in PER_LAYER:
        line = f"{name} {metrics[name]:.6g} {unit}"
        if name.endswith("_share") and not name.startswith("cli.import"):
            line += f" ({metrics[name] * metrics['trace.op_s']:.6g} s per cycle)"
        elif unit != "ratio" and name not in ("cli.import_s", "trace.absent_targets"):
            line += " per cycle"
        lines.append(line)
    return metrics, lines + [f"absent wrap target: {t}" for t in result["absent"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "decogate" / "cli.py").is_file():
        print(f"error: no decogate sources under {SRC}", file=sys.stderr)
        return 2

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": NPROC, "python": platform.python_version(),
        "numpy": np.__version__, "scipy": metadata.version("scipy"),
        "threads": {v: os.environ[v] for v in THREAD_VARS}, "clients": 1, "loop": "closed",
    }
    print("meta " + json.dumps(meta), flush=True)
    try:
        if args.workload == "cli" and not args.trace:
            setups = [fresh_import()[0] for _ in range(SETUP_REPEATS)]
            result = measure(Cli(), args.seed, args.seconds)
            # largest resident set of any decogate process this run started
            result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
        else:
            result, setups = run_in_workers(args)
        if args.trace:
            metrics, lines = per_layer(result)
        else:
            metrics, lines = end_to_end(args.workload, result, setups)
        units = dict(PER_LAYER if args.trace else END_TO_END)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    ops = result["ops"]
    failed = sum(1 for op in ops if op["failures"])
    for op in ops:
        for msg in op["failures"]:
            print(f"FAIL {op['kind']}: {msg}")
    for line in lines + [f"error_rate {failed / len(ops):.6g} ratio n={len(ops)}"]:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
