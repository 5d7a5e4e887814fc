"""Time-to-verdict benchmark for gradedheat.

    python3 perfbench/run.py --workload h1_existence --seed 1 --seconds 24 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 24 --trace 0

Runs one workload as a closed loop (one operation after another, from this
process) for --seconds, checks every operation's output against the seed
commit's reference values, and prints each metric by name, unit and sample
count.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 operations alternate between
traced and untraced, and the metrics are the per-layer ones from the traced
operations plus the tracing overhead.  Full results, spans included, are
written under .perfbench_out/ in the checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import workloads
from tracing import Tracer, layer_metrics, summarise
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".perfbench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {
    "setup_s": "s",
    "time_to_verdict_s": "s",
    "time_to_verdict_s_tail": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "config.parse_s": "s",
    "operators.build_s": "s",
    "operators.nnz": "count",
    "operators.eigh_s": "s",
    "operators.apply_s": "s",
    "operators.apply_calls": "count",
    "mollify.potential_s": "s",
    "mollify.convolve_s": "s",
    "mollify.convolve_calls": "count",
    "mollify.convolve_support": "count",
    "solve.factor_s": "s",
    "solve.lu_fill": "count",
    "solve.step_s": "s",
    "solve.steps": "count",
    "solve.step_bytes_computed": "B",
    "solve.duhamel_s": "s",
    "harness.self_s": "s",
    "harness.fit_s": "s",
    "harness.pool_utilisation": "ratio",
    "harness.eps_attempted": "count",
    "harness.eps_failed": "count",
    "cli.persist_s": "s",
    "trace.overhead_s": "s",
}


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, samples beyond it) for the time_to_verdict tail.

    The tail is the highest percentile with at least ten samples beyond it,
    but never below p75: with fewer than 40 samples no percentile from p75
    up has ten samples beyond it, and p75 (linear interpolation between
    order statistics) is reported with however many lie beyond it.  The
    maximum of a handful of samples would swing with every outlier.
    """
    xs = sorted(samples)
    n = len(xs)
    if n >= 40:
        k = n - 11
        return xs[k], 100.0 * (k + 1) / n, n - 1 - k
    if n == 1:
        return xs[0], 75.0, 0
    value = statistics.quantiles(xs, n=4, method="inclusive")[2]
    return value, 75.0, sum(1 for x in xs if x > value)


def _openblas_threads() -> int | None:
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.lower() and ".so" in line}
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "gradedheat").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def environment(workload, seed: int, threads: int) -> dict:
    import numpy as np
    import scipy

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "openblas_threads": _openblas_threads(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "workload": workload.name,
        "seed": seed,
        "threads": threads,
    }


def measure_setup(name: str, seed: int, out_dir: Path) -> list[float]:
    """Set-up times of SETUP_PROBES fresh processes, spawned one at a time."""
    times = []
    for i in range(SETUP_PROBES):
        cmd = [sys.executable, str(HERE / "setup_probe.py"), name,
               str(out_dir / f"probe{i}"), str(seed)]
        start = time.monotonic()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]) - start)
    return times


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    workload = WORKLOADS[name]
    reference = workloads.load_reference()[name]
    out_dir = OUT_ROOT / name
    setup_times = measure_setup(name, seed, out_dir)
    state = workload.setup(out_dir / "main", seed)
    env = environment(workload, seed, workload.threads)

    ops = []
    missing: list[str] = []
    start = time.perf_counter()
    while True:
        traced = trace and len(ops) % 2 == 0
        workload.prepare(state)
        tracer = Tracer() if traced else None
        if tracer is not None:
            tracer.install()
            missing = missing or list(tracer.missing)
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            outcome, error = workload.operation(state), None
        except Exception as exc:  # noqa: BLE001 - a raising operation is a failed one
            outcome, error = None, f"{type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        t1, cpu1 = time.perf_counter(), time.process_time()
        if tracer is not None:
            tracer.uninstall()
        result = (workloads.OpResult([error]) if error is not None
                  else workload.check(state, outcome, reference))
        if tracer is not None and tracer.missing:
            result.problems.append("trace wrappers missing: " + ", ".join(tracer.missing))
        ops.append({"wall_s": t1 - t0, "cpu_s": cpu1 - cpu0, "traced": traced,
                    "problems": result.problems, "report_sha256": result.report_sha256,
                    "spans": [s.to_dict() for s in tracer.spans] if tracer else None,
                    "layers": (layer_metrics(tracer.spans, workload.threads)
                               if tracer and error is None else None)})
        for problem in result.problems:
            print(f"op {len(ops)} failed: {problem}", file=sys.stderr)
        if time.perf_counter() - start >= seconds and (
                not trace or any(not op["traced"] for op in ops)):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = len(ops)
    failed = sum(1 for op in ops if op["problems"])
    plain = [op for op in ops if not op["traced"]]
    walls = [op["wall_s"] for op in plain]
    tail_value, tail_pct, beyond = tail(walls)
    end_to_end = {
        "setup_s": statistics.median(setup_times),
        "time_to_verdict_s": statistics.median(walls),
        "time_to_verdict_s_tail": tail_value,
        "cpu_s": statistics.median(op["cpu_s"] for op in plain),
        "peak_rss_mb": peak_rss_mb,
    }
    counts = {"setup_s": len(setup_times), "time_to_verdict_s": len(walls),
              "time_to_verdict_s_tail": len(walls), "cpu_s": len(plain), "peak_rss_mb": 1}
    shas = sorted({op["report_sha256"] for op in ops if op["report_sha256"]})
    env["tail_percentile"] = tail_pct
    env["trace"] = int(trace)

    print("env " + json.dumps(env, sort_keys=True))
    print(f"workload {name}: {attempted} operations, closed loop, one client, "
          f"{workload.threads} thread(s); expected verdict {workload.verdict}")
    for metric, value in end_to_end.items():
        note = ""
        if metric == "time_to_verdict_s_tail":
            note = f", p{tail_pct:.4g} with {beyond} samples beyond"
        print(f"  {metric} = {value:.6g} {END_TO_END_UNITS[metric]} (n={counts[metric]}{note})")
    print(f"  fail_ratio = {failed / attempted:.6g} ratio (n={attempted}: {failed} failed)")
    for sha in shas:
        match = "matches" if sha == reference.get("report_sha256") else "differs from"
        print(f"  report.csv sha256 {sha} ({match} the seed commit)")

    layers, unstable = {}, []
    traced_ops = [op["layers"] for op in ops if op["layers"] is not None]
    if trace:
        if traced_ops:
            layers, unstable = summarise(traced_ops)
        traced_walls = [op["wall_s"] for op in ops if op["traced"]]
        layers["trace.overhead_s"] = (statistics.median(traced_walls)
                                      - end_to_end["time_to_verdict_s"])
        print(f"  traced operations: {len(traced_walls)}; tracing overhead = "
              f"{layers['trace.overhead_s']:.6g} s (traced minus untraced median)")
        for metric, value in layers.items():
            print(f"  {metric} = {value:.6g} {PER_LAYER_UNITS[metric]}")
        print("  solve.step_bytes_computed is computed from the factor sizes "
              "(12 bytes per entry plus column pointers), not measured")
        for metric in unstable:
            print(f"  FLAG exact count {metric} did not repeat across the traced operations")
        for metric, value in reference["exact_counts"].items():
            if metric in layers and layers[metric] != value:
                print(f"  FLAG exact count {metric} = {layers[metric]!r}, "
                      f"seed commit: {value!r}")
    if missing:
        print("  FLAG trace failed, wrappers missing: " + ", ".join(missing))

    OUT_ROOT.mkdir(exist_ok=True)
    record = {"env": env, "end_to_end": end_to_end, "samples": counts, "ops": ops,
              "setup_samples_s": setup_times, "layers": layers,
              "unstable_exact_counts": unstable, "missing_wrappers": missing}
    (OUT_ROOT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(record))

    if trace:
        metrics = {m: {"value": layers.get(m, 0), "unit": u} for m, u in PER_LAYER_UNITS.items()}
    else:
        metrics = {m: {"value": v, "unit": END_TO_END_UNITS[m]} for m, v in end_to_end.items()}
    correct = failed == 0 and not missing
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own process, so peak RSS is per workload."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"workload {name} exited with code {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] = summary["correct"] and result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        summary["workloads"][name] = result
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        workloads.use_checkout_source(ROOT)
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
