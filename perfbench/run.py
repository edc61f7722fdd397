"""Benchmark of the plc toolkit: closed loop, one client, one process per workload.

Run from the repository root:

    python3 perfbench/run.py --workload ik --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics of BENCHMARK.json untraced.
``--trace 1`` spends half the time untraced and half with spans recorded
around the library's public functions, and reports the per-layer metrics of
BENCHMARK.json plus the tracing overhead (traced over untraced median op
time, minus one).  Each run prints a readable report with sample counts and
an environment record, then, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--workload all``
runs every workload in its own process, one after another.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from time import perf_counter

SETUP_REPS = 3
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read().strip()
    except OSError:
        return ""


def _git_commit(root: str) -> str:
    """Commit of a git checkout at ``root``, read without leaving it."""
    head = _read(os.path.join(root, ".git", "HEAD"))
    if not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    loose = _read(os.path.join(root, ".git", ref))
    if loose:
        return loose
    for line in _read(os.path.join(root, ".git", "packed-refs")).splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def _caches() -> dict[str, str]:
    out = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else []:
        level = _read(os.path.join(base, entry, "level"))
        kind = _read(os.path.join(base, entry, "type"))
        if level and kind != "Instruction":
            out[f"L{level}{'d' if kind == 'Data' else ''}"] = _read(os.path.join(base, entry, "size"))
    return out


def environment(root: str, threads: int) -> dict:
    import numpy
    import scipy

    model = platform.processor()
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "caches": _caches(),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") // 2**20,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(root),
        "blas_threads_cap": threads,
    }


CAL_EVERY = 0.02  # seconds between calibrations


def run_phase(wl, seconds: float, tracer, first_op: int):
    """Closed loop: the next op starts when the previous one has finished.

    Returns raw op times, op times at reference speed, ops attempted and ops
    failed.  When ``wl.cal_ref`` is set, each op time is scaled by it over the
    mean of the calibrations just before and just after the op; otherwise the
    two lists are the same.
    """
    raw, failed, i = [], 0, first_op
    cal, marks = [], []
    if wl.cal_ref:
        cal.append(wl.calibrate())
    last_cal = perf_counter()
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or i - first_op < wl.min_ops:
        if tracer is not None:
            tracer.op = i
        try:
            op_seconds, ok = wl.op(i, tracer)
            raw.append(op_seconds)
            marks.append(len(cal) - 1)
        except Exception:  # a failed op is counted and the run goes on
            traceback.print_exc()
            ok = False
        failed += not ok
        i += 1
        if wl.cal_ref and perf_counter() - last_cal >= CAL_EVERY:
            cal.append(wl.calibrate())
            last_cal = perf_counter()
    if not wl.cal_ref:
        return raw, raw, i - first_op, failed
    cal.append(wl.calibrate())
    norm = [d * 2.0 * wl.cal_ref / (cal[m] + cal[m + 1]) for d, m in zip(raw, marks)]
    return raw, norm, i - first_op, failed


def measure(wl, seconds: float):
    """Untraced run: set-up repeated SETUP_REPS times, then the timed loop.

    Returns metric values, their sample counts, report-only rows
    (name, value, unit, samples), and the ops and set-up checks attempted
    and failed.
    """
    import workloads

    # The import in a fresh interpreter is scaled by the import kernel run
    # right after it (the host's import speed drifts by tens of percent over
    # minutes); the in-process set-up stays a raw wall time.
    setups, raw_setups, setup_failed = [], [], 0
    for _ in range(SETUP_REPS):
        imports = workloads.import_seconds("import " + ", ".join(wl.imports))
        kernel = workloads.import_seconds(workloads.IMPORT_KERNEL)
        t0 = perf_counter()
        wl.prepare()
        prepare = perf_counter() - t0
        setups.append(imports * workloads.IMPORT_REF / kernel + prepare)
        raw_setups.append(imports + prepare)
        setup_failed += not wl.check_setup()
    raw, norm, attempted, failed = run_phase(wl, seconds, None, 0)
    attempted, failed = attempted + SETUP_REPS, failed + setup_failed
    values = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_p50_ms": statistics.median(norm) * 1e3,
        "ops_per_s": len(norm) / sum(norm),
    }
    samples = {"setup_s": len(setups), "op_p50_ms": len(norm), "ops_per_s": len(norm)}
    rows = [
        ("failed_frac", failed / attempted, "ratio", attempted),
        *wl.named_metrics(norm),
        ("setup_raw_s", statistics.median(raw_setups), "s", len(raw_setups)),
    ]
    if wl.cal_ref:
        rows.append(("op_p50_raw_ms", statistics.median(raw) * 1e3, "ms", len(raw)))
        rows.append(("speed_factor", statistics.median(raw) / statistics.median(norm), "ratio", len(raw)))
    return values, samples, rows, attempted, failed


def trace(wl, seconds: float, spans_path: str):
    """Traced run: traced set-up, an untraced half, then a traced half."""
    from tracing import Tracer

    tracer = Tracer()
    with tracer.installed():
        wl.prepare()
    setup_failed = not wl.check_setup()
    _, plain, attempted_a, failed_a = run_phase(wl, seconds / 2, None, 0)
    with tracer.installed():
        _, traced, attempted_b, failed_b = run_phase(wl, seconds / 2, tracer, attempted_a)
    tracer.dump(spans_path)
    values, samples = tracer.layer_metrics()
    values.update(wl.counters)
    values.update(wl.trace_extras())
    values["kinematics.chain_pose.calls_per_op"] = (
        tracer.calls_in_ops("kinematics.chain_pose") / attempted_b
    )
    values["trace.overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    samples["trace.overhead_frac"] = len(plain) + len(traced)
    rows = [
        ("untraced_op_p50_ms", statistics.median(plain) * 1e3, "ms", len(plain)),
        ("traced_op_p50_ms", statistics.median(traced) * 1e3, "ms", len(traced)),
        ("spans", len(tracer.spans), "count", 1),
    ]
    return values, samples, rows, 1 + attempted_a + attempted_b, setup_failed + failed_a + failed_b


def run_one(args, root: str, spec: dict) -> int:
    threads = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = str(threads)
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    out_dir = os.path.join(root, ".perfbench")
    os.makedirs(out_dir, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=out_dir)
    os.environ.update(
        PYTHONPATH=src, PLC_CACHE_DIR=os.path.join(tmp, "cache"), TMPDIR=tmp, TEMP=tmp, TMP=tmp
    )
    try:
        import workloads

        wl = workloads.WORKLOADS[args.workload](args.seed, tmp)
        if args.trace:
            spans_path = os.path.join(out_dir, f"spans-{args.workload}.jsonl")
            values, samples, rows, attempted, failed = trace(wl, args.seconds, spans_path)
            wanted = spec["per_layer"]
        else:
            values, samples, rows, attempted, failed = measure(wl, args.seconds)
            wanted = spec["end_to_end"]
        env = environment(root, threads)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    metrics = {}
    for m in wanted:
        # per-layer metrics of a layer this workload never calls read 0
        metrics[m["name"]] = {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
        if m["name"] in values:
            rows.append((m["name"], values[m["name"]], m["unit"], samples.get(m["name"], 1)))
    idle = [m["name"] for m in wanted if m["name"] not in values]

    print(f"# workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    print(f"# {'metric':<40} {'value':>16} {'unit':<8} samples")
    for name, value, unit, n in rows:
        print(f"  {name:<40} {value:>16.6g} {unit:<8} {n}")
    if idle:
        print("# layers not called on this workload (reported as 0): " + ", ".join(idle))
    print("# env " + json.dumps(env, sort_keys=True))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def run_all(args, spec: dict) -> int:
    worst = 0
    for w in spec["workloads"]:
        cmd = [
            sys.executable, os.path.abspath(__file__), "--workload", w["name"],
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        sys.stdout.flush()
        worst = max(worst, subprocess.run(cmd, timeout=900).returncode)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "plc", "__init__.py")):
        print("perfbench: src/plc not found; run from the repository root", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        spec = json.load(fh)
    if args.workload == "all":
        return run_all(args, spec)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        parser.error(f"unknown workload {args.workload!r}")
    return run_one(args, root, spec)


if __name__ == "__main__":
    sys.exit(main())
