"""Child process of the benchmark: one set-up probe or one workload run.

    python3 perfbench/worker.py setup --workload W --dir D --seed N
    python3 perfbench/worker.py run --workload W --dir D --seed N --seconds S --trace 0|1

Both print one JSON object on the last line of standard output.  ``setup``
times, from the first line of this process, importing condenser_widths,
loading the workload's inputs and validating each condenser once.  ``run``
repeats whole passes over the workload's operations while another pass fits
in the time budget, and checks every output; with ``--trace 1`` one more
pass runs with the tracer installed.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer, layer_metrics, top_self_times  # noqa: E402


def run_pass(ops, tracer=None):
    """One pass over the operations.  Returns (wall seconds of the timed calls,
    number of failed operations, check items, failure messages)."""
    wall, cpu, failed, items, errors = 0.0, 0.0, 0, [], []
    for op in ops:
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            raw = op.run()
        except Exception as exc:  # a failing operation is counted, not fatal
            raw = exc
        wall += time.perf_counter() - t0
        cpu += time.process_time() - c0
        if tracer is not None:
            tracer.harvest_scorers()
            if op.out_dir is not None and op.out_dir.is_dir():
                tracer.counts["cli.result_bytes"] += sum(
                    f.stat().st_size for f in op.out_dir.iterdir())
        try:
            if isinstance(raw, Exception):
                raise raw
            results = op.check(raw)
        except Exception:
            failed += 1
            errors.append(f"{op.name}: {traceback.format_exc(limit=2)}")
            continue
        items += [(f"{op.name}.{n}", ok, v) for n, ok, v in results]
        bad = [n for n, ok, _ in results if not ok]
        if bad:
            failed += 1
            errors.append(f"{op.name}: failed checks {bad}")
    return wall, cpu, failed, items, errors


def blas_threads():
    """Thread count reported by the OpenBLAS bundled with numpy, if found."""
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libdir.glob("*openblas*")):
        dll = ctypes.CDLL(str(lib))
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            if hasattr(dll, sym):
                return int(getattr(dll, sym)())
    return None


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("role", choices=("setup", "run"))
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--dir", required=True, type=Path)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    state = workloads.load(args.workload, args.dir, args.seed)
    if args.role == "setup":
        print(json.dumps({"setup_s": time.perf_counter() - T0}))
        return 0

    ops = workloads.operations(args.workload, args.dir, args.seed, state)
    walls, cpus, failed, checks, errors, checks_failed = [], [], 0, {}, [], set()
    start = time.perf_counter()
    while True:
        t_pass = time.perf_counter()
        wall, cpu, f, items, errs = run_pass(ops)
        walls.append(wall)
        cpus.append(cpu)
        failed += f
        errors += errs
        checks.update({n: v for n, _, v in items})
        checks_failed.update(n for n, ok, _ in items if not ok)
        if len(walls) == 1:
            # later passes reuse the first pass's memory; how many passes fit
            # depends on the machine's speed, so the peak is taken here
            peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        per_pass = time.perf_counter() - t_pass
        if time.perf_counter() - start + per_pass > args.seconds:
            break
    passes = len(walls)
    out = {"passes": passes, "attempted": passes * len(ops), "failed": failed,
           "pass_wall_s": walls, "pass_cpu_s": cpus, "wall_s": statistics.median(walls),
           "peak_rss_mib": peak_rss, "checks": checks,
           "meta": {"python": platform.python_version(), "numpy": np.__version__,
                    "blas_threads": blas_threads()}}

    if args.trace:
        tracer = Tracer()
        tracer.install()
        try:
            # set up and build the operations again, so that both run traced
            state = workloads.load(args.workload, args.dir, args.seed)
            ops = workloads.operations(args.workload, args.dir, args.seed, state)
            wall, _, f, items, errs = run_pass(ops, tracer)
        finally:
            tracer.uninstall()
        out["attempted"] += len(ops)
        out["failed"] += f
        errors += errs
        checks_failed.update(n for n, ok, _ in items if not ok)
        stats, tree = tracer.summary()
        layers = layer_metrics(stats, tracer.counts)
        layers["trace.overhead_s"] = wall - out["wall_s"]
        layers["trace.overhead_pct"] = 100.0 * (wall - out["wall_s"]) / out["wall_s"]
        out["layers"] = layers
        out["traced_wall_s"] = wall
        out["top_self_s"] = top_self_times(stats)
        out["span_tree"] = tree

    out["correct"] = not checks_failed
    out["errors"] = errors
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
