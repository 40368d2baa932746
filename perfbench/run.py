"""Benchmark of the condenser_widths library and CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from
``src/``.  Workloads: sweep-offset, equilibrium-fine, chi, balayage (see
README.md in this directory).  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``: with
``--trace 0`` the end-to-end metrics (setup_s, wall_s, peak_rss_mib), with
``--trace 1`` the per-layer metrics of a traced pass and the tracing
overhead.  The line before it holds the run metadata.  A record of the run
goes to ``.perfbench_work/records/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"
SETUP_PROBES = 7
DEADLINE_S = 170.0  # a run ends, killed if need be, within this many seconds

# single-threaded BLAS and OpenMP for this process and every child
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1"}


def _child(args, timeout):
    """Run a worker process; returns its last stdout line parsed as JSON."""
    cmd = [sys.executable, str(HERE / "worker.py")] + args
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, timeout))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def main() -> int:
    t_start = time.perf_counter()
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "condenser_widths" / "__init__.py").is_file():
        print(f"no condenser_widths sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_ENV)
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    from spans import PER_LAYER

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}",
              file=sys.stderr)
        return 2

    workdir = WORK / f"run-{args.workload}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    common = ["--workload", args.workload, "--dir", str(workdir), "--seed", str(args.seed)]
    try:
        workloads.make_inputs(args.workload, args.seed, workdir)
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                left = DEADLINE_S - (time.perf_counter() - t_start)
                setups.append(_child(["setup"] + common, left)["setup_s"])
        left = DEADLINE_S - (time.perf_counter() - t_start)
        res = _child(["run"] + common + ["--seconds", str(args.seconds),
                                         "--trace", str(args.trace)], left)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = {name: {"value": res["layers"][name], "unit": unit}
                   for name, unit, _, _ in PER_LAYER}
    else:
        metrics = {"setup_s": {"value": statistics.median(setups), "unit": "s"},
                   "wall_s": {"value": res["wall_s"], "unit": "s"},
                   "peak_rss_mib": {"value": res["peak_rss_mib"], "unit": "MiB"}}

    meta = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)), "cpu_model": _cpu_model(),
            **res["meta"], "passes": res["passes"], "attempted": res["attempted"],
            "failed": res["failed"], "setup_samples_s": setups}
    record = {"meta": meta, "metrics": metrics, "result": res}
    (WORK / "records").mkdir(parents=True, exist_ok=True)
    (WORK / "records" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))
    for err in res["errors"]:
        print(err, file=sys.stderr)
    print(json.dumps({"meta": meta, "checks": res["checks"]}))
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
