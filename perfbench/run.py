"""Benchmark for gridsentry's grid, train and detect paths.

    python3 perfbench/run.py --workload grid --seed 0 --seconds 35 --trace 0

Run from the root of a source checkout: the package is imported from
``src/``. The inputs are generated from ``--seed``. Rounds (one
``train_pipeline`` plus the workload's path) repeat for ``--seconds`` and at
least twice. The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
lines before it repeat the figures for people, with the machine record.
Scratch files go under ``.perfbench_work/`` in the checkout and are removed
at exit.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 9
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# What one set-up sample does: start an interpreter, import the package's
# user-facing modules and warm BLAS and LAPACK up on a 200-node problem.
SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
import numpy as np
from gridsentry import experiments, pipeline
a = np.random.default_rng(0).random((200, 200))
a = a + a.T
np.linalg.svd(a)
np.linalg.eigh(a)
a @ a
"""


def cap_blas_threads() -> int:
    """Limit BLAS threads to the cores this process may use; return that count."""
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


def measure_setup(samples: int) -> list[float]:
    times = []
    for _ in range(samples):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)], check=True,
                       stdout=subprocess.DEVNULL)
        times.append(time.perf_counter() - t0)
    return times


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "gridsentry" / "__init__.py").is_file():
        print(f"perfbench: no gridsentry package under {SRC}", file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    sys.path.insert(0, str(SRC))

    import machine
    import workloads

    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    setup = [] if args.trace else measure_setup(SETUP_SAMPLES)
    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload.name}-{args.seed}-", dir=WORK))
    try:
        runner = workloads.Runner(workload, args.seed, work)
        if args.trace:
            import layers
            outcome, report = layers.run_traced(runner, args.seconds)
        else:
            outcome, report = runner.run(args.seconds), None
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    print("machine: " + json.dumps(machine.record(nproc), sort_keys=True))
    for note in outcome.notes:
        print(f"check failed: {note}")
    summary = {
        "setup_s": (statistics.median(setup) if setup else None, "s"),
        "train_s": (outcome.fastest("train_s", traced=False), "s"),
        "run_s": (outcome.fastest("run_s", traced=False), "s"),
        "precision": (outcome.precision, "ratio"),
        "recall": (outcome.recall, "ratio"),
        "f1": (outcome.f1, "ratio"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    print(f"workload {workload.name}: {len(outcome.rounds)} rounds, seed {args.seed}")
    for k, rnd in enumerate(outcome.rounds):
        print(f"  round {k}{' traced' if rnd.traced else ''}: train_s {rnd.train_s:.4f},"
              f" run_s {rnd.run_s:.4f}")
    for line in workload_lines(workload, outcome, summary):
        print("  " + line)
    if report is None:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in summary.items()}
    else:
        metrics = report.metrics
        for name, entry in metrics.items():
            print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
        for name in report.absent:
            print(f"  absent: {name}")
        print(f"  pipeline.detect.window_ms.p50 over {report.windows} traced window(s)")
    print(json.dumps({"correct": outcome.failed == 0, "attempted": outcome.attempted,
                      "failed": outcome.failed, "metrics": metrics}))
    return 0


def workload_lines(workload, outcome, summary) -> list[str]:
    """The end-to-end figures under the names the workload gives them."""
    named = {"setup_s": "setup_s", "train_s": "train_s", "peak_rss_mb": "peak_rss_mb"}
    if workload.detect is None:
        named.update(run_s="grid_s", f1="grid.gsl_f1", precision="grid.gsl_precision",
                     recall="grid.gsl_recall")
    else:
        named.update(run_s="detect_s", precision="detect.alert_precision",
                     recall="detect.alert_recall", f1="detect.alert_f1")
    lines = []
    for key, label in named.items():
        value, unit = summary[key]
        if value is not None:
            lines.append(f"{label} = {value:.6g} {unit}")
    if workload.detect is not None and summary["run_s"][0]:
        lines.append(f"detect.flows_per_s = {outcome.rows / summary['run_s'][0]:.6g} 1/s"
                     f" ({outcome.rows} flow rows in {outcome.windows} windows)")
    return lines


if __name__ == "__main__":
    sys.exit(main())
