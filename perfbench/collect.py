"""Run the benchmark over several seeds and summarise each metric's spread.

    python3 perfbench/collect.py --out perfbench/baseline/BENCH_0.json

Reads ``BENCHMARK.json`` at the checkout root for the command, the run
length, the workloads and the metrics. For every workload it makes one run
per seed, seeds 0 to 9, with tracing off, then one traced run on seed 0. For each
end-to-end metric it prints the median, the quartiles and the spread, the
distance between the quartiles as a share of the median, next to a third of
the metric's bound, the most the spread should be for the benchmark to be
called steady; it exits non-zero if any spread is above that or a run
failed a check. ``--out`` writes every run's result with the machine record.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = list(range(10))


def run_once(spec: dict, workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = list(spec["command"]) + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    machine = next((json.loads(line.split(":", 1)[1]) for line in lines
                    if line.startswith("machine: ")), {})
    return json.loads(lines[-1]), machine


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else float("inf")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    doc: dict = {"benchmark": spec, "seeds": SEEDS, "workloads": {}}
    steady = True
    for name in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            result, machine = run_once(spec, name, seed, 0)
            doc["machine"] = machine
            runs.append({"seed": seed, **result})
            print(f"{name} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()),
                  flush=True)
        summary = {}
        for metric, bound in bounds.items():
            stats = spread([r["metrics"][metric]["value"] for r in runs])
            stats["bound"] = bound
            summary[metric] = stats
            ok = stats["spread"] < bound / 3
            steady &= ok
            print(f"  {name} {metric}: median {stats['median']:.5g} "
                  f"q1 {stats['q1']:.5g} q3 {stats['q3']:.5g} "
                  f"spread {stats['spread']:.4f} (bound/3 {bound / 3:.4f})"
                  f"{'' if ok else '  NOT STEADY'}", flush=True)
        trace, _ = run_once(spec, name, SEEDS[0], 1)
        doc["workloads"][name] = {"runs": runs, "summary": summary, "trace": trace}
        steady &= all(r["correct"] and r["failed"] == 0 for r in runs)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    print("steady" if steady else "NOT steady")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
