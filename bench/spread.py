"""Run-to-run spread of the end-to-end metrics, as the bounds are judged.

    python3 bench/spread.py --workloads extract fibre --seeds 1 2 3 4 5

Runs bench/run.py once per (workload, seed) with the ``run_seconds`` of
BENCHMARK.json and prints, for every end-to-end metric, the median, the
quartiles and the spread (Q3 - Q1) / median next to the metric's bound.
``--out FILE`` also writes every value and summary as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {}
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in args.seeds:
            cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]),
                                     "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  check=True)
            result = json.loads(proc.stdout.splitlines()[-1])
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: {result}")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
        summary = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            summary[name] = {"median": statistics.median(vals), "q1": q1,
                             "q3": q3, "spread": (q3 - q1) / statistics.median(vals),
                             "bound": bounds[name], "values": vals}
            print(f"{workload:8s} {name:12s} median {statistics.median(vals):10.4f}"
                  f"  q1 {q1:10.4f}  q3 {q3:10.4f}"
                  f"  spread {summary[name]['spread']:.3f}  bound {bounds[name]}")
        report[workload] = summary
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
