"""Run the benchmark over ten seeds and report the spread of each end-to-end metric.

    python3 bench/repeat.py [--workload NAME ...] [--out FILE.json]

For every workload (default: all in BENCHMARK.json) it runs bench/run.py once
for each seed from FIRST_SEED to FIRST_SEED + RUNS - 1, with BENCHMARK.json's
run_seconds, then prints each metric's median, quartiles (statistics.quantiles,
n=4) and spread = (q3 - q1) / median next to the metric's bound.  Spreads above a third of the bound are flagged.  --out
writes the same figures as JSON, which is how bench/baseline.json is made.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
RUNS = 10
FIRST_SEED = 101


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = [sys.executable, os.path.join(BENCH, "run.py"), "--workload", workload, "--seed", str(seed)]
    cmd += ["--seconds", str(spec["run_seconds"]), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {}
        for seed in range(FIRST_SEED, FIRST_SEED + RUNS):
            result = run_once(spec, workload, seed)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        report[workload] = {}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med if med else 0.0
            report[workload][name] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vals}
            flag = " <-- above bound/3" if spread > bounds[name] / 3 else ""
            print(f"{workload:14s} {name:14s} median {med:12.6g}  spread {spread:7.4f} (bound {bounds[name]}){flag}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"runs": RUNS, "first_seed": FIRST_SEED, "workloads": report}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
