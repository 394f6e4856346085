#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report each metric's spread.

    python3 bench/steadiness.py --seeds 1-10 [--log FILE]

Runs bench/run.py untraced once per workload of BENCHMARK.json and seed, one
after another, with the run length from BENCHMARK.json, and prints for every metric the median, the
quartiles from statistics.quantiles(values, n=4) and the spread
(Q3 - Q1) / median next to the metric's bound. Every result line is also
appended to the log file, one JSON object per run.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_list(text: str) -> list:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarize(rows: list, bounds: dict) -> None:
    for name in rows[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in rows]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        note = f"  bound {bound}" if bound is not None else ""
        print(f"  {name:30s} median {med:12.6g}  Q1 {q1:12.6g}  Q3 {q3:12.6g}  spread {spread:7.4f}{note}")
    shares = {(r["failed"], r["attempted"]) for r in rows}
    fractions = {f / a for f, a in shares}
    print(f"  failed share: {sorted(fractions)}  correct: {all(r['correct'] for r in rows)}")


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--log", default=None)
    args = ap.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in (w["name"] for w in spec["workloads"]):
        rows = []
        for seed in seed_list(args.seeds):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            row = json.loads(proc.stdout.strip().splitlines()[-1])
            rows.append(row)
            if args.log:
                with open(args.log, "a") as fh:
                    fh.write(json.dumps({"workload": workload, "seed": seed, **row}) + "\n")
        print(f"{workload}: {len(rows)} runs, seeds {args.seeds}")
        summarize(rows, bounds)
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
