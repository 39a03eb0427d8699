"""Repeat the benchmark over seeds and summarise the spread of each metric.

    python3 bench/repeat.py --workloads train-desk,eval-paper --seeds 1-10
    python3 bench/repeat.py --seeds 1-10 --traced-seed 1 --out bench/baseline.json

Runs ``bench/run.py`` once per workload and seed, one process at a time, and
prints per end-to-end metric the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them and the spread
``(q3 - q1) / median`` next to the metric's bound in BENCHMARK.json.
``--traced-seed`` adds one traced run per workload; ``--out`` writes every
value and summary as JSON.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stdout}")
    return {"result": json.loads(lines[-1]), "env": json.loads(lines[-2])["env"]}


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--traced-seed", type=int, default=None)
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = {seed: run_once(workload, seed, args.seconds, 0) for seed in seed_range(args.seeds)}
        entry = {"seeds": list(runs), "env": next(iter(runs.values()))["env"], "metrics": {}}
        print(f"{workload}: {len(runs)} runs")
        for name, bound in bounds.items():
            values = [run["result"]["metrics"][name]["value"] for run in runs.values()]
            summary = summarise(values)
            entry["metrics"][name] = {"values": values, **summary, "bound": bound}
            print(f"  {name:<14} median {summary['median']:12.5g}  q1 {summary['q1']:12.5g}  "
                  f"q3 {summary['q3']:12.5g}  spread {summary['spread']:7.4f}  bound {bound}")
        if args.traced_seed is not None:
            traced = run_once(workload, args.traced_seed, args.seconds, 1)["result"]
            entry["traced"] = {"seed": args.traced_seed, "metrics": {
                name: metric["value"] for name, metric in traced["metrics"].items()}}
        report["workloads"][workload] = entry
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
