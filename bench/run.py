"""pillarmatch benchmark: run one workload for a fixed time and report.

    python3 bench/run.py --workload train-desk --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0

Prints each metric with its unit and sample count, an ``{"env": ...}``
line, and as the last line one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``. ``--workload all``
runs every workload in its own process and ends with one line mapping each
workload to its result.

Exit codes: 0 every output check passed, 1 a check failed, 2 the program
under test (``src/pillarmatch`` next to this directory) is missing.
``--write-reference`` recomputes the stored outputs in ``reference.json``.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("train-desk", "eval-paper", "preprocess-seq")
# BLAS runs single-threaded in every run: the matrices are small, and a fixed
# count keeps runs comparable on a shared machine
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full",
                        help="smoke: tiny inputs that only check the metrics are emitted")
    parser.add_argument("--write-reference", action="store_true")
    args = parser.parse_args(argv)
    if not args.write_reference and args.workload is None:
        parser.error("--workload is required")
    return args


def run_all(args) -> int:
    results, code = {}, 0
    for name in WORKLOAD_NAMES:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace), "--size", args.size],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        results[name] = json.loads(lines[-1]) if lines else None
        code = max(code, child.returncode)
    print(json.dumps(results))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "pillarmatch" / "__init__.py").is_file():
        print(f"error: no pillarmatch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.environ.update(BLAS_ENV)
    os.environ.pop("PILLARMATCH_RUN_ROOT", None)
    sys.path.insert(0, str(ROOT / "src"))
    import harness  # imports numpy, so only after the BLAS thread count is set

    if args.write_reference:
        path = harness.REFERENCE_PATH
        lines = [f" {json.dumps(name)}: {json.dumps(outputs, sort_keys=True)}"
                 for name, outputs in sorted(harness.reference_outputs().items())]
        path.write_text("{\n" + ",\n".join(lines) + "\n}\n")
        print(f"wrote {path}")
        return 0

    smoke = args.size == "smoke"
    result, report = harness.run(args.workload, args.seed, args.seconds, bool(args.trace), smoke)
    print(f"{args.workload}  seed={args.seed}  seconds={args.seconds}  trace={args.trace}")
    for key, (value, unit, note) in report["metrics"].items():
        print(f"  {key:<44} {value:>14.6g} {unit:<6} {note}")
    for problem in report["problems"]:
        print(f"  CHECK FAILED: {problem}")
    print(json.dumps({"env": harness.environment(args.workload, args.seed, args.seconds,
                                                 bool(args.trace), smoke)}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
