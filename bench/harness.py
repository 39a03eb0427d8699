"""Runs one workload: set-up, timed phase, output checks, metrics.

The timed phase is a closed loop: the next unit of work starts when the
previous one returns, and no unit starts that would end after ``seconds``,
except the first. With tracing, units alternate between untraced and traced,
so one run gives the per-layer self times and the tracing overhead.
"""
from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import traceback
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from spans import Tracer
from workloads import MATCHERS, REFERENCE_SEED, WORKLOADS, Op

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_PATH = BENCH_DIR / "reference.json"
# tolerance of the reference check on floating-point outputs; float32
# training and LAPACK kernels may round differently on another CPU
REFERENCE_RTOL = 1e-4
REFERENCE_ATOL = 1e-6
# set-up is repeated and its median reported: the machine's speed drifts on a
# scale of seconds, and one repetition of the shortest set-up takes 0.3 s.
# Only the first repetition runs before the timed phase, so the timed phase
# sees the process of a program that set up once.
SETUP_REPEATS = 5

# spans reported as self time per operation, in milliseconds
SPAN_METRICS = (
    "autodiff.backward",
    "network.feature_stacks", "network.encode_pillars", "network.encode_positions",
    "network.self_attention", "network.cross_attention", "network.final_projection",
    "transport.score_matrix", "transport.augment_dustbin", "transport.sinkhorn",
    "transport.extract_matches",
    "pipeline.match_pair",
    "learn.train", "learn.forward", "learn.loss", "learn.adam_step", "learn.step_bookkeeping",
    "register.evaluate_matchers", "register.nn_matcher", "register.icp",
    "register.estimate_transform_svd",
    "cloud.load_kitti_scan", "cloud.smoothness_field", "cloud.select_keypoints",
    "cloud.sample_pillars", "cloud.label_correspondences",
    "pairio.write_pair", "pairio.read_pair",
    "cli.main",
)
# spans also reported for the set-up phase, per pair prepared
SETUP_SPAN_METRICS = (
    "cloud.smoothness_field", "cloud.select_keypoints", "cloud.sample_pillars",
    "cloud.label_correspondences", "pairio.write_pair", "pairio.read_pair",
)
# printed but left out of the result line: it is 0 on every correct run, and
# the line's "attempted" and "failed" counts carry it
TABLE_ONLY = ("failed_ops_frac",)


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

def tail_latency(values_ms: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten samples beyond it.

    With ten samples or fewer no percentile has ten beyond it; the maximum is
    reported as the 100th percentile.
    """
    ordered = sorted(values_ms)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(ops: list[Op], phase_s: float, setup_s: list[float], rss_mb: float) -> dict:
    """name -> (value, unit, sample note) for the untraced run."""
    latencies = [op.latency_s * 1000.0 for op in ops]
    tail, percentile = tail_latency(latencies)
    n = len(ops)
    failed = sum(op.problem is not None for op in ops)
    return {
        "pairs_per_s": (sum(op.pairs for op in ops) / phase_s, "1/s",
                        f"n={n} ops in {phase_s:.2f} s"),
        "op_p50_ms": (statistics.median(latencies), "ms", f"n={n}"),
        "op_tail_ms": (tail, "ms", f"p{percentile:.1f}, n={n}"),
        "setup_s": (statistics.median(setup_s), "s", f"median of n={len(setup_s)} set-ups"),
        "peak_rss_mb": (rss_mb, "MB", "n=1, whole process through the timed phase"),
        "failed_ops_frac": (failed / n, "ratio", f"{failed} of n={n}"),
    }


def span_metrics(tracer: Tracer, names, per: int, prefix: str = "") -> dict:
    per = max(per, 1)
    out = {f"{prefix}{name}_ms": (tracer.self_s[name] * 1000.0 / per, "ms", f"per={per}")
           for name in names}
    selections = tracer.counts["cloud.keypoint_selections"]
    distinct = tracer.counts["cloud.distinct_frames"]
    out[f"{prefix}cloud.keypoint_selections_per_frame"] = (
        selections / distinct if distinct else 0.0, "ratio",
        f"{selections:.0f} selections / {distinct:.0f} frames")
    out[f"{prefix}container.bytes_written"] = (
        tracer.counts["container.bytes_written"] / per, "B", f"per={per}")
    return out


def _rate(ops: list[Op]) -> float:
    return sum(op.pairs for op in ops) / sum(op.latency_s for op in ops)


def per_layer(tracer: Tracer, setup_tracer: Tracer, setup_pairs: int,
              untraced: list[Op], traced: list[Op]) -> dict:
    """name -> (value, unit, note) from the traced units of a run."""
    n_ops = len(traced)
    n_pairs = max(sum(op.pairs for op in traced), 1)
    out = span_metrics(tracer, SPAN_METRICS, n_ops)
    counts = tracer.counts
    out["autodiff.tape_nodes_per_pair"] = (
        counts["autodiff.tape_nodes"] / n_pairs, "count", f"pairs={n_pairs}")
    out["autodiff.gc_pause_ms"] = (tracer.gc_pause_s * 1000.0 / n_ops, "ms", f"per={n_ops}")
    out["autodiff.gc_collections"] = (tracer.gc_collections / n_ops, "count", f"per={n_ops}")
    out["transport.sinkhorn_marginal_dev"] = (tracer.marginal_dev, "ratio", "max")
    masses = tracer.dustbin_masses
    out["transport.dustbin_mass"] = (float(np.mean(masses)) if masses else 0.0, "ratio",
                                     f"mean of {len(masses)}")
    for matcher in MATCHERS:
        key = f"register.frames_failed.{matcher}"
        out[key] = (counts[key] / n_ops, "count", f"per={n_ops}")
    out.update(span_metrics(setup_tracer, SETUP_SPAN_METRICS, setup_pairs, prefix="setup."))

    plain = statistics.median(op.latency_s for op in untraced) * 1000.0
    with_trace = statistics.median(op.latency_s for op in traced) * 1000.0
    out["trace.overhead.op_p50_ms"] = (with_trace - plain, "ms",
                                       f"traced n={n_ops}, untraced n={len(untraced)}")
    out["trace.overhead_frac"] = (with_trace / plain - 1.0, "ratio", "traced/untraced p50 - 1")
    out["trace.overhead.pairs_per_s"] = (_rate(untraced) - _rate(traced), "1/s",
                                         "untraced minus traced")
    return out


# ---------------------------------------------------------------------------
# checks and environment
# ---------------------------------------------------------------------------

def compare(expected, actual, where: str = "") -> list[str]:
    """Differences between stored and computed reference outputs."""
    if isinstance(expected, dict) and isinstance(actual, dict):
        if expected.keys() != actual.keys():
            return [f"{where}: keys {sorted(actual)} != {sorted(expected)}"]
        return [p for k in expected for p in compare(expected[k], actual[k], f"{where}.{k}")]
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [f"{where}: length {len(actual)} != {len(expected)}"]
        return [p for i, (e, a) in enumerate(zip(expected, actual))
                for p in compare(e, a, f"{where}[{i}]")]
    if isinstance(expected, float) and isinstance(actual, float):
        if math.isclose(actual, expected, rel_tol=REFERENCE_RTOL, abs_tol=REFERENCE_ATOL):
            return []
    elif expected == actual and type(expected) is type(actual):
        return []
    return [f"{where}: {actual!r} != stored {expected!r}"]


def git_sha(root: Path) -> str:
    """Commit of a git checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(name: str, seed: int, seconds: int, trace: bool, smoke: bool) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "size": "smoke" if smoke else "full",
        "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "git_sha": git_sha(ROOT),
    }


# ---------------------------------------------------------------------------
# the run
# ---------------------------------------------------------------------------

def _run_unit(workload, index: int) -> list[Op]:
    start = perf_counter()
    try:
        return workload.unit(index)
    except Exception:
        # a raising unit fails its operations and the run goes on
        traceback.print_exc()
        share = (perf_counter() - start) / workload.ops_per_unit
        return [Op(share, 0, "raised") for _ in range(workload.ops_per_unit)]


def run(name: str, seed: int, seconds: int, trace: bool, smoke: bool) -> tuple[dict, dict]:
    """Run one workload; returns (result line, printable metrics)."""
    workload = WORKLOADS[name](seed, smoke)
    work = ROOT / ".bench_work" / f"{name}-{os.getpid()}"
    setup_tracer = Tracer()
    setup_s, setup_pairs = [], 0

    def set_up(rep: int) -> None:
        nonlocal setup_pairs
        directory = work / f"setup-{rep}"
        directory.mkdir(parents=True)
        gc.collect()
        with setup_tracer.active() if trace else nullcontext():
            start = perf_counter()
            setup_pairs += workload.setup(directory)
            setup_s.append(perf_counter() - start)

    try:
        set_up(0)
        workload.warm_up()
        gc.collect()

        tracer = Tracer()
        untraced, traced = [], []
        units = 0
        phase_start = perf_counter()
        while True:
            is_traced = trace and units % 2 == 1
            unit_start = perf_counter()
            # traced and untraced units see the same sequence of inputs
            index = units // 2 if trace else units
            with tracer.active() if is_traced else nullcontext():
                ops = _run_unit(workload, index)
            unit_s = perf_counter() - unit_start
            (traced if is_traced else untraced).extend(ops)
            if is_traced:
                for op in ops:
                    for key, value in op.counts.items():
                        tracer.counts[key] += value
            units += 1
            elapsed = perf_counter() - phase_start
            if units >= (2 if trace else 1) and elapsed + unit_s > seconds:
                break
        phase_s = perf_counter() - phase_start
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        problems = workload.check_run()
        for rep in range(1, SETUP_REPEATS):
            shutil.rmtree(work / f"setup-{rep - 1}")
            set_up(rep)
        stored = json.loads(REFERENCE_PATH.read_text()).get(name)
        actual = workload.reference_outputs(work / "reference")
        problems += compare(stored, actual, f"reference[{name}]")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    ops = untraced + traced
    failed = [op for op in ops if op.problem is not None]
    problems += [f"op failed: {op.problem}" for op in failed[:5]]
    if trace:
        metrics = per_layer(tracer, setup_tracer, setup_pairs, untraced, traced)
    else:
        metrics = end_to_end(untraced, phase_s, setup_s, rss_mb)
    result = {
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {key: {"value": value, "unit": unit}
                    for key, (value, unit, _) in metrics.items() if key not in TABLE_ONLY},
    }
    return result, {"metrics": metrics, "problems": problems}


def reference_outputs() -> dict:
    """Outputs of every workload's reference check, for ``reference.json``."""
    out = {}
    for name, cls in WORKLOADS.items():
        work = ROOT / ".bench_work" / f"reference-{name}-{os.getpid()}"
        try:
            out[name] = cls(REFERENCE_SEED, False).reference_outputs(work)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    return out
