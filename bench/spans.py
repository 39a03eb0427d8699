"""Span recorder that times calls into pillarmatch from outside the package.

Tracing works by replacing the module attributes that callers look up (for
example ``pairio.select_keypoints`` or ``transport.sinkhorn``) with wrappers
for the duration of one traced operation, then putting the originals back.
Nothing under ``src/pillarmatch`` is changed.

Each wrapped call is a span. A span's self time is its duration minus the
durations of the spans it caused and minus garbage-collector pauses that ran
inside it; pauses are reported on their own as ``autodiff.gc_*``.
"""
from __future__ import annotations

import gc
import os
import weakref
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from pillarmatch import autodiff, cli, cloud, learn, network, pairio, pipeline, register, transport


class Tracer:
    """Aggregated self times, call counts and gauges for one phase."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.counts = defaultdict(float)
        self.marginal_dev = 0.0
        self.dustbin_masses = []
        self.gc_pause_s = 0.0
        self.gc_collections = 0
        self._stack = []          # one [child seconds] cell per open span
        self._frames = weakref.WeakValueDictionary()
        self._gc_start = None

    # -- recording -----------------------------------------------------------
    def _span(self, name, fn):
        stack = self._stack

        def wrapper(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                self.self_s[name] += duration - cell[0]
                if stack:
                    stack[-1][0] += duration

        return wrapper

    def _exclude(self, seconds: float) -> None:
        """Keep tracer bookkeeping out of the enclosing span's self time."""
        if self._stack:
            self._stack[-1][0] += seconds

    def _gc_callback(self, phase, info):
        if phase == "start":
            self._gc_start = perf_counter()
        elif self._gc_start is not None:
            pause = perf_counter() - self._gc_start
            self._gc_start = None
            self.gc_pause_s += pause
            self.gc_collections += 1
            self._exclude(pause)

    def _wrappers(self):
        """(owner, attribute, replacement) for every traced boundary."""
        span = self._span
        counts = self.counts

        def node_counter(fn):
            def wrapper(*args, **kwargs):
                counts["autodiff.tape_nodes"] += 1
                return fn(*args, **kwargs)
            return wrapper

        def gnn_layer(fn):
            self_layer = span("network.self_attention", fn)
            cross_layer = span("network.cross_attention", fn)

            def wrapper(nodes_a, nodes_b, layer, layer_index, hyper):
                chosen = cross_layer if layer_index % 2 else self_layer
                return chosen(nodes_a, nodes_b, layer, layer_index, hyper)
            return wrapper

        def sinkhorn(fn):
            timed = span("transport.sinkhorn", fn)

            def wrapper(*args, **kwargs):
                result = timed(*args, **kwargs)
                start = perf_counter()
                # gauges read the result; the default uniform marginals give
                # every row and column of the augmented matrix mass 1
                log_p = result.log_p.data
                self.marginal_dev = max(self.marginal_dev,
                                        transport.marginal_deviation(log_p))
                probs = np.exp(log_p)
                n, m = probs.shape[0] - 1, probs.shape[1] - 1
                self.dustbin_masses.append(
                    (probs[:n, m].sum() + probs[n, :m].sum()) / (n + m))
                self._exclude(perf_counter() - start)
                return result
            return wrapper

        def select_keypoints(fn):
            timed = span("cloud.select_keypoints", fn)

            def wrapper(frame, *args, **kwargs):
                counts["cloud.keypoint_selections"] += 1
                if self._frames.get(id(frame)) is not frame:
                    self._frames[id(frame)] = frame
                    counts["cloud.distinct_frames"] += 1
                return timed(frame, *args, **kwargs)
            return wrapper

        def write_container(fn):
            def wrapper(path, *args, **kwargs):
                fn(path, *args, **kwargs)
                counts["container.bytes_written"] += os.path.getsize(path)
            return wrapper

        step_bookkeeping = "learn.step_bookkeeping"
        return [
            (autodiff, "_node", node_counter(autodiff._node)),
            (autodiff.Tensor, "backward", span("autodiff.backward", autodiff.Tensor.backward)),
            (pairio, "feature_stacks", span("network.feature_stacks", pairio.feature_stacks)),
            (network, "encode_pillars", span("network.encode_pillars", network.encode_pillars)),
            (network, "encode_positions",
             span("network.encode_positions", network.encode_positions)),
            (network, "gnn_layer", gnn_layer(network.gnn_layer)),
            (network, "final_projection",
             span("network.final_projection", network.final_projection)),
            (transport, "score_matrix", span("transport.score_matrix", transport.score_matrix)),
            (transport, "augment_dustbin",
             span("transport.augment_dustbin", transport.augment_dustbin)),
            (transport, "sinkhorn", sinkhorn(transport.sinkhorn)),
            (transport, "extract_matches",
             span("transport.extract_matches", transport.extract_matches)),
            (pipeline, "match_pair", span("pipeline.match_pair", pipeline.match_pair)),
            (learn, "train", span("learn.train", learn.train)),
            (learn, "batch_assignments", span("learn.forward", learn.batch_assignments)),
            (learn, "compute_loss", span("learn.loss", learn.compute_loss)),
            (learn, "adam_step", span("learn.adam_step", learn.adam_step)),
            (learn, "extract_matches", span(step_bookkeeping, learn.extract_matches)),
            (learn, "match_metrics", span(step_bookkeeping, learn.match_metrics)),
            (register, "evaluate_matchers",
             span("register.evaluate_matchers", register.evaluate_matchers)),
            (register, "nn_matcher", span("register.nn_matcher", register.nn_matcher)),
            (register, "icp", span("register.icp", register.icp)),
            (register, "estimate_transform_svd",
             span("register.estimate_transform_svd", register.estimate_transform_svd)),
            (cli, "main", span("cli.main", cli.main)),
            (cli, "load_kitti_scan", span("cloud.load_kitti_scan", cli.load_kitti_scan)),
            (cloud, "smoothness_field", span("cloud.smoothness_field", cloud.smoothness_field)),
            (pairio, "select_keypoints", select_keypoints(pairio.select_keypoints)),
            (pairio, "sample_pillars", span("cloud.sample_pillars", pairio.sample_pillars)),
            (pairio, "label_correspondences",
             span("cloud.label_correspondences", pairio.label_correspondences)),
            (pairio, "write_pair", span("pairio.write_pair", pairio.write_pair)),
            (pairio, "write_container", write_container(pairio.write_container)),
            (pairio, "read_pair", span("pairio.read_pair", pairio.read_pair)),
        ]

    @contextmanager
    def active(self):
        """Install every wrapper and the GC hook; restore both on exit."""
        originals = []
        try:
            for owner, attr, replacement in self._wrappers():
                originals.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, replacement)
            gc.callbacks.append(self._gc_callback)
            yield self
        finally:
            if self._gc_callback in gc.callbacks:
                gc.callbacks.remove(self._gc_callback)
            for owner, attr, original in reversed(originals):
                setattr(owner, attr, original)
            self._stack.clear()
