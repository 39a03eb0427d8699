"""Learnable pipeline from pillars to matching descriptors.

Pillar stacks and key-point coordinates pass through a shared linear pillar
encoder and a shared positional MLP, are summed into graph node states, then
refined by alternating self/cross multi-head attention layers with residual
connections, and finally projected into matching descriptors. All weights are
shared between the two clouds within a layer. Query, key and value weights
are stored per head; a layer stacks them into one projection each and runs
every head in a single :func:`attention` tape node.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNormState, Tensor
from .cloud import Pillar
from .container import is_count, is_finite_real, read_container, write_container
from .errors import ConfigError, ShapeError

POINT_FEATURE_DIM = 11  # coords(3) + intensity(1) + offset-to-centroid(3) + norm(1) + offset-to-keypoint(3)


# value check per annotated HyperParams field type; counts and widths are positive
_FIELD_CHECKS = {
    "int": lambda v: is_count(v, 1),
    "tuple[int, ...]": lambda v: isinstance(v, tuple) and all(is_count(w, 1) for w in v),
    "float": is_finite_real,
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
}


@dataclass(frozen=True)
class HyperParams:
    """Architecture and matching configuration.

    ``positional_hidden`` are the positional-MLP hidden widths; the toggles at
    the bottom select between the documented behavioral variants and are
    recorded in every checkpoint manifest.
    """

    src_keypoints: int = 100
    tgt_keypoints: int = 100
    pillar_points: int = 100
    pillar_radius: float = 0.5
    feature_depth: int = 32
    attention_heads: int = 8
    attention_layers: int = 6
    sinkhorn_iterations: int = 100
    positional_hidden: tuple[int, ...] = (32, 64, 128, 256)
    attention_scale: str = "full"        # "full": 1/sqrt(feature_depth); "per-head"
    post_attention_mlp: bool = False     # optional extra MLP after each attention block
    sinkhorn_mode: str = "alternating"   # or "simultaneous"
    sinkhorn_marginals: str = "uniform"  # or "dustbin-weighted"
    match_threshold: float = 0.2
    dustbin_init: float = 1.0

    def __post_init__(self):
        if isinstance(self.positional_hidden, list):
            object.__setattr__(self, "positional_hidden", tuple(self.positional_hidden))
        for f in fields(self):
            value = getattr(self, f.name)
            if not _FIELD_CHECKS[f.type](value):
                raise ConfigError(f"hyper field {f.name!r} must be a valid {f.type}, got {value!r}")
        if self.feature_depth % self.attention_heads != 0:
            raise ConfigError("feature_depth must be divisible by attention_heads")
        if self.attention_scale not in ("full", "per-head"):
            raise ConfigError(f"unknown attention_scale {self.attention_scale!r}")
        if self.sinkhorn_mode not in ("alternating", "simultaneous"):
            raise ConfigError(f"unknown sinkhorn_mode {self.sinkhorn_mode!r}")
        if self.sinkhorn_marginals not in ("uniform", "dustbin-weighted"):
            raise ConfigError(f"unknown sinkhorn_marginals {self.sinkhorn_marginals!r}")

    @property
    def stack_depth(self) -> int:
        return self.pillar_points * POINT_FEATURE_DIM

    @property
    def head_depth(self) -> int:
        return self.feature_depth // self.attention_heads

    def to_manifest(self) -> dict:
        out = asdict(self)
        out["positional_hidden"] = list(self.positional_hidden)
        return out

    @classmethod
    def from_manifest(cls, manifest: dict) -> "HyperParams":
        """Inverse of :meth:`to_manifest`; every field must be present."""
        if not isinstance(manifest, dict):
            raise ConfigError("hyper manifest must be a JSON object")
        expected = {f.name for f in fields(cls)}
        unknown, missing = set(manifest) - expected, expected - set(manifest)
        if unknown or missing:
            raise ConfigError(
                f"hyper manifest has unknown fields {sorted(unknown)} "
                f"and lacks fields {sorted(missing)}"
            )
        return cls(**manifest)


# Xavier gains: residual attention outputs and the score-producing projection
# start small so node states stay near their layer-0 scale and raw descriptor
# dot products begin in a range Sinkhorn and the dustbin scalar can work with.
ATTENTION_OUTPUT_GAIN = 0.25
PROJECT_GAIN = 0.25


def _xavier(rng: np.random.Generator, fan_out: int, fan_in: int, dtype, gain: float = 1.0) -> Tensor:
    bound = gain * np.sqrt(6.0 / (fan_in + fan_out))
    w = rng.uniform(-bound, bound, size=(fan_out, fan_in)).astype(dtype)
    return Tensor(w, requires_grad=True)


@dataclass
class AttentionLayerParams:
    output_weight: Tensor                 # (depth, depth), applied to concatenated heads
    query_weights: list[Tensor]           # per head, (head_depth, depth)
    key_weights: list[Tensor]
    value_weights: list[Tensor]
    mlp_weights: list[Tensor] = field(default_factory=list)  # optional post-attention MLP


@dataclass
class ModelParameters:
    """All learnable weights plus batch-norm running state."""

    hyper: HyperParams
    pillar_weight: Tensor                 # (depth, stack_depth)
    pillar_norm: BatchNormState
    positional_weights: list[Tensor]      # hidden layers then output
    positional_norms: list[BatchNormState]
    layers: list[AttentionLayerParams]
    project_weight: Tensor                # (depth, depth)
    dustbin_score: Tensor                 # scalar

    @classmethod
    def initialize(cls, hyper: HyperParams, seed: int = 0, dtype=np.float32) -> "ModelParameters":
        rng = np.random.default_rng(seed)
        depth = hyper.feature_depth
        pillar_weight = _xavier(rng, depth, hyper.stack_depth, dtype)
        pillar_norm = BatchNormState.create(depth, dtype=dtype)

        positional_weights, positional_norms = [], []
        fan_in = 3
        for width in hyper.positional_hidden:
            positional_weights.append(_xavier(rng, width, fan_in, dtype))
            positional_norms.append(BatchNormState.create(width, dtype=dtype))
            fan_in = width
        positional_weights.append(_xavier(rng, depth, fan_in, dtype))

        layers = []
        for _ in range(hyper.attention_layers):
            layer = AttentionLayerParams(
                output_weight=_xavier(rng, depth, depth, dtype, gain=ATTENTION_OUTPUT_GAIN),
                query_weights=[
                    _xavier(rng, hyper.head_depth, depth, dtype)
                    for _ in range(hyper.attention_heads)
                ],
                key_weights=[
                    _xavier(rng, hyper.head_depth, depth, dtype)
                    for _ in range(hyper.attention_heads)
                ],
                value_weights=[
                    _xavier(rng, hyper.head_depth, depth, dtype)
                    for _ in range(hyper.attention_heads)
                ],
            )
            if hyper.post_attention_mlp:
                layer.mlp_weights = [
                    _xavier(rng, depth * 2, depth, dtype),
                    _xavier(rng, depth, depth * 2, dtype),
                ]
            layers.append(layer)

        project_weight = _xavier(rng, depth, depth, dtype, gain=PROJECT_GAIN)
        dustbin_score = Tensor(
            np.array(hyper.dustbin_init, dtype=dtype), requires_grad=True
        )
        return cls(
            hyper=hyper,
            pillar_weight=pillar_weight,
            pillar_norm=pillar_norm,
            positional_weights=positional_weights,
            positional_norms=positional_norms,
            layers=layers,
            project_weight=project_weight,
            dustbin_score=dustbin_score,
        )

    def named_parameters(self) -> dict[str, Tensor]:
        """Learnable tensors in a stable order, keyed by descriptive names."""
        out = {"pillar.weight": self.pillar_weight}
        out["pillar.norm.gamma"] = self.pillar_norm.gamma
        out["pillar.norm.beta"] = self.pillar_norm.beta
        for i, w in enumerate(self.positional_weights):
            out[f"positional.{i}.weight"] = w
        for i, norm in enumerate(self.positional_norms):
            out[f"positional.{i}.norm.gamma"] = norm.gamma
            out[f"positional.{i}.norm.beta"] = norm.beta
        for li, layer in enumerate(self.layers):
            out[f"attention.{li}.output"] = layer.output_weight
            for h in range(len(layer.query_weights)):
                out[f"attention.{li}.head{h}.query"] = layer.query_weights[h]
                out[f"attention.{li}.head{h}.key"] = layer.key_weights[h]
                out[f"attention.{li}.head{h}.value"] = layer.value_weights[h]
            for wi, w in enumerate(layer.mlp_weights):
                out[f"attention.{li}.mlp.{wi}"] = w
        out["project.weight"] = self.project_weight
        out["dustbin.score"] = self.dustbin_score
        return out

    def running_stats(self) -> dict[str, np.ndarray]:
        out = {
            "pillar.norm.running_mean": self.pillar_norm.running_mean,
            "pillar.norm.running_var": self.pillar_norm.running_var,
        }
        for i, norm in enumerate(self.positional_norms):
            out[f"positional.{i}.norm.running_mean"] = norm.running_mean
            out[f"positional.{i}.norm.running_var"] = norm.running_var
        return out

    def zero_grad(self) -> None:
        for t in self.named_parameters().values():
            t.zero_grad()


# ---------------------------------------------------------------------------
# forward pieces
# ---------------------------------------------------------------------------

def build_feature_stack(pillar: Pillar) -> np.ndarray:
    """Flattened (capacity * 11,) feature stack for one pillar.

    Each real member contributes [x, y, z, intensity, offset to pillar
    centroid, point norm, offset to key-point]; pad rows stay all zero.
    """
    z = pillar.capacity
    stack = np.zeros((z, POINT_FEATURE_DIM))
    real = pillar.real_count
    if real:
        pts = pillar.members[:real, :3]
        stack[:real, 0:3] = pts
        stack[:real, 3] = pillar.members[:real, 3]
        stack[:real, 4:7] = pts - pillar.centroid
        stack[:real, 7] = np.linalg.norm(pts, axis=1)
        stack[:real, 8:11] = pts - pillar.keypoint.position
    return stack.reshape(-1)


def feature_stacks(pillars) -> np.ndarray:
    return np.stack([build_feature_stack(p) for p in pillars])


def encode_pillars(stacks: Tensor, params: ModelParameters, train: bool) -> Tensor:
    """Shared linear projection + batchnorm + ReLU over (pillars, stack_depth)."""
    if stacks.shape[-1] != params.hyper.stack_depth:
        raise ShapeError(
            f"stack depth {stacks.shape[-1]} != expected {params.hyper.stack_depth}"
        )
    return ad.batchnorm_relu(ad.linear(stacks, params.pillar_weight), params.pillar_norm, train)


def encode_positions(coords: Tensor, params: ModelParameters, train: bool) -> Tensor:
    """Shared MLP over raw (pillars, 3) key-point coordinates."""
    x = coords
    for w, norm in zip(params.positional_weights[:-1], params.positional_norms):
        x = ad.batchnorm_relu(ad.linear(x, w), norm, train)
    return ad.linear(x, params.positional_weights[-1])


def init_nodes(descriptors: Tensor, positions: Tensor) -> Tensor:
    if descriptors.shape != positions.shape:
        raise ShapeError(
            f"descriptor shape {descriptors.shape} != positional shape {positions.shape}"
        )
    return descriptors + positions


# (rows, heads * d) <-> (heads, rows, d): head h is column block h
def _split_heads(data: np.ndarray, heads: int) -> np.ndarray:
    return data.reshape(len(data), heads, -1).transpose(1, 0, 2)


def _merge_heads(data: np.ndarray) -> np.ndarray:
    return data.transpose(1, 0, 2).reshape(data.shape[1], -1)


def attention(q: Tensor, k: Tensor, v: Tensor, depth: int | None = None,
              heads: int = 1) -> Tensor:
    """softmax(q_h k_h^T / sqrt(depth)) v_h per head h, softmax over the key axis.

    Head h owns column block h of ``q``, ``k``, ``v`` and the output. ``depth``
    defaults to the per-head query depth; multi-head callers pass the full
    node depth so the scale stays 1/sqrt(feature_depth) inside heads. All
    heads run batched in numpy and record one tape node.
    """
    if q.ndim != 2 or k.ndim != 2 or v.ndim != 2:
        raise ShapeError("attention expects 2-D q, k, v")
    if (q.shape[1] != k.shape[1] or k.shape[0] != v.shape[0]
            or q.shape[1] % heads or v.shape[1] % heads):
        raise ShapeError(
            f"attention shapes incompatible with {heads} heads: q{q.shape} k{k.shape} v{v.shape}"
        )
    # a Python float: a numpy scalar would promote float32 scores to float64
    scale = 1.0 / math.sqrt(q.shape[1] // heads if depth is None else depth)
    qh, kh, vh = (_split_heads(x.data, heads) for x in (q, k, v))
    with np.errstate(over="ignore"):  # overflowing scores are reported just below
        scores = (qh @ kh.transpose(0, 2, 1)) * scale
    ad._check_finite(scores, "attention")
    exp = np.exp(scores - np.max(scores, axis=2, keepdims=True))
    prob = exp / np.sum(exp, axis=2, keepdims=True)
    out = ad._node(_merge_heads(prob @ vh), (q, k, v), "attention")
    if out.requires_grad:
        def back(grad):
            gh = _split_heads(grad, heads)
            g_prob = gh @ vh.transpose(0, 2, 1)
            g_scores = prob * (g_prob - np.sum(g_prob * prob, axis=2, keepdims=True)) * scale
            for x, g in ((q, g_scores @ kh), (k, g_scores.transpose(0, 2, 1) @ qh),
                         (v, prob.transpose(0, 2, 1) @ gh)):
                if x.requires_grad:
                    x._accumulate(_merge_heads(g))
        out._backward = back
    return out


def multi_head_attention(
    layer: AttentionLayerParams, queries: Tensor, sources: Tensor, hyper: HyperParams
) -> Tensor:
    # per-head weights stack into one projection each; one node runs every head
    scale_depth = hyper.feature_depth if hyper.attention_scale == "full" else hyper.head_depth
    merged = attention(
        ad.linear(queries, ad.concat(layer.query_weights)),
        ad.linear(sources, ad.concat(layer.key_weights)),
        ad.linear(sources, ad.concat(layer.value_weights)),
        depth=scale_depth,
        heads=hyper.attention_heads,
    )
    out = ad.linear(merged, layer.output_weight)
    if layer.mlp_weights:
        hidden = ad.linear(out, layer.mlp_weights[0]).relu()
        out = ad.linear(hidden, layer.mlp_weights[1])
    return out


def gnn_layer(
    nodes_a: Tensor,
    nodes_b: Tensor,
    layer: AttentionLayerParams,
    layer_index: int,
    hyper: HyperParams,
) -> tuple[Tensor, Tensor]:
    """One residual attention update for both graphs.

    Even layers attend within each graph (self edges); odd layers attend to
    the other graph (cross edges). Both updates read the pre-update states.
    """
    if layer_index % 2 == 0:
        src_a, src_b = nodes_a, nodes_b
    else:
        src_a, src_b = nodes_b, nodes_a
    delta_a = multi_head_attention(layer, nodes_a, src_a, hyper)
    delta_b = multi_head_attention(layer, nodes_b, src_b, hyper)
    return nodes_a + delta_a, nodes_b + delta_b


def final_projection(nodes: Tensor, params: ModelParameters) -> Tensor:
    return ad.linear(nodes, params.project_weight)


def batch_descriptors(
    params: ModelParameters, stacks: list, coords: list, train: bool = False
) -> list[tuple[Tensor, Tensor]]:
    """Descriptor pipeline for a batch of pairs: ``(desc_src, desc_tgt)`` per pair.

    ``stacks`` and ``coords`` list the clouds in order source, target, source,
    target, ... Pillar and positional encodings run jointly over every pillar
    of every cloud so batch-norm statistics pool across the whole batch; the
    attention graph then runs per pair.
    """
    dtype = params.pillar_weight.dtype
    all_stacks = ad.as_tensor(np.concatenate(stacks), dtype=dtype)
    all_coords = ad.as_tensor(np.concatenate(coords), dtype=dtype)
    encoded = encode_pillars(all_stacks, params, train)
    positional = encode_positions(all_coords, params, train)
    nodes = init_nodes(encoded, positional)
    out, start = [], 0
    for n_src, n_tgt in zip(map(len, stacks[0::2]), map(len, stacks[1::2])):
        nodes_src = nodes.narrow(0, start, n_src)
        nodes_tgt = nodes.narrow(0, start + n_src, n_tgt)
        start += n_src + n_tgt
        for index, layer in enumerate(params.layers):
            nodes_src, nodes_tgt = gnn_layer(nodes_src, nodes_tgt, layer, index, params.hyper)
        out.append((final_projection(nodes_src, params), final_projection(nodes_tgt, params)))
    return out


def forward_descriptors(
    params: ModelParameters,
    stacks_src: np.ndarray,
    stacks_tgt: np.ndarray,
    coords_src: np.ndarray,
    coords_tgt: np.ndarray,
    train: bool = False,
) -> tuple[Tensor, Tensor]:
    """Full descriptor pipeline for one pair; see :func:`batch_descriptors`."""
    return batch_descriptors(
        params, [stacks_src, stacks_tgt], [coords_src, coords_tgt], train
    )[0]


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path, params: ModelParameters, extra_meta: dict | None = None,
                    extra_arrays: dict | None = None) -> None:
    """Write parameters, running stats and the hyperparameter manifest."""
    meta = {"hyper": params.hyper.to_manifest()}
    if extra_meta:
        meta.update(extra_meta)
    arrays = {f"param.{k}": v.data for k, v in params.named_parameters().items()}
    arrays.update({f"stat.{k}": v for k, v in params.running_stats().items()})
    if extra_arrays:
        arrays.update({f"extra.{k}": v for k, v in extra_arrays.items()})
    write_container(path, "checkpoint", meta, arrays)


def load_checkpoint(path, dtype=np.float32):
    """Return ``(params, meta, extra_arrays)`` for a checkpoint file."""
    meta, arrays = read_container(path, expect_kind="checkpoint")
    hyper = HyperParams.from_manifest(meta.get("hyper"))
    params = ModelParameters.initialize(hyper, seed=0, dtype=dtype)
    named = params.named_parameters()
    for name, tensor in named.items():
        key = f"param.{name}"
        if key not in arrays:
            raise ConfigError(f"checkpoint missing parameter {name!r}")
        value = arrays[key].astype(dtype)
        if value.shape != tensor.data.shape:
            raise ConfigError(
                f"checkpoint parameter {name!r} has shape {value.shape}, "
                f"expected {tensor.data.shape}"
            )
        tensor.data = value
    for name, stat in params.running_stats().items():
        key = f"stat.{name}"
        if key not in arrays:
            raise ConfigError(f"checkpoint missing running statistic {name!r}")
        if arrays[key].shape != stat.shape:
            raise ConfigError(
                f"checkpoint running statistic {name!r} has shape {arrays[key].shape}, "
                f"expected {stat.shape}"
            )
        stat[...] = arrays[key].astype(stat.dtype)
    extras = {
        name[len("extra.") :]: arr
        for name, arr in arrays.items()
        if name.startswith("extra.")
    }
    return params, meta, extras
