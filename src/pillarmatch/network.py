"""Learnable pipeline from pillars to matching descriptors.

Pillar stacks and key-point coordinates pass through a shared linear pillar
encoder and a shared positional MLP, whose final layer adds the pillar
encoding to give the graph node states. These are refined by alternating
self/cross multi-head attention layers with residual connections, and finally
projected into matching descriptors. All weights are
shared between the two clouds within a layer. A layer stores its query, key
and value weights as one fused projection, projects each graph once and runs
every head of one side in a single :func:`attention` tape node. Checkpoints
keep the per-head arrays of earlier releases. The graph runs on ``(B, n,
d)`` stacks: the pairs of a batch, which share one key-point count ``(n,
m)``, go through every layer together, so a layer records the same nodes for
one pair as for a whole batch.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields, asdict

import numpy as np

from . import autodiff as ad
from .autodiff import BatchNormState, Tensor
from .cloud import PillarSet
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

# the values of each HyperParams field that selects a behavioral variant
HYPER_CHOICES = {
    "attention_scale": ("full", "per-head"),
    "sinkhorn_mode": ("alternating", "simultaneous"),
    "sinkhorn_marginals": ("uniform", "dustbin-weighted"),
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
        for name, choices in HYPER_CHOICES.items():
            if getattr(self, name) not in choices:
                raise ConfigError(f"unknown {name} {getattr(self, name)!r}")
        if not 0.0 <= self.match_threshold <= 1.0:
            raise ConfigError(f"match_threshold must be in [0, 1], got {self.match_threshold!r}")
        if self.pillar_radius <= 0.0:
            raise ConfigError(f"pillar_radius must be > 0, got {self.pillar_radius!r}")

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
    # (3 * depth, depth): query, key then value rows; head h owns rows
    # h * head_depth to (h + 1) * head_depth of each
    projection: Tensor
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
            output_weight = _xavier(rng, depth, depth, dtype, gain=ATTENTION_OUTPUT_GAIN)
            # each head of Q, then of K, then of V is drawn as its own block
            blocks = [_xavier(rng, hyper.head_depth, depth, dtype).data
                      for _ in range(3 * hyper.attention_heads)]
            layer = AttentionLayerParams(
                output_weight=output_weight,
                projection=Tensor(np.concatenate(blocks), requires_grad=True),
            )
            if hyper.post_attention_mlp:
                layer.mlp_weights = [
                    _xavier(rng, depth * 2, depth, dtype),
                    _xavier(rng, depth, depth * 2, dtype),
                ]
            layers.append(layer)

        project_weight = _xavier(rng, depth, depth, dtype, gain=PROJECT_GAIN)
        with np.errstate(over="ignore"):  # Tensor reports an init the dtype cannot hold
            dustbin_score = Tensor(np.array(hyper.dustbin_init, dtype=dtype), requires_grad=True)
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
            out[f"attention.{li}.projection"] = layer.projection
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

def feature_stacks(pillars: PillarSet) -> np.ndarray:
    """``(k, capacity * 11)`` flattened feature stacks, one row per pillar.

    Each real member contributes [x, y, z, intensity, offset to pillar
    centroid, point norm, offset to key-point]; pad rows stay all zero.
    """
    stacks = np.empty(pillars.members.shape[:2] + (POINT_FEATURE_DIM,))
    stacks[:, :, :4] = pillars.members
    coords = [pillars.members[:, :, c] for c in range(3)]
    for c, coord in enumerate(coords):
        np.subtract(coord, pillars.centroids[:, c, None], out=stacks[:, :, 4 + c])
        np.subtract(coord, pillars.keypoints.positions[:, c, None], out=stacks[:, :, 8 + c])
    # (x^2 + y^2) + z^2, the order in which np.linalg.norm sums three values
    np.sqrt(sum(np.square(coord) for coord in coords), out=stacks[:, :, 7])
    stacks[np.arange(pillars.capacity) >= pillars.real_count[:, None]] = 0.0
    return stacks.reshape(len(pillars), pillars.capacity * POINT_FEATURE_DIM)


def encode_pillars(stacks: Tensor, params: ModelParameters, train: bool) -> Tensor:
    """Shared linear projection + batch-norm + ReLU over (pillars, stack_depth)."""
    if stacks.shape[-1] != params.hyper.stack_depth:
        raise ShapeError(
            f"stack depth {stacks.shape[-1]} != expected {params.hyper.stack_depth}"
        )
    return ad.linear_batchnorm_relu(stacks, params.pillar_weight, params.pillar_norm, train)


def encode_positions(coords: Tensor, params: ModelParameters, train: bool,
                     residual: Tensor | None = None) -> Tensor:
    """Shared MLP over raw (pillars, 3) key-point coordinates; its final
    layer adds ``residual`` (the pillar encoding) if given."""
    x = coords
    for w, norm in zip(params.positional_weights[:-1], params.positional_norms):
        x = ad.linear_batchnorm_relu(x, w, norm, train)
    return ad.linear(x, params.positional_weights[-1], residual)


# (..., rows, heads * d) <-> (..., heads, rows, d): head h is column block h
def _split_heads(data: np.ndarray, heads: int) -> np.ndarray:
    return data.reshape(data.shape[:-1] + (heads, -1)).swapaxes(-2, -3)


def _merge_heads(data: np.ndarray) -> np.ndarray:
    merged = data.swapaxes(-2, -3)
    return merged.reshape(merged.shape[:-2] + (-1,))


def attention(queries: Tensor, sources: Tensor, depth: int, heads: int = 1) -> Tensor:
    """softmax(Q_h K_h^T / sqrt(depth)) V_h per head h, softmax over the source axis.

    ``queries`` is (..., n, 3d) and ``sources`` is (..., m, 3d) with the same
    leading axes, one independent graph per leading index. Each holds the
    fused projection of its nodes: columns 0 to d are Q, d to 2d are K and
    2d to 3d are V, and head h owns column block h of each. Q is read from
    ``queries``, K and V from ``sources``; self attention passes one tensor
    twice. The output is (..., n, d), head h in column block h. Every graph
    and head runs as one (..., heads, n, d/heads) numpy stack and records one
    tape node.
    """
    if (queries.ndim < 2 or queries.ndim != sources.ndim
            or queries.shape[:-2] != sources.shape[:-2]
            or queries.shape[-1] != sources.shape[-1] or queries.shape[-1] % (3 * heads)):
        raise ShapeError(f"attention shapes incompatible with {heads} heads: "
                         f"queries{queries.shape} sources{sources.shape}")
    # a Python float: a numpy scalar would promote float32 scores to float64
    scale = 1.0 / math.sqrt(depth)
    qh = _split_heads(queries.data, 3 * heads)[..., :heads, :, :]
    kvh = _split_heads(sources.data, 3 * heads)
    kh, vh = kvh[..., heads:2 * heads, :, :], kvh[..., 2 * heads:, :, :]
    with np.errstate(over="ignore"):  # overflowing scores are reported just below
        prob = (qh @ kh.swapaxes(-1, -2)) * scale
    ad._check_finite(prob, "attention")
    # the row max reads faster down the columns of a transposed copy
    prob -= np.ascontiguousarray(prob.swapaxes(-1, -2)).max(axis=-2)[..., None]
    np.exp(prob, out=prob)
    prob /= np.sum(prob, axis=-1, keepdims=True)
    merged = _merge_heads(prob @ vh)
    parents = (queries,) if queries is sources else (queries, sources)
    out = ad._node(merged, parents, "attention")
    if out.requires_grad:
        def back(grad):
            gh = _split_heads(grad, heads)
            # sum_j prob_ij g_prob_ij is the per-head row sum of grad * output,
            # taken as one matrix-vector product over every (row, head)
            products = (grad * merged).reshape(-1, gh.shape[-1])
            rows = (products @ np.ones(gh.shape[-1], dtype=grad.dtype)).reshape(
                grad.shape[:-1] + (heads,)).swapaxes(-1, -2)
            g_scores = gh @ vh.swapaxes(-1, -2)
            g_scores -= rows[..., None]
            g_scores *= prob
            g_scores *= scale
            g_queries = np.zeros_like(queries.data)
            g_sources = g_queries if queries is sources else np.zeros_like(sources.data)
            _split_heads(g_queries, 3 * heads)[..., :heads, :, :] = g_scores @ kh
            g_kv = _split_heads(g_sources, 3 * heads)
            g_kv[..., heads:2 * heads, :, :] = g_scores.swapaxes(-1, -2) @ qh
            g_kv[..., 2 * heads:, :, :] = prob.swapaxes(-1, -2) @ gh
            if queries.requires_grad:
                queries._accumulate(g_queries)
            if sources is not queries and sources.requires_grad:
                sources._accumulate(g_sources)
        out._backward = back
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
    Each graph is projected to Q, K and V once; each side then runs one
    attention node, its output projection and the optional MLP, and the last
    of these ``linear`` nodes adds the side's node states.
    """
    proj_a = ad.linear(nodes_a, layer.projection)
    proj_b = ad.linear(nodes_b, layer.projection)
    src_a, src_b = (proj_a, proj_b) if layer_index % 2 == 0 else (proj_b, proj_a)
    scale_depth = hyper.feature_depth if hyper.attention_scale == "full" else hyper.head_depth
    updated = []
    for nodes, queries, sources in ((nodes_a, proj_a, src_a), (nodes_b, proj_b, src_b)):
        merged = attention(queries, sources, scale_depth, hyper.attention_heads)
        if layer.mlp_weights:
            hidden = ad.linear(ad.linear(merged, layer.output_weight), layer.mlp_weights[0])
            updated.append(ad.linear(hidden.relu(), layer.mlp_weights[1], nodes))
        else:
            updated.append(ad.linear(merged, layer.output_weight, nodes))
    return updated[0], updated[1]


def final_projection(nodes: Tensor, params: ModelParameters) -> Tensor:
    return ad.linear(nodes, params.project_weight)


def batch_descriptors(
    params: ModelParameters, stacks: list, coords: list, train: bool = False
) -> tuple[Tensor, Tensor]:
    """Descriptor pipeline for a batch of pairs of one key-point count ``(n, m)``.

    ``stacks`` and ``coords`` list the clouds in order source, target, source,
    target, ... Pillar and positional encodings run jointly over every pillar
    of every cloud so batch-norm statistics pool across the whole batch. The
    attention graph then runs once on a ``(B, n, d)`` source and a ``(B, m,
    d)`` target stack, and ``(desc_src, desc_tgt)`` are its projections; slice
    b of both belongs to pair b. An empty batch, or one whose pairs differ in
    key-point counts, is a :class:`ShapeError`.
    """
    shapes = set(zip(map(len, stacks[0::2]), map(len, stacks[1::2])))
    if len(shapes) != 1:
        raise ShapeError(f"a batch needs pairs of one key-point count, got {sorted(shapes)}")
    (n_src, n_tgt), = shapes
    dtype = params.pillar_weight.dtype
    encoded = encode_pillars(Tensor(np.concatenate(stacks).astype(dtype, copy=False)),
                             params, train)
    nodes = encode_positions(Tensor(np.concatenate(coords).astype(dtype, copy=False)),
                             params, train, residual=encoded)
    # the (B, n) rows of each pair's source and target cloud in ``nodes``
    starts = (n_src + n_tgt) * np.arange(len(stacks) // 2)[:, None]
    nodes_src = nodes.gather_rows(starts + np.arange(n_src))
    nodes_tgt = nodes.gather_rows(starts + n_src + np.arange(n_tgt))
    for index, layer in enumerate(params.layers):
        nodes_src, nodes_tgt = gnn_layer(nodes_src, nodes_tgt, layer, index, params.hyper)
    return final_projection(nodes_src, params), final_projection(nodes_tgt, params)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

# A checkpoint stores each fused projection, and any array named after one
# such as its Adam moments, as the per-head arrays of the layout before
# fusion: ``<stem>projection`` rows are Q, K then V, each head-major, and
# head h of role r is stored as ``<stem>head{h}.{r}``. Files thus keep their
# bytes, and files written before fusion load.
_ROLES = ("query", "key", "value")
_FUSED_KEY = re.compile(r"(.*\battention\.\d+\.)projection")
_HEAD_KEY = re.compile(r"(.*\battention\.\d+\.)head(\d+)\.(query|key|value)")


def _split_projections(arrays: dict, heads: int) -> dict:
    """``arrays`` in the stored layout; arrays of other names pass through."""
    out = {}
    for key, arr in arrays.items():
        match = _FUSED_KEY.fullmatch(key)
        if match is None:
            out[key] = arr
            continue
        blocks = arr.reshape(len(_ROLES), heads, -1, arr.shape[-1])
        for h in range(heads):
            for r, role in enumerate(_ROLES):
                out[f"{match[1]}head{h}.{role}"] = blocks[r, h]
    return out


def _stack_projections(arrays: dict, heads: int) -> dict:
    """Inverse of :func:`_split_projections`. Per-head arrays stack only as
    a complete set of equal 2-D shapes; any other set passes through."""
    out, stems = {}, {}
    for key, arr in arrays.items():
        match = _HEAD_KEY.fullmatch(key)
        if match is None:
            out[key] = arr
        else:
            stems.setdefault(match[1], {})[(match[3], int(match[2]))] = key
    for stem, parts in stems.items():
        keys = [parts.get((role, h)) for role in _ROLES for h in range(heads)]
        blocks = [arrays[k] for k in keys if k is not None]
        if (len(blocks) == len(parts) == len(keys) and blocks[0].ndim == 2
                and len({b.shape for b in blocks}) == 1):
            out[f"{stem}projection"] = np.concatenate(blocks)
        else:
            out.update((k, arrays[k]) for k in parts.values())
    return out


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
    write_container(path, "checkpoint", meta,
                    _split_projections(arrays, params.hyper.attention_heads))


def load_checkpoint(path, dtype=np.float32):
    """Return ``(params, meta, extra_arrays)`` for a checkpoint file; extra
    arrays named after a fused projection come back stacked too. A missing,
    misshapen or non-finite parameter or running statistic, or a negative
    running variance, is a :class:`ConfigError` naming the array."""
    meta, arrays = read_container(path, expect_kind="checkpoint")
    hyper = HyperParams.from_manifest(meta.get("hyper"))
    arrays = _stack_projections(arrays, hyper.attention_heads)
    params = ModelParameters.initialize(hyper, seed=0, dtype=dtype)
    targets = {("param", "parameter", name): tensor.data
               for name, tensor in params.named_parameters().items()}
    targets.update({("stat", "running statistic", name): stat
                    for name, stat in params.running_stats().items()})
    for (prefix, kind, name), target in targets.items():
        key = f"{prefix}.{name}"
        if key not in arrays:
            stored = " (a full set of equal per-head arrays)" if _FUSED_KEY.fullmatch(key) else ""
            raise ConfigError(f"checkpoint missing {kind} {name!r}{stored}")
        if arrays[key].shape != target.shape:
            raise ConfigError(f"checkpoint {kind} {name!r} has shape {arrays[key].shape}, "
                              f"expected {target.shape}")
        with np.errstate(over="ignore"):  # beyond the dtype's range: inf, refused below
            value = arrays[key].astype(target.dtype)
        if not np.all(np.isfinite(value)) or (name.endswith("running_var") and np.any(value < 0)):
            raise ConfigError(f"checkpoint {kind} {name!r} must be finite, "
                              "and >= 0 for a running variance")
        target[...] = value
    extras = {
        name[len("extra.") :]: arr
        for name, arr in arrays.items()
        if name.startswith("extra.")
    }
    return params, meta, extras
