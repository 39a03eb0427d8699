import gc
import warnings
import weakref

import numpy as np
import pytest

from conftest import make_pillar, rewrite_container, toy_hyper, toy_pair

from pillarmatch import autodiff as ad
from pillarmatch.autodiff import Tensor, grad_check
from pillarmatch.errors import ConfigError, NumericError, ShapeError
from pillarmatch.learn import compute_loss
from pillarmatch.network import (
    HyperParams,
    ModelParameters,
    attention,
    build_feature_stack,
    encode_pillars,
    encode_positions,
    feature_stacks,
    final_projection,
    forward_descriptors,
    gnn_layer,
    init_nodes,
    load_checkpoint,
    multi_head_attention,
    save_checkpoint,
)
from pillarmatch.pipeline import batch_assignments, match_pair
from pillarmatch.transport import augment_dustbin, score_matrix, sinkhorn


def t(values, grad=True):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=grad)


# ---------------------------------------------------------------------------
# feature stacks
# ---------------------------------------------------------------------------

def test_feature_stack_single_member_at_keypoint():
    pillar = make_pillar([[3.0, 4.0, 0.0, 0.5]], keypoint_xyz=[3.0, 4.0, 0.0], capacity=2)
    stack = build_feature_stack(pillar).reshape(2, 11)
    np.testing.assert_allclose(
        stack[0], [3.0, 4.0, 0.0, 0.5, 0.0, 0.0, 0.0, 5.0, 0.0, 0.0, 0.0]
    )
    np.testing.assert_array_equal(stack[1], 0.0)


def test_feature_stack_all_pad_is_zero():
    pillar = make_pillar([], keypoint_xyz=[1.0, 2.0, 3.0], capacity=4)
    np.testing.assert_array_equal(build_feature_stack(pillar), 0.0)


def test_feature_stack_two_member_centroid_offsets():
    pillar = make_pillar(
        [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]],
        keypoint_xyz=[0.0, 0.0, 0.0],
        capacity=2,
    )
    np.testing.assert_allclose(pillar.centroid, [0.5, 0.5, 0.0])
    stack = build_feature_stack(pillar).reshape(2, 11)
    np.testing.assert_allclose(stack[0, 4:7], [0.5, -0.5, 0.0])
    np.testing.assert_allclose(stack[1, 4:7], [-0.5, 0.5, 0.0])


# ---------------------------------------------------------------------------
# encoders against brute-force oracles
# ---------------------------------------------------------------------------

def float64_params(hyper, seed=0):
    return ModelParameters.initialize(hyper, seed=seed, dtype=np.float64)


def brute_batchnorm_relu(x, gamma, beta, eps=1e-5):
    mean = x.mean(axis=0)
    var = x.var(axis=0)
    xhat = (x - mean) / np.sqrt(var + eps)
    return np.maximum(gamma * xhat + beta, 0.0)


def test_encode_pillars_matches_brute_force(rng):
    hyper = toy_hyper()
    params = float64_params(hyper)
    stacks = rng.normal(size=(6, hyper.stack_depth))
    out = encode_pillars(Tensor(stacks), params, train=True)
    expected = brute_batchnorm_relu(
        stacks @ params.pillar_weight.data.T,
        params.pillar_norm.gamma.data,
        params.pillar_norm.beta.data,
    )
    np.testing.assert_allclose(out.data, expected, atol=1e-6)
    assert np.all(out.data >= 0.0)


def test_encode_pillars_shared_weights_identical_rows(rng):
    hyper = toy_hyper()
    params = float64_params(hyper)
    row = rng.normal(size=hyper.stack_depth)
    stacks = np.tile(row, (4, 1))
    out = encode_pillars(Tensor(stacks), params, train=True)
    np.testing.assert_allclose(out.data, np.tile(out.data[0], (4, 1)), atol=1e-12)


def test_encode_pillars_zero_stack_zero_output():
    hyper = toy_hyper()
    params = float64_params(hyper)
    out = encode_pillars(Tensor(np.zeros((3, hyper.stack_depth))), params, train=True)
    np.testing.assert_allclose(out.data, 0.0, atol=1e-12)


def test_encode_pillars_depth_checked():
    hyper = toy_hyper()
    params = float64_params(hyper)
    with pytest.raises(ShapeError):
        encode_pillars(Tensor(np.zeros((3, 7))), params, train=True)


def test_encode_positions_matches_brute_force(rng):
    hyper = toy_hyper()
    params = float64_params(hyper)
    coords = rng.normal(size=(5, 3))
    out = encode_positions(Tensor(coords), params, train=True)

    x = coords
    for w, norm in zip(params.positional_weights[:-1], params.positional_norms):
        x = brute_batchnorm_relu(x @ w.data.T, norm.gamma.data, norm.beta.data)
    expected = x @ params.positional_weights[-1].data.T
    np.testing.assert_allclose(out.data, expected, atol=1e-6)
    assert out.data.shape == (5, hyper.feature_depth)


def test_encode_positions_shared_across_clouds(rng):
    hyper = toy_hyper()
    params = float64_params(hyper)
    point = rng.normal(size=3)
    coords = np.vstack([point, rng.normal(size=(3, 3)), point])
    out = encode_positions(Tensor(coords), params, train=True)
    np.testing.assert_allclose(out.data[0], out.data[-1], atol=1e-12)


def test_positional_depth_default_is_paper_scale():
    hyper = HyperParams()
    assert hyper.positional_hidden == (32, 64, 128, 256)
    assert hyper.feature_depth == 32
    params = ModelParameters.initialize(hyper, seed=1)
    out = encode_positions(
        Tensor(np.zeros((2, 3), dtype=np.float32)), params, train=True
    )
    assert out.data.shape == (2, 32)


# ---------------------------------------------------------------------------
# node init and attention
# ---------------------------------------------------------------------------

def test_init_nodes_is_elementwise_sum(rng):
    a, b = rng.normal(size=(4, 8)), rng.normal(size=(4, 8))
    out = init_nodes(Tensor(a), Tensor(b))
    np.testing.assert_allclose(out.data, a + b)
    np.testing.assert_allclose(init_nodes(Tensor(np.zeros((4, 8))), Tensor(b)).data, b)
    np.testing.assert_allclose(init_nodes(Tensor(a), Tensor(np.zeros((4, 8)))).data, a)


def test_init_nodes_shape_mismatch():
    with pytest.raises(ShapeError):
        init_nodes(Tensor(np.zeros((4, 8))), Tensor(np.zeros((3, 8))))


def test_attention_single_key_returns_value(rng):
    q = Tensor(rng.normal(size=(3, 4)))
    k = Tensor(rng.normal(size=(1, 4)))
    v = Tensor(rng.normal(size=(1, 4)))
    out = attention(q, k, v)
    np.testing.assert_allclose(out.data, np.tile(v.data, (3, 1)), atol=1e-12)


def test_attention_identical_keys_average_values(rng):
    q = Tensor(rng.normal(size=(2, 4)))
    key = rng.normal(size=4)
    k = Tensor(np.vstack([key, key]))
    v = Tensor(rng.normal(size=(2, 4)))
    out = attention(q, k, v)
    np.testing.assert_allclose(out.data, np.tile(v.data.mean(axis=0), (2, 1)), atol=1e-12)


def test_attention_matches_brute_force(rng):
    q, k, v = rng.normal(size=(3, 4)), rng.normal(size=(3, 4)), rng.normal(size=(3, 4))
    scores = q @ k.T / np.sqrt(4.0)
    weights = np.exp(scores - scores.max(axis=1, keepdims=True))
    weights /= weights.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(
        attention(Tensor(q), Tensor(k), Tensor(v)).data, weights @ v, atol=1e-10
    )


def test_attention_scale_uses_full_depth(rng):
    # heads of width 2 scaled by sqrt(8): explicit depth must change the result
    q, k, v = rng.normal(size=(3, 2)), rng.normal(size=(3, 2)), rng.normal(size=(3, 2))
    full = attention(Tensor(q), Tensor(k), Tensor(v), depth=8)
    scores = q @ k.T / np.sqrt(8.0)
    weights = np.exp(scores - scores.max(axis=1, keepdims=True))
    weights /= weights.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(full.data, weights @ v, atol=1e-10)


def per_head_reference(q, k, v, depth, heads):
    """The per-head formula attention replaced: each head's contiguous column
    block through (q_h @ k_h.T) * scale, a max-shifted softmax, then @ v_h."""
    scale = float(1.0 / np.sqrt(float(depth)))
    outs = []
    for qh, kh, vh in zip(*(np.split(x, heads, axis=1) for x in (q, k, v))):
        qh, kh, vh = map(np.ascontiguousarray, (qh, kh, vh))
        scores = (qh @ kh.T) * scale
        exp = np.exp(scores - np.max(scores, axis=1, keepdims=True))
        outs.append((exp / np.sum(exp, axis=1, keepdims=True)) @ vh)
    return np.concatenate(outs, axis=1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("heads", [1, 2, 3])
def test_attention_heads_bit_identical_to_per_head_reference(rng, heads, dtype):
    q = rng.normal(size=(5, 4 * heads)).astype(dtype)
    k = rng.normal(size=(7, 4 * heads)).astype(dtype)
    v = rng.normal(size=(7, 3 * heads)).astype(dtype)
    out = attention(Tensor(q), Tensor(k), Tensor(v), depth=8, heads=heads)
    assert out.dtype == dtype
    np.testing.assert_array_equal(out.data, per_head_reference(q, k, v, 8, heads))


@pytest.mark.parametrize("scale", ["full", "per-head"])
def test_attention_multi_head_grad_check(rng, scale):
    heads = 3
    q, k = t(rng.normal(size=(4, 2 * heads))), t(rng.normal(size=(5, 2 * heads)))
    v = t(rng.normal(size=(5, 3 * heads)))
    weights = rng.normal(size=(4, 3 * heads))
    depth = 2 * heads if scale == "full" else 2

    def objective():
        return (attention(q, k, v, depth=depth, heads=heads) * t(weights, grad=False)).sum()

    assert grad_check(objective, [q, k, v]) < 1e-6


def test_attention_is_one_tape_node(rng):
    q, k, v = (t(rng.normal(size=(3, 4))) for _ in range(3))
    out = attention(q, k, v, heads=2)
    assert out._parents == (q, k, v)


def test_attention_overflow_is_numeric_error_without_warning():
    q = t(np.full((2, 4), 1e200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError):
            attention(q, q, q, heads=2)


def test_attention_heads_must_divide_depths():
    with pytest.raises(ShapeError):
        attention(t(np.zeros((2, 4))), t(np.zeros((3, 4))), t(np.zeros((3, 5))), heads=2)


# ---------------------------------------------------------------------------
# gnn layers
# ---------------------------------------------------------------------------

def test_gnn_layer_zero_output_weight_is_residual(rng):
    hyper = toy_hyper()
    params = float64_params(hyper)
    for layer in params.layers:
        layer.output_weight.data[...] = 0.0
    a = Tensor(rng.normal(size=(4, hyper.feature_depth)))
    b = Tensor(rng.normal(size=(4, hyper.feature_depth)))
    out_a, out_b = a, b
    for index, layer in enumerate(params.layers):
        out_a, out_b = gnn_layer(out_a, out_b, layer, index, hyper)
    np.testing.assert_array_equal(out_a.data, a.data)
    np.testing.assert_array_equal(out_b.data, b.data)


def test_gnn_even_layer_has_no_cross_flow(rng):
    hyper = toy_hyper()
    params = float64_params(hyper)
    a = Tensor(rng.normal(size=(4, hyper.feature_depth)))
    b1 = Tensor(rng.normal(size=(4, hyper.feature_depth)))
    b2 = Tensor(rng.normal(size=(4, hyper.feature_depth)))
    out_a1, _ = gnn_layer(a, b1, params.layers[0], 0, hyper)
    out_a2, _ = gnn_layer(a, b2, params.layers[0], 0, hyper)
    np.testing.assert_array_equal(out_a1.data, out_a2.data)


def test_gnn_odd_layer_source_permutation_invariant(rng):
    hyper = toy_hyper()
    params = float64_params(hyper)
    a = Tensor(rng.normal(size=(4, hyper.feature_depth)))
    b = rng.normal(size=(4, hyper.feature_depth))
    perm = rng.permutation(4)
    out_a, _ = gnn_layer(a, Tensor(b), params.layers[1], 1, hyper)
    out_a_perm, _ = gnn_layer(a, Tensor(b[perm]), params.layers[1], 1, hyper)
    np.testing.assert_allclose(out_a.data, out_a_perm.data, atol=1e-10)


def test_head_concat_reassembles_depth():
    hyper = toy_hyper(feature_depth=12, attention_heads=3)
    assert hyper.head_depth == 4
    with pytest.raises(ConfigError):
        toy_hyper(feature_depth=10, attention_heads=3)


def test_final_projection_identity_and_shared(rng):
    hyper = toy_hyper()
    params = float64_params(hyper)
    params.project_weight.data[...] = np.eye(hyper.feature_depth)
    state = rng.normal(size=(4, hyper.feature_depth))
    out = final_projection(Tensor(state), params)
    np.testing.assert_allclose(out.data, state, atol=1e-12)
    params.project_weight.data[...] = rng.normal(size=(hyper.feature_depth,) * 2)
    out = final_projection(Tensor(state), params)
    np.testing.assert_allclose(out.data, state @ params.project_weight.data.T, atol=1e-10)


# ---------------------------------------------------------------------------
# whole-network properties
# ---------------------------------------------------------------------------

def test_permutation_equivariance_of_scores():
    hyper = toy_hyper(src_keypoints=6, tgt_keypoints=6)
    params = float64_params(hyper, seed=3)
    pair = toy_pair(seed=2, hyper=hyper)
    stacks_src, stacks_tgt = pair.stacks
    coords_src, coords_tgt = pair.coords

    perm = np.random.default_rng(0).permutation(len(stacks_tgt))
    d_src, d_tgt = forward_descriptors(
        params, stacks_src, stacks_tgt, coords_src, coords_tgt, train=True
    )
    base = sinkhorn(
        augment_dustbin(score_matrix(d_src, d_tgt), params.dustbin_score), iterations=10
    ).log_p.data
    d_src_p, d_tgt_p = forward_descriptors(
        params, stacks_src, stacks_tgt[perm], coords_src, coords_tgt[perm], train=True
    )
    permuted = sinkhorn(
        augment_dustbin(score_matrix(d_src_p, d_tgt_p), params.dustbin_score), iterations=10
    ).log_p.data

    m = len(perm)
    expected = base.copy()
    expected[:, :m] = base[:, :m][:, perm]
    assert np.max(np.abs(permuted - expected)) < 1e-5


def test_full_network_grad_check():
    hyper = toy_hyper()
    params = float64_params(hyper, seed=5)
    pair = toy_pair(seed=4, hyper=hyper)
    stacks_src, stacks_tgt = pair.stacks
    coords_src, coords_tgt = pair.coords

    def objective():
        d_src, d_tgt = forward_descriptors(
            params, stacks_src, stacks_tgt, coords_src, coords_tgt, train=True
        )
        return (d_src @ d_tgt.T).logsumexp(axis=1).sum()

    names = params.named_parameters()
    subset = [names[k] for k in [
        "pillar.weight", "pillar.norm.gamma", "positional.0.weight",
        "attention.0.head0.query", "attention.1.output", "project.weight",
    ]]
    assert grad_check(objective, subset, step=1e-4) < 1e-4


# ---------------------------------------------------------------------------
# tape budget and lifetime
# ---------------------------------------------------------------------------

def count_nodes(monkeypatch):
    """Count ``ad._node`` calls from here on; returns the one-cell counter."""
    counter = [0]
    record = ad._node

    def counting(*args):
        counter[0] += 1
        return record(*args)

    monkeypatch.setattr(ad, "_node", counting)
    return counter


@pytest.mark.parametrize("mlp,expected", [(False, 8), (True, 11)])
def test_multi_head_attention_node_budget(monkeypatch, rng, mlp, expected):
    # three stacked-weight concats, three projections, attention, output
    # projection; the optional MLP adds linear, relu, linear
    hyper = toy_hyper(post_attention_mlp=mlp)
    params = ModelParameters.initialize(hyper, seed=0)
    nodes = Tensor(rng.normal(size=(4, hyper.feature_depth)).astype(np.float32))
    counter = count_nodes(monkeypatch)
    multi_head_attention(params.layers[0], nodes, nodes, hyper)
    assert counter[0] == expected


def test_batch_assignments_node_budget(monkeypatch):
    # encoders 3 + 7 + init 1; per pair: narrow 2, two layers of two
    # attention calls (8 each) and two residual adds, projections 2, scores
    # 2, dustbin 5, sinkhorn 1
    pair = toy_pair(seed=3)
    params = ModelParameters.initialize(toy_hyper(), seed=0)
    counter = count_nodes(monkeypatch)
    batch_assignments(params, [pair], train=True)
    assert counter[0] == 11 + 2 + 2 * (2 * 8 + 2) + 2 + 2 + 5 + 1


def test_finished_tape_is_freed_without_the_cycle_collector():
    pair = toy_pair(seed=3)
    params = ModelParameters.initialize(toy_hyper(), seed=0)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        assignments = batch_assignments(params, [pair], train=True)
        loss = compute_loss("nllp", assignments[0], pair.labels)
        loss.backward()
        # every op output on the tape, from the loss back to the first encoder
        intermediates, stack, seen = [], [loss], set()
        while stack:
            node = stack.pop()
            if node._parents and id(node) not in seen:
                seen.add(id(node))
                intermediates.append(weakref.ref(node))
                stack.extend(node._parents)
        assert len(intermediates) > 50
        del loss, assignments, node, stack
        assert [ref for ref in intermediates if ref() is not None] == []
    finally:
        if was_enabled:
            gc.enable()


def test_match_pair_records_no_tape():
    pair = toy_pair(seed=3)
    params = ModelParameters.initialize(toy_hyper(), seed=0)
    log_p = match_pair(params, pair).assignment.log_p
    assert not log_p.requires_grad
    assert log_p._parents == () and log_p._backward is None
    assert np.array_equal(log_p.data, batch_assignments(params, [pair])[0].log_p.data)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_round_trip(tmp_path):
    hyper = toy_hyper(post_attention_mlp=True)
    params = ModelParameters.initialize(hyper, seed=9)
    params.pillar_norm.running_mean += 0.25
    path = tmp_path / "model.pmc"
    save_checkpoint(path, params, extra_meta={"note": "unit"}, extra_arrays={"aux": np.arange(3.0)})
    loaded, meta, extras = load_checkpoint(path)
    assert meta["note"] == "unit"
    assert loaded.hyper == hyper
    np.testing.assert_array_equal(extras["aux"], np.arange(3.0))
    for name, tensor in params.named_parameters().items():
        np.testing.assert_array_equal(loaded.named_parameters()[name].data, tensor.data)
    np.testing.assert_array_equal(
        loaded.pillar_norm.running_mean, params.pillar_norm.running_mean
    )


def test_checkpoint_manifest_records_flags(tmp_path):
    hyper = toy_hyper(attention_scale="per-head", sinkhorn_mode="simultaneous")
    params = ModelParameters.initialize(hyper, seed=0)
    path = tmp_path / "model.pmc"
    save_checkpoint(path, params)
    _, meta, _ = load_checkpoint(path)
    assert meta["hyper"]["attention_scale"] == "per-head"
    assert meta["hyper"]["sinkhorn_mode"] == "simultaneous"


@pytest.mark.parametrize("edit", ["unknown", "missing"])
def test_hyper_manifest_fields_must_match_exactly(tmp_path, edit):
    manifest = toy_hyper().to_manifest()
    assert HyperParams.from_manifest(manifest) == toy_hyper()
    if edit == "unknown":
        manifest["attention_dropout"] = 0.1
    else:
        del manifest["dustbin_init"]
    with pytest.raises(ConfigError):
        HyperParams.from_manifest(manifest)
    path = tmp_path / "model.pmc"
    save_checkpoint(path, ModelParameters.initialize(toy_hyper(), seed=0))
    rewrite_container(path, "checkpoint", lambda meta, arrays: meta.update(hyper=manifest))
    with pytest.raises(ConfigError):
        load_checkpoint(path)


@pytest.mark.parametrize("stat", ["pillar.norm.running_mean", "positional.1.norm.running_var"])
@pytest.mark.parametrize("defect", ["missing", "misshapen"])
def test_checkpoint_requires_every_running_stat(tmp_path, stat, defect):
    path = tmp_path / "model.pmc"
    save_checkpoint(path, ModelParameters.initialize(toy_hyper(), seed=0))

    def edit(meta, arrays):
        if defect == "missing":
            del arrays[f"stat.{stat}"]
        else:
            arrays[f"stat.{stat}"] = arrays[f"stat.{stat}"][:1]

    rewrite_container(path, "checkpoint", edit)
    with pytest.raises(ConfigError, match="running statistic"):
        load_checkpoint(path)


@pytest.mark.parametrize("field,value", [
    ("feature_depth", "8"), ("src_keypoints", 4.0), ("attention_heads", 0),
    ("pillar_points", -4), ("post_attention_mlp", 1), ("pillar_radius", "0.5"),
    ("match_threshold", float("nan")), ("sinkhorn_mode", None),
    ("positional_hidden", 8), ("positional_hidden", ["8", 16]), ("attention_layers", True),
])
def test_hyper_wrong_type_is_config_error(tmp_path, field, value):
    with pytest.raises(ConfigError, match=field):
        toy_hyper(**{field: value})
    manifest = dict(toy_hyper().to_manifest(), **{field: value})
    with pytest.raises(ConfigError, match=field):
        HyperParams.from_manifest(manifest)


def test_hyper_accepts_list_widths_and_integer_floats():
    hyper = toy_hyper(positional_hidden=[8, 16], pillar_radius=1, dustbin_init=np.float32(0.5))
    assert hyper.positional_hidden == (8, 16)
    assert HyperParams.from_manifest(hyper.to_manifest()) == hyper
