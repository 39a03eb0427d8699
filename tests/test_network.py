import gc
import warnings
import weakref

import numpy as np
import pytest

from conftest import PILLAR_CASES, make_pillar, rewrite_container, toy_hyper, toy_pair

from pillarmatch import autodiff as ad
from pillarmatch import learn
from pillarmatch.autodiff import Tensor, grad_check
from pillarmatch.cloud import sample_pillars
from pillarmatch.errors import ConfigError, NumericError, ShapeError
from pillarmatch.learn import compute_loss
from pillarmatch.network import (
    HyperParams,
    ModelParameters,
    attention,
    batch_descriptors,
    encode_pillars,
    encode_positions,
    feature_stacks,
    final_projection,
    gnn_layer,
    load_checkpoint,
    save_checkpoint,
)
from pillarmatch.pipeline import batch_assignments, match_pair
from pillarmatch.transport import (
    AssignmentMatrix,
    augment_dustbin,
    extract_matches,
    score_matrix,
    sinkhorn,
)


def t(values, grad=True):
    return Tensor(np.asarray(values, dtype=np.float64), requires_grad=grad)


# ---------------------------------------------------------------------------
# feature stacks
# ---------------------------------------------------------------------------

def test_feature_stack_single_member_at_keypoint():
    pillar = make_pillar([[3.0, 4.0, 0.0, 0.5]], keypoint_xyz=[3.0, 4.0, 0.0], capacity=2)
    stack = feature_stacks(pillar)[0].reshape(2, 11)
    np.testing.assert_allclose(
        stack[0], [3.0, 4.0, 0.0, 0.5, 0.0, 0.0, 0.0, 5.0, 0.0, 0.0, 0.0]
    )
    np.testing.assert_array_equal(stack[1], 0.0)


def test_feature_stack_all_pad_is_zero():
    pillar = make_pillar([], keypoint_xyz=[1.0, 2.0, 3.0], capacity=4)
    np.testing.assert_array_equal(feature_stacks(pillar)[0], 0.0)


def test_feature_stack_two_member_centroid_offsets():
    pillar = make_pillar(
        [[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]],
        keypoint_xyz=[0.0, 0.0, 0.0],
        capacity=2,
    )
    np.testing.assert_allclose(pillar.centroids[0], [0.5, 0.5, 0.0])
    stack = feature_stacks(pillar)[0].reshape(2, 11)
    np.testing.assert_allclose(stack[0, 4:7], [0.5, -0.5, 0.0])
    np.testing.assert_allclose(stack[1, 4:7], [-0.5, 0.5, 0.0])


def reference_stack(pillars, i):
    """Pillar ``i``'s stack by the per-pillar loop that feature_stacks vectorises."""
    stack = np.zeros((pillars.capacity, 11))
    real = pillars.real_count[i]
    if real:
        pts = pillars.members[i, :real, :3]
        stack[:real, 0:3] = pts
        stack[:real, 3] = pillars.members[i, :real, 3]
        stack[:real, 4:7] = pts - pillars.centroids[i]
        stack[:real, 7] = np.linalg.norm(pts, axis=1)
        stack[:real, 8:11] = pts - pillars.keypoints.positions[i]
    return stack.reshape(-1)


@pytest.mark.parametrize("case", PILLAR_CASES)
def test_feature_stacks_equal_per_pillar_reference(pillar_cases, case):
    pillars = sample_pillars(*pillar_cases[case])
    stacks = feature_stacks(pillars)
    np.testing.assert_array_equal(
        stacks, np.stack([reference_stack(pillars, i) for i in range(len(pillars))]))


@pytest.mark.parametrize("case", ["scan-20k", "empty-pillars"])
def test_feature_stacks_bytes_equal_per_pillar_reference(pillar_cases, case):
    # bytes, not values: a pad row holds +0.0, never -0.0
    pillars = sample_pillars(*pillar_cases[case])
    expected = np.stack([reference_stack(pillars, i) for i in range(len(pillars))])
    assert feature_stacks(pillars).tobytes() == expected.tobytes()


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

def test_encode_positions_adds_a_residual_of_its_output_shape(rng):
    # the node states: the positional encoding plus the pillar encoding
    params = float64_params(toy_hyper())
    coords = Tensor(rng.normal(size=(5, 3)))
    residual = rng.normal(size=(5, params.hyper.feature_depth))
    plain = encode_positions(coords, params, train=False)
    out = encode_positions(coords, params, train=False, residual=Tensor(residual))
    np.testing.assert_array_equal(out.data, plain.data + residual)
    with pytest.raises(ShapeError, match="residual"):
        encode_positions(coords, params, train=False, residual=Tensor(residual[:4]))


def projections(q, k, v):
    """Fused ``(queries, sources)`` arrays: q in the queries' Q columns, k and v
    in the sources' K and V columns, zeros elsewhere."""
    return (np.concatenate([q, np.zeros_like(q), np.zeros_like(q)], axis=-1),
            np.concatenate([np.zeros_like(k), k, v], axis=-1))


def qkv(projection):
    """The Q, K and V column blocks of a fused projection."""
    return np.split(projection, 3, axis=-1)


def test_attention_single_key_returns_value(rng):
    queries, sources = projections(*(rng.normal(size=(r, 4)) for r in (3, 1, 1)))
    out = attention(Tensor(queries), Tensor(sources), depth=4)
    np.testing.assert_allclose(out.data, np.tile(sources[:, 8:], (3, 1)), atol=1e-12)


def test_attention_identical_keys_average_values(rng):
    key = rng.normal(size=4)
    queries, sources = projections(rng.normal(size=(2, 4)), np.vstack([key, key]),
                                   rng.normal(size=(2, 4)))
    out = attention(Tensor(queries), Tensor(sources), depth=4)
    np.testing.assert_allclose(out.data, np.tile(sources[:, 8:].mean(axis=0), (2, 1)),
                               atol=1e-12)


def test_attention_matches_brute_force(rng):
    queries, sources = rng.normal(size=(3, 12)), rng.normal(size=(3, 12))
    q, (_, k, v) = queries[:, :4], qkv(sources)
    scores = q @ k.T / np.sqrt(4.0)
    weights = np.exp(scores - scores.max(axis=1, keepdims=True))
    weights /= weights.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(
        attention(Tensor(queries), Tensor(sources), depth=4).data, weights @ v, atol=1e-10
    )


def test_attention_scale_uses_full_depth(rng):
    # heads of width 2 scaled by sqrt(8): explicit depth must change the result
    queries, sources = projections(*(rng.normal(size=(3, 2)) for _ in range(3)))
    full = attention(Tensor(queries), Tensor(sources), depth=8)
    q, k, v = queries[:, :2], sources[:, 2:4], sources[:, 4:]
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
    # cross form (Q of one graph, K and V of the other) and self form
    queries = rng.normal(size=(5, 12 * heads)).astype(dtype)
    sources = rng.normal(size=(7, 12 * heads)).astype(dtype)
    out = attention(Tensor(queries), Tensor(sources), depth=8, heads=heads)
    assert out.dtype == dtype
    (q, _, _), (_, k, v) = qkv(queries), qkv(sources)
    np.testing.assert_array_equal(out.data, per_head_reference(q, k, v, 8, heads))
    own = Tensor(queries)
    np.testing.assert_array_equal(attention(own, own, depth=8, heads=heads).data,
                                  per_head_reference(*qkv(queries), 8, heads))


@pytest.mark.parametrize("scale", ["full", "per-head"])
def test_attention_multi_head_grad_check(rng, scale):
    heads = 3
    queries, sources = t(rng.normal(size=(4, 6 * heads))), t(rng.normal(size=(5, 6 * heads)))
    depth = 2 * heads if scale == "full" else 2

    def cross():
        return attention(queries, sources, depth=depth, heads=heads)

    def own():
        return attention(queries, queries, depth=depth, heads=heads)

    assert grad_check(cross, [queries, sources]) < 1e-6
    assert grad_check(own, [queries]) < 1e-6


def test_attention_batched_grad_check_and_per_slice_identity(rng):
    heads = 3
    queries, sources = t(rng.normal(size=(2, 4, 6 * heads))), t(rng.normal(size=(2, 5, 6 * heads)))

    def objective():
        return attention(queries, sources, depth=2 * heads, heads=heads)

    assert grad_check(objective, [queries, sources]) < 1e-6
    out = attention(queries, sources, depth=2 * heads, heads=heads)
    for b in range(2):
        single = attention(t(queries.data[b]), t(sources.data[b]), depth=2 * heads, heads=heads)
        np.testing.assert_array_equal(out.data[b], single.data)
    with pytest.raises(ShapeError):
        attention(queries, t(sources.data[:1]), depth=2 * heads, heads=heads)


def test_attention_is_one_tape_node(rng):
    queries, sources = t(rng.normal(size=(3, 12))), t(rng.normal(size=(4, 12)))
    assert attention(queries, sources, depth=2, heads=2)._parents == (queries, sources)
    assert attention(queries, queries, depth=2, heads=2)._parents == (queries,)


def test_attention_overflow_is_numeric_error_without_warning():
    projection = t(np.full((2, 12), 1e200))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericError):
            attention(projection, projection, depth=2, heads=2)


def test_attention_heads_must_divide_depths():
    with pytest.raises(ShapeError):
        attention(t(np.zeros((2, 12))), t(np.zeros((3, 9))), depth=2, heads=2)
    with pytest.raises(ShapeError):
        attention(t(np.zeros((2, 15))), t(np.zeros((3, 15))), depth=2, heads=2)


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
    d_src, d_tgt = batch_descriptors(
        params, [stacks_src, stacks_tgt], [coords_src, coords_tgt], train=True
    )
    base = sinkhorn(
        augment_dustbin(score_matrix(d_src, d_tgt), params.dustbin_score), iterations=10
    ).log_p.data
    d_src_p, d_tgt_p = batch_descriptors(
        params, [stacks_src, stacks_tgt[perm]], [coords_src, coords_tgt[perm]], train=True
    )
    permuted = sinkhorn(
        augment_dustbin(score_matrix(d_src_p, d_tgt_p), params.dustbin_score), iterations=10
    ).log_p.data

    m = len(perm)
    expected = base.copy()
    expected[..., :m] = base[..., :m][..., perm]
    assert np.max(np.abs(permuted - expected)) < 1e-5


def test_full_network_grad_check():
    hyper = toy_hyper()
    params = float64_params(hyper, seed=5)
    pair = toy_pair(seed=4, hyper=hyper)
    stacks_src, stacks_tgt = pair.stacks
    coords_src, coords_tgt = pair.coords

    def objective():
        return score_matrix(*batch_descriptors(
            params, [stacks_src, stacks_tgt], [coords_src, coords_tgt], train=True
        ))

    names = params.named_parameters()
    subset = [names[k] for k in [
        "pillar.weight", "pillar.norm.gamma", "positional.0.weight",
        "attention.0.projection", "attention.1.output", "project.weight",
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


@pytest.mark.parametrize("mlp,expected", [(False, 6), (True, 12)])
def test_gnn_layer_node_budget(monkeypatch, rng, mlp, expected):
    # one fused projection per graph; per side the attention node and the
    # output projection, which adds the residual; the optional MLP adds
    # linear, relu, linear per side, and its last linear adds the residual
    hyper = toy_hyper(post_attention_mlp=mlp)
    params = ModelParameters.initialize(hyper, seed=0)
    a, b = (Tensor(rng.normal(size=(4, hyper.feature_depth)).astype(np.float32))
            for _ in range(2))
    for index in (0, 1):
        counter = count_nodes(monkeypatch)
        gnn_layer(a, b, params.layers[index], index, hyper)
        assert counter[0] == expected
        monkeypatch.undo()


def test_batch_assignments_node_budget(monkeypatch):
    # encoders 1 + 3 (a node per block, one final linear that adds the
    # pillar encoding); for the batch's stack: gathers 2, two layers of 6,
    # projections 2, scores 1, dustbin 1, sinkhorn 1; nothing per pair
    pair = toy_pair(seed=3)
    params = ModelParameters.initialize(toy_hyper(), seed=0)
    counter = count_nodes(monkeypatch)
    batch_assignments(params, [pair], train=True)
    assert counter[0] == 4 + 2 + 2 * 6 + 2 + 1 + 1 + 1


def test_batch_assignments_stack_equals_per_pair_calls_in_input_order():
    # eval mode, so batch-norm uses running statistics and a pair's result
    # does not depend on its batch; matrix b is pairs[b]'s
    pairs = [toy_pair(seed=10 + i) for i in range(3)]
    params = ModelParameters.initialize(toy_hyper(), seed=2, dtype=np.float64)
    batch = batch_assignments(params, pairs)
    assert batch.log_p.shape == (3, 5, 5)
    for matrix, pair in zip(batch.log_p.data, pairs):
        single = batch_assignments(params, [pair])
        np.testing.assert_allclose(matrix, single.log_p.data[0], rtol=0, atol=1e-12)


def test_batch_assignments_refuses_an_empty_or_mixed_shape_batch():
    params = ModelParameters.initialize(toy_hyper(), seed=2)
    mixed = [toy_pair(seed=10), toy_pair(seed=11, hyper=toy_hyper(tgt_keypoints=5))]
    for pairs in ([], mixed):
        with pytest.raises(ShapeError, match="one key-point count"):
            batch_assignments(params, pairs)


def test_train_step_nodes_do_not_grow_with_batch_size(monkeypatch):
    # the desk network at toy key-point counts: the graph, transport and loss
    # record once per batch whatever its size, and the loss node takes the mean;
    # every node is a layer, none an add or a transpose
    hyper = toy_hyper(attention_layers=6, positional_hidden=HyperParams().positional_hidden)
    pairs = [toy_pair(seed=s, hyper=hyper) for s in range(8)]
    params = ModelParameters.initialize(hyper, seed=0)
    named = params.named_parameters()
    optimizer = learn.AdamState()

    def step_ops(batch_size):
        run = learn.TrainRun(batch_size=batch_size, loss_kind="nll")
        ops = []
        record = ad._node
        monkeypatch.setattr(ad, "_node", lambda *args: ops.append(args[2]) or record(*args))
        learn._train_step(pairs[:batch_size], run, params, named, optimizer)
        monkeypatch.undo()
        return ops

    # encoder blocks 5, the positional output 1, gathers 2, six layers of 6,
    # projections 2, scores 1, dustbin 1, sinkhorn 1, loss 1
    for batch_size in (8, 4):
        ops = step_ops(batch_size)
        assert len(ops) == 50 and ops[-1] == "assignment_loss"
        assert set(ops) == {"linear", "linear_batchnorm_relu", "gather_rows", "attention",
                            "score_matrix", "augment_dustbin", "sinkhorn", "assignment_loss"}


def test_finished_tape_is_freed_without_the_cycle_collector():
    pair = toy_pair(seed=3)
    params = ModelParameters.initialize(toy_hyper(), seed=0)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        assign = batch_assignments(params, [pair], train=True)
        loss = compute_loss("nllp", assign, [pair.labels])
        loss.backward()
        # every op output on the tape, from the loss back to the first encoder:
        # the 23 nodes of test_batch_assignments_node_budget and the loss
        intermediates, stack, seen = [], [loss], set()
        while stack:
            node = stack.pop()
            if node._parents and id(node) not in seen:
                seen.add(id(node))
                intermediates.append(weakref.ref(node))
                stack.extend(node._parents)
        assert len(intermediates) == 24
        del loss, assign, node, stack
        assert [ref for ref in intermediates if ref() is not None] == []
    finally:
        if was_enabled:
            gc.enable()


def test_match_pair_records_no_tape():
    pair = toy_pair(seed=3)
    params = ModelParameters.initialize(toy_hyper(), seed=0)
    result = match_pair(params, pair)
    log_p = result.assignment.log_p
    assert log_p.shape == (len(pair.src_keypoints) + 1, len(pair.tgt_keypoints) + 1)
    assert not log_p.requires_grad
    assert log_p._parents == () and log_p._backward is None
    with ad.no_grad():
        batch = batch_assignments(params, [pair])
        assert np.array_equal(log_p.data, batch.log_p.data[0])
    # recording or not, attention and Sinkhorn run one path
    recorded = batch_assignments(params, [pair])
    assert recorded.log_p.requires_grad
    np.testing.assert_array_equal(log_p.data, recorded.log_p.data[0])
    matches = extract_matches(AssignmentMatrix(Tensor(recorded.log_p.data[0])),
                              params.hyper.match_threshold)
    assert result.matches.pairs == matches.pairs
    assert result.matches.unmatched_rows == matches.unmatched_rows
    assert result.matches.unmatched_cols == matches.unmatched_cols


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


@pytest.mark.parametrize("defect", ["missing", "misshapen", "extra-head"])
def test_checkpoint_requires_every_attention_head(tmp_path, defect):
    path = tmp_path / "model.pmc"
    save_checkpoint(path, ModelParameters.initialize(toy_hyper(), seed=0))

    def edit(meta, arrays):
        key = "param.attention.1.head1.key"
        if defect == "missing":
            del arrays[key]
        elif defect == "misshapen":
            arrays[key] = arrays[key][:1]
        else:
            arrays["param.attention.1.head2.key"] = arrays[key]

    rewrite_container(path, "checkpoint", edit)
    with pytest.raises(ConfigError, match="attention.1.projection"):
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
