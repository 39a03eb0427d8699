import numpy as np
import pytest

from conftest import rewrite_container, toy_hyper, toy_pair

from pillarmatch.cloud import FramePair, SceneConfig, generate_synthetic_pair
from pillarmatch.errors import ArgumentError, FormatError
from pillarmatch.pairio import (
    load_dataset,
    preprocess_frame,
    preprocess_pair,
    read_pair,
    write_dataset,
    write_pair,
)
from pillarmatch.transforms import RigidTransform


def test_pair_round_trip(tmp_path):
    pair = toy_pair(seed=31)
    path = tmp_path / "pair.ppair"
    write_pair(path, pair)
    loaded = read_pair(path)

    for side in ("src_pillars", "tgt_pillars"):
        want, got = getattr(pair, side), getattr(loaded, side)
        for record, copy in ((want, got), (want.keypoints, got.keypoints)):
            for name, arr in vars(record).items():
                if isinstance(arr, np.ndarray):
                    np.testing.assert_array_equal(getattr(copy, name), arr)
                    assert getattr(copy, name).dtype == arr.dtype
    assert loaded.labels == pair.labels
    np.testing.assert_array_equal(loaded.gt_transform.matrix, pair.gt_transform.matrix)
    np.testing.assert_array_equal(loaded.stacks[0], pair.stacks[0])


def test_preprocess_counts_match_hyper():
    hyper = toy_hyper(src_keypoints=10, tgt_keypoints=10, pillar_points=6)
    scene = SceneConfig(point_count=400, overlap=0.9, rotation_bound=0.02,
                        translation_bound=0.1, noise_sigma=0.001, window=6.0,
                        width=4.0, pole_count=6)
    pre = preprocess_pair(generate_synthetic_pair(8, scene), hyper)
    assert len(pre.src_keypoints) == 10
    assert len(pre.tgt_pillars) == 10
    assert pre.src_pillars.capacity == 6
    assert pre.stacks[0].shape == (10, hyper.stack_depth)


def test_preprocess_prebuilt_frames_match_fresh_preprocessing(tmp_path):
    # frames built once by preprocess_frame serve pairs that reuse clouds in
    # both roles and with different key-point counts and neighborhoods; every
    # pair must equal its preprocessing from the clouds
    hyper = toy_hyper(src_keypoints=10, tgt_keypoints=6, pillar_points=5)
    scene = SceneConfig(point_count=400, overlap=0.9, rotation_bound=0.02,
                        translation_bound=0.1, noise_sigma=0.001, window=6.0,
                        width=4.0, pole_count=6)
    frame = generate_synthetic_pair(8, scene)
    reverse = FramePair(frame.target, frame.source, frame.gt_transform.inverse())
    itself = FramePair(frame.source, frame.source, RigidTransform.identity())
    built = {}

    def prebuilt(cloud, count, neighborhood):
        key = (cloud.frame_id, count, neighborhood)
        if key not in built:
            built[key] = preprocess_frame(cloud, count, hyper, neighborhood)
        return built[key]

    calls = [(frame, 10), (reverse, 10), (itself, 10), (frame, 10), (frame, 8)]
    for k, (pair, neighborhood) in enumerate(calls):
        frames = FramePair(prebuilt(pair.source, hyper.src_keypoints, neighborhood),
                           prebuilt(pair.target, hyper.tgt_keypoints, neighborhood),
                           pair.gt_transform, pair.frame_distance)
        mixed = FramePair(frames.source, pair.target, pair.gt_transform, pair.frame_distance)
        fresh = preprocess_pair(pair, hyper, neighborhood_size=neighborhood)
        write_pair(tmp_path / f"fresh{k}.ppair", fresh)
        for name, sides in (("shared", frames), ("mixed", mixed)):
            write_pair(tmp_path / f"{name}{k}.ppair",
                       preprocess_pair(sides, hyper, neighborhood_size=neighborhood))
            assert (tmp_path / f"{name}{k}.ppair").read_bytes() == (
                tmp_path / f"fresh{k}.ppair").read_bytes()
    # one frame per (cloud, key-point count, neighborhood) the calls used
    assert len(built) == 6


def test_preprocess_rejects_prebuilt_frame_of_other_shape():
    hyper = toy_hyper(src_keypoints=10, tgt_keypoints=10, pillar_points=5)
    scene = SceneConfig(point_count=400, window=6.0, width=4.0, pole_count=6)
    frame = generate_synthetic_pair(8, scene)
    for count, capacity in ((8, 5), (10, 4)):
        other = preprocess_frame(frame.source, count, toy_hyper(pillar_points=capacity))
        with pytest.raises(ArgumentError, match="pillars of capacity"):
            preprocess_pair(FramePair(other, frame.target, frame.gt_transform), hyper)


def test_preprocess_labels_nonempty_on_overlapping_scene():
    hyper = toy_hyper(src_keypoints=12, tgt_keypoints=12)
    pre = toy_pair(seed=77, hyper=hyper)
    assert len(pre.labels.matched) >= 3


def test_dataset_round_trip_and_determinism(tmp_path):
    pairs = [toy_pair(seed=50 + k) for k in range(2)]
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    write_dataset(a_dir, pairs, {"seed": 50})
    write_dataset(b_dir, pairs, {"seed": 50})
    for name in ("manifest.json", "pair_00000.ppair", "pair_00001.ppair"):
        assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()
    loaded = load_dataset(a_dir)
    assert len(loaded) == 2
    assert loaded[0].labels == pairs[0].labels


def test_load_dataset_requires_manifest(tmp_path):
    with pytest.raises(FormatError):
        load_dataset(tmp_path)


PAIR_ARRAYS = [
    f"{side}.{name}"
    for side in ("src", "tgt")
    for name in ("kp.position", "kp.smoothness", "kp.kind", "kp.index",
                 "pillar.members", "pillar.centroid", "pillar.real_count")
] + ["gt_transform"] + [
    f"labels.{name}"
    for name in ("matched", "unmatched_rows", "unmatched_cols", "ignored_rows", "ignored_cols")
]


@pytest.mark.parametrize("dropped", PAIR_ARRAYS)
def test_read_pair_missing_array_is_format_error(tmp_path, dropped):
    path = tmp_path / "pair.ppair"
    write_pair(path, toy_pair(seed=31))

    def drop(meta, arrays):
        assert sorted(arrays) == sorted(PAIR_ARRAYS)
        del arrays[dropped]

    rewrite_container(path, "pair", drop)
    with pytest.raises(FormatError, match=dropped):
        read_pair(path)


@pytest.mark.parametrize("manifest", [
    "{not json",
    '{"kind": "pair-dataset", "version": 1}',
    '["pair_00000.ppair"]',
    '{"kind": "pair-dataset", "version": 1, "pairs": "pair_00000.ppair"}',
])
def test_load_dataset_malformed_manifest_is_format_error(tmp_path, manifest):
    (tmp_path / "manifest.json").write_text(manifest)
    with pytest.raises(FormatError):
        load_dataset(tmp_path)


def set_array(name, value):
    def edit(meta, arrays):
        arrays[name] = np.asarray(value)
    return edit


@pytest.mark.parametrize("name,value", [
    ("labels.matched", np.zeros((2, 3), dtype=np.int64)),
    ("labels.matched", np.zeros(4, dtype=np.int64)),
    ("labels.unmatched_rows", np.zeros((1, 1), dtype=np.int64)),
    ("src.kp.position", np.zeros((4, 2))),
    ("tgt.kp.index", np.zeros(3, dtype=np.int64)),
    ("src.pillar.members", np.zeros((4, 5, 4))),
    ("gt_transform", np.eye(3)),
])
def test_read_pair_misshapen_array_is_format_error(tmp_path, name, value):
    path = tmp_path / "pair.ppair"
    write_pair(path, toy_pair(seed=31))
    rewrite_container(path, "pair", set_array(name, value))
    with pytest.raises(FormatError, match="shape"):
        read_pair(path)


@pytest.mark.parametrize("name,value", [
    ("labels.matched", [[0, 4]]),
    ("labels.matched", [[-1, 0]]),
    ("labels.ignored_rows", [4]),
    ("src.pillar.real_count", [5, 0, 0, 0]),
    ("tgt.pillar.real_count", [-1, 0, 0, 0]),
    ("tgt.kp.kind", [256, 0, 0, 0]),
])
def test_read_pair_out_of_range_index_is_format_error(tmp_path, name, value):
    path = tmp_path / "pair.ppair"
    write_pair(path, toy_pair(seed=31))
    rewrite_container(path, "pair", set_array(name, np.asarray(value, dtype=np.int64)))
    with pytest.raises(FormatError, match="out of range"):
        read_pair(path)


@pytest.mark.parametrize("edit", [
    set_array("gt_transform", np.diag([2.0, 1.0, 1.0, 1.0])),
    set_array("labels.matched", np.array([[0, 0], [0, 1]], dtype=np.int64)),
    lambda meta, arrays: meta.update(frame_distance="1"),
    set_array("labels.unmatched_cols", np.array([1.0])),
    set_array("src.pillar.real_count", np.array([1.0, 2.0, 3.0, 4.0])),
    set_array("tgt.kp.position", np.full((4, 3), np.nan)),
], ids=["non-rigid-transform", "not-one-to-one", "string-distance", "float-labels",
        "float-counts", "nan-positions"])
def test_read_pair_inconsistent_content_is_format_error(tmp_path, edit):
    path = tmp_path / "pair.ppair"
    write_pair(path, toy_pair(seed=31))
    rewrite_container(path, "pair", edit)
    with pytest.raises(FormatError):
        read_pair(path)

