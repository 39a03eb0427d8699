import json
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import rewrite_container, toy_hyper, toy_pair

from pillarmatch.container import read_container, write_container
from pillarmatch.errors import ArgumentError, ConfigError, FormatError
from pillarmatch.network import ModelParameters, load_checkpoint, save_checkpoint
from pillarmatch.pairio import read_pair, write_pair
from pillarmatch.transforms import RigidTransform, rotation_about_axis, rotation_angle


def test_container_round_trip(tmp_path, rng):
    arrays = {
        "a": rng.normal(size=(3, 4)),
        "b": rng.normal(size=7).astype(np.float32),
        "c": np.arange(5, dtype=np.int64),
        "d": np.array([1, 0, 1], dtype=np.uint8),
    }
    meta = {"alpha": 1, "nested": {"x": [1, 2, 3]}}
    path = tmp_path / "file.pmc"
    write_container(path, "pair", meta, arrays)
    got_meta, got = read_container(path, expect_kind="pair")
    assert got_meta == meta
    for name, arr in arrays.items():
        np.testing.assert_array_equal(got[name], arr)
        assert got[name].dtype == arr.dtype


def test_container_deterministic(tmp_path, rng):
    arrays = {"x": rng.normal(size=(4, 4))}
    a, b = tmp_path / "a.pmc", tmp_path / "b.pmc"
    write_container(a, "pair", {"k": 1}, arrays)
    write_container(b, "pair", {"k": 1}, arrays)
    assert a.read_bytes() == b.read_bytes()


def test_container_wrong_kind(tmp_path):
    path = tmp_path / "x.pmc"
    write_container(path, "pair", {}, {"a": np.zeros(2)})
    with pytest.raises(FormatError):
        read_container(path, expect_kind="checkpoint")


def test_container_bad_magic(tmp_path):
    path = tmp_path / "x.pmc"
    path.write_bytes(b"NOPE\n12\n{}")
    with pytest.raises(FormatError):
        read_container(path)


def test_container_truncated(tmp_path):
    path = tmp_path / "x.pmc"
    write_container(path, "pair", {}, {"a": np.zeros(100)})
    path.write_bytes(path.read_bytes()[:-50])
    with pytest.raises(FormatError):
        read_container(path)


def write_raw(path, manifest, payload=b"") -> None:
    """A container with a hand-written manifest, bypassing write_container."""
    blob = json.dumps(manifest).encode("utf-8")
    path.write_bytes(b"PMC1\n" + str(len(blob)).encode("ascii") + b"\n" + blob + b"\n" + payload)


def entry(**overrides):
    base = {"name": "a", "dtype": "<f8", "shape": [2, 3], "offset": 0, "nbytes": 48}
    base.update(overrides)
    return {k: v for k, v in base.items() if v is not None}


@pytest.mark.parametrize("manifest", [
    [{"kind": "pair", "version": 1}],
    {"kind": "pair", "version": 1, "meta": {}},
    {"kind": "pair", "version": 1, "arrays": []},
    {"kind": "pair", "version": 1, "meta": [], "arrays": []},
    {"kind": "pair", "version": 1, "meta": {}, "arrays": [entry(name=None)]},
    {"kind": "pair", "version": 1, "meta": {}, "arrays": [entry(shape=[4, 3])]},
    {"kind": "pair", "version": 1, "meta": {}, "arrays": [entry(offset=-8)]},
    {"kind": "pair", "version": 1, "meta": {}, "arrays": [entry(shape=7)]},
    {"kind": "pair", "version": 1, "meta": {}, "arrays": [entry(shape=[2, -3])]},
    {"kind": "pair", "version": 1, "meta": {}, "arrays": [entry(nbytes="48")]},
    {"kind": "pair", "version": 1, "meta": {}, "arrays": [entry(dtype=None)]},
    {"kind": "pair", "version": 1, "meta": {}, "arrays": ["a"]},
], ids=["list-manifest", "no-arrays", "no-meta", "list-meta", "entry-without-name",
        "shape-over-payload", "negative-offset", "scalar-shape", "negative-dim",
        "string-nbytes", "no-dtype", "string-entry"])
def test_container_malformed_manifest_is_format_error(tmp_path, manifest):
    path = tmp_path / "x.pmc"
    write_raw(path, manifest, np.zeros(6).tobytes())
    with pytest.raises(FormatError):
        read_container(path)


def test_container_hand_written_manifest_reads(tmp_path):
    path = tmp_path / "x.pmc"
    values = np.arange(6.0)
    write_raw(path, {"kind": "pair", "version": 1, "meta": {}, "arrays": [entry()]},
              values.tobytes())
    _, arrays = read_container(path)
    np.testing.assert_array_equal(arrays["a"], values.reshape(2, 3))


@pytest.fixture(scope="module")
def pristine_files(tmp_path_factory):
    """Bytes of one written pair file and one checkpoint, plus a scratch path."""
    root = tmp_path_factory.mktemp("fuzz")
    pair_path, checkpoint_path = root / "pair.ppair", root / "model.pmc"
    write_pair(pair_path, toy_pair(seed=31))
    save_checkpoint(checkpoint_path, ModelParameters.initialize(toy_hyper(), seed=0))
    return {"pair": pair_path.read_bytes(), "checkpoint": checkpoint_path.read_bytes(),
            "scratch": root / "mutated.pmc"}


def mutate(raw: bytes, cut, flips) -> bytes:
    """Truncate to ``cut`` bytes when given, then replace bytes at ``flips``;
    positions wrap around the file length."""
    data = bytearray(raw if cut is None else raw[: cut % len(raw)])
    for position, value in flips:
        if data:
            data[position % len(data)] = value
    return bytes(data)


MUTATIONS = dict(
    kind=st.sampled_from(["pair", "checkpoint"]),
    cut=st.none() | st.integers(min_value=0, max_value=2 ** 20),
    # positions below 3000 land in the header or the manifest most of the time
    flips=st.lists(st.tuples(st.integers(0, 3000) | st.integers(0, 2 ** 20),
                             st.integers(0, 255)), max_size=4),
)


@settings(max_examples=300, deadline=None)
@given(**MUTATIONS)
def test_corrupted_container_raises_only_format_error(pristine_files, kind, cut, flips):
    path = pristine_files["scratch"]
    path.write_bytes(mutate(pristine_files[kind], cut, flips))
    try:
        read_container(path, expect_kind=kind)
    except FormatError:
        pass


@settings(max_examples=150, deadline=None)
@given(**MUTATIONS)
def test_corrupted_pair_or_checkpoint_raises_only_typed_errors(pristine_files, kind, cut, flips):
    path = pristine_files["scratch"]
    path.write_bytes(mutate(pristine_files[kind], cut, flips))
    try:
        read_pair(path) if kind == "pair" else load_checkpoint(path)
    except FormatError:
        pass
    except ConfigError:
        assert kind == "checkpoint"


# ---------------------------------------------------------------------------
# rigid transforms
# ---------------------------------------------------------------------------

def test_transform_apply_inverse(rng):
    rot = rotation_about_axis(rng.normal(size=3), 0.4)
    t = RigidTransform.from_rotation_translation(rot, [1.0, -2.0, 0.5])
    pts = rng.normal(size=(10, 3))
    np.testing.assert_allclose(t.inverse().apply(t.apply(pts)), pts, atol=1e-12)


def test_transform_compose_matches_matrix(rng):
    a = RigidTransform.from_rotation_translation(
        rotation_about_axis([0, 0, 1], 0.3), [1, 0, 0]
    )
    b = RigidTransform.from_rotation_translation(
        rotation_about_axis([1, 0, 0], -0.2), [0, 2, 0]
    )
    np.testing.assert_allclose(a.compose(b).matrix, a.matrix @ b.matrix)


def test_transform_rejects_reflection():
    mat = np.eye(4)
    mat[0, 0] = -1.0
    with pytest.raises(ArgumentError):
        RigidTransform(mat)


def test_transform_rejects_bad_bottom_row():
    mat = np.eye(4)
    mat[3, 0] = 0.1
    with pytest.raises(ArgumentError):
        RigidTransform(mat)


def huge_entry_transform():
    mat = np.eye(4)
    mat[0, 1] = 1e200  # finite, but rot.T @ rot overflows
    return mat


def test_transform_rejects_huge_entry_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArgumentError, match="orthonormal"):
            RigidTransform(huge_entry_transform())


def test_read_pair_huge_transform_is_format_error_without_warning(tmp_path):
    path = tmp_path / "pair.ppair"
    write_pair(path, toy_pair(seed=31))

    def edit(meta, arrays):
        arrays["gt_transform"] = huge_entry_transform()

    rewrite_container(path, "pair", edit)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(FormatError):
            read_pair(path)


def test_rotation_angle_identity_and_known():
    assert rotation_angle(np.eye(3)) == 0.0
    rot = rotation_about_axis([0.3, -1.0, 0.2], 0.77)
    assert rotation_angle(rot) == pytest.approx(0.77, abs=1e-12)
