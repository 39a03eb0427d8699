"""Preprocessed frame-pair records and their on-disk format.

A preprocessed pair bundles everything training and evaluation need for one
frame pair: both key-point sets, their pillars, ground-truth labels and the
ground-truth transform. Files use the PMC container (kind ``pair``), datasets
are directories of pair files plus a ``manifest.json`` echoing the generating
configuration.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .cloud import (
    CorrespondenceLabels,
    FramePair,
    KeyPoint,
    KeyPointKind,
    Pillar,
    keypoint_positions,
    label_correspondences,
    sample_pillars,
    select_keypoints,
)
from .container import read_container, write_container
from .errors import ArgumentError, FormatError
from .network import HyperParams, feature_stacks
from .transforms import RigidTransform

PAIR_SUFFIX = ".ppair"


@dataclass
class PreprocessedPair:
    src_keypoints: list[KeyPoint]
    tgt_keypoints: list[KeyPoint]
    src_pillars: list[Pillar]
    tgt_pillars: list[Pillar]
    labels: CorrespondenceLabels
    gt_transform: RigidTransform
    frame_distance: int = 1
    meta: dict = field(default_factory=dict)
    _stack_cache: tuple | None = field(default=None, repr=False)

    @property
    def stacks(self) -> tuple[np.ndarray, np.ndarray]:
        if self._stack_cache is None:
            self._stack_cache = (
                feature_stacks(self.src_pillars),
                feature_stacks(self.tgt_pillars),
            )
        return self._stack_cache

    @property
    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        return keypoint_positions(self.src_keypoints), keypoint_positions(self.tgt_keypoints)


def preprocess_pair(
    pair: FramePair,
    hyper: HyperParams,
    match_radius: float = 0.1,
    unmatch_radius: float = 0.5,
    neighborhood_size: int = 10,
    min_separation: float | None = None,
    meta: dict | None = None,
    frames: dict | None = None,
) -> PreprocessedPair:
    """Key-points, pillars and labels for one frame pair.

    ``frames`` is an optional memo shared across calls, keyed by cloud
    identity and by every setting that shapes key-points and pillars: each
    cloud's key-points and pillars are then built once and reused by every
    pair the cloud is part of. Labels are always per pair.
    """
    memo = {} if frames is None else frames

    def per_frame(cloud, count):
        key = (id(cloud), count, neighborhood_size, min_separation,
               hyper.pillar_points, hyper.pillar_radius)
        if key not in memo:
            kps = select_keypoints(cloud, count, neighborhood_size, min_separation)
            pillars = sample_pillars(cloud, kps, hyper.pillar_points, hyper.pillar_radius)
            # the entry holds the cloud, so no other cloud can take its id
            memo[key] = (cloud, kps, pillars)
        _, kps, pillars = memo[key]
        return list(kps), list(pillars)

    src_kps, src_pillars = per_frame(pair.source, hyper.src_keypoints)
    tgt_kps, tgt_pillars = per_frame(pair.target, hyper.tgt_keypoints)
    labels = label_correspondences(pair, src_kps, tgt_kps, match_radius, unmatch_radius)
    info = {
        "source_frame": pair.source.frame_id,
        "target_frame": pair.target.frame_id,
        "match_radius": match_radius,
        "unmatch_radius": unmatch_radius,
        "neighborhood_size": neighborhood_size,
    }
    if meta:
        info.update(meta)
    return PreprocessedPair(
        src_keypoints=src_kps,
        tgt_keypoints=tgt_kps,
        src_pillars=src_pillars,
        tgt_pillars=tgt_pillars,
        labels=labels,
        gt_transform=pair.gt_transform,
        frame_distance=pair.frame_distance,
        meta=info,
    )


def _keypoint_arrays(prefix: str, kps: list[KeyPoint]) -> dict:
    return {
        f"{prefix}.kp.position": keypoint_positions(kps),
        f"{prefix}.kp.smoothness": np.array([k.smoothness for k in kps]),
        f"{prefix}.kp.kind": np.array(
            [1 if k.kind is KeyPointKind.SHARP else 0 for k in kps], dtype=np.uint8
        ),
        f"{prefix}.kp.index": np.array([k.index for k in kps], dtype=np.int64),
    }


def _pillar_arrays(prefix: str, pillars: list[Pillar]) -> dict:
    return {
        f"{prefix}.pillar.members": np.stack([p.members for p in pillars]),
        f"{prefix}.pillar.centroid": np.stack([p.centroid for p in pillars]),
        f"{prefix}.pillar.real_count": np.array([p.real_count for p in pillars], dtype=np.int64),
    }


def write_pair(path, pair: PreprocessedPair) -> None:
    arrays = {}
    arrays.update(_keypoint_arrays("src", pair.src_keypoints))
    arrays.update(_keypoint_arrays("tgt", pair.tgt_keypoints))
    arrays.update(_pillar_arrays("src", pair.src_pillars))
    arrays.update(_pillar_arrays("tgt", pair.tgt_pillars))
    arrays["gt_transform"] = pair.gt_transform.matrix
    arrays["labels.matched"] = pair.labels.matched_array
    for name in ("unmatched_rows", "unmatched_cols", "ignored_rows", "ignored_cols"):
        arrays[f"labels.{name}"] = np.array(sorted(getattr(pair.labels, name)), dtype=np.int64)
    meta = dict(pair.meta)
    meta["frame_distance"] = pair.frame_distance
    write_container(path, "pair", meta, arrays)


def _read_keypoints(prefix: str, arrays: dict) -> list[KeyPoint]:
    pos = arrays[f"{prefix}.kp.position"]
    smooth = arrays[f"{prefix}.kp.smoothness"]
    kind = arrays[f"{prefix}.kp.kind"]
    index = arrays[f"{prefix}.kp.index"]
    return [
        KeyPoint(
            position=pos[i],
            smoothness=float(smooth[i]),
            kind=KeyPointKind.SHARP if kind[i] else KeyPointKind.PLANAR,
            index=int(index[i]),
        )
        for i in range(len(pos))
    ]


def _read_pillars(prefix: str, arrays: dict, kps: list[KeyPoint]) -> list[Pillar]:
    members = arrays[f"{prefix}.pillar.members"]
    centroids = arrays[f"{prefix}.pillar.centroid"]
    counts = arrays[f"{prefix}.pillar.real_count"]
    return [
        Pillar(
            keypoint=kps[i],
            centroid=centroids[i],
            members=members[i],
            real_count=int(counts[i]),
        )
        for i in range(len(members))
    ]


# shape of each array of one cloud in a pair file; "n" is the key-point count
# of that cloud and "z" the pillar capacity shared by both clouds
_CLOUD_SHAPES = {
    "kp.position": ("n", 3), "kp.smoothness": ("n",), "kp.kind": ("n",), "kp.index": ("n",),
    "pillar.members": ("n", "z", 4), "pillar.centroid": ("n", 3), "pillar.real_count": ("n",),
}
_LABEL_SETS = {"unmatched_rows": "src", "unmatched_cols": "tgt",
               "ignored_rows": "src", "ignored_cols": "tgt"}
_INTEGER_ARRAYS = ("kp.kind", "kp.index", "pillar.real_count")


def _check_pair_arrays(path, arrays: dict) -> None:
    """Every array a pair file needs, with consistent shapes, finite values,
    integer labels and counts, and label indices inside their cloud."""
    expected = {"gt_transform": (4, 4), "labels.matched": ("matched", 2)}
    for prefix in ("src", "tgt"):
        for key, shape in _CLOUD_SHAPES.items():
            expected[f"{prefix}.{key}"] = tuple(prefix if d == "n" else d for d in shape)
    expected.update({f"labels.{name}": (name,) for name in _LABEL_SETS})
    sizes = {}
    for name, shape in expected.items():
        if name not in arrays:
            raise FormatError(f"{path}: pair file lacks array {name!r}")
        arr = arrays[name]
        if arr.ndim != len(shape) or any(
            sizes.setdefault(d, g) != g if isinstance(d, str) else d != g
            for d, g in zip(shape, arr.shape)
        ):
            raise FormatError(f"{path}: array {name!r} has shape {arr.shape}, expected {shape}")
        integral = name.startswith("labels.") or name.endswith(_INTEGER_ARRAYS)
        if integral and arr.dtype.kind not in "iu":
            raise FormatError(f"{path}: array {name!r} must hold integers, found {arr.dtype}")
        if not np.all(np.isfinite(arr)):
            raise FormatError(f"{path}: array {name!r} holds non-finite values")
    bounded = [(arrays["labels.matched"][:, 0], sizes["src"]),
               (arrays["labels.matched"][:, 1], sizes["tgt"])]
    bounded += [(arrays[f"labels.{name}"], sizes[cloud]) for name, cloud in _LABEL_SETS.items()]
    bounded += [(arrays[f"{cloud}.pillar.real_count"], sizes["z"] + 1) for cloud in ("src", "tgt")]
    for values, stop in bounded:
        if np.any((values < 0) | (values >= stop)):
            raise FormatError(f"{path}: a label index or pillar count is out of range")


def read_pair(path) -> PreprocessedPair:
    meta, arrays = read_container(path, expect_kind="pair")
    _check_pair_arrays(path, arrays)
    try:
        src_kps = _read_keypoints("src", arrays)
        tgt_kps = _read_keypoints("tgt", arrays)
        labels = CorrespondenceLabels(
            matched=frozenset((int(i), int(j)) for i, j in arrays["labels.matched"]),
            unmatched_rows=frozenset(int(v) for v in arrays["labels.unmatched_rows"]),
            unmatched_cols=frozenset(int(v) for v in arrays["labels.unmatched_cols"]),
            ignored_rows=frozenset(int(v) for v in arrays["labels.ignored_rows"]),
            ignored_cols=frozenset(int(v) for v in arrays["labels.ignored_cols"]),
        )
        gt_transform = RigidTransform(arrays["gt_transform"])
    except ArgumentError as exc:
        raise FormatError(f"{path}: {exc}") from None
    meta = dict(meta)
    distance = meta.pop("frame_distance", 1)
    if not isinstance(distance, int) or isinstance(distance, bool):
        raise FormatError(f"{path}: frame_distance must be an integer, got {distance!r}")
    return PreprocessedPair(
        src_keypoints=src_kps,
        tgt_keypoints=tgt_kps,
        src_pillars=_read_pillars("src", arrays, src_kps),
        tgt_pillars=_read_pillars("tgt", arrays, tgt_kps),
        labels=labels,
        gt_transform=gt_transform,
        frame_distance=distance,
        meta=meta,
    )


def write_dataset(directory, pairs, config_echo: dict) -> None:
    """Write pair files plus a manifest; deterministic for equal inputs."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    names = []
    for index, pair in enumerate(pairs):
        name = f"pair_{index:05d}{PAIR_SUFFIX}"
        write_pair(directory / name, pair)
        names.append(name)
    manifest = {"kind": "pair-dataset", "version": 1, "pairs": names, "config": config_echo}
    (directory / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    )


def load_dataset(directory) -> list[PreprocessedPair]:
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise FormatError(f"{directory}: missing manifest.json")
    try:
        manifest = json.loads(manifest_path.read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{manifest_path}: invalid json: {exc}") from None
    if not isinstance(manifest, dict) or manifest.get("kind") != "pair-dataset":
        raise FormatError(f"{directory}: not a pair dataset")
    names = manifest.get("pairs")
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise FormatError(f"{manifest_path}: 'pairs' must be a list of file names")
    return [read_pair(directory / name) for name in names]
