"""Preprocessed frame-pair records and their on-disk format.

A preprocessed pair bundles everything training and evaluation need for one
frame pair: both pillar sets with their key-points, ground-truth labels and the
ground-truth transform. Files use the PMC container (kind ``pair``), datasets
are directories of pair files plus a ``manifest.json`` echoing the generating
configuration. A dataset is written one pair at a time and its manifest
last, so a directory whose writing failed has none. Each array of a cloud's
:class:`~.cloud.PillarSet` and its key-points is stored as is under
``{src,tgt}.pillar.*`` and ``{src,tgt}.kp.*``.
"""
from __future__ import annotations

import json
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .cloud import (
    DEFAULT_MATCH_RADIUS,
    DEFAULT_NEIGHBORHOOD,
    DEFAULT_UNMATCH_RADIUS,
    CorrespondenceLabels,
    FramePair,
    KeyPointSet,
    PillarSet,
    PointCloud,
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
    src_pillars: PillarSet
    tgt_pillars: PillarSet
    labels: CorrespondenceLabels
    gt_transform: RigidTransform
    frame_distance: int = 1
    meta: dict = field(default_factory=dict)

    @property
    def src_keypoints(self) -> KeyPointSet:
        return self.src_pillars.keypoints

    @property
    def tgt_keypoints(self) -> KeyPointSet:
        return self.tgt_pillars.keypoints

    @cached_property
    def stacks(self) -> tuple[np.ndarray, np.ndarray]:
        return feature_stacks(self.src_pillars), feature_stacks(self.tgt_pillars)

    @property
    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        return self.src_keypoints.positions, self.tgt_keypoints.positions


def preprocess_frame(
    cloud: PointCloud,
    count: int,
    hyper: HyperParams,
    neighborhood_size: int = DEFAULT_NEIGHBORHOOD,
    min_separation: float | None = None,
) -> PillarSet:
    """One cloud's ``count`` key-points and their pillars, which carry the
    cloud's frame id; the part of :func:`preprocess_pair` that depends on one
    frame only."""
    kps = select_keypoints(cloud, count, neighborhood_size, min_separation)
    return sample_pillars(cloud, kps, hyper.pillar_points, hyper.pillar_radius)


def preprocess_pair(
    pair: FramePair,
    hyper: HyperParams,
    match_radius: float = DEFAULT_MATCH_RADIUS,
    unmatch_radius: float = DEFAULT_UNMATCH_RADIUS,
    neighborhood_size: int = DEFAULT_NEIGHBORHOOD,
    min_separation: float | None = None,
    meta: dict | None = None,
) -> PreprocessedPair:
    """Key-points, pillars and labels for one frame pair.

    Each side of ``pair`` is a cloud, or the pillars :func:`preprocess_frame`
    built from one with the same settings; only the clouds are built here,
    so a frame shared by several pairs is built once. Labels are always per
    pair.
    """

    def pillars(frame, count) -> PillarSet:
        if not isinstance(frame, PillarSet):
            return preprocess_frame(frame, count, hyper, neighborhood_size, min_separation)
        if (len(frame), frame.capacity) != (count, hyper.pillar_points):
            raise ArgumentError(
                f"frame {frame.frame_id!r} has {len(frame)} pillars of capacity "
                f"{frame.capacity}, expected {count} of {hyper.pillar_points}")
        return frame

    src_pillars = pillars(pair.source, hyper.src_keypoints)
    tgt_pillars = pillars(pair.target, hyper.tgt_keypoints)
    labels = label_correspondences(pair, src_pillars.keypoints, tgt_pillars.keypoints,
                                   match_radius, unmatch_radius)
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
        src_pillars=src_pillars,
        tgt_pillars=tgt_pillars,
        labels=labels,
        gt_transform=pair.gt_transform,
        frame_distance=pair.frame_distance,
        meta=info,
    )


def write_pair(path, pair: PreprocessedPair) -> None:
    arrays = {}
    for prefix, pillars in (("src", pair.src_pillars), ("tgt", pair.tgt_pillars)):
        kps = pillars.keypoints
        arrays[f"{prefix}.kp.position"] = kps.positions
        arrays[f"{prefix}.kp.smoothness"] = kps.smoothness
        arrays[f"{prefix}.kp.kind"] = kps.kind
        arrays[f"{prefix}.kp.index"] = kps.index
        arrays[f"{prefix}.pillar.members"] = pillars.members
        arrays[f"{prefix}.pillar.centroid"] = pillars.centroids
        arrays[f"{prefix}.pillar.real_count"] = pillars.real_count
    arrays["gt_transform"] = pair.gt_transform.matrix
    arrays["labels.matched"] = pair.labels.matched_array
    for name in ("unmatched_rows", "unmatched_cols", "ignored_rows", "ignored_cols"):
        arrays[f"labels.{name}"] = np.array(sorted(getattr(pair.labels, name)), dtype=np.int64)
    meta = dict(pair.meta)
    meta["frame_distance"] = pair.frame_distance
    write_container(path, "pair", meta, arrays)


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
    integer labels, kinds and counts, and every label index, pillar count and
    key-point kind (0 planar, 1 sharp) in range."""
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
    for cloud in ("src", "tgt"):
        bounded += [(arrays[f"{cloud}.pillar.real_count"], sizes["z"] + 1),
                    (arrays[f"{cloud}.kp.kind"], 2)]
    for values, stop in bounded:
        if np.any((values < 0) | (values >= stop)):
            raise FormatError(
                f"{path}: a label index, key-point kind or pillar count is out of range")


def read_pair(path) -> PreprocessedPair:
    meta, arrays = read_container(path, expect_kind="pair")
    _check_pair_arrays(path, arrays)
    src_pillars, tgt_pillars = (
        PillarSet(
            keypoints=KeyPointSet(
                positions=arrays[f"{prefix}.kp.position"],
                smoothness=arrays[f"{prefix}.kp.smoothness"],
                kind=arrays[f"{prefix}.kp.kind"],
                index=arrays[f"{prefix}.kp.index"],
            ),
            members=arrays[f"{prefix}.pillar.members"],
            centroids=arrays[f"{prefix}.pillar.centroid"],
            real_count=arrays[f"{prefix}.pillar.real_count"],
        )
        for prefix in ("src", "tgt")
    )
    try:
        labels = CorrespondenceLabels(
            **{name: arrays[f"labels.{name}"] for name in ("matched", *_LABEL_SETS)})
        gt_transform = RigidTransform(arrays["gt_transform"])
    except ArgumentError as exc:
        raise FormatError(f"{path}: {exc}") from None
    meta = dict(meta)
    distance = meta.pop("frame_distance", 1)
    if not isinstance(distance, int) or isinstance(distance, bool):
        raise FormatError(f"{path}: frame_distance must be an integer, got {distance!r}")
    return PreprocessedPair(
        src_pillars=src_pillars,
        tgt_pillars=tgt_pillars,
        labels=labels,
        gt_transform=gt_transform,
        frame_distance=distance,
        meta=meta,
    )


@contextmanager
def dataset_writer(directory, config_echo: dict):
    """Write a dataset one pair at a time: yields ``write(index, pair)``,
    which stores the pair as ``pair_{index:05d}`` at once, and writes the
    manifest, listing the pairs by index, when the block ends without error.

    The directory is made at the first write, and a manifest an earlier run
    left there is removed then, so a block that fails leaves no manifest
    and one that fails before its first pair leaves nothing.
    """
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    names = {}

    def write(index: int, pair: PreprocessedPair) -> None:
        if not names:
            directory.mkdir(parents=True, exist_ok=True)
            manifest_path.unlink(missing_ok=True)
        name = f"pair_{index:05d}{PAIR_SUFFIX}"
        write_pair(directory / name, pair)
        names[index] = name

    yield write
    directory.mkdir(parents=True, exist_ok=True)
    manifest = {"kind": "pair-dataset", "version": 1,
                "pairs": [names[i] for i in sorted(names)], "config": config_echo}
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n")


def write_dataset(directory, pairs, config_echo: dict) -> None:
    """Write pair files plus a manifest; deterministic for equal inputs."""
    with dataset_writer(directory, config_echo) as write:
        for index, pair in enumerate(pairs):
            write(index, pair)


def load_dataset(directory) -> list[PreprocessedPair]:
    directory = Path(directory)
    manifest_path = directory / "manifest.json"
    if not manifest_path.exists():
        raise FormatError(f"{directory}: missing manifest.json")
    try:
        manifest = json.loads(manifest_path.read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{manifest_path}: invalid json: {exc}") from None
    if not isinstance(manifest, dict) or manifest.get("kind") != "pair-dataset":
        raise FormatError(f"{directory}: not a pair dataset")
    names = manifest.get("pairs")
    # each entry names a file in the dataset directory itself, so none reaches outside it
    if not isinstance(names, list) or not all(
            isinstance(n, str) and Path(n).name == n != ".." for n in names):
        raise FormatError(f"{manifest_path}: 'pairs' must be a list of file names in {directory}")
    return [read_pair(directory / name) for name in names]
