"""Versioned binary container used for pair files and checkpoints.

Layout (all little-endian, deterministic byte-for-byte for equal inputs):

    line 1: magic ``PMC1`` + newline
    line 2: ascii byte length of the manifest + newline
    manifest: UTF-8 JSON with sorted keys, followed by one newline
    payload: raw C-order array bytes, concatenated

The manifest is ``{"kind": ..., "version": 1, "meta": {...}, "arrays": [...]}``
where each array entry records name, dtype string (``<f8`` etc.), shape and
byte offset into the payload. Files are self-describing: a reader needs no
out-of-band schema.
"""
from __future__ import annotations

import json
import math
import numbers
from pathlib import Path

import numpy as np

from .errors import FormatError

MAGIC = b"PMC1"
VERSION = 1

# dtype codes accepted in containers; everything is stored little-endian
_DTYPES = {"<f4", "<f8", "<i8", "|u1"}


def _canonical_dtype(arr: np.ndarray) -> str:
    kind = arr.dtype.kind
    if kind == "f":
        return "<f4" if arr.dtype.itemsize == 4 else "<f8"
    if kind in ("i", "b"):
        return "<i8"
    if kind == "u":
        return "|u1"
    raise FormatError(f"unsupported array dtype {arr.dtype!r}")


def write_container(path, kind: str, meta: dict, arrays: dict[str, np.ndarray]) -> None:
    entries = []
    payload = bytearray()
    for name in sorted(arrays):
        arr = np.asarray(arrays[name])
        shape = list(arr.shape)  # before ascontiguousarray, which promotes 0-d to 1-d
        code = _canonical_dtype(arr)
        arr = np.ascontiguousarray(arr).astype(np.dtype(code), copy=False)
        entries.append(
            {
                "name": name,
                "dtype": code,
                "shape": shape,
                "offset": len(payload),
                "nbytes": arr.nbytes,
            }
        )
        payload.extend(arr.tobytes(order="C"))
    manifest = {"kind": kind, "version": VERSION, "meta": meta, "arrays": entries}
    blob = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC + b"\n")
        fh.write(str(len(blob)).encode("ascii") + b"\n")
        fh.write(blob)
        fh.write(b"\n")
        fh.write(bytes(payload))


def read_container(path, expect_kind: str | None = None):
    """Return ``(meta, arrays)``; raises FormatError on any structural problem."""
    path = Path(path)
    raw = path.read_bytes()
    head, sep, rest = raw.partition(b"\n")
    if head != MAGIC or not sep:
        raise FormatError(f"{path}: not a PMC container")
    size_line, sep, rest = rest.partition(b"\n")
    try:
        manifest_len = int(size_line)
    except ValueError:
        raise FormatError(f"{path}: corrupt manifest length") from None
    if not sep or manifest_len < 0 or len(rest) < manifest_len + 1:
        raise FormatError(f"{path}: truncated manifest")
    try:
        manifest = json.loads(rest[:manifest_len].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FormatError(f"{path}: bad manifest json: {exc}") from None
    if not isinstance(manifest, dict):
        raise FormatError(f"{path}: manifest is not a JSON object")
    if manifest.get("version") != VERSION:
        raise FormatError(f"{path}: unsupported container version {manifest.get('version')!r}")
    if expect_kind is not None and manifest.get("kind") != expect_kind:
        raise FormatError(
            f"{path}: expected kind {expect_kind!r}, found {manifest.get('kind')!r}"
        )
    meta, entries = manifest.get("meta"), manifest.get("arrays")
    if not isinstance(meta, dict) or not isinstance(entries, list):
        raise FormatError(f"{path}: manifest needs a 'meta' object and an 'arrays' list")
    payload = rest[manifest_len + 1 :]
    arrays = {}
    for entry in entries:
        name, code, shape, start, nbytes = _check_entry(path, entry, len(payload))
        arr = np.frombuffer(payload[start : start + nbytes], dtype=np.dtype(code))
        arrays[name] = arr.reshape(shape).copy()
    return meta, arrays


def is_count(value, minimum: int = 0) -> bool:
    """Whether a manifest value is an integer (not a bool) of at least ``minimum``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= minimum


def is_finite_real(value) -> bool:
    """Whether a manifest value is a finite real number (not a bool)."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def _check_entry(path, entry, payload_len: int):
    """``(name, dtype, shape, offset, nbytes)`` of one manifest array entry,
    after checking its types and that its bytes lie inside the payload."""
    if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
        raise FormatError(f"{path}: array entry without a name: {entry!r}")
    name, code, shape = entry["name"], entry.get("dtype"), entry.get("shape")
    if code not in _DTYPES:
        raise FormatError(f"{path}: unknown dtype {code!r} for array {name!r}")
    if not isinstance(shape, list) or not all(is_count(d) for d in shape):
        raise FormatError(f"{path}: bad shape {shape!r} for array {name!r}")
    start, nbytes = entry.get("offset"), entry.get("nbytes")
    if not is_count(start) or not is_count(nbytes):
        raise FormatError(f"{path}: bad offset or nbytes for array {name!r}")
    if nbytes != math.prod(shape) * np.dtype(code).itemsize:
        raise FormatError(f"{path}: nbytes {nbytes} does not match shape {shape} of {name!r}")
    if start + nbytes > payload_len:
        raise FormatError(f"{path}: truncated payload for array {name!r}")
    return name, code, tuple(shape), start, nbytes
