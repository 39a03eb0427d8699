"""Rigid 4x4 homogeneous transforms and small rotation helpers."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError

# loose tolerance used to accept externally supplied matrices (parsed text);
# SVD-estimated transforms are orthonormal to machine precision anyway
CONSTRUCT_ATOL = 1e-6


def _check_rigid(matrix: np.ndarray, atol: float) -> None:
    if matrix.shape != (4, 4):
        raise ArgumentError(f"transform must be 4x4, got {matrix.shape}")
    if not np.all(np.isfinite(matrix)):
        raise ArgumentError("transform contains non-finite values")
    if not np.array_equal(matrix[3], [0.0, 0.0, 0.0, 1.0]):
        raise ArgumentError("transform bottom row must be (0, 0, 0, 1)")
    rot = matrix[:3, :3]
    # huge finite entries overflow rot.T @ rot to inf; that fails the test below
    with np.errstate(over="ignore", invalid="ignore"):
        orthonormal = np.allclose(rot.T @ rot, np.eye(3), atol=atol)
    if not orthonormal:
        raise ArgumentError("rotation block is not orthonormal")
    if np.linalg.det(rot) < 0.0:
        raise ArgumentError("rotation block has negative determinant (reflection)")


@dataclass(frozen=True)
class RigidTransform:
    """4x4 homogeneous transform with an orthonormal rotation block."""

    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=np.float64)
        _check_rigid(matrix, CONSTRUCT_ATOL)
        matrix.setflags(write=False)
        object.__setattr__(self, "matrix", matrix)

    @classmethod
    def identity(cls) -> "RigidTransform":
        return cls(np.eye(4))

    @classmethod
    def from_rotation_translation(cls, rotation, translation) -> "RigidTransform":
        mat = np.eye(4)
        mat[:3, :3] = np.asarray(rotation, dtype=np.float64)
        mat[:3, 3] = np.asarray(translation, dtype=np.float64)
        return cls(mat)

    @property
    def rotation(self) -> np.ndarray:
        return self.matrix[:3, :3]

    @property
    def translation(self) -> np.ndarray:
        return self.matrix[:3, 3]

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Map (N, 3) or (3,) points through the transform."""
        pts = np.asarray(points, dtype=np.float64)
        return pts @ self.rotation.T + self.translation

    def inverse(self) -> "RigidTransform":
        rot_t = self.rotation.T
        return RigidTransform.from_rotation_translation(rot_t, -rot_t @ self.translation)

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """Return self applied after ``other`` (matrix product self @ other)."""
        return RigidTransform(self.matrix @ other.matrix)

    def is_strictly_rigid(self, atol: float = 1e-9) -> bool:
        rot = self.rotation
        return bool(
            np.allclose(rot.T @ rot, np.eye(3), atol=atol)
            and abs(np.linalg.det(rot) - 1.0) <= atol
        )

    def __eq__(self, other):
        if not isinstance(other, RigidTransform):
            return NotImplemented
        return np.array_equal(self.matrix, other.matrix)


def rotation_about_axis(axis, angle: float) -> np.ndarray:
    """Rodrigues rotation matrix for a unit-normalized axis."""
    axis = np.asarray(axis, dtype=np.float64)
    norm = np.linalg.norm(axis)
    if norm == 0.0:
        raise ArgumentError("rotation axis must be nonzero")
    x, y, z = axis / norm
    k = np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])
    return np.eye(3) + np.sin(angle) * k + (1.0 - np.cos(angle)) * (k @ k)


def random_rotation(rng: np.random.Generator, max_angle: float) -> np.ndarray:
    """Rotation by a uniform angle in [0, max_angle] about a uniform axis."""
    vec = rng.normal(size=3)
    while np.linalg.norm(vec) < 1e-12:
        vec = rng.normal(size=3)
    angle = rng.uniform(0.0, max_angle)
    return rotation_about_axis(vec, angle)


def rotation_angle(rotation: np.ndarray) -> float:
    """Angle of a rotation matrix via the trace identity, clamped to [0, pi]."""
    cos = 0.5 * (np.trace(rotation) - 1.0)
    return float(np.arccos(np.clip(cos, -1.0, 1.0)))
