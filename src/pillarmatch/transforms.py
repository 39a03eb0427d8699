"""Rigid 4x4 homogeneous transforms and small rotation helpers."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError

# loose tolerance used to accept externally supplied matrices (parsed text).
# Rigidity is validated at the boundaries (pose and pair files, the public
# constructors) and once on each result a public function returns; ICP and
# the SVD estimate iterate on plain arrays in between
CONSTRUCT_ATOL = 1e-6


def _check_rigid(matrix: np.ndarray, atol: float) -> None:
    if matrix.shape != (4, 4):
        raise ArgumentError(f"transform must be 4x4, got {matrix.shape}")
    if not np.isfinite(matrix).all():
        raise ArgumentError("transform contains non-finite values")
    if matrix[3].tolist() != [0.0, 0.0, 0.0, 1.0]:
        raise ArgumentError("transform bottom row must be (0, 0, 0, 1)")
    rot = matrix[:3, :3]
    # np.allclose(rot.T @ rot, I, atol=atol) with its default rtol, spelt out;
    # huge finite entries overflow rot.T @ rot to inf, which fails it
    eye = np.eye(3)
    with np.errstate(over="ignore", invalid="ignore"):
        orthonormal = (np.abs(rot.T @ rot - eye) <= atol + 1e-5 * eye).all()
    if not orthonormal:
        raise ArgumentError("rotation block is not orthonormal")
    if np.linalg.det(rot) < 0.0:
        raise ArgumentError("rotation block has negative determinant (reflection)")


def rigid_matrix(rotation, translation) -> np.ndarray:
    """Unchecked (4, 4) homogeneous matrix from a rotation block and a translation."""
    mat = np.eye(4)
    mat[:3, :3] = rotation
    mat[:3, 3] = translation
    return mat


def rigid_inverse(matrix: np.ndarray) -> np.ndarray:
    """Unchecked inverse [R^T | -R^T t] of a rigid (4, 4) matrix."""
    rot_t = matrix[:3, :3].T
    return rigid_matrix(rot_t, -rot_t @ matrix[:3, 3])


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
        return cls(rigid_matrix(np.asarray(rotation, dtype=np.float64),
                                np.asarray(translation, dtype=np.float64)))

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
        return RigidTransform(rigid_inverse(self.matrix))

    def compose(self, other: "RigidTransform") -> "RigidTransform":
        """Return self applied after ``other`` (matrix product self @ other)."""
        return RigidTransform(self.matrix @ other.matrix)

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
