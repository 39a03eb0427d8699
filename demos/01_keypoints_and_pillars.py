"""Key-point selection and pillar sampling on a synthetic scene.

Builds a structured scene (floor, wall, poles), scores every point with the
smoothness term, picks sharp and planar key-points, and samples a pillar
around one of them.
"""
import numpy as np

from pillarmatch import SceneConfig, generate_synthetic_pair, sample_pillars, select_keypoints
from pillarmatch.cloud import smoothness_field

pair = generate_synthetic_pair(seed=42, config=SceneConfig(point_count=2000))
cloud = pair.source
print(f"scene: {len(cloud)} points, frame {cloud.frame_id!r}")

values, valid = smoothness_field(cloud)
print(f"smoothness: min {values[valid].min():.4f}  median {np.median(values[valid]):.4f}  "
      f"max {values[valid].max():.4f}")

keypoints = select_keypoints(cloud, count=16)  # a KeyPointSet: one array per field
for i in [*range(4), *range(len(keypoints) - 4, len(keypoints))]:
    x, y, z = keypoints.positions[i]
    kind = "sharp" if keypoints.kind[i] else "planar"
    print(f"  {kind:6s} c={keypoints.smoothness[i]:.4f} at ({x:6.2f}, {y:6.2f}, {z:5.2f})")

# key-points come sharpest first, so row 0 is the sharpest
pillars = sample_pillars(cloud, keypoints, capacity=32, radius=0.5)
real, position = pillars.real_count[0], keypoints.positions[0]
print(f"\npillar around the sharpest key-point: {real}/32 real members")
print(f"  centroid offset from key-point: "
      f"{np.linalg.norm(pillars.centroids[0] - position):.4f} m")
dists = np.linalg.norm(pillars.members[0, :real, :3] - position, axis=1)
print(f"  member distances: {dists.min():.3f} .. {dists.max():.3f} m (sorted ascending)")
