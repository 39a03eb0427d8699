"""Key-point selection and pillar sampling on a synthetic scene.

Builds a structured scene (floor, wall, poles), scores every point with the
smoothness term, picks sharp and planar key-points, and samples a pillar
around one of them.
"""
import numpy as np

from pillarmatch import SceneConfig, generate_synthetic_pair, sample_pillar, select_keypoints
from pillarmatch.cloud import KeyPointKind, smoothness_field

pair = generate_synthetic_pair(seed=42, config=SceneConfig(point_count=2000))
cloud = pair.source
print(f"scene: {len(cloud)} points, frame {cloud.frame_id!r}")

values, valid = smoothness_field(cloud)
print(f"smoothness: min {values[valid].min():.4f}  median {np.median(values[valid]):.4f}  "
      f"max {values[valid].max():.4f}")

keypoints = select_keypoints(cloud, count=16)  # a KeyPointSet: one array per field
items = list(keypoints)                         # one KeyPoint value per row
for kp in items[:4] + items[-4:]:
    x, y, z = kp.position
    print(f"  {kp.kind.value:6s} c={kp.smoothness:.4f} at ({x:6.2f}, {y:6.2f}, {z:5.2f})")

sharp = [kp for kp in keypoints if kp.kind is KeyPointKind.SHARP]
pillar = sample_pillar(cloud, sharp[0], capacity=32, radius=0.5)
print(f"\npillar around the sharpest key-point: {pillar.real_count}/32 real members")
print(f"  centroid offset from key-point: "
      f"{np.linalg.norm(pillar.centroid - pillar.keypoint.position):.4f} m")
dists = np.linalg.norm(pillar.members[: pillar.real_count, :3] - pillar.keypoint.position, axis=1)
print(f"  member distances: {dists.min():.3f} .. {dists.max():.3f} m (sorted ascending)")
