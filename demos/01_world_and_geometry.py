"""A tour of the geometric core on a small synthetic world.

Generates a procedural multi-view world, inspects how well the DLT
triangulator reconstructs the reference tracks, and localizes a camera from
noisy 2D-3D correspondences with PnP + RANSAC -- no learning involved yet.

Run:  python3 demos/01_world_and_geometry.py
"""

import numpy as np

from voxloc.geometry import pose_error, project_many, ransac_pnp
from voxloc.synthworld import WorldConfig, build_dataset, generate_world

config = WorldConfig(num_points=400, num_ref_views=30, num_query_views=3,
                     seed=5)
world = generate_world(config)
print(f"world: {config.num_points} points in a "
      f"{config.extent[0]:.0f}x{config.extent[1]:.0f}x{config.extent[2]:.0f} m"
      f" box, {config.num_ref_views} reference cameras on a jittered orbit")

# --- triangulation quality -------------------------------------------------
dataset = build_dataset(world, config)
errors = []
for pid, point in dataset.points.items():
    if point.valid:
        errors.append(np.linalg.norm(point.position - world.points[pid]))
valid = len(errors)
print(f"\ntriangulated {valid}/{config.num_points} tracks "
      f"({valid / config.num_points:.0%} valid)")
print(f"triangulation error vs generator ground truth: "
      f"median {np.median(errors) * 1000:.1f} mm, "
      f"95th pct {np.percentile(errors, 95) * 1000:.1f} mm")
print("(training only ever sees these triangulated coordinates, "
      "never the ground truth)")

# --- PnP + RANSAC under outliers --------------------------------------------
# build correspondences for one query camera: 70% lightly noisy pixels,
# 30% uniform garbage, as if a matcher had produced bad associations; row i
# of `points` is seen at row i of `pixels`
truth = world.query_poses[0]
rng = np.random.default_rng(0)
k = world.intrinsics
points, pixels = [], []
# points behind the camera project to NaN and fail the image-bounds test
for x, pix in zip(world.points, project_many(truth, k, world.points)[0]):
    if not (0 <= pix[0] <= k.width and 0 <= pix[1] <= k.height):
        continue
    if rng.random() < 0.3:
        pix = np.array([rng.uniform(0, k.width), rng.uniform(0, k.height)])
    else:
        pix = pix + rng.normal(0.0, 1.0, size=2)
    points.append(x)
    pixels.append(pix)

result = ransac_pnp(np.array(points), np.array(pixels), k, inlier_tol=3.0,
                    max_iters=500, seed=0)
dt, dr = pose_error(result.pose, truth)
print(f"\nPnP+RANSAC from {len(points)} correspondences (30% outliers): "
      f"{result.num_inliers} inliers")
print(f"recovered camera center within {dt * 1000:.1f} mm, "
      f"rotation within {dr:.3f} deg")
