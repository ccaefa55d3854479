"""Localize query views step by step and visualize what attention looks at.

Trains a small map, then walks one query through the full localization
chain -- retrieval, voxel activation, confident 2D-3D correspondences,
PnP+RANSAC -- and finally exports an attention heatmap for one code so you
can see which keypoints a single code responds to.

Run:  python3 demos/03_localize_and_heatmap.py   (about 2 minutes on a CPU)
"""

import numpy as np

from voxloc import scene as scene_mod
from voxloc.initialization import aligned_decoder_init, inject_codes
from voxloc.pipeline import (LocalizeOptions, activate_voxels, export_heatmap,
                             localize, retrieve_views)
from voxloc.geometry import pose_error
from voxloc.synthworld import WorldConfig, generate_dataset
from voxloc.training import TrainConfig, run_training

config = WorldConfig(num_points=500, num_ref_views=40, num_query_views=6,
                     extent=(6.0, 6.0, 3.0), seed=1)
dataset = generate_dataset(config)
dims = (4, 96, 24)
scene = scene_mod.build_scene(list(dataset.points.values()), 4.0, dims,
                              np.random.default_rng(0))
scene_mod.assign_coverage(scene, dataset)
scene_mod.drop_uncovered(scene)
params = aligned_decoder_init(np.random.default_rng(1),
                              d=dims[2], num_blocks=dims[0])
inject_codes(scene, dataset, params, np.random.default_rng(2))
run_training(scene, dataset, params,
             TrainConfig(epochs_stage1=30, epochs_stage2=15,
                         keypoints_per_sample=0))
print(f"map ready: {len(scene.voxels)} voxels, "
      f"{scene_mod.size_bytes(scene, 4)} bytes")

# --- one query, step by step -------------------------------------------------
query = dataset.query_views[0]
truth = dataset.evaluation_ground_truth().query_poses[0]
print(f"\nquery 0: {query.num_keypoints} keypoints, pose unknown")

retrieved = retrieve_views(query, dataset, top_k=10)
print(f"retrieval: top-10 reference views by descriptor similarity: "
      f"{retrieved}")
activated = activate_voxels(retrieved, scene)
print(f"activation: {len(activated)} voxels covered by those views")

result = localize(query, scene, params, dataset, LocalizeOptions())
print(f"decode: {result.num_candidate_points} (keypoint, voxel) pairs -> "
      f"{result.num_decoded_pairs} routed by block 0 and decoded -> "
      f"{result.num_confident_points} confident (c >= 0.5) -> "
      f"{result.num_inliers} RANSAC inliers")
if result.success:
    dt, dr = pose_error(result.pose, truth)
    print(f"pose: {dt * 100:.1f} cm / {dr:.2f} deg from ground truth "
          f"in {result.wall_time_s * 1e3:.0f} ms")
else:
    print("localization failed")

# --- attention heatmap --------------------------------------------------------
# scores of one code over a reference view's keypoints, one CSV row each
voxel_id = sorted(scene.voxels)[0]
export_heatmap(dataset.views[0], scene, params, voxel_id, block=0, code=0,
               csv_path="/tmp/heatmap.csv")
print(f"\nattention scores for voxel {tuple(voxel_id)}, block 0, code 0 "
      "written to /tmp/heatmap.csv")
