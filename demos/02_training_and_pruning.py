"""Train a compact neural map on a small world, then prune and fine-tune it.

Walks the full mapping pipeline at toy scale: voxelize the triangulated
points, seed the per-voxel code banks from the scene's own observations,
run the two-stage schedule, and show what pruning half the codes does to
the map size and the localization quality.

Run:  python3 demos/02_training_and_pruning.py   (about 2 minutes on a CPU)
"""

import dataclasses

import numpy as np

from voxloc import scene as scene_mod
from voxloc.initialization import aligned_decoder_init, inject_codes
from voxloc.pipeline import LocalizeOptions, evaluate_scene
from voxloc.synthworld import WorldConfig, generate_dataset
from voxloc.training import TrainConfig, run_training

config = WorldConfig(num_points=500, num_ref_views=40, num_query_views=6,
                     extent=(6.0, 6.0, 3.0), seed=1)
dataset = generate_dataset(config)

dims = (4, 96, 24)  # blocks x codes per block x code width
scene = scene_mod.build_scene(list(dataset.points.values()), 4.0, dims,
                              np.random.default_rng(0))
scene_mod.assign_coverage(scene, dataset)
scene_mod.drop_uncovered(scene)
print(f"scene: {len(scene.voxels)} voxels of 4 m, code banks "
      f"{dims[0]}x{dims[1]}x{dims[2]}, "
      f"{scene_mod.size_bytes(scene, 4)} bytes")

params = aligned_decoder_init(np.random.default_rng(1),
                              d=dims[2], num_blocks=dims[0])
inject_codes(scene, dataset, params, np.random.default_rng(2))
print("decoder aligned-initialized; codes injected from the reference views")

train = TrainConfig(epochs_stage1=30, epochs_stage2=15,
                    keypoints_per_sample=0)
log = run_training(scene, dataset, params, train)
last = log.records[-1]
print(f"trained {len(log.records)} epochs: coordinate loss {last.l_coord:.3f}"
      f" m, confidence loss {last.l_conf:.3f}")

report = evaluate_scene(scene, params, dataset, LocalizeOptions())
print("\nbefore pruning:")
print(report.summary())

# prune the weakest half of the codes by |scaling factor|, then fine-tune
# gently so the surviving codes adjust without destabilizing the decoder
scales = np.concatenate(
    [np.abs(w.values[w.values != 0.0])
     for v in scene.voxels.values() for w in v.codes.scales])
threshold = float(np.median(scales)) * (1 + 1e-9)
prune_report = scene_mod.prune(scene, threshold)
print(f"\npruned at |w| < {threshold:.4f}: kept "
      f"{prune_report.total_retained}/{prune_report.total_codes} codes, "
      f"{prune_report.bytes_before} -> {prune_report.bytes_after} bytes")

finetune = dataclasses.replace(train, epochs_stage1=0, epochs_stage2=15,
                               prune_threshold=0.0,
                               lr_agnostic=0.001, lr_codes=0.002)
run_training(scene, dataset, params, finetune)
report = evaluate_scene(scene, params, dataset, LocalizeOptions())
print("\nafter pruning + fine-tuning (half the map size):")
print(report.summary())
