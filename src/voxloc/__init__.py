"""Neural coordinate-mapping localization: compressed per-voxel code banks
decoded by a scene-agnostic cross-attention decoder, with PnP+RANSAC pose
estimation over confidence-filtered 2D-3D correspondences.
"""

from .containers import FormatError
from .decoder import (DecoderParams, attention_scores, decode, encode_feature,
                      load_params, save_params)
from .diffcore import (DimensionError, DTensor, MLP, NumericError, Optimizer,
                       Tape, halved_lr)
from .geometry import (DegenerateGeometryError, Intrinsics, Point3D, Pose,
                       look_at, pnp_solve, pose_error, project_many,
                       ransac_pnp, triangulate_dlt)
from .initialization import (InitConfig, aligned_decoder_init, inject_codes,
                             mean_observed_descriptors)
from .pipeline import (DEFAULT_THRESHOLDS, EvalReport, LocalizationResult,
                       LocalizeOptions, activate_voxels, evaluate,
                       evaluate_scene, export_heatmap, localize,
                       retrieve_views)
from .scene import (CodeBank, PruneReport, SceneRepresentation, Voxel, VoxelId,
                    assign_coverage, build_scene, drop_uncovered, load_scene,
                    prune, save_scene, size_bytes, voxelize)
from .synthworld import (ReferenceDataset, ViewObservations, World,
                         WorldConfig, build_dataset, generate_dataset,
                         generate_world, load_dataset, save_dataset)
from .training import (TrainConfig, TrainingLog, adapt_scene, run_training,
                       total_loss)

__version__ = "0.1.0"

__all__ = [
    "CodeBank", "DEFAULT_THRESHOLDS", "DTensor", "DecoderParams",
    "DegenerateGeometryError",
    "DimensionError", "EvalReport", "FormatError", "InitConfig", "Intrinsics",
    "LocalizationResult", "LocalizeOptions", "MLP", "NumericError",
    "Optimizer", "Point3D", "Pose", "PruneReport", "ReferenceDataset",
    "SceneRepresentation", "Tape", "TrainConfig", "TrainingLog",
    "ViewObservations", "Voxel", "VoxelId", "World", "WorldConfig",
    "activate_voxels", "adapt_scene", "aligned_decoder_init",
    "assign_coverage", "attention_scores", "build_dataset",
    "build_scene", "decode", "drop_uncovered", "encode_feature", "evaluate", "evaluate_scene",
    "export_heatmap", "generate_dataset", "generate_world", "halved_lr",
    "inject_codes", "load_dataset", "load_params", "load_scene", "localize",
    "look_at", "mean_observed_descriptors",
    "pnp_solve", "pose_error", "project_many", "prune", "ransac_pnp",
    "retrieve_views", "run_training", "save_dataset", "save_params",
    "save_scene", "size_bytes", "total_loss", "triangulate_dlt",
    "voxelize",
]
