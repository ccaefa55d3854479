"""Three-term loss, voxel-sampling schedule, two-stage training, adaptation.

Stage 1 jointly optimizes the scene-agnostic weights and all codes and
scaling factors with the L1 sparsity term active. Codes below the pruning
threshold are then zeroed, and stage 2 fine-tunes the survivors with the
scaling factors held fixed and the sparsity term off. Scene adaptation
reuses the loop with a scene-agnostic optimizer that owns no parameters.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from . import diffcore as dc
from .containers import bound, check_bounds
from .decoder import DecoderParams, bank_keys, decode, encode_feature
from .diffcore import DTensor, NumericError, Optimizer, Tape, halved_lr
from .scene import SceneRepresentation, Voxel, prune, valid_members
from .synthworld import ReferenceDataset, seeded_rng


@dataclass
class TrainConfig:
    # loss weights; the sparsity weight only applies in stage 1
    lambda_coord: float = bound(1.0, 0)
    lambda_conf: float = bound(1.0, 0)
    lambda_l1: float = bound(1.0, 0)
    # learning rates: scene-agnostic weights vs codes/scales.
    # desk-scale defaults; the city-scale schedule (0.002 / 0.0001,
    # 200 + 100 epochs, halving every 30) remains selectable via config
    lr_agnostic: float = bound(0.01, 0)
    lr_codes: float = bound(0.02, 0)
    epochs_stage1: int = bound(60, 0)
    epochs_stage2: int = bound(30, 0)
    # keypoints drawn per (voxel, view) sample; 0 decodes the full view.
    # Subsampling keeps epochs cheap so small scenes can afford the many
    # epochs the shared decoder needs to generalize across views.
    keypoints_per_sample: int = bound(256, 0)
    lr_halving_period: int = bound(15, 0)   # 0: never halve
    prune_threshold: float = bound(0.001, 0)
    min_points: int = bound(20, 1)
    seed: int = bound(0, 0)

    def __post_init__(self):
        check_bounds(self, "train")


@dataclass
class Sample:
    """One (voxel, covering view) pair with its supervision arrays."""
    voxel: Voxel
    view_id: int
    descriptors: np.ndarray   # (M, D_raw)
    targets: np.ndarray       # (M, 3) triangulated coords; rows of y=0 unused
    in_voxel: np.ndarray      # (M,) float 0/1 indicator


def make_sample(voxel: Voxel, view_id: int, dataset: ReferenceDataset,
                max_keypoints: int = 0,
                rng: np.random.Generator | None = None) -> Sample:
    """The view's keypoints, marked 1 with their point's position where they
    observe a valid voxel member; max_keypoints > 0 draws that many via rng."""
    view = dataset.views[view_id]
    in_voxel = np.isin(view.point_ids, valid_members(voxel, dataset))
    m = view.num_keypoints
    targets = np.zeros((m, 3))
    pos = [dataset.points[p].position
           for p in view.point_ids[in_voxel].tolist()]
    targets[in_voxel] = np.reshape(pos, (-1, 3))
    desc = view.descriptors
    if 0 < max_keypoints < m:
        if rng is None:
            raise ValueError("keypoint subsampling needs an rng")
        keep = rng.choice(m, size=max_keypoints, replace=False)
        desc, targets, in_voxel = desc[keep], targets[keep], in_voxel[keep]
    return Sample(voxel, view_id, desc, targets, in_voxel.astype(np.float64))


def coordinate_loss(tape, local: DTensor, origin: np.ndarray,
                    targets: np.ndarray, in_voxel: np.ndarray) -> DTensor:
    """Mean Euclidean distance between predicted world coords and targets,
    over in-voxel keypoints only. Zero when the batch has none."""
    rows = np.flatnonzero(in_voxel > 0.5)
    if len(rows) == 0:
        return DTensor(np.array(0.0))
    pred = dc.take_rows(tape, local, rows)
    world = dc.add(tape, pred, DTensor(origin[None, :]))
    diff = dc.sub(tape, world, DTensor(targets[rows]))
    return dc.mean_all(tape, dc.rows_l2norm(tape, diff))


def confidence_loss(tape, confidence: DTensor, in_voxel: np.ndarray) -> DTensor:
    """Mean binary cross entropy over all keypoints, in-voxel or not."""
    y = DTensor(in_voxel[:, None])
    one = DTensor(np.ones_like(in_voxel)[:, None])
    p = dc.clamp(tape, confidence, 1e-7, 1.0 - 1e-7)
    term_pos = dc.mul(tape, y, dc.log(tape, p))
    term_neg = dc.mul(tape, dc.sub(tape, one, y),
                      dc.log(tape, dc.sub(tape, one, p)))
    return dc.scale(tape, dc.mean_all(tape, dc.add(tape, term_pos, term_neg)), -1.0)


def sparsity_loss(tape, voxel: Voxel) -> DTensor:
    """Sum of |w| over every block/code of the sampled voxel."""
    total = DTensor(np.array(0.0))
    for w in voxel.codes.scales:
        total = dc.add(tape, total, dc.sum_all(tape, dc.abs_(tape, w)))
    return total


def total_loss(tape, l_coord: DTensor, l_conf: DTensor, l_sparse: DTensor,
               config: TrainConfig, stage: int) -> DTensor:
    out = dc.add(tape, dc.scale(tape, l_coord, config.lambda_coord),
                 dc.scale(tape, l_conf, config.lambda_conf))
    if stage == 1 and config.lambda_l1 > 0:
        out = dc.add(tape, out, dc.scale(tape, l_sparse, config.lambda_l1))
    return out


def sample_epoch(scene: SceneRepresentation, dataset: ReferenceDataset,
                 rng: np.random.Generator,
                 max_keypoints: int = 0) -> list[Sample]:
    """One seeded pass over all voxels: a permutation, each voxel paired
    with one uniformly chosen covering view."""
    voxels = scene.sorted_voxels()
    for v in voxels:
        if not v.covering_views:
            raise ValueError(f"voxel {v.id} has no covering views; "
                             "scene/dataset construction is inconsistent")
        if (last := max(v.covering_views)) >= len(dataset.views):
            raise ValueError(f"voxel {v.id} is covered by view {last}, but "
                             f"the dataset has {len(dataset.views)} views")
    order = rng.permutation(len(voxels))
    samples = []
    for i in order:
        v = voxels[i]
        view_id = v.covering_views[rng.integers(len(v.covering_views))]
        samples.append(make_sample(v, int(view_id), dataset,
                                   max_keypoints=max_keypoints, rng=rng))
    return samples


@dataclass
class EpochRecord:
    epoch: int
    stage: int
    l_coord: float
    l_conf: float
    l_sparse: float
    total: float
    lr_agnostic: float
    lr_codes: float
    retained_codes: int


@dataclass
class TrainingLog:
    records: list[EpochRecord] = field(default_factory=list)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["epoch", "stage", "L_x", "L_c", "L_L1", "total",
                        "lr_agnostic", "lr_codes", "retained_codes"])
            for r in self.records:
                w.writerow([r.epoch, r.stage,
                            f"{r.l_coord:.9g}", f"{r.l_conf:.9g}",
                            f"{r.l_sparse:.9g}", f"{r.total:.9g}",
                            f"{r.lr_agnostic:.9g}", f"{r.lr_codes:.9g}",
                            r.retained_codes])


def _batch_losses(tape, params: DecoderParams, sample: Sample,
                  config: TrainConfig, stage: int):
    """The loss terms and total of one (voxel, view) sample."""
    feats = encode_feature(tape, params, DTensor(sample.descriptors))
    local, conf = decode(tape, params, feats, [(
        feats.shape[0], bank_keys(tape, params, sample.voxel.codes))])
    l_coord = coordinate_loss(tape, local, sample.voxel.origin,
                              sample.targets, sample.in_voxel)
    l_conf = confidence_loss(tape, conf, sample.in_voxel)
    l_sparse = sparsity_loss(tape, sample.voxel) if stage == 1 \
        else DTensor(np.array(0.0))
    return l_coord, l_conf, l_sparse, total_loss(tape, l_coord, l_conf,
                                                 l_sparse, config, stage)


def _run_epochs(scene, dataset, params, config, *, stage, opt_agnostic,
                opt_codes, rng, log):
    """Appends one record per epoch, numbered on from the log's last: stage
    1 runs epochs_stage1 epochs and trains the scales, stage 2 runs
    epochs_stage2 epochs with the scales frozen."""
    dataset.view_means  # refuses a non-finite reference descriptor up front
    epochs = config.epochs_stage1 if stage == 1 else config.epochs_stage2
    for epoch in range(len(log.records), len(log.records) + epochs):
        lr_a = halved_lr(config.lr_agnostic, epoch, config.lr_halving_period)
        lr_c = halved_lr(config.lr_codes, epoch, config.lr_halving_period)
        opt_agnostic.lr, opt_codes.lr = lr_a, lr_c

        sums = np.zeros(4)
        samples = sample_epoch(scene, dataset, rng,
                               config.keypoints_per_sample)
        # one Adam step per sample: single voxels give the shared decoder
        # the most update steps per epoch, which the short desk schedule needs
        for step, sample in enumerate(samples):
            moving = {t.name: t for t in sample.voxel.codes.codes
                      + (sample.voxel.codes.scales if stage == 1 else [])}
            tape = Tape()
            try:
                l_coord, l_conf, l_sparse, loss = _batch_losses(
                    tape, params, sample, config, stage)
                grads = tape.backward(loss, {**opt_agnostic.params, **moving})
            except NumericError as err:
                raise NumericError(
                    f"epoch {epoch}, step {step}: {err}") from err
            opt_agnostic.step({n: grads[n] for n in opt_agnostic.params})
            opt_codes.step({n: grads[n] for n in moving})
            sums += [l_coord.values, l_conf.values, l_sparse.values, loss.values]

        log.records.append(EpochRecord(epoch, stage, *sums / len(samples),
                                       lr_a, lr_c, scene.retained_codes()))


def run_training(scene: SceneRepresentation, dataset: ReferenceDataset,
                 params: DecoderParams, config: TrainConfig) -> TrainingLog:
    """Two-stage procedure: train with sparsity, prune, fine-tune.

    The learning-rate halving schedule runs on the global epoch counter
    across both stages.
    """
    if scene.retained_codes() == 0:
        raise ValueError("the scene has no retained code to train")
    rng = seeded_rng(config.seed, 100)
    log = TrainingLog()
    opt_agnostic = Optimizer(params.named_parameters(), config.lr_agnostic)
    opt_codes = Optimizer(scene.named_code_parameters(), config.lr_codes)

    _run_epochs(scene, dataset, params, config, stage=1,
                opt_agnostic=opt_agnostic, opt_codes=opt_codes,
                rng=rng, log=log)

    if prune(scene, config.prune_threshold).total_retained == 0:
        raise ValueError("pruning removed every code; threshold "
                         f"{config.prune_threshold} is degenerate for this scene")
    _run_epochs(scene, dataset, params, config, stage=2,
                opt_agnostic=opt_agnostic, opt_codes=opt_codes,
                rng=rng, log=log)
    return log


def adapt_scene(new_scene: SceneRepresentation, new_dataset: ReferenceDataset,
                params: DecoderParams, config: TrainConfig) -> TrainingLog:
    """Optimize only the new scene's codes and their scales. No optimizer
    owns the decoder weights, so backward never reaches them: they stay put.

    Runs epochs_stage1 stage-1-style epochs; pass lambda_l1=0 in the config
    for plain adaptation without sparsity pressure.
    """
    rng = seeded_rng(config.seed, 200)
    log = TrainingLog()
    opt_codes = Optimizer(new_scene.named_code_parameters(), config.lr_codes)
    _run_epochs(new_scene, new_dataset, params, config, stage=1,
                opt_agnostic=Optimizer({}, 0.0),
                opt_codes=opt_codes, rng=rng, log=log)
    return log
