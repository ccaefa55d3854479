"""End-to-end localization of query views plus benchmark evaluation.

Retrieval ranks reference views by mean-descriptor cosine similarity; the
retrieved views activate voxels via the coverage rule; block 0's largest
logit routes each keypoint to its one best activated voxel, and it is
decoded in float32 only there; candidates with confidence >= 0.5 become
row-aligned 2D-3D arrays for PnP+RANSAC, whose pose is refined by
Cauchy-weighted IRLS over all of them, not only the inliers. The float32
weights, keys and values are built once per map and reused until its
float32 content changes. Failure is a result value, never an exception.
"""

from __future__ import annotations

import copy
import csv
import time
import weakref
from dataclasses import dataclass, field

import numpy as np

from .containers import bound, check_bounds
from .decoder import (DecoderParams, attention_scores, bank_keys, decode,
                      encode_feature, route_scores)
from .diffcore import DTensor, NumericError, matmul
from .geometry import Pose, pose_error, ransac_pnp
from .scene import SceneRepresentation, VoxelId, size_bytes
from .synthworld import ReferenceDataset, ViewObservations

DEFAULT_THRESHOLDS = ((0.25, 2.0), (0.5, 5.0), (5.0, 10.0))


@dataclass
class LocalizeOptions:
    top_k: int = bound(10, 1)
    bypass_retrieval: bool = False  # small scenes may activate all voxels
    confidence_min: float = bound(0.5, 0, 1)  # c >= this is kept
    inlier_tol: float = bound(3.0, 0, strict=True)
    ransac_iters: int = bound(256, 1)  # RANSAC trials, preemptively scored
    seed: int = bound(0, 0)

    def __post_init__(self):
        check_bounds(self, "localize")


@dataclass
class LocalizationResult:
    success: bool
    pose: Pose | None
    num_activated_voxels: int = 0
    num_candidate_points: int = 0   # activated voxels x keypoints
    num_confident_points: int = 0
    num_inliers: int = 0
    num_decoded_pairs: int = 0      # the (keypoint, voxel) pairs decoded
    wall_time_s: float = 0.0

    def __post_init__(self):
        ok = (self.num_inliers <= self.num_confident_points
              <= self.num_decoded_pairs <= self.num_candidate_points)
        if not ok:
            raise ValueError("inconsistent candidate counting chain")


def retrieve_views(query: ViewObservations, dataset: ReferenceDataset,
                   top_k: int) -> list[int]:
    """Reference view ids ranked by cosine similarity of mean descriptors.

    One mat-vec against the dataset's `view_means`; a zero norm on either
    side scores -1.0, and ties break toward the lower view id.
    """
    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    if query.num_keypoints == 0:
        return []
    q = query.descriptors.mean(axis=0)
    means = dataset.view_means
    denom = np.linalg.norm(q) * np.linalg.norm(means, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        sims = np.where(denom > 0, means @ q / denom, -1.0)
    order = sorted(range(len(sims)), key=lambda i: (-sims[i], i))
    return order[:top_k]


def activate_voxels(view_ids, scene: SceneRepresentation) -> list[VoxelId]:
    """Union of voxels covered by any retrieved view, sorted by voxel id."""
    chosen = set(view_ids)
    out = [vid for vid, v in scene.voxels.items()
           if chosen.intersection(v.covering_views)]
    return sorted(out)


# DecoderParams or CodeBank -> its _float32_state; weak keys keep no map alive
_STATES = weakref.WeakKeyDictionary()


def _is_cast_of(copy32, source) -> bool:
    """Whether copy32 is bitwise the float32 copy of source as it is now."""
    old, new = ([t.values.astype("f4", copy=False).view("u4") for t in
                 o.named_parameters().values()] for o in (copy32, source))
    return len(old) == len(new) and all(map(np.array_equal, old, new))


def _float32_state(source, params32=None):
    """(copy, params32, keys): the float32 copy of decoder params or a code
    bank, with a bank copy's bank_keys under params32; built on first use,
    reused while params32 is the same and _is_cast_of(copy, source)."""
    state = _STATES.pop(source, None)  # a failed build leaves no entry
    if not (state and state[1] is params32 and _is_cast_of(state[0], source)):
        # deepcopy takes a memo entry in place of the object with that id
        memo = {id(t.values): t.values.astype("f4")
                for t in source.named_parameters().values()}
        cast = copy.deepcopy(source, memo)
        state = cast, params32, params32 and bank_keys(None, params32, cast)
    _STATES[source] = state
    return state


def route_keypoints(scores: list, m: int) -> list[np.ndarray]:
    """Rows of the m keypoints each voxel decodes, given each voxel's (m,)
    gate scores: a keypoint goes to the voxel that scores it highest, ties
    to the earlier (lower-id) voxel, as np.argmax picks the first maximum.
    A voxel without scores (None) gets every keypoint.
    """
    scored = [i for i, s in enumerate(scores) if s is not None]
    if scored:
        best = np.take(scored, np.argmax([scores[i] for i in scored], axis=0))
    return [np.arange(m) if s is None else np.flatnonzero(best == i)
            for i, s in enumerate(scores)]


def localize(query: ViewObservations, scene: SceneRepresentation,
             params: DecoderParams, dataset: ReferenceDataset | None = None,
             opts: LocalizeOptions | None = None) -> LocalizationResult:
    """Decode each keypoint in its routed activated voxels; PnP+RANSAC.

    Each keypoint is decoded only in the one activated voxel where block 0
    gives it its largest logit, over the keys decode uses; a voxel with no
    active block-0 code decodes every keypoint as well, and only through
    such voxels does a keypoint contribute more than once. Confident
    candidates reach RANSAC in voxel-id order, then keypoint order. With
    bypass_retrieval (or no dataset) all voxels activate. A non-finite
    query descriptor raises ValueError before any work.
    """
    opts = opts or LocalizeOptions()
    start = time.perf_counter()

    def fail():
        return LocalizationResult(False, None,
                                  wall_time_s=time.perf_counter() - start)

    if query.num_keypoints == 0:
        return fail()
    if not np.isfinite(query.descriptors).all():
        raise ValueError("a query descriptor is non-finite")
    if opts.bypass_retrieval or dataset is None:
        voxel_ids = sorted(scene.voxels)
    else:
        retrieved = retrieve_views(query, dataset, opts.top_k)
        voxel_ids = activate_voxels(retrieved, scene)
    if not voxel_ids:
        return fail()

    stage = "encode"  # float32 overflow raises its op's NumericError, not a warning
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            params = _float32_state(params)[0]
            feats = encode_feature(None, params, DTensor(query.descriptors.astype(np.float32)))
            voxels = [scene.voxels[vid] for vid in voxel_ids]
            stages = [f"decode of voxel {tuple(vid)}" for vid in voxel_ids]
            # block 0's query projection, which every decode starts with
            stage = stages[0]
            q = matmul(None, feats, params.blocks[0].wq).values
            kvs, scores = [], []
            for stage, voxel in zip(stages, voxels):  # errors name the voxel
                kvs.append(_float32_state(voxel.codes, params)[2])
                scores.append(route_scores(params, q, kvs[-1][0]))
            routes = route_keypoints(scores, query.num_keypoints)
            world, pixels = [], []
            for stage, voxel, rows, blocks in zip(stages, voxels, routes, kvs):
                if len(rows) == 0:
                    continue
                local, conf = decode(None, params, DTensor(feats.values[rows]),
                                     blocks)
                keep = conf.values[:, 0] >= opts.confidence_min
                world.append((local.values + voxel.origin)[keep])
                pixels.append(query.pixels[rows[keep]])
    except NumericError as err:
        raise NumericError(f"{err} ({stage})") from err
    world, pixels = np.concatenate(world), np.concatenate(pixels)

    # a failed RANSAC has no pose and no inliers
    ransac = ransac_pnp(world, pixels, query.intrinsics,
                        inlier_tol=opts.inlier_tol,
                        max_iters=opts.ransac_iters, seed=opts.seed)
    return LocalizationResult(
        ransac.success, ransac.pose, len(voxel_ids),
        len(voxel_ids) * query.num_keypoints, len(world), ransac.num_inliers,
        num_decoded_pairs=sum(len(rows) for rows in routes),
        wall_time_s=time.perf_counter() - start)


@dataclass
class EvalReport:
    median_translation_m: float
    median_rotation_deg: float
    thresholds: tuple
    accuracies: list[float]
    failure_count: int
    num_queries: int
    map_size_bytes: int
    errors: list[tuple[float, float] | None] = field(default_factory=list)

    def summary(self) -> str:
        lines = [
            f"queries: {self.num_queries} ({self.failure_count} failed)",
            f"median translation error: {self.median_translation_m:.4f} m",
            f"median rotation error:    {self.median_rotation_deg:.4f} deg",
            f"map size: {self.map_size_bytes} bytes",
        ]
        for (d, a), acc in zip(self.thresholds, self.accuracies):
            lines.append(f"accuracy @ ({d} m, {a} deg): {acc * 100.0:.1f}%")
        return "\n".join(lines)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["query", "success", "translation_m", "rotation_deg"])
            for i, err in enumerate(self.errors):
                if err is None:
                    w.writerow([i, 0, "", ""])
                else:
                    w.writerow([i, 1, f"{err[0]:.9g}", f"{err[1]:.9g}"])
            w.writerow([])
            w.writerow(["median_translation_m", f"{self.median_translation_m:.9g}"])
            w.writerow(["median_rotation_deg", f"{self.median_rotation_deg:.9g}"])
            w.writerow(["failure_count", self.failure_count])
            w.writerow(["map_size_bytes", self.map_size_bytes])
            for (d, a), acc in zip(self.thresholds, self.accuracies):
                w.writerow([f"accuracy@({d}m,{a}deg)", f"{acc:.9g}"])


def evaluate(results: list[LocalizationResult], truths: list[Pose],
             thresholds=DEFAULT_THRESHOLDS,
             map_size: int = 0) -> EvalReport:
    """Medians over successful queries; failures exceed every threshold."""
    if len(results) != len(truths):
        raise ValueError(f"{len(results)} results vs {len(truths)} truths")
    errors = []
    for res, truth in zip(results, truths):
        errors.append(pose_error(res.pose, truth) if res.success else None)
    ok = [e for e in errors if e is not None]
    med_t = float(np.median([e[0] for e in ok])) if ok else float("inf")
    med_r = float(np.median([e[1] for e in ok])) if ok else float("inf")
    accuracies = []
    for d, a in thresholds:
        hits = sum(1 for e in errors
                   if e is not None and e[0] <= d and e[1] <= a)
        accuracies.append(hits / len(errors) if errors else 0.0)
    return EvalReport(med_t, med_r, tuple(thresholds), accuracies,
                      sum(1 for e in errors if e is None), len(errors),
                      map_size, errors)


def evaluate_scene(scene: SceneRepresentation, params: DecoderParams,
                   dataset: ReferenceDataset,
                   opts: LocalizeOptions | None = None,
                   thresholds=DEFAULT_THRESHOLDS) -> EvalReport:
    """Localize every query view in the dataset and score the results."""
    results = [localize(q, scene, params, dataset, opts)
               for q in dataset.query_views]
    truths = dataset.evaluation_ground_truth().query_poses
    return evaluate(results, truths, thresholds, size_bytes(scene, 4))


def export_heatmap(view: ViewObservations, scene: SceneRepresentation,
                   params: DecoderParams, voxel: VoxelId, block: int,
                   code: int, csv_path) -> None:
    """Write one code's raw and normalized attention score per keypoint."""
    bank = scene.voxels[voxel].codes
    feats = encode_feature(None, params, DTensor(view.descriptors))
    s, s_norm = attention_scores(params, feats, bank, block, code)
    with open(csv_path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["feature_index", "score", "normalized_score"])
        for i, (a, b) in enumerate(zip(s, s_norm)):
            w.writerow([i, f"{a:.17g}", f"{b:.17g}"])
