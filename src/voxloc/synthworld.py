"""Procedural multi-view worlds with a descriptor oracle.

Stands in for real imagery: every 3D point carries a fixed unit-norm
descriptor; views observe noisy pixels and noisy, illumination-shifted
descriptors. Reference tracks are triangulated through the DLT stand-in so
the pipeline trains on coordinates that carry realistic triangulation
error, never on the exact ground truth.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO

import numpy as np

from .containers import FormatError, Reader, Writer, bound, check_bounds
from .geometry import (Intrinsics, Point3D, Pose, look_at, pinhole,
                       triangulate_dlt)

DATASET_MAGIC = b"NMDS"
DATASET_FORMAT_VERSION = 1


@dataclass
class WorldConfig:
    num_points: int = bound(2000, 1)
    extent: tuple[float, float, float] = bound((8.0, 8.0, 4.0), 0, strict=True)
    num_ref_views: int = bound(100, 1)
    num_query_views: int = bound(20, 1)
    pixel_noise_sigma: float = bound(0.5, 0)
    descriptor_dim: int = bound(64, 1)
    descriptor_noise_sigma: float = bound(0.05, 0)
    illumination_shift_sigma: float = bound(0.05, 0)
    min_depth: float = bound(1.0, 0, strict=True)
    max_depth: float = bound(30.0, "min_depth", strict=True)
    frustum_margin: float = bound(4.0, 0)
    min_query_baseline: float = bound(0.3, 0)
    image_width: int = bound(640, 1)
    image_height: int = bound(480, 1)
    focal: float = bound(525.0, 0, strict=True)
    triangulation_tol: float = bound(2.0, 0, strict=True)
    seed: int = bound(0, 0)

    def __post_init__(self):
        check_bounds(self, "world")
        half = min(self.image_width, self.image_height) / 2.0
        if self.frustum_margin >= half:
            raise ValueError(f"world.frustum_margin must be < {half} to leave "
                             f"an image area, got {self.frustum_margin}")

    def intrinsics(self) -> Intrinsics:
        return Intrinsics(self.focal, self.focal,
                          self.image_width / 2.0, self.image_height / 2.0,
                          self.image_width, self.image_height)


@dataclass
class World:
    """Ground truth: never handed to training directly."""
    points: np.ndarray             # (P, 3)
    descriptors: np.ndarray        # (P, D_raw) unit-norm oracle descriptors
    ref_poses: list[Pose]
    query_poses: list[Pose]
    intrinsics: Intrinsics
    config: WorldConfig


def seeded_rng(seed: int, *key: int) -> np.random.Generator:
    """The generator of one keyed stream of a seed: world, map set-up and
    training streams differ by key, so each draws independently."""
    return np.random.default_rng(np.random.SeedSequence((seed, *key)))


def _orbit_pose(rng: np.random.Generator, angle: float, radius: float,
                extent, target_jitter: float = 0.5) -> Pose:
    ez = extent[2]
    center = np.array([radius * np.cos(angle), radius * np.sin(angle),
                       rng.uniform(-0.7 * ez, 0.7 * ez)])
    target = rng.uniform(-target_jitter, target_jitter, size=3)
    return look_at(center, target)


def generate_world(config: WorldConfig) -> World:
    """Points in a box, reference cameras on a jittered orbit, novel queries."""
    ex = np.asarray(config.extent)
    pts = seeded_rng(config.seed, 0).uniform(-ex / 2.0, ex / 2.0,
                                             size=(config.num_points, 3))
    g = seeded_rng(config.seed, 1).normal(size=(config.num_points,
                                                config.descriptor_dim))
    g /= np.linalg.norm(g, axis=1, keepdims=True)

    radius = 1.1 * float(np.linalg.norm(ex[:2]) / 2.0) + 3.0
    rng_ref = seeded_rng(config.seed, 2)
    ref_poses = []
    for i in range(config.num_ref_views):
        angle = 2.0 * np.pi * i / config.num_ref_views + rng_ref.uniform(-0.05, 0.05)
        r = radius * rng_ref.uniform(0.92, 1.08)
        ref_poses.append(_orbit_pose(rng_ref, angle, r, ex))
    ref_centers = np.array([p.center for p in ref_poses])

    rng_q = seeded_rng(config.seed, 3)
    query_poses = []
    for i in range(config.num_query_views):
        for _ in range(200):
            angle = rng_q.uniform(0.0, 2.0 * np.pi)
            r = radius * rng_q.uniform(0.9, 1.15)
            pose = _orbit_pose(rng_q, angle, r, ex)
            dists = np.linalg.norm(ref_centers - pose.center, axis=1)
            if dists.min() >= config.min_query_baseline:
                query_poses.append(pose)
                break
        else:
            raise RuntimeError("could not place a query camera off the "
                               "reference trajectory")
    return World(pts, g, ref_poses, query_poses, config.intrinsics(), config)


@dataclass
class ViewObservations:
    pose: Pose | None              # None for query views (pose is the unknown)
    intrinsics: Intrinsics
    pixels: np.ndarray             # (M, 2)
    descriptors: np.ndarray        # (M, D_raw) unit-norm
    point_ids: np.ndarray          # (M,)

    def __post_init__(self):
        if not np.isfinite(self.pixels).all():
            raise ValueError("a keypoint pixel is non-finite")

    @property
    def num_keypoints(self) -> int:
        return len(self.point_ids)


def observe(pose: Pose, world: World, config: WorldConfig,
            rng: np.random.Generator, include_pose: bool = True) -> ViewObservations:
    """Project visible points and synthesize noisy keypoint observations."""
    k = world.intrinsics
    u, v, z = pinhole(pose.rotation, pose.translation, k, world.points)
    m = config.frustum_margin
    visible = ((z >= config.min_depth) & (z <= config.max_depth)
               & (u >= m) & (u <= k.width - m)
               & (v >= m) & (v <= k.height - m))
    ids = np.flatnonzero(visible)
    pixels = np.stack([u[ids], v[ids]], axis=1)
    if config.pixel_noise_sigma > 0:
        pixels = pixels + rng.normal(0.0, config.pixel_noise_sigma,
                                     size=pixels.shape)
    desc = world.descriptors[ids].copy()
    if config.descriptor_noise_sigma > 0:
        desc += rng.normal(0.0, config.descriptor_noise_sigma, size=desc.shape)
    if config.illumination_shift_sigma > 0:
        shift = rng.normal(0.0, config.illumination_shift_sigma,
                           size=(1, desc.shape[1]))
        desc += shift
    desc /= np.linalg.norm(desc, axis=1, keepdims=True)
    return ViewObservations(pose if include_pose else None, k, pixels, desc,
                            ids.astype(np.int64))


@dataclass
class EvalGroundTruth:
    """Evaluation-only data; not visible through the training interface."""
    query_poses: list[Pose]
    point_positions: np.ndarray    # (P, 3) exact generator positions


@dataclass
class ReferenceDataset:
    views: list[ViewObservations]
    points: dict[int, Point3D]     # triangulated, possibly invalid
    query_views: list[ViewObservations]
    config: WorldConfig
    _ground_truth: EvalGroundTruth = field(repr=False, default=None)

    def evaluation_ground_truth(self) -> EvalGroundTruth:
        return self._ground_truth

    @functools.cached_property
    def view_means(self) -> np.ndarray:
        """(views, D) mean descriptor of each reference view, computed on
        first use and kept, read-only: nothing mutates a dataset's views.
        A view without keypoints has a zero row; a non-finite row is
        refused."""
        means = np.zeros((len(self.views), self.config.descriptor_dim))
        for i, view in enumerate(self.views):
            if view.num_keypoints:
                means[i] = view.descriptors.mean(axis=0)
        finite = np.isfinite(means).all(axis=1)
        if not finite.all():
            raise ValueError(f"reference view {int(np.argmin(finite))} has a "
                             f"non-finite descriptor")
        means.flags.writeable = False
        return means


def build_dataset(world: World, config: WorldConfig) -> ReferenceDataset:
    """Observe all views; triangulate each point seen by >= 2 reference
    views once, from its track in view order, with the DLT."""
    views = [observe(pose, world, config, seeded_rng(config.seed, 10, i))
             for i, pose in enumerate(world.ref_poses)]
    query_views = [observe(pose, world, config,
                           seeded_rng(config.seed, 20, i), include_pose=False)
                   for i, pose in enumerate(world.query_poses)]

    # a stable sort keeps each track in view order
    pids = np.concatenate([v.point_ids for v in views])
    order = np.argsort(pids, kind="stable")
    view_ids = np.repeat(np.arange(len(views)),
                         [v.num_keypoints for v in views])[order]
    pixels = np.concatenate([v.pixels for v in views])[order]
    start = np.searchsorted(pids[order], np.arange(config.num_points + 1))
    rot = np.array([v.pose.rotation for v in views])
    trans = np.array([v.pose.translation for v in views])
    points: dict[int, Point3D] = {}
    for pid in range(config.num_points):
        track = slice(start[pid], start[pid + 1])
        vids = view_ids[track]
        points[pid] = (Point3D(pid, None, False) if len(vids) < 2 else
                       triangulate_dlt(rot[vids], trans[vids], world.intrinsics,
                                       pixels[track], config.triangulation_tol,
                                       pid))
    gt = EvalGroundTruth(world.query_poses, world.points.copy())
    return ReferenceDataset(views, points, query_views, config, gt)


def generate_dataset(config: WorldConfig) -> ReferenceDataset:
    return build_dataset(generate_world(config), config)


def _write_intrinsics(w: Writer, k: Intrinsics) -> None:
    w.f64(k.fx)
    w.f64(k.fy)
    w.f64(k.cx)
    w.f64(k.cy)
    w.u32(k.width)
    w.u32(k.height)


def _read_intrinsics(r: Reader) -> Intrinsics:
    return Intrinsics(r.f64("fx"), r.f64("fy"), r.f64("cx"), r.f64("cy"),
                      r.u32("width"), r.u32("height"))


def _write_pose(w: Writer, pose: Pose) -> None:
    w.f64_array(pose.rotation)
    w.f64_array(pose.translation)


def _read_pose(r: Reader) -> Pose:
    rot = r.f64_array(9, "rotation").reshape(3, 3)
    return Pose(rot, r.f64_array(3, "translation"))


def _write_view(w: Writer, view: ViewObservations) -> None:
    w.u8(1 if view.pose is not None else 0)
    if view.pose is not None:
        _write_pose(w, view.pose)
    _write_intrinsics(w, view.intrinsics)
    w.u32(view.num_keypoints)
    w.u32(view.descriptors.shape[1])
    w.f64_array(view.pixels)
    w.f64_array(view.descriptors)
    w.u32_array(view.point_ids)


def _read_view(r: Reader, dim: int, name: str) -> ViewObservations:
    """The next view; FormatError naming it unless its descriptors are
    dim wide."""
    pose = _read_pose(r) if r.u8("has pose") else None
    k = _read_intrinsics(r)
    m = r.u32("keypoint count")
    d = r.u32("descriptor dim")
    if d != dim:
        raise FormatError(r.offset - 4, f"{name} has {d}-wide descriptors, the "
                                        f"header's descriptor_dim is {dim}")
    pixels = r.f64_array(2 * m, "pixels").reshape(m, 2)
    desc = r.f64_array(m * d, "descriptors").reshape(m, d)
    ids = r.u32_array(m, "point ids")
    return ViewObservations(pose, k, pixels, desc, ids)


def dataset_to_bytes(ds: ReferenceDataset) -> bytes:
    w = Writer(DATASET_MAGIC, DATASET_FORMAT_VERSION)
    cfg = json.dumps(vars(ds.config), sort_keys=True).encode()
    w.u32(len(cfg))
    w.bytes_(cfg)
    w.u32(len(ds.views))
    for view in ds.views:
        _write_view(w, view)
    w.u32(len(ds.query_views))
    for view in ds.query_views:
        _write_view(w, view)
    w.u32(len(ds.points))
    for pid in sorted(ds.points):
        p = ds.points[pid]
        w.u32(pid)
        w.u8(1 if p.valid else 0)
        if p.valid:
            w.f64_array(p.position)
    gt = ds._ground_truth
    w.u32(len(gt.query_poses))
    for pose in gt.query_poses:
        _write_pose(w, pose)
    w.u32(len(gt.point_positions))
    w.f64_array(gt.point_positions)
    return w.getvalue()


def _config_from_json(raw: bytes, offset: int) -> WorldConfig:
    """The embedded config; FormatError unless it is a JSON object that
    WorldConfig accepts, with extent as a list."""
    try:
        cfg = json.loads(raw.decode())
        if isinstance(cfg, dict) and isinstance(cfg.get("extent"), list):
            cfg["extent"] = tuple(cfg["extent"])
        return WorldConfig(**cfg)
    except (ValueError, TypeError, RecursionError) as err:
        raise FormatError(offset, f"config json: {err}") from err


def dataset_from_bytes(data: bytes | BinaryIO) -> ReferenceDataset:
    r = Reader(data, DATASET_MAGIC, DATASET_FORMAT_VERSION, "dataset")
    cfg_len = r.u32("config length")
    cfg_at = r.offset
    config = _config_from_json(r.raw(cfg_len, "config json"), cfg_at)
    dim = config.descriptor_dim
    views = [_read_view(r, dim, f"reference view {i}")
             for i in range(r.u32("view count"))]
    query_views = [_read_view(r, dim, f"query view {i}")
                   for i in range(r.u32("query view count"))]
    points = {}
    points_at = r.offset
    for _ in range(r.u32("point count")):
        pid = r.u32("point id")
        valid = bool(r.u8("valid"))
        pos = r.f64_array(3, "position") if valid else None
        points[pid] = Point3D(pid, pos, valid)
    # one vectorized finiteness check; a per-point check would slow loading
    valid_pts = [p for p in points.values() if p.valid]
    finite = np.isfinite(np.reshape([p.position for p in valid_pts],
                                    (-1, 3))).all(axis=1)
    if not finite.all():
        bad = valid_pts[int(np.argmin(finite))]
        raise FormatError(points_at, f"point {bad.id} has a non-finite "
                                     f"position {bad.position.tolist()}")
    gt_poses = [_read_pose(r) for _ in range(r.u32("gt pose count"))]
    npts = r.u32("gt point count")
    gt_pts = r.f64_array(3 * npts, "gt positions").reshape(npts, 3)
    r.expect_end()
    return ReferenceDataset(views, points, query_views, config,
                            EvalGroundTruth(gt_poses, gt_pts))


def save_dataset(ds: ReferenceDataset, path) -> None:
    # serialized first, so a refused save leaves no file behind
    Path(path).write_bytes(dataset_to_bytes(ds))


def load_dataset(path) -> ReferenceDataset:
    with open(path, "rb") as f:
        return dataset_from_bytes(f)


def write_manifest(ds: ReferenceDataset, path) -> None:
    """Human-readable sidecar: counts plus the generating config."""
    valid = sum(1 for p in ds.points.values() if p.valid)
    manifest = {
        "format": DATASET_MAGIC.decode(),
        "version": DATASET_FORMAT_VERSION,
        "num_reference_views": len(ds.views),
        "num_query_views": len(ds.query_views),
        "num_points": len(ds.points),
        "num_valid_points": valid,
        "config": vars(ds.config),
    }
    with open(path, "w") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")
