"""Sparse voxel factorization of a scene and per-voxel code banks.

A scene is a map from lattice cell to voxel record: the cell's member point
ids, the origin (mean of member positions, the local regression frame), the
learnable code bank with per-code scaling factors, and the reference views
covering the cell. A code is live exactly when its float32 scale is
nonzero, so the file stores every scale and only the live codes. Codes are
float64 in memory, as training needs; the persisted format downcasts to
little-endian float32, which is the "map size" that the byte accounting
reports. Queries decode a float32 copy of each bank, rebuilt when its
casts change; exact for a map read from file.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import BinaryIO, NamedTuple

import numpy as np

from .containers import FormatError, Reader, Writer
from .diffcore import DTensor

SCENE_MAGIC = b"NMAP"
SCENE_FORMAT_VERSION = 2

# fixed per-voxel record header: id (3 x i32) + origin (3 x f32) + two u32 counts
VOXEL_HEADER_BYTES = 32
# largest code width D: a fully pruned block stores no code bytes, so only
# this bounds the (N, D) array it is read into
MAX_CODE_DIM = 1024


class VoxelId(NamedTuple):
    ix: int
    iy: int
    iz: int


class CodeBank:
    """T blocks x N codes x D learnable reals, plus per-code scaling factors.

    A code is pruned exactly when its float32 scale is 0 (or -0): it is
    excluded from attention, not stored, and gets no gradient (its row is
    never gathered, and d|w|/dw is 0 at w = 0); stage 2's Adam may still
    move the code on stale moments, but nothing reads or stores it.
    """

    def __init__(self, codes: list[DTensor], scales: list[DTensor]):
        self.codes = codes      # T tensors of shape (N, D)
        self.scales = scales    # T tensors of shape (N, 1)

    @classmethod
    def init(cls, t: int, n: int, d: int, rng: np.random.Generator,
             prefix: str) -> "CodeBank":
        if t < 1 or n < 1 or not 2 <= d <= MAX_CODE_DIM:
            raise ValueError(f"bad code bank dims T={t}, N={n}, D={d} "
                             f"(D must be in [2, {MAX_CODE_DIM}])")
        codes = [DTensor(rng.normal(0.0, 0.02, size=(n, d)),
                         name=f"{prefix}.codes.{i}")
                 for i in range(t)]
        scales = [DTensor(np.ones((n, 1)), name=f"{prefix}.scales.{i}")
                  for i in range(t)]
        return cls(codes, scales)

    @property
    def dims(self) -> tuple[int, int, int]:
        return len(self.codes), self.codes[0].shape[0], self.codes[0].shape[1]

    def active_rows(self, t: int) -> np.ndarray:
        """Block t's live rows, which attention reads and a file stores."""
        with np.errstate(over="ignore"):  # out of float32 range stays live
            return np.flatnonzero(self.scales[t].values[:, 0].astype("f4"))

    def retained_count(self, t: int) -> int:
        return len(self.active_rows(t))

    def named_parameters(self) -> dict[str, DTensor]:
        out = {}
        for tens in self.codes + self.scales:
            out[tens.name] = tens
        return out


@dataclass
class Voxel:
    id: VoxelId
    origin: np.ndarray                 # (3,) mean of member positions
    members: np.ndarray                # sorted point ids
    codes: CodeBank
    covering_views: list[int] = field(default_factory=list)


class SceneRepresentation:
    def __init__(self, side_length: float, dims: tuple[int, int, int],
                 voxels: dict[VoxelId, Voxel]):
        self.side_length = side_length
        self.dims = dims
        self.voxels = dict(sorted(voxels.items()))
        for v in self.voxels.values():
            if v.codes.dims != dims:
                raise ValueError(f"voxel {v.id} dims {v.codes.dims} != {dims}")
            if len(v.members) == 0:
                raise ValueError(f"voxel {v.id} has no members")

    def sorted_voxels(self) -> list[Voxel]:
        return [self.voxels[k] for k in sorted(self.voxels)]

    def retained_codes(self) -> int:
        """Live codes over every voxel and block."""
        return sum(v.codes.retained_count(t) for v in self.voxels.values()
                   for t in range(self.dims[0]))

    def named_code_parameters(self) -> dict[str, DTensor]:
        out = {}
        for v in self.sorted_voxels():
            out.update(v.codes.named_parameters())
        return out


def voxelize(points, side_length: float) -> dict[VoxelId, set]:
    """Partition valid points into half-open lattice cells of the given side.

    Cell index per axis is floor(coordinate / side_length); a point exactly
    on a boundary belongs to the upper cell. Invalid points are skipped,
    empty cells absent.
    """
    if side_length <= 0:
        raise ValueError(f"side length must be positive, got {side_length}")
    cells: dict[VoxelId, set] = {}
    for p in points:
        if not p.valid:
            continue
        vid = VoxelId(*(int(math.floor(c / side_length)) for c in p.position))
        cells.setdefault(vid, set()).add(p.id)
    return cells


def build_scene(points, side_length: float, dims: tuple[int, int, int],
                rng: np.random.Generator) -> SceneRepresentation:
    """Voxelize triangulated points and attach freshly initialized code banks."""
    t, n, d = dims
    positions = {p.id: p.position for p in points if p.valid}
    cells = voxelize(points, side_length)
    voxels = {}
    for vid in sorted(cells):
        members = np.array(sorted(cells[vid]), dtype=np.int64)
        origin = np.mean([positions[m] for m in members], axis=0)
        prefix = f"voxel({vid.ix},{vid.iy},{vid.iz})"
        voxels[vid] = Voxel(vid, origin, members,
                            CodeBank.init(t, n, d, rng, prefix))
    return SceneRepresentation(side_length, dims, voxels)


def valid_members(voxel: Voxel, dataset) -> np.ndarray:
    """The voxel's distinct member ids the dataset holds as valid points."""
    pts = dataset.points
    return np.unique(np.array([m for m in voxel.members.tolist()
                               if m in pts and pts[m].valid], np.int64))


def assign_coverage(scene: SceneRepresentation, dataset,
                    min_points: int = 20) -> None:
    """A view covers a voxel iff it observes >= min_points of its valid
    members, each counted once; views are listed in dataset order."""
    for v in scene.voxels.values():
        members = valid_members(v, dataset)
        v.covering_views = [i for i, view in enumerate(dataset.views)
                            if np.isin(members, view.point_ids).sum()
                            >= min_points]


def drop_uncovered(scene: SceneRepresentation) -> list[VoxelId]:
    """Remove voxels without covering views (stray triangulation outliers
    usually; they can be neither trained nor activated). Returns the ids."""
    dropped = [vid for vid, v in scene.voxels.items() if not v.covering_views]
    for vid in dropped:
        del scene.voxels[vid]
    if not scene.voxels:
        raise ValueError("every voxel lost coverage; the dataset is too sparse")
    return dropped


@dataclass
class PruneRow:
    voxel_id: VoxelId
    block: int
    retained: int
    total: int


@dataclass
class PruneReport:
    rows: list[PruneRow]
    bytes_before: int
    bytes_after: int

    @property
    def total_retained(self) -> int:
        return sum(r.retained for r in self.rows)

    @property
    def total_codes(self) -> int:
        return sum(r.total for r in self.rows)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["voxel_id", "block", "retained", "total"])
            for r in self.rows:
                w.writerow([f"({r.voxel_id.ix},{r.voxel_id.iy},{r.voxel_id.iz})",
                            r.block, r.retained, r.total])


def prune(scene: SceneRepresentation, threshold: float) -> PruneReport:
    """Zero out scaling factors with |w| < threshold, which prunes their
    codes; the report sizes the map at 4 bytes per stored value.

    Pruned codes are excluded from all future attention and gradients.
    Destructive; save the scene first if the unpruned state matters.
    """
    if not threshold >= 0:
        raise ValueError(f"prune threshold must be >= 0, got {threshold}")
    before = size_bytes(scene, 4)
    rows = []
    for v in scene.sorted_voxels():
        bank = v.codes
        t_blocks, n, _ = bank.dims
        for t in range(t_blocks):
            w = bank.scales[t].values[:, 0]
            w[np.abs(w) < threshold] = 0.0
            rows.append(PruneRow(v.id, t, bank.retained_count(t), n))
    after = size_bytes(scene, 4)
    return PruneReport(rows, before, after)


def size_bytes(scene: SceneRepresentation, scalar_width: int) -> int:
    """Map payload size: retained codes plus a fixed header per voxel.

    Decoder weights are scene-agnostic and counted separately.
    """
    return (len(scene.voxels) * VOXEL_HEADER_BYTES
            + scene.retained_codes() * scene.dims[2] * scalar_width)


def scene_to_bytes(scene: SceneRepresentation) -> bytes:
    w = Writer(SCENE_MAGIC, SCENE_FORMAT_VERSION)
    w.f32(scene.side_length, "scene.side_length")
    t, n, d = scene.dims
    w.u32(t)
    w.u32(n)
    w.u32(d)
    w.u32(len(scene.voxels))
    for v in scene.sorted_voxels():
        w.i32(v.id.ix)
        w.i32(v.id.iy)
        w.i32(v.id.iz)
        w.f32_array(v.origin)
        w.u32(len(v.members))
        w.u32(len(v.covering_views))
        w.u32_array(v.members)
        w.u32_array(sorted(v.covering_views))
        for bt in range(t):
            w.f32_array(v.codes.scales[bt].values[:, 0])
            w.f32_array(v.codes.codes[bt].values[v.codes.active_rows(bt)])
    return w.getvalue()


def scene_from_bytes(data: bytes | BinaryIO) -> SceneRepresentation:
    r = Reader(data, SCENE_MAGIC, SCENE_FORMAT_VERSION, "scene")
    side = r.f32("side length")
    t = r.u32("T")
    if t == 0:
        raise FormatError(r.offset - 4, "block count T is 0")
    n = r.u32("N")
    d = r.u32("D")
    if d > MAX_CODE_DIM:
        raise FormatError(r.offset - 4, f"code width D = {d} exceeds the "
                                        f"format maximum {MAX_CODE_DIM}")
    count = r.u32("voxel count")
    # each voxel holds at least its header and a scale per code
    if count * (VOXEL_HEADER_BYTES + 4 * t * n) > r.remaining:
        raise FormatError(r.offset, f"{count} voxels of {t}x{n} codes do not "
                                    f"fit in the {r.remaining} bytes left")
    voxels = {}
    for _ in range(count):
        vid = VoxelId(r.i32("ix"), r.i32("iy"), r.i32("iz"))
        origin = r.f32_array(3, "origin")
        n_members = r.u32("member count")
        n_views = r.u32("view count")
        members = r.u32_array(n_members, "members")
        views = [int(x) for x in r.u32_array(n_views, "covering views")]
        prefix = f"voxel({vid.ix},{vid.iy},{vid.iz})"
        codes, scales = [], []
        for bt in range(t):
            wvals = r.f32_array(n, f"scales block {bt}")
            keep = np.flatnonzero(wvals != 0.0)
            kept = r.f32_array(len(keep) * d, f"codes block {bt}")
            vals = np.zeros((n, d))
            vals[keep] = kept.reshape(len(keep), d)
            codes.append(DTensor(vals, name=f"{prefix}.codes.{bt}"))
            scales.append(DTensor(wvals[:, None],
                                  name=f"{prefix}.scales.{bt}"))
        voxels[vid] = Voxel(vid, origin, members,
                            CodeBank(codes, scales), views)
    r.expect_end()
    return SceneRepresentation(side, (t, n, d), voxels)


def save_scene(scene: SceneRepresentation, path) -> None:
    # serialized first, so a refused save leaves no file behind
    Path(path).write_bytes(scene_to_bytes(scene))


def load_scene(path) -> SceneRepresentation:
    with open(path, "rb") as f:
        return scene_from_bytes(f)
