"""Structured initialization: aligned decoder weights plus code banks seeded
from reference observations.

Each code bank starts life carrying the scene's own measurements instead of
noise: every code row holds one member point's encoded mean descriptor (in a
dedicated descriptor subspace) concatenated with the point's local
coordinates (in a small coordinate payload). The attention projections start
as scaled identities over the descriptor subspace, so a query keypoint
immediately attends to the codes injected from the same physical point and
the attended value already contains the right coordinates. Training then
only has to sharpen the match and teach the output head to read the payload,
which fits in a short fixed epoch budget; random code initialization does
not, because each bank receives just one gradient update per epoch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .containers import bound, check_bounds
from .decoder import DecoderParams
from .scene import SceneRepresentation, valid_members
from .synthworld import ReferenceDataset

# trailing code/feature dimensions reserved for the coordinate payload
COORD_DIMS = 3


@dataclass
class InitConfig:
    """Scales for the aligned initialization.

    desc_scale multiplies the orthonormal descriptor projection (larger means
    sharper attention between matching descriptors), coord_scale multiplies
    the local coordinates stored in the payload dims, and attn_scale is the
    diagonal magnitude of the initial query/key maps over the descriptor
    subspace.
    """
    desc_scale: float = bound(3.0, 0, strict=True)
    coord_scale: float = bound(0.5, 0, strict=True)
    attn_scale: float = bound(4.0, 0, strict=True)

    def __post_init__(self):
        check_bounds(self, "init")


def aligned_decoder_init(rng: np.random.Generator, d_raw: int = 64,
                         d: int = 32, num_blocks: int = 6,
                         block_hidden: int = 32, head_hidden: int = 32,
                         config: InitConfig | None = None) -> DecoderParams:
    """Decoder weights set up for descriptor-matching attention.

    The encoder is a single linear layer whose first d - COORD_DIMS output
    columns form a scaled orthonormal projection of the raw descriptor space
    (its payload columns start at zero); every block's query/key maps are
    scaled identities over that descriptor subspace and the value map is the
    identity, so attended values pass injected code rows through unchanged.
    Block MLPs, layer norms, and the output head keep their standard random
    initialization.
    """
    cfg = config or InitConfig()
    if not 0 < COORD_DIMS < d:
        raise ValueError(f"feature width {d} leaves no descriptor subspace")
    params = DecoderParams.init(rng, d_raw=d_raw, d=d, num_blocks=num_blocks,
                                block_hidden=block_hidden,
                                head_hidden=head_hidden)
    dp = d - COORD_DIMS
    basis, _ = np.linalg.qr(rng.normal(size=(d_raw, dp)))
    params.encoder.weights[0].values[:, :dp] = basis * cfg.desc_scale
    params.encoder.weights[0].values[:, dp:] = 0.0
    diag = np.zeros(d)
    diag[:dp] = cfg.attn_scale
    for blk in params.blocks:
        blk.wq.values[:] = np.diag(diag)
        blk.wk.values[:] = np.diag(diag)
        blk.wv.values[:] = np.eye(d)
    return params


def mean_observed_descriptors(dataset: ReferenceDataset) -> dict[int, np.ndarray]:
    """Unit-norm mean reference descriptor per point id, in id order (zero
    means left out); summed in view order. No view may repeat a point, and
    no point's sum may be non-finite."""
    all_ids = [np.zeros(0, np.int64)] + [v.point_ids for v in dataset.views]
    ids, counts = np.unique(np.concatenate(all_ids), return_counts=True)
    sums = np.zeros((len(ids), dataset.config.descriptor_dim))
    for view_id, view in enumerate(dataset.views):
        rows = np.searchsorted(ids, view.point_ids)
        if len(np.unique(rows)) < len(rows):
            raise ValueError(f"reference view {view_id} lists a point twice")
        sums[rows] += view.descriptors
    finite = np.isfinite(sums).all(axis=1)
    if not finite.all():
        raise ValueError(f"point {ids[np.argmin(finite)]} has a non-finite "
                         f"reference descriptor")
    means = sums / counts[:, None]
    return {pid: mean / norm for pid, mean in zip(ids.tolist(), means)
            if (norm := np.linalg.norm(mean)) > 0}


def inject_codes(scene: SceneRepresentation, dataset: ReferenceDataset,
                 params: DecoderParams, rng: np.random.Generator,
                 config: InitConfig | None = None) -> None:
    """Seed every code bank with the voxel's own observed points.

    Each valid member with a mean descriptor fills rows spread cyclically over
    the T x N code slots (a permutation fixes which points absorb the
    remainder), so each appears in every block when N covers them all. A row
    is the point's mean observed descriptor pushed through the encoder's
    descriptor columns, concatenated with its scaled local coordinates.
    Scales are left at their build-time value of one. The encoder's one
    weight holds the descriptor projection.
    """
    cfg = config or InitConfig()
    mean_desc = mean_observed_descriptors(dataset)
    num_blocks, codes_per_block, d = scene.dims
    dp = d - COORD_DIMS
    desc_cols = params.encoder.weights[0].values[:, :dp]
    for voxel in scene.sorted_voxels():
        members = [m for m in valid_members(voxel, dataset).tolist()
                   if m in mean_desc]
        if not members:
            raise ValueError(f"voxel {voxel.id} has no observed member points")
        cycle = np.arange(num_blocks * codes_per_block) % len(members)
        slots = rng.permutation(len(members))[cycle].reshape(num_blocks, -1)
        desc = np.array([mean_desc[m] for m in members])
        local = np.array([dataset.points[m].position
                          for m in members]) - voxel.origin
        for code, rows in zip(voxel.codes.codes, slots):
            code.values[:, :dp] = desc[rows] @ desc_cols
            code.values[:, dp:] = local[rows] * cfg.coord_scale
