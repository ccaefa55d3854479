"""Hand-written scene files, for tests of what the scene reader refuses."""

import numpy as np

from voxloc.containers import Writer
from voxloc.scene import SCENE_FORMAT_VERSION, SCENE_MAGIC

# one block of one code: (scales, stored code values)
KEPT = ([1.0], [0.5])  # kept, but only its first value stored
PRUNED = ([0.0], [])


def raw_scene(t, n, d, blocks):
    """Scene file bytes claiming T x N x D codes per voxel. Voxel i sits at
    (i, 0, 0) with no members or views and holds blocks[i], whatever the
    claimed dims: 28 header bytes, then 32 per voxel plus its block."""
    w = Writer(SCENE_MAGIC, SCENE_FORMAT_VERSION)
    w.f32(2.0)
    for count in (t, n, d, len(blocks)):  # T, N, D, voxel count
        w.u32(count)
    for ix, (scales, codes) in enumerate(blocks):
        for c in (ix, 0, 0):
            w.i32(c)
        w.f32_array(np.zeros(3))
        w.u32(0)  # members
        w.u32(0)  # covering views
        w.f32_array(scales)
        w.f32_array(codes)
    return w.getvalue()
