"""Voxelization, code banks, pruning, byte accounting, and persistence."""

import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from scene_files import KEPT, PRUNED, raw_scene
from voxloc.containers import FormatError
from voxloc.decoder import DecoderParams, bank_keys, decode, encode_feature
from voxloc.diffcore import DTensor
from voxloc.geometry import Point3D
from voxloc.synthworld import WorldConfig, generate_dataset
from voxloc.scene import (MAX_CODE_DIM, CodeBank, SceneRepresentation,
                          VoxelId, assign_coverage, build_scene,
                          drop_uncovered, load_scene, prune, save_scene,
                          scene_from_bytes, scene_to_bytes, size_bytes,
                          valid_members, voxelize)

# file header: magic + version + side length + (T, N, D) + voxel count
FILE_HEADER_BYTES = 28


def file_overhead_bytes(scene: SceneRepresentation) -> int:
    """Bytes in the scene file beyond size_bytes(scene, 4).

    File header plus, per voxel, the member/view id lists and the per-block
    scale (f32) tables.
    """
    t, n, _ = scene.dims
    total = FILE_HEADER_BYTES
    for v in scene.voxels.values():
        total += 4 * len(v.members) + 4 * len(v.covering_views) + t * 4 * n
    return total


def scenes_equal(a: SceneRepresentation, b: SceneRepresentation) -> bool:
    """Deep equality of every persisted field.

    Reals are compared after the float32 quantization the file format
    applies, so a scene compares equal to its own save/load round trip.
    """
    def f32(x):
        return np.asarray(x, dtype="<f4")

    if (f32(a.side_length) != f32(b.side_length) or a.dims != b.dims
            or sorted(a.voxels) != sorted(b.voxels)):
        return False
    for vid, va in a.voxels.items():
        vb = b.voxels[vid]
        if (not np.array_equal(f32(va.origin), f32(vb.origin))
                or not np.array_equal(va.members, vb.members)
                or sorted(va.covering_views) != sorted(vb.covering_views)):
            return False
        for ca, cb, sa, sb in zip(va.codes.codes, vb.codes.codes,
                                  va.codes.scales, vb.codes.scales):
            # only codes whose float32 scale is nonzero are stored
            keep = f32(sa.values[:, 0]) != 0.0
            if (not np.array_equal(f32(sa.values), f32(sb.values))
                    or not np.array_equal(f32(ca.values[keep]),
                                          f32(cb.values[keep]))):
                return False
    return True


def make_points(rng, n=40, lo=-3.0, hi=3.0):
    return [Point3D(i, rng.uniform(lo, hi, size=3), True) for i in range(n)]


def small_scene(seed=0, dims=(2, 4, 6), side=2.0, n=40):
    rng = np.random.default_rng(seed)
    return build_scene(make_points(rng, n), side, dims, rng)


def spy_on_allocations(monkeypatch):
    """Fail any np.zeros or np.empty call of 2**20 or more elements."""
    def bounded(alloc, real):
        def spy(shape, *args, **kwargs):
            assert np.prod(shape, dtype=float) < 2 ** 20, f"np.{alloc}{shape}"
            return real(shape, *args, **kwargs)
        return spy
    for alloc in ("zeros", "empty"):
        monkeypatch.setattr(np, alloc, bounded(alloc, getattr(np, alloc)))


class TestVoxelize:
    def test_boundary_belongs_to_upper_cell(self):
        pts = [Point3D(0, np.array([2.0, 0.1, 0.1]), True),
               Point3D(1, np.array([1.999, 0.1, 0.1]), True),
               Point3D(2, np.array([-0.001, 0.1, 0.1]), True)]
        cells = voxelize(pts, 2.0)
        assert cells[VoxelId(1, 0, 0)] == {0}
        assert cells[VoxelId(0, 0, 0)] == {1}
        assert cells[VoxelId(-1, 0, 0)] == {2}

    def test_invalid_points_skipped(self):
        pts = [Point3D(0, np.array([0.5, 0.5, 0.5]), True),
               Point3D(1, None, False)]
        cells = voxelize(pts, 1.0)
        assert sum(len(s) for s in cells.values()) == 1

    def test_bad_side_length(self):
        with pytest.raises(ValueError):
            voxelize([], 0.0)


class TestBuildScene:
    def test_origin_is_member_mean(self):
        scene = small_scene()
        pos = {p.id: p.position
               for p in make_points(np.random.default_rng(0))}
        for v in scene.voxels.values():
            np.testing.assert_allclose(
                v.origin, np.mean([pos[m] for m in v.members], axis=0))

    def test_members_sorted_and_disjoint(self):
        scene = small_scene()
        seen = set()
        for v in scene.voxels.values():
            assert list(v.members) == sorted(v.members)
            assert not seen & set(v.members)
            seen.update(int(m) for m in v.members)
        assert len(seen) == 40

    def test_dims_consistency_enforced(self):
        scene = small_scene()
        vid = next(iter(scene.voxels))
        bad = CodeBank.init(3, 4, 6, np.random.default_rng(0), "x")
        scene.voxels[vid].codes = bad
        with pytest.raises(ValueError):
            SceneRepresentation(scene.side_length, scene.dims, scene.voxels)


@dataclass
class FakeView:
    point_ids: np.ndarray


@dataclass
class FakeDataset:
    views: list
    points: dict


class TestValidMembers:
    def test_keeps_distinct_members_the_dataset_holds_as_valid(self):
        scene = small_scene(n=30)
        voxel = scene.sorted_voxels()[0]
        voxel.members = np.array([9, 3, 5, 3, 11, 7])
        pts = {3: Point3D(3, np.zeros(3), True),
               5: Point3D(5, None, False),
               7: Point3D(7, np.ones(3), True),
               9: Point3D(9, np.zeros(3), True)}
        got = valid_members(voxel, FakeDataset([], pts))
        np.testing.assert_array_equal(got, [3, 7, 9])
        assert got.dtype == np.int64
        empty = valid_members(voxel, FakeDataset([], {}))
        assert empty.shape == (0,) and empty.dtype == np.int64


class TestCoverage:
    def test_matches_a_set_count_per_view(self):
        ds = generate_dataset(WorldConfig(num_points=150, num_ref_views=12,
                                          num_query_views=2, seed=3))
        scene = build_scene(list(ds.points.values()), 4.0, (1, 2, 4),
                            np.random.default_rng(0))
        for pid in list(ds.points)[::7]:  # some members turn invalid
            ds.points[pid] = Point3D(pid, None, False)
        for i, view in enumerate(ds.views):  # and views see fewer of them
            view.point_ids = view.point_ids[::i % 4 + 1]
        assign_coverage(scene, ds, min_points=9)
        for v in scene.sorted_voxels():
            members = set(v.members.tolist())
            expect = [i for i, view in enumerate(ds.views)
                      if len({p for p in view.point_ids.tolist()
                              if p in members and ds.points[p].valid}) >= 9]
            assert v.covering_views == expect
        assert any(0 < len(v.covering_views) < 12
                   for v in scene.sorted_voxels())

    def test_min_points_threshold(self):
        scene = small_scene(n=30)
        voxels = scene.sorted_voxels()
        target = max(voxels, key=lambda v: len(v.members))
        assert len(target.members) >= 3
        pts = {int(m): Point3D(int(m), np.zeros(3), True)
               for v in voxels for m in v.members}
        full = FakeView(np.array([int(m) for m in target.members]))
        partial = FakeView(np.array([int(m) for m in target.members][:2]))
        ds = FakeDataset([full, partial], pts)
        assign_coverage(scene, ds, min_points=len(target.members))
        assert target.covering_views == [0]

    def test_invalid_points_do_not_count(self):
        scene = small_scene(n=30)
        target = scene.sorted_voxels()[0]
        pts = {int(m): Point3D(int(m), None, False) for m in target.members}
        ds = FakeDataset([FakeView(np.array(list(target.members)))], pts)
        assign_coverage(scene, ds, min_points=1)
        assert target.covering_views == []

    def test_a_member_listed_twice_counts_once(self):
        scene = small_scene(n=30)
        target = max(scene.sorted_voxels(), key=lambda v: len(v.members))
        pts = {int(m): Point3D(int(m), np.zeros(3), True)
               for m in target.members}
        twice = np.repeat(target.members[:2], 2)
        ds = FakeDataset([FakeView(twice)], pts)
        assign_coverage(scene, ds, min_points=3)
        assert target.covering_views == []
        assign_coverage(scene, ds, min_points=2)
        assert target.covering_views == [0]

    def test_drop_uncovered(self):
        scene = small_scene(n=30)
        voxels = scene.sorted_voxels()
        for v in voxels:
            v.covering_views = [0]
        voxels[0].covering_views = []
        dropped = drop_uncovered(scene)
        assert dropped == [voxels[0].id]
        assert voxels[0].id not in scene.voxels

    def test_drop_everything_raises(self):
        scene = small_scene(n=30)
        for v in scene.voxels.values():
            v.covering_views = []
        with pytest.raises(ValueError):
            drop_uncovered(scene)


class TestPrune:
    def test_threshold_semantics(self):
        scene = small_scene()
        v = scene.sorted_voxels()[0]
        v.codes.scales[0].values[:, 0] = [0.5, 0.01, -0.02, -0.6]
        report = prune(scene, 0.05)
        np.testing.assert_array_equal(v.codes.scales[0].values[:, 0] == 0.0,
                                      [False, True, True, False])
        np.testing.assert_array_equal(v.codes.scales[0].values[:, 0],
                                      [0.5, 0.0, 0.0, -0.6])
        np.testing.assert_array_equal(v.codes.active_rows(0), [0, 3])
        assert report.bytes_before > report.bytes_after

    def test_pruning_is_monotonic(self):
        scene = small_scene()
        v = scene.sorted_voxels()[0]
        v.codes.scales[0].values[:, 0] = [0.5, 0.01, 0.3, 0.6]
        prune(scene, 0.05)
        # a later pass with a lower threshold must not resurrect anything
        prune(scene, 0.001)
        assert v.codes.scales[0].values[1, 0] == 0.0

    def test_report_counts(self):
        scene = small_scene(dims=(2, 4, 6))
        report = prune(scene, 0.0)
        nvox = len(scene.voxels)
        assert report.total_codes == nvox * 2 * 4
        assert report.total_retained == report.total_codes  # scales are 1.0

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            prune(small_scene(), -0.1)

    @pytest.mark.parametrize("zero", [0.0, -0.0])
    def test_a_zero_scale_is_pruned(self, zero):
        # without prune(): the code is neither retained nor stored nor decoded
        scene = small_scene(dims=(1, 3, 4))
        before = size_bytes(scene, 4)
        bank = scene.sorted_voxels()[0].codes
        bank.scales[0].values[1, 0] = zero
        np.testing.assert_array_equal(bank.active_rows(0), [0, 2])
        assert bank.retained_count(0) == 2
        assert size_bytes(scene, 4) == before - 4 * 4
        blob = scene_to_bytes(scene)
        assert len(blob) == size_bytes(scene, 4) + file_overhead_bytes(scene)
        loaded = scene_from_bytes(blob)
        assert scene_to_bytes(loaded) == blob
        w = loaded.sorted_voxels()[0].codes.scales[0].values[1, 0]
        assert w == 0.0 and np.signbit(w) == np.signbit(zero)


class TestByteAccounting:
    def test_size_formula(self):
        scene = small_scene(dims=(2, 4, 6))
        t, n, d = scene.dims
        expected = sum(32 + t * n * d * 4 for _ in scene.voxels)
        assert size_bytes(scene, 4) == expected

    def test_size_drops_with_pruning(self):
        scene = small_scene(dims=(2, 4, 6))
        before = size_bytes(scene, 4)
        for v in scene.voxels.values():
            v.codes.scales[0].values[:2, 0] = 0.0
        prune(scene, 1e-9)
        d = scene.dims[2]
        assert size_bytes(scene, 4) == before - len(scene.voxels) * 2 * d * 4

    def test_file_size_matches_accounting(self, tmp_path):
        scene = small_scene()
        for v in scene.voxels.values():
            v.covering_views = [0, 3]
        blob = scene_to_bytes(scene)
        assert len(blob) == size_bytes(scene, 4) + file_overhead_bytes(scene)
        # pruned scenes drop the pruned code payload from the file too
        prune_some(scene)
        blob = scene_to_bytes(scene)
        assert len(blob) == size_bytes(scene, 4) + file_overhead_bytes(scene)


def prune_some(scene):
    for v in scene.voxels.values():
        v.codes.scales[0].values[0, 0] = 0.0
    prune(scene, 1e-9)


class TestPersistence:
    def test_roundtrip_equal(self, tmp_path):
        scene = small_scene()
        for v in scene.voxels.values():
            v.covering_views = [1, 2]
        path = tmp_path / "scene.bin"
        save_scene(scene, path)
        loaded = load_scene(path)
        assert scenes_equal(scene, loaded)
        assert scenes_equal(loaded, scene)

    @pytest.mark.parametrize("bad", [np.nan, 1e300])
    def test_save_refuses_what_float32_cannot_hold(self, tmp_path, bad):
        # the reader would reject such a file, so none is written
        scene = small_scene()
        scene.sorted_voxels()[0].origin[0] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite float32"):
                save_scene(scene, tmp_path / "s.bin")
        assert not (tmp_path / "s.bin").exists()

    def test_roundtrip_byte_identical(self):
        scene = small_scene()
        blob = scene_to_bytes(scene)
        again = scene_to_bytes(scene_from_bytes(blob))
        assert blob == again

    def test_pruned_roundtrip(self):
        scene = small_scene()
        prune_some(scene)
        loaded = scene_from_bytes(scene_to_bytes(scene))
        assert scenes_equal(scene, loaded)
        for vid, v in scene.voxels.items():
            for t in range(scene.dims[0]):
                np.testing.assert_array_equal(
                    v.codes.active_rows(t),
                    loaded.voxels[vid].codes.active_rows(t))

    def test_a_scale_float32_flushes_to_zero_is_pruned_on_save(self):
        # memory and file agree: the row is pruned before any save, in
        # attention, in the map size and in the codes the writer stores
        scene, zeroed = small_scene(), small_scene()
        scene.sorted_voxels()[0].codes.scales[0].values[1, 0] = 1e-60
        zeroed.sorted_voxels()[0].codes.scales[0].values[1, 0] = 0.0
        assert 1 not in scene.sorted_voxels()[0].codes.active_rows(0)
        assert size_bytes(scene, 4) == size_bytes(zeroed, 4)
        params = DecoderParams.init(np.random.default_rng(1), d_raw=8, d=6,
                                    num_blocks=2, block_hidden=8,
                                    head_hidden=8)
        feats = encode_feature(None, params, DTensor(
            np.random.default_rng(2).normal(size=(5, 8))))
        got, want = (decode(None, params, feats, [(5, bank_keys(
            None, params, s.sorted_voxels()[0].codes))])
            for s in (scene, zeroed))
        for a, b in zip(got, want):
            assert a.values.tobytes() == b.values.tobytes()
        loaded = scene_from_bytes(scene_to_bytes(scene))
        assert scenes_equal(scene, loaded)
        assert 1 not in loaded.sorted_voxels()[0].codes.active_rows(0)

    def test_a_scale_beyond_float32_stays_live_and_save_refuses(self,
                                                                tmp_path):
        scene = small_scene()
        bank = scene.sorted_voxels()[0].codes
        bank.scales[0].values[1, 0] = 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert 1 in bank.active_rows(0)
            assert size_bytes(scene, 4) == size_bytes(small_scene(), 4)
            with pytest.raises(ValueError, match="finite float32"):
                save_scene(scene, tmp_path / "s.bin")
        assert not (tmp_path / "s.bin").exists()

    def test_mutation_breaks_equality(self):
        scene = small_scene()
        loaded = scene_from_bytes(scene_to_bytes(scene))
        v = loaded.sorted_voxels()[0]
        v.codes.codes[0].values[0, 0] += 1.0
        assert not scenes_equal(scene, loaded)

    def test_bad_magic(self):
        blob = bytearray(scene_to_bytes(small_scene()))
        blob[:4] = b"XXXX"
        with pytest.raises(FormatError):
            scene_from_bytes(bytes(blob))

    def test_bad_version(self):
        blob = bytearray(scene_to_bytes(small_scene()))
        blob[4:8] = (99).to_bytes(4, "little")
        with pytest.raises(FormatError):
            scene_from_bytes(bytes(blob))

    def test_truncated(self):
        blob = scene_to_bytes(small_scene())
        with pytest.raises(FormatError):
            scene_from_bytes(blob[:-7])

    @pytest.mark.parametrize("t, d", [(1, 2 ** 31), (2 ** 31, 1)])
    def test_huge_header_counts_rejected_before_allocating(self, monkeypatch,
                                                           t, d):
        # one voxel of one kept code: 68 bytes claiming T x 1 x D codes
        blob = raw_scene(t, 1, d, [KEPT])
        assert len(blob) == 68
        spy_on_allocations(monkeypatch)
        with pytest.raises(FormatError):
            scene_from_bytes(blob)

    @pytest.mark.parametrize("d", [MAX_CODE_DIM + 1, 2 ** 31])
    def test_fully_pruned_block_cannot_claim_a_huge_d(self, monkeypatch, d):
        # a pruned code stores no code bytes, so only the format bounds D
        blob = raw_scene(1, 1, d, [PRUNED])
        assert len(blob) == 64
        spy_on_allocations(monkeypatch)
        with pytest.raises(FormatError, match="format maximum"):
            scene_from_bytes(blob)

    def test_fully_pruned_first_voxel_cannot_claim_a_huge_d(self, monkeypatch):
        # the second voxel's code would show D too big, but only after the
        # first voxel's block had been allocated
        blob = raw_scene(1, 1, 2 ** 31, [PRUNED, KEPT])
        spy_on_allocations(monkeypatch)
        with pytest.raises(FormatError, match="format maximum"):
            scene_from_bytes(blob)

    def test_zero_blocks_rejected(self):
        # a voxel without blocks has no block 0 for CodeBank.dims to read
        blob = raw_scene(0, 1, 1, [([], [])])
        assert len(blob) == 60
        with pytest.raises(FormatError, match="T is 0"):
            scene_from_bytes(blob)

    def test_largest_code_dim_roundtrips(self):
        scene = small_scene(dims=(1, 2, MAX_CODE_DIM))
        for v in scene.voxels.values():
            v.codes.scales[0].values[...] = 0.0
        prune(scene, 1e-9)
        assert scenes_equal(scene, scene_from_bytes(scene_to_bytes(scene)))
        with pytest.raises(ValueError, match="D must be in"):
            small_scene(dims=(1, 2, MAX_CODE_DIM + 1))

    def test_trailing_garbage(self):
        blob = scene_to_bytes(small_scene())
        with pytest.raises(FormatError):
            scene_from_bytes(blob + b"\0")
