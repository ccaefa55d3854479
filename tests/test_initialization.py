"""Aligned decoder initialization and observation-injected code banks."""

import numpy as np
import pytest

from voxloc.initialization import (COORD_DIMS, InitConfig,
                                   aligned_decoder_init, inject_codes,
                                   mean_observed_descriptors)
from voxloc.scene import assign_coverage, build_scene
from voxloc.synthworld import WorldConfig, generate_dataset

CFG = WorldConfig(num_points=150, num_ref_views=12, num_query_views=2, seed=3)


def setup_scene(dims=(2, 64, 16)):
    ds = generate_dataset(CFG)
    scene = build_scene(list(ds.points.values()), 4.0, dims,
                        np.random.default_rng(0))
    assign_coverage(scene, ds, min_points=5)
    return ds, scene


class TestAlignedDecoderInit:
    def test_encoder_structure(self):
        cfg = InitConfig(desc_scale=2.0, attn_scale=5.0)
        params = aligned_decoder_init(np.random.default_rng(0), d_raw=24,
                                      d=16, num_blocks=2, config=cfg)
        assert len(params.encoder.weights) == 1
        w = params.encoder.weights[0].values
        dp = 16 - COORD_DIMS
        # descriptor columns form a scaled orthonormal projection
        gram = w[:, :dp].T @ w[:, :dp]
        np.testing.assert_allclose(gram, np.eye(dp) * 4.0, atol=1e-10)
        np.testing.assert_array_equal(w[:, dp:], 0.0)

    def test_attention_maps(self):
        cfg = InitConfig(attn_scale=5.0)
        params = aligned_decoder_init(np.random.default_rng(0), d_raw=24,
                                      d=16, num_blocks=3, config=cfg)
        dp = 16 - COORD_DIMS
        diag = np.zeros(16)
        diag[:dp] = 5.0
        for blk in params.blocks:
            np.testing.assert_array_equal(blk.wq.values, np.diag(diag))
            np.testing.assert_array_equal(blk.wk.values, np.diag(diag))
            np.testing.assert_array_equal(blk.wv.values, np.eye(16))

    def test_deterministic(self):
        a = aligned_decoder_init(np.random.default_rng(4), d_raw=24, d=16)
        b = aligned_decoder_init(np.random.default_rng(4), d_raw=24, d=16)
        for name, p in a.named_parameters().items():
            np.testing.assert_array_equal(p.values,
                                          b.named_parameters()[name].values)


class TestMeanDescriptors:
    def test_oracle(self):
        ds = generate_dataset(CFG)
        means = mean_observed_descriptors(ds)
        # manual recompute for one point id
        pid = next(iter(means))
        obs = [v.descriptors[i] for v in ds.views
               for i, p in enumerate(v.point_ids) if int(p) == pid]
        ref = np.mean(obs, axis=0)
        ref /= np.linalg.norm(ref)
        np.testing.assert_allclose(means[pid], ref, atol=1e-12)

    def test_unit_norm(self):
        means = mean_observed_descriptors(generate_dataset(CFG))
        for v in means.values():
            np.testing.assert_allclose(np.linalg.norm(v), 1.0, atol=1e-12)

    def test_equals_a_running_sum_in_view_order_bit_for_bit(self):
        ds = generate_dataset(CFG)
        sums, counts = {}, {}
        for view in ds.views:
            for pid, desc in zip(view.point_ids.tolist(), view.descriptors):
                if pid in sums:
                    sums[pid] = sums[pid] + desc
                else:
                    sums[pid] = desc.copy()
                counts[pid] = counts.get(pid, 0) + 1
        means = mean_observed_descriptors(ds)
        assert list(means) == sorted(sums)
        for pid, total in sums.items():
            mean = total / counts[pid]
            np.testing.assert_array_equal(means[pid],
                                          mean / np.linalg.norm(mean))

    def test_a_view_that_lists_a_point_twice_is_refused(self):
        ds = generate_dataset(CFG)
        view = ds.views[3]
        view.point_ids = np.r_[view.point_ids, view.point_ids[5]]
        view.descriptors = np.vstack([view.descriptors, view.descriptors[5]])
        with pytest.raises(ValueError,
                           match="^reference view 3 lists a point twice$"):
            mean_observed_descriptors(ds)

    def test_a_non_finite_descriptor_names_its_point(self):
        ds = generate_dataset(CFG)
        pid = int(ds.views[3].point_ids[5])
        ds.views[3].descriptors[5, 2] = np.inf
        with pytest.raises(ValueError, match=f"^point {pid} has a non-finite "
                                             f"reference descriptor$"):
            mean_observed_descriptors(ds)

    def test_no_reference_views_gives_no_means(self):
        ds = generate_dataset(CFG)
        ds.views = []
        assert mean_observed_descriptors(ds) == {}


class TestInjectCodes:
    def test_rows_carry_member_payloads(self):
        ds, scene = setup_scene()
        params = aligned_decoder_init(np.random.default_rng(1), d_raw=64,
                                      d=16, num_blocks=2)
        cfg = InitConfig(coord_scale=0.5)
        inject_codes(scene, ds, params, np.random.default_rng(2), cfg)
        means = mean_observed_descriptors(ds)
        dp = 16 - COORD_DIMS
        desc_cols = params.encoder.weights[0].values[:, :dp]
        for voxel in scene.sorted_voxels():
            members = [int(m) for m in voxel.members
                       if int(m) in means and ds.points[int(m)].valid]
            expect_rows = {
                m: np.r_[means[m] @ desc_cols,
                         (ds.points[m].position - voxel.origin) * 0.5]
                for m in members}
            for t in range(2):
                rows = voxel.codes.codes[t].values
                seen = set()
                for row in rows:
                    hit = [m for m, ref in expect_rows.items()
                           if np.allclose(row, ref, atol=1e-12)]
                    assert len(hit) >= 1
                    seen.update(hit)
                # with N >= member count every member appears in every block
                if rows.shape[0] >= len(members):
                    assert seen == set(members)

    def test_scales_untouched(self):
        ds, scene = setup_scene()
        params = aligned_decoder_init(np.random.default_rng(1), d_raw=64,
                                      d=16, num_blocks=2)
        inject_codes(scene, ds, params, np.random.default_rng(2))
        for v in scene.voxels.values():
            for w in v.codes.scales:
                np.testing.assert_array_equal(w.values, 1.0)

    def test_deterministic(self):
        ds, scene_a = setup_scene()
        _, scene_b = setup_scene()
        params = aligned_decoder_init(np.random.default_rng(1), d_raw=64,
                                      d=16, num_blocks=2)
        inject_codes(scene_a, ds, params, np.random.default_rng(9))
        inject_codes(scene_b, ds, params, np.random.default_rng(9))
        for va, vb in zip(scene_a.sorted_voxels(), scene_b.sorted_voxels()):
            for ca, cb in zip(va.codes.codes, vb.codes.codes):
                np.testing.assert_array_equal(ca.values, cb.values)

    def test_unobserved_voxel_rejected(self):
        ds, scene = setup_scene()
        params = aligned_decoder_init(np.random.default_rng(1), d_raw=64,
                                      d=16, num_blocks=2)
        voxel = scene.sorted_voxels()[0]
        for m in voxel.members:
            ds.points[int(m)] = type(ds.points[int(m)])(int(m), None, False)
        with pytest.raises(ValueError):
            inject_codes(scene, ds, params, np.random.default_rng(2))
