"""Loss oracles, the sampling schedule, and the two-stage training loop."""

import numpy as np
import pytest

from voxloc import diffcore as dc
from voxloc.decoder import DecoderParams, params_to_bytes
from voxloc.initialization import (COORD_DIMS, InitConfig,
                                   aligned_decoder_init, inject_codes)
from voxloc.scene import assign_coverage, build_scene, drop_uncovered
from voxloc.synthworld import WorldConfig, generate_dataset
from voxloc.training import (TrainConfig, adapt_scene, confidence_loss,
                             coordinate_loss, make_sample, run_training,
                             sample_epoch, sparsity_loss, total_loss)

DIMS = (2, 8, 16)


def tiny_setup(seed=0):
    ds = generate_dataset(WorldConfig(num_points=150, num_ref_views=12,
                                      num_query_views=2, seed=seed))
    scene = build_scene(list(ds.points.values()), 4.0, DIMS,
                        np.random.default_rng(seed))
    assign_coverage(scene, ds, min_points=5)
    drop_uncovered(scene)
    params = DecoderParams.init(np.random.default_rng(seed + 1), d_raw=64,
                                d=16, num_blocks=2, block_hidden=8,
                                head_hidden=8)
    return ds, scene, params


def tiny_config(**over):
    base = dict(epochs_stage1=3, epochs_stage2=2, keypoints_per_sample=32,
                lr_halving_period=2, prune_threshold=0.001, min_points=5,
                seed=0)
    return TrainConfig(**{**base, **over})


class TestLossOracles:
    def test_coordinate_loss_matches_manual(self):
        rng = np.random.default_rng(0)
        local = rng.normal(size=(6, 3))
        origin = rng.normal(size=3)
        targets = rng.normal(size=(6, 3))
        in_voxel = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0])
        got = coordinate_loss(None, dc.DTensor(local), origin, targets,
                              in_voxel).values
        rows = [0, 2, 3, 5]
        ref = np.mean([np.linalg.norm(local[i] + origin - targets[i])
                       for i in rows])
        np.testing.assert_allclose(got, ref, atol=1e-14)

    def test_coordinate_loss_empty_batch_is_zero(self):
        got = coordinate_loss(None, dc.DTensor(np.ones((3, 3))), np.zeros(3),
                              np.zeros((3, 3)), np.zeros(3))
        assert got.values == 0.0

    def test_confidence_loss_matches_manual_bce(self):
        rng = np.random.default_rng(1)
        p = rng.uniform(0.05, 0.95, size=(8, 1))
        y = (rng.uniform(size=8) > 0.5).astype(float)
        got = confidence_loss(None, dc.DTensor(p), y).values
        ref = -np.mean(y * np.log(p[:, 0]) + (1 - y) * np.log(1 - p[:, 0]))
        np.testing.assert_allclose(got, ref, atol=1e-14)

    def test_sparsity_loss_matches_manual(self):
        _, scene, _ = tiny_setup()
        for voxel in scene.sorted_voxels()[:2]:
            got = sparsity_loss(None, voxel).values
            ref = sum(np.abs(w.values).sum() for w in voxel.codes.scales)
            np.testing.assert_allclose(got, ref, atol=1e-12)

    def test_total_loss_stage_semantics(self):
        cfg = tiny_config(lambda_coord=2.0, lambda_conf=3.0, lambda_l1=0.5)
        lx = dc.DTensor(np.array(1.0))
        lc = dc.DTensor(np.array(10.0))
        ls = dc.DTensor(np.array(100.0))
        stage1 = total_loss(None, lx, lc, ls, cfg, stage=1).values
        stage2 = total_loss(None, lx, lc, ls, cfg, stage=2).values
        np.testing.assert_allclose(stage1, 2.0 + 30.0 + 50.0)
        np.testing.assert_allclose(stage2, 2.0 + 30.0)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            TrainConfig(lambda_l1=-1.0)


class TestSampling:
    def test_make_sample_supervision(self):
        ds, scene, _ = tiny_setup()
        voxel = scene.sorted_voxels()[0]
        view_id = voxel.covering_views[0]
        sample = make_sample(voxel, view_id, ds)
        view = ds.views[view_id]
        members = set(int(m) for m in voxel.members)
        for i, pid in enumerate(view.point_ids):
            pid = int(pid)
            expect = pid in members and ds.points[pid].valid
            assert bool(sample.in_voxel[i]) == expect
            if expect:
                np.testing.assert_array_equal(sample.targets[i],
                                              ds.points[pid].position)

    def test_make_sample_subsampling(self):
        ds, scene, _ = tiny_setup()
        voxel = scene.sorted_voxels()[0]
        view_id = voxel.covering_views[0]
        full = make_sample(voxel, view_id, ds)
        sub = make_sample(voxel, view_id, ds, max_keypoints=5,
                          rng=np.random.default_rng(0))
        assert len(sub.in_voxel) == 5 and len(full.in_voxel) > 5
        with pytest.raises(ValueError):
            make_sample(voxel, view_id, ds, max_keypoints=5)

    def test_sample_epoch_covers_each_voxel_once(self):
        ds, scene, _ = tiny_setup()
        samples = sample_epoch(scene, ds, np.random.default_rng(0))
        assert len(samples) == len(scene.voxels)
        assert sorted(s.voxel.id for s in samples) == sorted(scene.voxels)
        for s in samples:
            assert s.view_id in s.voxel.covering_views

    def test_sample_epoch_deterministic(self):
        ds, scene, _ = tiny_setup()
        a = sample_epoch(scene, ds, np.random.default_rng(5))
        b = sample_epoch(scene, ds, np.random.default_rng(5))
        assert [(s.voxel.id, s.view_id) for s in a] \
            == [(s.voxel.id, s.view_id) for s in b]

    def test_sample_epoch_refuses_a_covering_view_beyond_the_dataset(self):
        ds, scene, _ = tiny_setup()
        voxel = scene.sorted_voxels()[1]
        voxel.covering_views = voxel.covering_views + [12]
        with pytest.raises(ValueError) as err:
            sample_epoch(scene, ds, np.random.default_rng(0))
        assert str(err.value) == (f"voxel {voxel.id} is covered by view 12, "
                                  "but the dataset has 12 views")


def invalidated_member():
    """tiny_setup with one member of the first voxel, observed by the voxel's
    first covering view, made invalid. Also returns the point as it was and
    how many members that view observed."""
    ds, scene, _ = tiny_setup()
    voxel = scene.sorted_voxels()[0]
    view_id = voxel.covering_views[0]
    observed = np.intersect1d(voxel.members, ds.views[view_id].point_ids)
    lost = ds.points[int(observed[0])]
    ds.points[lost.id] = type(lost)(lost.id, None, False)
    return ds, scene, voxel, view_id, lost, len(observed)


class TestInvalidMember:
    def test_make_sample_marks_its_rows_out_with_zero_targets(self):
        ds, _, voxel, view_id, lost, observed = invalidated_member()
        sample = make_sample(voxel, view_id, ds)
        rows = ds.views[view_id].point_ids == lost.id
        assert rows.sum() == 1
        np.testing.assert_array_equal(sample.in_voxel[rows], 0.0)
        np.testing.assert_array_equal(sample.targets[rows], 0.0)
        assert sample.in_voxel.sum() == observed - 1

    def test_assign_coverage_does_not_count_it(self):
        ds, scene, voxel, view_id, _, observed = invalidated_member()
        assign_coverage(scene, ds, min_points=observed)
        assert view_id not in voxel.covering_views
        assign_coverage(scene, ds, min_points=observed - 1)
        assert view_id in voxel.covering_views

    def test_inject_codes_writes_no_payload_for_it(self):
        ds, scene, voxel, _, lost, _ = invalidated_member()
        params = aligned_decoder_init(np.random.default_rng(1), d_raw=64,
                                      d=16, num_blocks=2)
        inject_codes(scene, ds, params, np.random.default_rng(2),
                     InitConfig(coord_scale=0.5))
        payloads = np.vstack([c.values[:, 16 - COORD_DIMS:]
                              for c in voxel.codes.codes])
        gone = (lost.position - voxel.origin) * 0.5
        assert not (payloads == gone).all(axis=1).any()
        # the T x N slots outnumber the members, so every valid one shows
        valid = [int(m) for m in voxel.members if m != lost.id]
        assert len(payloads) >= len(valid)
        for m in valid:
            want = (ds.points[m].position - voxel.origin) * 0.5
            assert (payloads == want).all(axis=1).any()


class TestRunTraining:
    def test_two_stage_schedule_and_log(self):
        ds, scene, params = tiny_setup()
        cfg = tiny_config()
        log = run_training(scene, ds, params, cfg)
        assert len(log.records) == 5
        assert [r.stage for r in log.records] == [1, 1, 1, 2, 2]
        assert [r.epoch for r in log.records] == [0, 1, 2, 3, 4]
        # halving runs on the global epoch counter across both stages
        for r in log.records:
            assert r.lr_agnostic == cfg.lr_agnostic * 0.5 ** (r.epoch // 2)
        assert all(np.isfinite([r.total for r in log.records]))

    def test_stage2_freezes_scales(self):
        ds, scene, params = tiny_setup()
        cfg = tiny_config(epochs_stage1=1, epochs_stage2=0)
        run_training(scene, ds, params, cfg)
        frozen = [v.codes.scales[t].values.copy()
                  for v in scene.sorted_voxels() for t in range(2)]
        ds2, scene2, params2 = tiny_setup()
        cfg2 = tiny_config(epochs_stage1=1, epochs_stage2=3)
        run_training(scene2, ds2, params2, cfg2)
        after = [v.codes.scales[t].values.copy()
                 for v in scene2.sorted_voxels() for t in range(2)]
        for a, b in zip(frozen, after):
            np.testing.assert_array_equal(a, b)

    def test_training_is_deterministic(self):
        ds, scene, params = tiny_setup()
        log_a = run_training(scene, ds, params, tiny_config())
        ds2, scene2, params2 = tiny_setup()
        log_b = run_training(scene2, ds2, params2, tiny_config())
        assert [r.total for r in log_a.records] \
            == [r.total for r in log_b.records]
        for va, vb in zip(scene.sorted_voxels(), scene2.sorted_voxels()):
            for ca, cb in zip(va.codes.codes, vb.codes.codes):
                np.testing.assert_array_equal(ca.values, cb.values)
        assert params_to_bytes(params) == params_to_bytes(params2)

    def test_degenerate_prune_threshold_raises(self):
        ds, scene, params = tiny_setup()
        with pytest.raises(ValueError):
            run_training(scene, ds, params, tiny_config(prune_threshold=1e9))

    def test_log_csv(self, tmp_path):
        ds, scene, params = tiny_setup()
        log = run_training(scene, ds, params, tiny_config())
        path = tmp_path / "log.csv"
        log.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0].startswith("epoch,stage,")
        assert len(lines) == 6


class TestZeroScalesStayZero:
    """A code is pruned exactly when its scale is 0.0, and training never
    revives one: its row is never gathered, the L1 gradient sign(0) is 0,
    and Adam moves a parameter whose moments are 0 by exactly 0."""

    @pytest.mark.parametrize("train", [run_training, adapt_scene])
    def test_a_zeroed_scale_stays_zero(self, train):
        ds, scene, params = tiny_setup()
        scales = [w for v in scene.sorted_voxels() for w in v.codes.scales]
        for w in scales:
            w.values[::3] = 0.0
        before = [w.values.copy() for w in scales]
        # both stages; the L1 term runs in stage 1 and prunes nothing more
        train(scene, ds, params, tiny_config(prune_threshold=0.0))
        for w, b in zip(scales, before):
            assert w.values[::3].tobytes() == b[::3].tobytes()
        assert any(not np.array_equal(w.values, b)
                   for w, b in zip(scales, before))


class TestAdaptation:
    def test_decoder_weights_byte_frozen(self):
        ds, scene, params = tiny_setup()
        before = params_to_bytes(params)
        adapt_scene(scene, ds, params, tiny_config(lambda_l1=0.0,
                                                   epochs_stage1=2))
        assert params_to_bytes(params) == before

    def test_backward_never_reaches_the_decoder(self, monkeypatch):
        # no optimizer owns the decoder weights, so no VJP into them runs
        ds, scene, params = tiny_setup()
        weights = {id(p) for p in params.named_parameters().values()}
        record = dc.Tape.record

        def spy(g):
            raise AssertionError("VJP into a decoder weight called")

        def record_spied(tape, out, pulls):
            record(tape, out, [(inp, spy if id(inp) in weights else vjp)
                               for inp, vjp in pulls])
        monkeypatch.setattr(dc.Tape, "record", record_spied)
        adapt_scene(scene, ds, params, tiny_config(lambda_l1=0.0,
                                                   epochs_stage1=2))

    def test_codes_move(self):
        # and so do their scales: adaptation trains both
        ds, scene, params = tiny_setup()
        banks = [v.codes for v in scene.sorted_voxels()]
        codes = [c for b in banks for c in b.codes]
        scales = [w for b in banks for w in b.scales]
        snapshots = [[t.values.copy() for t in ts] for ts in (codes, scales)]
        adapt_scene(scene, ds, params, tiny_config(lambda_l1=0.0,
                                                   epochs_stage1=2))
        for tensors, snapshot in zip((codes, scales), snapshots):
            assert any(not np.array_equal(a, t.values)
                       for a, t in zip(snapshot, tensors))

    def test_dim_mismatch_rejected(self):
        ds, scene, _ = tiny_setup()
        bad = DecoderParams.init(np.random.default_rng(0), d_raw=64, d=24,
                                 num_blocks=2, block_hidden=8, head_hidden=8)
        with pytest.raises(Exception):
            adapt_scene(scene, ds, bad, tiny_config())
