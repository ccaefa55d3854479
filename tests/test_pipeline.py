"""Retrieval, voxel activation, localization mechanics, and evaluation."""

import csv
import gc
import re
import weakref
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from voxloc import decoder, pipeline
from voxloc import diffcore as dc
from voxloc.decoder import (DecoderParams, bank_keys, block_keys, decode,
                            encode_feature, params_from_bytes,
                            params_to_bytes, route_scores)
from voxloc.diffcore import DTensor, NumericError
from voxloc.geometry import MIN_DEPTH, Intrinsics, Pose, RansacResult, \
    look_at, pose_error, project_many, rotation_from_axis_angle
from voxloc.pipeline import (LocalizationResult, LocalizeOptions,
                             activate_voxels, evaluate, export_heatmap,
                             localize, retrieve_views, route_keypoints)
from voxloc.scene import (assign_coverage, build_scene, drop_uncovered,
                          scene_from_bytes, scene_to_bytes)
from voxloc.geometry import Point3D
from voxloc.synthworld import (ReferenceDataset, ViewObservations,
                               WorldConfig, generate_dataset)
from voxloc.training import TrainConfig, run_training

K = Intrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)


@dataclass
class FakeView:
    descriptors: np.ndarray
    point_ids: np.ndarray = None

    @property
    def num_keypoints(self):
        return len(self.descriptors)


def fake_dataset(views, d=4):
    """A reference dataset of stand-in views: retrieval runs the library's
    view_means on it."""
    return ReferenceDataset(views, {}, [], WorldConfig(descriptor_dim=d))


def unit(v):
    return v / np.linalg.norm(v)


class TestRetrieval:
    def test_cosine_ranking(self):
        d = 8
        q = np.tile(unit(np.ones(d)), (3, 1))
        refs = [FakeView(np.tile(unit(np.ones(d)), (2, 1))),          # sim 1
                FakeView(np.tile(unit(-np.ones(d)), (2, 1))),          # sim -1
                FakeView(np.tile(unit(np.r_[np.ones(d - 1), -1.0]),
                                 (2, 1)))]                             # middle
        ds = fake_dataset(refs, d)
        order = retrieve_views(FakeView(q), ds, top_k=3)
        assert order == [0, 2, 1]
        assert retrieve_views(FakeView(q), ds, top_k=1) == [0]

    def test_ties_break_to_lower_id(self):
        d = 4
        same = FakeView(np.tile(unit(np.ones(d)), (2, 1)))
        ds = fake_dataset([same, same, same])
        assert retrieve_views(same, ds, top_k=2) == [0, 1]

    def test_zero_norms_score_minus_one(self):
        # a view without keypoints and a view of zero mean both rank last
        d = 4
        ds = fake_dataset([FakeView(np.zeros((0, d))),
                           FakeView(np.array([unit(np.ones(d)),
                                              -unit(np.ones(d))])),
                           FakeView(np.tile(unit(np.r_[1.0, 1, 1, -1]),
                                            (2, 1)))])        # sim 0.5
        q = FakeView(np.tile(unit(np.ones(d)), (2, 1)))
        assert retrieve_views(q, ds, top_k=3) == [2, 0, 1]

    def test_empty_query(self):
        ds = fake_dataset([FakeView(np.ones((2, 4)))])
        assert retrieve_views(FakeView(np.zeros((0, 4))), ds, 3) == []

    def test_bad_top_k(self):
        with pytest.raises(ValueError):
            retrieve_views(FakeView(np.ones((1, 4))), fake_dataset([]), 0)


def grid_scene(rng, nx=4, side=1.0):
    pts = [Point3D(i, rng.uniform(0, nx * side, size=3) * [1, 0, 0]
                   + [0.1, 0.5, 0.5], True) for i in range(nx * 5)]
    return build_scene(pts, side, (2, 4, 8), rng)


class TestActivation:
    def test_union_of_covered_voxels(self):
        rng = np.random.default_rng(0)
        scene = grid_scene(rng)
        voxels = scene.sorted_voxels()
        voxels[0].covering_views = [0, 1]
        voxels[1].covering_views = [1]
        for v in voxels[2:]:
            v.covering_views = [9]
        out = activate_voxels([1], scene)
        assert out == sorted([voxels[0].id, voxels[1].id])
        assert activate_voxels([2], scene) == []
        # view 9 covers voxels[2:], view 0 covers voxels[0] only
        assert activate_voxels([0, 9], scene) \
            == sorted(v.id for v in voxels if v is not voxels[1])


def make_world_scene(rng, n_points=80):
    pts = [Point3D(i, rng.uniform(-1.5, 1.5, size=3), True)
           for i in range(n_points)]
    scene = build_scene(pts, 4.0, (2, 4, 8), rng)
    for v in scene.voxels.values():
        v.covering_views = [0]
    return pts, scene


def query_for(pts, pose, rng, d_raw=16):
    pixels, z = project_many(pose, K, np.array([p.position for p in pts]))
    front = z > MIN_DEPTH
    ids = np.array([p.id for p in pts], dtype=np.int64)[front]
    desc = rng.normal(size=(len(ids), d_raw))
    return ViewObservations(None, K, pixels[front], desc, ids)


def small_params(rng):
    """Decoder sized for make_world_scene banks and query_for descriptors."""
    return DecoderParams.init(rng, d_raw=16, d=8, num_blocks=2,
                              block_hidden=8, head_hidden=8)


def route_every_pair(monkeypatch):
    """Decode every keypoint in every activated voxel."""
    monkeypatch.setattr(pipeline, "route_keypoints",
                        lambda scores, m: [np.arange(m)] * len(scores))


class TestLocalize:
    def test_perfect_candidates_recover_pose(self, monkeypatch):
        rng = np.random.default_rng(1)
        pts, scene = make_world_scene(rng)
        positions = {p.id: p.position for p in pts}
        truth = look_at([5.0, 1.0, 2.0], [0.0, 0.0, 0.0])
        query = query_for(pts, truth, rng)

        def perfect_decode(tape, params, feats, voxels):
            """Ground-truth coordinates for member keypoints of each voxel,
            in voxel-id order, and low confidence elsewhere: every voxel
            runs every keypoint."""
            local, conf = [], []
            for vid in sorted(scene.voxels):
                voxel = scene.voxels[vid]
                member = np.isin(query.point_ids, voxel.members)
                local.append([positions[int(i)] - voxel.origin if hit
                              else np.zeros(3)
                              for i, hit in zip(query.point_ids, member)])
                conf.append(np.where(member, 0.9, 0.01)[:, None])
            return DTensor(np.concatenate(local)), \
                DTensor(np.concatenate(conf))

        monkeypatch.setattr(pipeline, "decode", perfect_decode)
        # block 0's query projection needs features of the decoder's width
        monkeypatch.setattr(pipeline, "encode_feature",
                            lambda tape, params, raw:
                            DTensor(raw.values[:, :params.d]))
        # the fake models every (keypoint, voxel) pair decoded
        route_every_pair(monkeypatch)
        res = localize(query, scene, small_params(np.random.default_rng(0)),
                       None, LocalizeOptions(bypass_retrieval=True,
                                             ransac_iters=100))
        assert res.success
        dt, dr = pose_error(res.pose, truth)
        assert dt < 1e-4 and dr < 1e-3
        assert res.num_confident_points >= 6
        assert res.num_inliers >= 6
        assert res.num_candidate_points \
            == query.num_keypoints * res.num_activated_voxels

    def test_empty_query_fails_cleanly(self):
        rng = np.random.default_rng(2)
        _, scene = make_world_scene(rng)
        empty = ViewObservations(None, K, np.zeros((0, 2)),
                                 np.zeros((0, 16)),
                                 np.zeros(0, dtype=np.int64))
        res = localize(empty, scene, None, None,
                       LocalizeOptions(bypass_retrieval=True))
        assert not res.success and res.pose is None

    def test_no_confident_candidates_fails_cleanly(self, monkeypatch):
        rng = np.random.default_rng(3)
        pts, scene = make_world_scene(rng)
        truth = look_at([5.0, 1.0, 2.0], [0.0, 0.0, 0.0])
        query = query_for(pts, truth, rng)

        def fake_decode(tape, params, feats, voxels):
            m = sum(n for n, _ in voxels)
            return DTensor(np.zeros((m, 3))), DTensor(np.full((m, 1), 0.01))

        monkeypatch.setattr(pipeline, "decode", fake_decode)
        # block 0's query projection needs features of the decoder's width
        monkeypatch.setattr(pipeline, "encode_feature",
                            lambda tape, params, raw:
                            DTensor(raw.values[:, :params.d]))
        # the fake models every (keypoint, voxel) pair decoded
        route_every_pair(monkeypatch)
        res = localize(query, scene, small_params(np.random.default_rng(0)),
                       None, LocalizeOptions(bypass_retrieval=True))
        assert not res.success
        assert res.num_confident_points == 0
        assert res.num_candidate_points > 0

    def test_ransac_gets_confident_rows_in_voxel_order(self, monkeypatch):
        rng = np.random.default_rng(4)
        pts, scene = make_world_scene(rng)
        # dict order opposite to voxel-id order: localize must sort
        scene.voxels = dict(reversed(list(scene.voxels.items())))
        query = query_for(pts, look_at([5.0, 1.0, 2.0], [0.0, 0.0, 0.0]),
                          rng)
        params = small_params(rng)
        # the float32 copies localize decodes with
        params32 = pipeline._float32_state(params)[0]
        feats = encode_feature(None, params32, dc.DTensor(
            query.descriptors.astype(np.float32)))
        results = []
        for vid in sorted(scene.voxels):
            bank32 = pipeline._float32_state(scene.voxels[vid].codes)[0]
            results.append(decode(None, params32, feats, [(
                query.num_keypoints, bank_keys(None, params32, bank32))]))
        confs = [conf.values[:, 0] for _, conf in results]
        conf_min = float(np.median(np.concatenate(confs)))
        world = np.concatenate([
            (local.values + scene.voxels[vid].origin)[c >= conf_min]
            for vid, (local, _), c in zip(sorted(scene.voxels), results,
                                          confs)])
        pixels = np.concatenate([query.pixels[c >= conf_min] for c in confs])
        assert 0 < len(world) < len(scene.voxels) * query.num_keypoints

        captured = {}

        def stub(world, pixels, k, **kwargs):
            captured.update(world=world, pixels=pixels)
            return RansacResult(False, None)

        monkeypatch.setattr(pipeline, "ransac_pnp", stub)
        # the expected arrays are the every-pair loop's
        route_every_pair(monkeypatch)
        res = localize(query, scene, params, None,
                       LocalizeOptions(bypass_retrieval=True,
                                       confidence_min=conf_min))
        for name, expected in (("world", world), ("pixels", pixels)):
            assert captured[name].shape == expected.shape
            assert captured[name].tobytes() == expected.tobytes()
        assert not res.success and res.num_confident_points == len(world)

    def test_float32_copies_of_a_trained_map_are_exact_casts(self):
        ds = generate_dataset(WorldConfig(num_points=150, num_ref_views=12,
                                          num_query_views=2, seed=3))
        scene = build_scene(list(ds.points.values()), 4.0, (2, 8, 8),
                            np.random.default_rng(0))
        assign_coverage(scene, ds, min_points=5)
        drop_uncovered(scene)
        params = DecoderParams.init(np.random.default_rng(1), d_raw=64, d=8,
                                    num_blocks=2, block_hidden=8,
                                    head_hidden=8)
        run_training(scene, ds, params, TrainConfig(
            epochs_stage1=1, epochs_stage2=0, keypoints_per_sample=16,
            prune_threshold=0.0, min_points=5))
        for source in [params] + [v.codes for v in scene.voxels.values()]:
            copied = pipeline._float32_state(source)[0].named_parameters()
            for name, t in source.named_parameters().items():
                assert copied[name].values.dtype == np.float32
                assert copied[name].values.tobytes() == \
                    t.values.astype(np.float32).tobytes()

    def test_counting_chain_validated(self):
        for counts in [dict(num_candidate_points=10, num_decoded_pairs=20),
                       dict(num_decoded_pairs=10, num_confident_points=20),
                       dict(num_confident_points=5, num_inliers=6)]:
            chain = dict(num_candidate_points=30, num_decoded_pairs=20,
                         num_confident_points=10, num_inliers=5)
            with pytest.raises(ValueError):
                LocalizationResult(True, None, 1, **{**chain, **counts})


class TestRouting:
    """Each keypoint is decoded only in the voxels block 0 routes it to."""

    @staticmethod
    def world():
        rng = np.random.default_rng(4)
        pts, scene = make_world_scene(rng)
        query = query_for(pts, look_at([5.0, 1.0, 2.0], [0.0, 0.0, 0.0]),
                          rng)
        return scene, query, small_params(rng)

    @staticmethod
    def spy_on_decode(monkeypatch, params, query):
        """Each voxel run of every decode pass as (keypoint rows, blocks),
        in call and run order."""
        feats = encode_feature(None, pipeline._float32_state(params)[0],
                               DTensor(query.descriptors.astype(np.float32)))
        row_of = {row.tobytes(): i for i, row in enumerate(feats.values)}
        runs, real = [], pipeline.decode

        def spy(tape, params, feats, voxels):
            ends = np.cumsum([n for n, _ in voxels])
            for (n, blocks), end in zip(voxels, ends):
                runs.append((sorted({row_of[row.tobytes()]
                                     for row in feats.values[end - n:end]}),
                             blocks))
            return real(tape, params, feats, voxels)

        monkeypatch.setattr(pipeline, "decode", spy)
        return runs

    def test_ties_go_to_the_lower_voxel_id(self):
        # keypoint 0 ties in all three voxels, keypoint 1 in the first two,
        # keypoint 2 in the last two
        scores = [np.array([1.0, 2.0, 0.5]), np.array([1.0, 2.0, 3.0]),
                  np.array([1.0, 1.0, 3.0])]
        routes = route_keypoints(scores, 3)
        assert [r.tolist() for r in routes] == [[0, 1], [2], []]

    def test_a_voxel_without_scores_takes_every_keypoint(self):
        scores = [None, np.array([1.0, 0.0]), np.array([0.0, 1.0])]
        routes = route_keypoints(scores, 2)
        assert [r.tolist() for r in routes] == [[0, 1], [0], [1]]
        assert [r.tolist() for r in route_keypoints([None], 2)] == [[0, 1]]

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_routing_is_an_argmax_with_ties_to_the_lower_voxel(self, data):
        m = data.draw(st.integers(0, 10), label="keypoints")
        v = data.draw(st.integers(1, 6), label="voxels")
        # a handful of values forces ties, 0.0 against -0.0 among them
        value = st.sampled_from([-1.0, -0.0, 0.0, 2.0]) \
            | st.floats(-3.0, 3.0, width=32)
        gate = st.lists(value, min_size=m, max_size=m).map(
            lambda xs: np.array(xs, dtype=np.float32))
        scores = [data.draw(st.none() | gate, label=f"voxel {i}")
                  for i in range(v)]
        routes = route_keypoints(scores, m)
        assert len(routes) == v
        scored = [i for i, s in enumerate(scores) if s is not None]
        for i in set(range(v)) - set(scored):
            assert routes[i].tolist() == list(range(m))
        if not scored:
            return
        owner = np.concatenate([[i] * len(routes[i]) for i in scored])
        rows = np.concatenate([routes[i] for i in scored])
        assert sorted(rows.tolist()) == list(range(m))
        for k, i in zip(rows, owner):
            top = max(scores[j][k] for j in scored)
            assert i == min(j for j in scored if scores[j][k] == top)

    def test_each_keypoint_is_decoded_in_exactly_one_voxel(self,
                                                           monkeypatch):
        scene, query, params = self.world()
        v, m = len(scene.voxels), query.num_keypoints
        assert v > 3
        calls = self.spy_on_decode(monkeypatch, params, query)
        res = localize(query, scene, params, None,
                       LocalizeOptions(bypass_retrieval=True))
        per_keypoint = np.bincount(
            np.concatenate([rows for rows, _ in calls]), minlength=m)
        assert (per_keypoint == 1).all()
        assert res.num_decoded_pairs == m
        assert res.num_candidate_points == m * v
        assert res.num_confident_points <= res.num_decoded_pairs

    @staticmethod
    def ransac_input(monkeypatch, *args):
        captured = {}

        def stub(world, pixels, k, **kwargs):
            captured.update(world=world, pixels=pixels)
            return RansacResult(False, None)

        monkeypatch.setattr(pipeline, "ransac_pnp", stub)
        localize(*args, None, LocalizeOptions(bypass_retrieval=True,
                                              confidence_min=0.0))
        return captured["world"], captured["pixels"]

    def test_routed_candidates_are_rows_of_the_full_decode(self,
                                                            monkeypatch):
        # equal up to rounding: BLAS may multiply a lone row otherwise
        scene, query, params = self.world()
        params32 = pipeline._float32_state(params)[0]
        feats = encode_feature(None, params32, DTensor(
            query.descriptors.astype(np.float32)))
        q = feats.values @ params32.blocks[0].wq.values
        banks = [pipeline._float32_state(scene.voxels[vid].codes)[0]
                 for vid in sorted(scene.voxels)]
        routes = route_keypoints(
            [route_scores(params32, q, block_keys(None, params32, bank, 0))
             for bank in banks], query.num_keypoints)
        world = np.concatenate([
            decode(None, params32, feats, [(query.num_keypoints, bank_keys(
                None, params32, bank))])[0].values[rows]
            + scene.voxels[vid].origin
            for vid, bank, rows in zip(sorted(scene.voxels), banks, routes)])
        pixels = np.concatenate([query.pixels[rows] for rows in routes])
        got_world, got_pixels = self.ransac_input(monkeypatch, query, scene,
                                                  params)
        assert got_pixels.tobytes() == pixels.tobytes()
        np.testing.assert_allclose(got_world, world, rtol=1e-5, atol=1e-6)

    def test_one_activated_voxel_decodes_every_keypoint(self,
                                                        monkeypatch):
        # routing still runs, each decode gets the block-0 keys that
        # routing read for its voxel, and the result is the every-pair one
        scene, query, params = self.world()
        first = sorted(scene.voxels)[0]
        scene.voxels = {first: scene.voxels[first]}
        m = query.num_keypoints
        routed, real = [], pipeline.route_scores

        def spy(params, q, kv0):
            routed.append(kv0)
            return real(params, q, kv0)

        monkeypatch.setattr(pipeline, "route_scores", spy)
        calls = self.spy_on_decode(monkeypatch, params, query)
        opts = LocalizeOptions(bypass_retrieval=True, confidence_min=0.0)
        res = localize(query, scene, params, None, opts)
        assert [rows for rows, _ in calls] == [list(range(m))]
        assert len(routed) == 1 and routed[0] is not None
        assert calls[0][1][0] is routed[0]
        assert res.num_decoded_pairs == res.num_confident_points == m
        route_every_pair(monkeypatch)
        assert outcome(localize(query, scene, params, None, opts)) \
            == outcome(res)

    def test_a_voxel_without_block0_codes_gets_every_keypoint(self,
                                                              monkeypatch):
        scene, query, params = self.world()
        v, m = len(scene.voxels), query.num_keypoints
        assert v > 3
        target = scene.voxels[sorted(scene.voxels)[1]].codes
        target.scales[0].values[:] = 0.0
        calls = self.spy_on_decode(monkeypatch, params, query)
        res = localize(query, scene, params, None,
                       LocalizeOptions(bypass_retrieval=True))
        pruned = [rows for rows, blocks in calls if blocks[0] is None]
        assert pruned == [list(range(m))]
        assert res.num_decoded_pairs == 2 * m

    def test_a_voxel_no_keypoint_picks_gets_no_decode(self, monkeypatch):
        scene, query, params = self.world()
        # the first voxel's block-0 keys are the second's minus a multiple
        # of v, and an encoder bias along u gives every query q = f·Wq a
        # q·v >= |v|^2 > 0: each keypoint scores the first voxel below the
        # second, so it is never decoded
        far, near = (scene.voxels[vid].codes
                     for vid in sorted(scene.voxels)[:2])
        wq, wk = params.blocks[0].wq.values, params.blocks[0].wk.values
        u = np.ones(params.d)
        v = u @ wq
        feats = encode_feature(None, params, DTensor(query.descriptors))
        params.encoder.biases[0].values += \
            (1.0 + np.abs(feats.values @ wq @ v).max() / (v @ v)) * u
        key_shift = np.linalg.solve(wk.T, 10.0 * v / (v @ v))
        far.codes[0].values[...] = near.codes[0].values \
            - key_shift / near.scales[0].values
        far.scales[0].values[...] = near.scales[0].values
        calls = self.spy_on_decode(monkeypatch, params, query)
        res = localize(query, scene, params, None,
                       LocalizeOptions(bypass_retrieval=True))
        assert len(calls) < len(scene.voxels)
        assert res.num_decoded_pairs == query.num_keypoints

    def test_one_decode_pass_per_query(self, monkeypatch):
        # no block of this world is fully pruned, so every routed row of a
        # query decodes in one call
        scene, query, params = self.world()
        calls, real = [], pipeline.decode

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(pipeline, "decode", spy)
        for _ in range(2):
            localize(query, scene, params, None,
                     LocalizeOptions(bypass_retrieval=True))
        assert len(calls) == 2
        assert len(calls[0][3]) > 3

    def test_an_overflow_in_one_voxel_names_that_voxel(self):
        # only the third voxel's block-1 attention logits overflow, from
        # finite float32 queries and keys: its keys point along the block-1
        # query of one of its rows, at a length near the float32 maximum
        scene, query, params = self.world()
        params.blocks[1].wk.values[...] = np.eye(params.d)
        vids = sorted(scene.voxels)
        params32 = pipeline._float32_state(params)[0]
        feats = encode_feature(None, params32, DTensor(
            query.descriptors.astype(np.float32)))
        banks = [pipeline._float32_state(scene.voxels[vid].codes)[0]
                 for vid in vids]
        q = feats.values @ params32.blocks[0].wq.values
        rows = route_keypoints(
            [route_scores(params32, q, block_keys(None, params32, bank, 0))
             for bank in banks], query.num_keypoints)[2]
        assert len(rows) > 0
        f, _ = decoder.cross_attention_block(
            None, DTensor(feats.values[rows]),
            [(len(rows), block_keys(None, params32, banks[2], 0))], 0,
            params32)
        q1 = f.values.astype(np.float64) @ params.blocks[1].wq.values
        best = q1[np.argmax(np.linalg.norm(q1, axis=1))]
        key = best / np.abs(best).max()
        assert 3e38 * (best @ key) > 2 * float(np.finfo(np.float32).max)
        target = scene.voxels[vids[2]].codes
        target.codes[1].values[...] = key
        target.scales[1].values[...] = 3e38
        stage = re.escape(
            f"attention logits (decode of voxel {tuple(vids[2])})")
        with pytest.raises(NumericError, match=stage):
            localize(query, scene, params, None,
                     LocalizeOptions(bypass_retrieval=True))

    def test_a_non_finite_score_names_the_decode_stage(self):
        # finite float32 queries and keys overflow in the first voxel's
        # logits
        scene, query, params = self.world()
        params.blocks[0].wq.values[...] = 1e20
        params.blocks[0].wk.values[...] = 1e20
        first = sorted(scene.voxels)[0]
        stage = re.escape(f"routing logits (decode of voxel {tuple(first)})")
        with pytest.raises(NumericError, match=stage):
            localize(query, scene, params, None,
                     LocalizeOptions(bypass_retrieval=True))


def outcome(res):
    """A localization's counts and pose bytes."""
    pose = res.pose and res.pose.rotation.tobytes() + \
        res.pose.translation.tobytes()
    return (res.success, res.num_activated_voxels, res.num_candidate_points,
            res.num_decoded_pairs, res.num_confident_points, res.num_inliers,
            pose)


class TestDecodeState:
    """localize casts and keys each map once and reuses that state while
    the map's float32 content is unchanged."""

    # every decoded pair reaches RANSAC, and every candidate is an inlier,
    # so the pose's bytes depend on every decoded coordinate
    OPTS = LocalizeOptions(bypass_retrieval=True, confidence_min=0.0,
                           inlier_tol=1e6)

    @staticmethod
    def trained_world():
        """A small dataset with a scene and weights read from their bytes,
        so that a file round trip reproduces them exactly."""
        ds = generate_dataset(WorldConfig(num_points=150, num_ref_views=12,
                                          num_query_views=2, seed=3))
        scene = build_scene(list(ds.points.values()), 4.0, (2, 8, 8),
                            np.random.default_rng(0))
        assign_coverage(scene, ds, min_points=5)
        drop_uncovered(scene)
        params = DecoderParams.init(np.random.default_rng(1), d_raw=64, d=8,
                                    num_blocks=2, block_hidden=8,
                                    head_hidden=8)
        return (ds, scene_from_bytes(scene_to_bytes(scene)),
                params_from_bytes(params_to_bytes(params)))

    def test_a_second_query_builds_no_keys(self, monkeypatch):
        scene, query, params = TestRouting.world()
        built, real = [], decoder.block_keys

        def spy(tape, params, bank, t):
            built.append(t)
            return real(tape, params, bank, t)

        monkeypatch.setattr(decoder, "block_keys", spy)
        first = localize(query, scene, params, None, self.OPTS)
        assert len(built) == len(scene.voxels) * scene.dims[0]
        built.clear()
        second = localize(query, scene, params, None, self.OPTS)
        assert built == []
        assert outcome(second) == outcome(first)

    def test_in_place_changes_rebuild_the_state(self):
        ds, scene, params = self.trained_world()
        query = ds.query_views[0]

        def check():
            got = outcome(localize(query, scene, params, None, self.OPTS))
            fresh = outcome(localize(
                query, scene_from_bytes(scene_to_bytes(scene)),
                params_from_bytes(params_to_bytes(params)), None, self.OPTS))
            assert got == fresh
            return got

        def prune_half():
            bank = scene.voxels[sorted(scene.voxels)[0]].codes
            for w in bank.scales:
                w.values[:bank.dims[1] // 2] = 0.0

        def train():
            run_training(scene, ds, params, TrainConfig(
                epochs_stage1=1, epochs_stage2=0, keypoints_per_sample=16,
                prune_threshold=0.0, min_points=5))

        def scale_wv():
            params.blocks[1].wv.values[0] *= 1.5

        before = check()
        assert before[0]
        for change in (prune_half, train, scale_wv):
            change()
            after = check()
            assert after != before, change.__name__  # the change shows
            before = after

    def test_permuting_code_rows_in_place_changes_nothing(self):
        ds, scene, params = self.trained_world()
        query = ds.query_views[0]
        before = outcome(localize(query, scene, params, None, self.OPTS))
        bank = scene.voxels[sorted(scene.voxels)[0]].codes
        rng = np.random.default_rng(5)
        for t in range(bank.dims[0]):
            perm = rng.permutation(bank.dims[1])
            for tens in (bank.codes[t], bank.scales[t]):
                tens.values[...] = tens.values[perm]
        after = outcome(localize(query, scene, params, None, self.OPTS))
        assert after == before

    def test_a_failed_build_is_not_kept(self):
        # block 1's keys overflow float32 in every voxel; routing reads
        # block 0 only, so the first voxel's build raises
        scene, query, params = TestRouting.world()
        params.blocks[1].wk.values[...] = 1e20
        for v in scene.voxels.values():
            v.codes.codes[1].values[...] = 1e20
        first = sorted(scene.voxels)[0]
        stage = re.escape(f"(decode of voxel {tuple(first)})")
        for _ in range(2):
            with pytest.raises(NumericError, match=stage):
                localize(query, scene, params, None, self.OPTS)

    def test_no_map_is_kept_alive(self):
        scene, query, params = TestRouting.world()
        localize(query, scene, params, None, self.OPTS)
        bank = weakref.ref(scene.voxels[sorted(scene.voxels)[0]].codes)
        weights = weakref.ref(params)
        del scene, params
        gc.collect()
        assert bank() is None and weights() is None


def result(dt=0.0, dr=0.0, success=True):
    if not success:
        return LocalizationResult(False, None)
    rot = rotation_from_axis_angle(np.array([0, 0, np.radians(dr)]))
    base = look_at([3.0, 0.0, 1.0], [0.0, 0.0, 0.0])
    pose = Pose(rot @ base.rotation,
                -(rot @ base.rotation) @ (base.center + [dt, 0.0, 0.0]))
    return LocalizationResult(True, pose)


class TestEvaluate:
    TRUTH = look_at([3.0, 0.0, 1.0], [0.0, 0.0, 0.0])

    def test_medians_and_accuracy(self):
        results = [result(0.01, 0.1), result(0.1, 1.0), result(1.0, 3.0),
                   result(success=False)]
        truths = [self.TRUTH] * 4
        rep = evaluate(results, truths)
        np.testing.assert_allclose(rep.median_translation_m, 0.1, atol=1e-9)
        np.testing.assert_allclose(rep.median_rotation_deg, 1.0, atol=1e-6)
        # thresholds: (0.25, 2) passes 2/4; (0.5, 5) passes 2/4; (5, 10) 3/4
        assert rep.accuracies == [0.5, 0.5, 0.75]
        assert rep.failure_count == 1
        assert rep.num_queries == 4

    def test_all_failed(self):
        rep = evaluate([result(success=False)] * 2, [self.TRUTH] * 2)
        assert rep.median_translation_m == float("inf")
        assert rep.accuracies == [0.0, 0.0, 0.0]

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate([result()], [self.TRUTH, self.TRUTH])

    def test_csv_and_summary(self, tmp_path):
        rep = evaluate([result(0.01, 0.1), result(success=False)],
                       [self.TRUTH] * 2, map_size=1234)
        text = rep.summary()
        assert "1 failed" in text and "1234 bytes" in text
        path = tmp_path / "report.csv"
        rep.write_csv(path)
        rows = list(csv.reader(path.open()))
        assert rows[0] == ["query", "success", "translation_m",
                           "rotation_deg"]
        assert rows[1][1] == "1" and rows[2][1] == "0"


class TestHeatmap:
    def make_view(self, rng, rows=4, cols=5, d_raw=24):
        us, vs = np.arange(cols) * 10.0, np.arange(rows) * 10.0
        uu, vv = np.meshgrid(us, vs)
        pixels = np.stack([uu.ravel(), vv.ravel()], axis=1)
        desc = rng.normal(size=(rows * cols, d_raw))
        return ViewObservations(None, K, pixels, desc,
                                np.arange(rows * cols, dtype=np.int64))

    def setup_scene(self, rng):
        pts = [Point3D(i, rng.uniform(0, 1, size=3), True) for i in range(20)]
        scene = build_scene(pts, 4.0, (2, 4, 16), rng)
        params = DecoderParams.init(rng, d_raw=24, d=16, num_blocks=2,
                                    block_hidden=8, head_hidden=8)
        return scene, params

    def test_csv(self, tmp_path):
        rng = np.random.default_rng(4)
        scene, params = self.setup_scene(rng)
        view = self.make_view(rng)
        vid = sorted(scene.voxels)[0]
        csv_path = tmp_path / "scores.csv"
        assert export_heatmap(view, scene, params, vid, 0, 1, csv_path) is None
        rows = list(csv.reader(csv_path.open()))
        assert rows[0] == ["feature_index", "score", "normalized_score"]
        assert len(rows) == 21
        scores = np.array([float(r[2]) for r in rows[1:]])
        assert scores.min() == 0.0 and scores.max() == 1.0
