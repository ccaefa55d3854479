"""Synthetic world generation, observation model, and dataset persistence."""

import json
import tracemalloc

import numpy as np
import pytest

from voxloc.containers import FormatError
from voxloc.geometry import (MIN_DEPTH, MIN_TRIANGULATION_ANGLE_DEG, Point3D,
                             project_many)
from voxloc.synthworld import (WorldConfig, build_dataset,
                               dataset_from_bytes,
                               dataset_to_bytes, generate_dataset,
                               generate_world, load_dataset, observe,
                               save_dataset, write_manifest)

SMALL = dict(num_points=150, num_ref_views=12, num_query_views=3, seed=7)


def per_observation_dlt(observations, poses, intrinsics, reproj_tol,
                        point_id):
    """The DLT as it was run one observation at a time: observations is a
    list of (view id, pixel (2,)), and every observation rebuilds its
    view's K[R|t] and reprojects through K's top rows."""
    rows = []
    for vid, pix in observations:
        p = intrinsics[vid].matrix() @ np.hstack(
            [poses[vid].rotation, poses[vid].translation[:, None]])
        rows.append(pix[0] * p[2] - p[0])
        rows.append(pix[1] * p[2] - p[1])
    _, _, vt = np.linalg.svd(np.vstack(rows))
    xh = vt[-1]
    if abs(xh[3]) < 1e-15:
        return Point3D(point_id, None, False)
    x = xh[:3] / xh[3]
    rot = np.array([poses[vid].rotation for vid, _ in observations])
    trans = np.array([poses[vid].translation for vid, _ in observations])
    kmat = np.array([intrinsics[vid].matrix() for vid, _ in observations])
    pix = np.array([p for _, p in observations], dtype=np.float64)
    cam = rot @ x + trans
    if np.any(cam[:, 2] <= MIN_DEPTH):
        return Point3D(point_id, None, False)
    proj = np.einsum("nij,nj->ni", kmat[:, :2, :], cam) / cam[:, 2:3]
    if np.linalg.norm(proj - pix, axis=1).max() > reproj_tol:
        return Point3D(point_id, None, False)
    rays = x - np.einsum("nji,nj->ni", rot, -trans)
    norms = np.linalg.norm(rays, axis=1)
    ok = norms > 1e-12
    if ok.sum() < 2:
        return Point3D(point_id, None, False)
    unit = rays[ok] / norms[ok, None]
    min_cos = np.clip((unit @ unit.T).min(), -1.0, 1.0)
    if np.degrees(np.arccos(min_cos)) < MIN_TRIANGULATION_ANGLE_DEG:
        return Point3D(point_id, None, False)
    return Point3D(point_id, x, True)


def small_config(**over):
    return WorldConfig(**{**SMALL, **over})


class TestWorldGeneration:
    def test_deterministic_per_seed(self):
        a = generate_world(small_config())
        b = generate_world(small_config())
        np.testing.assert_array_equal(a.points, b.points)
        np.testing.assert_array_equal(a.descriptors, b.descriptors)
        for pa, pb in zip(a.ref_poses, b.ref_poses):
            np.testing.assert_array_equal(pa.rotation, pb.rotation)
        c = generate_world(small_config(seed=8))
        assert not np.array_equal(a.points, c.points)

    def test_points_inside_extent(self):
        cfg = small_config()
        w = generate_world(cfg)
        half = np.asarray(cfg.extent) / 2.0
        assert np.all(np.abs(w.points) <= half)

    def test_descriptors_unit_norm(self):
        w = generate_world(small_config())
        np.testing.assert_allclose(np.linalg.norm(w.descriptors, axis=1), 1.0,
                                   atol=1e-12)

    def test_queries_keep_baseline_from_references(self):
        cfg = small_config()
        w = generate_world(cfg)
        refs = np.array([p.center for p in w.ref_poses])
        for q in w.query_poses:
            dists = np.linalg.norm(refs - q.center, axis=1)
            assert dists.min() >= cfg.min_query_baseline

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WorldConfig(num_points=0)
        with pytest.raises(ValueError):
            WorldConfig(extent=(1.0, -1.0, 1.0))
        with pytest.raises(ValueError):
            WorldConfig(pixel_noise_sigma=-0.1)


class TestObservation:
    def test_noiseless_pixels_match_projection(self):
        cfg = small_config(pixel_noise_sigma=0.0, descriptor_noise_sigma=0.0,
                           illumination_shift_sigma=0.0)
        w = generate_world(cfg)
        pose = w.ref_poses[0]
        view = observe(pose, w, cfg, np.random.default_rng(0))
        assert view.num_keypoints > 0
        for pix, pid in zip(view.pixels[:25], view.point_ids[:25]):
            ref = project_many(pose, w.intrinsics, w.points[pid])[0][0]
            np.testing.assert_allclose(pix, ref, atol=1e-9)
        # observe and project_many share one pinhole formula: bit for bit
        pixels = project_many(pose, w.intrinsics, w.points)[0]
        np.testing.assert_array_equal(view.pixels, pixels[view.point_ids])

    def test_visibility_respects_frustum_margin(self):
        cfg = small_config()
        w = generate_world(cfg)
        view = observe(w.ref_poses[0], w, cfg, np.random.default_rng(0))
        z = w.points[view.point_ids] @ w.ref_poses[0].rotation.T \
            + w.ref_poses[0].translation
        assert np.all(z[:, 2] >= cfg.min_depth)
        assert np.all(z[:, 2] <= cfg.max_depth)

    def test_observed_descriptors_unit_norm(self):
        cfg = small_config()
        w = generate_world(cfg)
        view = observe(w.ref_poses[0], w, cfg, np.random.default_rng(0))
        np.testing.assert_allclose(np.linalg.norm(view.descriptors, axis=1),
                                   1.0, atol=1e-12)

    def test_query_views_hide_pose(self):
        ds = generate_dataset(small_config())
        assert all(v.pose is None for v in ds.query_views)
        assert all(v.pose is not None for v in ds.views)


class TestTriangulatedPoints:
    def test_noiseless_triangulation_recovers_truth(self):
        cfg = small_config(pixel_noise_sigma=0.0)
        w = generate_world(cfg)
        ds = build_dataset(w, cfg)
        errs = [np.linalg.norm(p.position - w.points[pid])
                for pid, p in ds.points.items() if p.valid]
        assert len(errs) > 50
        assert max(errs) < 1e-6

    def test_noisy_triangulation_reasonable(self):
        cfg = small_config()
        w = generate_world(cfg)
        ds = build_dataset(w, cfg)
        errs = np.array([np.linalg.norm(p.position - w.points[pid])
                         for pid, p in ds.points.items() if p.valid])
        assert np.median(errs) < 0.05

    def test_build_dataset_matches_per_track_reference(self):
        # a noisy world with a wide frustum margin: some points fail the
        # reprojection check, some are seen by fewer than two views
        cfg = small_config(pixel_noise_sigma=0.7, frustum_margin=150.0)
        ds = generate_dataset(cfg)
        tracks = {}
        for vid, view in enumerate(ds.views):
            for pix, pid in zip(view.pixels, view.point_ids):
                tracks.setdefault(int(pid), []).append((vid, pix))
        poses = [v.pose for v in ds.views]
        intrinsics = [v.intrinsics for v in ds.views]
        short = failed = 0
        for pid in range(cfg.num_points):
            got, obs = ds.points[pid], tracks.get(pid, [])
            if len(obs) < 2:
                short += 1
                assert not got.valid and got.position is None
                continue
            want = per_observation_dlt(obs, poses, intrinsics,
                                       cfg.triangulation_tol, pid)
            failed += not want.valid
            assert (got.id, got.valid) == (pid, want.valid)
            if want.valid:
                np.testing.assert_array_equal(got.position, want.position)
            else:
                assert got.position is None
        assert short > 0 and failed > 0

    def test_single_view_tracks_invalid(self):
        ds = generate_dataset(small_config())
        seen = {}
        for v in ds.views:
            for pid in v.point_ids:
                seen[int(pid)] = seen.get(int(pid), 0) + 1
        for pid, p in ds.points.items():
            if seen.get(pid, 0) < 2:
                assert not p.valid


class TestViewMeans:
    def test_per_view_means_bit_for_bit_computed_once(self):
        ds = generate_dataset(small_config())
        want = np.array([v.descriptors.mean(axis=0) for v in ds.views])
        means = ds.view_means
        assert means.shape == (len(ds.views), ds.config.descriptor_dim)
        assert means.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="read-only"):
            means[0, 0] = 1.0
        for view in ds.views:   # a second read must not look at the views
            view.descriptors = None
        assert ds.view_means is means

    def test_a_view_without_keypoints_has_a_zero_row(self):
        ds = generate_dataset(small_config())
        ds.views[2].descriptors = ds.views[2].descriptors[:0]
        ds.views[2].point_ids = ds.views[2].point_ids[:0]
        assert not ds.view_means[2].any() and ds.view_means[3].any()

    def test_a_non_finite_descriptor_names_its_view(self):
        ds = generate_dataset(small_config())
        ds.views[4].descriptors[3, 1] = np.nan
        with pytest.raises(ValueError, match="^reference view 4 has a "
                                             "non-finite descriptor$"):
            ds.view_means


class TestDatasetPersistence:
    def test_roundtrip_byte_identical(self):
        ds = generate_dataset(small_config())
        blob = dataset_to_bytes(ds)
        assert dataset_to_bytes(dataset_from_bytes(blob)) == blob

    def test_roundtrip_preserves_content(self, tmp_path):
        ds = generate_dataset(small_config())
        path = tmp_path / "ds.bin"
        save_dataset(ds, path)
        loaded = load_dataset(path)
        assert loaded.config == ds.config
        assert len(loaded.views) == len(ds.views)
        np.testing.assert_array_equal(loaded.views[3].pixels,
                                      ds.views[3].pixels)
        np.testing.assert_array_equal(loaded.views[3].descriptors,
                                      ds.views[3].descriptors)
        gt_a, gt_b = ds.evaluation_ground_truth(), \
            loaded.evaluation_ground_truth()
        np.testing.assert_array_equal(gt_a.point_positions,
                                      gt_b.point_positions)
        for pa, pb in zip(gt_a.query_poses, gt_b.query_poses):
            np.testing.assert_array_equal(pa.rotation, pb.rotation)
            np.testing.assert_array_equal(pa.translation, pb.translation)

    def test_file_load_matches_bytes_load(self, tmp_path):
        path = tmp_path / "ds.bin"
        save_dataset(generate_dataset(small_config()), path)
        blob = path.read_bytes()
        loaded = load_dataset(path)
        assert dataset_to_bytes(loaded) == blob
        assert dataset_to_bytes(dataset_from_bytes(blob)) == blob
        gt = loaded.evaluation_ground_truth()
        arrays = [(gt.point_positions, np.float64)]
        arrays += [(p.position, np.float64) for p in loaded.points.values()
                   if p.valid]
        for pose in [v.pose for v in loaded.views] + gt.query_poses:
            arrays += [(pose.rotation, np.float64),
                       (pose.translation, np.float64)]
        for v in loaded.views + loaded.query_views:
            arrays += [(v.pixels, np.float64), (v.descriptors, np.float64),
                       (v.point_ids, np.int64)]
        for a, dtype in arrays:
            assert a.dtype == dtype
            assert a.flags.writeable and a.flags.aligned

    def test_truncated_file_fails_where_truncated_bytes_do(self, tmp_path):
        blob = dataset_to_bytes(generate_dataset(small_config()))
        for end in (2, 20, len(blob) // 2, len(blob) - 1):
            path = tmp_path / f"cut{end}.bin"
            path.write_bytes(blob[:end])
            with pytest.raises(FormatError, match="truncated") as from_bytes:
                dataset_from_bytes(blob[:end])
            with pytest.raises(FormatError, match="truncated") as from_file:
                load_dataset(path)
            assert from_file.value.offset == from_bytes.value.offset
            assert str(from_file.value) == str(from_bytes.value)

    def test_load_holds_no_second_copy_of_the_file(self, tmp_path):
        # arrays are read straight from the file into their final buffers,
        # so at the peak little beyond the result itself is alive
        path = tmp_path / "ds.bin"
        save_dataset(generate_dataset(small_config()), path)
        tracemalloc.start()
        try:
            ds = load_dataset(path)
            live, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ds.views) == SMALL["num_ref_views"]
        assert peak - live < 0.1 * path.stat().st_size

    def test_bad_magic(self):
        blob = bytearray(dataset_to_bytes(generate_dataset(small_config())))
        blob[:4] = b"QQQQ"
        with pytest.raises(FormatError):
            dataset_from_bytes(bytes(blob))

    def test_truncated(self):
        blob = dataset_to_bytes(generate_dataset(small_config()))
        with pytest.raises(FormatError):
            dataset_from_bytes(blob[: len(blob) // 2])

    @pytest.mark.parametrize("cfg", [b'{"extent": [1, 2, 3], "bogus": 1}',
                                     b'[1, 2]', b'{"extent": [1, 2]}',
                                     b'{"extent": [1, 2, 3], "seed": 1.5}',
                                     b'{"extent": [1, 2, 3], "focal": true}',
                                     b'{"extent": [1, 2, 3], '
                                     b'"num_points": "many"}',
                                     # nested past the recursion limit
                                     pytest.param(b"[" * 200_000,
                                                  id="deep")])
    def test_bad_config_json_rejected(self, cfg):
        blob = dataset_to_bytes(generate_dataset(small_config()))
        n = int.from_bytes(blob[8:12], "little")  # after magic and version
        blob = blob[:8] + len(cfg).to_bytes(4, "little") + cfg + blob[12 + n:]
        with pytest.raises(FormatError, match="at byte 12: config json: "):
            dataset_from_bytes(blob)

    def test_out_of_range_config_json_is_a_format_error(self):
        blob = dataset_to_bytes(generate_dataset(small_config()))
        n = int.from_bytes(blob[8:12], "little")
        cfg = b'{"image_width": 0}'
        blob = blob[:8] + len(cfg).to_bytes(4, "little") + cfg + blob[12 + n:]
        with pytest.raises(FormatError, match="at byte 12: config json: "
                           "world.image_width must be >= 1") as err:
            dataset_from_bytes(blob)
        assert err.value.offset == 12

    def test_manifest(self, tmp_path):
        ds = generate_dataset(small_config())
        path = tmp_path / "manifest.json"
        write_manifest(ds, path)
        manifest = json.loads(path.read_text())
        assert manifest["num_reference_views"] == 12
        assert manifest["num_query_views"] == 3
        assert manifest["num_points"] == 150
        assert manifest["config"]["seed"] == 7
