"""Oracle tests for poses, projection, triangulation, PnP, and RANSAC."""

import warnings
from functools import partial

import numpy as np
import pytest

from voxloc import geometry
from voxloc.geometry import (MIN_DEPTH, DegenerateGeometryError,
                             Intrinsics, Pose, _gauss_newton, _pnp_dlt,
                             _pnp_jacobian,
                             _reprojection_residuals, look_at,
                             nearest_rotation, pnp_solve, pose_error,
                             project_many, ransac_pnp,
                             rotation_from_axis_angle, skew, triangulate_dlt)

K = Intrinsics(fx=500.0, fy=500.0, cx=320.0, cy=240.0, width=640, height=480)


def project_point(pose, k, x):
    """Pixel (2,) of one world point x (3,), or None behind the camera."""
    pix, z = project_many(pose, k, x)
    return None if z[0] <= MIN_DEPTH else pix[0]


def to_camera(pose, xs):
    """World points (n, 3) or (3,) in the camera frame."""
    return np.atleast_2d(xs) @ pose.rotation.T + pose.translation


def random_pose(rng) -> Pose:
    r = rotation_from_axis_angle(rng.normal(size=3))
    return Pose(r, rng.normal(size=3))


class TestPose:
    def test_center_roundtrip(self):
        pose = random_pose(np.random.default_rng(0))
        np.testing.assert_allclose(to_camera(pose, pose.center), 0.0,
                                   atol=1e-12)

    def test_rejects_non_rotation(self):
        with pytest.raises(ValueError):
            Pose(np.eye(3) * 1.001, np.zeros(3))
        with pytest.raises(ValueError):
            Pose(-np.eye(3), np.zeros(3))  # det = -1
        nan_entry = np.eye(3)
        nan_entry[0, 0] = np.nan
        for bad in (nan_entry, np.eye(3) * 1e200):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="orthonormal"):
                    Pose(bad, np.zeros(3))


class TestRotations:
    def test_axis_angle_quarter_turn(self):
        r = rotation_from_axis_angle(np.array([0.0, 0.0, np.pi / 2]))
        np.testing.assert_allclose(r @ [1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                   atol=1e-12)

    def test_axis_angle_small_angle(self):
        w = np.array([1e-14, 0.0, 0.0])
        np.testing.assert_allclose(rotation_from_axis_angle(w), np.eye(3),
                                   atol=1e-12)

    def test_nearest_rotation_projects_noise(self):
        rng = np.random.default_rng(2)
        r_true = rotation_from_axis_angle(rng.normal(size=3))
        r = nearest_rotation(r_true + rng.normal(size=(3, 3)) * 1e-4)
        assert np.abs(r.T @ r - np.eye(3)).max() < 1e-12
        assert np.linalg.det(r) > 0
        assert np.abs(r - r_true).max() < 1e-3

    def test_stacks_match_single_matrices(self):
        rng = np.random.default_rng(14)
        w = rng.normal(size=(5, 3))
        r = np.stack([rotation_from_axis_angle(x) for x in w])
        m = r + rng.normal(size=r.shape) * 1e-3
        m[3] = -m[3]  # det < 0 before the projection
        for i in range(5):
            np.testing.assert_array_equal(skew(w)[i], skew(w[i]))
            np.testing.assert_allclose(nearest_rotation(m)[i],
                                       nearest_rotation(m[i]), atol=1e-15)
        assert np.allclose(np.linalg.det(nearest_rotation(m)), 1.0)

    def test_skew_matches_cross_product(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=3), rng.normal(size=3)
        np.testing.assert_allclose(skew(a) @ b, np.cross(a, b), atol=1e-15)


class TestProjection:
    def test_look_at_centers_target(self):
        center = np.array([2.0, -1.0, 3.0])
        target = np.array([0.0, 0.0, 0.0])
        pose = look_at(center, target)
        np.testing.assert_allclose(pose.center, center, atol=1e-12)
        pix = project_many(pose, K, target)[0]
        np.testing.assert_allclose(pix, [[K.cx, K.cy]], atol=1e-9)

    def test_project_matches_manual_pinhole(self):
        pose = look_at([4.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        x = np.array([0.3, 0.2, -0.1])
        cam = pose.rotation @ x + pose.translation
        ref = [K.fx * cam[0] / cam[2] + K.cx, K.fy * cam[1] / cam[2] + K.cy]
        np.testing.assert_allclose(project_many(pose, K, x)[0], [ref],
                                   atol=1e-12)

    def test_behind_camera_is_nan_with_its_depth(self):
        pose = look_at([4.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        xs = np.array([[8.0, 0.0, 0.0], [4.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        pix, z = project_many(pose, K, xs)
        # 4 m behind, on the camera center, 4 m in front
        np.testing.assert_allclose(z, [-4.0, 0.0, 4.0], atol=1e-12)
        assert np.isnan(pix[:2]).all()
        np.testing.assert_allclose(pix[2], [K.cx, K.cy], atol=1e-9)

    def test_project_many_agrees_with_scalar(self):
        rng = np.random.default_rng(4)
        pose = look_at([5.0, 1.0, 2.0], [0.0, 0.0, 0.0])
        xs = rng.normal(size=(20, 3))
        pix, z = project_many(pose, K, xs)
        for i, x in enumerate(xs):
            single = project_point(pose, K, x)
            if single is None:
                assert not z[i] > 1e-6 or np.isnan(pix[i]).all()
            else:
                np.testing.assert_allclose(pix[i], single, atol=1e-12)

    def test_intrinsics_validation(self):
        with pytest.raises(ValueError):
            Intrinsics(fx=-1.0, fy=1.0, cx=0, cy=0, width=10, height=10)
        for bad in (np.inf, np.nan):
            with pytest.raises(ValueError, match="positive and finite"):
                Intrinsics(fx=1.0, fy=bad, cx=0, cy=0, width=10, height=10)
        with pytest.raises(ValueError):
            Intrinsics(fx=1.0, fy=1.0, cx=99, cy=0, width=10, height=10)


def make_track(x, centers):
    """Rotations (n,3,3), translations (n,3) and pixels (n,2) of x in the
    views at `centers`, looking at the origin, that see it."""
    poses = [look_at(np.asarray(c, float), [0.0, 0.0, 0.0]) for c in centers]
    poses = [p for p in poses if project_point(p, K, x) is not None]
    return (np.reshape([p.rotation for p in poses], (-1, 3, 3)),
            np.reshape([p.translation for p in poses], (-1, 3)),
            np.reshape([project_point(p, K, x) for p in poses], (-1, 2)))


class TestTriangulation:
    def test_noiseless_recovery(self):
        x = np.array([0.4, -0.2, 0.3])
        rot, trans, pixels = make_track(
            x, [[4, 0, 1], [0, 4, 1], [-3, 2, 2], [2, -3, 1]])
        pt = triangulate_dlt(rot, trans, K, pixels, point_id=7)
        assert pt.valid and pt.id == 7
        assert np.linalg.norm(pt.position - x) < 1e-8

    def test_outlier_observation_invalidates(self):
        x = np.array([0.4, -0.2, 0.3])
        rot, trans, pixels = make_track(x, [[4, 0, 1], [0, 4, 1], [-3, 2, 2]])
        pixels[1] += [25.0, 0.0]
        assert not triangulate_dlt(rot, trans, K, pixels).valid

    def test_narrow_baseline_invalidates(self):
        x = np.array([0.0, 0.0, 0.0])
        rot, trans, pixels = make_track(x, [[5, 0, 0], [5.0, 0.02, 0.0]])
        assert not triangulate_dlt(rot, trans, K, pixels).valid

    def test_needs_two_views(self):
        x = np.array([0.0, 0.0, 0.0])
        rot, trans, pixels = make_track(x, [[5, 0, 0]])
        with pytest.raises(ValueError):
            triangulate_dlt(rot, trans, K, pixels)


def synthetic_corrs(pose, points, outliers=0, rng=None):
    """(world (n, 3), pixels (n, 2)); the first `outliers` pixels are
    uniform garbage."""
    pixels = []
    for i, x in enumerate(points):
        pix = project_point(pose, K, x)
        assert pix is not None
        if i < outliers:
            pix = rng.uniform([0, 0], [K.width, K.height])
        pixels.append(pix)
    return np.asarray(points, float), np.array(pixels)


def desk_like_corrs(rng, pose, n, exact=0.3):
    """(world (n, 3), pixels (n, 2)) shaped like a query's confident
    candidates: a share `exact` of the rows exact up to 1 px of noise,
    then near misses with 15 cm of world error up to 80% of the rows, then
    uniform garbage pixels. The desk map's candidates are about 30% exact
    at 3 px."""
    world = rng.uniform(-2.0, 2.0, size=(n, 3))
    pixels = project_many(pose, K, world)[0]
    good, near = int(exact * n), int(0.8 * n)
    pixels[:good] += rng.normal(0.0, 1.0, size=(good, 2))
    world[good:near] += rng.normal(0.0, 0.15, size=(near - good, 3))
    pixels[near:] = rng.uniform([0, 0], [K.width, K.height],
                                size=(n - near, 2))
    return world, pixels


def per_trial_ransac(world, pixels, tol, max_iters, seed, block=None):
    """Reference RANSAC, one bare DLT per drawn sample, degenerate samples
    skipped. With `block` rows given, only the 16 trials with the most
    inliers on those rows stay (the earlier trial first on ties). Of the
    rest, the first maximum inlier count over every row wins; then the
    same refit and IRLS as `ransac_pnp`. Returns (pose, inlier mask), or
    None when no trial reaches 6 inliers."""
    def mask_for(pose, rows=slice(None)):
        pix, z = project_many(pose, K, world[rows])
        err = np.linalg.norm(pix - pixels[rows], axis=1)
        return (z > MIN_DEPTH) & (err <= tol)

    rng = np.random.default_rng(seed)
    trials = []
    for _ in range(max_iters):
        pick = rng.choice(len(world), size=6, replace=False)
        rot, trans, ok = _pnp_dlt(world[pick][None], pixels[pick][None], K)
        if ok[0]:
            trials.append(Pose(rot[0], trans[0]))
    if block is not None:
        counts = [mask_for(pose, block).sum() for pose in trials]
        kept = sorted(range(len(trials)), key=lambda i: -counts[i])[:16]
        trials = [trials[i] for i in sorted(kept)]
    best_mask, best_count = None, 0
    for pose in trials:
        mask = mask_for(pose)
        if mask.sum() > best_count:
            best_mask, best_count = mask, mask.sum()
    if best_count < 6:
        return None
    pose = pnp_solve(world[best_mask], pixels[best_mask], K)
    pose = Pose(*_gauss_newton(pose.rotation, pose.translation, K,
                               world, pixels, 20, cauchy_scale=tol))
    return pose, mask_for(pose)


def same_result(res, ref):
    """Whether a RansacResult is the reference's, pose bytes and mask."""
    if ref is None:
        return not res.success
    return (res.success
            and res.pose.rotation.tobytes() == ref[0].rotation.tobytes()
            and res.pose.translation.tobytes() == ref[0].translation.tobytes()
            and np.array_equal(res.inlier_mask, ref[1]))


class TestPnP:
    def test_noiseless_recovery(self):
        rng = np.random.default_rng(5)
        pose = look_at([4.0, 2.0, 3.0], [0.0, 0.0, 0.5])
        points = rng.uniform(-1.5, 1.5, size=(30, 3))
        est = pnp_solve(*synthetic_corrs(pose, points), K)
        dt, dr = pose_error(est, pose)
        assert dt < 1e-6 and dr < 1e-6

    def test_minimal_six_points(self):
        rng = np.random.default_rng(6)
        pose = look_at([3.0, -2.0, 2.0], [0.0, 0.0, 0.0])
        points = rng.uniform(-1.0, 1.0, size=(6, 3))
        est = pnp_solve(*synthetic_corrs(pose, points), K)
        dt, dr = pose_error(est, pose)
        assert dt < 1e-5 and dr < 1e-4

    def test_too_few_points_raises(self):
        pose = look_at([3.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        world, pixels = synthetic_corrs(pose, np.eye(3) * 0.2)
        with pytest.raises(ValueError):
            pnp_solve(world, pixels, K)

    def test_collinear_points_degenerate(self):
        pose = look_at([3.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        points = np.outer(np.linspace(-1, 1, 8), [0.0, 1.0, 0.3])
        with pytest.raises(DegenerateGeometryError):
            pnp_solve(*synthetic_corrs(pose, points), K)

    def test_non_finite_points_degenerate(self):
        rng = np.random.default_rng(13)
        pose = look_at([3.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        world, pixels = synthetic_corrs(pose,
                                        rng.uniform(-1.0, 1.0, size=(8, 3)))
        world[3] = np.array([np.nan, 0.0, 0.0])
        with pytest.raises(DegenerateGeometryError):
            pnp_solve(world, pixels, K)

    def test_gauss_newton_bad_starts_stop_quietly(self):
        pose = look_at([4.0, 1.0, 2.0], [0.0, 0.0, 0.0])
        world = np.random.default_rng(10).uniform(-1.5, 1.5, size=(6, 3))
        pixels = project_many(pose, K, world)[0]
        rot = (rotation_from_axis_angle(np.array([0.02, -0.01, 0.03]))
               @ pose.rotation)
        trans = pose.translation + 0.05
        est = Pose(*_gauss_newton(rot, trans, K, world, pixels, 20))
        dt, dr = pose_error(est, pose)
        assert dt < 1e-9 and dr < 1e-7
        # every point behind the camera: zero jacobian, zero step
        behind = 2.0 * pose.center - world
        _, t = _gauss_newton(rot, trans, K, behind, pixels, 20)
        np.testing.assert_array_equal(t, trans)
        bad = trans.copy()
        bad[0] = np.nan
        _, t = _gauss_newton(rot, bad, K, world, pixels, 20)
        assert np.isnan(t[0])

    def test_jacobian_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        kmat = Intrinsics(fx=520.0, fy=480.0, cx=320.0, cy=240.0,
                          width=640, height=480)
        pose = look_at([4.0, 1.0, 2.0], [0.0, 0.0, 0.0])
        world = rng.uniform(-1.5, 1.5, size=(12, 3))
        world[4] = 2.0 * pose.center  # behind the camera
        pixels = rng.uniform([0, 0], [640, 480], size=(12, 2))

        def residuals(step):
            r_step = rotation_from_axis_angle(step[:3])
            moved = Pose(nearest_rotation(r_step @ pose.rotation),
                         r_step @ pose.translation + step[3:])
            return _reprojection_residuals(moved.rotation, moved.translation,
                                           kmat, world, pixels)

        h = 1e-6
        fd = np.stack([(residuals(h * e) - residuals(-h * e)) / (2 * h)
                       for e in np.eye(6)], axis=1)
        jac = _pnp_jacobian(pose.rotation, pose.translation, kmat, world)
        assert jac.shape == (24, 6)
        assert np.all(jac[8:10] == 0.0)
        np.testing.assert_allclose(jac, fd, rtol=1e-5, atol=1e-4)

        # per-point chain rule d(uv)/d(cam) @ [-skew(cam) | I] as reference
        for i, (x, y, z) in enumerate(to_camera(pose, world)):
            if z <= 0.0:
                continue
            d_uv = np.array([[kmat.fx / z, 0.0, -kmat.fx * x / z ** 2],
                             [0.0, kmat.fy / z, -kmat.fy * y / z ** 2]])
            ref = d_uv @ np.hstack([-skew(np.array([x, y, z])), np.eye(3)])
            np.testing.assert_allclose(jac[2 * i:2 * i + 2], ref,
                                       rtol=1e-12, atol=1e-9)


class TestRansac:
    def test_outlier_rejection(self):
        rng = np.random.default_rng(7)
        pose = look_at([4.0, 1.0, 2.0], [0.0, 0.0, 0.0])
        points = rng.uniform(-1.5, 1.5, size=(60, 3))
        world, pixels = synthetic_corrs(pose, points, outliers=18, rng=rng)
        res = ransac_pnp(world, pixels, K, inlier_tol=2.0, max_iters=300,
                         seed=1)
        assert res.success
        dt, dr = pose_error(res.pose, pose)
        assert dt < 0.01 and dr < 0.1
        # the 18 planted outliers should not survive as inliers
        assert res.inlier_mask[18:].sum() >= 40
        assert res.inlier_mask[:18].sum() <= 2

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(8)
        pose = look_at([4.0, 1.0, 2.0], [0.0, 0.0, 0.0])
        points = rng.uniform(-1.5, 1.5, size=(30, 3))
        corrs = synthetic_corrs(pose, points, outliers=8, rng=rng)
        a = ransac_pnp(*corrs, K, max_iters=100, seed=3)
        b = ransac_pnp(*corrs, K, max_iters=100, seed=3)
        assert a.success and b.success
        np.testing.assert_array_equal(a.pose.rotation, b.pose.rotation)
        np.testing.assert_array_equal(a.inlier_mask, b.inlier_mask)

    def test_refinement_uses_imprecise_inliers(self):
        # world coordinates carry 5 cm noise, like decoded ones: at 6 m that
        # is ~4 px, so a refit on the 3-px inliers alone keeps the bias of
        # the drawn sample; the pose must come from all the noisy points
        pose = look_at([5.5, 1.5, 2.0], [0.0, 0.0, 0.0])
        errors = []
        for seed in range(10):
            rng = np.random.default_rng(seed)
            xs = rng.uniform(-2.0, 2.0, size=(300, 3))
            pixels = [project_point(pose, K, x) for x in xs]
            world = [x + rng.normal(0.0, 0.05, size=3) for x in xs]
            xs = rng.uniform(-2.0, 2.0, size=(100, 3))
            pixels += [rng.uniform([0, 0], [K.width, K.height]) for _ in xs]
            world += list(xs)
            res = ransac_pnp(np.array(world), np.array(pixels), K,
                             inlier_tol=3.0, max_iters=200, seed=seed)
            assert res.success
            errors.append(pose_error(res.pose, pose)[0])
        assert np.median(errors) < 0.06

    @pytest.mark.parametrize("max_iters", [1, 6, 127, 128, 129, 300])
    def test_stacked_trials_pick_the_per_sample_winner(self, max_iters):
        # with n <= 200 rows the preemptive block is every row, so the
        # result is byte-identical to scoring every trial on every row
        pose = look_at([4.0, 1.0, 2.0], [0.0, 0.0, 0.0])
        # bare DLT counts tie with different masks only on the smaller set;
        # in seeds 16, 18 and 58 a trial past the 128th ties the best count
        # of an earlier one with another mask, so the earlier must keep it
        cases = [(seed, 40, 8) for seed in range(5)]
        cases += [(seed, 20, 4) for seed in (0, 1, 2, 3, 4, 16, 18, 58)]
        for seed, size, outliers in cases:
            rng = np.random.default_rng(seed)
            points = rng.uniform(-1.5, 1.5, size=(size, 3))
            world, pixels = synthetic_corrs(pose, points, outliers, rng=rng)
            # sub-pixel noise: counts vary
            pixels[outliers:] += rng.normal(0.0, 0.4,
                                            size=(size - outliers, 2))
            res = ransac_pnp(world, pixels, K, inlier_tol=1.0,
                             max_iters=max_iters, seed=seed)
            assert same_result(res, per_trial_ransac(world, pixels, 1.0,
                                                     max_iters, seed))

    def test_preemptive_winner_beyond_the_block(self):
        # n = 600: every trial is counted on the sorted block of 200 rows
        # that a generator seeded (seed, 1) draws, and only the 16 best are
        # scored on every row. With 30% exact rows, in seeds 13 and 29 two
        # of the 16 tie on every row, and the earlier trial must win. With
        # 5%, seed 13's most inliers over every row come from a trial
        # outside the block's 16 best: there full scoring would differ
        pose = look_at([8.0, 1.0, 1.0], [0.0, 0.0, 0.0])
        for seed, exact in [(0, 0.3), (1, 0.3), (13, 0.3), (29, 0.3),
                            (13, 0.05)]:
            world, pixels = desk_like_corrs(np.random.default_rng(seed),
                                            pose, 600, exact)
            block = np.sort(np.random.default_rng((seed, 1)).choice(
                600, size=200, replace=False))
            res = ransac_pnp(world, pixels, K, 3.0, max_iters=256, seed=seed)
            assert res.success
            assert same_result(res, per_trial_ransac(world, pixels, 3.0, 256,
                                                     seed, block))
            assert same_result(res, per_trial_ransac(
                world, pixels, 3.0, 256, seed)) == (exact == 0.3)

    def test_scores_every_trial_on_the_block_and_the_best_on_every_row(
            self, monkeypatch):
        pairs = []

        def counting(rot, trans, k, world, pixels, tol):
            masks = inlier_masks(rot, trans, k, world, pixels, tol)
            pairs.append(masks.size)
            return masks

        inlier_masks = geometry._inlier_masks
        monkeypatch.setattr(geometry, "_inlier_masks", counting)
        pose = look_at([8.0, 1.0, 1.0], [0.0, 0.0, 0.0])
        world, pixels = desk_like_corrs(np.random.default_rng(0), pose, 2000)
        res = ransac_pnp(world, pixels, K, max_iters=256, seed=0)
        assert res.success
        # full scoring would take 256 * 2000 pairs
        assert sum(pairs) <= 256 * 200 + 16 * 2000 + 2000

    def test_desk_scale_candidates_place_every_centre(self):
        for seed in range(20):
            rng = np.random.default_rng(30_000 + seed)
            pose = look_at([8.0 * np.cos(seed * 0.37),
                            8.0 * np.sin(seed * 0.37), rng.uniform(-1, 1)],
                           rng.normal(0.0, 0.2, size=3))
            world, pixels = desk_like_corrs(rng, pose, 2000)
            res = ransac_pnp(world, pixels, K, max_iters=256, seed=seed)
            assert res.success
            assert pose_error(res.pose, pose)[0] < 0.05

    def test_hostile_samples_never_raise(self):
        pose = look_at([4.0, 1.0, 2.0], [0.0, 0.0, 0.0])

        def hostile(rng, clean):
            points = rng.uniform(-1.5, 1.5, size=(60, 3))
            pix = project_many(pose, K, points)[0]
            # reflected through the camera centre: same pixel, behind it
            world = np.concatenate([points[:clean],
                                    2.0 * pose.center - points[40:52],
                                    rng.normal(size=(8, 3)) * 1e200])
            pixels = np.concatenate([pix[:clean], pix[40:52], pix[52:]])
            # repeated points make rank-deficient samples
            n = len(world)
            rows = list(range(n)) + [n - 1] * 4 + [n - 9] * 4
            return world[rows], pixels[rows]

        for seed in range(5):
            corrs = hostile(np.random.default_rng(seed), clean=60)
            assert len(corrs[0]) == 88  # 60 / 88 = 68% clean
            res = ransac_pnp(*corrs, K, max_iters=128, seed=seed)
            assert res.success
            dt, dr = pose_error(res.pose, pose)
            assert dt < 0.05 and dr < 1.0
            res = ransac_pnp(*hostile(np.random.default_rng(seed), clean=0),
                             K, max_iters=128, seed=seed)
            assert not res.success and res.pose is None

    def test_misaligned_arrays_rejected(self):
        pose = look_at([4.0, 1.0, 2.0], [0.0, 0.0, 0.0])
        points = np.random.default_rng(15).uniform(-1.5, 1.5, size=(10, 3))
        world, pixels = synthetic_corrs(pose, points)
        for solve in (pnp_solve, partial(ransac_pnp, max_iters=128)):
            for w, p in ((world, pixels[:-1]), (world[:3], pixels[:2])):
                with pytest.raises(ValueError, match="pixels"):
                    solve(w, p, K)

    def test_too_few_correspondences_fails_cleanly(self):
        res = ransac_pnp(np.zeros((0, 3)), np.zeros((0, 2)), K,
                         max_iters=128)
        assert not res.success and res.pose is None and res.num_inliers == 0

    def test_pure_noise_fails_cleanly(self):
        rng = np.random.default_rng(9)
        draws = [(rng.uniform([0, 0], [640, 480]),
                  rng.uniform(-100, 100, size=3)) for _ in range(8)]
        world = np.array([x for _, x in draws])
        pixels = np.array([p for p, _ in draws])
        res = ransac_pnp(world, pixels, K, inlier_tol=0.01, max_iters=20,
                         seed=0)
        assert not res.success


class TestPoseError:
    def test_known_errors(self):
        pose = look_at([3.0, 0.0, 1.0], [0.0, 0.0, 0.0])
        rot5 = rotation_from_axis_angle(np.array([0, 0, np.radians(5.0)]))
        shifted = Pose(pose.rotation, pose.translation)
        moved = Pose(rot5 @ pose.rotation,
                     -(rot5 @ pose.rotation) @ (pose.center + [0.2, 0, 0]))
        dt, dr = pose_error(shifted, pose)
        assert dt < 1e-12 and dr < 1e-5  # arccos noise near zero angle
        dt, dr = pose_error(moved, pose)
        np.testing.assert_allclose(dt, 0.2, atol=1e-12)
        np.testing.assert_allclose(dr, 5.0, atol=1e-9)
