"""SE(3) poses, pinhole projection, DLT triangulation, PnP and RANSAC.

Conventions: camera-from-world, x_cam = R @ x_world + t. Translation error
is measured between camera centers C = -R.T @ t.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

MIN_DEPTH = 1e-6  # meters; points with z <= this are behind the camera
MIN_TRIANGULATION_ANGLE_DEG = 0.5
# preemptive RANSAC scoring (Nistér, ICCV 2003): every trial is scored on a
# block of _BLOCK candidates, and only the _KEEP best on every candidate
_BLOCK, _KEEP = 200, 16


class DegenerateGeometryError(ValueError):
    """Raised when a solver's design matrix is rank deficient."""


@dataclass
class Intrinsics:
    fx: float
    fy: float
    cx: float
    cy: float
    width: int
    height: int

    def __post_init__(self):
        if not (0 < self.fx < np.inf and 0 < self.fy < np.inf):  # NaN fails too
            raise ValueError("focal lengths must be positive and finite")
        if not (0 <= self.cx <= self.width and 0 <= self.cy <= self.height):
            raise ValueError("principal point outside image")

    def matrix(self) -> np.ndarray:
        return np.array([[self.fx, 0.0, self.cx],
                         [0.0, self.fy, self.cy],
                         [0.0, 0.0, 1.0]])


@dataclass
class Pose:
    rotation: np.ndarray  # (3,3) camera-from-world
    translation: np.ndarray  # (3,)

    def __post_init__(self):
        self.rotation = np.asarray(self.rotation, dtype=np.float64)
        self.translation = np.asarray(self.translation, dtype=np.float64)
        r = self.rotation
        # entries of a rotation lie in [-1, 1]; checked first, this also
        # rejects NaN and keeps r.T @ r from overflowing
        if not (np.abs(r).max() <= 1.0 + 1e-9
                and np.abs(r.T @ r - np.eye(3)).max() <= 1e-9
                and abs(np.linalg.det(r) - 1.0) <= 1e-9):
            raise ValueError("rotation is not a proper orthonormal matrix")
        if not np.all(np.isfinite(self.translation)):
            raise ValueError("non-finite translation")

    @property
    def center(self) -> np.ndarray:
        return -self.rotation.T @ self.translation


@dataclass
class Point3D:
    id: int
    position: np.ndarray | None
    valid: bool


def look_at(center: np.ndarray, target: np.ndarray,
            up=(0.0, 0.0, 1.0)) -> Pose:
    """Camera at `center` looking toward `target` (+z forward)."""
    fwd = np.asarray(target, float) - np.asarray(center, float)
    fwd = fwd / np.linalg.norm(fwd)
    right = np.cross(fwd, np.asarray(up, float))
    if np.linalg.norm(right) < 1e-12:
        right = np.cross(fwd, np.array([0.0, 1.0, 0.0]))
    right = right / np.linalg.norm(right)
    down = np.cross(fwd, right)
    r = np.vstack([right, down, fwd])
    r = nearest_rotation(r)
    return Pose(r, -r @ np.asarray(center, float))


def nearest_rotation(m: np.ndarray) -> np.ndarray:
    """Closest proper rotation in the Frobenius sense; m may be a stack
    (..., 3, 3)."""
    u, _, vt = np.linalg.svd(m)
    return _proper_rotation(u, vt)


def _proper_rotation(u: np.ndarray, vt: np.ndarray) -> np.ndarray:
    """u @ vt, with the sign of u's last column chosen so that det = +1."""
    u[..., :, -1] *= np.sign(np.linalg.det(u @ vt))[..., None]
    return u @ vt


def rotation_from_axis_angle(w: np.ndarray) -> np.ndarray:
    """Rodrigues' formula for one axis-angle vector w (3,)."""
    theta = np.linalg.norm(w)
    if theta < 1e-12:
        return nearest_rotation(np.eye(3) + skew(w))
    k = skew(w / theta)
    return np.eye(3) + np.sin(theta) * k + (1.0 - np.cos(theta)) * (k @ k)


def skew(w: np.ndarray) -> np.ndarray:
    """Cross-product matrix of w; w may be a stack (..., 3)."""
    w = np.asarray(w, dtype=np.float64)
    k = np.zeros(w.shape + (3,))
    k[..., [2, 0, 1], [1, 2, 0]] = w
    k[..., [1, 2, 0], [2, 0, 1]] = -w
    return k


def project_many(pose: Pose, k: Intrinsics, xs: np.ndarray):
    """Vectorized projection; returns (pixels (n,2), depths (n,)).

    Pixels of points with depth <= MIN_DEPTH are NaN; check the depth.
    """
    u, v, z = pinhole(pose.rotation, pose.translation, k, np.atleast_2d(xs))
    front = z > MIN_DEPTH
    return np.stack([np.where(front, u, np.nan),
                     np.where(front, v, np.nan)], axis=-1), z


def _camera_xyz(rot: np.ndarray, trans: np.ndarray, xs: np.ndarray):
    """Camera-frame x, y, z, each (..., n), of world points xs (..., n, 3)
    under rotations (..., 3, 3) and translations (..., 3)."""
    cam = rot @ np.swapaxes(xs, -1, -2) + trans[..., None]
    return cam[..., 0, :], cam[..., 1, :], cam[..., 2, :]


def pinhole(rot: np.ndarray, trans: np.ndarray, k: Intrinsics,
            xs: np.ndarray):
    """Pixel u, v and depth z, each (..., n), of world points xs (..., n, 3)
    under rotations (..., 3, 3) and translations (..., 3).

    The one pinhole formula of the package. Nothing is masked: u and v of
    points at or behind the camera are whatever the division gives, so
    each caller applies its own rule on z.
    """
    x, y, z = _camera_xyz(rot, trans, xs)
    with np.errstate(divide="ignore", invalid="ignore"):
        return k.fx * x / z + k.cx, k.fy * y / z + k.cy, z


def triangulate_dlt(rot: np.ndarray, trans: np.ndarray, k: Intrinsics,
                    pixels: np.ndarray, reproj_tol: float = 2.0,
                    point_id: int = -1) -> Point3D:
    """Homogeneous DLT triangulation of one track: its pixels (n,2) in n
    views of rotations (n,3,3) and translations (n,3), all through k.

    The point is marked invalid when it lies at or behind a camera, when
    the worst reprojection error exceeds reproj_tol pixels, or when the
    widest triangulation angle is below MIN_TRIANGULATION_ANGLE_DEG.
    """
    if len(pixels) < 2:
        raise ValueError(f"triangulation needs >= 2 views, got {len(pixels)}")
    p = k.matrix() @ np.concatenate([rot, trans[:, :, None]], axis=2)
    a = (pixels[:, :, None] * p[:, 2:3, :] - p[:, :2, :]).reshape(-1, 4)
    _, _, vt = np.linalg.svd(a)
    xh = vt[-1]
    if abs(xh[3]) < 1e-15:
        return Point3D(point_id, None, False)
    x = xh[:3] / xh[3]

    u, v, z = pinhole(rot, trans, k, x[None])
    if (np.any(z <= MIN_DEPTH) or np.hypot(
            u - pixels[:, :1], v - pixels[:, 1:]).max() > reproj_tol):
        return Point3D(point_id, None, False)

    # rays from the camera centers, none shorter than its depth z > 0
    rays = x - np.einsum("nji,nj->ni", rot, -trans)
    unit = rays / np.linalg.norm(rays, axis=1, keepdims=True)
    min_cos = np.clip((unit @ unit.T).min(), -1.0, 1.0)
    if np.degrees(np.arccos(min_cos)) < MIN_TRIANGULATION_ANGLE_DEG:
        return Point3D(point_id, None, False)
    return Point3D(point_id, x, True)


def _pnp_dlt(world: np.ndarray, pixels: np.ndarray, k: Intrinsics):
    """Direct linear transform for [R|t] from normalized image coordinates.

    For b samples, world (b,n,3) and pixels (b,n,2), returns rotations
    (m,3,3) and translations (m,3) of the m samples whose design matrix is
    finite with a one-dimensional null space, and their mask (b,).
    """
    b, n = world.shape[:2]
    normed = (pixels - (k.cx, k.cy)) / (k.fx, k.fy)
    xh = np.concatenate([world, np.ones((b, n, 1))], axis=2)
    a = np.zeros((b, n, 2, 12))
    a[:, :, 0, 0:4] = a[:, :, 1, 4:8] = xh
    a[:, :, 0, 8:12] = -normed[..., 0:1] * xh
    a[:, :, 1, 8:12] = -normed[..., 1:2] * xh
    a = a.reshape(b, 2 * n, 12)
    ok = np.isfinite(a).all(axis=(1, 2))
    _, s, vt = np.linalg.svd(a[ok], full_matrices=False)
    # a second near-zero singular value means the null space is ambiguous
    rank_ok = s[:, -2] >= 1e-10 * np.maximum(s[:, 0], 1.0)
    ok[ok] = rank_ok
    p = vt[rank_ok, -1].reshape(-1, 3, 4)
    # fix overall sign with cheirality of the majority of points
    depths = (world[ok] @ p[:, 2, :3, None])[..., 0] + p[:, 2, 3, None]
    flip = np.sum(depths > 0, axis=1) < np.sum(depths < 0, axis=1)
    p[flip] *= -1.0
    u, s3, vt3 = np.linalg.svd(p[:, :, :3])
    t = p[:, :, 3] * 3.0 / s3.sum(axis=1, keepdims=True)
    return _proper_rotation(u, vt3), t, ok


def _reprojection_residuals(rot: np.ndarray, trans: np.ndarray,
                            k: Intrinsics, world: np.ndarray,
                            pixels: np.ndarray) -> np.ndarray:
    """Residuals (2n,) of points (n, 3) against pixels (n, 2)."""
    u, v, z = pinhole(rot, trans, k, world)
    res = np.stack([u - pixels[:, 0], v - pixels[:, 1]], axis=-1)
    res[z <= MIN_DEPTH] = 1e6  # behind-camera observations get a huge residual
    return res.ravel()


def _aligned(world, pixels) -> tuple[np.ndarray, np.ndarray]:
    """world (n, 3) and pixels (n, 2) as float64, a correspondence a row."""
    world, pixels = np.asarray(world, float), np.asarray(pixels, float)
    if world.shape[1:] != (3,) or pixels.shape != (len(world), 2):
        raise ValueError(f"need world (n, 3) and pixels (n, 2), got "
                         f"{world.shape} and {pixels.shape}")
    return world, pixels


def pnp_solve(world: np.ndarray, pixels: np.ndarray, k: Intrinsics,
              max_iters: int = 20) -> Pose:
    """DLT initialization + Gauss-Newton refinement on SE(3) from n >= 6
    rows of world points (n, 3) and their pixels (n, 2)."""
    world, pixels = _aligned(world, pixels)
    if len(world) < 6:
        raise ValueError(f"PnP needs >= 6 correspondences, got {len(world)}")
    rot, trans, ok = _pnp_dlt(world[None], pixels[None], k)
    if not ok[0]:
        raise DegenerateGeometryError("rank-deficient or non-finite PnP "
                                      "design matrix")
    return Pose(*_gauss_newton(rot[0], trans[0], k, world, pixels, max_iters))


def _gauss_newton(rot: np.ndarray, trans: np.ndarray, k: Intrinsics,
                  world: np.ndarray, pixels: np.ndarray, max_iters: int,
                  cauchy_scale: float | None = None):
    """Gauss-Newton on SE(3) over the reprojection residuals.

    Refines a rotation (3,3) and translation (3,) against points (n,3) and
    pixels (n,2). It stops once the step norm is below 1e-10 or the
    residuals or Jacobian are not finite; a zero Jacobian (every point
    behind the camera) gives a zero step.

    With `cauchy_scale` set this is IRLS: every step weights each point by
    1 / (1 + (e / cauchy_scale)^2) of its current reprojection error e, so
    far-off points pull little on the pose.
    """
    for _ in range(max_iters):
        res = _reprojection_residuals(rot, trans, k, world, pixels)
        jac = _pnp_jacobian(rot, trans, k, world)
        if cauchy_scale is not None:
            err = np.hypot(res[0::2], res[1::2])
            sqrt_w = np.repeat((1.0 + (err / cauchy_scale) ** 2) ** -0.5, 2)
            res = res * sqrt_w
            jac = jac * sqrt_w[:, None]
        if not (np.isfinite(res).all() and np.isfinite(jac).all()):
            break
        step = np.linalg.lstsq(jac, -res, rcond=None)[0]
        # left-multiplied update, matching the jacobian: cam' = exp(w) cam + dt
        r_step = rotation_from_axis_angle(step[:3])
        rot = nearest_rotation(r_step @ rot)
        trans = r_step @ trans + step[3:]
        if np.linalg.norm(step) < 1e-10:
            break
    return rot, trans


def _pnp_jacobian(rot: np.ndarray, trans: np.ndarray, k: Intrinsics,
                  world: np.ndarray) -> np.ndarray:
    """d(residual)/d(omega, t) (2n, 6) for the left-multiplied SE(3) update.

    Rows of points behind the camera are zero: their residual is a huge
    constant with no useful gradient.
    """
    x, y, z = _camera_xyz(rot, trans, world)
    front = z > MIN_DEPTH
    inv_z = 1.0 / np.where(front, z, np.inf)
    xn, yn = x * inv_z, y * inv_z
    one, zero = front.astype(np.float64), np.zeros_like(inv_z)
    jac = np.empty(z.shape + (2, 6))
    jac[..., 0, :] = k.fx * np.stack([-xn * yn, one + xn * xn, -yn,
                                      inv_z, zero, -xn * inv_z], axis=-1)
    jac[..., 1, :] = k.fy * np.stack([-one - yn * yn, xn * yn, xn,
                                      zero, inv_z, -yn * inv_z], axis=-1)
    return jac.reshape(-1, 6)


def _inlier_masks(rot: np.ndarray, trans: np.ndarray, k: Intrinsics,
                  world: np.ndarray, pixels: np.ndarray,
                  tol: float) -> np.ndarray:
    """(..., n): points in front of each camera within tol pixels."""
    u, v, z = pinhole(rot, trans, k, world)
    u -= pixels[:, 0]
    v -= pixels[:, 1]
    return (z > MIN_DEPTH) & (np.sqrt(u * u + v * v) <= tol)


@dataclass
class RansacResult:
    success: bool
    pose: Pose | None
    inlier_mask: np.ndarray = field(default_factory=lambda: np.zeros(0, bool))

    @property
    def num_inliers(self) -> int:
        return int(self.inlier_mask.sum())


def ransac_pnp(world: np.ndarray, pixels: np.ndarray, k: Intrinsics,
               inlier_tol: float = 3.0, *, max_iters: int,
               seed: int = 0) -> RansacResult:
    """Seeded RANSAC over rows of world points (n, 3) and their pixels
    (n, 2): minimal 6-point PnP samples, then refinement.

    The caller sets the budget of `max_iters` trials (`localize` takes
    `LocalizeOptions.ransac_iters`). Each trial draws one 6-point sample
    from the seeded generator, so a budget of b trials draws exactly the
    first b samples of any larger one. One stack of bare DLTs solves them,
    skipping degenerate samples. Scoring is preemptive: each trial on one
    sorted block of min(n, _BLOCK) rows from a generator seeded (seed, 1),
    then the _KEEP best on every row; the most inliers wins, ties keep the
    earlier trial. With n <= _BLOCK that is byte-identical to full scoring.
    Only the winner is refined: Gauss-Newton on every minimal sample would
    cost most of RANSAC's time without making the final pose more accurate.

    The best sample's pose is refit on its `inlier_tol` inliers and then
    refined by Cauchy-weighted IRLS over all correspondences, with
    `inlier_tol` as the Cauchy scale: imprecise but correct points still
    inform the pose, outliers barely do. The returned inlier mask is
    taken at `inlier_tol` from the refined pose. Returns a failure result
    when fewer than 6 rows are given or no model reaches 6 inliers; raises
    ValueError only when the two arrays do not pair up row by row.
    """
    world, pixels = _aligned(world, pixels)
    n = len(world)
    if n < 6:
        return RansacResult(False, None)
    rng = np.random.default_rng(seed)
    picks = np.array([rng.choice(n, size=6, replace=False)
                      for _ in range(max_iters)], int).reshape(-1, 6)
    rot, trans, _ = _pnp_dlt(world[picks], pixels[picks], k)
    block = np.sort(np.random.default_rng((seed, 1)).choice(
        n, size=min(n, _BLOCK), replace=False))
    counts = _inlier_masks(rot, trans, k, world[block], pixels[block],
                           inlier_tol).sum(axis=1)
    kept = np.sort(np.argsort(-counts, kind="stable")[:_KEEP])
    masks = _inlier_masks(rot[kept], trans[kept], k, world, pixels,
                          inlier_tol)
    best_mask = max(masks, key=np.count_nonzero, default=np.zeros(n, bool))
    if best_mask.sum() < 6:
        return RansacResult(False, None)

    try:
        refined = pnp_solve(world[best_mask], pixels[best_mask], k)
        refined = Pose(*_gauss_newton(refined.rotation, refined.translation,
                                      k, world, pixels, max_iters=20,
                                      cauchy_scale=inlier_tol))
    except (DegenerateGeometryError, ValueError):
        return RansacResult(False, None)
    final_mask = _inlier_masks(refined.rotation, refined.translation, k,
                               world, pixels, inlier_tol)
    if int(final_mask.sum()) < 6:
        return RansacResult(False, None)
    return RansacResult(True, refined, final_mask)


def pose_error(estimate: Pose, truth: Pose) -> tuple[float, float]:
    """(camera-center distance in meters, rotation angle in degrees)."""
    trans = float(np.linalg.norm(estimate.center - truth.center))
    cosang = (np.trace(truth.rotation.T @ estimate.rotation) - 1.0) / 2.0
    rot = float(np.degrees(np.arccos(np.clip(cosang, -1.0, 1.0))))
    return trans, min(max(rot, 0.0), 180.0)
