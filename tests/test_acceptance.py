"""Acceptance gate: eight system-level criteria, one pass/fail line each.

Each test prints a single summary line (visible under plain ``pytest -v``)
and asserts the criterion. The expensive desk-scale run is shared by
criteria 3, 4, 5, and 6 and the float32 query-decode check through a
module-scoped fixture.
"""

import dataclasses
import math
import time
from types import SimpleNamespace

import numpy as np
import pytest

from voxloc import cli, pipeline, synthworld
from voxloc import diffcore as dcc
from voxloc.decoder import (DecoderParams, bank_keys, block_keys,
                            cross_attention_block, decode, encode_feature,
                            params_from_bytes, params_to_bytes)
from voxloc.geometry import (Intrinsics, Point3D, Pose, look_at, pnp_solve,
                             pose_error, project_many, ransac_pnp,
                             rotation_from_axis_angle, triangulate_dlt)
from voxloc.pipeline import (LocalizationResult, LocalizeOptions, evaluate,
                             evaluate_scene, retrieve_views)
from voxloc.scene import (CodeBank, Voxel, VoxelId, assign_coverage,
                          build_scene, prune, scene_from_bytes,
                          scene_to_bytes, size_bytes, voxelize)
from voxloc.synthworld import ViewObservations, WorldConfig
from voxloc.training import (Sample, TrainConfig, adapt_scene,
                             coordinate_loss, confidence_loss, run_training,
                             sparsity_loss, _batch_losses)

K = Intrinsics(525.0, 525.0, 320.0, 240.0, 640, 480)


def _report(capsys, num, name, ok, detail):
    with capsys.disabled():
        print(f"\ncriterion {num} [{name}]: {'PASS' if ok else 'FAIL'} "
              f"({detail})")
    assert ok, f"criterion {num} [{name}]: {detail}"


# ---------------------------------------------------------------------------
# criterion 1: gradient soundness on a small full-loss instance
# ---------------------------------------------------------------------------

def test_criterion_1_gradient_soundness(capsys):
    start = time.perf_counter()
    rng = np.random.default_rng(7)
    d, n, t, d_raw, m = 8, 3, 2, 6, 4
    params = DecoderParams.init(rng, d_raw=d_raw, d=d, num_blocks=t,
                                block_hidden=4, head_hidden=4)
    samples = []
    banks = []
    for vi in range(2):
        bank = CodeBank.init(t, n, d, rng, prefix=f"voxel{vi}")
        for c in bank.codes:
            c.values[:] = rng.normal(0.0, 0.5, size=c.values.shape)
        for w in bank.scales:
            w.values[:] = rng.uniform(0.5, 1.5, size=w.values.shape)
        banks.append(bank)
        voxel = Voxel(VoxelId(vi, 0, 0), rng.normal(size=3),
                      np.arange(3), bank)
        in_voxel = np.array([1.0, 0.0, 1.0, 1.0]) if vi == 0 \
            else np.array([0.0, 1.0, 1.0, 0.0])
        samples.append(Sample(voxel, 0, rng.normal(size=(m, d_raw)),
                              rng.normal(size=(m, 3)), in_voxel))
    config = TrainConfig(lambda_l1=1.0)

    def summed_loss(tape):
        # the sum of both samples' losses reaches every decoder parameter
        # and both code banks
        first, second = (_batch_losses(tape, params, s, config, 1)[3]
                         for s in samples)
        return dcc.add(tape, first, second)

    def loss_value():
        return float(summed_loss(None).values)

    tape = dcc.Tape()
    loss = summed_loss(tape)
    named = dict(params.named_parameters())
    for bank in banks:
        named.update(bank.named_parameters())
    grads = tape.backward(loss, named)
    h = 1e-5
    worst = 0.0
    worst_name = ""
    checked = 0
    for name, p in sorted(named.items()):
        grad = grads[name]
        flat = p.values.reshape(-1)
        gflat = grad.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            hi = loss_value()
            flat[i] = orig - h
            lo = loss_value()
            flat[i] = orig
            fd = (hi - lo) / (2.0 * h)
            rel = abs(gflat[i] - fd) / max(abs(gflat[i]), abs(fd), 1e-6)
            checked += 1
            if rel > worst:
                worst, worst_name = rel, f"{name}[{i}]"
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 60.0
    _report(capsys, 1, "gradient soundness", ok,
            f"{checked} scalar parameters, worst rel err {worst:.2e} "
            f"at {worst_name}, {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# criterion 2: geometric exactness
# ---------------------------------------------------------------------------

def test_criterion_2_geometric_exactness(capsys):
    rng = np.random.default_rng(11)

    # noiseless PnP
    worst_t = worst_r = 0.0
    for trial in range(5):
        pose = look_at(np.array([6.0 + trial, 2.0 - trial, 1.5]),
                       rng.normal(0.0, 0.3, size=3))
        world = rng.uniform(-2.0, 2.0, size=(20, 3))
        pixels = project_many(pose, K, world)[0]
        est = pnp_solve(world, pixels, K)
        dt, ddeg = pose_error(est, pose)
        worst_t = max(worst_t, dt)
        worst_r = max(worst_r, math.radians(ddeg))
    pnp_ok = worst_t < 1e-6 and worst_r < 1e-6

    # noiseless triangulation
    poses = [look_at(np.array([7.0 * math.cos(a), 7.0 * math.sin(a), 1.0]),
                     np.zeros(3))
             for a in np.linspace(0.0, 2.0 * math.pi, 6, endpoint=False)]
    rot = np.array([p.rotation for p in poses])
    trans = np.array([p.translation for p in poses])
    worst_x = 0.0
    for x in rng.uniform(-2.0, 2.0, size=(20, 3)):
        pixels = np.array([project_many(p, K, x)[0][0] for p in poses])
        pt = triangulate_dlt(rot, trans, K, pixels, reproj_tol=2.0)
        assert pt.valid
        worst_x = max(worst_x, float(np.linalg.norm(pt.position - x)))
    tri_ok = worst_x < 1e-8

    # RANSAC with 30% outliers, 100 seeded trials
    hits = 0
    for seed in range(100):
        trng = np.random.default_rng(10_000 + seed)
        pose = look_at(np.array([8.0 * math.cos(seed * 0.37),
                                 8.0 * math.sin(seed * 0.37),
                                 trng.uniform(-1.0, 1.0)]),
                       trng.normal(0.0, 0.2, size=3))
        world = trng.uniform(-2.0, 2.0, size=(200, 3))
        pixels = []
        for i, pix in enumerate(project_many(pose, K, world)[0]):
            if i < 140:  # inliers with 1 px noise
                pix = pix + trng.normal(0.0, 1.0, size=2)
            else:        # uniform outliers
                pix = np.array([trng.uniform(0, K.width),
                                trng.uniform(0, K.height)])
            pixels.append(pix)
        res = ransac_pnp(world, np.array(pixels), K, inlier_tol=3.0,
                         max_iters=100, seed=seed)
        if res.success and \
                float(np.linalg.norm(res.pose.center - pose.center)) < 0.05:
            hits += 1
    ransac_ok = hits >= 95

    _report(capsys, 2, "geometric exactness",
            pnp_ok and tri_ok and ransac_ok,
            f"pnp worst ({worst_t:.1e} m, {worst_r:.1e} rad), "
            f"triangulation worst {worst_x:.1e} m, "
            f"ransac {hits}/100 centers within 0.05 m")


# ---------------------------------------------------------------------------
# desk-scale run shared by criteria 3, 4, 5, 6
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def desk():
    start = time.perf_counter()
    cfg = cli.load_config(None)
    cfg["train"] = dataclasses.replace(cfg["train"], keypoints_per_sample=0)
    dataset = synthworld.generate_dataset(cfg["world"])
    scene, params = cli._new_map(dataset, cfg)
    run_training(scene, dataset, params, cfg["train"])
    report = evaluate_scene(scene, params, dataset, LocalizeOptions())
    return SimpleNamespace(cfg=cfg, dataset=dataset, scene=scene,
                           params=params, report=report,
                           runtime=time.perf_counter() - start)


def test_criterion_3_end_to_end_desk_localization(capsys, desk):
    voxels = len(desk.scene.voxels)
    acc = desk.report.accuracies[0]
    med = desk.report.median_translation_m
    ok = (4 <= voxels <= 8 and acc >= 0.90 and med < 0.05
          and desk.runtime < 900.0)
    _report(capsys, 3, "end-to-end desk localization", ok,
            f"{voxels} voxels, accuracy@(0.25 m, 2 deg) {acc * 100:.1f}%, "
            f"median translation {med:.3f} m, {desk.runtime:.0f} s")


def test_criterion_4_pruning_economy(capsys, desk):
    # work on byte-clones so the other criteria keep the unpruned artifacts
    scene = scene_from_bytes(scene_to_bytes(desk.scene))
    params = params_from_bytes(params_to_bytes(desk.params))
    base_acc = desk.report.accuracies[0]
    bytes_before = size_bytes(scene, 4)

    scales = np.concatenate(
        [np.abs(w.values[w.values != 0.0])
         for v in scene.voxels.values() for w in v.codes.scales])
    threshold = float(np.median(scales)) * (1.0 + 1e-9)
    report = prune(scene, threshold)
    retained_frac = report.total_retained / report.total_codes
    bytes_after = size_bytes(scene, 4)
    byte_drop = 1.0 - bytes_after / bytes_before

    # fine-tune at a tenth of the training rates: the surviving codes only
    # need light adjustment, and larger steps destabilize the shared decoder
    tc = dataclasses.replace(desk.cfg["train"], epochs_stage1=0,
                             epochs_stage2=30, prune_threshold=0.0,
                             lr_agnostic=0.001, lr_codes=0.002)
    run_training(scene, desk.dataset, params, tc)
    rep = evaluate_scene(scene, params, desk.dataset, LocalizeOptions())
    drop_pp = (base_acc - rep.accuracies[0]) * 100.0

    ok = retained_frac <= 0.5 and drop_pp <= 10.0 and byte_drop >= 0.45
    _report(capsys, 4, "pruning economy", ok,
            f"retained {retained_frac * 100:.1f}% of codes, accuracy "
            f"{base_acc * 100:.1f}% -> {rep.accuracies[0] * 100:.1f}% "
            f"({drop_pp:+.1f} pp), size {bytes_before} -> {bytes_after} "
            f"bytes ({byte_drop * 100:.1f}% drop)")


def test_criterion_5_scene_adaptation(capsys, desk):
    cfg = cli.load_config(None)
    cfg["world"] = dataclasses.replace(cfg["world"], seed=11)
    cfg["train"] = dataclasses.replace(cfg["train"], keypoints_per_sample=0,
                                       lambda_l1=0.0)
    dataset = synthworld.generate_dataset(cfg["world"])
    scene, _ = cli._new_map(dataset, cfg, desk.params)

    frozen = params_to_bytes(desk.params)
    adapt_scene(scene, dataset, desk.params,
                dataclasses.replace(cfg["train"], epochs_stage1=60))
    frozen_ok = params_to_bytes(desk.params) == frozen

    rep = evaluate_scene(scene, desk.params, dataset, LocalizeOptions())
    acc = rep.accuracies[0]
    ok = frozen_ok and acc >= 0.80
    _report(capsys, 5, "scene adaptation", ok,
            f"decoder byte-identical: {frozen_ok}, adapted accuracy"
            f"@(0.25 m, 2 deg) {acc * 100:.1f}% on {rep.num_queries} queries")


def test_criterion_6_confidence_classification(capsys, desk):
    # query views are held out: same world, never touched by training
    tp = fp = tn = fn = 0
    for view in desk.dataset.query_views:
        feats = encode_feature(None, desk.params,
                               dcc.DTensor(view.descriptors))
        for vid in sorted(desk.scene.voxels):
            voxel = desk.scene.voxels[vid]
            _, conf = decode(None, desk.params, feats,
                             bank_keys(None, desk.params, voxel.codes))
            positive = conf.values[:, 0] >= 0.5
            member = np.isin(view.point_ids, voxel.members)
            tp += int(np.sum(positive & member))
            fn += int(np.sum(~positive & member))
            fp += int(np.sum(positive & ~member))
            tn += int(np.sum(~positive & ~member))
    tpr = tp / (tp + fn)
    tnr = tn / (tn + fp)
    balanced = 0.5 * (tpr + tnr)
    ok = balanced >= 0.90
    _report(capsys, 6, "confidence classification", ok,
            f"balanced accuracy {balanced * 100:.1f}% "
            f"(TPR {tpr * 100:.1f}%, TNR {tnr * 100:.1f}%) over "
            f"{tp + fp + tn + fn} keypoint-voxel pairs")


def test_float32_query_decode_on_the_desk_map(desk):
    """localize decodes float32 copies of the desk map: coordinates stay
    within 1e-5 m of float64 decode, same-seed poses repeat byte for byte,
    and the caller's params and banks stay float64 and unchanged."""
    scene_bytes = scene_to_bytes(desk.scene)
    weight_bytes = params_to_bytes(desk.params)
    view = desk.dataset.query_views[0]
    runs = [pipeline.localize(view, desk.scene, desk.params, desk.dataset)
            for _ in range(2)]
    assert runs[0].success
    poses = {r.pose.rotation.tobytes() + r.pose.translation.tobytes()
             for r in runs}
    assert len(poses) == 1
    tensors = (list(desk.params.named_parameters().values())
               + list(desk.scene.named_code_parameters().values()))
    assert all(t.values.dtype == np.float64 for t in tensors)
    assert scene_to_bytes(desk.scene) == scene_bytes
    assert params_to_bytes(desk.params) == weight_bytes

    params32 = pipeline._float32_state(desk.params)[0]
    feats64 = encode_feature(None, desk.params,
                             dcc.DTensor(view.descriptors))
    feats32 = encode_feature(None, params32, dcc.DTensor(
        view.descriptors.astype(np.float32)))
    for voxel in desk.scene.voxels.values():
        local64, _ = decode(None, desk.params, feats64,
                            bank_keys(None, desk.params, voxel.codes))
        local32, _ = decode(None, params32, feats32, bank_keys(
            None, params32, pipeline._float32_state(voxel.codes)[0]))
        assert local32.values.dtype == np.float32
        world64 = local64.values + voxel.origin
        world32 = local32.values + voxel.origin
        assert np.abs(world32 - world64).max() < 1e-5


# ---------------------------------------------------------------------------
# criterion 7: oracle equivalence suite
# ---------------------------------------------------------------------------

def _scalar_attention_oracle(f, codes, scales, blk, d):
    """Pure-python scalar-loop reimplementation of one attention block."""
    def matmul(a, b):
        return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
                 for j in range(len(b[0]))] for i in range(len(a))]

    def layer_norm(rows, gain, bias):
        out = []
        for row in rows:
            mean = sum(row) / len(row)
            var = sum((x - mean) ** 2 for x in row) / len(row)
            inv = 1.0 / math.sqrt(var + 1e-6)
            out.append([(x - mean) * inv * g + b
                        for x, g, b in zip(row, gain, bias)])
        return out

    scaled = [[c * s for c in row] for row, s in zip(codes, scales)]
    q = matmul(f, blk.wq.values.tolist())
    k = matmul(scaled, blk.wk.values.tolist())
    v = matmul(scaled, blk.wv.values.tolist())
    attended = []
    for qi in q:
        logits = [sum(a * b for a, b in zip(qi, kj)) / math.sqrt(d)
                  for kj in k]
        top = max(logits)
        exps = [math.exp(x - top) for x in logits]
        denom = sum(exps)
        attn = [e / denom for e in exps]
        attended.append([sum(a * vj[c] for a, vj in zip(attn, v))
                         for c in range(d)])
    f1 = layer_norm([[a + b for a, b in zip(fr, ar)]
                     for fr, ar in zip(f, attended)],
                    blk.ln1_gain.values[0].tolist(),
                    blk.ln1_bias.values[0].tolist())
    w0, b0 = blk.mlp.weights[0].values.tolist(), blk.mlp.biases[0].values[0]
    w1, b1 = blk.mlp.weights[1].values.tolist(), blk.mlp.biases[1].values[0]
    hidden = [[max(x + b, 0.0) for x, b in zip(row, b0)]
              for row in matmul(f1, w0)]
    mlp_out = [[x + b for x, b in zip(row, b1)] for row in matmul(hidden, w1)]
    return layer_norm([[a + b for a, b in zip(fr, mr)]
                       for fr, mr in zip(f1, mlp_out)],
                      blk.ln2_gain.values[0].tolist(),
                      blk.ln2_bias.values[0].tolist())


def test_criterion_7_oracle_equivalence(capsys):
    rng = np.random.default_rng(23)
    failures = []

    # voxelize vs brute-force membership: 1000 uniform points in [-10,10]^3
    pts = [Point3D(i, rng.uniform(-10.0, 10.0, size=3), True)
           for i in range(1000)]
    cells = voxelize(pts, 4.0)
    seen = set()
    for p in pts:
        holders = [vid for vid, members in cells.items() if p.id in members]
        expected = VoxelId(*(int(math.floor(c / 4.0)) for c in p.position))
        if holders != [expected]:
            failures.append("voxelize membership")
            break
        seen.add(p.id)
    if seen != {p.id for p in pts}:
        failures.append("voxelize union")

    # coverage vs brute-force recount
    n_pts, n_views = 60, 8
    positions = rng.uniform(-4.0, 4.0, size=(n_pts, 3))
    points = {i: Point3D(i, positions[i], i % 7 != 0) for i in range(n_pts)}
    views = [SimpleNamespace(point_ids=rng.choice(n_pts, size=25,
                                                  replace=False))
             for _ in range(n_views)]
    dataset = SimpleNamespace(views=views, points=points)
    scene = build_scene(list(points.values()), 4.0, (1, 2, 4),
                        np.random.default_rng(0))
    assign_coverage(scene, dataset, min_points=3)
    for vid, voxel in scene.voxels.items():
        members = set(int(m) for m in voxel.members)
        expected = [i for i, view in enumerate(views)
                    if len([p for p in view.point_ids
                            if int(p) in members
                            and points[int(p)].valid]) >= 3]
        if voxel.covering_views != expected:
            failures.append("coverage recount")
            break

    # retrieval ranking vs brute-force similarity sort
    def make_view(m):
        desc = rng.normal(size=(m, 16))
        return ViewObservations(None, K, np.zeros((m, 2)), desc,
                                np.arange(m, dtype=np.int64))
    ref_views = [make_view(12) for _ in range(15)]
    query = make_view(9)
    got = retrieve_views(query, synthworld.ReferenceDataset(
        ref_views, {}, [], WorldConfig(descriptor_dim=16)), 15)
    q = query.descriptors.mean(axis=0)
    sims = [float(q @ v.descriptors.mean(axis=0)
                  / (np.linalg.norm(q)
                     * np.linalg.norm(v.descriptors.mean(axis=0))))
            for v in ref_views]
    want = sorted(range(15), key=lambda i: (-sims[i], i))
    if got != want:
        failures.append("retrieval ranking")

    # attention block vs scalar-loop oracle (D=8, N=3), tol 1e-10
    d, n = 8, 3
    params = DecoderParams.init(rng, d_raw=6, d=d, num_blocks=1,
                                block_hidden=4, head_hidden=4)
    bank = CodeBank.init(1, n, d, rng, prefix="oracle")
    bank.codes[0].values[:] = rng.normal(size=(n, d))
    bank.scales[0].values[:] = rng.uniform(0.5, 1.5, size=(n, 1))
    f = rng.normal(size=(5, d))
    got_block = cross_attention_block(None, dcc.DTensor(f),
                                      block_keys(None, params, bank, 0), 0,
                                      params)[0].values
    want_block = np.array(_scalar_attention_oracle(
        f.tolist(), bank.codes[0].values.tolist(),
        bank.scales[0].values[:, 0].tolist(), params.blocks[0], d))
    attn_err = float(np.abs(got_block - want_block).max())
    if attn_err > 1e-10:
        failures.append(f"attention block ({attn_err:.1e})")

    # the three losses vs scalar oracles
    m = 7
    local = rng.normal(size=(m, 3))
    origin = rng.normal(size=3)
    targets = rng.normal(size=(m, 3))
    in_voxel = (rng.random(m) < 0.6).astype(float)
    in_voxel[0] = 1.0  # keep the in-voxel row set nonempty
    got_lx = float(coordinate_loss(None, dcc.DTensor(local), origin,
                                   targets, in_voxel).values)
    rows = [i for i in range(m) if in_voxel[i] > 0.5]
    want_lx = sum(math.sqrt(sum((local[i][c] + origin[c] - targets[i][c]) ** 2
                                for c in range(3))) for i in rows) / len(rows)
    if abs(got_lx - want_lx) > 1e-12:
        failures.append("coordinate loss")

    conf = rng.uniform(0.01, 0.99, size=(m, 1))
    got_lc = float(confidence_loss(None, dcc.DTensor(conf), in_voxel).values)
    want_lc = -sum(in_voxel[i] * math.log(conf[i][0])
                   + (1.0 - in_voxel[i]) * math.log(1.0 - conf[i][0])
                   for i in range(m)) / m
    if abs(got_lc - want_lc) > 1e-10:
        failures.append("confidence loss")

    voxels = []
    for vi in range(2):
        b = CodeBank.init(2, 3, 4, rng, prefix=f"sp{vi}")
        for w in b.scales:
            w.values[:] = rng.normal(size=w.values.shape)
        voxels.append(Voxel(VoxelId(vi, 0, 0), np.zeros(3), np.arange(2), b))
    for v in voxels:
        got_l1 = float(sparsity_loss(None, v).values)
        want_l1 = sum(abs(float(x)) for w in v.codes.scales
                      for x in w.values.ravel())
        if abs(got_l1 - want_l1) > 1e-12:
            failures.append("sparsity loss")

    # evaluate vs brute-force recount on mixed synthetic errors
    truth = [look_at(np.array([6.0, i - 2.0, 1.0]), np.zeros(3))
             for i in range(6)]
    specs = [(0.01, 0.1), (0.3, 0.5), (0.04, 3.0), (1.0, 8.0), (6.0, 40.0)]
    results = []
    for pose, (dt, ddeg) in zip(truth, specs):
        axis = np.array([0.3, -0.5, 0.8])
        rd = rotation_from_axis_angle(axis / np.linalg.norm(axis)
                                      * math.radians(ddeg))
        rot = rd @ pose.rotation
        center = pose.center + np.array([dt, 0.0, 0.0])
        est = Pose(rot, -rot @ center)
        results.append(LocalizationResult(
            True, est, num_activated_voxels=1, num_candidate_points=1,
            num_confident_points=1, num_inliers=1, num_decoded_pairs=1))
    results.append(LocalizationResult(False, None))  # one failed query
    rep = evaluate(results, truth)
    errors = [pose_error(r.pose, t) if r.success else None
              for r, t in zip(results, truth)]
    ok_errs = [e for e in errors if e is not None]
    want_med_t = float(np.median(sorted(e[0] for e in ok_errs)))
    want_med_r = float(np.median(sorted(e[1] for e in ok_errs)))
    for (dthr, athr), acc in zip(rep.thresholds, rep.accuracies):
        want = sum(1 for e in errors
                   if e is not None and e[0] <= dthr and e[1] <= athr) \
            / len(errors)
        if abs(acc - want) > 1e-12:
            failures.append("evaluate accuracy recount")
    if abs(rep.median_translation_m - want_med_t) > 1e-12 \
            or abs(rep.median_rotation_deg - want_med_r) > 1e-12:
        failures.append("evaluate medians")
    if rep.failure_count != 1:
        failures.append("evaluate failure count")

    _report(capsys, 7, "oracle equivalence", not failures,
            "voxelize, coverage, retrieval, attention block, three losses, "
            "evaluate all match their oracles"
            if not failures else "mismatches: " + ", ".join(failures))


# ---------------------------------------------------------------------------
# criterion 8: determinism & persistence
# ---------------------------------------------------------------------------

DETERMINISM_CONFIG = """\
world.num_points = 150
world.num_ref_views = 12
world.num_query_views = 2
world.seed = 3

scene.side_length = 4.0
scene.blocks = 2
scene.codes_per_block = 48
scene.code_dim = 16

decoder.block_hidden = 8
decoder.head_hidden = 8

train.epochs_stage1 = 2
train.epochs_stage2 = 1
train.keypoints_per_sample = 32
train.min_points = 5

localize.bypass_retrieval = true
localize.ransac_iters = 50
"""


def test_criterion_8_determinism_and_persistence(capsys, tmp_path):
    cfg = tmp_path / "config.txt"
    cfg.write_text(DETERMINISM_CONFIG)
    checks = []

    def run(suffix):
        ds = tmp_path / f"ds{suffix}.bin"
        scn = tmp_path / f"scene{suffix}.bin"
        wts = tmp_path / f"weights{suffix}.bin"
        csv = tmp_path / f"eval{suffix}.csv"
        assert cli.main(["gen", "--config", str(cfg),
                         "--out", str(ds)]) == 0
        assert cli.main(["train", "--config", str(cfg), "--dataset", str(ds),
                         "--out-scene", str(scn),
                         "--out-weights", str(wts)]) == 0
        assert cli.main(["eval", "--config", str(cfg), "--dataset", str(ds),
                         "--scene", str(scn), "--weights", str(wts),
                         "--out", str(csv)]) == 0
        return {p.name.replace(suffix, ""): p.read_bytes()
                for p in (ds, scn, wts, csv)}

    first, second = run("_a"), run("_b")
    checks.append(("identical-seed runs byte-identical",
                   all(first[k] == second[k] for k in first)))

    scene_bytes = first["scene.bin"]
    weight_bytes = first["weights.bin"]
    checks.append(("scene save/load round-trip",
                   scene_to_bytes(scene_from_bytes(scene_bytes))
                   == scene_bytes))
    checks.append(("weights save/load round-trip",
                   params_to_bytes(params_from_bytes(weight_bytes))
                   == weight_bytes))

    # frozen decoder weights stay byte-identical through adaptation
    params = params_from_bytes(weight_bytes)
    scene = scene_from_bytes(scene_bytes)
    dataset = synthworld.dataset_from_bytes(first["ds.bin"])
    tc = TrainConfig(epochs_stage1=2, epochs_stage2=1,
                     keypoints_per_sample=32, min_points=5, lambda_l1=0.0)
    adapt_scene(scene, dataset, params, tc)
    checks.append(("frozen weights byte-identical through adaptation",
                   params_to_bytes(params) == weight_bytes))

    bad = [name for name, ok in checks if not ok]
    _report(capsys, 8, "determinism & persistence", not bad,
            "; ".join(name for name, _ in checks) if not bad
            else "failed: " + ", ".join(bad))
