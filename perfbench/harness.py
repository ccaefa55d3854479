"""Workloads of the voxloc desk benchmark: map build, set-up, timed loop,
output checks and metrics.

The harness drives the same public steps that `voxloc gen`, `voxloc train`
and `voxloc eval` run, and times modules from outside by wrapping their
functions (see spans.py). It changes nothing in the package.

A map build (world generation, two full training schedules and the standard
20-query evaluation of each map) takes minutes, so it runs once per source
tree and is cached; each benchmark run then times set-up (loading the map
from its byte formats, or building a fresh scene for training) and its
workload's closed loop.
"""

from __future__ import annotations

import dataclasses
import hashlib
import inspect
import json
import math
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from voxloc import (decoder, diffcore, geometry, initialization, pipeline,
                    scene, synthworld, training)

from spans import Tracer


@dataclass(frozen=True)
class Profile:
    """World, model and schedule sizes of one benchmark scale."""
    name: str
    world: dict                   # WorldConfig overrides
    dims: tuple[int, int, int]    # blocks, codes per block, code width
    block_hidden: int
    head_hidden: int
    train: dict                   # TrainConfig overrides of the default map
    localize: dict                # LocalizeOptions overrides
    bench_epochs: tuple[int, int]  # train-desk schedule, both stages
    check_queries: int            # queries every localize run completes
    setups: int                   # set-ups timed per run for setup_s
    side_length: float = 4.0


# The default desk world and model: what `voxloc gen` and `voxloc train`
# produce without a config file.
DESK = Profile("desk", {}, (6, 256, 32), 32, 32, {}, {}, (2, 1), 3, 5)

# The CLI tests' tiny world, for the harness's own smoke test. Its three
# training epochs leave no confident candidate, so every candidate goes to
# RANSAC, which the smoke test must reach.
TINY = Profile("tiny",
               dict(num_points=150, num_ref_views=12, num_query_views=2,
                    seed=3),
               (2, 48, 16), 8, 8,
               dict(epochs_stage1=2, epochs_stage2=1, keypoints_per_sample=32,
                    min_points=5),
               dict(bypass_retrieval=True, ransac_iters=50, confidence_min=0.0),
               (1, 1), 2, 2)

PROFILES = {p.name: p for p in (DESK, TINY)}

# workload -> (kind, map recipe)
WORKLOADS = {
    "localize-desk": ("localize", "acceptance"),
    "localize-default-map": ("localize", "default"),
    "train-desk": ("train", "acceptance"),
}

MAPS = ("acceptance", "default")

# Extra query poses drawn after the dataset's own queries; a run's queries
# are a seed-ordered walk through them with fresh observation noise.
QUERY_POOL = 200


def world_config(profile: Profile, world_seed: int | None,
                 **over) -> synthworld.WorldConfig:
    cfg = dict(profile.world)
    if world_seed is not None:
        cfg["seed"] = world_seed
    cfg.update(over)
    return synthworld.WorldConfig(**cfg)


def train_config(profile: Profile, recipe: str, **over) -> training.TrainConfig:
    """`acceptance` is the acceptance-gate recipe (full-view samples);
    `default` is the TrainConfig defaults that `voxloc train` uses."""
    cfg = dict(profile.train)
    if recipe == "acceptance":
        cfg["keypoints_per_sample"] = 0
    cfg.update(over)
    return training.TrainConfig(**cfg)


def make_map(profile: Profile, dataset, tc: training.TrainConfig):
    """Scene and decoder exactly as `voxloc train` sets them up: voxelize,
    coverage, structured init, code injection."""
    points = list(dataset.points.values())
    rng = np.random.default_rng(np.random.SeedSequence((tc.seed, 300)))
    built = scene.build_scene(points, profile.side_length, profile.dims, rng)
    scene.assign_coverage(built, dataset, min_points=tc.min_points)
    scene.drop_uncovered(built)
    t, _, d = profile.dims
    rng = np.random.default_rng(np.random.SeedSequence((tc.seed, 400)))
    params = initialization.aligned_decoder_init(
        rng, d_raw=dataset.config.descriptor_dim, d=d, num_blocks=t,
        block_hidden=profile.block_hidden, head_hidden=profile.head_hidden,
        config=initialization.InitConfig())
    rng = np.random.default_rng(np.random.SeedSequence((tc.seed, 500)))
    initialization.inject_codes(built, dataset, params, rng,
                                initialization.InitConfig())
    return built, params


# ---------------------------------------------------------------- tracing

def tracer_targets():
    """(owner, attribute, span name) for every traced function, at the
    attribute its callers look up."""
    return [
        (pipeline, "retrieve_views", "pipeline.retrieve_views"),
        (pipeline, "encode_feature", "decoder.encode_feature"),
        (training, "encode_feature", "decoder.encode_feature"),
        (pipeline, "decode", "decoder.decode"),
        (training, "decode", "decoder.decode"),
        (decoder, "cross_attention_block", "decoder.cross_attention_block"),
        (pipeline, "ransac_pnp", "geometry.ransac_pnp"),
        (geometry, "pnp_solve", "geometry.pnp_solve"),
        (training, "sample_epoch", "training.sample_epoch"),
        (training, "_batch_losses", "training.forward"),
        (training, "prune", "scene.prune"),
        (diffcore.Optimizer, "step", "diffcore.Optimizer.step"),
        (scene, "build_scene", "scene.build_scene"),
        (scene, "assign_coverage", "scene.assign_coverage"),
        (initialization, "inject_codes", "initialization.inject_codes"),
        (synthworld, "dataset_from_bytes", "synthworld.dataset_from_bytes"),
        (scene, "scene_to_bytes", "scene.scene_to_bytes"),
        (scene, "scene_from_bytes", "scene.scene_from_bytes"),
        (decoder, "params_to_bytes", "decoder.params_to_bytes"),
        (decoder, "params_from_bytes", "decoder.params_from_bytes"),
    ]


CREATED = "diffcore.dtensor.created"


def install_full(tracer: Tracer) -> None:
    for owner, attr, name in tracer_targets():
        tracer.install(owner, attr, name)

    def count_ops(tape, *_):
        tracer.counts["diffcore.Tape.ops"] += len(tape)

    tracer.install(diffcore.Tape, "backward", "diffcore.Tape.backward",
                   on_call=count_ops)
    tracer.install(diffcore.DTensor, "__init__", CREATED, count_only=True)


def install_clock(tracer: Tracer) -> None:
    """Epoch and step boundaries only: what the untraced train run needs."""
    tracer.install(training, "sample_epoch", "training.sample_epoch")
    tracer.install(training, "_batch_losses", "training.forward")
    tracer.install(diffcore.Optimizer, "step", "diffcore.Optimizer.step")


# ------------------------------------------------------------------ cache

def build_digest(repo: Path, profile: Profile) -> str:
    """Hash of everything a build's outputs depend on: the package sources,
    the profile's build fields and the harness functions that build."""
    h = hashlib.sha256(repr((profile.world, profile.dims, profile.block_hidden,
                             profile.head_hidden, profile.train,
                             profile.localize, profile.side_length)).encode())
    for f in sorted((repo / "src" / "voxloc").glob("*.py")):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    for fn in (world_config, train_config, make_map, build_part):
        h.update(inspect.getsource(fn).encode())
    return h.hexdigest()[:16]


@dataclass
class Cache:
    dir: Path
    profile: Profile
    world_seed: int | None

    def path(self, name: str) -> Path:
        return self.dir / name

    def ready(self) -> bool:
        return self.path("done.json").is_file()

    def read_json(self, name: str) -> dict:
        return json.loads(self.path(name).read_text())

    def write_json(self, name: str, obj) -> None:
        tmp = self.path(name + ".tmp")
        tmp.write_text(json.dumps(obj, indent=1, sort_keys=True))
        os.replace(tmp, self.path(name))


def cache_for(root: Path, repo: Path, profile: Profile,
              world_seed: int | None) -> Cache:
    seed = profile.world.get("seed", 0) if world_seed is None else world_seed
    key = build_digest(repo, profile)
    return Cache(root / f"{profile.name}-w{seed}-{key}", profile, world_seed)


def build_part(cache: Cache, part: str) -> None:
    """One build step: `dataset`, or one of MAPS (trained and evaluated)."""
    profile = cache.profile
    tracer = Tracer()
    if part == "dataset":
        for attr in ("generate_dataset", "triangulate_dlt", "dataset_to_bytes"):
            tracer.install(synthworld, attr, f"synthworld.{attr}")
        try:
            ds = synthworld.generate_dataset(world_config(profile,
                                                          cache.world_seed))
            synthworld.save_dataset(ds, cache.path("dataset.bin"))
        finally:
            tracer.uninstall()
        stats = tracer.stats()
        cache.write_json("dataset.json", {
            "synthworld.generate_dataset.s":
                stats["synthworld.generate_dataset"][1],
            "synthworld.dataset_to_bytes.s":
                stats["synthworld.dataset_to_bytes"][1],
            "synthworld.triangulate_dlt.calls":
                stats["synthworld.triangulate_dlt"][0],
            "synthworld.triangulate_dlt.s":
                per_call(stats, "synthworld.triangulate_dlt"),
        })
        return
    if part not in MAPS:
        raise ValueError(f"unknown build part {part!r}")
    ds = synthworld.load_dataset(cache.path("dataset.bin"))
    tc = train_config(profile, part)
    built, params = make_map(profile, ds, tc)
    start = time.perf_counter()
    log = training.run_training(built, ds, params, tc)
    train_s = time.perf_counter() - start
    scene.save_scene(built, cache.path(f"{part}.scene.bin"))
    decoder.save_params(params, cache.path(f"{part}.weights.bin"))
    log.write_csv(cache.path(f"{part}.train.csv"))
    # evaluate what was written, as `voxloc eval` does after `voxloc train`
    loaded = scene.load_scene(cache.path(f"{part}.scene.bin"))
    weights = decoder.load_params(cache.path(f"{part}.weights.bin"))
    opts = pipeline.LocalizeOptions(**profile.localize)
    start = time.perf_counter()
    report = pipeline.evaluate_scene(loaded, weights, ds, opts)
    eval_s = time.perf_counter() - start
    report.write_csv(cache.path(f"{part}.eval.csv"))
    cache.write_json(f"{part}.json", {
        "acc_0.25m_2deg": report.accuracies[0],
        "median_t_m": report.median_translation_m,
        "median_r_deg": report.median_rotation_deg,
        "eval_failures": report.failure_count,
        "eval_queries": report.num_queries,
        "map_bytes": report.map_size_bytes,
        "train_s": train_s,
        "epochs": len(log.records),
        "eval_s": eval_s,
        "final_loss": log.records[-1].total,
    })


# ------------------------------------------------------------- workloads

@dataclass
class Outcome:
    """What one run measured and checked. `failed` counts operations that
    raised, failed to localize or broke a check; every broken check also
    adds a problem, and a run with a problem is not correct."""
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, float] = field(default_factory=dict)   # end to end
    layer: dict[str, float] = field(default_factory=dict)     # per module
    report: list[tuple[str, object, str]] = field(default_factory=list)
    spans: Tracer | None = None    # the traced loop's spans
    busy: float = 0.0              # seconds inside the timed operations

    def problem(self, text: str) -> None:
        self.problems.append(text)

    def show(self, name: str, value, unit: str) -> None:
        self.report.append((name, value, unit))


def show_tail(out: Outcome, name: str, values: list[float], what: str) -> None:
    """The highest percentile with at least 10 samples beyond it, with the
    percentile and the sample count; n/a below 11 samples."""
    n = len(values)
    if n < 11:
        out.show(name, f"n/a (needs 11 {what}, ran {n})", "s")
    else:
        pct = math.floor(100.0 * (n - 10) / n)
        out.show(name, sorted(values)[n - 11], f"s (p{pct} of {n} {what})")


def room_for_another(start: float, done: int, seconds: float) -> bool:
    """Whether one more operation of the mean length so far still ends
    inside the timed window."""
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(out: Outcome, setup_times: list[float], op_times: list[float],
               map_bytes: int, ev: dict) -> None:
    """The metrics BENCHMARK.json lists under end_to_end, and the report
    lines every workload shares. An op is a query or a training epoch."""
    out.metrics.update({
        "setup_s": statistics.median(setup_times),
        "op_p50_s": statistics.median(op_times),
        "ops_per_s": len(op_times) / sum(op_times),
        "peak_rss_mb": peak_rss_mb(),
        "map_bytes": float(map_bytes),
        "acc_0.25m_2deg": ev["acc_0.25m_2deg"],
        "median_t_m": ev["median_t_m"],
        "median_r_deg": ev["median_r_deg"],
    })
    out.show("setup_s", out.metrics["setup_s"],
             f"s (median of {len(setup_times)})")
    out.show("peak_rss_mb", out.metrics["peak_rss_mb"], "MB")
    out.show("map_bytes", map_bytes, "B (float32)")
    where = f"map's {ev['eval_queries']}-query eval"
    out.show("acc_0.25m_2deg", ev["acc_0.25m_2deg"], f"1 ({where})")
    out.show("median_t_m", ev["median_t_m"], f"m ({where})")
    out.show("median_r_deg", ev["median_r_deg"], f"deg ({where})")


class QueryStream:
    """Fresh query views of the map's world, drawn from the workload seed.

    Poses come after the dataset's own queries in the world generator's
    query sequence, so they are off the reference orbit and never among the
    queries the build evaluated; each draw gets its own observation noise.
    """

    def __init__(self, cache: Cache, seed: int):
        base = world_config(cache.profile, cache.world_seed)
        cfg = dataclasses.replace(
            base, num_query_views=base.num_query_views + QUERY_POOL)
        self.world = synthworld.generate_world(cfg)
        self.poses = self.world.query_poses[base.num_query_views:]
        self.order = np.random.default_rng(seed).permutation(len(self.poses))
        self.seed = seed

    def get(self, i: int):
        pose = self.poses[self.order[i % len(self.poses)]]
        rng = np.random.default_rng(np.random.SeedSequence((self.seed, i)))
        view = synthworld.observe(pose, self.world, self.world.config, rng,
                                  include_pose=False)
        return view, pose


def check_localization(res, query) -> str | None:
    """The LocalizationResult count chain; None when it holds."""
    if not (0 <= res.num_inliers <= res.num_confident_points
            <= res.num_candidate_points):
        return "inliers <= confident <= candidates broken"
    if res.num_candidate_points != res.num_activated_voxels * query.num_keypoints:
        return "candidates != activated voxels x keypoints"
    if res.success != (res.pose is not None):
        return "success flag disagrees with pose"
    if res.success and res.num_inliers < 6:
        return "successful pose with fewer than 6 inliers"
    if not res.success and res.num_inliers != 0:
        return "failed localization reports inliers"
    return None


def localization_bytes(res) -> tuple:
    """A LocalizationResult's counts and pose bytes, for comparing runs."""
    pose = (res.pose.rotation.tobytes() + res.pose.translation.tobytes()
            if res.success else b"")
    return (res.num_activated_voxels, res.num_candidate_points,
            res.num_confident_points, res.num_inliers, pose)


def trace_overhead(tracer: Tracer, op) -> tuple[float, bool]:
    """Run `op` untraced, traced, traced, untraced, so that a steady drift
    in machine speed cancels. `op()` returns (seconds, output). Returns the
    traced minus the untraced mean time, and whether all four outputs are
    identical. Leaves the tracer installed and empty."""
    took = {False: [], True: []}
    outputs = []
    for traced in (False, True, True, False):
        tracer.uninstall()
        if traced:
            install_full(tracer)
        seconds, output = op()
        took[traced].append(seconds)
        outputs.append(output)
    install_full(tracer)
    tracer.clear()
    return (statistics.mean(took[True]) - statistics.mean(took[False]),
            all(o == outputs[0] for o in outputs))


def csv_bytes(write_csv, path: Path) -> bytes:
    write_csv(path)
    data = path.read_bytes()
    path.unlink()
    return data


def sha(*parts: bytes) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(hashlib.sha256(p).digest())
    return h.hexdigest()


def compare_with_other_mode(cache: Cache, workload: str, seed: int,
                            trace: bool, digest: str, out: Outcome) -> str:
    """Store this run's output digest; compare it with the other trace mode
    of the same seed when that run has been made in this build."""
    checks = cache.path("checks")
    checks.mkdir(exist_ok=True)
    name = f"{workload}-seed{seed}.json"
    path = checks / name
    known = json.loads(path.read_text()) if path.is_file() else {}
    mine, other = ("trace1", "trace0") if trace else ("trace0", "trace1")
    known[mine] = digest
    tmp = checks / (name + ".tmp")
    tmp.write_text(json.dumps(known, sort_keys=True))
    os.replace(tmp, path)
    if other not in known:
        return "other trace mode not run yet"
    if known[other] != digest:
        out.failed += 1
        out.problem(f"outputs differ from the {other} run of seed {seed}")
        return "MISMATCH"
    return "identical"


def run_localize(cache: Cache, workload: str, recipe: str, seed: int,
                 seconds: float, trace: bool) -> Outcome:
    profile = cache.profile
    out = Outcome()
    tracer = Tracer()
    files = (cache.path("dataset.bin"), cache.path(f"{recipe}.scene.bin"),
             cache.path(f"{recipe}.weights.bin"))

    def setup():
        start = time.perf_counter()
        ds = synthworld.load_dataset(files[0])
        loaded = scene.load_scene(files[1])
        params = decoder.load_params(files[2])
        return ds, loaded, params, time.perf_counter() - start

    if trace:
        install_full(tracer)
    setup_times = []
    for _ in range(1 if trace else profile.setups):
        ds = loaded = params = None   # free the last set-up first
        ds, loaded, params, dt = setup()
        setup_times.append(dt)
    scene_bytes = scene.scene_to_bytes(loaded)
    weight_bytes = decoder.params_to_bytes(params)
    if scene_bytes != files[1].read_bytes():
        out.problem("scene bytes changed in a load/save round trip")
    if weight_bytes != files[2].read_bytes():
        out.problem("weight bytes changed in a load/save round trip")
    setup_stats = tracer.stats()

    stream = QueryStream(cache, seed)
    opts = pipeline.LocalizeOptions(**profile.localize)

    overhead = None
    if trace:
        view, _ = stream.get(0)

        def one_query():
            start = time.perf_counter()
            res = pipeline.localize(view, loaded, params, ds, opts)
            return time.perf_counter() - start, localization_bytes(res)

        overhead, same = trace_overhead(tracer, one_query)
        if not same:
            out.failed += 1
            out.problem("traced localization differs from untraced")

    latencies, results, truths = [], [], []
    loop_start = time.perf_counter()
    i = 0
    while i < profile.check_queries or room_for_another(loop_start, i, seconds):
        view, truth = stream.get(i)
        tracer.op = i
        out.attempted += 1
        start = time.perf_counter()
        try:
            res = pipeline.localize(view, loaded, params, ds, opts)
        except Exception as err:   # a raised query is a failed operation
            out.failed += 1
            out.problem(f"query {i} raised {type(err).__name__}: {err}")
            i += 1
            continue
        latencies.append(time.perf_counter() - start)
        bad = check_localization(res, view)
        if bad:
            out.problem(f"query {i}: {bad}")
        if bad or not res.success:
            out.failed += 1
        results.append(res)
        truths.append(truth)
        i += 1
    tracer.uninstall()
    if not latencies:
        raise RuntimeError("no query completed: " + "; ".join(out.problems))

    map_bytes = scene.size_bytes(loaded, 4)
    check = pipeline.evaluate(results[:profile.check_queries],
                              truths[:profile.check_queries],
                              map_size=map_bytes)
    eval_csv = csv_bytes(check.write_csv,
                         cache.path(f"check-{os.getpid()}.csv"))
    status = compare_with_other_mode(
        cache, workload, seed, trace, sha(eval_csv, scene_bytes, weight_bytes),
        out)
    run_eval = pipeline.evaluate(results, truths, map_size=map_bytes)

    n = len(latencies)
    busy = sum(latencies)
    ev = cache.read_json(f"{recipe}.json")
    end_to_end(out, setup_times, latencies, map_bytes, ev)
    out.show("failed_frac", out.failed / out.attempted,
             f"1 (of {out.attempted} queries)")
    out.show("query_p50_s", out.metrics["op_p50_s"], f"s (median of {n})")
    show_tail(out, "query_tail_s", latencies, "queries")
    out.show("queries_per_s", out.metrics["ops_per_s"], "1/s (one client)")
    out.show("train_epoch_s", ev["train_s"] / ev["epochs"],
             f"s (map build, mean of {ev['epochs']})")
    out.show("train_step_tail_s", "n/a (no training in this workload)", "s")
    out.show("train_final_loss", ev["final_loss"], "1 (map build)")
    out.show("run acc_0.25m_2deg", run_eval.accuracies[0],
             f"1 (this run's {n} queries)")
    out.show("run median_t_m", run_eval.median_translation_m, "m")
    out.show("output check", status, "traced vs untraced")

    if trace:
        confident = sum(r.num_confident_points for r in results)
        out.layer = module_metrics(tracer, setup_stats, busy=busy, queries=n,
                                   steps=0, epochs=0,
                                   created=tracer.counts[CREATED])
        out.layer.update({
            "pipeline.activated_voxels":
                sum(r.num_activated_voxels for r in results) / n,
            "pipeline.confident_per_query": confident / n,
            "pipeline.inlier_ratio":
                sum(r.num_inliers for r in results) / max(confident, 1),
        })
        finish_layer(out, cache, loaded, scene_bytes, weight_bytes, overhead)
        out.spans = tracer
        out.busy = busy
    return out


def retained_codes(sc) -> float:
    return float(sum(v.codes.retained_count(t) for v in sc.voxels.values()
                     for t in range(sc.dims[0])))


def run_train(cache: Cache, workload: str, seed: int, seconds: float,
              trace: bool) -> Outcome:
    profile = cache.profile
    out = Outcome()
    tracer = Tracer()
    e1, e2 = profile.bench_epochs
    tc = train_config(profile, "acceptance", seed=seed, epochs_stage1=e1,
                      epochs_stage2=e2)

    def setup():
        start = time.perf_counter()
        ds = synthworld.load_dataset(cache.path("dataset.bin"))
        built, params = make_map(profile, ds, tc)
        return ds, built, params, time.perf_counter() - start

    setup_times = []
    overhead = None
    setup_stats = {}
    if trace:
        install_full(tracer)
        setup()
        setup_stats = tracer.stats()
        short = dataclasses.replace(tc, epochs_stage1=1, epochs_stage2=0)

        def one_epoch():
            ds, built, params, _ = setup()
            start = time.perf_counter()
            training.run_training(built, ds, params, short)
            return (time.perf_counter() - start,
                    scene.scene_to_bytes(built)
                    + decoder.params_to_bytes(params))

        overhead, same = trace_overhead(tracer, one_epoch)
        if not same:
            out.failed += 1
            out.problem("traced training differs from untraced")
    else:
        install_clock(tracer)
        for _ in range(profile.setups - 1):
            *_, dt = setup()
            setup_times.append(dt)

    epoch_times, step_times = [], []
    created = 0
    first = None
    busy_start = time.perf_counter()
    rep = 0
    while rep == 0 or room_for_another(busy_start, rep, seconds):
        tracer.op = rep
        ds = built = params = None
        ds, built, params, dt = setup()
        setup_times.append(dt)
        out.attempted += e1 + e2
        before = tracer.counts[CREATED]
        start = time.perf_counter()
        try:
            log = training.run_training(built, ds, params, tc)
        except Exception as err:   # a raised schedule fails all its epochs
            out.failed += e1 + e2
            out.problem(f"repetition {rep} raised {type(err).__name__}: {err}")
            rep += 1
            continue
        end = time.perf_counter()
        created += tracer.counts[CREATED] - before
        epochs = epoch_spans(tracer, rep, end)
        epoch_times += epochs
        step_times += step_spans(tracer, rep, end)
        scene_bytes = scene.scene_to_bytes(built)
        weight_bytes = decoder.params_to_bytes(params)
        bad = check_training(log, built, scene_bytes, weight_bytes, e1 + e2,
                             len(epochs))
        if first is None:
            log_csv = csv_bytes(log.write_csv,
                                cache.path(f"check-{os.getpid()}.csv"))
            first = (scene_bytes, weight_bytes, log_csv)
            first_built = built
            final_loss = log.records[-1].total
        elif (scene_bytes, weight_bytes) != first[:2]:
            bad = bad or "repeated schedule gave different bytes"
        if bad:
            out.failed += e1 + e2
            out.problem(f"repetition {rep}: {bad}")
        rep += 1
    tracer.uninstall()
    if first is None:
        raise RuntimeError("no schedule completed: " + "; ".join(out.problems))
    status = compare_with_other_mode(cache, workload, seed, trace,
                                     sha(*first), out)

    n = len(epoch_times)
    busy = sum(epoch_times)
    end_to_end(out, setup_times, epoch_times,
               scene.size_bytes(first_built, 4),
               cache.read_json("acceptance.json"))
    out.show("failed_frac", out.failed / out.attempted,
             f"1 (of {out.attempted} epochs, {rep} x {e1}+{e2}-epoch schedule)")
    for name in ("query_p50_s", "query_tail_s", "queries_per_s"):
        out.show(name, "n/a (no queries in this workload)", "s")
    out.show("train_epoch_s", out.metrics["op_p50_s"], f"s (median of {n})")
    show_tail(out, "train_step_tail_s", step_times, "steps")
    out.show("train_final_loss", final_loss, "1")
    out.show("output check", status, "traced vs untraced")

    if trace:
        out.layer = module_metrics(tracer, setup_stats, busy=busy, queries=0,
                                   steps=len(step_times), epochs=n,
                                   created=created)
        out.layer.update({"pipeline.activated_voxels": 0.0,
                          "pipeline.confident_per_query": 0.0,
                          "pipeline.inlier_ratio": 0.0})
        finish_layer(out, cache, first_built, first[0], first[1], overhead)
        out.spans = tracer
        out.busy = busy
    return out


def epoch_spans(tracer: Tracer, rep: int, end: float) -> list[float]:
    """Epoch k lasts from its sampling to the next epoch's sampling (the
    last one to the end of run_training)."""
    starts = [s.start for s in tracer.named("training.sample_epoch")
              if s.op == rep]
    bounds = starts + [end]
    return [b - a for a, b in zip(bounds, bounds[1:])]


def step_spans(tracer: Tracer, rep: int, end: float) -> list[float]:
    """A step lasts from its forward pass to its last optimizer step."""
    fwd = [s for s in tracer.named("training.forward") if s.op == rep]
    opt = [s for s in tracer.named("diffcore.Optimizer.step") if s.op == rep]
    out = []
    for j, f in enumerate(fwd):
        nxt = fwd[j + 1].start if j + 1 < len(fwd) else end
        ends = [o.end for o in opt if f.end <= o.start < nxt]
        if ends:
            out.append(max(ends) - f.start)
    return out


def check_training(log, built, scene_bytes: bytes, weight_bytes: bytes,
                   epochs: int, timed_epochs: int) -> str | None:
    if len(log.records) != epochs or timed_epochs != epochs:
        return f"expected {epochs} epochs, log has {len(log.records)}"
    if not all(math.isfinite(r.total) for r in log.records):
        return "non-finite loss"
    total = len(built.voxels) * built.dims[0] * built.dims[1]
    if not 0 < log.records[-1].retained_codes <= total:
        return "retained codes out of range"
    again = scene.scene_to_bytes(scene.scene_from_bytes(scene_bytes))
    if again != scene_bytes:
        return "scene bytes changed in a load/save round trip"
    again = decoder.params_to_bytes(decoder.params_from_bytes(weight_bytes))
    if again != weight_bytes:
        return "weight bytes changed in a load/save round trip"
    return None


# ------------------------------------------------------- per-module metrics

def per_call(stats: dict, name: str) -> float:
    calls, total = stats.get(name, (0, 0.0))
    return total / calls if calls else 0.0


# seconds per call in the timed loop
LOOP_CALLS = ("decoder.encode_feature", "decoder.decode",
              "decoder.cross_attention_block", "geometry.pnp_solve",
              "diffcore.Tape.backward", "diffcore.Optimizer.step",
              "training.sample_epoch", "training.forward",
              "pipeline.retrieve_views", "scene.prune")
# seconds per call over set-up and the loop
SETUP_CALLS = ("scene.build_scene", "scene.assign_coverage",
               "initialization.inject_codes", "synthworld.dataset_from_bytes",
               "scene.scene_from_bytes", "scene.scene_to_bytes",
               "decoder.params_from_bytes", "decoder.params_to_bytes")
# percentage of the loop's busy time inside the function, children included
SHARES = ("geometry.ransac_pnp", "decoder.decode", "diffcore.Tape.backward")


def module_metrics(tracer: Tracer, setup_stats: dict, *, busy: float,
                   queries: int, steps: int, epochs: int,
                   created: int) -> dict[str, float]:
    """Per-module metrics of the traced loop. Counts are per query on the
    localize workloads and per training step on train-desk."""
    loop = tracer.stats()
    both = {name: [a + b for a, b in zip(loop.get(name, (0, 0.0)),
                                         setup_stats.get(name, (0, 0.0)))]
            for name in set(loop) | set(setup_stats)}
    ops = queries or steps
    ransac_s = loop.get("geometry.ransac_pnp", (0, 0.0))[1]
    pnp_calls = loop.get("geometry.pnp_solve", (0, 0.0))[0]
    out = {f"{name}.s": per_call(loop, name) for name in LOOP_CALLS}
    out.update({f"{name}.s": per_call(both, name) for name in SETUP_CALLS})
    out.update({f"{name}.share": 100.0 * loop.get(name, (0, 0.0))[1] / busy
                for name in SHARES})
    out.update({
        "geometry.ransac_pnp.s": ransac_s / queries if queries else 0.0,
        "geometry.pnp_solve.calls": pnp_calls / queries if queries else 0.0,
        "geometry.pnp_solve.failed":
            tracer.raised["geometry.pnp_solve"] / pnp_calls
            if pnp_calls else 0.0,
        "decoder.decode.calls": loop.get("decoder.decode", (0, 0.0))[0] / ops,
        CREATED: created / ops,
        "diffcore.Tape.ops":
            tracer.counts["diffcore.Tape.ops"] / steps if steps else 0.0,
        "training.steps": steps / epochs if epochs else 0.0,
    })
    return out


def finish_layer(out: Outcome, cache: Cache, sc, scene_bytes: bytes,
                 weight_bytes: bytes, overhead: float) -> None:
    """The per-module metrics every workload shares: map and file sizes,
    the build's dataset generation, and the tracing overhead."""
    out.layer.update(cache.read_json("dataset.json"))
    out.layer.update({
        "scene.retained_codes": retained_codes(sc),
        "synthworld.dataset_bytes":
            float(cache.path("dataset.bin").stat().st_size),
        "scene.scene_bytes": float(len(scene_bytes)),
        "decoder.params_bytes": float(len(weight_bytes)),
        "trace.overhead_s": overhead,
    })


def span_table(tracer: Tracer, busy: float) -> list[str]:
    """Per span name: calls, total, self, per call, share of busy time."""
    selfs = tracer.self_times()
    lines = [f"{'span':34s} {'calls':>8s} {'total_s':>10s} {'self_s':>10s} "
             f"{'per_call_s':>11s} {'share%':>7s}"]
    rows = sorted(tracer.stats().items(), key=lambda kv: -kv[1][1])
    for name, (n, total) in rows:
        lines.append(f"{name:34s} {n:8d} {total:10.4f} {selfs[name]:10.4f} "
                     f"{total / n:11.6f} {100.0 * total / busy:7.2f}")
    return lines


def environment() -> dict:
    """The floating-point environment the numbers were measured in."""
    blas = "unknown"
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{deps.get('name')} {deps.get('version')}"
    except (TypeError, KeyError, AttributeError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_workload(cache: Cache, workload: str, seed: int, seconds: float,
                 trace: bool) -> Outcome:
    kind, recipe = WORKLOADS[workload]
    if kind == "localize":
        return run_localize(cache, workload, recipe, seed, seconds, trace)
    return run_train(cache, workload, seed, seconds, trace)
