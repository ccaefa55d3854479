"""Command-line front end.

Subcommands: gen, train, prune, finetune, adapt, localize, eval, inspect,
heatmap. Configuration is a flat key=value text file; every key is listed
in CONFIG_KEYS below (and in the README), unknown keys are errors.

Exit codes: 0 success, 1 usage error, 2 data/validation error,
3 numeric abort.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

from . import (decoder, initialization, pipeline, scene as scene_mod,
               synthworld, training)
from .containers import bound, check_bounds
from .diffcore import NumericError
from .scene import MAX_CODE_DIM, VoxelId
from .synthworld import seeded_rng


@dataclasses.dataclass
class SceneConfig:
    side_length: float = bound(4.0, 0, strict=True)
    blocks: int = bound(6, 1)
    codes_per_block: int = bound(256, 1)
    code_dim: int = bound(32, initialization.COORD_DIMS + 1, MAX_CODE_DIM)

    def __post_init__(self):
        check_bounds(self, "scene")


@dataclasses.dataclass
class DecoderConfig(initialization.InitConfig):
    # InitConfig's three scales set up structured init (initialization.py)
    block_hidden: int = bound(32, 1)
    head_hidden: int = bound(32, 1)

    def __post_init__(self):
        check_bounds(self, "decoder")


_SECTIONS = {
    "world": synthworld.WorldConfig,
    "train": training.TrainConfig,
    "scene": SceneConfig,
    "decoder": DecoderConfig,
    "localize": pipeline.LocalizeOptions,
}

CONFIG_KEYS = sorted(
    f"{section}.{f.name}"
    for section, cls in _SECTIONS.items()
    for f in dataclasses.fields(cls)
)


class ConfigError(ValueError):
    pass


_BOOLS = {"true": True, "1": True, "yes": True,
          "false": False, "0": False, "no": False}


def _triple(raw: str) -> tuple[float, float, float]:
    parts = raw.split(",")
    if len(parts) != 3:
        raise ValueError(f"expected 3 values, got {len(parts)}")
    return tuple(float(x) for x in parts)


# keyed by the annotation string: the config modules use postponed
# annotations (`from __future__ import annotations`)
_PARSERS = {
    "bool": lambda raw: _BOOLS[raw.lower()],
    "int": int,
    "float": float,
    "tuple[float, float, float]": _triple,
}


def _coerce(raw: str, typ: str, key: str):
    try:
        return _PARSERS[typ](raw)
    except (KeyError, ValueError) as err:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {typ}") from err


def load_config(path: str | None) -> dict[str, object]:
    """Parse a flat key=value file into one config object per section."""
    overrides: dict[str, dict[str, object]] = {s: {} for s in _SECTIONS}
    if path is not None:
        with open(path) as f:
            for lineno, line in enumerate(f, 1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value")
                key, _, raw = line.partition("=")
                key = key.strip()
                raw = raw.strip()
                if "." not in key:
                    raise ConfigError(f"{path}:{lineno}: key {key!r} must be "
                                      "section.field (see CONFIG_KEYS)")
                section, _, name = key.partition(".")
                cls = _SECTIONS.get(section)
                if cls is None:
                    raise ConfigError(f"{path}:{lineno}: unknown section "
                                      f"{section!r}")
                fields = {f.name: f for f in dataclasses.fields(cls)}
                if name not in fields:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                overrides[section][name] = _coerce(raw, fields[name].type, key)
    return {s: cls(**overrides[s]) for s, cls in _SECTIONS.items()}


def _new_map(dataset, cfg, params=None):
    """A covered scene for the dataset with codes injected through params,
    or through new aligned decoder weights sized for its descriptors."""
    sc, dc_, tc = cfg["scene"], cfg["decoder"], cfg["train"]
    dims = dict(d_raw=dataset.config.descriptor_dim, d=sc.code_dim,
                num_blocks=sc.blocks, block_hidden=dc_.block_hidden,
                head_hidden=dc_.head_hidden)
    for key, need in (("d_raw", "the descriptor width"),
                      ("d", "scene.code_dim"), ("num_blocks", "scene.blocks")):
        if params is not None and getattr(params, key) != dims[key]:
            raise ConfigError(f"weights have {key} = {getattr(params, key)}, "
                              f"but {need} is {dims[key]}")
    dataset.view_means  # refuses a non-finite reference descriptor
    built = scene_mod.build_scene(
        list(dataset.points.values()), sc.side_length,
        (sc.blocks, sc.codes_per_block, sc.code_dim), seeded_rng(tc.seed, 300))
    scene_mod.assign_coverage(built, dataset, min_points=tc.min_points)
    scene_mod.drop_uncovered(built)
    if params is None:
        params = initialization.aligned_decoder_init(
            seeded_rng(tc.seed, 400), **dims, config=dc_)
    initialization.inject_codes(built, dataset, params,
                                seeded_rng(tc.seed, 500), dc_)
    return built, params


def _load_map(args):
    """The dataset, scene and weights the arguments name, read in order."""
    return (synthworld.load_dataset(args.dataset),
            scene_mod.load_scene(args.scene),
            decoder.load_params(args.weights))


def _final_losses(log) -> str:
    """The last epoch's losses L_x and L_c, as the --log columns name them."""
    last = log.records[-1]
    return f"final L_x {last.l_coord:.4f}, L_c {last.l_conf:.4f}"


def cmd_gen(args):
    cfg = load_config(args.config)
    ds = synthworld.generate_dataset(cfg["world"])
    synthworld.save_dataset(ds, args.out)
    if args.manifest:
        synthworld.write_manifest(ds, args.manifest)
    valid = sum(1 for p in ds.points.values() if p.valid)
    print(f"wrote {args.out}: {len(ds.views)} reference views, "
          f"{len(ds.query_views)} query views, {valid} valid points")
    return 0


def cmd_train(args):
    cfg = load_config(args.config)
    if cfg["train"].epochs_stage1 == cfg["train"].epochs_stage2 == 0:
        raise ConfigError("train.epochs_stage1 and train.epochs_stage2 are 0: "
                          "train would run no epochs")
    ds = synthworld.load_dataset(args.dataset)
    built, params = _new_map(ds, cfg)
    log = training.run_training(built, ds, params, cfg["train"])
    scene_mod.save_scene(built, args.out_scene)
    decoder.save_params(params, args.out_weights)
    if args.log:
        log.write_csv(args.log)
    last = log.records[-1]
    print(f"trained {len(built.voxels)} voxels for {len(log.records)} epochs; "
          f"{_final_losses(log)}, retained codes {last.retained_codes}")
    return 0


def cmd_prune(args):
    loaded = scene_mod.load_scene(args.scene)
    report = scene_mod.prune(loaded, args.threshold)
    scene_mod.save_scene(loaded, args.out_scene)
    if args.report:
        report.write_csv(args.report)
    print(f"pruned at threshold {args.threshold}: retained "
          f"{report.total_retained}/{report.total_codes} codes, "
          f"{report.bytes_before} -> {report.bytes_after} bytes")
    return 0


def cmd_finetune(args):
    cfg = load_config(args.config)
    if cfg["train"].epochs_stage2 == 0:
        raise ConfigError("train.epochs_stage2 is 0: finetune would run no "
                          "epochs")
    ds, loaded, params = _load_map(args)
    tc = dataclasses.replace(cfg["train"], epochs_stage1=0, prune_threshold=0.0)
    log = training.run_training(loaded, ds, params, tc)
    scene_mod.save_scene(loaded, args.out_scene)
    decoder.save_params(params, args.out_weights)
    if args.log:
        log.write_csv(args.log)
    print(f"fine-tuned for {tc.epochs_stage2} epochs; {_final_losses(log)}")
    return 0


def cmd_adapt(args):
    cfg = load_config(args.config)
    if cfg["train"].epochs_stage1 == 0:
        raise ConfigError("train.epochs_stage1 is 0: adapt would run no "
                          "epochs")
    ds = synthworld.load_dataset(args.dataset)
    built, params = _new_map(ds, cfg, decoder.load_params(args.weights))
    log = training.adapt_scene(built, ds, params, cfg["train"])
    scene_mod.save_scene(built, args.out_scene)
    if args.log:
        log.write_csv(args.log)
    print(f"adapted {len(built.voxels)} voxels over {len(log.records)} epochs; "
          f"{_final_losses(log)}")
    return 0


def cmd_localize(args):
    cfg = load_config(args.config)
    ds, loaded, params = _load_map(args)
    if not 0 <= args.query < len(ds.query_views):
        raise ValueError(f"query index {args.query} out of range "
                         f"[0, {len(ds.query_views)})")
    res = pipeline.localize(ds.query_views[args.query], loaded, params, ds,
                            cfg["localize"])
    if not res.success:
        print(f"query {args.query}: localization failed "
              f"({res.num_confident_points} confident candidates of "
              f"{res.num_decoded_pairs} decoded pairs)")
        return 0
    c = res.pose.center
    print(f"query {args.query}: center=({c[0]:.4f}, {c[1]:.4f}, {c[2]:.4f}) m, "
          f"{res.num_inliers}/{res.num_confident_points} inliers, "
          f"{res.num_confident_points}/{res.num_decoded_pairs} confident, "
          f"{res.num_activated_voxels} voxels, {res.wall_time_s * 1e3:.1f} ms")
    return 0


def cmd_eval(args):
    cfg = load_config(args.config)
    ds, loaded, params = _load_map(args)
    report = pipeline.evaluate_scene(loaded, params, ds, cfg["localize"])
    if args.out:
        report.write_csv(args.out)
    print(report.summary())
    return 0


def cmd_inspect(args):
    loaded = scene_mod.load_scene(args.scene)
    t, n, d = loaded.dims
    print(f"scene: {len(loaded.voxels)} voxels, side length "
          f"{loaded.side_length} m, codes {t}x{n}x{d}")
    print(f"map size (float32): {scene_mod.size_bytes(loaded, 4)} bytes")
    for v in loaded.sorted_voxels():
        retained = sum(v.codes.retained_count(bt) for bt in range(t))
        print(f"  voxel ({v.id.ix},{v.id.iy},{v.id.iz}): "
              f"{len(v.members)} members, {len(v.covering_views)} covering "
              f"views, {retained}/{t * n} codes retained")
    return 0


def cmd_heatmap(args):
    ds, loaded, params = _load_map(args)
    ds.view_means  # refuses a non-finite reference descriptor
    try:
        ix, iy, iz = (int(x) for x in args.voxel.split(","))
    except ValueError as err:
        raise ValueError(f"voxel must be ix,iy,iz, got {args.voxel!r}") from err
    vid = VoxelId(ix, iy, iz)
    if vid not in loaded.voxels:
        raise ValueError(f"voxel {args.voxel} not in scene")
    if not 0 <= args.view < len(ds.views):
        raise ValueError(f"view index {args.view} out of range "
                         f"[0, {len(ds.views)})")
    pipeline.export_heatmap(ds.views[args.view], loaded, params, vid,
                            args.block, args.code, args.csv)
    print(f"wrote {args.csv}")
    return 0


def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="voxloc", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, *names):
        if "config" in names:
            sp.add_argument("--config", default=None,
                            help="flat key=value config file")
        for name in ("dataset", "scene", "weights"):
            if name in names:
                sp.add_argument(f"--{name}", required=True)

    sp = sub.add_parser("gen", help="generate a synthetic world/dataset")
    common(sp, "config")
    sp.add_argument("--out", required=True)
    sp.add_argument("--manifest", default=None)
    sp.set_defaults(func=cmd_gen)

    sp = sub.add_parser("train", help="two-stage training on a dataset")
    common(sp, "config", "dataset")
    sp.add_argument("--out-scene", required=True)
    sp.add_argument("--out-weights", required=True)
    sp.add_argument("--log", default=None)
    sp.set_defaults(func=cmd_train)

    sp = sub.add_parser("prune", help="prune low-scale codes from a scene")
    common(sp, "scene")
    sp.add_argument("--threshold", type=float, required=True)
    sp.add_argument("--out-scene", required=True)
    sp.add_argument("--report", default=None, help="prune report CSV")
    sp.set_defaults(func=cmd_prune)

    sp = sub.add_parser("finetune", help="stage-2 fine-tuning only")
    common(sp, "config", "dataset", "scene", "weights")
    sp.add_argument("--out-scene", required=True)
    sp.add_argument("--out-weights", required=True)
    sp.add_argument("--log", default=None)
    sp.set_defaults(func=cmd_finetune)

    sp = sub.add_parser("adapt", help="codes-only adaptation to a new dataset")
    common(sp, "config", "dataset", "weights")
    sp.add_argument("--out-scene", required=True)
    sp.add_argument("--log", default=None)
    sp.set_defaults(func=cmd_adapt)

    sp = sub.add_parser("localize", help="localize one query view")
    common(sp, "config", "dataset", "scene", "weights")
    sp.add_argument("--query", type=int, required=True)
    sp.set_defaults(func=cmd_localize)

    sp = sub.add_parser("eval", help="localize all queries and report metrics")
    common(sp, "config", "dataset", "scene", "weights")
    sp.add_argument("--out", default=None, help="report CSV path")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("inspect", help="print scene stats and size")
    common(sp, "scene")
    sp.set_defaults(func=cmd_inspect)

    sp = sub.add_parser("heatmap", help="export attention scores for one code")
    common(sp, "dataset", "scene", "weights")
    sp.add_argument("--view", type=int, required=True)
    sp.add_argument("--voxel", required=True, help="ix,iy,iz")
    sp.add_argument("--block", type=int, required=True)
    sp.add_argument("--code", type=int, required=True)
    sp.add_argument("--csv", required=True)
    sp.set_defaults(func=cmd_heatmap)
    return p


def main(argv=None) -> int:
    parser = _parser()
    # argparse reads a value that starts with '-' and is not a plain number,
    # such as the voxel id -1,0,0, as a flag: join it to its option first
    argv = list(sys.argv[1:] if argv is None else argv)
    for i in reversed(range(len(argv) - 1)):
        if argv[i] == "--voxel":
            argv[i:i + 2] = [f"--voxel={argv[i + 1]}"]
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 0 if err.code == 0 else 1
    try:
        return args.func(args)
    except NumericError as err:
        print(f"numeric abort: {err}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
