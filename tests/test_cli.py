"""End-to-end coverage of every CLI subcommand on a tiny world."""

import csv
import dataclasses
import json
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scene_files import PRUNED, raw_scene
from voxloc import cli
from voxloc.containers import FormatError
from voxloc.decoder import (DecoderParams, load_params, params_from_bytes,
                            save_params)
from voxloc.scene import (load_scene, save_scene, scene_from_bytes,
                          scene_to_bytes)
from voxloc.pipeline import LocalizeOptions
from voxloc.synthworld import (WorldConfig, dataset_from_bytes, load_dataset,
                               save_dataset)
from voxloc.training import TrainConfig

TINY_CONFIG = """\
# tiny world for fast tests
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


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    d = tmp_path_factory.mktemp("cli")
    cfg = d / "config.txt"
    cfg.write_text(TINY_CONFIG)
    assert cli.main(["gen", "--config", str(cfg),
                     "--out", str(d / "ds.bin"),
                     "--manifest", str(d / "manifest.json")]) == 0
    assert cli.main(["train", "--config", str(cfg),
                     "--dataset", str(d / "ds.bin"),
                     "--out-scene", str(d / "scene.bin"),
                     "--out-weights", str(d / "weights.bin"),
                     "--log", str(d / "log.csv")]) == 0
    return d, cfg


class TestHappyPaths:
    def test_gen_outputs(self, workdir):
        d, _ = workdir
        assert (d / "ds.bin").stat().st_size > 0
        manifest = json.loads((d / "manifest.json").read_text())
        assert manifest["num_reference_views"] == 12

    def test_train_outputs(self, workdir):
        d, _ = workdir
        scene = load_scene(d / "scene.bin")
        assert scene.dims == (2, 48, 16)
        log = (d / "log.csv").read_text().strip().splitlines()
        assert len(log) == 4  # header + 3 epochs

    def test_train_sizes_the_decoder_from_the_dataset(self, tmp_path):
        # the dataset has 32-wide descriptors; the train config keeps the
        # default world.descriptor_dim of 64
        gen_cfg = tiny_config_with(tmp_path, "world.descriptor_dim = 32\n")
        assert cli.main(["gen", "--config", gen_cfg,
                         "--out", str(tmp_path / "ds.bin")]) == 0
        train_cfg = tmp_path / "train.txt"
        train_cfg.write_text(TINY_CONFIG)
        assert cli.main(["train", "--config", str(train_cfg),
                         "--dataset", str(tmp_path / "ds.bin"),
                         "--out-scene", str(tmp_path / "s.bin"),
                         "--out-weights", str(tmp_path / "w.bin")]) == 0
        assert load_params(tmp_path / "w.bin").d_raw == 32

    def test_inspect(self, workdir, capsys):
        d, _ = workdir
        assert cli.main(["inspect", "--scene", str(d / "scene.bin")]) == 0
        out = capsys.readouterr().out
        assert "voxels" in out and "bytes" in out

    def test_prune(self, workdir, capsys):
        d, _ = workdir
        assert cli.main(["prune", "--scene", str(d / "scene.bin"),
                         "--threshold", "0.5",
                         "--out-scene", str(d / "pruned.bin"),
                         "--report", str(d / "prune.csv")]) == 0
        out = capsys.readouterr().out
        assert "retained" in out
        assert (d / "prune.csv").read_text().startswith("voxel_id,block")

    def test_finetune(self, workdir):
        d, cfg = workdir
        assert cli.main(["finetune", "--config", str(cfg),
                         "--dataset", str(d / "ds.bin"),
                         "--scene", str(d / "scene.bin"),
                         "--weights", str(d / "weights.bin"),
                         "--out-scene", str(d / "ft_scene.bin"),
                         "--out-weights", str(d / "ft_weights.bin")]) == 0
        assert (d / "ft_weights.bin").stat().st_size > 0

    def test_finetune_keeps_zero_scales_zero(self, workdir, tmp_path):
        d, cfg = workdir
        scene = load_scene(d / "scene.bin")
        for v in scene.voxels.values():
            for w in v.codes.scales:
                w.values[::2] = 0.0
        save_scene(scene, tmp_path / "zeroed.bin")
        assert cli.main(["finetune", "--config", str(cfg),
                         "--dataset", str(d / "ds.bin"),
                         "--scene", str(tmp_path / "zeroed.bin"),
                         "--weights", str(d / "weights.bin"),
                         "--out-scene", str(tmp_path / "ft.bin"),
                         "--out-weights", str(tmp_path / "ft_w.bin")]) == 0
        tuned = load_scene(tmp_path / "ft.bin")
        for vid, v in scene.voxels.items():
            for w, w_ft in zip(v.codes.scales, tuned.voxels[vid].codes.scales):
                assert w_ft.values[::2].tobytes() == w.values[::2].tobytes()

    def test_adapt(self, workdir):
        d, cfg = workdir
        assert cli.main(["adapt", "--config", str(cfg),
                         "--dataset", str(d / "ds.bin"),
                         "--weights", str(d / "weights.bin"),
                         "--out-scene", str(d / "adapted.bin")]) == 0
        assert (d / "adapted.bin").stat().st_size > 0

    @pytest.mark.parametrize("command", ["train", "finetune", "adapt"])
    def test_final_losses_are_the_logs_last_row(self, workdir, tmp_path,
                                                capsys, command):
        # a stage-1 total is mostly the L1 scale penalty, which cannot tell
        # a working fit from a broken one
        d, cfg = workdir
        inputs = {"train": [], "adapt": ["--weights", str(d / "weights.bin")],
                  "finetune": ["--scene", str(d / "scene.bin"),
                               "--weights", str(d / "weights.bin")]}[command]
        outputs = ["--out-scene", str(tmp_path / "s.bin"),
                   "--log", str(tmp_path / "log.csv")]
        if command != "adapt":
            outputs += ["--out-weights", str(tmp_path / "w.bin")]
        assert cli.main([command, "--config", str(cfg),
                         "--dataset", str(d / "ds.bin")]
                        + inputs + outputs) == 0
        with open(tmp_path / "log.csv", newline="") as f:
            last = list(csv.DictReader(f))[-1]
        printed = re.search(r"; final L_x (\S+), L_c ([^,\s]+)",
                            capsys.readouterr().out)
        assert printed.groups() == (f"{float(last['L_x']):.4f}",
                                    f"{float(last['L_c']):.4f}")

    def test_localize(self, workdir, capsys):
        d, cfg = workdir
        assert cli.main(["localize", "--config", str(cfg),
                         "--dataset", str(d / "ds.bin"),
                         "--scene", str(d / "scene.bin"),
                         "--weights", str(d / "weights.bin"),
                         "--query", "0"]) == 0
        assert "query 0" in capsys.readouterr().out

    def test_eval(self, workdir, capsys):
        d, cfg = workdir
        assert cli.main(["eval", "--config", str(cfg),
                         "--dataset", str(d / "ds.bin"),
                         "--scene", str(d / "scene.bin"),
                         "--weights", str(d / "weights.bin"),
                         "--out", str(d / "report.csv")]) == 0
        out = capsys.readouterr().out
        assert "median translation error" in out
        assert (d / "report.csv").exists()

    def test_heatmap(self, workdir, capsys):
        d, cfg = workdir
        scene = load_scene(d / "scene.bin")
        vid = sorted(scene.voxels)[0]
        assert cli.main(["heatmap",
                         "--dataset", str(d / "ds.bin"),
                         "--scene", str(d / "scene.bin"),
                         "--weights", str(d / "weights.bin"),
                         "--view", "0",
                         f"--voxel={vid.ix},{vid.iy},{vid.iz}",
                         "--block", "0", "--code", "0",
                         "--csv", str(d / "heat.csv")]) == 0
        assert (d / "heat.csv").read_text().startswith("feature_index,")


    def test_heatmap_negative_voxel_as_separate_value(self, workdir):
        d, _ = workdir
        vid = min(load_scene(d / "scene.bin").voxels)
        assert vid.ix < 0  # a value argparse would read as a flag
        assert cli.main(["heatmap",
                         "--dataset", str(d / "ds.bin"),
                         "--scene", str(d / "scene.bin"),
                         "--weights", str(d / "weights.bin"),
                         "--view", "0",
                         "--voxel", f"{vid.ix},{vid.iy},{vid.iz}",
                         "--block", "0", "--code", "0",
                         "--csv", str(d / "heat-neg.csv")]) == 0
        assert (d / "heat-neg.csv").read_text().startswith("feature_index,")

class TestConfigParsing:
    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("world.num_pints = 5\n")
        assert cli.main(["gen", "--config", str(cfg),
                         "--out", str(tmp_path / "x.bin")]) == 2
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["decoder.structured_init = false",
                                      "decoder.encoder_hidden = 64",
                                      "train.batch_voxels = 1",
                                      "train.optimizer = adam"])
    def test_random_init_keys_are_unknown(self, tmp_path, capsys, line):
        # every map is built by structured init and trained by one Adam
        # step per sample; these keys chose otherwise
        cfg = tmp_path / "old.txt"
        cfg.write_text(line + "\n")
        assert cli.main(["gen", "--config", str(cfg),
                         "--out", str(tmp_path / "x.bin")]) == 2
        key = line.partition(" = ")[0]
        assert capsys.readouterr().err == \
            f"error: {cfg}:1: unknown key {key!r}\n"
        assert not (tmp_path / "x.bin").exists()

    def test_unknown_section_rejected(self, tmp_path):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("wurld.num_points = 5\n")
        assert cli.main(["gen", "--config", str(cfg),
                         "--out", str(tmp_path / "x.bin")]) == 2

    def test_malformed_line_rejected(self, tmp_path):
        cfg = tmp_path / "bad.txt"
        cfg.write_text("just some words\n")
        assert cli.main(["gen", "--config", str(cfg),
                         "--out", str(tmp_path / "x.bin")]) == 2

    def test_config_keys_catalogue(self):
        assert "train.epochs_stage1" in cli.CONFIG_KEYS
        assert "world.num_points" in cli.CONFIG_KEYS
        assert "localize.confidence_min" in cli.CONFIG_KEYS
        assert "decoder.attn_scale" in cli.CONFIG_KEYS

    def test_extent_tuple_parsing(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("world.extent = 2.0, 2.0, 1.0\n")
        parsed = cli.load_config(str(cfg))
        assert parsed["world"].extent == (2.0, 2.0, 1.0)

    @pytest.mark.parametrize("raw", ["1,2", "1,2,3,4"])
    def test_extent_needs_three_values(self, tmp_path, capsys, raw):
        cfg = tmp_path / "c.txt"
        cfg.write_text(f"world.extent = {raw}\n")
        assert cli.main(["gen", "--config", str(cfg),
                         "--out", str(tmp_path / "x.bin")]) == 2
        err = capsys.readouterr().err
        assert (f"world.extent: cannot parse {raw!r} as "
                "tuple[float, float, float]") in err
        assert not (tmp_path / "x.bin").exists()

    def test_bool_parsing(self, tmp_path):
        cfg = tmp_path / "c.txt"
        cfg.write_text("localize.bypass_retrieval = yes\n")
        assert cli.load_config(str(cfg))["localize"].bypass_retrieval is True
        cfg.write_text("localize.bypass_retrieval = maybe\n")
        with pytest.raises(cli.ConfigError):
            cli.load_config(str(cfg))

    @pytest.mark.parametrize("cls, key, value", [
        (WorldConfig, "world.num_points", 2.5),
        (TrainConfig, "train.seed", True),
        (WorldConfig, "world.extent", (1.0, 2.0)),
        (LocalizeOptions, "localize.top_k", "3"),
    ])
    def test_constructors_refuse_wrong_types(self, cls, key, value):
        with pytest.raises(TypeError, match=f"^{re.escape(key)} must be "):
            cls(**{key.partition(".")[2]: value})

    @pytest.mark.parametrize("key, value", [("focal", 10**400),
                                            ("extent", (1.0, -10**400, 1.0))],
                             ids=["focal", "extent"])
    def test_int_beyond_the_float_range_names_its_key(self, key, value):
        # NumPy's isfinite refused such an int with a TypeError naming no key
        with pytest.raises(ValueError, match=f"^world.{key} must be finite"):
            WorldConfig(**{key: value})

    def test_constructors_accept_numpy_scalars(self):
        world = WorldConfig(num_points=np.int64(50), focal=np.float32(500.0),
                            extent=(np.float32(2.0), np.int64(2), 1.0))
        assert world.num_points == 50 and world.focal == 500.0
        assert TrainConfig(seed=np.int64(3), lr_codes=np.float32(0.5)).seed == 3

    def test_every_non_bool_key_declares_a_bound(self):
        # a key without a bound() would reach the program unchecked
        defaults = cli.load_config(None)
        for key in cli.CONFIG_KEYS:
            section, _, name = key.partition(".")
            field = {f.name: f for f in dataclasses.fields(defaults[section])}
            if field[name].type != "bool":
                assert "bound" in field[name].metadata, key

    def test_readme_table_lists_every_key(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        table = readme.split("\n## Configuration\n")[1].split("\n## ")[0]
        sections = "|".join({k.partition(".")[0] for k in cli.CONFIG_KEYS})
        listed = set(re.findall(rf"`((?:{sections})\.\w+)`", table))
        assert listed == set(cli.CONFIG_KEYS)

    def test_every_key_round_trips_its_default(self, tmp_path):
        defaults = cli.load_config(None)
        lines = []
        for key in cli.CONFIG_KEYS:
            section, _, name = key.partition(".")
            value = getattr(defaults[section], name)
            if isinstance(value, tuple):
                value = ", ".join(map(str, value))
            lines.append(f"{key} = {value}")
        cfg = tmp_path / "c.txt"
        cfg.write_text("\n".join(lines) + "\n")
        assert cli.load_config(str(cfg)) == defaults


def tiny_config_with(tmp_path, extra):
    cfg = tmp_path / "config.txt"
    cfg.write_text(TINY_CONFIG + extra)
    return str(cfg)


def assert_gen_rejects(tmp_path, capsys, extra, key):
    """voxloc gen exits 2 on the config line, naming its key on one line."""
    cfg = tiny_config_with(tmp_path, extra + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(["gen", "--config", cfg,
                         "--out", str(tmp_path / "x.bin")]) == 2
    err = capsys.readouterr().err
    assert key in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "x.bin").exists()


def train_exit(workdir, tmp_path, extra):
    """voxloc train's exit code on the tiny world with the extra config
    line, with every warning raised as an error."""
    d, _ = workdir
    cfg = tiny_config_with(tmp_path, extra + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return cli.main(["train", "--config", cfg,
                         "--dataset", str(d / "ds.bin"),
                         "--out-scene", str(tmp_path / "s.bin"),
                         "--out-weights", str(tmp_path / "w.bin")])


class TestErrorExits:
    def test_usage_error_is_1(self):
        assert cli.main(["no-such-command"]) == 1
        assert cli.main(["train"]) == 1  # missing required args

    def test_missing_file_is_2(self, tmp_path):
        assert cli.main(["inspect", "--scene",
                         str(tmp_path / "nope.bin")]) == 2

    def test_query_out_of_range_is_2(self, workdir):
        d, cfg = workdir
        assert cli.main(["localize", "--config", str(cfg),
                         "--dataset", str(d / "ds.bin"),
                         "--scene", str(d / "scene.bin"),
                         "--weights", str(d / "weights.bin"),
                         "--query", "99"]) == 2

    def test_bad_voxel_spec_is_2(self, workdir):
        d, _ = workdir
        assert cli.main(["heatmap",
                         "--dataset", str(d / "ds.bin"),
                         "--scene", str(d / "scene.bin"),
                         "--weights", str(d / "weights.bin"),
                         "--view", "0", "--voxel", "zap",
                         "--block", "0", "--code", "0",
                         "--csv", str(d / "h.csv")]) == 2

    def test_heatmap_block_out_of_range_is_2(self, workdir, capsys):
        d, _ = workdir
        vid = sorted(load_scene(d / "scene.bin").voxels)[0]
        for block in ("2", "99", "-1"):
            assert cli.main(["heatmap",
                             "--dataset", str(d / "ds.bin"),
                             "--scene", str(d / "scene.bin"),
                             "--weights", str(d / "weights.bin"),
                             "--view", "0",
                             f"--voxel={vid.ix},{vid.iy},{vid.iz}",
                             f"--block={block}", "--code", "0",
                             "--csv", str(d / "h.csv")]) == 2
            assert "out of range" in capsys.readouterr().err

    def test_heatmap_code_and_view_out_of_range_name_the_range(self, workdir,
                                                               capsys):
        d, _ = workdir
        vid = sorted(load_scene(d / "scene.bin").voxels)[0]
        cases = [("0", "99", "code 99 out of range [0, 48)"),
                 ("0", "-1", "code -1 out of range [0, 48)"),
                 ("-1", "0", "view index -1 out of range [0, 12)"),
                 ("12", "0", "view index 12 out of range [0, 12)")]
        for view, code, message in cases:
            assert cli.main(["heatmap",
                             "--dataset", str(d / "ds.bin"),
                             "--scene", str(d / "scene.bin"),
                             "--weights", str(d / "weights.bin"),
                             f"--view={view}",
                             f"--voxel={vid.ix},{vid.iy},{vid.iz}",
                             "--block", "0", f"--code={code}",
                             "--csv", str(d / "h.csv")]) == 2
            assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("field", ["origin", "scale", "code"])
    def test_non_finite_scene_value_is_2(self, workdir, tmp_path, capsys,
                                         field):
        d, _ = workdir
        scene = load_scene(d / "scene.bin")
        v = scene.sorted_voxels()[0]
        bank = v.codes
        row = bank.active_rows(0)[0]
        target = {"origin": v.origin, "scale": bank.scales[0].values[row],
                  "code": bank.codes[0].values[row]}[field]
        # the writer refuses NaN, so a sentinel's bytes are swapped for it
        sentinel = np.float32(-1234.5).tobytes()
        target[0] = -1234.5
        blob = scene_to_bytes(scene)
        assert blob.count(sentinel) == 1
        nan = np.float32(np.nan).tobytes()
        (tmp_path / "nan.bin").write_bytes(blob.replace(sentinel, nan))
        assert cli.main(["inspect", "--scene", str(tmp_path / "nan.bin")]) == 2
        assert "non-finite" in capsys.readouterr().err

    def test_fully_pruned_scene_with_huge_d_is_2(self, workdir, tmp_path,
                                                  capsys):
        # 64 bytes: T = N = 1 and D = 2**31, its one code pruned, so no
        # code bytes stand behind D
        (tmp_path / "huge.bin").write_bytes(raw_scene(1, 1, 2 ** 31, [PRUNED]))
        assert (tmp_path / "huge.bin").stat().st_size == 64
        d, cfg = workdir
        assert cli.main(["eval", "--config", str(cfg),
                         "--dataset", str(d / "ds.bin"),
                         "--scene", str(tmp_path / "huge.bin"),
                         "--weights", str(d / "weights.bin")]) == 2
        err = capsys.readouterr().err
        assert "D = 2147483648" in err and len(err.strip().splitlines()) == 1

    def test_non_finite_point_position_is_2(self, workdir, tmp_path, capsys):
        d, cfg = workdir
        ds = load_dataset(d / "ds.bin")
        pid = next(p.id for p in ds.points.values() if p.valid)
        ds.points[pid].position[0] = np.nan
        save_dataset(ds, tmp_path / "nan.bin")
        assert cli.main(["train", "--config", str(cfg),
                         "--dataset", str(tmp_path / "nan.bin"),
                         "--out-scene", str(tmp_path / "s.bin"),
                         "--out-weights", str(tmp_path / "w.bin")]) == 2
        err = capsys.readouterr().err
        assert f"point {pid} " in err and "non-finite" in err
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("field, message", [
        ("fx", "focal lengths must be positive and finite"),
        ("pixel", "a keypoint pixel is non-finite")])
    def test_non_finite_query_intrinsics_or_pixel_is_2(self, workdir,
                                                       tmp_path, capsys,
                                                       field, message):
        # the writer stores any float64, so the damage is saved as it is
        d, cfg = workdir
        ds = load_dataset(d / "ds.bin")
        if field == "fx":
            ds.query_views[0].intrinsics.fx = np.inf
        else:
            ds.query_views[0].pixels[3, 1] = np.nan
        save_dataset(ds, tmp_path / "bad.bin")
        assert cli.main(["localize", "--config", str(cfg),
                         "--dataset", str(tmp_path / "bad.bin"),
                         "--scene", str(d / "scene.bin"),
                         "--weights", str(d / "weights.bin"),
                         "--query", "0"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["localize", "eval"])
    @pytest.mark.parametrize("where, message", [
        ("reference", "reference view 5 has a non-finite descriptor"),
        ("query", "a query descriptor is non-finite")])
    def test_non_finite_descriptor_is_2(self, workdir, tmp_path, capsys,
                                        command, where, message):
        d, _ = workdir
        ds = load_dataset(d / "ds.bin")
        view = ds.views[5] if where == "reference" else ds.query_views[0]
        view.descriptors[3, 1] = np.nan
        save_dataset(ds, tmp_path / "bad.bin")
        cfg = tiny_config_with(tmp_path, "localize.bypass_retrieval = false\n")
        query = ["--query", "0"] if command == "localize" else []
        assert cli.main([command, "--config", cfg,
                         "--dataset", str(tmp_path / "bad.bin"),
                         "--scene", str(d / "scene.bin"),
                         "--weights", str(d / "weights.bin")] + query) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"error: {message}\n"

    @pytest.mark.parametrize("where", ["reference", "query"])
    def test_a_view_of_other_descriptor_width_is_2(self, workdir, tmp_path,
                                                   capsys, where):
        d, cfg = workdir
        ds = load_dataset(d / "ds.bin")
        views = ds.views if where == "reference" else ds.query_views
        views[1].descriptors = views[1].descriptors[:, :32]
        save_dataset(ds, tmp_path / "cut.bin")
        assert cli.main(["eval", "--config", str(cfg),
                         "--dataset", str(tmp_path / "cut.bin"),
                         "--scene", str(d / "scene.bin"),
                         "--weights", str(d / "weights.bin")]) == 2
        out = capsys.readouterr()
        assert out.out == "" and re.fullmatch(
            rf"error: at byte \d+: {where} view 1 has 32-wide descriptors, "
            rf"the header's descriptor_dim is 64\n", out.err)

    @pytest.mark.parametrize("command", ["train", "adapt"])
    def test_non_finite_reference_descriptor_stops_new_maps(
            self, workdir, tmp_path, capsys, command):
        # the same message as every other command that reads the dataset
        d, cfg = workdir
        ds = load_dataset(d / "ds.bin")
        ds.views[5].descriptors[3, 1] = np.nan
        save_dataset(ds, tmp_path / "bad.bin")
        out = ["--out-scene", str(tmp_path / "s.bin")] + (
            ["--out-weights", str(tmp_path / "w.bin")] if command == "train"
            else ["--weights", str(d / "weights.bin")])
        assert cli.main([command, "--config", str(cfg),
                         "--dataset", str(tmp_path / "bad.bin")] + out) == 2
        assert capsys.readouterr().err == (
            "error: reference view 5 has a non-finite descriptor\n")
        assert [p.name for p in tmp_path.iterdir()] == ["bad.bin"]

    @pytest.mark.parametrize("command", ["finetune", "heatmap"])
    def test_non_finite_reference_descriptor_stops_finetune_and_heatmap(
            self, workdir, tmp_path, capsys, command):
        # finetune's keypoint subsamples can miss the damaged row, so the
        # refusal must come before any training
        ds = load_dataset(workdir[0] / "ds.bin")
        ds.views[0].descriptors[3, 1] = np.nan
        save_dataset(ds, tmp_path / "bad.bin")
        assert cli.main(map_command(workdir, tmp_path, command,
                                    dataset=tmp_path / "bad.bin")) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == (
            "error: reference view 0 has a non-finite descriptor\n")
        assert [p.name for p in tmp_path.iterdir()] == ["bad.bin"]

    def test_config_json_past_the_recursion_limit_is_2(self, workdir,
                                                       tmp_path, capsys):
        d, cfg = workdir
        blob = (d / "ds.bin").read_bytes()
        n = int.from_bytes(blob[8:12], "little")  # after magic and version
        deep = b"[" * 200_000
        (tmp_path / "deep.bin").write_bytes(
            blob[:8] + len(deep).to_bytes(4, "little") + deep + blob[12 + n:])
        assert cli.main(["localize", "--config", str(cfg),
                         "--dataset", str(tmp_path / "deep.bin"),
                         "--scene", str(d / "scene.bin"),
                         "--weights", str(d / "weights.bin"),
                         "--query", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: at byte 12: config json: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("extra, key", [
        ("world.extent = nan,1,1", "world.extent"),
        ("world.focal = nan", "world.focal"),
        ("world.descriptor_noise_sigma = inf",
         "world.descriptor_noise_sigma"),
        ("world.pixel_noise_sigma = nan", "world.pixel_noise_sigma"),
    ])
    def test_non_finite_world_config_is_2(self, tmp_path, capsys, extra,
                                          key):
        assert_gen_rejects(tmp_path, capsys, extra, key)

    @pytest.mark.parametrize("extra, key", [
        ("world.image_width = 0", "world.image_width"),
        ("world.image_height = 0", "world.image_height"),
        ("world.focal = -1", "world.focal"),
        ("world.min_depth = 0", "world.min_depth"),
        ("world.min_depth = 50", "world.min_depth"),
        ("world.frustum_margin = -1", "world.frustum_margin"),
        ("world.frustum_margin = 240", "world.frustum_margin"),
        ("world.triangulation_tol = -1", "world.triangulation_tol"),
        ("world.descriptor_dim = 0", "world.descriptor_dim"),
    ])
    def test_degenerate_world_config_is_2(self, tmp_path, capsys, extra,
                                          key):
        # finite, but leaves no image area, depth range, triangulation
        # tolerance or descriptor
        assert_gen_rejects(tmp_path, capsys, extra, key)

    @pytest.mark.parametrize("flag", ["--dataset", "--scene", "--weights"])
    def test_unreadable_input_is_2(self, workdir, tmp_path, capsys, flag):
        d, cfg = workdir
        files = {"--dataset": d / "ds.bin", "--scene": d / "scene.bin",
                 "--weights": d / "weights.bin", flag: tmp_path}
        argv = ["eval", "--config", str(cfg)]
        for name, path in files.items():
            argv += [name, str(path)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(tmp_path) in err
        assert len(err.strip().splitlines()) == 1

    def test_prune_nan_threshold_is_2(self, workdir):
        d, _ = workdir
        assert cli.main(["prune", "--scene", str(d / "scene.bin"),
                         "--threshold", "nan",
                         "--out-scene", str(d / "nan.bin")]) == 2
        assert not (d / "nan.bin").exists()

    def test_train_nan_prune_threshold_is_2(self, workdir, tmp_path, capsys):
        d, _ = workdir
        cfg = tiny_config_with(tmp_path, "train.prune_threshold = nan\n")
        assert cli.main(["train", "--config", cfg,
                         "--dataset", str(d / "ds.bin"),
                         "--out-scene", str(tmp_path / "s.bin"),
                         "--out-weights", str(tmp_path / "w.bin")]) == 2
        assert "prune_threshold" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [
        # each exited 0, leaving an unusable or misread map
        "decoder.head_hidden = 0",
        "decoder.block_hidden = 0",
        "train.lr_codes = -1",
        "train.lr_agnostic = -1",
        "train.keypoints_per_sample = -5",
        "train.lr_halving_period = -3",
        "train.min_points = -1",
        # each was a numeric abort (exit 3) naming no key
        "decoder.desc_scale = nan",
        "decoder.coord_scale = inf",
        "train.lr_agnostic = nan",
        "train.lambda_coord = nan",
        # each exited 2 naming no key
        "scene.side_length = nan",
        "scene.side_length = -1",
        "scene.blocks = 0",
        # scene.code_dim's lower bound states that structured init keeps
        # the last 3 dims for coordinates
        "scene.code_dim = 2",
        "scene.code_dim = 3",
        # exited 1 with an OverflowError traceback from saving the scene
        "scene.side_length = 1e300",
    ])
    def test_out_of_range_config_is_2(self, workdir, tmp_path, capsys,
                                      extra):
        assert train_exit(workdir, tmp_path, extra) == 2
        err = capsys.readouterr().err
        key = extra.partition(" = ")[0]
        assert key in err and len(err.strip().splitlines()) == 1
        assert not (tmp_path / "s.bin").exists()
        if extra == "scene.code_dim = 3":
            assert err == "error: scene.code_dim must be >= 4, got 3\n"

    def test_attention_overflow_is_3_on_one_line(self, workdir, tmp_path,
                                                 capsys):
        # finite and positive, so in range; the logits overflow in training
        assert train_exit(workdir, tmp_path, "decoder.attn_scale = 1e300") == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric abort: ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", [["eval"],
                                         ["localize", "--query", "0"]])
    def test_float32_decode_overflow_is_3_on_one_line(self, workdir, tmp_path,
                                                      capsys, command):
        # float64 decode holds these weights; the float32 query decode
        # overflows, and must say so without a NumPy warning
        d, cfg = workdir
        params = load_params(d / "weights.bin")
        for name, tens in params.named_parameters().items():
            if name.startswith(("encoder.", "block.0.w")):
                tens.values *= 1e19
        save_params(params, tmp_path / "big.bin")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(command + [
                "--config", str(cfg), "--dataset", str(d / "ds.bin"),
                "--scene", str(d / "scene.bin"),
                "--weights", str(tmp_path / "big.bin")])
        assert code == 3
        err = capsys.readouterr().err
        assert re.fullmatch(r"numeric abort: non-finite value produced in "
                            r"\w+ \((encode|decode of voxel \(.*\))\)\n", err)

    @pytest.mark.parametrize("extra, key", [
        ("localize.confidence_min = nan", "confidence_min"),
        ("localize.confidence_min = 1.5", "confidence_min"),
        ("localize.inlier_tol = -1", "inlier_tol"),
        ("localize.inlier_tol = inf", "inlier_tol"),
        ("localize.ransac_iters = 0", "ransac_iters"),
        ("localize.top_k = 0", "top_k"),
    ])
    def test_localize_option_out_of_range_is_2(self, workdir, tmp_path,
                                                capsys, extra, key):
        d, _ = workdir
        cfg = tiny_config_with(tmp_path, extra + "\n")
        assert cli.main(["eval", "--config", cfg,
                         "--dataset", str(d / "ds.bin"),
                         "--scene", str(d / "scene.bin"),
                         "--weights", str(d / "weights.bin")]) == 2
        err = capsys.readouterr().err
        assert key in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("extra, command, key", [
        ("train.epochs_stage2 = -3", "finetune", "epochs_stage2"),
        ("train.epochs_stage2 = 0", "finetune", "train.epochs_stage2"),
        ("train.epochs_stage1 = 0", "adapt", "train.epochs_stage1"),
        ("train.epochs_stage1 = 0\ntrain.epochs_stage2 = 0", "train",
         "train.epochs_stage1"),
    ])
    def test_no_epochs_is_2(self, workdir, tmp_path, capsys, extra, command,
                            key):
        d, _ = workdir
        cfg = tiny_config_with(tmp_path, extra + "\n")
        argv = [command, "--config", cfg, "--dataset", str(d / "ds.bin"),
                "--out-scene", str(tmp_path / "s.bin")]
        if command == "finetune":
            argv += ["--scene", str(d / "scene.bin")]
        if command != "train":
            argv += ["--weights", str(d / "weights.bin")]
        if command != "adapt":
            argv += ["--out-weights", str(tmp_path / "w.bin")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert key in err and len(err.strip().splitlines()) == 1

    def test_finetune_of_a_scene_without_codes_is_2(self, workdir, tmp_path,
                                                    capsys):
        # the scene arrives empty: no threshold of finetune's removed a code
        d, cfg = workdir
        assert cli.main(["prune", "--scene", str(d / "scene.bin"),
                         "--threshold", "inf",
                         "--out-scene", str(tmp_path / "empty.bin")]) == 0
        capsys.readouterr()
        assert cli.main(["finetune", "--config", str(cfg),
                         "--dataset", str(d / "ds.bin"),
                         "--scene", str(tmp_path / "empty.bin"),
                         "--weights", str(d / "weights.bin"),
                         "--out-scene", str(tmp_path / "s.bin"),
                         "--out-weights", str(tmp_path / "w.bin")]) == 2
        err = capsys.readouterr().err
        assert err == "error: the scene has no retained code to train\n"
        assert not (tmp_path / "s.bin").exists()

    def test_finetune_with_a_dataset_of_fewer_views_is_2(self, workdir,
                                                         tmp_path, capsys):
        # the scene's covering views index the 12 views it was trained on
        d, _ = workdir
        cfg = tiny_config_with(tmp_path, "world.num_ref_views = 4\n")
        assert cli.main(["gen", "--config", cfg,
                         "--out", str(tmp_path / "ds4.bin")]) == 0
        capsys.readouterr()
        assert cli.main(["finetune", "--config", cfg,
                         "--dataset", str(tmp_path / "ds4.bin"),
                         "--scene", str(d / "scene.bin"),
                         "--weights", str(d / "weights.bin"),
                         "--out-scene", str(tmp_path / "s.bin"),
                         "--out-weights", str(tmp_path / "w.bin")]) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: voxel VoxelId\(.*\) is covered by view "
                            r"\d+, but the dataset has 4 views\n", err)
        assert not (tmp_path / "s.bin").exists()

    def test_train_on_a_view_that_lists_a_point_twice_is_2(self, workdir,
                                                           tmp_path, capsys):
        d, cfg = workdir
        ds = load_dataset(d / "ds.bin")
        view = ds.views[2]
        view.pixels = np.vstack([view.pixels, view.pixels[:1]])
        view.descriptors = np.vstack([view.descriptors, view.descriptors[:1]])
        view.point_ids = np.r_[view.point_ids, view.point_ids[:1]]
        save_dataset(ds, tmp_path / "twice.bin")
        assert cli.main(["train", "--config", str(cfg),
                         "--dataset", str(tmp_path / "twice.bin"),
                         "--out-scene", str(tmp_path / "s.bin"),
                         "--out-weights", str(tmp_path / "w.bin")]) == 2
        err = capsys.readouterr().err
        assert err == "error: reference view 2 lists a point twice\n"
        assert not (tmp_path / "s.bin").exists()

    # sizes NumPy refuses at once, so no test touches the memory
    def test_train_allocation_beyond_memory_is_2(self, workdir, tmp_path,
                                                 capsys):
        extra = "scene.codes_per_block = 10000000000000"
        assert train_exit(workdir, tmp_path, extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate ")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "s.bin").exists()

    def test_gen_allocation_beyond_memory_is_2(self, tmp_path, capsys):
        cfg = tiny_config_with(tmp_path, "world.num_points = 10000000000000\n")
        assert cli.main(["gen", "--config", cfg,
                         "--out", str(tmp_path / "x.bin")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate ")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "x.bin").exists()

    def test_int_beyond_the_float_range_in_config_json_is_2(self, workdir,
                                                            tmp_path, capsys):
        d, cfg = workdir
        blob = (d / "ds.bin").read_bytes()
        n = int.from_bytes(blob[8:12], "little")  # after magic and version
        world = json.loads(blob[12:12 + n])
        world["focal"] = 10**400
        raw = json.dumps(world).encode()
        (tmp_path / "big.bin").write_bytes(
            blob[:8] + len(raw).to_bytes(4, "little") + raw + blob[12 + n:])
        assert cli.main(["localize", "--config", str(cfg),
                         "--dataset", str(tmp_path / "big.bin"),
                         "--scene", str(d / "scene.bin"),
                         "--weights", str(d / "weights.bin"),
                         "--query", "0"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: at byte 12: config json: world.focal ")
        assert len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("extra, named", [
        ("scene.code_dim = 21", "d = 16, but scene.code_dim is 21"),
        ("scene.blocks = 1", "num_blocks = 2, but scene.blocks is 1"),
        ("scene.blocks = 3", "num_blocks = 2, but scene.blocks is 3"),
        ("world.descriptor_dim = 32", "d_raw = 64, but the descriptor width "
                                      "is 32"),
    ])
    def test_adapt_with_weights_that_do_not_fit_is_2(self, workdir, tmp_path,
                                                     capsys, extra, named):
        # these ended in a NumPy broadcast or matmul message, an IndexError
        # traceback (exit 1), or a map whose third block was never decoded
        d, _ = workdir
        cfg = tiny_config_with(tmp_path, extra + "\n")
        dataset = d / "ds.bin"
        if extra.startswith("world."):
            dataset = tmp_path / "ds.bin"
            assert cli.main(["gen", "--config", cfg,
                             "--out", str(dataset)]) == 0
        assert cli.main(["adapt", "--config", cfg, "--dataset", str(dataset),
                         "--weights", str(d / "weights.bin"),
                         "--out-scene", str(tmp_path / "s.bin")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: weights have {named}\n"
        assert not (tmp_path / "s.bin").exists()

    @pytest.mark.parametrize("command", ["eval", "localize", "heatmap"])
    def test_weights_for_other_descriptors_are_2(self, workdir, tmp_path,
                                                 capsys, command):
        d, _ = workdir
        cfg = tiny_config_with(tmp_path, "world.descriptor_dim = 32\n")
        assert cli.main(["gen", "--config", cfg,
                         "--out", str(tmp_path / "ds.bin")]) == 0
        capsys.readouterr()
        assert cli.main(map_command(workdir, tmp_path, command,
                                    dataset=tmp_path / "ds.bin")) == 2
        err = capsys.readouterr().err
        assert re.fullmatch(r"error: descriptor width \(\d+, 32\) != "
                            r"encoder input 64\n", err)

    @pytest.mark.parametrize("command",
                             ["eval", "localize", "finetune", "heatmap"])
    @pytest.mark.parametrize("scene_blocks, weight_blocks", [(1, 2), (2, 1)])
    def test_scene_and_weights_of_other_block_counts_are_2(
            self, workdir, tmp_path, capsys, command, scene_blocks,
            weight_blocks):
        # a scene with fewer blocks than the weights ended in an IndexError
        # traceback (exit 1); one with more had its extra blocks ignored;
        # heatmap also wrote a map for block 0 of a mismatched scene
        d, _ = workdir
        scene = load_scene(d / "scene.bin")
        for v in scene.voxels.values():
            bank = v.codes
            bank.codes, bank.scales = (bank.codes[:scene_blocks],
                                       bank.scales[:scene_blocks])
        scene.dims = (scene_blocks,) + scene.dims[1:]
        save_scene(scene, tmp_path / "scene.bin")
        params = load_params(d / "weights.bin")
        if weight_blocks != params.num_blocks:
            params = DecoderParams.init(
                np.random.default_rng(0), d_raw=params.d_raw, d=params.d,
                num_blocks=weight_blocks, block_hidden=8, head_hidden=8)
        save_params(params, tmp_path / "weights.bin")
        for block in [0, 1] if command == "heatmap" else [0]:
            argv = map_command(workdir, tmp_path, command, block=block,
                               scene=tmp_path / "scene.bin",
                               weights=tmp_path / "weights.bin")
            assert cli.main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith(
                f"error: code bank (T, N, D) ({scene_blocks}, ")
            assert f"!= decoder (T, D) ({weight_blocks}, " in err
            assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "heat.csv").exists()

    @pytest.mark.parametrize("command", ["eval", "localize"])
    def test_weights_without_blocks_are_2(self, workdir, tmp_path, capsys,
                                          command):
        # localize routes with block 0: an IndexError traceback before;
        # save_params refuses such weights, so num_blocks (bytes 16-19,
        # after magic, version, d_raw and d) is zeroed in a saved file
        d, _ = workdir
        blob = bytearray((d / "weights.bin").read_bytes())
        assert blob[16:20] == (2).to_bytes(4, "little")
        blob[16:20] = bytes(4)
        (tmp_path / "weights.bin").write_bytes(blob)
        assert cli.main(map_command(workdir, tmp_path, command,
                                    weights=tmp_path / "weights.bin")) == 2
        err = capsys.readouterr().err
        assert "num_blocks is 0" in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("command", ["eval", "localize", "heatmap",
                                         "finetune", "adapt"])
    def test_weights_with_a_nonzero_reserved_field_are_2(self, workdir,
                                                         tmp_path, capsys,
                                                         command):
        # bytes 20-23 (after magic, version, d_raw, d and num_blocks) are
        # the reserved field, which must be 0
        d, cfg = workdir
        blob = bytearray((d / "weights.bin").read_bytes())
        assert blob[20:24] == bytes(4)
        blob[20:24] = (64).to_bytes(4, "little")
        (tmp_path / "weights.bin").write_bytes(blob)
        if command == "adapt":
            argv = ["adapt", "--config", str(cfg),
                    "--dataset", str(d / "ds.bin"),
                    "--weights", str(tmp_path / "weights.bin"),
                    "--out-scene", str(tmp_path / "s.bin")]
        else:
            argv = map_command(workdir, tmp_path, command,
                               weights=tmp_path / "weights.bin")
            if command == "eval":
                argv += ["--out", str(tmp_path / "report.csv")]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: at byte 20: reserved header field "
                              "is 64, not 0")
        assert len(err.strip().splitlines()) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["weights.bin"]

    @pytest.mark.parametrize("encoder_hidden", [8, 64])
    def test_adapt_with_a_hidden_encoder_layer_is_2(self, workdir, tmp_path,
                                                    capsys, encoder_hidden):
        # weights saved with a hidden encoder layer carry its width in the
        # now reserved field; adapt refuses them from the header alone,
        # before it reads a tensor or writes a scene
        d, cfg = workdir
        blob = bytearray((d / "weights.bin").read_bytes())
        blob[20:24] = encoder_hidden.to_bytes(4, "little")
        (tmp_path / "weights.bin").write_bytes(blob)
        assert cli.main(["adapt", "--config", str(cfg),
                         "--dataset", str(d / "ds.bin"),
                         "--weights", str(tmp_path / "weights.bin"),
                         "--out-scene", str(tmp_path / "s.bin")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: at byte 20: reserved header field "
                              f"is {encoder_hidden}, not 0")
        assert len(err.strip().splitlines()) == 1
        assert not (tmp_path / "s.bin").exists()

    @pytest.mark.parametrize("command", ["inspect", "eval", "localize"])
    def test_scene_without_blocks_is_2(self, workdir, tmp_path, capsys,
                                       command):
        # 60 bytes: T = 0 and one voxel, whose bank has no block to size
        # CodeBank.dims by: an IndexError traceback before
        path = tmp_path / "scene.bin"
        path.write_bytes(raw_scene(0, 1, 16, [([], [])]))
        assert path.stat().st_size == 60
        argv = (["inspect", "--scene", str(path)] if command == "inspect"
                else map_command(workdir, tmp_path, command, scene=path))
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "T is 0" in err and len(err.strip().splitlines()) == 1

    def test_version_1_scene_is_2(self, workdir, tmp_path, capsys):
        # version 1 stored a pruned mask byte per code; no reader is kept
        d, _ = workdir
        blob = bytearray((d / "scene.bin").read_bytes())
        blob[4:8] = (1).to_bytes(4, "little")
        with pytest.raises(FormatError, match="at byte 4: unsupported scene "
                                              "format version 1"):
            scene_from_bytes(bytes(blob))
        (tmp_path / "v1.bin").write_bytes(blob)
        assert cli.main(["inspect", "--scene", str(tmp_path / "v1.bin")]) == 2
        err = capsys.readouterr().err
        assert err == "error: at byte 4: unsupported scene format version 1\n"


def map_command(workdir, tmp_path, command, block=0, **files):
    """argv for a command that reads a dataset, a scene and weights, with
    the workdir's files unless files names others; outputs go to tmp_path.
    heatmap exports code 0 of `block` in the scene's first voxel."""
    d, cfg = workdir
    paths = {"dataset": d / "ds.bin", "scene": d / "scene.bin",
             "weights": d / "weights.bin", **files}
    argv = [command] + [a for k, p in paths.items()
                        for a in (f"--{k}", str(p))]
    if command == "heatmap":
        vid = sorted(load_scene(paths["scene"]).voxels)[0]
        return argv + ["--view", "0", f"--voxel={vid.ix},{vid.iy},{vid.iz}",
                       "--block", str(block), "--code", "0",
                       "--csv", str(tmp_path / "heat.csv")]
    argv += ["--config", str(cfg)]
    if command == "localize":
        return argv + ["--query", "0"]
    if command == "finetune":
        return argv + ["--out-scene", str(tmp_path / "s.bin"),
                       "--out-weights", str(tmp_path / "w.bin")]
    return argv


READERS = {"ds.bin": (dataset_from_bytes, load_dataset),
           "scene.bin": (scene_from_bytes, load_scene),
           "weights.bin": (params_from_bytes, load_params)}


@pytest.mark.parametrize("name, kind", [("ds.bin", "dataset"),
                                        ("scene.bin", "scene"),
                                        ("weights.bin", "weights")])
@pytest.mark.parametrize("at, header", [(0, b"QQQQ"),
                                        (4, (99).to_bytes(4, "little"))],
                         ids=["magic", "version"])
def test_bad_header_is_refused_at_its_offset(workdir, name, kind, at, header):
    # the message names the format whose header it is
    blob = bytearray((workdir[0] / name).read_bytes())
    blob[at:at + 4] = header
    named = rf"^at byte {at}: .*\b{kind}\b"
    with pytest.raises(FormatError, match=named) as err:
        READERS[name][0](bytes(blob))
    assert err.value.offset == at


@pytest.mark.parametrize("name", sorted(READERS))
@settings(max_examples=200, deadline=2000, derandomize=True)
@given(data=st.data())
def test_damaged_files_raise_only_value_errors(workdir, name, data):
    # a truncated or bit-flipped file is a data error (exit 2), read with
    # bounded allocations and no warning on stderr, from its bytes and from
    # disk alike; a flip in a float may still leave a valid file
    blob = bytearray((workdir[0] / name).read_bytes())
    end = data.draw(st.one_of(st.just(len(blob)),
                              st.integers(0, len(blob) - 1)), label="end")
    bits = data.draw(st.lists(st.tuples(st.integers(0, len(blob) - 1),
                                        st.integers(0, 7)),
                              max_size=3), label="flipped bits")
    for at, bit in bits:
        blob[at] ^= 1 << bit
    path = workdir[0] / f"damaged-{name}"
    path.write_bytes(blob[:end])

    def bounded(alloc, real):
        def spy(shape, *args, **kwargs):
            assert np.prod(shape, dtype=float) < 2 ** 20, f"np.{alloc}{shape}"
            return real(shape, *args, **kwargs)
        return spy
    from_bytes, load = READERS[name]
    outcomes = []
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        for alloc in ("zeros", "empty"):
            mp.setattr(np, alloc, bounded(alloc, getattr(np, alloc)))
        warnings.simplefilter("error")
        for read, source in ((from_bytes, bytes(blob[:end])), (load, path)):
            try:
                read(source)
            except ValueError as err:
                assert bits or isinstance(err, FormatError)
                outcomes.append(repr(err))
            else:
                assert bits or end == len(blob)
                outcomes.append(None)
    assert outcomes[0] == outcomes[1]
