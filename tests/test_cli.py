import csv
import dataclasses
import json
import os
import shutil
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cli_recipe
from cli_recipe import TINY_MODELS, TINY_SIM
from shapesem.cli import (FLAG_KEYS, KNOWN_KEYS, CliError, _config,
                          build_parser, main, parse_config_file, resolve_config)
from shapesem.dataset import SyntheticConfig
from shapesem.errors import ConfigError, DataError, LayoutError
from shapesem.gan import GanTrainConfig
from shapesem.semantic import SemanticNetConfig


def run_cli(*argv):
    return main(list(argv))


def dir_bytes(root):
    out = {}
    for dirpath, _, files in os.walk(root):
        for f in sorted(files):
            path = os.path.join(dirpath, f)
            out[os.path.relpath(path, root)] = open(path, "rb").read()
    return out


def test_cli_imports_numpy_alone():
    """Importing the CLI loads no scipy module: numpy is the package's only
    dependency."""
    import shapesem

    src = os.path.dirname(os.path.dirname(os.path.abspath(shapesem.__file__)))
    probe = ("import sys, shapesem.cli; print(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))")
    proc = subprocess.run([sys.executable, "-c", probe],
                          env=dict(os.environ, PYTHONPATH=src),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


SIM_SMALL = ["--set", "image_size=16", "--set", "categories=4",
             "--set", "n_train=40", "--set", "n_test=8",
             "--set", "test_trials=2"]


class TestConfigParsing:
    def test_file_values_and_comments(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# experiment\nseed = 9\nnoise_sigma = 0.05  # low\n")
        assert parse_config_file(str(cfg)) == {"seed": "9",
                                               "noise_sigma": "0.05"}

    def test_unknown_key_names_offending_line(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\nwibble = 3\n")
        code = run_cli("simulate", "--seed", "1",
                       "--out", str(tmp_path / "d"), "--config", str(cfg))
        assert code == 1
        err = capsys.readouterr().err
        assert "wibble = 3" in err and ":2" in err

    def test_malformed_line_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("just words\n")
        assert run_cli("simulate", "--seed", "1", "--out", str(tmp_path / "d"),
                       "--config", str(cfg)) == 1
        assert "just words" in capsys.readouterr().err

    def test_bad_value_rejected(self, tmp_path, capsys):
        assert run_cli("simulate", "--seed", "1", "--out", str(tmp_path / "d"),
                       "--set", "n_train=lots") == 1
        assert "n_train" in capsys.readouterr().err

    def test_unknown_set_key_rejected(self, tmp_path, capsys):
        assert run_cli("simulate", "--seed", "1", "--out", str(tmp_path / "d"),
                       "--set", "bogus=1") == 1
        assert "bogus" in capsys.readouterr().err

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 1\nruns = 2\n")

        class Args:
            config = str(cfg)
            set = ["runs=3"]
            seed = 7
            out = None
            dataset = None
            runs = None
            mode = None
            metric = None

        resolved = resolve_config(Args())
        assert resolved["seed"] == 7       # flag beats file
        assert resolved["runs"] == 3       # --set beats file

    @pytest.mark.parametrize("cmd, key, value, expected", [
        ("evaluate", "seed", "3", 3),
        ("evaluate", "runs", "2", 2),
        ("evaluate", "metric", "shape", "shape"),
        ("train-gan", "mode", "no_semantics", "no_semantics"),
        ("train-gan", "seed", "3", 3),
    ])
    def test_flag_resolves_as_set(self, cmd, key, value, expected, tmp_path):
        """A flag is the same key = value item as --set or a config-file
        line, converted by the same converter; a command that needs a seed
        takes it from any of the three."""
        parse = build_parser().parse_args
        seed = ["--seed", "1"] if cmd == "train-gan" and key != "seed" else []
        cfg = tmp_path / "run.cfg"
        cfg.write_text("%s = %s\n" % (key, value))
        by_flag = resolve_config(parse([cmd, *seed, "--" + key, value]))
        by_set = resolve_config(parse([cmd, *seed, "--set", key + "=" + value]))
        by_file = resolve_config(parse([cmd, *seed, "--config", str(cfg)]))
        assert by_flag == by_set == by_file
        assert by_flag[key] == expected

    def test_seed_key_required(self, tmp_path, capsys):
        """simulate, the train commands and ablate exit 1 naming the seed
        key when no flag, --set item or config line gives it, and make no
        directory; given only as --set, it is the run's seed."""
        out = tmp_path / "d"
        assert run_cli("simulate", "--out", str(out), *SIM_SMALL) == 1
        assert "seed key is required" in capsys.readouterr().err
        assert not out.exists()
        assert run_cli("simulate", "--set", "seed=3", "--out", str(out),
                       *SIM_SMALL) == 0
        doc = json.loads((out / "run_manifest_simulate.json").read_text())
        assert doc["seed"] == 3

    def test_missing_config_file(self, tmp_path, capsys):
        assert run_cli("simulate", "--seed", "1", "--out", str(tmp_path / "d"),
                       "--config", str(tmp_path / "nope.cfg")) == 1
        assert "nope.cfg" in capsys.readouterr().err


class TestSimulate:
    def test_same_seed_byte_identical(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        assert run_cli("simulate", "--seed", "7", "--out", a, *SIM_SMALL) == 0
        assert run_cli("simulate", "--seed", "7", "--out", b, *SIM_SMALL) == 0
        assert dir_bytes(a) == dir_bytes(b)

    def test_different_seed_differs(self, tmp_path):
        a, b = str(tmp_path / "a"), str(tmp_path / "b")
        run_cli("simulate", "--seed", "7", "--out", a, *SIM_SMALL)
        run_cli("simulate", "--seed", "8", "--out", b, *SIM_SMALL)
        assert dir_bytes(a) != dir_bytes(b)

    def test_manifest_records_seed_and_checksums(self, tmp_path):
        import json

        out = str(tmp_path / "d")
        run_cli("simulate", "--seed", "3", "--out", out, *SIM_SMALL)
        doc = json.load(open(os.path.join(out, "run_manifest_simulate.json")))
        assert doc["seed"] == 3
        assert doc["config"]["image_size"] == 16
        assert "voxels.bin" in doc["artifacts"]
        assert all(len(v) == 64 for v in doc["artifacts"].values())


class TestMissingArtifacts:
    def test_evaluate_before_train_names_file(self, tmp_path, capsys):
        ds = str(tmp_path / "ds")
        run_cli("simulate", "--seed", "1", "--out", ds, *SIM_SMALL)
        art = str(tmp_path / "art")
        code = run_cli("evaluate", "--dataset", ds, "--out", art,
                       "--metric", "shape")
        assert code == 1
        assert "shape_decoder.shd" in capsys.readouterr().err

    def test_missing_dataset_dir(self, tmp_path, capsys):
        code = run_cli("train-shape", "--seed", "1",
                       "--dataset", str(tmp_path / "nothing"),
                       "--out", str(tmp_path / "art"))
        assert code == 1
        assert "manifest.json" in capsys.readouterr().err


@pytest.fixture(scope="module")
def noiseless_run(tmp_path_factory):
    """Noiseless simulate + train-shape, shared across evaluation tests."""
    root = tmp_path_factory.mktemp("noiseless")
    ds, art = str(root / "ds"), str(root / "art")
    assert run_cli("simulate", "--seed", "11", "--out", ds, *SIM_SMALL,
                   "--set", "noise_sigma=0", "--set", "test_trials=1") == 0
    assert run_cli("train-shape", "--seed", "11", "--dataset", ds,
                   "--out", art) == 0
    return ds, art


class TestShapeEvaluate:
    def test_noiseless_win_rate_one_in_csv(self, noiseless_run):
        ds, art = noiseless_run
        assert run_cli("evaluate", "--dataset", ds, "--out", art,
                       "--metric", "shape", "--seed", "0") == 0
        with open(os.path.join(art, "report_shape.csv"), newline="") as fh:
            rows = list(csv.reader(fh))
        mean = [r for r in rows if r[0] == "mean_win_rate"]
        assert len(mean) == 1
        assert float(mean[0][3]) == 1.0

    def test_repeat_evaluate_byte_identical(self, noiseless_run):
        ds, art = noiseless_run
        run_cli("evaluate", "--dataset", ds, "--out", art,
                "--metric", "shape", "--seed", "0")
        first = open(os.path.join(art, "report_shape.csv"), "rb").read()
        run_cli("evaluate", "--dataset", ds, "--out", art,
                "--metric", "shape", "--seed", "0")
        second = open(os.path.join(art, "report_shape.csv"), "rb").read()
        assert first == second


GAN_SMALL = ["--set", "gan_epochs=3", "--set", "gan_decay_start=2",
             "--set", "gan_batch=4", "--set", "gan_base_channels=4",
             "--set", "gan_lr=1e-3",
             "--set", "sem_hidden1=32", "--set", "sem_hidden2=8",
             "--set", "sem_epochs=20"]


def test_full_recipe_smoke(tmp_path):
    """simulate -> train-shape -> train-semantic -> train-gan -> reconstruct
    -> evaluate at S=32 completes and emits montage + CSV, and the report
    scored from reconstruct's stack is the one rendered without it."""
    ds, art = str(tmp_path / "ds"), str(tmp_path / "art")
    sim = ["--set", "image_size=32", "--set", "categories=4",
           "--set", "n_train=40", "--set", "n_test=8",
           "--set", "test_trials=2"]
    assert run_cli("simulate", "--seed", "5", "--out", ds, *sim) == 0
    assert run_cli("train-shape", "--seed", "5", "--dataset", ds,
                   "--out", art) == 0
    assert run_cli("train-semantic", "--seed", "5", "--dataset", ds,
                   "--out", art, *GAN_SMALL) == 0
    assert run_cli("train-gan", "--seed", "5", "--dataset", ds,
                   "--out", art, *GAN_SMALL) == 0
    assert run_cli("reconstruct", "--dataset", ds, "--out", art) == 0
    assert run_cli("evaluate", "--dataset", ds, "--out", art,
                   "--metric", "recon", "--seed", "5") == 0
    for name in ("montage.pgm", "report_recon.csv", "gan.ckpt",
                 "gan_loss.csv", "recon_0000.pgm", "reconstructions.rec"):
        assert os.path.exists(os.path.join(art, name))
    assert run_cli("report", "--out", art) == 0
    # the report scored from the stack is the one rendered without it
    report = os.path.join(art, "report_recon.csv")
    scored = open(report, "rb").read()
    os.remove(os.path.join(art, "reconstructions.rec"))
    assert run_cli("evaluate", "--dataset", ds, "--out", art,
                   "--metric", "recon", "--seed", "5") == 0
    assert open(report, "rb").read() == scored


def test_preprocess_averages_trials(tmp_path):
    from shapesem.dataset import load_dataset

    ds, out = str(tmp_path / "ds"), str(tmp_path / "avg")
    run_cli("simulate", "--seed", "2", "--out", ds, *SIM_SMALL)
    assert run_cli("preprocess", "--dataset", ds, "--out", out) == 0
    averaged = load_dataset(out)
    test = averaged.split_records("test")
    assert len(test) == 8
    assert all(r.trial_index == 0 for r in test)


def test_dataset_manifest_lists_only_the_dataset(tiny_model, tmp_path):
    """preprocess into a directory that holds other files lists in its
    manifest the dataset files it wrote, not the files it found there."""
    ds, art = tiny_model
    fresh, crowded = tmp_path / "fresh", tmp_path / "crowded"
    shutil.copytree(art, crowded)
    for out in (fresh, crowded):
        assert run_cli("preprocess", "--dataset", ds, "--out", str(out)) == 0
    listed = [json.loads((out / "run_manifest_preprocess.json").read_text())
              for out in (fresh, crowded)]
    assert listed[0]["artifacts"] == listed[1]["artifacts"]


def test_ablate_roi_writes_table(tmp_path):
    ds, art = str(tmp_path / "ds"), str(tmp_path / "art")
    run_cli("simulate", "--seed", "4", "--out", ds, "--set", "image_size=16",
            "--set", "categories=4", "--set", "n_train=60",
            "--set", "n_test=4", "--set", "test_trials=1")
    assert run_cli("ablate", "roi", "--seed", "4", "--dataset", ds,
                   "--out", art, "--runs", "2") == 0
    with open(os.path.join(art, "ablation_roi.csv"), newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["roi_set", "shape_win_rate", "semantic_accuracy"]
    names = [r[0] for r in rows[1:]]
    assert names == ["V1", "V2", "V3", "LVC", "HVC", "VC"]


def test_report_with_no_csvs_fails(tmp_path, capsys):
    """report only reads: a missing --out exits 1 and is not created."""
    assert run_cli("report", "--out", str(tmp_path / "empty")) == 1
    assert "no report CSVs" in capsys.readouterr().err
    assert not (tmp_path / "empty").exists()


def test_each_command_writes_what_its_manifest_lists(tmp_path):
    """After each step of the CLI recipe the work dir holds the files it
    held before, the files the step's manifest lists, each with the listed
    sha256, and the manifest; nothing else changed.  report and the runs
    that fail change nothing, not even a directory."""
    def files(snap):
        return {path: sha for path, sha in snap.items() if sha}

    for code, argv in cli_recipe.steps(str(tmp_path)):
        before = cli_recipe.snapshot(tmp_path)
        assert cli_recipe.run(main, argv)[0] == code, argv
        after = cli_recipe.snapshot(tmp_path)
        if code or argv[0] == "report":
            assert after == before, argv
            continue
        out = os.path.relpath(argv[argv.index("--out") + 1], tmp_path)
        name = "_".join(argv[:2] if argv[0] == "ablate" else argv[:1])
        manifest = os.path.join(out, "run_manifest_%s.json"
                                % name.replace("-", "_"))
        with open(tmp_path / manifest) as fh:
            listed = {os.path.join(out, rel): sha
                      for rel, sha in json.load(fh)["artifacts"].items()}
        assert files(after) == {**files(before), **listed,
                                manifest: after[manifest]}, argv


def test_help_exits_zero(capsys):
    assert run_cli("--help") == 0
    assert "simulate" in capsys.readouterr().out


@pytest.fixture(scope="module")
def tiny_model(tmp_path_factory):
    """A tiny dataset with all three trained artifacts next to each other."""
    root = tmp_path_factory.mktemp("tiny")
    ds, art = str(root / "ds"), str(root / "art")
    assert run_cli("simulate", "--seed", "0", "--out", ds, *TINY_SIM) == 0
    for cmd in ("train-shape", "train-semantic", "train-gan"):
        assert run_cli(cmd, "--seed", "0", "--dataset", ds, "--out", art,
                       *TINY_MODELS) == 0
    return ds, art


def _header_len(blob):
    return int.from_bytes(blob[4:8], "little")


def _inside_header(blob):
    return blob[:8 + _header_len(blob) // 2]  # in the JSON


@pytest.mark.parametrize("damage", ["header", "payload", "trailing"])
@pytest.mark.parametrize("name", ["gan.ckpt", "semantic_net.sem",
                                  "shape_decoder.shd"])
def test_damaged_artifact_names_file(tiny_model, tmp_path, capsys, name, damage):
    """A truncated or overlong artifact exits 1 with the file named."""
    ds, art = tiny_model
    out = tmp_path / "art"
    shutil.copytree(art, out)
    blob = (out / name).read_bytes()
    (out / name).write_bytes({"header": _inside_header(blob),
                              "payload": blob[:-1],
                              "trailing": blob + bytes(64)}[damage])
    assert run_cli("evaluate", "--dataset", ds, "--out", str(out),
                   "--metric", "recon", "--seed", "0") == 1
    assert name in capsys.readouterr().err


def _evaluate_recon(ds, art):
    return run_cli("evaluate", "--dataset", ds, "--out", str(art),
                   "--metric", "recon", "--seed", "0")


@pytest.mark.parametrize("damage", ["shapes", "count"])
@pytest.mark.parametrize("name", ["gan.ckpt", "semantic_net.sem",
                                  "shape_decoder.shd"])
def test_wrong_tensors_name_file(tiny_model, tmp_path, capsys, name, damage):
    """An artifact with its header intact but each tensor of shape (1,), or
    its last tensor missing, exits 1 naming the file and what is wrong,
    instead of broadcasting into the model."""
    from shapesem.serial import open_artifact, save_artifact

    ds, art = tiny_model
    out = tmp_path / "art"
    shutil.copytree(art, out)
    magic = (out / name).read_bytes()[:4]
    with open_artifact(out / name, magic) as (header, arrays):
        pass
    n = len(arrays)
    if damage == "shapes":
        tensors, message = [np.zeros(1)] * n, "tensor 0 has shape (1,)"
    else:
        tensors, message = arrays[:-1], "%d tensors, expected %d" % (n - 1, n)
    save_artifact(out / name, magic, header, tensors)
    assert _evaluate_recon(ds, out) == 1
    err = capsys.readouterr().err
    assert name in err and message in err


def test_checkpoint_with_pre_norm_biases_names_file(tiny_model, tmp_path,
                                                   capsys):
    """A gan.ckpt in an old layout, D's arrays after G's and a bias after
    each kernel that feeds a batch norm (seven at resolution 16, nine at
    32), exits 1 naming the file; such a checkpoint has to be retrained."""
    from shapesem.gan import CHECKPOINT_MAGIC, build_discriminator, load_checkpoint
    from shapesem.nn import Conv2d
    from shapesem.serial import open_artifact, save_artifact

    ds, art = tiny_model
    out = tmp_path / "art"
    shutil.copytree(art, out)
    gen, cfg = load_checkpoint(out / "gan.ckpt")
    disc = build_discriminator(cfg)
    with open_artifact(out / "gan.ckpt", CHECKPOINT_MAGIC) as (header, new):
        pass
    old = []
    for layer in gen.layers + disc.layers:
        old += layer.state_arrays()
        if isinstance(layer, Conv2d) and layer.b is None:
            out_ch = layer.w.shape[1 if layer.transpose else 0]
            old.append(np.zeros(out_ch, dtype=np.float32))
    assert len(old) == len(new) + len(disc.state_arrays()) + 7
    save_artifact(out / "gan.ckpt", CHECKPOINT_MAGIC, header, old)
    assert run_cli("reconstruct", "--dataset", ds, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "gan.ckpt" in err and "%d tensors" % len(old) in err


def test_checkpoint_with_discriminator_running_stats_names_file(tiny_model,
                                                                tmp_path,
                                                                capsys):
    """A gan.ckpt in an old layout, D's arrays after G's with a running mean
    and variance after each of D's two norms, exits 1 naming the file; such
    a checkpoint has to be retrained."""
    from shapesem.gan import CHECKPOINT_MAGIC, build_discriminator, load_checkpoint
    from shapesem.nn import BatchNorm2d
    from shapesem.serial import open_artifact, save_artifact

    ds, art = tiny_model
    out = tmp_path / "art"
    shutil.copytree(art, out)
    gen, cfg = load_checkpoint(out / "gan.ckpt")
    disc = build_discriminator(cfg)
    with open_artifact(out / "gan.ckpt", CHECKPOINT_MAGIC) as (header, new):
        pass
    old = gen.state_arrays()
    for layer in disc.layers:
        old += layer.state_arrays()
        if isinstance(layer, BatchNorm2d):
            assert layer.running_mean is None
            ch = layer.gamma.shape[0]
            old += [np.zeros(ch, dtype=np.float32), np.ones(ch, dtype=np.float32)]
    assert len(old) == len(new) + len(disc.state_arrays()) + 4
    save_artifact(out / "gan.ckpt", CHECKPOINT_MAGIC, header, old)
    assert run_cli("reconstruct", "--dataset", ds, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "gan.ckpt" in err and "%d tensors" % len(old) in err


def test_checkpoint_with_discriminator_names_file(tiny_model, tmp_path, capsys):
    """A gan.ckpt in the older layout, D's arrays after G's, exits 1
    naming the file; a checkpoint now holds G's arrays alone."""
    from shapesem.gan import CHECKPOINT_MAGIC, build_discriminator, load_checkpoint
    from shapesem.serial import save_artifact

    ds, art = tiny_model
    out = tmp_path / "art"
    shutil.copytree(art, out)
    gen, cfg = load_checkpoint(out / "gan.ckpt")
    old = gen.state_arrays() + build_discriminator(cfg).state_arrays()
    save_artifact(out / "gan.ckpt", CHECKPOINT_MAGIC,
                  dataclasses.asdict(cfg), old)
    assert run_cli("reconstruct", "--dataset", ds, "--out", str(out)) == 1
    err = capsys.readouterr().err
    assert "gan.ckpt" in err and "%d tensors" % len(old) in err


def test_missing_model_file_names_it(tiny_model, tmp_path, capsys):
    """reconstruct without shape_decoder.shd exits 1 naming its path."""
    ds, art = tiny_model
    out = tmp_path / "art"
    shutil.copytree(art, out)
    (out / "shape_decoder.shd").unlink()
    assert run_cli("reconstruct", "--dataset", ds, "--out", str(out)) == 1
    assert str(out / "shape_decoder.shd") in capsys.readouterr().err


def test_oversized_tensor_payload_names_file(tiny_model, tmp_path, capsys):
    """A first tensor dimension of 0xFFFFFFF0 is refused against the bytes
    left in the file before anything is allocated."""
    ds, art = tiny_model
    out = tmp_path / "art"
    shutil.copytree(art, out)
    blob = bytearray((out / "gan.ckpt").read_bytes())
    first_dim = 8 + _header_len(blob) + 8  # after TSR1 and the rank
    blob[first_dim : first_dim + 4] = (0xFFFFFFF0).to_bytes(4, "little")
    (out / "gan.ckpt").write_bytes(bytes(blob))
    assert _evaluate_recon(ds, out) == 1
    assert "gan.ckpt" in capsys.readouterr().err


@pytest.mark.parametrize("name", ["gan.ckpt", "semantic_net.sem",
                                  "shape_decoder.shd", "voxels.bin"])
def test_container_fuzz(tiny_model, tmp_path_factory, name):
    """Truncated, overlong and overwritten artifacts either load with the
    original tensor shapes or raise a DataError naming the file."""
    from shapesem.serial import check_shapes, open_artifact

    ds, art = tiny_model
    src = os.path.join(ds if name == "voxels.bin" else art, name)
    good = open(src, "rb").read()
    magic, path = good[:4], tmp_path_factory.mktemp("fuzz") / name
    with open_artifact(src, magic) as (_, arrays):
        shapes = [a.shape for a in arrays]
    # the header and first tensors, or anywhere in the file
    pos = st.integers(0, min(len(good), 256) - 1) | st.integers(0, len(good) - 1)

    def overwrite(edits):
        blob = bytearray(good)
        for i, byte in edits:
            blob[i] = byte
        return bytes(blob)

    @settings(max_examples=150, deadline=None, database=None)
    @given(st.integers(0, len(good) - 1).map(lambda n: good[:n])
           | st.binary(min_size=1, max_size=64).map(lambda junk: good + junk)
           | st.lists(st.tuples(pos, st.integers(0, 255)), min_size=1,
                      max_size=8).map(overwrite))
    def loads_or_names_file(blob):
        path.write_bytes(blob)
        try:
            with open_artifact(path, magic) as (_, arrays):
                check_shapes(arrays, shapes)
        except DataError as exc:
            assert name in str(exc)

    loads_or_names_file()


@pytest.mark.parametrize("cmd, key", [("train-gan", "gan_batch"),
                                      ("train-semantic", "sem_batch")])
def test_zero_batch_rejected(tiny_model, tmp_path, capsys, cmd, key):
    ds, art = tiny_model
    out = tmp_path / "art"
    shutil.copytree(art, out)
    assert run_cli(cmd, "--seed", "0", "--dataset", ds, "--out", str(out),
                   *TINY_MODELS, "--set", key + "=0") == 1
    assert "batch must be >= 1" in capsys.readouterr().err


def _edit_json(edit):
    """A damage that applies ``edit`` to the parsed manifest."""
    def damage(blob):
        doc = json.loads(blob)
        edit(doc)
        return json.dumps(doc).encode()
    return damage


def _first_record(**fields):
    return _edit_json(lambda doc: doc["records"][0].update(fields))


def _overlap_rois(doc):
    doc["rois"][1][1] = doc["rois"][0][1]


_DATASET_DAMAGE = {
    "truncated": lambda blob: blob[: len(blob) // 2],
    "trailing": lambda blob: blob + bytes(64),
    "no_rois": _edit_json(lambda doc: doc.pop("rois")),
    "category_id 1.7": _first_record(category_id=1.7),
    "category_id true": _first_record(category_id=True),
    "category_id '1'": _first_record(category_id="1"),
    "trial_index 2.9": _first_record(trial_index=2.9),
    "split 1": _first_record(split=1),
    "categories 'ab'": _edit_json(lambda doc: doc.update(categories="ab")),
    "image_size 16.9": _edit_json(lambda doc: doc.update(image_size=16.9)),
    "overlapping rois": _edit_json(_overlap_rois),
}


@pytest.mark.parametrize("name, damage", [
    ("manifest.json", "truncated"), ("manifest.json", "no_rois"),
    ("voxels.bin", "truncated"), ("voxels.bin", "trailing"),
    *(("manifest.json", damage) for damage in list(_DATASET_DAMAGE)[3:])])
def test_damaged_dataset_names_file(tiny_model, tmp_path, capsys, name, damage):
    """A dataset file cut short, followed by junk or missing a manifest key,
    or a manifest value of the wrong JSON kind or a layout or split it
    cannot hold, exits 1 with the file named, instead of a traceback, a
    silent load or a value coerced to an integer."""
    ds, _ = tiny_model
    bad = tmp_path / "ds"
    shutil.copytree(ds, bad)
    (bad / name).write_bytes(_DATASET_DAMAGE[damage]((bad / name).read_bytes()))
    assert run_cli("train-shape", "--seed", "0", "--dataset", str(bad),
                   "--out", str(tmp_path / "art")) == 1
    assert name in capsys.readouterr().err


def test_malformed_pgm_header_names_file(tiny_model, tmp_path, capsys):
    """A stimulus whose PGM header has a non-numeric size exits 1 with the
    image named."""
    ds, _ = tiny_model
    bad = tmp_path / "ds"
    shutil.copytree(ds, bad)
    victim = sorted((bad / "stimuli").iterdir())[0]
    victim.write_bytes(b"P5\nab 16\n255\n" + bytes(256))
    assert run_cli("train-shape", "--seed", "0", "--dataset", str(bad),
                   "--out", str(tmp_path / "art")) == 1
    assert victim.name in capsys.readouterr().err


def test_negative_category_id_names_manifest(tiny_model, tmp_path, capsys):
    """A record with category_id -1 exits 1 with manifest.json named instead
    of training it as the last category."""
    ds, _ = tiny_model
    bad = tmp_path / "ds"
    shutil.copytree(ds, bad)
    doc = json.loads((bad / "manifest.json").read_text())
    doc["records"][0]["category_id"] = -1
    (bad / "manifest.json").write_text(json.dumps(doc))
    assert run_cli("train-semantic", "--seed", "0", "--dataset", str(bad),
                   "--out", str(tmp_path / "art"), *TINY_MODELS) == 1
    err = capsys.readouterr().err
    assert "manifest.json" in err and "category id -1" in err


def _rename_stimulus(manifest, sid):
    """``manifest`` text with the first stimulus's records under ``sid``."""
    doc = json.loads(manifest)
    old = doc["records"][0]["stimulus_id"]
    for rec in doc["records"]:
        if rec["stimulus_id"] == old:
            rec["stimulus_id"] = sid
    return json.dumps(doc), old


@pytest.mark.parametrize("sid", ["../../escaped", "bad\x00id"])
def test_hostile_stimulus_id_names_manifest(tiny_model, tmp_path, capsys, sid):
    """A stimulus_id that leaves the dataset directory, or that no file name
    can hold, exits 1 naming manifest.json; preprocess reads and writes
    nothing, even where the id points at a readable image."""
    ds, _ = tiny_model
    bad = tmp_path / "ds"
    shutil.copytree(ds, bad)
    doc, old = _rename_stimulus((bad / "manifest.json").read_text(), sid)
    (bad / "manifest.json").write_text(doc)
    shutil.copy(bad / "stimuli" / (old + ".pgm"), tmp_path / "escaped.pgm")
    out = tmp_path / "out"
    assert run_cli("preprocess", "--dataset", str(bad),
                   "--out", str(out / "a")) == 1
    assert "manifest.json" in capsys.readouterr().err
    assert not out.exists()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ds", "escaped.pgm"]


def test_manifest_stimulus_id_fuzz(tiny_model, tmp_path_factory, monkeypatch):
    """Any stimulus_id either loads with every image read from under the
    dataset root, or raises a DataError naming manifest.json."""
    from shapesem import dataset

    root = tmp_path_factory.mktemp("ids") / "ds"
    shutil.copytree(tiny_model[0], root)
    manifest = (root / "manifest.json").read_text()
    real_root = os.path.realpath(root) + os.sep
    image = np.zeros((16, 16), dtype=np.float32)
    read = []
    monkeypatch.setattr(dataset, "read_pgm",
                        lambda path: read.append(str(path)) or image)

    @settings(max_examples=50, deadline=None, database=None)
    @given(st.text(st.sampled_from("./\\\x00ab"), max_size=8)
           | st.text(max_size=8))
    def loads_under_root_or_names_manifest(sid):
        (root / "manifest.json").write_text(_rename_stimulus(manifest, sid)[0])
        read.clear()
        try:
            dataset.load_dataset(root)
        except DataError as exc:
            assert "manifest.json" in str(exc)
        else:
            assert read and all("\0" not in p and
                                os.path.realpath(p).startswith(real_root)
                                for p in read)

    loads_under_root_or_names_manifest()


def test_training_artifacts_byte_identical(tiny_model, tmp_path):
    """Repeating the seeded train-semantic and train-gan runs rewrites their
    artifacts byte for byte."""
    ds, art = tiny_model
    again = tmp_path / "again"
    for cmd in ("train-shape", "train-semantic", "train-gan"):
        assert run_cli(cmd, "--seed", "0", "--dataset", ds, "--out", str(again),
                       *TINY_MODELS) == 0
    for name in ("semantic_net.sem", "gan.ckpt", "gan_loss.csv"):
        assert (again / name).read_bytes() == open(os.path.join(art, name),
                                                   "rb").read(), name


@pytest.mark.parametrize("key", ["gan_semantic_dim", "gan_disc_mode"])
def test_removed_key_rejected(tmp_path, capsys, key):
    """The GAN's conditioning width is the semantic net's, and its
    discriminator is always the patch one: neither is a key."""
    assert run_cli("simulate", "--seed", "1", "--out", str(tmp_path / "d"),
                   "--set", key + "=8") == 1
    assert key in capsys.readouterr().err


def test_runs_checked_with_the_config():
    """runs < 1 is refused while the config is resolved, before any stage
    loads or trains a model."""
    with pytest.raises(CliError, match="runs"):
        resolve_config(SimpleNamespace(set=["runs=0"]))


@pytest.mark.parametrize("cmd, settings, name", [
    ("simulate", "patch_size=0", "patch_size"),
    ("train-shape", "patch_size=0", "patch_size"),
    ("train-shape", "patch_size=-8", "patch_size"),
    ("evaluate", "runs=0", "runs"),
    ("evaluate", "runs=-1", "runs"),
    ("train-gan", "mode=nosemantics", "mode"),
    ("evaluate", "mode=no_augmentation", "mode"),
    ("train-semantic", "sem_hidden1=0", "hidden1"),
    ("train-semantic", "sem_epochs=0", "epochs"),
    ("train-gan", "gan_base_channels=0", "base_channels"),
    ("train-gan", "gan_base_channels=-1", "base_channels"),
    ("train-gan", "gan_epochs=-1 gan_decay_start=-2", "epochs"),
    ("simulate", "n_train=0", "n_train"),
    ("simulate", "n_test=0", "n_test"),
    ("simulate", "train_trials=0", "train_trials"),
    ("simulate", "test_trials=0", "test_trials"),
    ("simulate", "image_size=1048576", "image_size"),
    ("simulate", "n_train=1000000000", "n_train"),
    ("simulate", "noise_sigma=inf", "noise_sigma"),
    ("train-shape", "shape_lambda=-1", "shape_lambda"),
    ("train-shape", "shape_lambda=nan", "shape_lambda"),
    ("train-gan", "gan_lr=-1", "lr"),
    ("train-gan", "gan_lr=nan", "lr"),
    ("train-gan", "gan_lambda_img=-5", "lambda_img"),
    ("train-gan", "gan_decay_start=-5", "decay_start"),
    ("train-semantic", "sem_lr=-1", "lr"),
    ("train-semantic", "sem_lr=nan", "lr"),
    ("train-semantic", "sem_lr=inf", "lr"),
    ("train-gan", "gan_base_channels=%d" % 10 ** 15, "base_channels"),
    ("train-semantic", "sem_hidden1=%d" % 10 ** 15, "hidden1"),
    ("simulate", "--seed=-1", "seed"),
    ("train-semantic", "--seed=-1", "seed"),
    ("train-gan", "--seed=-1", "seed"),
    ("evaluate", "--seed=-1", "seed"),
    ("ablate roi", "--seed=-1", "seed"),
    ("simulate", "--seed=abc", "seed"),
    ("evaluate", "--runs=x", "runs"),
    ("evaluate", "--runs=-1", "runs"),
    ("ablate semantics", "--runs=0", "runs"),
    ("train-gan", "--mode=x", "mode"),
    ("evaluate", "--metric=x", "metric"),
])
def test_bad_setting_names_it(tiny_model, tmp_path, capsys, cmd, settings, name):
    """A value out of its range exits 1 naming the key or field, instead of
    a traceback from deep inside a stage, a MemoryError or a silent result.
    A setting that starts with -- is a flag, which wins over the --seed 0
    here."""
    ds, art = tiny_model
    out = tmp_path / "art"
    shutil.copytree(art, out)
    argv = [*cmd.split(), "--seed", "0", "--out", str(out), *TINY_MODELS]
    if cmd != "simulate":
        argv += ["--dataset", ds]
    for item in settings.split():
        argv += [item] if item.startswith("--") else ["--set", item]
    assert run_cli(*argv) == 1
    assert name in capsys.readouterr().err


_HOSTILE_VALUES = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["nan", "-nan", "inf", "-inf", "1e400", "-0", "0x10",
                     " 7 ", "", "true", "1_000", "2.5", "16 16"]),
    st.integers(-2 ** 80, 2 ** 80).map(str),
    st.integers(0, 80).map(lambda k: str(2 ** k)),
    st.floats().map(repr))


@settings(max_examples=400, deadline=500, database=None)
@given(st.sampled_from(sorted(KNOWN_KEYS)), _HOSTILE_VALUES,
       st.sampled_from(["set", "flag", "file"]))
def test_any_key_value_gives_a_config_or_names_the_key(tmp_path_factory, key,
                                                       value, source):
    """One key set to an adversarial string, by --set, by its flag or by a
    line of a --config file, gives the simulator's, the semantic net's and
    the GAN's configs (with their derived fields as the commands set them),
    or a CliError or ConfigError that names the key, or for a prefixed key
    its field, or for a file line the file and line; nothing else escapes.
    No simulation or training runs."""
    args = SimpleNamespace(set=["%s=%s" % (key, value)])
    if source == "flag" and key in FLAG_KEYS:
        args = SimpleNamespace(**{key: value})
    path = tmp_path_factory.getbasetemp() / "hostile.cfg"
    if source == "file":
        path.write_text("%s = %s\n" % (key, value), encoding="utf-8")
        args = SimpleNamespace(config=str(path))
    field = key.partition("_")[2] if key.startswith(("sem_", "gan_")) else key
    try:
        cfg = resolve_config(args)
        _config(cfg, SyntheticConfig)
        _config(cfg, SemanticNetConfig, in_dim=1200, n_classes=10)
        _config(cfg, GanTrainConfig, resolution=cfg["image_size"])
    except (CliError, ConfigError) as exc:
        named = field in str(exc) or (source == "file" and "%s:" % path in str(exc))
        assert named, (key, value, source, str(exc))


def _recon_labels(art):
    with open(art / "report_recon.csv", newline="") as fh:
        return {row["label"] for row in csv.DictReader(fh)
                if row["metric"] != "reference_win_rate"}


def test_recon_report_labels_unconditioned_checkpoint(tiny_model, tmp_path):
    """A gan.ckpt trained without semantics is reported as no_semantics,
    although the mode key is left at its default."""
    ds, art = tiny_model
    out = tmp_path / "art"
    shutil.copytree(art, out)
    assert run_cli("train-gan", "--seed", "0", "--dataset", ds, "--out", str(out),
                   "--mode", "no_semantics", *TINY_MODELS) == 0
    assert _evaluate_recon(ds, out) == 0
    assert _recon_labels(out) == {"no_semantics"}


@pytest.mark.parametrize("cmd", ["reconstruct", "evaluate"])
def test_recon_report_refuses_mode_the_checkpoint_is_not(tiny_model, tmp_path,
                                                         capsys, cmd):
    """mode=no_semantics against a conditioned gan.ckpt exits 1 naming the
    key and the file, and writes nothing: no images, report or manifest
    that record the wrong model."""
    ds, art = tiny_model
    out = tmp_path / "art"
    shutil.copytree(art, out)
    before = sorted(os.listdir(out))
    argv = [cmd, "--dataset", ds, "--out", str(out), "--seed", "0"]
    assert run_cli(*argv, "--set", "mode=no_semantics") == 1
    err = capsys.readouterr().err
    assert "mode" in err and str(out / "gan.ckpt") in err
    assert sorted(os.listdir(out)) == before
    assert run_cli(*argv) == 0
    if cmd == "evaluate":
        assert _recon_labels(out) == {"full"}


@pytest.mark.parametrize("cmd", ["train-gan", "reconstruct", "evaluate"])
def test_model_reader_leaves_no_out_dir(tiny_model, tmp_path, capsys, cmd):
    """A command that loads its models from --out does not make it: a
    mistyped --out exits 1 naming the missing model file and leaves no
    empty directory behind."""
    ds, _ = tiny_model
    typo = tmp_path / "typo"
    assert run_cli(cmd, "--dataset", ds, "--out", str(typo), "--seed", "0") == 1
    assert str(typo / "shape_decoder.shd") in capsys.readouterr().err
    assert not typo.exists()


def test_shape_evaluate_uses_decoder_patch_size(noiseless_run, tmp_path):
    """Masks are projected at the patch size the decoder was fitted with,
    whatever the patch_size key says."""
    ds, art = noiseless_run
    out = tmp_path / "art"
    shutil.copytree(art, out)
    reports = []
    for extra in ([], ["--set", "patch_size=4"]):
        assert run_cli("evaluate", "--dataset", ds, "--out", str(out),
                       "--metric", "shape", "--seed", "0", *extra) == 0
        reports.append((out / "report_shape.csv").read_bytes())
    assert reports[0] == reports[1]


def test_ablate_honours_semantic_keys(tiny_model, tmp_path, monkeypatch):
    """ablate semantics trains the semantic net the sem_* keys describe."""
    import shapesem.cli as cli
    from shapesem.evaluation import EvalReport

    ds, _ = tiny_model
    calls = []

    def spy(ds, gan_config, mode, **kwargs):
        calls.append((mode, kwargs["semantic_config"]))
        return SimpleNamespace(report=EvalReport([0.5], [0.5], 0.5))

    monkeypatch.setattr(cli, "run_pipeline", spy)
    assert run_cli("ablate", "semantics", "--seed", "3", "--dataset", ds,
                   "--out", str(tmp_path / "art"), "--set", "sem_hidden1=16",
                   "--set", "sem_hidden2=8", "--set", "sem_epochs=2") == 0
    assert [mode for mode, _ in calls] == ["full", "no_semantics"]
    for _, sem in calls:
        assert (sem.hidden1, sem.hidden2, sem.epochs, sem.seed) == (16, 8, 2, 3)


def test_ablate_augmentation_drops_only_the_images(tiny_model, tmp_path,
                                                   monkeypatch):
    """no_augmentation is the full pipeline run without the augmentation
    images, not a mode of its own."""
    import shapesem.cli as cli
    from shapesem.dataset import load_dataset
    from shapesem.evaluation import EvalReport

    ds, _ = tiny_model
    calls = []

    def spy(ds, gan_config, mode, **kwargs):
        calls.append((mode, kwargs.get("augment_images")))
        return SimpleNamespace(report=EvalReport([0.5], [0.5], 0.5))

    monkeypatch.setattr(cli, "run_pipeline", spy)
    art = tmp_path / "art"
    assert run_cli("ablate", "augmentation", "--seed", "0", "--dataset", ds,
                   "--out", str(art), *TINY_MODELS) == 0
    (full_mode, aug), (drop_mode, no_aug) = calls
    assert (full_mode, drop_mode, no_aug) == ("full", "full", None)
    train = load_dataset(ds).split_records("train")
    assert [label for _, label in aug] == [r.category_id for r in train]
    with open(art / "ablation_augmentation.csv", newline="") as fh:
        labels = {row[1] for row in csv.reader(fh) if row[0] == "mean_win_rate"}
    assert labels == {"full", "no_augmentation"}


def test_ablate_augmentation_with_small_semantic_net(tiny_model, tmp_path):
    """The GAN's conditioning width follows sem_hidden2 in ablate too."""
    ds, _ = tiny_model
    art = tmp_path / "art"
    assert run_cli("ablate", "augmentation", "--seed", "0", "--dataset", ds,
                   "--out", str(art), "--runs", "2", *TINY_MODELS) == 0
    with open(art / "ablation_augmentation.csv", newline="") as fh:
        labels = {row[1] for row in csv.reader(fh) if row[0] == "mean_win_rate"}
    assert labels == {"full", "no_augmentation"}


def test_missing_mask_names_file(tiny_model, tmp_path, capsys):
    """A dataset without one training mask PGM exits 1 with the mask named,
    instead of a KeyError from inside the shape decoder."""
    ds, _ = tiny_model
    bad = tmp_path / "ds"
    shutil.copytree(ds, bad)
    victim = bad / "masks" / "train_0003.pgm"
    victim.unlink()
    assert run_cli("train-shape", "--seed", "0", "--dataset", str(bad),
                   "--out", str(tmp_path / "art")) == 1
    assert victim.name in capsys.readouterr().err


@pytest.mark.parametrize("folder", ["stimuli", "masks"])
def test_mixed_size_pgm_names_file(tiny_model, tmp_path, capsys, folder):
    """One valid 8x8 PGM in a 16-pixel dataset exits 1 with the image named,
    in every command that loads the dataset, instead of a reshape error
    from the shape decoder or a silent success."""
    ds, _ = tiny_model
    bad = tmp_path / "ds"
    shutil.copytree(ds, bad)
    victim = bad / folder / "train_0000.pgm"
    victim.write_bytes(b"P5\n8 8\n255\n" + bytes(range(64)))
    for cmd in ("train-shape", "train-semantic"):
        assert run_cli(cmd, "--seed", "0", "--dataset", str(bad),
                       "--out", str(tmp_path / "art"), *TINY_MODELS) == 1
        assert str(victim) in capsys.readouterr().err


def test_ablate_roi_honours_semantic_keys(tiny_model, tmp_path, monkeypatch):
    """ablate roi trains each ROI set's classifier as the sem_* keys
    describe, with that set's voxel count as its input width."""
    from shapesem import evaluation

    ds, _ = tiny_model
    calls = []
    train_semantic = evaluation.train_semantic

    def spy(ds, config=None, roi_set="HVC", seed=0):
        calls.append((roi_set, config, len(ds.layout.indices(roi_set))))
        return train_semantic(ds, config, roi_set=roi_set, seed=seed)

    monkeypatch.setattr(evaluation, "train_semantic", spy)
    assert run_cli("ablate", "roi", "--seed", "0", "--dataset", ds,
                   "--out", str(tmp_path / "art"), "--runs", "2",
                   "--set", "sem_hidden1=8", "--set", "sem_epochs=2") == 0
    assert [roi for roi, _, _ in calls] == ["V1", "V2", "V3", "LVC", "HVC", "VC"]
    for _, config, n_voxels in calls:
        assert (config.hidden1, config.epochs, config.in_dim) == (8, 2, n_voxels)


def test_pgm_trailing_bytes_names_file(tiny_model, tmp_path, capsys):
    """A stimulus PGM with bytes after its payload exits 1 with the image
    named instead of loading silently."""
    ds, _ = tiny_model
    bad = tmp_path / "ds"
    shutil.copytree(ds, bad)
    victim = sorted((bad / "stimuli").iterdir())[0]
    victim.write_bytes(victim.read_bytes() + b"junkjunk")
    assert run_cli("train-shape", "--seed", "0", "--dataset", str(bad),
                   "--out", str(tmp_path / "art")) == 1
    assert victim.name in capsys.readouterr().err


def _rewrite_header(path, **fields):
    """Save the artifact at ``path`` again with ``fields`` set in its
    header and its tensors unchanged."""
    from shapesem.serial import open_artifact, save_artifact

    magic = path.read_bytes()[:4]
    with open_artifact(path, magic) as (header, arrays):
        pass
    save_artifact(path, magic, dict(header, **fields), arrays)


@pytest.mark.parametrize("name, field, value", [
    *(pytest.param(name, field, 10 ** 15, id="%s-%s" % (name, field))
      for name, field in [("gan.ckpt", "base_channels"),
                          ("semantic_net.sem", "hidden1"),
                          ("semantic_net.sem", "in_dim")]),
    ("gan.ckpt", "batch", 4.0),
    ("gan.ckpt", "batch", True),
    ("gan.ckpt", "epochs", 2.5),
    ("semantic_net.sem", "batch", 2.5),
    ("shape_decoder.shd", "grid", 2.0),
])
def test_oversized_network_header_names_file(tiny_model, tmp_path, capsys,
                                             name, field, value):
    """An artifact header asking for a network above the parameter budget,
    or whose integer field holds a float or a bool, exits 1 naming the file
    and the field, before any tensor of that network exists, instead of a
    TypeError from deep inside a stage or a run with the value taken for an
    integer."""
    ds, art = tiny_model
    out = tmp_path / "art"
    shutil.copytree(art, out)
    _rewrite_header(out / name, **{field: value})
    assert _evaluate_recon(ds, out) == 1
    err = capsys.readouterr().err
    assert name in err and field in err


def test_checkpoint_naming_disc_mode_names_file(tiny_model, tmp_path, capsys):
    """A gan.ckpt whose header names disc_mode, as older checkpoints do,
    exits 1 with the file named."""
    from shapesem.gan import CHECKPOINT_MAGIC
    from shapesem.serial import open_artifact, save_artifact

    ds, art = tiny_model
    out = tmp_path / "art"
    shutil.copytree(art, out)
    with open_artifact(out / "gan.ckpt", CHECKPOINT_MAGIC) as (header, arrays):
        pass
    save_artifact(out / "gan.ckpt", CHECKPOINT_MAGIC,
                  dict(header, disc_mode="patch"), arrays)
    assert _evaluate_recon(ds, out) == 1
    err = capsys.readouterr().err
    assert "gan.ckpt" in err and "disc_mode" in err


_HOSTILE_JSON = st.one_of(
    st.none(), st.booleans(), st.integers(-2 ** 70, 2 ** 70),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6),
    st.lists(st.integers(-3, 3), max_size=3))


def _holds_its_kinds(config):
    """Whether every int field of ``config`` holds an int and every float
    field a finite int or float; a bool is neither."""
    for f in dataclasses.fields(config):
        value = getattr(config, f.name)
        if f.type == "int" and type(value) is not int:
            return False
        if f.type == "float" and (type(value) not in (int, float)
                                  or not np.isfinite(float(value))):
            return False
    return True


@pytest.mark.parametrize("name", ["gan.ckpt", "semantic_net.sem"])
def test_model_header_fuzz(tiny_model, tmp_path_factory, name):
    """One header field of a trained model set to any JSON value either
    loads a model whose config holds values of its fields' kinds, or
    raises a DataError naming the file."""
    from shapesem.gan import load_checkpoint
    from shapesem.semantic import load_semantic_net
    from shapesem.serial import open_artifact, save_artifact

    src = os.path.join(tiny_model[1], name)
    magic = open(src, "rb").read()[:4]
    with open_artifact(src, magic) as (header, arrays):
        pass
    path = tmp_path_factory.mktemp("headers") / name

    @settings(max_examples=60, deadline=1000, database=None)
    @given(st.sampled_from(sorted(header)), _HOSTILE_JSON)
    def loads_typed_or_names_file(field, value):
        save_artifact(path, magic, dict(header, **{field: value}), arrays)
        try:
            if name == "gan.ckpt":
                config = load_checkpoint(path)[1]
            else:
                net = load_semantic_net(path)
                config = net.config
                assert isinstance(net.roi_set, str)
        except DataError as exc:
            assert name in str(exc)
        else:
            assert _holds_its_kinds(config), (field, value)

    loads_typed_or_names_file()


@pytest.mark.parametrize("value", [np.nan, -np.inf])
@pytest.mark.parametrize("name", ["gan.ckpt", "semantic_net.sem",
                                  "shape_decoder.shd", "voxels.bin"])
def test_non_finite_tensor_names_file(tiny_model, tmp_path, capsys, name,
                                      value):
    """A NaN or an infinity in one tensor of a model or of the voxels exits 1
    naming the file, instead of an evaluation that exits 0 with a win rate
    of NaN images, or a refusal that names only a record."""
    from shapesem.serial import open_artifact, save_artifact

    ds, art = tiny_model
    data, out = tmp_path / "ds", tmp_path / "art"
    shutil.copytree(ds, data)
    shutil.copytree(art, out)
    path = (data if name == "voxels.bin" else out) / name
    magic = path.read_bytes()[:4]
    with open_artifact(path, magic) as (header, arrays):
        pass
    arrays[3].flat[0] = value
    save_artifact(path, magic, header, arrays)
    assert _evaluate_recon(str(data), out) == 1
    assert name in capsys.readouterr().err


def _negative_running_var(path):
    from shapesem.gan import load_checkpoint, save_checkpoint
    from shapesem.nn import BatchNorm2d

    gen, _ = load_checkpoint(path)
    next(bn for bn in gen.layers if isinstance(bn, BatchNorm2d)).running_var[0] = -1
    save_checkpoint(path, gen)


def _zero_x_std(path):
    from shapesem.semantic import load_semantic_net, save_semantic_net

    net = load_semantic_net(path)
    net.x_std[0] = 0.0
    save_semantic_net(net, path)


def _decoder_rois(path, rois, arrays_of):
    """Save the shape decoder at ``path`` again with ``rois`` in its header
    and the tensors ``arrays_of`` makes of its own."""
    from shapesem.serial import open_artifact, save_artifact

    with open_artifact(path, b"SHD1") as (header, arrays):
        pass
    save_artifact(path, b"SHD1", dict(header, rois=rois(header["rois"])),
                  arrays_of(arrays))


@pytest.mark.parametrize("name, edit", [
    pytest.param("gan.ckpt", _negative_running_var, id="negative-running_var"),
    pytest.param("semantic_net.sem", _zero_x_std, id="zero-x_std"),
    pytest.param("shape_decoder.shd", lambda path: _decoder_rois(
        path, lambda rois: [], lambda arrays: [arrays[-1][:, :, :0]]),
        id="no-rois"),
    pytest.param("shape_decoder.shd", lambda path: _decoder_rois(
        path, lambda rois: [["V1", n, lam] for _, n, lam in rois],
        lambda arrays: arrays), id="duplicate-rois"),
])
def test_value_the_math_cannot_use_names_file(tiny_model, tmp_path, capsys,
                                              name, edit):
    """A model whose tensors and header agree but hold what its math cannot
    use exits 1 naming the file: a negative batch-norm variance (square
    root of it), a zero input scale (division by it), a decoder without
    ROIs (nothing to combine) or one ROI named three times (one decoder
    under a three-column combiner, the others' weights dropped)."""
    ds, art = tiny_model
    out = tmp_path / "art"
    shutil.copytree(art, out)
    edit(out / name)
    assert _evaluate_recon(ds, out) == 1
    assert name in capsys.readouterr().err


def test_shape_decoder_header_fuzz(tiny_model, tmp_path_factory):
    """A shape_decoder.shd made of any list of the trained ROI entries, with
    their tensors and combiner columns, where an entry's name, width or
    lambda, and the grid or patch_size, may be set to any value, makes
    evaluate --metric shape exit 0, or exit 1 naming the file; no exception
    escapes."""
    from shapesem.serial import open_artifact, save_artifact

    ds, art = tiny_model
    out = tmp_path_factory.mktemp("decoders")
    shutil.copytree(art, out, dirs_exist_ok=True)
    path = out / "shape_decoder.shd"
    with open_artifact(path, b"SHD1") as (header, arrays):
        pass
    value = (st.sampled_from(["V1", "V2", "V3", "LOC", "LVC", "VC"])
             | st.integers(-2, 1000) | _HOSTILE_JSON)
    entry = st.tuples(st.integers(0, len(header["rois"]) - 1),
                      st.none() | st.tuples(st.integers(0, 2), value))
    edit = st.none() | st.tuples(st.sampled_from(["grid", "patch_size"]), value)
    argv = ["evaluate", "--metric", "shape", "--runs", "2", "--seed", "0",
            "--dataset", ds, "--out", str(out)]

    @settings(max_examples=100, deadline=1000, database=None)
    @given(st.lists(entry, max_size=4, unique_by=lambda e: e[0])
           | st.lists(entry, max_size=4), edit)
    def runs_or_names_file(entries, edit):
        rois, tensors = [], []
        for i, change in entries:
            rois.append(list(header["rois"][i]))
            if change:
                rois[-1][change[0]] = change[1]
            tensors += arrays[2 * i : 2 * i + 2]
        fields = dict(header, rois=rois)
        if edit:
            fields[edit[0]] = edit[1]
        columns = arrays[-1][:, :, [i for i, _ in entries]]
        save_artifact(path, b"SHD1", fields, tensors + [columns])
        code, _, err = cli_recipe.run(main, argv)
        assert code == 0 or (code == 1 and "shape_decoder.shd" in err), err

    runs_or_names_file()


@pytest.fixture(scope="module")
def misfits(tiny_model, tmp_path_factory):
    """(dataset, model dir) pairs whose models were trained for other data:
    the tiny models on a dataset with 100 V1 voxels and on one of 32
    pixels, a 16-pixel gan.ckpt next to a shape decoder refitted at 32
    pixels, a semantic_net.sem whose header names V1 as its ROI set, and
    one retrained at hidden2 6 for a gan.ckpt conditioned on 4."""
    from shapesem.dataset import DEFAULT_VOXELS, save_dataset, simulate

    ds, art = tiny_model
    root = tmp_path_factory.mktemp("misfits")
    v1_100, big = str(root / "v1_100"), str(root / "big")
    save_dataset(simulate(SyntheticConfig(
        image_size=16, categories=2, n_train=8, n_test=4, test_trials=1,
        voxels_per_roi=dict(DEFAULT_VOXELS, V1=100)))[0], v1_100)
    assert run_cli("simulate", "--seed", "0", "--out", big, *TINY_SIM,
                   "--set", "image_size=32") == 0
    made = {"v1_100": (v1_100, art), "size_32": (big, art)}
    for label, cmd, data, extra in [("refit_32", "train-shape", big, []),
                                    ("hidden2_6", "train-semantic", ds,
                                     ["--set", "sem_hidden2=6"]),
                                    ("roi_set_v1", None, ds, [])]:
        out = root / label
        shutil.copytree(art, out)
        if cmd:
            assert run_cli(cmd, "--seed", "0", "--dataset", data, "--out",
                           str(out), *TINY_MODELS, *extra) == 0
        else:
            _rewrite_header(out / "semantic_net.sem", roi_set="V1")
        made[label] = (data, str(out))
    return made


@pytest.mark.parametrize("case, cmd, names", [
    ("v1_100", "reconstruct", ["shape_decoder.shd"]),
    ("v1_100", "evaluate --metric shape", ["shape_decoder.shd"]),
    ("v1_100", "train-gan", ["shape_decoder.shd"]),
    ("size_32", "reconstruct", ["shape_decoder.shd"]),
    ("size_32", "evaluate --metric recon", ["shape_decoder.shd"]),
    ("refit_32", "reconstruct", ["gan.ckpt"]),
    ("roi_set_v1", "reconstruct", ["semantic_net.sem"]),
    ("hidden2_6", "reconstruct", ["semantic_net.sem", "gan.ckpt"]),
])
def test_model_that_does_not_fit_names_it(misfits, tmp_path, capsys, case,
                                          cmd, names):
    """A model trained for another ROI layout, image size or semantic width
    exits 1 naming its file, before any voxel meets its weights."""
    ds, art = misfits[case]
    out = tmp_path / "art"
    shutil.copytree(art, out)
    argv = [*cmd.split(), "--seed", "0", "--dataset", ds, "--out", str(out),
            *TINY_MODELS]
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert all(name in err for name in names), err


def _manifest_values(doc):
    """What a dataset holds of its manifest, as the manifest writes it."""
    return json.dumps({key: doc[key] for key in ("rois", "categories",
                                                 "image_size", "records")},
                      sort_keys=True)


def test_manifest_value_fuzz(tiny_model, tmp_path_factory):
    """One manifest value set to any JSON value either loads a dataset that
    holds exactly the manifest's values, or raises a DataError or
    LayoutError naming a file of the dataset."""
    from shapesem.dataset import load_dataset, save_dataset

    root = tmp_path_factory.mktemp("manifests") / "ds"
    shutil.copytree(tiny_model[0], root)
    good = json.loads((root / "manifest.json").read_text())
    rec, roi = st.integers(0, len(good["records"]) - 1), st.integers(0, 5)
    where = st.one_of(
        st.sampled_from(sorted(good)).map(lambda k: (k,)),
        st.tuples(st.just("records"), rec,
                  st.sampled_from(sorted(good["records"][0]))),
        st.tuples(st.just("rois"), roi, st.integers(0, 2)))
    saved = tmp_path_factory.mktemp("resaved")

    @settings(max_examples=80, deadline=1000, database=None)
    @given(where, _HOSTILE_JSON)
    def loads_as_written_or_names_file(keys, value):
        doc = json.loads(json.dumps(good))
        node = doc
        for k in keys[:-1]:
            node = node[k]
        node[keys[-1]] = value
        (root / "manifest.json").write_text(json.dumps(doc))
        try:
            ds = load_dataset(root)
        except (DataError, LayoutError) as exc:
            assert str(root) in str(exc)
        else:
            save_dataset(ds, saved)
            back = json.loads((saved / "manifest.json").read_text())
            assert _manifest_values(back) == _manifest_values(doc), keys

    loads_as_written_or_names_file()



# -- the reconstruction stack -------------------------------------------

STACK = "reconstructions.rec"


@pytest.fixture(scope="module")
def tiny_stack(tiny_model, tmp_path_factory):
    """The tiny models with the stack ``reconstruct`` stores beside them."""
    ds, art = tiny_model
    out = tmp_path_factory.mktemp("stack") / "art"
    shutil.copytree(art, out)
    assert run_cli("reconstruct", "--dataset", ds, "--out", str(out)) == 0
    return ds, out


def _stack_copy(tiny_stack, tmp_path):
    ds, art = tiny_stack
    out = tmp_path / "art"
    shutil.copytree(art, out)
    return ds, out


def test_recon_report_from_stack_is_rendered_report(tiny_stack, tmp_path,
                                                    monkeypatch):
    """evaluate --metric recon scores the stack without rendering a test
    record, and writes the report bytes it writes rendering them once the
    stack is gone."""
    import shapesem.cli

    ds, out = _stack_copy(tiny_stack, tmp_path)

    def no_render(*args):
        raise AssertionError("rendered although the stack is present")

    with monkeypatch.context() as patch:
        patch.setattr(shapesem.cli, "reconstruct_records", no_render)
        assert _evaluate_recon(ds, out) == 0
    scored = (out / "report_recon.csv").read_bytes()
    (out / STACK).unlink()
    assert _evaluate_recon(ds, out) == 0
    assert (out / "report_recon.csv").read_bytes() == scored


def _refused(ds, out, capsys, *names):
    """evaluate --metric recon exits 1 naming each of ``names`` and changes
    nothing in ``out``: no report, no manifest."""
    before = dir_bytes(out)
    assert _evaluate_recon(ds, out) == 1
    err = capsys.readouterr().err
    assert all(name in err for name in names), err
    assert dir_bytes(out) == before
    return err


@pytest.mark.parametrize("change", ["shape_lambda", "gan_seed", "dataset"])
def test_stale_stack_names_it_and_the_input(tiny_stack, tmp_path, capsys,
                                            change):
    """A stack rendered from another shape decoder, another gan.ckpt or
    other test records than those evaluate loads exits 1 naming the stack
    and the input that changed."""
    ds, out = _stack_copy(tiny_stack, tmp_path)
    retrain = ["--dataset", ds, "--out", str(out), *TINY_MODELS]
    if change == "shape_lambda":
        assert run_cli("train-shape", "--seed", "0", *retrain,
                       "--set", "shape_lambda=3.5") == 0
        changed = "shape_decoder.shd"
    elif change == "gan_seed":
        assert run_cli("train-gan", "--seed", "1", *retrain) == 0
        changed = "gan.ckpt"
    else:
        ds = str(tmp_path / "ds1")
        assert run_cli("simulate", "--seed", "1", "--out", ds, *TINY_SIM) == 0
        changed = "other test records than those of %s" % ds
    capsys.readouterr()
    err = _refused(ds, out, capsys, str(out / STACK), changed)
    assert "stale" in err


def _stack_edit(edit):
    """Save the stack again with its one tensor as ``edit`` makes it."""
    def damage(path):
        from shapesem.serial import open_artifact, save_artifact

        with open_artifact(path, b"REC1") as (header, arrays):
            pass
        save_artifact(path, b"REC1", header, [edit(arrays[0])])
    return damage


def _set_first(value):
    def edit(stack):
        stack.flat[0] = value
        return stack
    return edit


@pytest.mark.parametrize("damage, message", [
    (lambda path: path.write_bytes(path.read_bytes()[:-1]), "overruns"),
    (lambda path: path.write_bytes(path.read_bytes() + bytes(64)),
     "bad tensor magic"),
    (_stack_edit(_set_first(np.nan)), "non-finite"),
    (_stack_edit(lambda stack: stack[:-1]), "tensor 0 has shape"),
    (_stack_edit(_set_first(1.5)), "outside [0, 1]"),
], ids=["truncated", "trailing", "nan", "shape", "pixel-1.5"])
def test_damaged_stack_names_it(tiny_stack, tmp_path, capsys, damage,
                                message):
    """A stack cut short, followed by junk, holding a NaN or a pixel above
    1, or not one image per test record, exits 1 naming it."""
    ds, out = _stack_copy(tiny_stack, tmp_path)
    damage(out / STACK)
    _refused(ds, out, capsys, str(out / STACK), message)


@pytest.mark.parametrize("case", ["mode", "damaged-gan.ckpt"])
def test_model_refusals_come_before_the_stack(tiny_stack, tmp_path, capsys,
                                              case):
    """With a stack present, mode=no_semantics against a conditioned
    gan.ckpt and a damaged gan.ckpt are refused as without one, naming
    gan.ckpt, not the stack."""
    ds, out = _stack_copy(tiny_stack, tmp_path)
    argv = ["evaluate", "--dataset", ds, "--out", str(out), "--metric",
            "recon", "--seed", "0"]
    if case == "mode":
        argv += ["--set", "mode=no_semantics"]
    else:
        ckpt = out / "gan.ckpt"
        ckpt.write_bytes(ckpt.read_bytes()[:-1])
    before = dir_bytes(out)
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert str(out / "gan.ckpt") in err and STACK not in err
    if case == "mode":
        assert "mode" in err
    assert dir_bytes(out) == before


def test_stack_header_fuzz(tiny_stack, tmp_path_factory):
    """The stack's header, or one field of it, set to any JSON value either
    scores the stack into the same report bytes or exits 1 naming the
    stack; it never escapes as a traceback."""
    from shapesem.serial import open_artifact, save_artifact

    ds, art = tiny_stack
    out = tmp_path_factory.mktemp("stack_headers") / "art"
    shutil.copytree(art, out)
    path = out / STACK
    with open_artifact(path, b"REC1") as (header, arrays):
        pass
    assert _evaluate_recon(ds, out) == 0
    report = (out / "report_recon.csv").read_bytes()
    argv = ["evaluate", "--dataset", ds, "--out", str(out), "--metric",
            "recon", "--seed", "0"]

    @settings(max_examples=60, deadline=1000, database=None)
    @given(st.sampled_from([None, *sorted(header)]), _HOSTILE_JSON)
    def scores_or_names_stack(field, value):
        save_artifact(path, b"REC1", value if field is None
                      else dict(header, **{field: value}), arrays)
        code, _, err = cli_recipe.run(main, argv)
        assert code in (0, 1) and (code == 0 or str(path) in err), err
        assert (out / "report_recon.csv").read_bytes() == report

    scores_or_names_stack()


@pytest.mark.parametrize("writer", ["save_artifact", "write_csv",
                                    "write_manifest"])
def test_interrupted_write_keeps_previous_file(tmp_path, writer):
    """A writer that raises halfway leaves the file it was replacing
    byte-identical and no other file in the directory."""
    from shapesem.cli import write_manifest
    from shapesem.serial import save_artifact, write_csv

    def rows():
        yield [1, 2.5]
        raise RuntimeError("halfway")

    cfg = {key: default for key, (_, default) in KNOWN_KEYS.items()}
    name, write = {
        "save_artifact": ("model.bin", lambda path: save_artifact(
            path, b"GAN1", {"n": 2}, [np.ones(3), "not an array"])),
        "write_csv": ("table.csv", lambda path: write_csv(
            path, ["a", "b"], rows())),
        # a config value json cannot encode stops the dump halfway
        "write_manifest": ("run_manifest_evaluate.json", lambda path:
                           write_manifest(path.parent, "evaluate",
                                          dict(cfg, runs=object()), [])),
    }[writer]
    (tmp_path / name).write_bytes(b"previous run\n")
    with pytest.raises((RuntimeError, TypeError, ValueError)):
        write(tmp_path / name)
    assert os.listdir(tmp_path) == [name]
    assert (tmp_path / name).read_bytes() == b"previous run\n"
