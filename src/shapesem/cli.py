"""Command-line entry point for the full pipeline.

One flat key = value config namespace is shared by all subcommands; a config
file (``--config``, '#' comments) supplies defaults, ``--set`` items override
it and flags win over both; every value goes through its key's converter.
``main`` runs each subcommand: it loads the dataset, makes ``--out``, calls
the command, writes a JSON manifest next to its artifacts with the resolved
config, the seed, and sha256 checksums of everything it wrote, and prints
the command's summary.  ``report`` only reads, and writes no manifest.

Exit codes: 0 success, 1 validation/usage error, 2 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import os
import sys

from .dataset import (Dataset, SyntheticConfig, average_test_trials,
                      load_dataset, save_dataset, simulate, write_pgm)
from .errors import LayoutError, NumericalError, ShapesemError
from .evaluation import (decode_records, fit_gan, pairwise_win_rate,
                         projected_masks, reconstruct_records, report_rows,
                         roi_ablation, run_pipeline, write_montage,
                         write_report_csv)
from .gan import (GanTrainConfig, load_checkpoint, save_checkpoint,
                  write_loss_log)
from .semantic import (SemanticNetConfig, accuracy, load_semantic_net,
                       save_semantic_net, train_semantic)
from .serial import write_csv
from .shape_decoder import (DEFAULT_LAMBDA, fit_shape_decoder,
                            load_shape_decoder, save_shape_decoder)


class CliError(ShapesemError):
    """Usage/validation problem; maps to exit code 1."""


def _parse_bool(s):
    low = str(s).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError("not a boolean")


def _one_of(*options):
    def parse(s):
        if s not in options:
            raise ValueError("expected one of %s" % ", ".join(options))
        return s
    return parse


# config class -> (key prefix, the fields the CLI exposes); each such key
# takes its default and its type from the field.  A field not listed keeps
# its default or is set by the command from the dataset, the seed or the
# trained upstream artifacts.
CONFIG_KEYS = {
    SyntheticConfig: ("", ("image_size", "patch_size", "categories", "n_train",
                           "n_test", "train_trials", "test_trials",
                           "noise_sigma", "identical_shapes")),
    SemanticNetConfig: ("sem_", ("hidden1", "hidden2", "epochs", "lr", "batch")),
    GanTrainConfig: ("gan_", ("epochs", "decay_start", "batch", "lr",
                              "lambda_img", "base_channels")),
}
# each config module uses postponed annotations, so a field's type is its
# name as a string
_CONVERTERS = {"int": int, "float": float, "bool": _parse_bool}


def _field_keys():
    """key -> (converter, default) of every field that CONFIG_KEYS exposes,
    both read from the field."""
    return {prefix + f.name: (_CONVERTERS[f.type], f.default)
            for cls, (prefix, names) in CONFIG_KEYS.items()
            for f in dataclasses.fields(cls) if f.name in names}


# key -> (converter, default); one namespace shared by every subcommand
KNOWN_KEYS = {
    "dataset": (str, None),
    "out": (str, None),
    "seed": (int, 0),
    "runs": (int, 5),
    "mode": (_one_of("full", "no_semantics"), "full"),
    "metric": (_one_of("recon", "shape"), "recon"),
    "shape_lambda": (float, DEFAULT_LAMBDA),
    **_field_keys(),
}
# the keys a flag of the same name sets
FLAG_KEYS = ("dataset", "out", "seed", "runs", "mode", "metric")


def _key_value(text, where):
    """(key, raw value) of one ``key = value`` item; ``where`` names the
    file and line, or the flag, that it came from."""
    key, eq, val = (part.strip() for part in text.partition("="))
    if not eq:
        raise CliError("%s: expected key = value, got: %s" % (where, text))
    if key not in KNOWN_KEYS:
        raise CliError("%s: unknown key %r in: %s" % (where, key, text))
    return key, val


def parse_config_file(path):
    """key = value lines with '#' comments; unknown keys are fatal."""
    if not os.path.exists(path):
        raise CliError("config file not found: %s" % path)
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise CliError("%s: %s" % (path, exc)) from None
    values = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            key, val = _key_value(line, "%s:%d" % (path, lineno))
            values[key] = val
    return values


def resolve_config(args):
    """File defaults, then --set overrides, then explicit flags, each value
    converted by its key's converter."""
    raw = parse_config_file(args.config) if getattr(args, "config", None) else {}
    raw.update(_key_value(item, "--set")
               for item in getattr(args, "set", None) or [])
    raw.update((key, getattr(args, key)) for key in FLAG_KEYS
               if getattr(args, key, None) is not None)
    cfg = {k: default for k, (_, default) in KNOWN_KEYS.items()}
    for key, val in raw.items():
        try:
            cfg[key] = KNOWN_KEYS[key][0](val)
        except (ValueError, TypeError) as exc:
            raise CliError("bad value for %s: %r (%s)" % (key, val, exc)) from None
    if getattr(args, "needs_seed", False) and "seed" not in raw:
        raise CliError("the seed key is required: --seed, --set seed=N or "
                       "seed = N in --config")
    if cfg["seed"] < 0:
        raise CliError("seed must be >= 0, got %d" % cfg["seed"])
    if cfg["runs"] < 1:
        raise CliError("runs must be >= 1, got %d" % cfg["runs"])
    return cfg


def _require_out(cfg, make):
    """The --out directory, made and checked writable if ``make``."""
    if not cfg["out"]:
        raise CliError("an output directory is required (--out)")
    if make:
        os.makedirs(cfg["out"], exist_ok=True)
        if not os.access(cfg["out"], os.W_OK):
            raise CliError("output dir not writable: %s" % cfg["out"])
    return cfg["out"]


def _load_ds(cfg) -> Dataset:
    """The dataset with its repeated test trials averaged."""
    if not cfg["dataset"]:
        raise CliError("a dataset directory is required (--dataset)")
    return average_test_trials(load_dataset(cfg["dataset"]))


def _artifact(cfg, name):
    return os.path.join(cfg["out"], name)


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir, subcommand, cfg, written):
    """Deterministic provenance record for one run."""
    checksums = {}
    for path in sorted(written):
        rel = os.path.relpath(path, out_dir)
        checksums[rel] = _sha256(path)
    doc = {
        "subcommand": subcommand,
        "seed": cfg["seed"],
        # paths are machine-local, so they stay out of the snapshot to keep
        # equal-config runs byte-identical
        "config": {k: cfg[k] for k in sorted(KNOWN_KEYS)
                   if k not in ("dataset", "out")},
        "artifacts": checksums,
    }
    path = os.path.join(out_dir, "run_manifest_%s.json" % subcommand.replace("-", "_"))
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _config(cfg, cls, **derived):
    """``cls`` from its keys in ``cfg``, the seed and the derived fields."""
    prefix, names = CONFIG_KEYS[cls]
    return cls(**{n: cfg[prefix + n] for n in names}, seed=cfg["seed"], **derived)


def _sem_config(cfg, ds: Dataset) -> SemanticNetConfig:
    return _config(cfg, SemanticNetConfig, n_classes=ds.n_categories,
                   in_dim=len(ds.layout.indices("HVC")))


# -- subcommand bodies --------------------------------------------------
# each takes the resolved config, the averaged dataset (None for a command
# without --dataset) and the --out directory, and returns the paths it wrote
# and its summary line

def cmd_simulate(cfg, _, out):
    ds, _ = simulate(_config(cfg, SyntheticConfig))
    written = save_dataset(ds, out)
    return written, ("simulate: wrote dataset with %d records to %s"
                     % (len(ds.records), out))


def cmd_preprocess(cfg, ds, out):
    return save_dataset(ds, out), "preprocess: averaged test trials into %s" % out


def cmd_train_shape(cfg, ds, out):
    dec = fit_shape_decoder(ds, lam=cfg["shape_lambda"], m=cfg["patch_size"])
    path = _artifact(cfg, "shape_decoder.shd")
    save_shape_decoder(dec, path)
    return [path], "train-shape: wrote %s" % path


def cmd_train_semantic(cfg, ds, out):
    net = train_semantic(ds, _sem_config(cfg, ds), roi_set="HVC",
                         seed=cfg["seed"])
    path = _artifact(cfg, "semantic_net.sem")
    save_semantic_net(net, path)
    acc = accuracy(net, ds, ds.split_records("train"))
    return [path], "train-semantic: wrote %s (train accuracy %.3f)" % (path, acc)


def _voxels_fit(path, roi, n, layout):
    """CliError naming ``path`` unless the layout has ``n`` voxels in
    ``roi``, the ROI or ROI set the model at ``path`` reads."""
    try:
        have = len(layout.indices(roi))
    except LayoutError as exc:
        raise CliError("%s: %s" % (path, exc)) from None
    if have != n:
        raise CliError("%s reads %d voxels of %s, but the dataset has %d"
                       % (path, n, roi, have))


def _models(cfg, ds, semantic=False, gan=False):
    """(shape decoder, semantic net, generator) from --out, the last two
    None unless asked for; with ``gan`` the semantic net loads when the
    checkpoint is conditioned, which the mode key may not contradict.  Each
    model is checked against the dataset and the others, so one trained for
    other data exits 1 naming its file."""
    path = _artifact(cfg, "shape_decoder.shd")
    dec = load_shape_decoder(path)
    for roi, base in dec.decoders.items():
        _voxels_fit(path, roi, base.weights.shape[0], ds.layout)
    grid = dec.combiner.weights.shape[0]
    if grid * dec.patch_size != ds.image_size:
        raise CliError("%s: grid %d x patch_size %r, but the dataset's "
                       "image_size is %d" % (path, grid, dec.patch_size,
                                             ds.image_size))
    gen = None
    if gan:
        ckpt = _artifact(cfg, "gan.ckpt")
        gen, gan_cfg = load_checkpoint(ckpt)
        if gan_cfg.resolution != ds.image_size:
            raise CliError("%s: resolution %d, but the dataset's image_size "
                           "is %d" % (ckpt, gan_cfg.resolution, ds.image_size))
        if gan_cfg.semantic_dim and cfg["mode"] == "no_semantics":
            raise CliError("mode=no_semantics, but %s is conditioned on "
                           "semantics" % ckpt)
        semantic = gan_cfg.semantic_dim > 0
    sem_net = None
    if semantic:
        path = _artifact(cfg, "semantic_net.sem")
        sem_net = load_semantic_net(path)
        _voxels_fit(path, sem_net.roi_set, sem_net.config.in_dim, ds.layout)
        if gan and sem_net.config.hidden2 != gan_cfg.semantic_dim:
            raise CliError("%s: hidden2 %d, but %s has semantic_dim %d"
                           % (path, sem_net.config.hidden2, ckpt,
                              gan_cfg.semantic_dim))
    return dec, sem_net, gen


def cmd_train_gan(cfg, ds, out):
    dec, sem_net, _ = _models(cfg, ds,
                              semantic=cfg["mode"] != "no_semantics")
    gen, log = fit_gan(ds, dec, sem_net, _config(
        cfg, GanTrainConfig, resolution=ds.image_size))
    ckpt = _artifact(cfg, "gan.ckpt")
    save_checkpoint(ckpt, gen)
    loss_csv = _artifact(cfg, "gan_loss.csv")
    write_loss_log(loss_csv, log)
    return [ckpt, loss_csv], ("train-gan: %d epochs, final g_total %.4f, wrote %s"
                              % (len(log), log[-1]["g_total"], ckpt))


def _reconstruct_all(cfg, ds):
    """(decoded shapes, reconstructions) of the test records, and the report
    label of the checkpoint's model."""
    dec, sem_net, gen = _models(cfg, ds, gan=True)
    shapes, recons = reconstruct_records(gen, dec, sem_net,
                                         ds.split_records("test"), ds.layout)
    return shapes, recons, cfg["mode"] if sem_net else "no_semantics"


def cmd_reconstruct(cfg, ds, out):
    shapes, recons, _ = _reconstruct_all(cfg, ds)
    test = ds.split_records("test")
    written = []
    for i, img in enumerate(recons):
        path = _artifact(cfg, "recon_%04d.pgm" % i)
        write_pgm(path, img)
        written.append(path)
    montage = _artifact(cfg, "montage.pgm")
    triplets = [(ds.stimuli[r.stimulus_id], sp, rc)
                for r, sp, rc in zip(test, shapes, recons)]
    write_montage(montage, triplets)
    written.append(montage)
    return written, ("reconstruct: wrote %d reconstructions and %s"
                     % (len(recons), montage))


def cmd_evaluate(cfg, ds, out):
    test = ds.split_records("test")
    if cfg["metric"] == "shape":
        dec, _, _ = _models(cfg, ds)
        preds, _ = decode_records(dec, None, test, ds.layout)
        gts = projected_masks(ds, test, dec.patch_size)
        label = "shape"
    else:
        _, preds, label = _reconstruct_all(cfg, ds)
        gts = [ds.stimuli[r.stimulus_id] for r in test]
    report = pairwise_win_rate(preds, gts, runs=cfg["runs"], seed=cfg["seed"])
    path = _artifact(cfg, "report_%s.csv" % cfg["metric"])
    write_report_csv(path, report_rows(report, label))
    return [path], ("evaluate[%s]: mean win rate %.4f over %d runs -> %s"
                    % (cfg["metric"], report.mean_win_rate, cfg["runs"], path))


def cmd_ablate(cfg, ds, out, which):
    path = _artifact(cfg, "ablation_%s.csv" % which)
    if which == "roi":
        n_train_stims = len({r.stimulus_id for r in ds.split_records("train")})
        n_val = min(40, max(2, n_train_stims // 4))
        table = roi_ablation(ds, n_validation=n_val,
                             shape_lambda=cfg["shape_lambda"],
                             patch_size=cfg["patch_size"], seed=cfg["seed"],
                             runs=cfg["runs"],
                             semantic_config=_sem_config(cfg, ds))
        fields = ["roi_set", "shape_win_rate", "semantic_accuracy"]
        write_csv(path, fields, [[row[f] for f in fields] for row in table])
        summary = ", ".join("%s=%.3f" % (r["roi_set"], r["shape_win_rate"])
                            for r in table)
    else:
        drop_label = "no_" + which
        gan_cfg = _config(cfg, GanTrainConfig, resolution=ds.image_size)
        aug = None
        if which == "augmentation":
            # reuse training stimuli as extra labelled images without voxels
            aug = [(ds.stimuli[r.stimulus_id], r.category_id)
                   for r in ds.split_records("train")]
        common = dict(shape_lambda=cfg["shape_lambda"],
                      patch_size=cfg["patch_size"], runs=cfg["runs"],
                      semantic_config=_sem_config(cfg, ds))
        full = run_pipeline(ds, gan_cfg, "full", augment_images=aug, **common)
        drop = run_pipeline(ds, gan_cfg, "no_semantics" if which == "semantics"
                            else "full", **common)
        rows = report_rows(full.report, "full") + report_rows(drop.report,
                                                              drop_label)
        write_report_csv(path, rows)
        summary = "full=%.3f %s=%.3f" % (full.report.mean_win_rate, drop_label,
                                         drop.report.mean_win_rate)
    return [path], "ablate[%s]: %s -> %s" % (which, summary, path)


def cmd_report(cfg, _, out):
    found = os.listdir(out) if os.path.isdir(out) else []
    names = sorted(f for f in found if f.endswith(".csv")
                   and f.startswith(("report_", "ablation_")))
    if not names:
        raise CliError("no report CSVs found in %s (run evaluate/ablate first)"
                       % out)
    lines = []
    for name in names:
        lines.append("== %s ==" % name)
        with open(os.path.join(out, name), newline="") as fh:
            lines += ["  " + ", ".join(row) for row in csv.reader(fh)]
    return [], "\n".join(lines)


# -- argument parsing ---------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="shapesem",
        description="Shape/semantic decoding and GAN reconstruction pipeline. "
                    "All CSV outputs use a fixed (metric,label,run,value) "
                    "schema except ablation_roi.csv "
                    "(roi_set,shape_win_rate,semantic_accuracy).")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, needs_dataset=True, needs_seed=False):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func, needs_seed=needs_seed)
        p.add_argument("--config", help="key = value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override one config key")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", help="random seed")
        p.add_argument("--runs", help="identification runs")
        if needs_dataset:
            p.add_argument("--dataset", help="dataset directory")
        return p

    add("simulate", cmd_simulate, "generate a synthetic dataset",
        needs_dataset=False, needs_seed=True)
    add("preprocess", cmd_preprocess,
        "average repeated test trials into one record each")
    add("train-shape", cmd_train_shape, "fit the patch-grid shape decoder",
        needs_seed=True)
    add("train-semantic", cmd_train_semantic, "train the category classifier",
        needs_seed=True)
    p = add("train-gan", cmd_train_gan,
            "train the conditional reconstruction GAN", needs_seed=True)
    p.add_argument("--mode", help="full, or no_semantics to drop semantic "
                   "conditioning")
    add("reconstruct", cmd_reconstruct,
        "reconstruct every test record and emit a montage")
    p = add("evaluate", cmd_evaluate, "pairwise identification win rate to CSV")
    p.add_argument("--metric", help="shape or recon: evaluate decoded shapes "
                   "or GAN reconstructions")
    p = add("ablate", cmd_ablate, "run one ablation experiment",
            needs_seed=True)
    p.add_argument("which", choices=["roi", "semantics", "augmentation"])
    add("report", cmd_report, "print all CSV reports in the output dir",
        needs_dataset=False)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        cfg = resolve_config(args)
        # the dataset loads before --out is made, so a bad one leaves no dir
        ds = _load_ds(cfg) if "dataset" in args else None
        writes = args.command != "report"
        out = _require_out(cfg, make=writes)
        which = [args.which] if "which" in args else []
        written, summary = args.func(cfg, ds, out, *which)
        if writes:
            write_manifest(out, "-".join([args.command, *which]), cfg, written)
        print(summary)
        return 0
    except NumericalError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 2
    except (ShapesemError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
