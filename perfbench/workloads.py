"""The benchmark's workloads, run from one process by one closed-loop caller.

A run sets its workload up ``SETUP_REPEATS`` times, then repeats whole
rounds of the same operations until ``seconds`` have passed.  End-to-end
figures are whole-run means over the untraced rounds, or over the set-ups
for the figures that only set-up produces; ``setup_s`` is the median
set-up.  In a traced run the first round is
untraced, as the reference for the tracing overhead, and every later round
is traced.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import os
import resource
import shutil
import statistics

import numpy as np

import checks as C
from spans import Patcher, StageTimer, Tracer, perf
from shapesem import cli, dataset, evaluation, semantic, shape_decoder
from shapesem.dataset import SyntheticConfig
from shapesem.gan import GanTrainConfig
from shapesem.semantic import SemanticNetConfig
from shapesem.tensor import Tensor

SETUP_REPEATS = 3
EVAL_RUNS = 5  # identification runs, the package default
# --seed makes the simulated dataset; the models start from seed 0, as in
# acceptance 7.  After two GAN epochs recon_l1 is set mostly by the
# initialisation: it spread by 23% across model seeds and by 0.5% across
# datasets at model seed 0.
MODEL_SEED = 0

# End-to-end timings cover most of a run.  The stage rates below cover
# 0.1-2 s of a round; on a shared machine they spread past the largest bound
# allowed (0.25) between sets of runs, so they are per-layer figures of the
# traced run instead.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("gan_samples_per_s", "samples/s"),
    ("peak_rss_mb", "MB"),
    ("recon_l1", "MAE"),
    ("semantic_accuracy", "fraction"),
)
STAGE_RATES = (
    ("semantic_samples_per_s", "samples/s"),
    ("recon_images_per_s", "images/s"),
    ("eval_pairs_per_s", "pairs/s"),
)


class Run:
    """One benchmark run: set-ups, rounds, checks and operation counts."""

    def __init__(self, seed, seconds, trace, workdir):
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.workdir = workdir
        self.checks = C.Checks()
        self.stages = StageTimer()
        self._stage_patch = Patcher()
        self.stages.install(self._stage_patch)
        self.tracer = Tracer()
        self.attempted = 0
        self.failed = 0
        self.faults = {}
        self.setup_s = []
        self.rounds = []  # (traced, figures)
        self.extra = {}  # figures measured outside the rounds

    def close(self):
        self._stage_patch.restore()

    @contextlib.contextmanager
    def tracing(self, phase, on):
        if not on:
            yield
            return
        patch = Patcher()
        self.tracer.install(patch)
        self.tracer.phase = phase
        self.tracer.active = True
        try:
            yield
        finally:
            self.tracer.active = False
            patch.restore()

    @contextlib.contextmanager
    def paused(self):
        """Checks call into the package too; keep them out of the trace."""
        was = self.tracer.active
        self.tracer.active = False
        try:
            yield
        finally:
            self.tracer.active = was

    def attempt(self, ok, fault=None):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.faults[fault] = self.faults.get(fault, 0) + 1

    def set_up(self, build):
        """Build the inputs SETUP_REPEATS times; returns every build."""
        built = []
        for k in range(SETUP_REPEATS):
            with self.tracing("setup", self.trace):
                t0 = perf()
                built.append(build(k))
                self.setup_s.append(perf() - t0)
            recs = self.stages.since(t0)
            for name, key in (("gan.train", "gan_samples_per_s"),
                              ("semantic.train_semantic",
                               "semantic_samples_per_s")):
                done = StageTimer.work(recs, name)
                if done is not None:
                    self.extra.setdefault(key, []).append(done)
        return built

    def loop(self, one_round):
        """Whole rounds until ``seconds`` have passed; a round that would
        end more than half its length past that point is not started."""
        start = perf()
        traced_rounds = 0
        while True:
            traced = self.trace and bool(self.rounds)
            gc.collect()  # every round starts from the same heap
            t0 = perf()
            with self.tracing("round", traced):
                figures = one_round()
            self.rounds.append((traced, figures))
            traced_rounds += traced
            now = perf()
            if (now - start + 0.5 * (now - t0) >= self.seconds
                    and (traced_rounds or not self.trace)):
                break

    def cli(self, argv):
        """Run ``shapesem.cli.main`` in-process; returns (exit code, escaped
        exception or None)."""
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                return cli.main(argv), None
            except Exception as exc:  # a hostile input may crash the CLI
                return None, exc

    def cli_ok(self, argv):
        rc, exc = self.cli(argv)
        if rc != 0:
            raise RuntimeError("shapesem %s exited %r (%r)" % (argv[0], rc, exc))

    # -- results -----------------------------------------------------------

    def figure(self, name):
        """One figure over the untraced rounds, or over the set-ups for the
        figures that only set-up produces."""
        if name == "setup_s":
            return statistics.median(self.setup_s)
        if name == "peak_rss_mb":
            return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        plain = [f for traced, f in self.rounds if not traced]
        vals = [f[name] for f in plain if name in f] or self.extra.get(name)
        if not vals:
            raise RuntimeError("workload produced no %s" % name)
        if isinstance(vals[0], tuple):
            # a rate over the whole run: total work over total busy time
            return sum(w for w, _ in vals) / sum(t for _, t in vals)
        return statistics.mean(vals)

    def end_to_end(self):
        return {name: (self.figure(name), unit) for name, unit in END_TO_END}

    def per_layer(self):
        out = self.tracer.layer_metrics(sum(t for t, _ in self.rounds),
                                        len(self.setup_s))
        traced = [f["wall_s"] for t, f in self.rounds if t]
        plain = [f["wall_s"] for t, f in self.rounds if not t]
        out["trace.wall_s"] = (statistics.median(traced), "s")
        out["trace.untraced_wall_s"] = (statistics.median(plain), "s")
        out["trace.overhead_ratio"] = (out["trace.wall_s"][0]
                                       / out["trace.untraced_wall_s"][0], "ratio")
        for name, unit in STAGE_RATES:
            out["stage." + name] = (self.figure(name), unit)
        return out


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _check_batched_generate(checks, result, layout):
    """An eval-mode forward over the whole test batch equals the per-record
    ``generate`` outputs: eval-mode batch norm treats samples independently."""
    recs = result.test_records
    shapes = np.stack([shape_decoder.decode_shape(result.shape_decoder, r, layout)
                       for r in recs])
    sem = None
    if result.semantic_net is not None:
        sem = Tensor(np.stack([semantic.semantic_features(result.semantic_net, r,
                                                          layout) for r in recs]))
    result.generator.set_training(False)
    batched = result.generator.forward(Tensor(shapes[:, None]), sem).data[:, 0]
    diff = float(np.max(np.abs(batched - np.stack(result.reconstructions))))
    checks.expect(diff <= 1e-5, "batched generator differs by %.3g" % diff)


# -- run_pipeline workloads --------------------------------------------------

def pipeline(run, sim_cfg, gan_cfg, mode, sem_epochs):
    """Rounds of ``evaluation.run_pipeline`` on one simulated dataset.

    In ``no_semantics`` mode run_pipeline trains no semantic decoder.  Each
    round then trains one on the same dataset after run_pipeline returns,
    outside ``wall_s``, so that the semantic figures exist for this workload
    too, measured across the run like the others.
    """
    built = run.set_up(lambda k: dataset.simulate(sim_cfg)[0])
    ds = built[-1]
    run.checks.expect(all(_digest(r.voxels for r in b.records)
                          == _digest(r.voxels for r in ds.records) for b in built),
                      "repeated set-ups simulated different voxels")
    sem_cfg = SemanticNetConfig(in_dim=len(ds.layout.indices("HVC")),
                                n_classes=ds.n_categories, epochs=sem_epochs,
                                seed=MODEL_SEED)
    rng = np.random.default_rng(run.seed)
    first = []

    def one_round():
        t0 = perf()
        result = evaluation.run_pipeline(ds, gan_cfg, mode=mode,
                                         semantic_config=sem_cfg, runs=EVAL_RUNS)
        wall = perf() - t0
        recs = run.stages.since(t0)
        # run_pipeline reconstructs the test set between training the GAN
        # and scoring the reconstructions
        trained = max(r[2] for r in recs if r[0] == "gan.train")
        scored = min(r[1] for r in recs if r[0] == "evaluation.pairwise_win_rate")
        n_test = len(result.test_records)
        figures = {
            "wall_s": wall,
            "gan_samples_per_s": StageTimer.work(recs, "gan.train"),
            "recon_images_per_s": (n_test, scored - trained),
            "eval_pairs_per_s": StageTimer.work(recs, "evaluation.pairwise_win_rate"),
        }
        with run.paused():
            chk = run.checks
            gts = [ds.stimuli[r.stimulus_id] for r in result.test_records]
            figures["recon_l1"] = C.mean_abs_error(result.reconstructions, gts)
            C.check_images(chk, result.reconstructions, "reconstructions")
            C.check_loss_log(chk, result.loss_log)
            C.check_ridge(chk, result.shape_decoder, ds)
            C.check_ssim(chk, evaluation.ssim, result.reconstructions, gts, rng)
            _check_batched_generate(chk, result, ds.layout)
            rep = result.report
            chk.expect(len(rep.per_image_ssim) == n_test
                       and len(rep.run_win_rates) == EVAL_RUNS
                       and 0.0 <= rep.mean_win_rate <= 1.0, "malformed report")
            net = result.semantic_net
            if net is None:
                t1 = perf()
                net = semantic.train_semantic(ds, sem_cfg, roi_set="HVC",
                                              seed=MODEL_SEED)
                recs = run.stages.since(t1)
            figures["semantic_samples_per_s"] = StageTimer.work(
                recs, "semantic.train_semantic")
            acc = semantic.accuracy(net, ds, result.test_records)
            figures["semantic_accuracy"] = acc
            chk.expect(acc > 1.0 / ds.n_categories,
                       "semantic accuracy %.3f at chance" % acc)
            digest = _digest(result.reconstructions)
            first.append(digest)
            chk.expect(digest == first[0], "rounds gave different reconstructions")
        run.attempt(True)
        return figures

    run.loop(one_round)


def pipeline_10cat(run, smoke):
    n_train, n_test, base = (40, 6, 4) if smoke else (500, 50, 8)
    sim = SyntheticConfig(image_size=32, categories=10, n_train=n_train,
                          n_test=n_test, test_trials=3, seed=run.seed)
    gan_cfg = GanTrainConfig(resolution=32, epochs=2, decay_start=1, batch=10,
                             base_channels=base, semantic_dim=64, lr=5e-4,
                             seed=MODEL_SEED)
    pipeline(run, sim, gan_cfg, "full", sem_epochs=2 if smoke else 10)


def gan_wide_nosem(run, smoke):
    n_train, n_test, base = (40, 6, 4) if smoke else (400, 40, 16)
    sim = SyntheticConfig(image_size=32, categories=2, n_train=n_train,
                          n_test=n_test, test_trials=3, identical_shapes=True,
                          seed=run.seed)
    gan_cfg = GanTrainConfig(resolution=32, epochs=2, decay_start=1, batch=10,
                             base_channels=base, semantic_dim=64, lr=2e-4,
                             seed=MODEL_SEED)
    pipeline(run, sim, gan_cfg, "no_semantics", sem_epochs=2 if smoke else 10)


# -- CLI inference -----------------------------------------------------------

def _sets(**values):
    out = []
    for key, val in values.items():
        out += ["--set", "%s=%s" % (key, val)]
    return out


def _hostile_checkpoints(run):
    """A tiny fixed-seed model whose gan.ckpt is damaged two ways.  Nothing
    here depends on the workload seed, so both operations fail the same way
    on every run while the faults last."""
    root = os.path.join(run.workdir, "hostile")
    ds_dir, art = os.path.join(root, "ds"), os.path.join(root, "art")
    run.cli_ok(["simulate", "--seed", "0", "--out", ds_dir]
               + _sets(image_size=16, categories=2, n_train=8, n_test=4,
                       test_trials=1))
    run.cli_ok(["train-shape", "--seed", "0", "--dataset", ds_dir, "--out", art])
    run.cli_ok(["train-gan", "--seed", "0", "--dataset", ds_dir, "--out", art,
                "--mode", "no_semantics"]
               + _sets(gan_epochs=2, gan_decay_start=1, gan_base_channels=2,
                       gan_batch=4))
    with open(os.path.join(art, "gan.ckpt"), "rb") as fh:
        good = fh.read()
    header_len = int.from_bytes(good[4:8], "little")
    damaged = {
        "truncated": good[:8 + header_len // 2],
        "trailing": good + b"\0" * 64,
    }
    ops = []
    for label, blob in damaged.items():
        out = os.path.join(root, label)
        os.makedirs(out)
        shutil.copy(os.path.join(art, "shape_decoder.shd"), out)
        with open(os.path.join(out, "gan.ckpt"), "wb") as fh:
            fh.write(blob)
        ops.append((label, ["evaluate", "--dataset", ds_dir, "--out", out,
                            "--metric", "recon", "--seed", "0"]))
    return ops


def cli_inference(run, smoke):
    n_train, n_test, base = (30, 12, 4) if smoke else (100, 300, 16)
    seed = str(MODEL_SEED)
    sim = _sets(image_size=32, categories=10, n_train=n_train, n_test=n_test,
                test_trials=3)
    training = _sets(sem_epochs=2 if smoke else 40, gan_epochs=2,
                     gan_decay_start=1, gan_base_channels=base)

    def build(k):
        root = os.path.join(run.workdir, "setup%d" % k)
        ds_dir, art = os.path.join(root, "ds"), os.path.join(root, "art")
        run.cli_ok(["simulate", "--seed", str(run.seed), "--out", ds_dir] + sim)
        for cmd in ("train-shape", "train-semantic", "train-gan"):
            run.cli_ok([cmd, "--seed", seed, "--dataset", ds_dir, "--out", art]
                       + training)
        return ds_dir, art

    built = run.set_up(build)
    chk = run.checks
    tables = [[C.check_manifest(chk, ds_dir, "simulate")]
              + [C.check_manifest(chk, art, cmd) for cmd in
                 ("train-shape", "train-semantic", "train-gan")]
              for ds_dir, art in built]
    chk.expect(all(t == tables[0] for t in tables),
               "repeated set-ups wrote different artifacts")
    ds_dir, art = built[-1]
    hostile = _hostile_checkpoints(run)

    ds = dataset.average_test_trials(dataset.load_dataset(ds_dir))
    test_ids = [r.stimulus_id for r in ds.split_records("test")]
    net = semantic.load_semantic_net(os.path.join(art, "semantic_net.sem"))
    acc = semantic.accuracy(net, ds, ds.split_records("test"))
    run.extra["semantic_accuracy"] = [acc]
    chk.expect(acc > 1.0 / ds.n_categories, "semantic accuracy %.3f at chance" % acc)
    C.check_ridge(chk, shape_decoder.load_shape_decoder(
        os.path.join(art, "shape_decoder.shd")), ds)
    gts = [C.read_pgm(os.path.join(ds_dir, "stimuli", sid + ".pgm"))
           for sid in test_ids]
    rng = np.random.default_rng(run.seed)
    first = []

    def timed(argv):
        t0 = perf()
        rc, exc = run.cli(argv)
        dt = perf() - t0
        run.attempt(rc == 0 and exc is None,
                    "shapesem %s exited %r (%r)" % (argv[0], rc, exc))
        return dt

    def one_round():
        common = ["--dataset", ds_dir, "--out", art]
        t_rec = timed(["reconstruct"] + common)
        t0 = perf()
        t_recon = timed(["evaluate", "--metric", "recon", "--seed", seed] + common)
        with run.paused():
            C.check_manifest(chk, art, "evaluate")
            rows = C.read_report(os.path.join(art, "report_recon.csv"))
            chk.expect(rows.get("ssim") == n_test and rows.get("win_rate") == EVAL_RUNS,
                       "report_recon.csv has %r" % rows)
        t_shape = timed(["evaluate", "--metric", "shape", "--seed", seed] + common)
        recs = run.stages.since(t0)
        figures = {
            "wall_s": t_rec + t_recon + t_shape,
            "recon_images_per_s": (n_test, t_rec),
            "eval_pairs_per_s": StageTimer.work(recs, "evaluation.pairwise_win_rate"),
        }
        with run.paused():
            C.check_manifest(chk, art, "evaluate")
            table = C.check_manifest(chk, art, "reconstruct")
            names = sorted(n for n in table if n.startswith("recon_"))
            chk.expect(names == ["recon_%04d.pgm" % i for i in range(n_test)],
                       "%d reconstruction PGMs for %d test records"
                       % (len(names), n_test))
            recons = [C.read_pgm(os.path.join(art, n)) for n in names]
            C.check_images(chk, recons, "reconstruction PGMs")
            C.check_ssim(chk, evaluation.ssim, recons, gts, rng)
            figures["recon_l1"] = C.mean_abs_error(recons, gts)
            first.append(table)
            chk.expect(table == first[0], "rounds wrote different reconstructions")
            for label, argv in hostile:
                rc, exc = run.cli(argv)
                fault = ("gan.ckpt %s: %s escaped shapesem.cli.main"
                         % (label, type(exc).__name__) if exc is not None else
                         "gan.ckpt %s: evaluate exited %r, expected 1" % (label, rc))
                run.attempt(rc == 1 and exc is None, fault)
        return figures

    run.loop(one_round)


WORKLOADS = {
    "pipeline-10cat": pipeline_10cat,
    "gan-wide-nosem": gan_wide_nosem,
    "cli-inference": cli_inference,
}
