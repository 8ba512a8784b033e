import csv

import numpy as np
import pytest

from shapesem import tensor as T
from shapesem.errors import ConfigError, DataError, DimensionError
from shapesem.gan import (GanTrainConfig, build_discriminator, build_generator,
                          discriminator_loss, generate, generate_batch,
                          generator_loss, generator_shapes, load_checkpoint,
                          lr_at_epoch, make_augmented_pairs, save_checkpoint,
                          train, write_loss_log)
from shapesem.tensor import Tensor


def smoke_pairs(n=8, s=16, sem_dim=4):
    pairs = []
    for i in range(n):
        shape = np.zeros((s, s), dtype=np.float32)
        shape[s // 4 : 3 * s // 4, s // 4 : 3 * s // 4] = 1.0 if i % 2 else 0.5
        sem = np.zeros(sem_dim, dtype=np.float32)
        sem[i % sem_dim] = 1.0
        target = shape * (0.4 + 0.1 * (i % sem_dim))
        pairs.append((shape, sem, target))
    return pairs


SMOKE_CFG = GanTrainConfig(resolution=16, epochs=30, decay_start=20, batch=2,
                           base_channels=8, semantic_dim=4, lr=2e-3, seed=0)


class TestConfig:
    def test_decay_must_precede_end(self):
        with pytest.raises(ConfigError):
            GanTrainConfig(epochs=100, decay_start=100)

    def test_resolution_power_of_two(self):
        with pytest.raises(ConfigError):
            GanTrainConfig(resolution=48)

    @pytest.mark.parametrize("resolution, base, sem_dim",
                             [(16, 1, 0), (16, 3, 5), (32, 2, 4), (32, 16, 64),
                              (64, 5, 0), (128, 2, 7)])
    def test_parameter_count_matches_built_nets(self, resolution, base, sem_dim):
        cfg = GanTrainConfig(resolution=resolution, base_channels=base,
                             semantic_dim=sem_dim)
        nets = (build_generator(cfg), build_discriminator(cfg))
        assert cfg.parameter_count() == sum(p.data.size for net in nets
                                            for p in net.parameters())
        assert generator_shapes(cfg) == [a.shape for a in nets[0].state_arrays()]

    def test_state_array_shapes_pinned(self):
        """The nets and the parameter count read one conv plan, so each
        array's shape is written out here: G's encoder kernels and the
        first conv's and bottleneck's biases, its norms, the decoder
        kernels and output bias, its norms; then D's kernels, first bias,
        norms, and head.  The conv into the 1x1 bottleneck, the first
        decoder conv and, at resolution 16, D's head keep 2x2 taps."""
        cfg = GanTrainConfig(resolution=16, base_channels=2, semantic_dim=3)
        k, inner = (4, 4), (2, 2)
        gen = [(2, 1, *k), (2,), (4, 2, *k), (8, 4, *k), (16, 8, *inner), (16,),
               *[(4,)] * 4, *[(8,)] * 4,
               (19, 8, *inner), (16, 4, *k), (8, 2, *k), (4, 1, *k), (1,),
               *[(8,)] * 4, *[(4,)] * 4, *[(2,)] * 4]
        disc = [(2, 2, *k), (2,), (4, 2, *k), (8, 4, *k),
                (4,), (4,), (8,), (8,), (1, 8, *inner), (1,)]
        assert [a.shape for a in build_generator(cfg).state_arrays()] == gen
        assert [a.shape for a in build_discriminator(cfg).state_arrays()] == disc

    def test_parameter_budget(self):
        """Too wide a network is refused by its config, before any tensor
        of it exists."""
        for field, value in [("base_channels", 10 ** 15),
                             ("semantic_dim", 10 ** 15),
                             ("resolution", 2 ** 400)]:
            with pytest.raises(ConfigError, match="%s %d" % (field, value)):
                GanTrainConfig(**{field: value})

    def test_defaults_follow_training_recipe(self):
        cfg = GanTrainConfig()
        assert cfg.lambda_img == 100.0
        assert cfg.lr == 2e-4
        assert (cfg.beta1, cfg.beta2) == (0.9, 0.999)
        assert cfg.batch == 10
        assert cfg.epochs == 200 and cfg.decay_start == 120


class TestGeneratorShape:
    def test_depth_from_resolution(self):
        cfg = GanTrainConfig(resolution=256, base_channels=4, semantic_dim=4)
        gen = build_generator(cfg)
        assert gen.depth == 8
        cfg64 = GanTrainConfig(resolution=64, base_channels=4, semantic_dim=4)
        assert build_generator(cfg64).depth == 6

    def test_forward_contract(self):
        cfg = GanTrainConfig(resolution=32, base_channels=4, semantic_dim=6)
        gen = build_generator(cfg)
        rng = np.random.default_rng(0)
        x = Tensor(rng.random((2, 1, 32, 32), dtype=np.float32))
        sem = Tensor(rng.standard_normal((2, 6)).astype(np.float32))
        out = gen.forward(x, sem)
        assert out.shape == (2, 1, 32, 32)
        assert out.data.min() >= 0.0 and out.data.max() <= 1.0

    def test_bottleneck_is_1x1(self):
        cfg = GanTrainConfig(resolution=32, base_channels=4, semantic_dim=6)
        gen = build_generator(cfg)
        x = Tensor(np.zeros((1, 1, 32, 32), dtype=np.float32))
        h = x
        for i, conv in enumerate(gen.enc):
            if i > 0:
                h = T.leaky_relu(h, 0.2)
            h = conv(h)
            if gen.enc_bn[i] is not None:
                h = gen.enc_bn[i](h, 1.0)
        assert h.shape[2:] == (1, 1)

    def test_missing_semantics_rejected(self):
        cfg = GanTrainConfig(resolution=16, base_channels=4, semantic_dim=6)
        gen = build_generator(cfg)
        with pytest.raises(DimensionError):
            gen.forward(Tensor(np.zeros((1, 1, 16, 16), dtype=np.float32)), None)

    def test_discriminator_scores_in_unit_interval(self):
        cfg = GanTrainConfig(resolution=32, base_channels=4)
        disc = build_discriminator(cfg)
        rng = np.random.default_rng(1)
        a = Tensor(rng.random((2, 1, 32, 32), dtype=np.float32))
        b = Tensor(rng.random((2, 1, 32, 32), dtype=np.float32))
        s = disc.forward(a, b)
        assert np.all(s.data > 0) and np.all(s.data < 1)


    def test_discriminator_norms_keep_no_running_statistics(self):
        """D's norms always use the batch moments: its state is its
        parameters, and eval mode scores as training mode does."""
        cfg = GanTrainConfig(resolution=32, base_channels=4)
        disc = build_discriminator(cfg)
        assert all(bn.running_mean is None for bn in disc.bns if bn is not None)
        assert len(disc.state_arrays()) == len(disc.parameters())
        rng = np.random.default_rng(2)
        a = Tensor(rng.random((3, 1, 32, 32), dtype=np.float32))
        b = Tensor(rng.random((3, 1, 32, 32), dtype=np.float32))
        scores = disc.forward(a, b).data
        disc.set_training(False)
        assert np.array_equal(disc.forward(a, b).data, scores)

    def test_generate_batch_records_no_graph(self, monkeypatch):
        """Eval forwards leave every tensor without a backward closure,
        and the parameters require grad again afterwards."""
        cfg = GanTrainConfig(resolution=16, base_channels=2, semantic_dim=3,
                             batch=2)
        gen = build_generator(cfg)
        made = []
        make = T._make

        def recording_make(*args):
            made.append(make(*args))
            return made[-1]

        monkeypatch.setattr(T, "_make", recording_make)
        rng = np.random.default_rng(0)
        shapes = rng.random((3, 16, 16), dtype=np.float32)
        out = generate_batch(gen, shapes, rng.random((3, 3), dtype=np.float32))
        assert out.shape == (3, 16, 16)
        assert made and all(t._backward is None for t in made)
        assert all(p.requires_grad for p in gen.parameters())

    def test_generate_batch_restores_grad_flags_on_error(self):
        cfg = GanTrainConfig(resolution=16, base_channels=2, semantic_dim=3)
        gen = build_generator(cfg)
        with pytest.raises(DimensionError):
            generate_batch(gen, np.zeros((2, 16, 16), dtype=np.float32),
                           np.zeros((2, 5), dtype=np.float32))
        assert all(p.requires_grad for p in gen.parameters())


class TestLosses:
    def test_perfect_generator_loss_is_zero(self):
        d = Tensor(np.ones((2, 1, 3, 3), dtype=np.float32))
        img = Tensor(np.full((2, 1, 8, 8), 0.5, dtype=np.float32))
        total, adv, l1 = generator_loss(d, img, img.data.copy(), 100.0)
        assert total.item() == pytest.approx(0.0, abs=1e-6)

    def test_half_scores_give_ln2(self):
        d = Tensor(np.full((2, 1, 3, 3), 0.5, dtype=np.float32))
        img = Tensor(np.full((1, 8, 8), 0.5, dtype=np.float32))
        total, adv, l1 = generator_loss(d, img, img.data.copy(), 100.0)
        assert total.item() == pytest.approx(np.log(2.0), abs=1e-6)

    def test_l1_offset_with_lambda(self):
        d = Tensor(np.ones((1, 1, 1, 1), dtype=np.float32))
        target = np.zeros((1, 4, 4), dtype=np.float32)
        fake = Tensor(np.full((1, 4, 4), 0.5, dtype=np.float32))
        total, adv, l1 = generator_loss(d, fake, target, 100.0)
        assert total.item() == pytest.approx(50.0, abs=1e-5)
        assert adv.item() == pytest.approx(0.0, abs=1e-6)
        assert l1.item() == pytest.approx(0.5, abs=1e-7)

    def test_decomposition_exact(self):
        rng = np.random.default_rng(2)
        d = Tensor(rng.random((2, 1, 3, 3), dtype=np.float32) * 0.9 + 0.05)
        fake = Tensor(rng.random((2, 1, 8, 8), dtype=np.float32))
        target = rng.random((2, 1, 8, 8)).astype(np.float32)
        total, adv, l1 = generator_loss(d, fake, target, 100.0)
        assert total.item() == pytest.approx(adv.item() + 100.0 * l1.item(),
                                             rel=1e-6)

    def test_shape_mismatch_rejected(self):
        d = Tensor(np.ones((1, 1, 1, 1), dtype=np.float32))
        with pytest.raises(DimensionError):
            generator_loss(d, Tensor(np.zeros((1, 4, 4))),
                           np.zeros((1, 8, 8)), 1.0)

    def test_perfect_discriminator_loss_zero(self):
        real = Tensor(np.ones((2, 1, 2, 2), dtype=np.float32))
        fake = Tensor(np.zeros((2, 1, 2, 2), dtype=np.float32))
        assert discriminator_loss(real, fake).item() == pytest.approx(0.0, abs=1e-5)

    def test_half_half_is_2ln2(self):
        half = Tensor(np.full((2, 1, 2, 2), 0.5, dtype=np.float32))
        assert discriminator_loss(half, half).item() == pytest.approx(
            2 * np.log(2.0), abs=1e-6)

    def test_zero_real_scores_clamped_finite(self):
        real = Tensor(np.zeros((1, 1, 1, 1), dtype=np.float32))
        fake = Tensor(np.zeros((1, 1, 1, 1), dtype=np.float32))
        loss = discriminator_loss(real, fake)
        assert loss.item() == pytest.approx(-np.log(1e-7), rel=1e-4)
        assert np.isfinite(loss.item())


class TestSchedule:
    def test_default_decay_points(self):
        cfg = GanTrainConfig(resolution=16, lr=2e-4, epochs=200, decay_start=120)
        assert lr_at_epoch(cfg, 1) == pytest.approx(2e-4)
        assert lr_at_epoch(cfg, 120) == pytest.approx(2e-4)
        assert lr_at_epoch(cfg, 160) == pytest.approx(1e-4)
        assert lr_at_epoch(cfg, 200) == pytest.approx(0.0)


class TestTraining:
    def test_freeze_contract(self):
        cfg = GanTrainConfig(resolution=16, epochs=1, decay_start=0, batch=8,
                             base_channels=4, semantic_dim=4, seed=1)
        pairs = smoke_pairs()
        gen = build_generator(cfg)
        disc = build_discriminator(cfg)
        from shapesem.gan import discriminator_loss as dl
        from shapesem.optim import Adam

        shapes = np.stack([p[0] for p in pairs])[:, None]
        sems = np.stack([p[1] for p in pairs])
        targets = np.stack([p[2] for p in pairs])[:, None]
        gen.set_training(True)
        disc.set_training(True)

        # G step: discriminator parameters must stay bitwise identical
        d_before = [p.data.copy() for p in disc.parameters()]
        fake = gen.forward(Tensor(shapes), Tensor(sems))
        total, _, _ = generator_loss(disc.forward(Tensor(shapes), fake), fake,
                                     targets, cfg.lambda_img)
        opt_g = Adam(gen.parameters(), cfg.lr)
        total.backward()
        opt_g.step()
        for before, p in zip(d_before, disc.parameters()):
            assert np.array_equal(before, p.data)

        # D step with detached fakes: generator parameters stay identical
        g_before = [p.data.copy() for p in gen.parameters()]
        fake = gen.forward(Tensor(shapes), Tensor(sems)).detach()
        loss = dl(disc.forward(Tensor(shapes), Tensor(targets)),
                  disc.forward(Tensor(shapes), fake))
        opt_d = Adam(disc.parameters(), cfg.lr)
        loss.backward()
        opt_d.step()
        for before, p in zip(g_before, gen.parameters()):
            assert np.array_equal(before, p.data)

    def test_smoke_training_halves_l1(self):
        pairs = smoke_pairs()
        gen = build_generator(SMOKE_CFG)
        disc = build_discriminator(SMOKE_CFG)
        log = train(gen, disc, pairs, SMOKE_CFG)
        assert len(log) == 30
        assert log[-1]["g_l1"] <= 0.5 * log[0]["g_l1"]

    def test_training_deterministic(self):
        pairs = smoke_pairs()
        cfg = GanTrainConfig(resolution=16, epochs=3, decay_start=2, batch=4,
                             base_channels=4, semantic_dim=4, seed=3)
        logs = []
        outs = []
        for _ in range(2):
            gen = build_generator(cfg)
            disc = build_discriminator(cfg)
            logs.append(train(gen, disc, pairs, cfg))
            outs.append(generate(gen, pairs[0][0], pairs[0][1]))
        assert logs[0] == logs[1]
        assert np.array_equal(outs[0], outs[1])

    def test_empty_pairs_rejected(self):
        cfg = GanTrainConfig(resolution=16)
        with pytest.raises(DataError):
            train(build_generator(cfg), build_discriminator(cfg), [], cfg)

    def test_loss_log_csv(self, tmp_path):
        log = [{"epoch": 1, "lr": 2e-4, "d_loss": 1.0, "g_adv": 0.5,
                "g_l1": 0.25, "g_total": 25.5}]
        path = tmp_path / "loss.csv"
        write_loss_log(path, log)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["epoch", "lr", "d_loss", "g_adv", "g_l1", "g_total"]
        assert rows[1][0] == "1"


def _reference_train(generator, discriminator, pairs, config):
    """The training loop as first written, kept as a bitwise reference: two
    generator forwards per batch, the discriminator's weight gradients
    computed and thrown away, and Adam with fresh temporaries.  The second
    forward's step of the generator's running statistics is undone, so they
    take one step per batch."""
    from test_tensor import _allocating_adam_update
    from shapesem.nn import BatchNorm2d
    from shapesem.optim import AdamState

    class AllocatingAdam:
        def __init__(self, params):
            self.params = list(params)
            self.states = [AdamState.for_param(p.data) for p in self.params]
            self.lr = config.lr

        def step(self):
            for p, st in zip(self.params, self.states):
                if p.grad is not None:
                    _allocating_adam_update(p, p.grad, st, self.lr,
                                            config.beta1, config.beta2)

        def zero_grad(self):
            for p in self.params:
                p.grad = None

    shapes = np.stack([p[0] for p in pairs]).astype(np.float32)[:, None]
    targets = np.stack([p[2] for p in pairs]).astype(np.float32)[:, None]
    sems = (np.stack([p[1] for p in pairs]).astype(np.float32)
            if config.semantic_dim else None)
    opt_g = AllocatingAdam(generator.parameters())
    opt_d = AllocatingAdam(discriminator.parameters())
    norms = [l for l in generator.layers if isinstance(l, BatchNorm2d)]
    rng = np.random.default_rng(config.seed + 2)
    generator.set_training(True)
    discriminator.set_training(True)
    log = []
    for epoch in range(1, config.epochs + 1):
        lr = lr_at_epoch(config, epoch)
        opt_g.lr = opt_d.lr = lr
        order = rng.permutation(len(pairs))
        sums = np.zeros(4, dtype=np.float64)
        batches = 0
        for lo in range(0, len(pairs), config.batch):
            sel = order[lo : lo + config.batch]
            x_sp = Tensor(shapes[sel])
            y = Tensor(targets[sel])
            sem = Tensor(sems[sel]) if sems is not None else None
            fake = generator.forward(x_sp, sem).detach()
            d_loss = discriminator_loss(discriminator.forward(x_sp, y),
                                        discriminator.forward(x_sp, fake))
            opt_d.zero_grad()
            d_loss.backward()
            opt_d.step()
            kept = [(bn.running_mean.copy(), bn.running_var.copy())
                    for bn in norms]
            fake = generator.forward(x_sp, sem)
            for bn, (mean, var) in zip(norms, kept):
                bn.running_mean[...] = mean
                bn.running_var[...] = var
            scores = discriminator.forward(x_sp, fake)
            g_total, g_adv, g_l1 = generator_loss(scores, fake, y,
                                                  config.lambda_img)
            opt_g.zero_grad()
            opt_d.zero_grad()
            g_total.backward()
            opt_g.step()
            opt_d.zero_grad()
            sums += (d_loss.item(), g_adv.item(), g_l1.item(), g_total.item())
            batches += 1
        log.append({"epoch": epoch, "lr": lr,
                    "d_loss": sums[0] / batches, "g_adv": sums[1] / batches,
                    "g_l1": sums[2] / batches, "g_total": sums[3] / batches})
    generator.set_training(False)
    discriminator.set_training(False)
    return log


@pytest.mark.parametrize("cfg", [
    GanTrainConfig(resolution=16, epochs=4, decay_start=2, batch=3,
                   base_channels=4, semantic_dim=4, lr=2e-3, seed=7),
    GanTrainConfig(resolution=32, epochs=3, decay_start=1, batch=4,
                   base_channels=4, semantic_dim=0, lr=1e-3, seed=8),
], ids=["semantic", "no_semantics"])
def test_training_matches_reference_loop_bitwise(cfg):
    """train() gives every parameter, running statistic and loss-log value of
    the reference loop, byte for byte, through the lr decay, and like it
    leaves no gradient on the discriminator."""
    pairs = smoke_pairs(n=10, s=cfg.resolution, sem_dim=cfg.semantic_dim or 4)
    runs = []
    for fn in (train, _reference_train):
        gen, disc = build_generator(cfg), build_discriminator(cfg)
        log = fn(gen, disc, pairs, cfg)
        assert all(p.grad is None for p in disc.parameters())
        runs.append((log, gen.state_arrays() + disc.state_arrays()))
    (log, state), (ref_log, ref_state) = runs
    assert log[-1]["lr"] == 0.0 and log[0]["lr"] == cfg.lr
    assert log == ref_log
    assert len(state) == len(ref_state)
    for a, b in zip(state, ref_state):
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestAugmentation:
    def test_pairs_from_known_categories(self):
        rng = np.random.default_rng(4)
        averages = {0: np.array([0.1, 0.2], dtype=np.float32),
                    1: np.array([-0.1, 0.3], dtype=np.float32)}
        img = np.zeros((16, 16), dtype=np.float32)
        img[4:12, 4:12] = 0.9
        pairs = make_augmented_pairs([(img, 0), (img, 1), (img, 7)],
                                     averages, m=8)
        assert len(pairs) == 2
        shape, semantics, image = pairs[0]
        assert np.allclose(semantics, averages[0])
        assert np.array_equal(image, img)
        assert shape.shape == (16, 16)
        assert shape.min() >= 0.0 and shape.max() <= 1.0

    def test_count_grows_exactly(self):
        averages = {0: np.zeros(2, dtype=np.float32)}
        img = np.zeros((16, 16), dtype=np.float32)
        img[2:10, 2:10] = 1.0
        items = [(img, 0)] * 100
        pairs = make_augmented_pairs(items, averages, m=8)
        assert len(pairs) == 100


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        pairs = smoke_pairs()
        cfg = GanTrainConfig(resolution=16, epochs=2, decay_start=1, batch=4,
                             base_channels=4, semantic_dim=4, seed=5)
        gen = build_generator(cfg)
        disc = build_discriminator(cfg)
        train(gen, disc, pairs, cfg)
        path = tmp_path / "model.gan"
        save_checkpoint(path, gen)
        assert path.read_bytes()[:4] == b"GAN1"
        gen2, cfg2 = load_checkpoint(path)
        assert cfg2 == cfg
        a = generate(gen, pairs[0][0], pairs[0][1])
        b = generate(gen2, pairs[0][0], pairs[0][1])
        assert np.array_equal(a, b)


def test_building_the_generator_peaks_near_its_state_bytes():
    """Building G draws each kernel one leading slice at a time, so its
    traced peak stays near the bytes of its state instead of a float64
    draw of every whole 4x4 kernel (9.4 times the state here before)."""
    import tracemalloc

    cfg = GanTrainConfig(resolution=16, base_channels=16, semantic_dim=2000)
    tracemalloc.start()
    try:
        gen = build_generator(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * sum(a.nbytes for a in gen.state_arrays())


@pytest.mark.parametrize("transpose", [False, True])
@pytest.mark.parametrize("k", [2, 4])
def test_kernel_draw_matches_one_shot_draw(transpose, k):
    """The slice-at-a-time draw gives the kernel of one float64 draw of the
    whole 4x4 kernel, cropped to its k x k centre and cast to float32, and
    leaves the generator in the same state."""
    from shapesem.nn import Conv2d, ConvTranspose2d

    rng, ref = np.random.default_rng(4), np.random.default_rng(4)
    w = (ConvTranspose2d if transpose else Conv2d)(6, 3, k, 2, 1, rng,
                                                    draw=4).w.data
    bound = 1.0 / np.sqrt(6 * 16)
    lo = (4 - k) // 2
    full = ref.uniform(-bound, bound, (6, 3, 4, 4) if transpose else (3, 6, 4, 4))
    crop = full[:, :, lo : lo + k, lo : lo + k].astype(np.float32)
    assert w.tobytes() == crop.tobytes()
    assert w.transpose(0, 2, 3, 1).flags.c_contiguous
    assert rng.integers(1 << 30) == ref.integers(1 << 30)


def test_gradient_flow_single_level_generator():
    # minimal encoder-decoder: conv down, deconv up, tanh output
    rng = np.random.default_rng(6)
    x = Tensor(rng.random((1, 1, 4, 4), dtype=np.float32))
    k_enc = Tensor(rng.standard_normal((2, 1, 4, 4)).astype(np.float32) * 0.4,
                   requires_grad=True)
    k_dec = Tensor(rng.standard_normal((2, 1, 4, 4)).astype(np.float32) * 0.4,
                   requires_grad=True)
    target = rng.random((1, 1, 4, 4)).astype(np.float32)
    d_scores = Tensor(np.full((1, 1, 1, 1), 0.7, dtype=np.float32))

    def forward():
        h = T.leaky_relu(T.conv2d(x, k_enc, 2, 1), 0.2)
        y = 0.5 * (T.tanh(T.conv2d_transpose(h, k_dec, 2, 1)) + 1.0)
        total, _, _ = generator_loss(d_scores, y, target, 10.0)
        return total

    loss = forward()
    loss.backward()
    from test_tensor import _numeric_grad

    for p in (k_enc, k_dec):
        fd = _numeric_grad(lambda: float(forward().data), p.data)
        denom = np.maximum(1.0, np.abs(fd))
        assert np.max(np.abs(p.grad - fd) / denom) < 1e-3


def _full_tap_generator(cfg, monkeypatch):
    """G as built from the plan where every G conv is a stride-2, pad-1 4x4
    one, the innermost pair among them."""
    from shapesem import gan

    plan = gan.conv_plan(cfg)
    g_rows = len(plan) - 4
    full = [row[:3] + gan.HALVE if i < g_rows else row
            for i, row in enumerate(plan)]
    with monkeypatch.context() as mp:
        mp.setattr(gan, "conv_plan", lambda config: full)
        return build_generator(cfg)


def _generator_pass(gen, x, sem, weights):
    """Training-mode output and the gradients of <output, weights> for the
    input, the semantics and every parameter of ``gen``."""
    xt = Tensor(x, requires_grad=True)
    st = Tensor(sem, requires_grad=True) if sem is not None else None
    gen.set_training(True)
    out = gen.forward(xt, st)
    T.tsum(out * Tensor(weights)).backward()
    grads = [xt.grad] + ([st.grad] if st is not None else [])
    return out.data, grads + [p.grad for p in gen.parameters()]


@pytest.mark.parametrize("sem_dim", [0, 8, 64])
@pytest.mark.parametrize("resolution", [16, 32, 64])
def test_live_tap_generator_matches_full_tap_oracle(resolution, sem_dim,
                                                    monkeypatch):
    """G with 2x2 kernels into and out of the bottleneck draws the rng
    stream of the 4x4 plan, and at equal live weights it gives that G's
    output and every gradient within 1e-5 relative; the 12 border taps of
    the 4x4 pair get exactly zero gradient."""
    cfg = GanTrainConfig(resolution=resolution, base_channels=2,
                         semantic_dim=sem_dim)
    gen, ref = build_generator(cfg), _full_tap_generator(cfg, monkeypatch)
    pairs = list(zip(gen.parameters(), ref.parameters()))
    inner = [(p, q) for p, q in pairs if p.shape != q.shape]
    assert len(inner) == 2
    rng = np.random.default_rng(resolution + sem_dim)
    for p, q in pairs:
        if p.shape == q.shape:
            assert p.data.tobytes() == q.data.tobytes()
            if p.data.ndim == 1:  # norm scales and shifts, biases: not 1, 0
                p.data[...] = q.data[...] = rng.uniform(0.5, 1.5, p.shape)
        else:
            assert p.shape[2:] == (2, 2) and q.shape[2:] == (4, 4)
            assert np.array_equal(p.data, q.data[:, :, 1:3, 1:3])
    x = rng.random((3, 1, resolution, resolution), dtype=np.float32)
    sem = rng.standard_normal((3, sem_dim)).astype(np.float32) if sem_dim else None
    weights = rng.standard_normal((3, 1, resolution, resolution)).astype(np.float32)
    out, grads = _generator_pass(gen, x, sem, weights)
    ref_out, ref_grads = _generator_pass(ref, x, sem, weights)
    for p, q in inner:
        border = q.grad.copy()
        border[:, :, 1:3, 1:3] = 0
        assert not border.any()
    n_in = len(grads) - len(pairs)
    ref_grads = ref_grads[:n_in] + [q.grad[:, :, 1:3, 1:3] if p.shape != q.shape
                                    else q.grad for p, q in pairs]
    for new, old in zip([out] + grads, [ref_out] + ref_grads):
        assert new.shape == old.shape
        assert np.max(np.abs(new - old)) <= 1e-5 * np.max(np.abs(old))


@pytest.mark.parametrize("resolution, sem_dim",
                         [(16, 0), (32, 0), (32, 8), (64, 0)])
def test_every_parameter_gets_a_gradient(resolution, sem_dim):
    """Every scalar of G's and D's parameters gets a nonzero gradient for
    some model seed and random batch: no weight is dead by the geometry.
    (A relu unit may be dead for one seed's weights; a tap that only meets
    padding is dead for all.)"""
    live = None
    rng = np.random.default_rng(resolution + sem_dim)
    for seed in range(8):
        cfg = GanTrainConfig(resolution=resolution, base_channels=2,
                             semantic_dim=sem_dim, seed=seed)
        gen, disc = build_generator(cfg), build_discriminator(cfg)
        params = gen.parameters() + disc.parameters()
        if live is None:
            live = [np.zeros(p.shape, dtype=bool) for p in params]
        x = Tensor(rng.random((4, 1, resolution, resolution), dtype=np.float32))
        y = rng.random((4, 1, resolution, resolution), dtype=np.float32)
        sem = (Tensor(rng.standard_normal((4, sem_dim)).astype(np.float32))
               if sem_dim else None)
        gen.set_training(True)
        fake = gen.forward(x, sem)
        generator_loss(disc.forward(x, fake), fake, y, 1.0)[0].backward()
        for seen, p in zip(live, params):
            seen |= p.grad != 0
    assert all(seen.all() for seen in live)
