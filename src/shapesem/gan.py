"""Conditional encoder-decoder GAN fusing decoded shapes and semantics.

The generator is a U-Net built from stride-2 4x4 (de)convolutions with the
semantic vector broadcast and channel-concatenated at the 1x1 bottleneck;
the conv into the bottleneck and the one out of it keep only the 2x2 taps
that ever meet the 2x2 level.
The discriminator scores (shape, image) channel pairs patch-wise.  Training
alternates one discriminator step and one generator step per batch.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from . import tensor as T
from .dataset import binarize_mask
from .errors import ConfigError, DataError, DimensionError, NumericalError
from .nn import (BatchNorm2d, Conv2d, ConvTranspose2d, Sequentialish,
                 check_budget, check_fields)
from .optim import Adam
from .patches import extract_patch_features, upsample_nearest
from .serial import check_shapes, open_artifact, save_artifact, write_csv
from .tensor import Tensor

CHECKPOINT_MAGIC = b"GAN1"


@dataclass
class GanTrainConfig:
    resolution: int = 32
    lambda_img: float = 100.0
    lr: float = 2e-4
    beta1: float = 0.9
    beta2: float = 0.999
    batch: int = 10
    epochs: int = 200
    decay_start: int = 120
    base_channels: int = 16
    semantic_dim: int = 64  # 0 disables semantic conditioning
    seed: int = 0

    def __post_init__(self):
        check_fields(self, resolution=16, lambda_img=0, lr=0, beta1=0, beta2=0,
                     batch=1, epochs=1, decay_start=0, base_channels=1,
                     semantic_dim=0, seed=0)
        if self.resolution & (self.resolution - 1):
            raise ConfigError("resolution must be a power of two, got %d"
                              % self.resolution)
        if not self.decay_start < self.epochs:
            raise ConfigError("decay_start must be < epochs")
        if not self.lr > 0:
            raise ConfigError("lr must be > 0, got %r" % self.lr)
        check_budget(self, self.parameter_count(), "parameters", "resolution",
                     "base_channels", "semantic_dim")

    def parameter_count(self) -> int:
        """Parameters of the generator and discriminator, counted without
        building them: a k x k kernel per conv, then per output channel a
        scale and a shift where a batch norm follows, else a bias."""
        return sum(k * k * i * o + (2 * o if norm else o)
                   for i, o, norm, k, _, _ in conv_plan(self))


# (kernel, stride, pad) of a conv that halves or doubles the resolution, of
# a conv with only its 2x2 centre taps live, and of D's head
HALVE, INNERMOST, HEAD = (4, 2, 1), (2, 1, 0), (4, 1, 1)


def conv_plan(config: GanTrainConfig):
    """``(in_channels, out_channels, norm_follows, kernel, stride, pad)`` of
    every conv in build order: G's encoder, G's transposed decoder (one
    level each per halving of the resolution), D's three stride-2 convs,
    then D's head.  A conv that a batch norm follows has no bias.

    G's 2x2 -> 1x1 conv and its 1x1 -> 2x2 transposed conv are the 2x2
    centre of a stride-2, pad-1 4x4 conv: the other 12 taps of the 4x4 one
    only meet zero padding, or only write where the crop drops.  At
    resolution 16, D's stride-1, pad-1 4x4 head over the 2x2 level is
    likewise its 2x2 centre."""
    b = config.base_channels
    depth = config.resolution.bit_length() - 1
    ch = [min(b * 2 ** i, 8 * b) for i in range(depth)]
    up = ch[-2::-1] + [1]
    # the bottleneck joined by the semantics, then each output by its skip
    up_in = [ch[-1] + config.semantic_dim] + [2 * c for c in up[:-1]]
    # no norm on G's first conv, its 1x1 bottleneck or its output
    enc = [(i, o, 0 < k < depth - 1, *(INNERMOST if k == depth - 1 else HALVE))
           for k, (i, o) in enumerate(zip([1] + ch, ch))]
    dec = [(i, o, k < depth - 1, *(INNERMOST if k == 0 else HALVE))
           for k, (i, o) in enumerate(zip(up_in, up))]
    head = INNERMOST if config.resolution == 16 else HEAD
    return enc + dec + [(2, b, False, *HALVE), (b, 2 * b, True, *HALVE),
                        (2 * b, 4 * b, True, *HALVE), (4 * b, 1, False, *head)]


def generator_shapes(config: GanTrainConfig) -> list:
    """G's state-array shapes in ``GeneratorNet.state_arrays`` order, read
    from the plan without building G: the encoder's convs (each kernel, and
    a bias where no norm follows), the encoder's norms (scale, shift and two
    running statistics each), then the same for the transposed decoder."""
    plan = conv_plan(config)[:-4]
    depth = len(plan) // 2
    shapes = []
    for rows, transpose in ((plan[:depth], False), (plan[depth:], True)):
        for i, o, norm, k, _, _ in rows:
            shapes += [(i, o, k, k) if transpose else (o, i, k, k)]
            shapes += [] if norm else [(o,)]
        shapes += [(o,) for _, o, norm, *_ in rows if norm for _ in range(4)]
    return shapes


def _convs(cls, plan, rng, **norm_kw):
    """The convs of ``plan`` rows, each with its batch norm or None.  Every
    kernel is drawn 4x4, so a 2x2 one is the centre of the 4x4 draw."""
    convs = [cls(i, o, k, stride, pad, rng, bias=not norm, draw=4)
             for i, o, norm, k, stride, pad in plan]
    return convs, [BatchNorm2d(row[1], **norm_kw) if row[2] else None
                   for row in plan]


class GeneratorNet(Sequentialish):
    """U-Net: depth log2(S) encoder/decoder with level-wise skips."""

    def __init__(self, config: GanTrainConfig, rng: np.random.Generator):
        self.config = config
        plan = conv_plan(config)[:-4]
        self.depth = len(plan) // 2
        self.enc, self.enc_bn = _convs(Conv2d, plan[:self.depth], rng)
        self.dec, self.dec_bn = _convs(ConvTranspose2d, plan[self.depth:], rng)
        self.layers = [l for l in self.enc + self.enc_bn + self.dec + self.dec_bn
                       if l is not None]

    def forward(self, shape_img: Tensor, semantics: Tensor | None) -> Tensor:
        # Each norm applies its level's activation in the same node: leaky
        # relu in the encoder, relu in the decoder.  feats holds leaky-relu
        # outputs, and relu(leaky_relu(x)) is relu(x), so the decoder's
        # relu(concat(h, skip)) is concat(h, relu(feats[skip])).
        feats = []
        h = shape_img
        for i, conv in enumerate(self.enc):
            h = conv(h)
            if self.enc_bn[i] is not None:
                h = self.enc_bn[i](h, 0.2)
            elif i < self.depth - 1:
                h = T.leaky_relu(h, 0.2)
            feats.append(h)
        if self.config.semantic_dim:
            if semantics is None:
                raise DimensionError("generator expects a semantic vector")
            sem = T.reshape(semantics, (semantics.shape[0], -1, 1, 1))
            h = T.concat([h, sem], axis=1)
        h = T.relu(h)
        for j, deconv in enumerate(self.dec):
            h = deconv(h)
            if self.dec_bn[j] is not None:
                h = self.dec_bn[j](h, 0.0)
            skip = self.depth - 2 - j
            if skip >= 0:
                h = T.concat([h, T.relu(feats[skip])], axis=1)
        out = T.tanh(h)
        return 0.5 * (out + 1.0)


class DiscriminatorNet(Sequentialish):
    """Patch discriminator over channel-concatenated (shape, image) pairs."""

    def __init__(self, config: GanTrainConfig, rng: np.random.Generator):
        self.config = config
        # D never runs in eval mode, so its norms keep no running statistics
        convs, bns = _convs(Conv2d, conv_plan(config)[-4:], rng, running=False)
        self.convs, self.bns, self.head = convs[:3], bns[:3], convs[3]
        self.layers = [l for l in self.convs + self.bns + [self.head]
                       if l is not None]

    def forward(self, shape_img: Tensor, image: Tensor) -> Tensor:
        h = T.concat([shape_img, image], axis=1)
        for conv, bn in zip(self.convs, self.bns):
            h = conv(h)
            h = T.leaky_relu(h, 0.2) if bn is None else bn(h, 0.2)
        return T.sigmoid(self.head(h))


def build_generator(config: GanTrainConfig) -> GeneratorNet:
    return GeneratorNet(config, np.random.default_rng(config.seed))


def build_discriminator(config: GanTrainConfig) -> DiscriminatorNet:
    return DiscriminatorNet(config, np.random.default_rng(config.seed + 1))


# -- losses -------------------------------------------------------------

def generator_loss(d_scores_on_fake: Tensor, fake_image: Tensor,
                   target_image, lambda_img: float):
    """Adversarial + weighted L1 term; returns (total, adv_part, l1_part)."""
    target = target_image if isinstance(target_image, Tensor) else Tensor(target_image)
    if fake_image.shape != target.shape:
        raise DimensionError("fake %s vs target %s" % (fake_image.shape, target.shape))
    adv = T.tmean(-T.log_clamped(d_scores_on_fake))
    l1 = T.tmean(T.tabs(target - fake_image))
    total = adv + float(lambda_img) * l1
    return total, adv, l1


def discriminator_loss(d_scores_on_real: Tensor, d_scores_on_fake: Tensor) -> Tensor:
    real = T.tmean(-T.log_clamped(d_scores_on_real))
    fake = T.tmean(-T.log_clamped(1.0 - d_scores_on_fake))
    return real + fake


def lr_at_epoch(config: GanTrainConfig, epoch: int) -> float:
    """Constant until decay_start, then linear to 0 at the final epoch."""
    if epoch <= config.decay_start:
        return config.lr
    return config.lr * (config.epochs - epoch) / (config.epochs - config.decay_start)


# -- training -----------------------------------------------------------

def make_augmented_pairs(images_with_labels, category_averages: dict,
                         m: int = 8):
    """(shape R_sp, category-average semantics R_sm, image) training pairs
    from external labeled images; no voxels.  Images whose label has no
    category-average feature are skipped."""
    pairs = []
    for image, label in images_with_labels:
        if int(label) in category_averages:
            grid = extract_patch_features(binarize_mask(image), m)
            pairs.append((upsample_nearest(grid, m), category_averages[int(label)],
                          np.asarray(image, dtype=np.float32)))
    return pairs


def train(generator: GeneratorNet, discriminator: DiscriminatorNet, pairs,
          config: GanTrainConfig):
    """Alternating D/G optimization; returns the per-epoch loss log.

    ``pairs``: list of (shape S x S, semantics vector or None, target S x S).
    The non-trained net is frozen during each step: the discriminator sees
    detached fakes, and during the generator step the discriminator's
    parameters do not require grad, so no gradient is computed for them.
    """
    if not pairs:
        raise DataError("no training pairs")
    s = config.resolution
    shapes = np.stack([np.asarray(p[0], dtype=np.float32) for p in pairs])[:, None]
    targets = np.stack([np.asarray(p[2], dtype=np.float32) for p in pairs])[:, None]
    if shapes.shape[-1] != s:
        raise DimensionError("pair resolution %d != config %d" % (shapes.shape[-1], s))
    if config.semantic_dim:
        sems = np.stack([np.asarray(p[1], dtype=np.float32) for p in pairs])
        if sems.shape[1] != config.semantic_dim:
            raise DimensionError("semantic dim %d != config %d"
                                 % (sems.shape[1], config.semantic_dim))
    else:
        sems = None

    opt_g = Adam(generator.parameters(), config.lr, config.beta1, config.beta2)
    opt_d = Adam(discriminator.parameters(), config.lr, config.beta1, config.beta2)
    rng = np.random.default_rng(config.seed + 2)
    generator.set_training(True)
    log = []
    n = len(pairs)
    for epoch in range(1, config.epochs + 1):
        lr = lr_at_epoch(config, epoch)
        opt_g.lr = opt_d.lr = lr
        order = rng.permutation(n)
        sums = np.zeros(4, dtype=np.float64)
        batches = 0
        for lo in range(0, n, config.batch):
            sel = order[lo : lo + config.batch]
            x_sp = Tensor(shapes[sel])
            y = Tensor(targets[sel])
            sem = Tensor(sems[sel]) if sems is not None else None
            fake = generator.forward(x_sp, sem)

            # discriminator step (generator frozen via detach)
            d_loss = discriminator_loss(discriminator.forward(x_sp, y),
                                        discriminator.forward(x_sp, fake.detach()))
            opt_d.zero_grad()
            d_loss.backward()
            opt_d.step()
            opt_d.zero_grad()

            # generator step (discriminator frozen: no weight grads computed)
            with discriminator.frozen():
                scores = discriminator.forward(x_sp, fake)
                g_total, g_adv, g_l1 = generator_loss(scores, fake, y,
                                                      config.lambda_img)
                opt_g.zero_grad()
                g_total.backward()
            opt_g.step()

            vals = (d_loss.item(), g_adv.item(), g_l1.item(), g_total.item())
            if not all(np.isfinite(vals)):
                raise NumericalError(
                    "non-finite loss at epoch %d batch %d: d=%r adv=%r l1=%r"
                    % (epoch, batches, vals[0], vals[1], vals[2]))
            sums += vals
            batches += 1
        log.append({"epoch": epoch, "lr": lr,
                    "d_loss": sums[0] / batches, "g_adv": sums[1] / batches,
                    "g_l1": sums[2] / batches, "g_total": sums[3] / batches})
    generator.set_training(False)
    return log


def write_loss_log(path, log) -> None:
    fields = ["epoch", "lr", "d_loss", "g_adv", "g_l1", "g_total"]
    write_csv(path, fields, [[row[f] for f in fields] for row in log])


def generate_batch(generator: GeneratorNet, shapes: np.ndarray,
                   semantics: np.ndarray | None) -> np.ndarray:
    """Eval-mode forward over (n, S, S) shapes and (n, d) semantics.

    Runs in chunks of ``config.batch`` to bound memory; eval-mode batch norm
    treats every sample on its own, so chunking does not change the output.
    The generator is frozen throughout, so no backward graph is recorded.
    """
    generator.set_training(False)
    shapes = np.asarray(shapes, dtype=np.float32)
    sems = None
    if generator.config.semantic_dim and semantics is not None:
        sems = np.asarray(semantics, dtype=np.float32)
    step = generator.config.batch
    out = np.empty_like(shapes)
    with generator.frozen():
        for lo in range(0, len(shapes), step):
            hi = lo + step
            sem = Tensor(sems[lo:hi]) if sems is not None else None
            out[lo:hi] = generator.forward(Tensor(shapes[lo:hi, None]),
                                           sem).data[:, 0]
    return out


def generate(generator: GeneratorNet, shape_img: np.ndarray,
             semantics: np.ndarray | None) -> np.ndarray:
    """Eval-mode forward pass for a single (shape, semantics) pair."""
    sems = None if semantics is None else np.asarray(semantics)[None]
    return generate_batch(generator, np.asarray(shape_img)[None], sems)[0]


# -- persistence --------------------------------------------------------

# A checkpoint holds what reconstruction reads: the generator's config and
# its state arrays.  The discriminator only serves training, and nothing
# resumes training from a checkpoint.

def save_checkpoint(path, generator: GeneratorNet) -> None:
    save_artifact(path, CHECKPOINT_MAGIC, asdict(generator.config),
                  generator.state_arrays())


def load_checkpoint(path):
    """(generator in eval mode, its config) from a checkpoint."""
    with open_artifact(path, CHECKPOINT_MAGIC) as (header, arrays):
        config = GanTrainConfig(**header)
        # before G exists, so a header that does not match its tensors
        # allocates nothing
        check_shapes(arrays, generator_shapes(config))
        generator = build_generator(config)
        for arr, saved in zip(generator.state_arrays(), arrays):
            arr[...] = saved
    generator.set_training(False)
    return generator, config
