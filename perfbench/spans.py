"""Stage timers, span tracing and per-layer aggregation for the benchmark.

Everything here measures the package from outside: it replaces public
functions and methods of ``shapesem`` with timing wrappers and puts the
originals back afterwards.  A function is replaced in every ``shapesem``
module that holds it, because ``from .gan import train`` binds the same
function object under ``shapesem.evaluation.train`` and callers look it up
there.
"""

from __future__ import annotations

import json
import sys
import time

perf = time.perf_counter

# conv levels of the resolution-32 generator and discriminator, named by net
# and input spatial size; channels depend on base_channels, so they are left
# out of the name to keep the names the same on every workload
CONV_LEVELS = (
    [("conv2d", "G", s) for s in (32, 16, 8, 4, 2)]
    + [("conv2d_transpose", "G", s) for s in (1, 2, 4, 8, 16)]
    + [("conv2d", "D", s) for s in (32, 16, 8, 4)]
)


class Patcher:
    """Replace callables where callers look them up, and undo it."""

    def __init__(self):
        self._undo = []

    def function(self, module, name, make_wrapper):
        current = getattr(sys.modules[module], name)
        wrapper = make_wrapper(current)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "shapesem"
                                   or mod_name.startswith("shapesem.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is current:
                    self._undo.append((mod, attr, val))
                    setattr(mod, attr, wrapper)

    def method(self, cls, name, make_wrapper):
        current = cls.__dict__[name]
        self._undo.append((cls, name, current))
        setattr(cls, name, make_wrapper(current))

    def restore(self):
        while self._undo:
            obj, attr, val = self._undo.pop()
            setattr(obj, attr, val)


class StageTimer:
    """Times the few stage calls behind the end-to-end throughputs.

    Each record is (name, start, end, work) where ``work`` counts the
    samples or comparisons the call was asked to process.
    """

    def __init__(self):
        self.records = []

    def install(self, patcher):
        def timed(name, work_of):
            def make(fn):
                def wrapper(*args, **kwargs):
                    t0 = perf()
                    out = fn(*args, **kwargs)
                    self.records.append((name, t0, perf(),
                                         work_of(*args, **kwargs)))
                    return out
                return wrapper
            return make

        def gan_work(generator, discriminator, pairs, config):
            return len(pairs) * config.epochs

        def sem_work(ds, config=None, roi_set="HVC", seed=0):
            epochs = config.epochs if config is not None else 60
            return len(ds.split_records("train")) * epochs

        def eval_work(recons, ground_truths, runs=5, seed=0, params=None):
            # the protocol's comparisons: one own and one distractor per
            # image and run, however many of them the cache answers
            return len(recons) * (1 + runs)

        patcher.function("shapesem.gan", "train", timed("gan.train", gan_work))
        patcher.function("shapesem.semantic", "train_semantic",
                         timed("semantic.train_semantic", sem_work))
        patcher.function("shapesem.evaluation", "pairwise_win_rate",
                         timed("evaluation.pairwise_win_rate", eval_work))

    def since(self, t0):
        return [r for r in self.records if r[1] >= t0]

    @staticmethod
    def work(records, name):
        """(work, busy seconds) over the named records, or None."""
        sel = [r for r in records if r[0] == name]
        if not sel:
            return None
        return sum(r[3] for r in sel), sum(r[2] - r[1] for r in sel)


class Tracer:
    """In-memory spans: [name, start, end, parent index, phase, value]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.phase = "setup"
        self.active = False

    def run(self, name, fn, args, kwargs=None, value=0.0):
        if not self.active:
            return fn(*args, **(kwargs or {}))
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        span = [name, perf(), 0.0, parent, self.phase, value]
        self.spans.append(span)
        self.stack.append(idx)
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            self.stack.pop()
            span[2] = perf()

    def enclosing_net(self):
        for idx in reversed(self.stack):
            name = self.spans[idx][0]
            if name == "gan.G.forward":
                return "G"
            if name == "gan.D.forward":
                return "D"
        return "other"

    # -- installation ----------------------------------------------------

    def install(self, patcher):
        import shapesem.gan as gan
        import shapesem.optim as optim
        import shapesem.tensor as tensor

        self._install_ops(patcher)

        def spanned(name):
            def make(fn):
                def wrapper(*args, **kwargs):
                    return self.run(name, fn, args, kwargs)
                return wrapper
            return make

        for module, func, name in (
            ("shapesem.linalg", "ridge_solve", "linalg.ridge_solve"),
            ("shapesem.shape_decoder", "fit_shape_decoder", "shape_decoder.fit"),
            ("shapesem.shape_decoder", "decode_shape", "shape_decoder.decode"),
            ("shapesem.semantic", "semantic_features", "semantic.features"),
            ("shapesem.semantic", "train_semantic", "semantic.train"),
            ("shapesem.gan", "train", "gan.train"),
            ("shapesem.gan", "generate", "gan.generate"),
            ("shapesem.gan", "save_checkpoint", "gan.checkpoint.save"),
            ("shapesem.gan", "load_checkpoint", "gan.checkpoint.load"),
            ("shapesem.evaluation", "ssim", "evaluation.ssim"),
            ("shapesem.evaluation", "pairwise_win_rate",
             "evaluation.pairwise_win_rate"),
            ("shapesem.evaluation", "run_pipeline", "evaluation.run_pipeline"),
            ("shapesem.dataset", "simulate", "dataset.simulate"),
            ("shapesem.dataset", "load_dataset", "dataset.load"),
            ("shapesem.dataset", "read_pgm", "dataset.read_pgm"),
            ("shapesem.dataset", "write_pgm", "dataset.write_pgm"),
            ("shapesem.dataset", "average_test_trials",
             "dataset.average_test_trials"),
            ("shapesem.cli", "cmd_reconstruct", "cli.reconstruct"),
            ("shapesem.cli", "cmd_evaluate", "cli.evaluate"),
        ):
            patcher.function(module, func, spanned(name))

        def read_array(fn):
            def wrapper(fh):
                out = self.run("serial.read_array", fn, (fh,))
                if self.active:
                    self.spans[-1][5] = float(out.nbytes)
                return out
            return wrapper

        patcher.function("shapesem.serial", "read_array", read_array)

        def spanned_method(name):
            def make(fn):
                def wrapper(obj, *args):
                    return self.run(name, fn, (obj,) + args)
                return wrapper
            return make

        patcher.method(gan.GeneratorNet, "forward", spanned_method("gan.G.forward"))
        patcher.method(gan.DiscriminatorNet, "forward",
                       spanned_method("gan.D.forward"))
        patcher.method(tensor.Tensor, "backward", spanned_method("tensor.backward"))

        def adam_step(fn):
            def wrapper(opt):
                n = float(sum(p.data.size for p in opt.params
                              if p.grad is not None))
                return self.run("optim.adam.step", fn, (opt,), value=n)
            return wrapper

        patcher.method(optim.Adam, "step", adam_step)

    def _install_ops(self, patcher):
        """Differentiable ops: forward span, plus a span around the backward
        closure so backward time is charged to the op that recorded it."""

        def op(name, flops_of=None):
            def make(fn):
                def wrapper(*args, **kwargs):
                    if not self.active:
                        return fn(*args, **kwargs)
                    suffix = ""
                    flops = 0.0
                    if flops_of is not None:
                        suffix = ":%s.in%d" % (self.enclosing_net(),
                                               args[0].shape[-1])
                        flops = flops_of(*args, **kwargs)
                    out = self.run(name + ".fwd" + suffix, fn, args, kwargs,
                                   flops)
                    bwd = out._backward
                    if bwd is not None:
                        bname = name + ".bwd" + suffix

                        def timed_bwd(g):
                            self.run(bname, bwd, (g,), value=2.0 * flops)

                        out._backward = timed_bwd
                    return out
                return wrapper
            return make

        def conv_flops(x, kernels, stride=1, pad=0):
            n = x.shape[0] if len(x.shape) == 4 else 1
            h, w = x.shape[-2:]
            cout, cin, kh, kw = kernels.shape
            ho = (h + 2 * pad - kh) // stride + 1
            wo = (w + 2 * pad - kw) // stride + 1
            return 2.0 * n * cout * ho * wo * cin * kh * kw

        def tconv_flops(x, kernels, stride=1, pad=0):
            n = x.shape[0] if len(x.shape) == 4 else 1
            h, w = x.shape[-2:]
            cin, cout, kh, kw = kernels.shape
            return 2.0 * n * cin * h * w * cout * kh * kw

        patcher.function("shapesem.tensor", "conv2d",
                         op("tensor.conv2d", conv_flops))
        patcher.function("shapesem.tensor", "conv2d_transpose",
                         op("tensor.conv2d_transpose", tconv_flops))
        patcher.function("shapesem.tensor", "batch_norm", op("tensor.batch_norm"))
        patcher.function("shapesem.tensor", "matmul", op("tensor.matmul"))

    # -- aggregation -----------------------------------------------------

    def layer_metrics(self, traced_rounds, setups):
        """Per-layer figures per traced round (set-up ones per set-up)."""
        rounds = max(traced_rounds, 1)
        per_setup = max(setups, 1)
        tot = {}
        cnt = {}
        val = {}
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] >= 0:
                child[span[3]] += span[2] - span[1]
        setup_tot = {}
        backward_self = 0.0
        for i, (name, t0, t1, parent, phase, value) in enumerate(self.spans):
            if phase == "setup":
                setup_tot[name] = setup_tot.get(name, 0.0) + (t1 - t0)
                continue
            if phase != "round":
                continue
            tot[name] = tot.get(name, 0.0) + (t1 - t0)
            cnt[name] = cnt.get(name, 0) + 1
            val[name] = val.get(name, 0.0) + value
            if name == "tensor.backward":
                backward_self += (t1 - t0) - child[i]

        def s(name):
            return tot.get(name, 0.0) / rounds

        def c(name):
            return cnt.get(name, 0) / rounds

        def prefix(pre, table):
            return sum(v for k, v in table.items()
                       if k == pre or k.startswith(pre + ":"))

        m = {}
        gflop = 0.0
        conv_s = 0.0
        for op in ("conv2d", "conv2d_transpose"):
            base = "tensor." + op
            m[base + ".calls"] = (prefix(base + ".fwd", cnt), "count")
            fwd = prefix(base + ".fwd", tot)
            bwd = prefix(base + ".bwd", tot)
            m[base + ".fwd_s"] = (fwd, "s")
            m[base + ".bwd_s"] = (bwd, "s")
            gflop += (prefix(base + ".fwd", val) + prefix(base + ".bwd", val)) / 1e9
            conv_s += fwd + bwd
        for key in list(m):
            m[key] = (m[key][0] / rounds, m[key][1])
        m["tensor.conv.gflop"] = (gflop / rounds, "GFLOP")
        m["tensor.conv.gflop_per_s"] = (gflop / conv_s if conv_s else 0.0,
                                        "GFLOP/s")
        for op, net, size in CONV_LEVELS:
            tag = "%s.in%d" % (net, size)
            for part in ("fwd", "bwd"):
                m["tensor.%s.%s.%s_s" % (op, tag, part)] = (
                    s("tensor.%s.%s:%s" % (op, part, tag)), "s")
        for op in ("batch_norm", "matmul"):
            m["tensor.%s.fwd_s" % op] = (s("tensor.%s.fwd" % op), "s")
            m["tensor.%s.bwd_s" % op] = (s("tensor.%s.bwd" % op), "s")
        m["tensor.backward.self_s"] = (backward_self / rounds, "s")
        steps = cnt.get("optim.adam.step", 0)
        params = val.get("optim.adam.step", 0.0)
        step_s = tot.get("optim.adam.step", 0.0)
        m["optim.adam.steps"] = (steps / rounds, "count")
        m["optim.adam.step_s"] = (step_s / rounds, "s")
        m["optim.adam.params_updated"] = (params / rounds, "count")
        m["optim.adam.ns_per_param"] = (1e9 * step_s / params if params else 0.0,
                                        "ns")
        for name in ("linalg.ridge_solve", "shape_decoder.decode",
                     "semantic.features", "gan.generate", "evaluation.ssim",
                     "serial.read_array"):
            m[name + ".calls"] = (c(name), "count")
            m[name + ".s"] = (s(name), "s")
        m["serial.read_array.bytes"] = (val.get("serial.read_array", 0.0) / rounds,
                                        "B")
        m["shape_decoder.fit_s"] = (s("shape_decoder.fit"), "s")
        m["semantic.train_s"] = (s("semantic.train"), "s")
        m["gan.train_s"] = (s("gan.train"), "s")
        m["evaluation.pairwise_win_rate_s"] = (
            s("evaluation.pairwise_win_rate"), "s")
        m["dataset.load_s"] = (s("dataset.load"), "s")
        m["dataset.read_pgm.calls"] = (c("dataset.read_pgm"), "count")
        m["dataset.write_pgm.calls"] = (c("dataset.write_pgm"), "count")
        m["dataset.average_test_trials_s"] = (s("dataset.average_test_trials"),
                                              "s")
        m["gan.checkpoint.load_s"] = (s("gan.checkpoint.load"), "s")
        m["gan.checkpoint.save_s"] = (
            setup_tot.get("gan.checkpoint.save", 0.0) / per_setup, "s")
        m["cli.reconstruct_s"] = (s("cli.reconstruct"), "s")
        m["cli.evaluate_s"] = (s("cli.evaluate"), "s")
        m["dataset.simulate_s"] = (
            setup_tot.get("dataset.simulate", 0.0) / per_setup, "s")
        return m

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "phase",
                                  "value"],
                       "spans": self.spans}, fh)

