"""Per-layer tracing for the pipeline benchmark.

The tracer replaces selected ``lexnmt`` functions with timing wrappers under
every name their callers look up: a function imported into another module
(``lexnmt.decode.decoder_step``, ``lexnmt.train.build_lexicon_matrix``, the
CLI's imports) is patched there too.  Spans nest, so each record has its
inclusive time, its self time (minus wrapped children) and its time per
wrapped child.  The tracer's own bookkeeping is kept out of every span.  A
name that no longer exists is listed as missing; the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict

LAYERS = (
    "corpus.learn_bpe", "corpus.apply_bpe", "align.ibm1_train",
    "autodiff.backward", "train.nll_loss", "train.corpus_nll",
    "train.adam_update", "train.clip_gradients", "train.sample_translation",
    "train.mrt_loss", "train.mrt_loss_frozen", "train.expected_sampled_error",
    "metrics.sbleu", "model.build_lexicon_matrix", "model.encode",
    "model._encode_g", "model.decoder_step", "model.save_checkpoint",
    "model.load_checkpoint", "decode.beam_search",
    "decode.ensemble_distribution",
)


class Record:
    __slots__ = ("calls", "total", "self_time", "children")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.children = defaultdict(float)


class _Frame:
    __slots__ = ("layer", "child", "children", "overhead_in")

    def __init__(self, layer, overhead_in):
        self.layer = layer
        self.child = 0.0
        self.children = defaultdict(float)
        self.overhead_in = overhead_in


def count_graph_nodes(root):
    """Nodes reachable from a tape root through their parents."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for p in stack.pop()._parents:
            if id(p) not in seen:
                seen.add(id(p))
                stack.append(p)
    return len(seen)


def forward_macs(params, pairs):
    """Multiply-adds of the teacher-forced forward, computed from shapes."""
    e, h, dec = params.d_emb, params.d_hid, 2 * params.d_hid
    a, V = params.attn_dim, params.tgt_vocab_size
    mlp = params.attention == "mlp"
    total = 0
    for p in pairs:
        n, m = len(p.source), len(p.target) + 1
        enc = 2 * (n + 1) * 3 * h * (e + h) + (a * dec * n if mlp else 0)
        step = (3 * dec * (e + 2 * dec) + dec * 2 * dec + V * dec + dec * n
                + (a * dec + a * n if mlp else dec * n))
        total += enc + m * step
    return total


class Tracer:
    """Collects spans and counters keyed by (stage, layer)."""

    def __init__(self):
        self.stage = None
        self.active = True
        self.records = defaultdict(Record)
        self.counts = defaultdict(float)
        self.missing = []
        self._stack = []
        self._overhead = 0.0
        self._patches = []

    @property
    def bookkeeping_s(self):
        """Time the wrappers spent on themselves, kept out of every span."""
        return self._overhead

    def within(self, layer):
        return any(f.layer == layer for f in self._stack)

    def count(self, name, amount=1):
        self.counts[self.stage, name] += amount

    # -- installation ------------------------------------------------------

    def install(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == "lexnmt" or name.startswith("lexnmt.")]
        for layer in LAYERS:
            mod_name, func_name = layer.split(".")
            try:
                module = importlib.import_module(f"lexnmt.{mod_name}")
            except ImportError:
                self.missing.append(layer)
                continue
            original = getattr(module, func_name, None)
            if not callable(original):
                self.missing.append(layer)
                continue
            wrapper = self._wrap(layer, original)
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is original:
                        setattr(m, attr, wrapper)
                        self._patches.append((m, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def _wrap(self, layer, fn):
        hook = _HOOKS.get(layer)
        signature = inspect.signature(fn) if hook else None
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            t_in = time.perf_counter()
            if hook is not None:
                try:
                    hook(tracer, signature.bind(*args, **kwargs).arguments)
                except (AttributeError, TypeError) as e:
                    note = f"{layer} counter ({type(e).__name__})"
                    if note not in tracer.missing:
                        tracer.missing.append(note)
            frame = _Frame(layer, tracer._overhead)
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            tracer._overhead += t0 - t_in
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                dur = t1 - t0 - (tracer._overhead - frame.overhead_in)
                rec = tracer.records[tracer.stage, layer]
                rec.calls += 1
                rec.total += dur
                rec.self_time += dur - frame.child
                for child, t in frame.children.items():
                    rec.children[child] += t
                if tracer._stack:
                    parent = tracer._stack[-1]
                    parent.child += dur
                    parent.children[layer] += dur
                tracer._overhead += time.perf_counter() - t1

        return traced

    # -- reading -------------------------------------------------------------

    def total(self, layer, stage=None):
        return sum(r.total for (s, name), r in self.records.items()
                   if name == layer and stage in (None, s))

    def calls(self, layer, stage=None):
        return sum(r.calls for (s, name), r in self.records.items()
                   if name == layer and stage in (None, s))

    def record(self, stage, layer):
        return self.records.get((stage, layer), Record())


def _hook_backward(tracer, args):
    if tracer.within("train.nll_loss"):
        tracer.count("ml_tape_nodes", count_graph_nodes(args["root"]))


def _hook_nll_loss(tracer, args):
    batch = args["batch"]
    if not isinstance(batch, (list, tuple)):
        return   # reading a one-shot iterable here would consume it
    tracer.count("ml_target_tokens", sum(len(p.target) + 1 for p in batch))
    tracer.count("ml_forward_macs", forward_macs(args["params"], batch))


def _hook_encode_g(tracer, args):
    if tracer.within("train.mrt_loss"):
        tracer.count("mrt_encoder_passes")


def _hook_mrt_loss_frozen(tracer, args):
    if tracer.within("train.mrt_loss"):
        tracer.count("mrt_distinct_samples", len(list(args["samples"])))


_HOOKS = {
    "autodiff.backward": _hook_backward,
    "train.nll_loss": _hook_nll_loss,
    "model._encode_g": _hook_encode_g,
    "train.mrt_loss_frozen": _hook_mrt_loss_frozen,
}


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tracer, overhead_s):
    """The per-layer metrics of one traced round, as name -> (value, unit)."""
    t, c = tracer, tracer.counts
    nll = t.record("train", "train.nll_loss")
    mrt_sentences = t.calls("train.mrt_loss", "mrt")
    beams = t.calls("decode.beam_search", "decode")
    flops = 2 * 3 * c["train", "ml_forward_macs"]   # backward ~ 2x forward
    return {
        "corpus.learn_bpe_s": (t.total("corpus.learn_bpe", "preprocess"), "s"),
        "corpus.apply_bpe_s": (t.total("corpus.apply_bpe", "preprocess"), "s"),
        "align.ibm1_train_s": (t.total("align.ibm1_train", "align"), "s"),
        "autodiff.backward_s": (t.total("autodiff.backward"), "s"),
        "autodiff.tape_nodes_per_target_token": (
            _ratio(c["train", "ml_tape_nodes"], c["train", "ml_target_tokens"]),
            "count"),
        "model.graph_forward_s": (
            nll.total - nll.children["autodiff.backward"]
            - nll.children["model.build_lexicon_matrix"], "s"),
        "model.build_lexicon_matrix_s": (
            t.total("model.build_lexicon_matrix"), "s"),
        "model.build_lexicon_matrix_calls": (
            t.calls("model.build_lexicon_matrix"), "count"),
        "train.adam_update_s": (t.total("train.adam_update"), "s"),
        "train.clip_gradients_s": (t.total("train.clip_gradients"), "s"),
        "train.corpus_nll_s": (t.total("train.corpus_nll", "train"), "s"),
        "train.achieved_gflops": (_ratio(flops, nll.total) / 1e9,
                                  "GFLOP/s-computed"),
        "train.sample_translation_s": (
            t.total("train.sample_translation", "mrt"), "s"),
        "train.mrt_loss_frozen_s": (t.total("train.mrt_loss_frozen", "mrt"), "s"),
        "train.expected_sampled_error_s": (
            t.total("train.expected_sampled_error", "mrt"), "s"),
        "train.distinct_samples_per_sentence": (
            _ratio(c["mrt", "mrt_distinct_samples"], mrt_sentences), "count"),
        "model.encoder_passes_per_mrt_sentence": (
            _ratio(c["mrt", "mrt_encoder_passes"], mrt_sentences), "count"),
        "metrics.sbleu_s": (t.total("metrics.sbleu", "mrt"), "s"),
        "decode.beam_search_s": (
            t.record("decode", "decode.beam_search").self_time, "s"),
        "model.decoder_step_s": (t.total("model.decoder_step", "decode"), "s"),
        "model.decoder_step_calls_per_sentence": (
            _ratio(t.calls("model.decoder_step", "decode"), beams), "count"),
        "model.encode_s": (t.total("model.encode", "decode"), "s"),
        "decode.ensemble_distribution_s": (
            t.total("decode.ensemble_distribution", "ensemble"), "s"),
        "model.save_checkpoint_s": (t.total("model.save_checkpoint"), "s"),
        "model.load_checkpoint_s": (t.total("model.load_checkpoint"), "s"),
        "trace.overhead_s": (overhead_s, "s"),
        "trace.bookkeeping_s": (tracer.bookkeeping_s, "s"),
        "trace.missing_names": (len(tracer.missing), "count"),
    }

