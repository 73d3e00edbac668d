"""Maximum-likelihood and minimum-risk training.

ML training follows a patience schedule: dev likelihood is checked every
``dev_check_interval`` training sentences, the best model is kept, and after
``patience`` sentences without improvement the best model is reloaded with a
halved learning rate (two halvings, then stop).

Minimum-risk training minimizes the expected error 1 - SBLEU over sampled
translations, with sample probabilities sharpened by ``alpha`` and
renormalized over the sample set.

Both losses take their gradients from the model's backward
(:func:`lexnmt.model._backward`).  Maximum likelihood steps the sentences
of a minibatch (or of the dev set) as the rows of blocks of at most
``model.BLOCK_ROWS`` rows, longest target first: each block is encoded
together, teacher-forced through the recurrence and attention, scored by
one output-layer product over all its row-steps, and walked back together
with -1 per sentence.  Minimum risk is weighted teacher forcing: the
distinct samples of a sentence are scored against one encoding and each is
seeded with the derivative of the expected error by its log-probability
(Shen et al. 2016).  A training run fills one gradient dict, zeroed before
each loss.

The N samples of a sentence are drawn in lockstep: they are the rows of one
block state, stepped together in blocks of ``model.BLOCK_ROWS`` rows, with
one uniform per live row at each step, in sample order.  A sample that draws
the sentence end leaves the block.  Each distinct sample keeps the steps of
its first draw, and the backward walks the distinct samples back together.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from .decode import _stacks
from .errors import DataError, NumericalError
from .metrics import mrt_error
from .model import (BLOCK_ROWS, ModelParams, _backward, _length_cap,
                    _lockstep, _logprobs, _source_context, _Stack,
                    _stack_contexts, _teacher_forced, save_checkpoint)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
ADAM_SLICE = 16384  # elements per in-cache slice of an ADAM update


def _check_alpha(alpha: float):
    """Refuse a minimum-risk sharpness outside 0 < alpha < inf."""
    if not 0 < alpha < math.inf:  # False for nan too
        raise ValueError("alpha must be > 0 and finite")


@dataclass
class MrtSettings:
    num_samples: int = 20
    alpha: float = 0.005
    max_sample_len: int | None = None  # None -> 2*|F| + 10 per sentence
    epochs: int = 1


@dataclass
class TrainConfig:
    lr_schedule: tuple[float, ...] = (0.001, 0.0005, 0.00025)
    word_budget: int = 2048
    clip_norm: float = 5.0
    dev_check_interval: int = 250_000
    patience: int = 2_000_000
    max_epochs: int | None = None
    mrt: MrtSettings = field(default_factory=MrtSettings)
    seed: int = 0

    def __post_init__(self):
        # floats must be finite; 0 < x < inf is False for nan
        if not self.lr_schedule or not all(0 < lr < math.inf
                                           for lr in self.lr_schedule):
            raise ValueError("lr_schedule must be positive and finite")
        if self.word_budget < 1 or not 0 < self.clip_norm < math.inf:
            raise ValueError("word_budget and clip_norm must be finite, > 0")
        if self.dev_check_interval < 1 or self.patience < 1:
            raise ValueError("dev_check_interval and patience must be positive")
        if self.max_epochs is not None and self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.mrt.max_sample_len is not None and self.mrt.max_sample_len < 1:
            raise ValueError("mrt.max_sample_len must be >= 1")
        if self.mrt.num_samples < 2:
            raise ValueError("mrt.num_samples must be >= 2")
        _check_alpha(self.mrt.alpha)

    @property
    def initial_lr(self) -> float:
        return self.lr_schedule[0]


class OptimizerState:
    """Per-tensor first/second moment accumulators and a shared step counter."""

    def __init__(self, tensors: dict[str, np.ndarray]):
        self.m = {k: np.zeros_like(v) for k, v in tensors.items()}
        self.v = {k: np.zeros_like(v) for k, v in tensors.items()}
        self.step = 0


def adam_update(params: ModelParams, grads: dict[str, np.ndarray],
                state: OptimizerState, lr: float):
    """Bias-corrected ADAM step, applied in place.

    Each tensor is updated in slices of ADAM_SLICE elements through two
    slice-sized buffers, so the working set stays in cache; every entry takes
    the elementwise operations of m = b1 m + (1 - b1) g, v = b2 v + (1 - b2)
    g g, p -= lr (m / bc1) / (sqrt(v / bc2) + eps) in that order."""
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.step
    bc2 = 1.0 - ADAM_BETA2 ** state.step
    num, den = np.empty(ADAM_SLICE), np.empty(ADAM_SLICE)
    for name, grad in grads.items():
        # views: parameters and moments are C-contiguous
        flat = [x.reshape(-1) for x in (params.tensors[name], state.m[name],
                                        state.v[name], grad)]
        for i in range(0, flat[0].size, ADAM_SLICE):
            p, m, v, g = (x[i:i + ADAM_SLICE] for x in flat)
            a, b = num[:len(p)], den[:len(p)]
            m *= ADAM_BETA1
            np.multiply(1.0 - ADAM_BETA1, g, out=a)
            m += a
            v *= ADAM_BETA2
            np.multiply(1.0 - ADAM_BETA2, g, out=a)
            a *= g
            v += a
            np.divide(m, bc1, out=a)
            np.multiply(lr, a, out=a)
            np.divide(v, bc2, out=b)
            np.sqrt(b, out=b)
            b += ADAM_EPS
            a /= b
            p -= a
    return params, state


def gradient_norm(grads: dict[str, np.ndarray]) -> float:
    """Global L2 norm; the per-tensor sums are added left to right, so the
    bits do not depend on how the interpreter sums floats."""
    total = 0.0
    for g in grads.values():
        total += float((g * g).sum())
    return math.sqrt(total)


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float = 5.0):
    """Scale gradients so their global L2 norm does not exceed max_norm.

    A NaN or infinite entry makes the norm non-finite; only then are the
    tensors searched for the one to name.  Finite entries whose squares
    overflow give an infinite norm too, and scale by max_norm / inf = 0."""
    if max_norm <= 0:
        raise ValueError("max_norm must be > 0")
    norm = gradient_norm(grads)
    if not math.isfinite(norm):
        for name, g in grads.items():
            if not np.all(np.isfinite(g)):
                raise NumericalError(f"non-finite gradient in tensor '{name}'")
    if norm > max_norm:
        factor = max_norm / norm
        for g in grads.values():
            g *= factor
    return grads


# ---------------------------------------------------------------------------
# losses
# ---------------------------------------------------------------------------

def _target_with_eos(params: ModelParams, pair) -> tuple[int, ...]:
    return tuple(pair.target) + (params.tgt_eos,)


def _zero_grads(params: ModelParams, grads=None) -> dict[str, np.ndarray]:
    """Zero gradients of every tensor: ``grads`` zeroed in place, or a
    fresh dict."""
    if grads is None:
        return {k: np.zeros_like(v) for k, v in params.tensors.items()}
    for g in grads.values():
        g.fill(0.0)
    return grads


def _ml_blocks(params: ModelParams, pairs, lexicon):
    """The teacher-forced walks of ``pairs`` as the rows of blocks of at
    most BLOCK_ROWS rows, longest target first (ties in the given order),
    on the deferred walk: (source context, walk) per block."""
    pairs = sorted(pairs, key=lambda p: -len(p.target))
    for i in range(0, len(pairs), BLOCK_ROWS):
        block = pairs[i:i + BLOCK_ROWS]
        enc = _source_context(params, [p.source for p in block], lexicon)
        yield enc, _teacher_forced(
            params, enc, [_target_with_eos(params, p) for p in block],
            deferred=True)


def nll_loss(params: ModelParams, batch, lexicon=None, *, grads=None):
    """Total negative log-likelihood of a batch and its parameter gradients,
    filled into ``grads`` (zeroed first) or a fresh dict."""
    batch = list(batch)
    if not batch:
        raise ValueError("batch must be non-empty")
    total = 0.0
    grads = _zero_grads(params, grads)
    for enc, walk in _ml_blocks(params, batch, lexicon):
        for logp in _logprobs(walk).tolist():
            total -= logp
        _backward(params, enc, walk, np.full(len(walk.words), -1.0), grads)
    return total, grads


def corpus_nll(params: ModelParams, pairs, lexicon=None) -> float:
    """Mean per-token negative log-likelihood over a corpus."""
    total = 0.0
    tokens = 0
    for _, walk in _ml_blocks(params, pairs, lexicon):
        for logp in _logprobs(walk).tolist():
            total -= logp
        tokens += int(walk.alive.sum())
    return total / tokens


# ---------------------------------------------------------------------------
# sampling and minimum risk
# ---------------------------------------------------------------------------

def _draw_samples(params: ModelParams, enc, F, num_samples: int, rng,
                  max_sample_len: int | None):
    """``num_samples`` ancestral samples of F from its context, drawn in
    lockstep as the rows of one walk (a :class:`lexnmt.model._Walk`).

    Each step draws ``rng.random(n_live)``, one uniform per live row in
    sample order.  A sample ends with the sentence end or at the length cap;
    its steps are the steps teacher forcing over it would compute."""
    max_len = _length_cap(F, max_sample_len)
    if num_samples < 1 or max_len < 1:
        raise ValueError("num_samples and max_len must be >= 1")
    eos = params.tgt_eos

    def draw(t, rows, probs):
        cum = np.cumsum(probs, axis=1)
        u = rng.random(len(rows)) * cum[:, -1]
        # searchsorted(cum, u, side="right") per row, the last id at most
        ids = np.minimum((cum <= u[:, None]).sum(axis=1), probs.shape[1] - 1)
        return ids, (ids != eos) & (t + 1 < max_len)

    return _lockstep(params, enc, num_samples, draw)


def _strip_eos(sample, eos: int) -> tuple[int, ...]:
    sample = tuple(sample)
    return sample[:-1] if sample and sample[-1] == eos else sample


def mrt_weights(logprobs, alpha: float) -> np.ndarray:
    """Renormalized sample weights P^alpha / sum P^alpha from log-probabilities."""
    z = alpha * np.asarray(logprobs, dtype=float)
    z -= z.max()
    e = np.exp(z)
    return e / e.sum()


class _EmptySamples(ValueError):
    """Every distinct sample of a sentence is the bare sentence end."""


def _distinct_runs(walk):
    """The walk of the distinct samples, each the row of its first draw, in
    first-draw order."""
    first = {}
    for r, sample in enumerate(walk.words):
        first.setdefault(sample, r)
    return walk.take(list(first.values()))


def sample_translations(params: ModelParams, F, num_samples: int, max_len: int,
                        rng, lexicon=None) -> list[tuple[int, ...]]:
    """``num_samples`` ancestral samples of F, in draw order, from one encoding.

    The samples are drawn in lockstep: each step draws one uniform per
    sample still live, in sample order.  The sentence-end id terminates a
    sample and is included in it; a sample that reaches ``max_len`` without
    drawing it is returned as-is.
    """
    enc, = _stack_contexts([params], [F], lexicon)
    return _draw_samples(params, enc, F, num_samples, rng, max_len).words


def _expected_error(params: ModelParams, E_ref, walk, alpha: float):
    """Expected error 1 - SBLEU over the samples of ``walk`` (rows stepped
    against one context), weighted by P^alpha renormalized over the sample
    set.

    Returns the error and the derivative of the error by each sample's
    log-probability: with weights w = softmax(alpha * logp) and error
    L = sum_s w_s err_s, that is alpha * w_s * (err_s - L).
    """
    ref = tuple(E_ref)
    errors = np.array([mrt_error(ref, _strip_eos(s, params.tgt_eos))
                       for s in walk.words])
    weights = mrt_weights(_logprobs(walk), alpha)
    loss = float(weights @ errors)
    return loss, alpha * weights * (errors - loss)


def _risk_gradient(params: ModelParams, enc, E_ref, walk, alpha: float,
                   grads=None):
    """Expected error over the samples of ``walk`` and its gradient: one
    backward pass seeded per sample with d error / d logp, one encoder walk
    for them all."""
    loss, seeds = _expected_error(params, E_ref, walk, alpha)
    grads = _zero_grads(params, grads)
    _backward(params, enc, walk, seeds, grads)
    return loss, grads


def mrt_loss_frozen(params: ModelParams, F, E_ref, samples, alpha: float,
                    lexicon=None):
    """Expected error over a fixed sample set, with exact gradients through
    both the error-weighted numerator and the renormalizer.

    The samples are teacher-forced as rows of the blocks that sampling
    steps, so a sample scores here exactly what it scored as drawn."""
    _check_alpha(alpha)
    samples = [tuple(s) for s in samples]
    if not samples:
        raise ValueError("sample set must be non-empty")
    enc = _source_context(params, [F], lexicon)
    walk = _teacher_forced(params, enc, samples)
    return _risk_gradient(params, enc, E_ref, walk, alpha)


def mrt_loss(params: ModelParams, F, E_ref, num_samples: int = 20,
             alpha: float = 0.005, rng=None, max_sample_len: int | None = None,
             lexicon=None, *, grads=None):
    """Sampled minimum-risk loss for one sentence; duplicates are collapsed.
    The gradients fill ``grads`` (zeroed first) or a fresh dict."""
    if num_samples < 2:
        raise ValueError("num_samples must be >= 2")
    _check_alpha(alpha)
    if rng is None:
        raise ValueError("an rng is required for sampling")
    enc = _source_context(params, [F], lexicon)
    walk = _distinct_runs(
        _draw_samples(params, enc, F, num_samples, rng, max_sample_len))
    if all(len(_strip_eos(s, params.tgt_eos)) == 0 for s in walk.words):
        raise _EmptySamples("all sampled translations are empty")
    return _risk_gradient(params, enc, E_ref, walk, alpha, grads)


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------

class TrainLogWriter:
    """Append-only JSONL log; one record per dev check (or MRT epoch)."""

    def __init__(self, run_dir=None, header: dict | None = None):
        self.records: list[dict] = []
        self._fh = None
        if run_dir is not None:
            os.makedirs(run_dir, exist_ok=True)
            self._fh = open(os.path.join(run_dir, "trainlog.jsonl"), "w",
                            encoding="utf-8")
            if header is not None:
                self._fh.write(json.dumps({"header": header}, sort_keys=True)
                               + "\n")
                self._fh.flush()

    def append(self, record: dict):
        self.records.append(record)
        if self._fh is not None:
            self._fh.write(json.dumps(record, sort_keys=True) + "\n")
            self._fh.flush()

    def close(self):
        if self._fh is not None:
            self._fh.close()
            self._fh = None


def _config_header(config: TrainConfig, extra: dict | None = None) -> dict:
    header = asdict(config)
    header["lr_schedule"] = list(config.lr_schedule)
    if extra:
        header.update(extra)
    return header


def train_ml(params: ModelParams, train_pairs, dev_pairs, config: TrainConfig,
             run_dir=None, vocabs=None, lexicon=None):
    """Maximum-likelihood training; returns (best params, train log records).

    ``params`` is updated in place; the returned model is the checkpoint with
    the best dev score.
    """
    from .corpus import make_minibatches

    train_pairs = list(train_pairs)
    dev_pairs = list(dev_pairs)
    if not train_pairs or not dev_pairs:
        raise DataError("train and dev sets must be non-empty")

    batches = make_minibatches(train_pairs, config.word_budget)
    rng = np.random.default_rng(config.seed)
    opt = OptimizerState(params.tensors)
    grads = _zero_grads(params)
    log = TrainLogWriter(run_dir, header=_config_header(config, {"mode": "ml"}))

    best = params.copy()
    best_dev = math.inf
    stage = 0
    sentences_seen = 0
    since_check = 0
    since_improve = 0
    loss_sum = 0.0
    token_sum = 0
    stop = False

    def dev_check():
        nonlocal best, best_dev, since_improve, since_check, stage, stop
        nonlocal loss_sum, token_sum
        dev = float(corpus_nll(params, dev_pairs, lexicon))
        if dev < best_dev:
            best_dev = dev
            best = params.copy()
            since_improve = 0
            if run_dir is not None and vocabs is not None:
                save_checkpoint(os.path.join(run_dir, "best.ckpt"), best,
                                vocabs[0], vocabs[1])
        log.append({"sentences_seen": sentences_seen,
                    "lr": config.lr_schedule[stage],
                    "train_loss": (loss_sum / token_sum) if token_sum else None,
                    "dev_loss": dev})
        loss_sum = 0.0
        token_sum = 0
        since_check = 0
        if since_improve >= config.patience:
            if stage + 1 < len(config.lr_schedule):
                stage += 1
                params.tensors = {k: v.copy() for k, v in best.tensors.items()}
                opt.__init__(params.tensors)
                since_improve = 0
            else:
                stop = True

    epoch = 0
    while not stop and (config.max_epochs is None or epoch < config.max_epochs):
        for bi in rng.permutation(len(batches)):
            batch = batches[bi]
            loss, grads = nll_loss(params, batch, lexicon, grads=grads)
            if not math.isfinite(loss):
                raise NumericalError(f"non-finite loss in minibatch {bi}")
            clip_gradients(grads, config.clip_norm)
            adam_update(params, grads, opt, config.lr_schedule[stage])
            n = len(batch)
            sentences_seen += n
            since_check += n
            since_improve += n
            loss_sum += loss
            token_sum += sum(len(p.target) + 1 for p in batch)
            if since_check >= config.dev_check_interval:
                dev_check()
                if stop:
                    break
        epoch += 1
    if since_check > 0 and not stop:
        dev_check()
    log.close()
    return best, log.records


def expected_sampled_error(params: ModelParams, pairs, mrt: MrtSettings, rng,
                           lexicon=None) -> float:
    """Mean per-sentence expected error over fresh samples (no gradients).

    The sentences are sampled one after another from ``rng``, each from its
    run of one length, a context equal to encoding it alone.  They are
    encoded in stacks of neighbours cut as decode cuts its stacks (so the
    contexts held at once stay within the decode byte budget, whatever the
    size of the dev set), one pass per stack."""
    pairs = list(pairs)
    if not pairs:
        raise DataError("the dev set is empty")
    sources = [p.source for p in pairs]
    values = []
    for stack in _stacks([params], sources, mrt.num_samples, lexicon,
                         order=range(len(pairs))):
        enc, = _stack_contexts([params], [sources[i] for i in stack], lexicon)
        lines = (run.sentences(slice(j, j + 1))
                 for run in (enc.runs if isinstance(enc, _Stack) else [enc])
                 for j in range(len(run.lengths)))
        for i, line in zip(stack, lines):
            walk = _distinct_runs(_draw_samples(
                params, line, sources[i], mrt.num_samples, rng,
                mrt.max_sample_len))
            values.append(_expected_error(params, pairs[i].target, walk,
                                          mrt.alpha)[0])
    return float(np.mean(values))


def train_mrt(params: ModelParams, train_pairs, dev_pairs, config: TrainConfig,
              run_dir=None, vocabs=None, lexicon=None):
    """Minimum-risk fine-tuning with per-sentence updates.

    Expects ``params`` to be a trained ML checkpoint (warm start).  Model
    selection is on dev expected sampled error; returns (best params, log).
    """
    train_pairs = list(train_pairs)
    dev_pairs = list(dev_pairs)
    if not train_pairs or not dev_pairs:
        raise DataError("train and dev sets must be non-empty")
    mrt = config.mrt
    rng = np.random.default_rng(config.seed)
    opt = OptimizerState(params.tensors)
    grads = _zero_grads(params)
    log = TrainLogWriter(run_dir, header=_config_header(config, {"mode": "mrt"}))

    best = params.copy()
    best_dev = expected_sampled_error(
        best, dev_pairs, mrt, np.random.default_rng((config.seed, 0)), lexicon)
    sentences_seen = 0
    for epoch in range(mrt.epochs):
        epoch_losses = []
        for i in rng.permutation(len(train_pairs)):
            pair = train_pairs[i]
            try:
                loss, grads = mrt_loss(
                    params, pair.source, pair.target,
                    num_samples=mrt.num_samples, alpha=mrt.alpha, rng=rng,
                    max_sample_len=mrt.max_sample_len, lexicon=lexicon,
                    grads=grads)
            except _EmptySamples:
                # every sample scores SBLEU 0, so the expected error is 1
                # whatever the weights, and there is no gradient to follow
                loss = 1.0
            else:
                if not math.isfinite(loss):
                    raise NumericalError(f"non-finite loss on sentence {i}")
                clip_gradients(grads, config.clip_norm)
                adam_update(params, grads, opt, config.initial_lr)
            epoch_losses.append(loss)
            sentences_seen += 1
        dev_err = expected_sampled_error(
            params, dev_pairs, mrt,
            np.random.default_rng((config.seed, epoch + 1)), lexicon)
        if dev_err < best_dev:
            best_dev = dev_err
            best = params.copy()
            if run_dir is not None and vocabs is not None:
                save_checkpoint(os.path.join(run_dir, "best.ckpt"), best,
                                vocabs[0], vocabs[1])
        log.append({"sentences_seen": sentences_seen,
                    "lr": config.initial_lr,
                    "expected_error": float(np.mean(epoch_losses)),
                    "dev_expected_error": dev_err,
                    "num_samples": mrt.num_samples,
                    "alpha": mrt.alpha})
    log.close()
    return best, log.records
