"""Maximum-likelihood and minimum-risk training.

ML training follows a patience schedule: dev likelihood is checked every
``dev_check_interval`` training sentences, the best model is kept, and after
``patience`` sentences without improvement the best model is reloaded with a
halved learning rate (two halvings, then stop).

Minimum-risk training minimizes the expected error 1 - SBLEU over sampled
translations, with sample probabilities sharpened by ``alpha`` and
renormalized over the sample set.

Both losses take their gradients from the model's backward
(:func:`lexnmt.model._backward`): maximum likelihood walks the blocks of a
minibatch back with -1 per sentence (:func:`_ml_blocks`), minimum risk the
distinct samples of a sentence, drawn in lockstep (:func:`mrt_loss`), each
seeded with the derivative of the expected error by its log-probability
(Shen et al. 2016).  A training run fills one gradient buffer, zeroed
before each loss, and keeps its best model in one more.

Every sampled sentence draws from a random stream of its own, keyed by
seed, stage, epoch and sentence index (:func:`_stream`), so its samples do
not depend on what was drawn before it.  Every sample is drawn by one
rule (:func:`_drawing`) in the one-model walk
(:func:`lexnmt.model._walk_stack`) over the walk that search steps too
(:func:`lexnmt.model._walk`): MRT training walks one sentence's
samples with their steps; sampling without gradients (the MRT dev check,
:func:`sample_translations`, ``lexnmt sample``) walks the model's stacks
(:func:`lexnmt.model._stacks`) in one loop (:func:`_sampled`).
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from .errors import DataError, NumericalError
from .metrics import mrt_error
from .model import (BLOCK_ROWS, ModelParams, _backward, _length_cap,
                    _lockstep, _logprobs, _source_context, _stacks,
                    _teacher_forced, _walk_stack, save_checkpoint)

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
        if self.mrt.epochs < 1:
            raise ValueError("mrt.epochs must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        _check_alpha(self.mrt.alpha)

    @property
    def initial_lr(self) -> float:
        return self.lr_schedule[0]


class OptimizerState:
    """ADAM's first and second moments, in the parameters' layout, and step."""

    def __init__(self, tensors):
        self.m, self.v = tensors.like(), tensors.like()
        self.step = 0


def adam_update(params: ModelParams, grads, state: OptimizerState, lr: float):
    """Bias-corrected ADAM step, applied in place.

    Parameters, moments and ``grads`` share one buffer layout, updated in
    slices of ADAM_SLICE entries through two slice-sized buffers, so the
    working set stays in cache; each entry takes m = b1 m + (1 - b1) g, v =
    b2 v + (1 - b2) g g, p -= lr (m / bc1) / (sqrt(v / bc2) + eps) in order."""
    state.step += 1
    bc1, bc2 = 1.0 - ADAM_BETA1 ** state.step, 1.0 - ADAM_BETA2 ** state.step
    num, den = np.empty(ADAM_SLICE), np.empty(ADAM_SLICE)
    flat = (params.tensors.buffer, state.m.buffer, state.v.buffer, grads.buffer)
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


def _ml_blocks(params: ModelParams, pairs, lexicon):
    """The teacher-forced walks of ``pairs`` as the rows of blocks of at
    most BLOCK_ROWS rows, longest target first (ties in the given order),
    on the deferred walk (:func:`lexnmt.model._lockstep`): (training
    stack, walk) per block."""
    pairs = sorted(pairs, key=lambda p: -len(p.target))
    for i in range(0, len(pairs), BLOCK_ROWS):
        block = pairs[i:i + BLOCK_ROWS]
        enc = _source_context(params, [p.source for p in block], lexicon)
        yield enc, _lockstep(
            params, enc, [_target_with_eos(params, p) for p in block])


def nll_loss(params: ModelParams, batch, lexicon=None, *, grads=None):
    """Total negative log-likelihood of a batch and its parameter gradients,
    filled into ``grads`` (zeroed first) or fresh ones."""
    batch = list(batch)
    if not batch:
        raise ValueError("batch must be non-empty")
    total = 0.0
    grads = params.tensors.like() if grads is None else grads
    grads.buffer.fill(0.0)
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

def _stream(*key):
    """The random stream of ``key``: numpy's default generator seeded by
    the SeedSequence of the key, the one place training and sampling make
    a generator.  The keys are ``seed`` for the order of the ML minibatches;
    ``seed, 1, epoch`` for MRT's sentence order in an epoch; ``seed, 2,
    epoch, i`` for the samples of training sentence i (its index in the
    training set); ``seed, 3, c, j`` for dev sentence j at MRT dev check c
    (0 before training, epoch + 1 after each epoch); and ``seed, 4, 0, j``
    for input line j of ``lexnmt sample --seed``.  So a sentence's samples
    depend only on its own key, not on what was drawn before it."""
    return np.random.default_rng(list(key))


def _categorical(probs, u):
    """Each row's word drawn by its uniform ``u`` in [0, 1): the first id
    whose cumulative probability exceeds u times the row's total
    (searchsorted side="right" per row), the last id at most."""
    cum = np.cumsum(probs, axis=1)
    u = u * cum[:, -1]
    return np.minimum((cum <= u[:, None]).sum(axis=1), probs.shape[1] - 1)


def _check_sampling(num_samples: int, caps):
    if num_samples < 1 or min(caps, default=1) < 1:
        raise ValueError("num_samples and max_len must be >= 1")


def _drawing(eos: int, rngs, caps):
    """The ``choose`` of a sampling walk (:func:`lexnmt.model._walk_stack`):
    at each step sentence s draws one uniform per live row from ``rngs[s]``,
    and a row ends with the sentence end or at ``caps[s]`` words."""
    def draw(t, rows, sentences, counts, probs):
        u = [rngs[s].random(n) for s, n in zip(sentences, counts)]
        ids = _categorical(probs, u[0] if len(u) == 1 else np.concatenate(u))
        goes_on = ids != eos
        below = [t + 1 < caps[s] for s in sentences]
        if not all(below):  # a sentence at its cap
            goes_on &= np.repeat(below, counts)
        return ids, goes_on

    return draw


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


def _first_draws(samples) -> list[int]:
    """The index of each distinct sample's first draw, in first-draw
    order."""
    first = {}
    for r, sample in enumerate(samples):
        first.setdefault(sample, r)
    return list(first.values())


def _distinct_runs(walk):
    """The walk of the distinct samples, each the row of its first draw, in
    first-draw order."""
    return walk.take(_first_draws(walk.words))


def _sampled(params: ModelParams, sources, num_samples: int,
             max_len: int | None, streams, lexicon):
    """Each sentence's ``num_samples`` ancestral samples and their
    log-probabilities, in input order, sentence i drawing from its own
    generator ``streams[i]``.

    The sentences are sampled in the stacks of
    :func:`lexnmt.model._stacks`, shortest first, all sentences of a stack
    in lockstep (:func:`lexnmt.model._walk_stack`): at each step each
    sentence draws one uniform per live row from its stream, and each row
    steps as it steps alone.  So a sentence's samples are those it draws
    alone from its stream, whichever stack it is in."""
    if len(streams) != len(sources):
        raise ValueError("sampling needs one stream per sentence")
    caps = [_length_cap(F, max_len) for F in sources]
    _check_sampling(num_samples, caps)
    out = [None] * len(sources)
    for stack, (enc,) in _stacks([params], sources, num_samples, lexicon):
        draw = _drawing(params.tgt_eos, [streams[i] for i in stack],
                        [caps[i] for i in stack])
        for i, drawn in zip(stack, _walk_stack(params, enc, num_samples,
                                               draw)):
            out[i] = drawn
    return out


def sample_translations(params: ModelParams, F, num_samples: int, max_len: int,
                        rng, lexicon=None) -> list[tuple[int, ...]]:
    """``num_samples`` ancestral samples of F, in draw order, from one encoding.

    The samples are drawn in lockstep: each step draws one uniform per
    sample still live, in sample order.  The sentence-end id terminates a
    sample and is included in it; a sample that reaches ``max_len`` without
    drawing it is returned as-is.
    """
    (samples, _), = _sampled(params, [F], num_samples, max_len, [rng], lexicon)
    return samples


def _expected_error(params: ModelParams, E_ref, samples, logprobs,
                    alpha: float):
    """Expected error 1 - SBLEU over ``samples`` with log-probabilities
    ``logprobs``, weighted by P^alpha renormalized over the sample set.

    Returns the error and the derivative of the error by each sample's
    log-probability: with weights w = softmax(alpha * logp) and error
    L = sum_s w_s err_s, that is alpha * w_s * (err_s - L).
    """
    ref = tuple(E_ref)
    errors = np.array([mrt_error(ref, _strip_eos(s, params.tgt_eos))
                       for s in samples])
    weights = mrt_weights(logprobs, alpha)
    loss = float(weights @ errors)
    return loss, alpha * weights * (errors - loss)


def _risk_gradient(params: ModelParams, enc, E_ref, walk, alpha: float,
                   grads=None):
    """Expected error over the samples of ``walk`` and its gradient: one
    backward pass seeded per sample with d error / d logp, one encoder walk
    for them all."""
    loss, seeds = _expected_error(params, E_ref, walk.words, _logprobs(walk),
                                  alpha)
    grads = params.tensors.like() if grads is None else grads
    grads.buffer.fill(0.0)
    _backward(params, enc, walk, seeds, grads)
    return loss, grads


def mrt_loss_frozen(params: ModelParams, F, E_ref, samples, alpha: float,
                    lexicon=None):
    """Expected error over a fixed sample set, with exact gradients through
    both the error-weighted numerator and the renormalizer.

    The samples are teacher-forced in the padded walk that sampling steps
    (:func:`lexnmt.model._teacher_forced`), so a sample scores here
    exactly what it scored as drawn."""
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
    The gradients fill ``grads`` (zeroed first) or fresh ones.  The samples
    are drawn as :func:`_sampled` draws them, on the sentence's training
    stack, and keep the steps teacher forcing over them would compute."""
    if num_samples < 2:
        raise ValueError("num_samples must be >= 2")
    _check_alpha(alpha)
    if rng is None:
        raise ValueError("an rng is required for sampling")
    cap = _length_cap(F, max_sample_len)
    _check_sampling(num_samples, [cap])
    enc = _source_context(params, [F], lexicon)
    walk = _distinct_runs(_walk_stack(
        params, enc, num_samples, _drawing(params.tgt_eos, [rng], [cap]),
        keep=True))
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
    rng = _stream(config.seed)
    opt = OptimizerState(params.tensors)
    grads = params.tensors.like()
    log = TrainLogWriter(run_dir, header=_config_header(config, {"mode": "ml"}))

    best = params.copy()  # improvements are copied into its buffer
    best_dev, loss_sum, stop = math.inf, 0.0, False
    stage = sentences_seen = since_check = since_improve = token_sum = 0

    def dev_check():
        nonlocal best_dev, since_improve, since_check, stage, stop
        nonlocal loss_sum, token_sum
        dev = float(corpus_nll(params, dev_pairs, lexicon))
        if dev < best_dev:
            best_dev = dev
            params.copy(out=best)
            since_improve = 0
            if run_dir is not None and vocabs is not None:
                save_checkpoint(os.path.join(run_dir, "best.ckpt"), best,
                                vocabs[0], vocabs[1])
        log.append({"sentences_seen": sentences_seen,
                    "lr": config.lr_schedule[stage],
                    "train_loss": (loss_sum / token_sum) if token_sum else None,
                    "dev_loss": dev})
        loss_sum, token_sum, since_check = 0.0, 0, 0
        if since_improve >= config.patience:
            if stage + 1 < len(config.lr_schedule):
                stage += 1
                best.copy(out=params)
                opt.m.buffer[:] = opt.v.buffer[:] = 0.0
                opt.step = 0
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


def expected_sampled_error(params: ModelParams, pairs, mrt: MrtSettings,
                           streams, lexicon=None) -> float:
    """Mean per-sentence expected error over fresh samples (no gradients),
    pair j sampled from its own generator ``streams[j]``, all sentences of
    a stack in lockstep (:func:`_sampled`), and each sentence's distinct
    samples weighted as in training."""
    pairs = list(pairs)
    if not pairs:
        raise DataError("the dev set is empty")
    drawn = _sampled(params, [p.source for p in pairs], mrt.num_samples,
                     mrt.max_sample_len, streams, lexicon)
    errors = []
    for pair, (samples, logprobs) in zip(pairs, drawn):
        first = _first_draws(samples)
        errors.append(_expected_error(
            params, pair.target, [samples[r] for r in first], logprobs[first],
            mrt.alpha)[0])
    return float(np.mean(errors))


def train_mrt(params: ModelParams, train_pairs, dev_pairs, config: TrainConfig,
              run_dir=None, vocabs=None, lexicon=None):
    """Minimum-risk fine-tuning with per-sentence updates.

    Expects ``params`` to be a trained ML checkpoint (warm start).  Model
    selection is on dev expected sampled error; returns (best params, log).
    Each epoch's sentence order, each training sentence's samples and each
    dev sentence's samples at each check come from streams of their own
    (:func:`_stream`)."""
    train_pairs = list(train_pairs)
    dev_pairs = list(dev_pairs)
    if not train_pairs or not dev_pairs:
        raise DataError("train and dev sets must be non-empty")
    mrt = config.mrt
    opt = OptimizerState(params.tensors)
    grads = params.tensors.like()
    log = TrainLogWriter(run_dir, header=_config_header(config, {"mode": "mrt"}))

    def dev_error(model, check):
        streams = [_stream(config.seed, 3, check, j)
                   for j in range(len(dev_pairs))]
        return expected_sampled_error(model, dev_pairs, mrt, streams, lexicon)

    best = params.copy()
    best_dev = dev_error(best, 0)
    sentences_seen = 0
    for epoch in range(mrt.epochs):
        epoch_losses = []
        for i in _stream(config.seed, 1, epoch).permutation(len(train_pairs)):
            pair = train_pairs[i]
            try:
                loss, grads = mrt_loss(
                    params, pair.source, pair.target,
                    num_samples=mrt.num_samples, alpha=mrt.alpha,
                    rng=_stream(config.seed, 2, epoch, i),
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
        dev_err = dev_error(params, epoch + 1)
        if dev_err < best_dev:
            best_dev = dev_err
            params.copy(out=best)
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
