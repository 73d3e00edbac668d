"""Maximum-likelihood and minimum-risk training.

ML training follows a patience schedule: dev likelihood is checked every
``dev_check_interval`` training sentences, the best model is kept, and after
``patience`` sentences without improvement the best model is reloaded with a
halved learning rate (two halvings, then stop).

Minimum-risk training minimizes the expected error 1 - SBLEU over sampled
translations, with sample probabilities sharpened by ``alpha`` and
renormalized over the sample set.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, asdict

import numpy as np

from . import autodiff as ad
from .errors import DataError, NumericalError
from .metrics import mrt_error, sbleu
from .model import (GraphParams, ModelParams, _init_state_g, _length_cap,
                    _sentence_logprob_g, _source_context, _step_probs,
                    _teacher_forced_g, save_checkpoint)

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


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
        if not self.lr_schedule or any(lr <= 0 for lr in self.lr_schedule):
            raise ValueError("lr_schedule must be positive")
        if self.word_budget < 1 or self.clip_norm <= 0:
            raise ValueError("word_budget and clip_norm must be positive")
        if self.dev_check_interval < 1 or self.patience < 1:
            raise ValueError("dev_check_interval and patience must be positive")
        if self.mrt.num_samples < 2:
            raise ValueError("mrt.num_samples must be >= 2")
        if self.mrt.alpha <= 0:
            raise ValueError("mrt.alpha must be > 0")

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
    """Bias-corrected ADAM step, applied in place."""
    state.step += 1
    bc1 = 1.0 - ADAM_BETA1 ** state.step
    bc2 = 1.0 - ADAM_BETA2 ** state.step
    for name, g in grads.items():
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * g * g
        params.tensors[name] -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
    return params, state


def gradient_norm(grads: dict[str, np.ndarray]) -> float:
    return math.sqrt(sum(float((g * g).sum()) for g in grads.values()))


def clip_gradients(grads: dict[str, np.ndarray], max_norm: float = 5.0):
    """Scale gradients so their global L2 norm does not exceed max_norm."""
    if max_norm <= 0:
        raise ValueError("max_norm must be > 0")
    for name, g in grads.items():
        if not np.all(np.isfinite(g)):
            raise NumericalError(f"non-finite gradient in tensor '{name}'")
    norm = gradient_norm(grads)
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


def nll_loss(params: ModelParams, batch, lexicon=None):
    """Total negative log-likelihood of a batch and its parameter gradients."""
    batch = list(batch)
    if not batch:
        raise ValueError("batch must be non-empty")
    total = 0.0
    grads = {k: np.zeros_like(v) for k, v in params.tensors.items()}
    for pair in batch:
        gp = GraphParams(params)
        enc = _source_context(gp, pair.source, lexicon)
        lp = _sentence_logprob_g(gp, enc, _target_with_eos(params, pair))
        loss = ad.scale(lp, -1.0)
        ad.backward(loss)
        total += float(loss.value)
        for name, g in gp.grads().items():
            grads[name] += g
    return total, grads


def corpus_nll(params: ModelParams, pairs, lexicon=None) -> float:
    """Mean per-token negative log-likelihood over a corpus."""
    total = 0.0
    tokens = 0
    with ad.no_grad():
        gp = GraphParams(params)
        for pair in pairs:
            enc = _source_context(gp, pair.source, lexicon)
            E = _target_with_eos(params, pair)
            total -= float(_sentence_logprob_g(gp, enc, E).value)
            tokens += len(E)
    return total / tokens


def token_accuracy(params: ModelParams, pairs, lexicon=None) -> float:
    """Fraction of target positions where the argmax next-word prediction is
    correct under teacher forcing (sentence-end step included)."""
    correct = 0
    total = 0
    with ad.no_grad():
        gp = GraphParams(params)
        for pair in pairs:
            enc = _source_context(gp, pair.source, lexicon)
            E = _target_with_eos(params, pair)
            for e, logits in zip(E, _teacher_forced_g(gp, enc, E)):
                correct += int(np.argmax(logits.value) == e)
                total += 1
    return correct / total


# ---------------------------------------------------------------------------
# sampling and minimum risk
# ---------------------------------------------------------------------------

def _sample_g(gp: GraphParams, enc, max_len: int, rng) -> list[int]:
    """One ancestral sample from a source context, without gradient recording."""
    if max_len < 1:
        raise ValueError("max_len must be >= 1")
    out = []
    with ad.no_grad():
        state = _init_state_g(gp, enc)
        prev = gp.hp.tgt_eos
        for _ in range(max_len):
            state, probs = _step_probs(gp, prev, state, enc)
            cum = np.cumsum(probs)
            idx = int(np.searchsorted(cum, rng.random() * cum[-1], side="right"))
            idx = min(idx, len(probs) - 1)
            out.append(idx)
            if idx == gp.hp.tgt_eos:
                break
            prev = idx
    return out


def sample_translation(params: ModelParams, F, max_len: int, rng,
                       lexicon=None) -> list[int]:
    """Ancestral sample from the per-step output distributions.

    The sentence-end id terminates and is included in the returned sequence;
    a sample that reaches ``max_len`` without drawing it is returned as-is.
    """
    with ad.no_grad():
        gp = GraphParams(params)
        return _sample_g(gp, _source_context(gp, F, lexicon), max_len, rng)


def _strip_eos(sample, eos: int) -> tuple[int, ...]:
    sample = tuple(sample)
    return sample[:-1] if sample and sample[-1] == eos else sample


def mrt_weights(logprobs, alpha: float) -> np.ndarray:
    """Renormalized sample weights P^alpha / sum P^alpha from log-probabilities."""
    z = alpha * np.asarray(logprobs, dtype=float)
    z -= z.max()
    e = np.exp(z)
    return e / e.sum()


def mrt_expected_error(logprobs, errors, alpha: float) -> float:
    return float(mrt_weights(logprobs, alpha) @ np.asarray(errors, dtype=float))


class _EmptySamples(ValueError):
    """Every distinct sample of a sentence is the bare sentence end."""


def _draw_samples(gp: GraphParams, enc, F, num_samples: int, rng,
                  max_sample_len: int | None) -> list[tuple[int, ...]]:
    """``num_samples`` ancestral samples of F from its context, in draw order."""
    max_len = _length_cap(F, max_sample_len)
    return [tuple(_sample_g(gp, enc, max_len, rng)) for _ in range(num_samples)]


def _expected_error_g(gp: GraphParams, enc, E_ref, samples, alpha: float):
    """Expected error 1 - SBLEU over ``samples``, all scored against ``enc``,
    weighted by P^alpha renormalized over the sample set."""
    ref = tuple(E_ref)
    errors = np.array([mrt_error(ref, _strip_eos(s, gp.hp.tgt_eos))
                       for s in samples])
    logps = [_sentence_logprob_g(gp, enc, s) for s in samples]
    weights = ad.softmax_vec(ad.scale(ad.stack_scalars(logps), alpha))
    return ad.dotprod(weights, ad.Tensor(errors))


def mrt_loss_frozen(params: ModelParams, F, E_ref, samples, alpha: float,
                    lexicon=None):
    """Expected error over a fixed sample set, with exact gradients through
    both the error-weighted numerator and the renormalizer."""
    samples = [tuple(s) for s in samples]
    if not samples:
        raise ValueError("sample set must be non-empty")
    gp = GraphParams(params)
    enc = _source_context(gp, F, lexicon)
    loss = _expected_error_g(gp, enc, E_ref, samples, alpha)
    ad.backward(loss)
    return float(loss.value), gp.grads()


def mrt_loss(params: ModelParams, F, E_ref, num_samples: int = 20,
             alpha: float = 0.005, rng=None, max_sample_len: int | None = None,
             lexicon=None):
    """Sampled minimum-risk loss for one sentence; duplicates are collapsed."""
    if num_samples < 2:
        raise ValueError("num_samples must be >= 2")
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    if rng is None:
        raise ValueError("an rng is required for sampling")
    gp = GraphParams(params)
    enc = _source_context(gp, F, lexicon)
    samples = list(dict.fromkeys(  # first-draw order
        _draw_samples(gp, enc, F, num_samples, rng, max_sample_len)))
    if all(len(_strip_eos(s, params.tgt_eos)) == 0 for s in samples):
        raise _EmptySamples("all sampled translations are empty")
    loss = _expected_error_g(gp, enc, E_ref, samples, alpha)
    ad.backward(loss)
    return float(loss.value), gp.grads()


def mean_sampled_sbleu(params: ModelParams, pairs, num_samples: int, rng,
                       max_sample_len: int | None = None, lexicon=None) -> float:
    """Mean SBLEU of ancestral samples against their references."""
    scores = []
    with ad.no_grad():
        gp = GraphParams(params)
        for pair in pairs:
            enc = _source_context(gp, pair.source, lexicon)
            for s in _draw_samples(gp, enc, pair.source, num_samples, rng,
                                   max_sample_len):
                scores.append(sbleu(_strip_eos(s, params.tgt_eos), pair.target))
    return float(np.mean(scores))


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
             run_dir=None, vocabs=None, lexicon=None, dev_eval_fn=None):
    """Maximum-likelihood training; returns (best params, train log records).

    ``params`` is updated in place; the returned model is the checkpoint with
    the best dev score.  ``dev_eval_fn`` overrides the dev NLL evaluation
    (used by schedule tests).
    """
    from .corpus import make_minibatches

    train_pairs = list(train_pairs)
    dev_pairs = list(dev_pairs)
    if not train_pairs or not dev_pairs:
        raise DataError("train and dev sets must be non-empty")
    if dev_eval_fn is None:
        dev_eval_fn = lambda p: corpus_nll(p, dev_pairs, lexicon)

    batches = make_minibatches(train_pairs, config.word_budget)
    rng = np.random.default_rng(config.seed)
    opt = OptimizerState(params.tensors)
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
        dev = float(dev_eval_fn(params))
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
            loss, grads = nll_loss(params, batch, lexicon)
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
    """Mean per-sentence expected error over fresh samples (no gradients)."""
    values = []
    with ad.no_grad():
        gp = GraphParams(params)
        for pair in pairs:
            enc = _source_context(gp, pair.source, lexicon)
            samples = list(dict.fromkeys(_draw_samples(
                gp, enc, pair.source, mrt.num_samples, rng, mrt.max_sample_len)))
            values.append(float(_expected_error_g(
                gp, enc, pair.target, samples, mrt.alpha).value))
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
                    max_sample_len=mrt.max_sample_len, lexicon=lexicon)
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
