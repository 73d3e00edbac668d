"""Beam search over one model or an ensemble.

Hypotheses are compared by log-probability plus a word penalty times the
hypothesis length, so a positive penalty favors longer output.  The live beam
is a block of rows in lexicographic token order; each step scores all their
children as one (B, V) key block, whose sentence-end column holds the step's
completions.  Search ends when the best live partial no longer outscores the
best completion or when the length cap is reached.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ensemble_distribution is imported to stay importable from this module
from .model import (_as_model_list, _ensemble_logp, _init_state, _length_cap,
                    _source_context, ensemble_distribution)


@dataclass(frozen=True)
class Hypothesis:
    """A completion: tokens end with the sentence-end id."""
    tokens: tuple[int, ...]
    logprob: float


def score_hypothesis(hyp: Hypothesis, word_penalty: float) -> float:
    return hyp.logprob + word_penalty * len(hyp.tokens)


def _best_children(scores, eos: int, k: int):
    """(rows, words) of the k best children in a (B, V) score block, words
    other than ``eos``, in the order a stable argsort of the negated live
    scores gives; a partition finds the k-th score, and only the scores up to
    it are sorted."""
    live = np.delete(np.arange(scores.shape[1]), eos)
    neg = -scores[:, live].ravel()
    k = min(k, neg.size)
    cut = np.partition(neg, k - 1)[k - 1] if k else -np.inf
    best = np.flatnonzero(neg <= cut)
    best = best[np.argsort(neg[best], kind="stable")[:k]]
    return best // len(live), live[best % len(live)]


def beam_search(models, F, beam_size: int = 5, word_penalty: float = 0.0,
                max_len: int | None = None, lexicon=None) -> Hypothesis:
    """Return the best-scoring completion for source sentence F.

    Search always completes: the first step records a completion, and when
    the length cap (default 2*|F| + 10) cuts search short, the best completion
    wins even over a partial still ahead.  Exact score ties go to the shorter,
    then the lexicographically smaller tokens: the beam's rows are in token
    order, so the first of equal keys is the smallest.
    """
    models = _as_model_list(models)
    F = tuple(F)
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    if not F:
        raise ValueError("source sentence is empty")
    max_len = _length_cap(F, max_len)
    if max_len < 1:
        raise ValueError("max_len must be >= 1")

    eos = models[0].tgt_eos
    encs = [_source_context(m, [F], lexicon) for m in models]
    blocks = [_init_state(m, enc) for m, enc in zip(models, encs)]
    # each token row starts with the sentence end, the first decoder input
    tokens, logprob, rows = np.array([[eos]]), np.zeros(1), [0]
    best = None

    while len(tokens) and tokens.shape[1] <= max_len:
        blocks, logp = _ensemble_logp(models, encs, blocks, rows,
                                      tokens[:, -1])
        scores = logprob[:, None] + logp
        keys = scores + word_penalty * tokens.shape[1]
        done = int(np.argmax(keys[:, eos]))
        if best is None or keys[done, eos] > best_key:
            best = Hypothesis((*tokens[done, 1:].tolist(), eos),
                              float(scores[done, eos]))
            best_key = keys[done, eos]
        rows, words = _best_children(keys, eos, beam_size)
        order = np.lexsort((words, rows))
        rows, words = rows[order], words[order]
        tokens = np.column_stack([tokens[rows], words])
        logprob = scores[rows, words]
        if len(rows) and keys[rows, words].max() <= best_key:
            break
    return best


def translate(models, F, beam_size: int = 5, word_penalty: float = 0.0,
              max_len: int | None = None, lexicon=None) -> list[int]:
    """Beam-search F and return content ids (sentence-end stripped)."""
    return list(beam_search(models, F, beam_size, word_penalty, max_len,
                            lexicon).tokens[:-1])
