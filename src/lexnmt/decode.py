"""Beam search over one model or an ensemble.

Hypotheses are compared by log-probability plus a word penalty times the
hypothesis length, so a positive penalty favors longer output.  A hypothesis
that emits the sentence-end id leaves the beam and is kept aside; search ends
when the best live partial no longer outscores the best completed hypothesis
or when the length cap is reached.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ensemble_distribution is imported to stay importable from this module
from .model import (_as_model_list, _ensemble_logp, _init_state, _length_cap,
                    _source_context, ensemble_distribution)


@dataclass(frozen=True)
class Hypothesis:
    """tokens includes the trailing sentence-end id once complete; states
    is the hypothesis' row in each member's block state (where its parent's
    step left it), None once complete."""
    tokens: tuple[int, ...]
    logprob: float
    states: int | None
    complete: bool


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
    """Return the best-scoring hypothesis for source sentence F.

    The result is complete in all but degenerate cases: the softmax gives the
    sentence-end id positive probability at every step, so a completion
    candidate is recorded from the first expansion on, and when the length cap
    (default 2*|F| + 10) cuts search short the best completion found so far is
    returned.  Only if no completion was ever recorded does the best partial
    come back with ``complete=False``.  Each search step advances all live
    hypotheses of a member as one block and picks the children from the block.
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
    encs = [_source_context(m, F, lexicon) for m in models]
    blocks = [_init_state(m, enc) for m, enc in zip(models, encs)]

    beam = [Hypothesis((), 0.0, 0, False)]
    best_complete, best_key = None, None

    while beam and len(beam[0].tokens) < max_len:
        rows = [hyp.states for hyp in beam]
        blocks, logp = _ensemble_logp(
            models, encs, [block.take(rows) for block in blocks],
            [hyp.tokens[-1] if hyp.tokens else eos for hyp in beam])

        # Highest score first; ties broken toward shorter, then
        # lexicographically smaller token sequences so search is deterministic.
        for hyp, lp in zip(beam, logp[:, eos]):
            done = Hypothesis(hyp.tokens + (eos,), hyp.logprob + lp, None,
                              True)
            key = (-score_hypothesis(done, word_penalty), len(done.tokens),
                   done.tokens)
            if best_complete is None or key < best_key:
                best_complete, best_key = done, key

        # the children are equally long, so their order is by score, then
        # parent's tokens, then word
        scores = np.array([hyp.logprob for hyp in beam])[:, None] + logp
        order = sorted(range(len(beam)), key=lambda i: beam[i].tokens)
        parents, words = _best_children(
            scores[order] + word_penalty * (len(beam[0].tokens) + 1), eos,
            beam_size)
        beam = [Hypothesis(beam[i].tokens + (int(v),), float(scores[i, v]), i,
                           False)
                for i, v in zip(np.take(order, parents), words)]
        if best_complete is not None and beam and (
                score_hypothesis(beam[0], word_penalty)
                <= score_hypothesis(best_complete, word_penalty)):
            return best_complete

    # Length cap hit: a completion wins even over a partial still ahead,
    # since only finished translations are usable output.
    return best_complete if best_complete is not None else beam[0]


def greedy_decode(models, F, max_len: int | None = None,
                  lexicon=None) -> Hypothesis:
    return beam_search(models, F, beam_size=1, word_penalty=0.0,
                       max_len=max_len, lexicon=lexicon)


def translate(models, F, beam_size: int = 5, word_penalty: float = 0.0,
              max_len: int | None = None, lexicon=None) -> list[int]:
    """Beam-search F and return content ids (sentence-end stripped)."""
    hyp = beam_search(models, F, beam_size, word_penalty, max_len, lexicon)
    return list(hyp.tokens[:-1] if hyp.complete else hyp.tokens)
