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

from .model import (DecoderState, _as_model_list, _init_state, _length_cap,
                    _source_context, _step_probs, ensemble_distribution)


@dataclass(frozen=True)
class Hypothesis:
    """tokens includes the trailing sentence-end id once complete; states
    holds each ensemble member's decoder state, None once complete."""
    tokens: tuple[int, ...]
    logprob: float
    states: tuple[DecoderState, ...] | None
    complete: bool


def score_hypothesis(hyp: Hypothesis, word_penalty: float) -> float:
    return hyp.logprob + word_penalty * len(hyp.tokens)


def _order_key(scored):
    # Highest score first; ties broken toward shorter, then lexicographically
    # smaller token sequences so search is deterministic.
    score, hyp = scored
    return (-score, len(hyp.tokens), hyp.tokens)


def beam_search(models, F, beam_size: int = 5, word_penalty: float = 0.0,
                max_len: int | None = None, lexicon=None) -> Hypothesis:
    """Return the best-scoring hypothesis for source sentence F.

    The result is complete in all but degenerate cases: the softmax gives the
    sentence-end id positive probability at every step, so a completion
    candidate is recorded from the first expansion on, and when the length cap
    (default 2*|F| + 10) cuts search short the best completion found so far is
    returned.  Only if no completion was ever recorded does the best partial
    come back with ``complete=False``.
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
    init = tuple(_init_state(m, enc) for m, enc in zip(models, encs))

    beam = [Hypothesis((), 0.0, init, False)]
    best_complete, best_key = None, None

    while beam and len(beam[0].tokens) < max_len:
        candidates: list[tuple[float, Hypothesis]] = []
        for hyp in beam:
            prev = hyp.tokens[-1] if hyp.tokens else eos
            steps = [_step_probs(m, prev, hyp.states[k], encs[k])
                     for k, m in enumerate(models)]
            states = tuple(st for st, _ in steps)
            with np.errstate(divide="ignore"):
                logp = np.log(ensemble_distribution([p for _, p in steps]))

            done = Hypothesis(hyp.tokens + (eos,), hyp.logprob + logp[eos],
                              None, True)
            key = _order_key((score_hypothesis(done, word_penalty), done))
            if best_complete is None or key < best_key:
                best_complete, best_key = done, key

            scores = hyp.logprob + logp
            live = np.flatnonzero(np.arange(len(logp)) != eos)
            order = live[np.argsort(-scores[live], kind="stable")]
            for v in order[:beam_size]:
                child = Hypothesis(hyp.tokens + (int(v),), float(scores[v]),
                                   states, False)
                candidates.append((score_hypothesis(child, word_penalty),
                                   child))

        candidates.sort(key=_order_key)
        beam = [hyp for _, hyp in candidates[:beam_size]]
        if best_complete is not None and beam:
            if (score_hypothesis(beam[0], word_penalty)
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
    models = _as_model_list(models)
    hyp = beam_search(models, F, beam_size, word_penalty, max_len, lexicon)
    tokens = list(hyp.tokens)
    if hyp.complete and tokens and tokens[-1] == models[0].tgt_eos:
        tokens.pop()
    return tokens
