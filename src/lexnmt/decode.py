"""Beam search over one model or an ensemble.

Hypotheses are compared by log-probability plus a word penalty times the
hypothesis length, so a positive penalty favors longer output.  The live beam
of a sentence is a block of rows in lexicographic token order; each step
scores all their children as one (B, V) key block, whose sentence-end column
holds the step's completions.  Search of a sentence ends when its best live
partial no longer outscores its best completion or when the length cap is
reached.

Sentences of one source length are searched together: their beams step as
one stack of 8-row blocks (:func:`lexnmt.model._block_step`), each block
reading its own sentence, and a sentence leaves the stack when its search
ends.  A block's rows get the same bits in any stack, so each sentence's
result is byte-identical to searching it alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ensemble_distribution is imported to stay importable from this module
from .model import (_as_model_list, _ensemble_logp, _init_state, _length_cap,
                    _source_context, _stack_contexts, ensemble_distribution)

STACK_SENTENCES = 32  # most sentences of one length searched as one stack


@dataclass(frozen=True)
class Hypothesis:
    """A completion: tokens end with the sentence-end id."""
    tokens: tuple[int, ...]
    logprob: float


def score_hypothesis(hyp: Hypothesis, word_penalty: float) -> float:
    return hyp.logprob + word_penalty * len(hyp.tokens)


def _best_children(scores, eos: int, k: int):
    """(rows, words) of the k best children in each (B, V) score block of
    ``scores`` (..., B, V), words other than ``eos``, as (..., k) arrays in
    the order a stable argsort of the block's negated live scores gives; a
    partition finds each block's k-th score, and only the scores up to it
    are sorted.  NaN sorts last, so it is among a block's k only when its
    k-th score is NaN."""
    *lead, B, V = scores.shape
    live = np.arange(V - 1)
    live[eos:] += 1  # the words other than the sentence end
    neg = -scores[..., live].reshape(-1, B * (V - 1))
    k = min(k, neg.shape[1])
    cut = (np.partition(neg, k - 1, axis=1)[:, k - 1:k] if k
           else np.full((len(neg), 1), -np.inf))
    block, best = np.nonzero(~(neg > cut))
    best = best[np.lexsort((neg[block, best], block))]
    if len(best) > len(neg) * k:  # ties at a cut: keep each block's first k
        best = best[np.searchsorted(block, np.arange(len(neg)))[:, None]
                    + np.arange(k)]
    best = best.reshape(*lead, k)
    return best // (V - 1), live[best % (V - 1)]


def _search(models, sources, beam_size: int, word_penalty: float,
            max_len: int, lexicon) -> list[Hypothesis]:
    """The best completions of sentences of one length, searched as one
    stack: each sentence keeps its own best completion and leaves the stack
    when its search ends."""
    eos = models[0].tgt_eos
    encs = [_stack_contexts([_source_context(m, [F], lexicon)
                             for F in sources])
            for m in models]
    states = [_init_state(m, enc) for m, enc in zip(models, encs)]
    live = np.arange(len(sources))  # each stack sentence's input position
    best = [None] * len(sources)
    best_key = np.full(len(live), -np.inf)  # in stack order
    # each token row starts with the sentence end, the first decoder input
    tokens = np.full((len(live), 1, 1), eos)
    logprob = np.zeros((len(live), 1))
    rows = np.zeros((len(live), 1), dtype=np.intp)
    at = np.arange(len(live))[:, None]

    while tokens.shape[2] <= max_len:
        states, logp = _ensemble_logp(models, encs, states, rows,
                                      tokens[..., -1])
        scores = logprob[..., None] + logp
        penalty = word_penalty * tokens.shape[2]
        keys = scores + penalty
        ends = keys[..., eos]
        end_key = ends.max(axis=1)
        improved = (end_key > best_key) | (tokens.shape[2] == 1)
        found = np.flatnonzero(improved)
        if len(found):
            done = ends[found].argmax(axis=1)
            for i, prefix, logp_end in zip(
                    live[found].tolist(), tokens[found, done, 1:].tolist(),
                    scores[found, done, eos].tolist()):
                best[i] = Hypothesis((*prefix, eos), logp_end)
            best_key = np.where(improved, end_key, best_key)
        rows, words = _best_children(keys, eos, beam_size)
        if not rows.shape[1]:
            break
        V = keys.shape[2]
        rows, words = np.divmod(np.sort(rows * V + words), V)  # token order
        tokens = np.concatenate([tokens[at, rows], words[..., None]], axis=2)
        logprob = scores[at, rows, words]
        # the key of the best child; a NaN among the k best children stands
        # for no children at all
        top = logprob.max(axis=1) + penalty
        goes_on = ~(top <= best_key) & (top == top)
        if not goes_on.all():
            live, best_key = live[goes_on], best_key[goes_on]
            if not len(live):
                break
            tokens, logprob, rows = (tokens[goes_on], logprob[goes_on],
                                     rows[goes_on])
            at = at[:len(live)]
            # each state holds the same number of rows for every sentence
            states = [state.take(np.repeat(goes_on, len(state.hidden)
                                           // len(goes_on)))
                      for state in states]
            encs = [enc.sentences(goes_on) for enc in encs]
    return best


def beam_search_all(models, sources, beam_size: int = 5,
                    word_penalty: float = 0.0, max_len: int | None = None,
                    lexicon=None) -> list[Hypothesis]:
    """:func:`beam_search` of every sentence of ``sources``, in order.

    Sentences of one length are searched together, in stacks of at most
    STACK_SENTENCES in input order, and each result is byte-identical to
    searching its sentence alone."""
    models = _as_model_list(models)
    sources = [tuple(F) for F in sources]
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    if not all(sources):
        raise ValueError("source sentence is empty")
    if max_len is not None and max_len < 1:
        raise ValueError("max_len must be >= 1")
    groups = {}
    for i, F in enumerate(sources):
        groups.setdefault(len(F), []).append(i)
    out = [None] * len(sources)
    for group in groups.values():
        cap = _length_cap(sources[group[0]], max_len)
        for j in range(0, len(group), STACK_SENTENCES):
            stack = group[j:j + STACK_SENTENCES]
            hyps = _search(models, [sources[i] for i in stack], beam_size,
                           word_penalty, cap, lexicon)
            for i, hyp in zip(stack, hyps):
                out[i] = hyp
    return out


def beam_search(models, F, beam_size: int = 5, word_penalty: float = 0.0,
                max_len: int | None = None, lexicon=None) -> Hypothesis:
    """Return the best-scoring completion for source sentence F.

    Search always completes: the first step records a completion, and when
    the length cap (default 2*|F| + 10) cuts search short, the best completion
    wins even over a partial still ahead.  Exact score ties go to the shorter,
    then the lexicographically smaller tokens: the beam's rows are in token
    order, so the first of equal keys is the smallest.
    """
    return beam_search_all(models, [F], beam_size, word_penalty, max_len,
                           lexicon)[0]


def translate(models, F, beam_size: int = 5, word_penalty: float = 0.0,
              max_len: int | None = None, lexicon=None) -> list[int]:
    """Beam-search F and return content ids (sentence-end stripped)."""
    return list(beam_search(models, F, beam_size, word_penalty, max_len,
                            lexicon).tokens[:-1])
