"""Beam search over one model or an ensemble.

Hypotheses are compared by log-probability plus a word penalty times the
hypothesis length, so a positive penalty favors longer output.  The live beam
of a sentence is a block of rows in lexicographic token order; each step
scores all their children as one (B, V) key block, whose sentence-end column
holds the step's completions.  Search of a sentence ends when its best live
partial can no longer outscore its best completion within the length cap,
or when the cap is reached (see :func:`beam_search`).

Sentences are searched together, shortest first, in the stacks that
:func:`lexnmt.model._stacks` cuts and builds, stepped by the model's one
walk (:func:`lexnmt.model._walk`), which packs the beams of all of a
stack's sentences into shared 8-row blocks whose rows get the bits they get
stepped alone, so each result is byte-identical to searching its sentence
alone.  This module only chooses the children: it holds no decoder state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ensemble_distribution is imported to stay importable from this module
from .model import (_as_model_list, _length_cap, _stacks, _walk,
                    ensemble_distribution)


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
    the order a stable argsort of the block's negated live scores gives,
    the rows counted through all blocks (row r of block b is b * B + r); a
    partition finds each block's k-th score, and only the scores up to it
    are sorted.  NaN sorts last, so it is among a block's k only when its
    k-th score is NaN.  A model has at least two target words, so with
    k >= 1 every block has a child."""
    *lead, B, V = scores.shape
    live = np.arange(V - 1)
    live[eos:] += 1  # the words other than the sentence end
    neg = -scores[..., live].reshape(-1, B * (V - 1))
    k = min(k, neg.shape[1])
    cut = np.partition(neg, k - 1, axis=1)[:, k - 1:k]
    block, best = np.nonzero(~(neg > cut))  # block comes sorted
    best = (block * neg.shape[1] + best)[np.lexsort((neg[block, best],
                                                      block))]
    if len(best) > len(neg) * k:  # ties at a cut: keep each block's first k
        best = best[np.searchsorted(block, np.arange(len(neg)))[:, None]
                    + np.arange(k)]
    best = best.reshape(*lead, k)
    return best // (V - 1), live[best % (V - 1)]


def _search(models, sources, encs, beam_size: int, word_penalty: float,
            max_len: int | None) -> list[Hypothesis]:
    """The best completions of the sentences, searched as one stack from
    each member's context ``encs`` (:func:`lexnmt.model._stacks`) in one
    walk (:func:`lexnmt.model._walk`): each sentence keeps its own best
    completion and length cap, and leaves the stack when its search ends
    or it reaches its cap."""
    eos = models[0].tgt_eos
    caps = np.array([_length_cap(F, max_len) for F in sources])
    best = [None] * len(sources)
    best_key = np.full(len(sources), -np.inf)  # of the live sentences
    # each token row starts with the sentence end, the first decoder input
    tokens = np.full((len(sources), 1, 1), eos)
    logprob = np.zeros((len(sources), 1))

    def choose(t, live, counts, probs, *_):
        nonlocal tokens, logprob, best_key, caps
        scores = logprob[..., None] + np.log(probs).reshape(*logprob.shape, -1)
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
        V = keys.shape[2]
        rows, words = np.divmod(np.sort(rows * V + words), V)  # token order
        tokens = np.concatenate([tokens.reshape(len(probs), -1)[rows],
                                 words[..., None]], axis=2)
        logprob = scores.reshape(-1, V)[rows, words]
        # the key of the best child; a NaN among the k best children stands
        # for no children at all
        top = logprob.max(axis=1) + penalty
        if word_penalty > 0:  # each later word adds log p <= 0 plus this
            top = top + word_penalty * (caps - tokens.shape[2] + 1)
        goes_on = (~(top <= best_key) & (top == top)
                   & (caps >= tokens.shape[2]))
        if goes_on.all():
            return rows, words
        best_key, caps, tokens, logprob = (
            x[goes_on] for x in (best_key, caps, tokens, logprob))
        return rows[goes_on], words[goes_on]

    _walk(models, encs, 1, choose)
    return best


def beam_search_all(models, sources, beam_size: int = 5,
                    word_penalty: float = 0.0, max_len: int | None = None,
                    lexicon=None) -> list[Hypothesis]:
    """:func:`beam_search` of every sentence of ``sources``, in order.

    The sentences are searched together in stacks, shortest first (see
    :func:`lexnmt.model._stacks`), and each result is byte-identical to
    searching its sentence alone."""
    models = _as_model_list(models)
    sources = [tuple(F) for F in sources]
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    if not -np.inf < word_penalty < np.inf:
        raise ValueError("word_penalty must be finite")
    if not all(sources):
        raise ValueError("source sentence is empty")
    if max_len is not None and max_len < 1:
        raise ValueError("max_len must be >= 1")
    out = [None] * len(sources)
    for stack, encs in _stacks(models, sources, beam_size, lexicon):
        hyps = _search(models, [sources[i] for i in stack], encs, beam_size,
                       word_penalty, max_len)
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

    Search stops once the best live partial can no longer outscore the
    best completion: each later word adds log p <= 0 plus the penalty, so
    a positive ``word_penalty`` first raises the partial's key by the
    penalty of every word the length cap still allows.
    """
    return beam_search_all(models, [F], beam_size, word_penalty, max_len,
                           lexicon)[0]


def translate(models, F, beam_size: int = 5, word_penalty: float = 0.0,
              max_len: int | None = None, lexicon=None) -> list[int]:
    """Beam-search F and return content ids (sentence-end stripped)."""
    return list(beam_search(models, F, beam_size, word_penalty, max_len,
                            lexicon).tokens[:-1])
