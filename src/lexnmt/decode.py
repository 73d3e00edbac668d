"""Beam search over one model or an ensemble.

Hypotheses are compared by log-probability plus a word penalty times the
hypothesis length, so a positive penalty favors longer output.  The live beam
of a sentence is a block of rows in lexicographic token order; each step
scores all their children as one (B, V) key block, whose sentence-end column
holds the step's completions.  Search of a sentence ends when its best live
partial no longer outscores its best completion or when the length cap is
reached; that early stop is exact only for a word penalty <= 0 (see
:func:`beam_search`).

Sentences are searched together, shortest first: their beams step as one
stack of 8-row blocks (:func:`lexnmt.model._block_step`), each block reading
its own sentence, and a sentence leaves the stack when its search ends or
its length cap is reached.  Attention runs once per run of sentences of one
length, everything else once per stack, and a block's rows get the same
bits in any stack, so each sentence's result is byte-identical to searching
it alone.  Each member encodes a stack's sentences in one pass, each its
own one-row product, cut straight into the runs
(:func:`lexnmt.model._stack_contexts`), so each sentence's part equals
encoding it alone; each run's L_F is built once for all members.  Stacks
are cut so that the estimated size of one member's decoder step stays
within STACK_BYTES.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# ensemble_distribution is imported to stay importable from this module
from .model import (BLOCK_ROWS, _as_model_list, _ensemble_logp, _init_state,
                    _length_cap, _stack_contexts, ensemble_distribution)

# The most estimated bytes of one member's decoder step of a stack.  Each
# wide-vocabulary line (V = 2000, d = 128) fills it alone, since stacking
# such lines gains no time and grows memory with the stack; the 13
# copy-long decode lines (V = 20, d = 32) fit in one stack.
STACK_BYTES = 1 << 20


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
            max_len: int | None, lexicon) -> list[Hypothesis]:
    """The best completions of the sentences, searched as one stack: each
    sentence keeps its own best completion and length cap, and leaves the
    stack when its search ends or it reaches its cap."""
    eos = models[0].tgt_eos
    encs = _stack_contexts(models, sources, lexicon)
    states = [_init_state(enc) for enc in encs]
    live = np.arange(len(sources))  # each stack sentence's input position
    caps = np.array([_length_cap(F, max_len) for F in sources])
    best = [None] * len(sources)
    best_key = np.full(len(live), -np.inf)  # in stack order
    # each token row starts with the sentence end, the first decoder input
    tokens = np.full((len(live), 1, 1), eos)
    logprob = np.zeros((len(live), 1))
    rows = np.zeros((len(live), 1), dtype=np.intp)
    at = np.arange(len(live))[:, None]

    while True:  # every cap is at least 1
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
        goes_on = (~(top <= best_key) & (top == top)
                   & (caps >= tokens.shape[2]))
        if not goes_on.all():
            live, best_key = live[goes_on], best_key[goes_on]
            if not len(live):
                break
            tokens, logprob, rows, caps = (tokens[goes_on], logprob[goes_on],
                                           rows[goes_on], caps[goes_on])
            at = at[:len(live)]
            # each state holds the same number of rows for every sentence
            states = [state.take(np.repeat(goes_on, len(state.hidden)
                                           // len(goes_on)))
                      for state in states]
            encs = [enc.sentences(goes_on) for enc in encs]
    return best


def _step_bytes(params, n: int, rows: int, lexicon) -> int:
    """Estimated bytes of one decoder step of ``params`` for a sentence of
    ``n`` source words with ``rows`` padded rows: the rows' LSTM, attention
    and output activations and their (rows, V) arrays, plus the sentence's
    R, MLP projection and L_F."""
    D, V = params.dec_hid, params.tgt_vocab_size
    a = params.attn_dim if params.attention == "mlp" else 0
    L = 0 if lexicon is None else V
    lstm = params.d_emb + 11 * D  # [x; ctx; h], gates and states
    attend = (3 + 2 * a) * n + D  # scores, weights, MLP tanh and context
    output = 3 * D + 5 * V + 2 * L  # [h; ctx], eta, softmax; L_F a, log
    return 8 * (rows * (lstm + attend + output) + (D + a + L) * n)


def _stacks(models, sources, beam_size: int, lexicon, order=None):
    """The input positions of the sentences in ``order``, by default
    shortest first (a stable sort, so sentences of one length stay in input
    order), cut into runs of neighbours, the stacks, whose estimated step
    of one member (the largest) with ``beam_size`` rows per sentence fits
    in STACK_BYTES; a sentence over it is a stack alone."""
    rows = -(-beam_size // BLOCK_ROWS) * BLOCK_ROWS  # a sentence's block rows
    if order is None:
        order = sorted(range(len(sources)), key=lambda i: len(sources[i]))
    stack, size = [], 0
    for i in order:
        cost = max(_step_bytes(m, len(sources[i]), rows, lexicon)
                   for m in models)
        if stack and size + cost > STACK_BYTES:
            yield stack
            stack, size = [], 0
        stack.append(i)
        size += cost
    if stack:
        yield stack


def beam_search_all(models, sources, beam_size: int = 5,
                    word_penalty: float = 0.0, max_len: int | None = None,
                    lexicon=None) -> list[Hypothesis]:
    """:func:`beam_search` of every sentence of ``sources``, in order.

    The sentences are searched together in stacks, shortest first (see
    :func:`_stacks`), and each result is byte-identical to searching its
    sentence alone."""
    models = _as_model_list(models)
    sources = [tuple(F) for F in sources]
    if beam_size < 1:
        raise ValueError("beam_size must be >= 1")
    if not all(sources):
        raise ValueError("source sentence is empty")
    if max_len is not None and max_len < 1:
        raise ValueError("max_len must be >= 1")
    out = [None] * len(sources)
    for stack in _stacks(models, sources, beam_size, lexicon):
        hyps = _search(models, [sources[i] for i in stack], beam_size,
                       word_penalty, max_len, lexicon)
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

    Search stops once the best live partial no longer outscores the best
    completion.  That stop is exact only for ``word_penalty <= 0``: a
    positive penalty adds to the key of every later word, so a longer
    hypothesis can still overtake the completion.  With
    ``tests/helpers.tiny_model(src_size=9, tgt_size=8, d=5,
    attention="mlp", seed=0, init_scale=0.5)``, F = (1, 5, 7, 4), beam 5
    and penalty 40, search returns ``(eos,)`` (score 37.96) after one step,
    while ``(3, 3, eos)`` scores -6.22 + 120 = 113.78.
    """
    return beam_search_all(models, [F], beam_size, word_penalty, max_len,
                           lexicon)[0]


def translate(models, F, beam_size: int = 5, word_penalty: float = 0.0,
              max_len: int | None = None, lexicon=None) -> list[int]:
    """Beam-search F and return content ids (sentence-end stripped)."""
    return list(beam_search(models, F, beam_size, word_penalty, max_len,
                            lexicon).tokens[:-1])
