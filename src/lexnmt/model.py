"""Attentional encoder-decoder with an optional lexicon-biased output softmax.

A bidirectional coupled-gate LSTM encodes the source into per-word columns R;
the decoder LSTM consumes [embed(previous word); previous context], attends
over R (dot product or MLP similarity), and emits the next-word distribution
softmax(W_s eta + b_s), optionally biased by log(L_F a + epsilon) where L_F
is a dense (|V_e|, |F|) slice of the lexical translation probabilities for the
source words.

The model is written once, in numpy over plain arrays.  Everything that
depends only on the source (R, the decoder's initial state, the MLP
projection W1_r R and L_F) is built once per model and context, by one
encoder loop (:func:`_encode_g`) whose caller picks the shape of its rows.
Training builds its contexts with :func:`_source_context`, which encodes N
sentences as the rows of one block, padded to the longest, where attention
gives the padded positions weight exactly 0, and keeps what the backward
walks.  Stepping without a backward (search, scoring, sampling, MRT dev
errors) builds them with :func:`_stack_contexts`, which encodes a list of
sentences in one pass, each sentence its own one-row product, the call
that encoding it alone makes, cut straight into runs of neighbours of one
length, so each sentence's part equals encoding it alone.  Row r of a
decoder block reads sentence r; a one-sentence context is read by every
row, one product for them all.  One step function, :func:`_decoder_step`,
steps a block of rows or a stack of blocks and serves beam search, sampling
and scoring; it also returns what the step computed.  :func:`_block_step`
steps rows as a stack of blocks of exactly BLOCK_ROWS (8) rows, each block
reading its own sentence, one product per block: beam search steps the
beams of input lines of every source length as one stack, whose context
(:class:`_Stack`) holds runs of sentences of one length.  The LSTM and the
output layer run once over all blocks, attention and the L_F product once
per run, and each block gets the bits it gets stepped alone, so decode
output is byte-identical to line-by-line search.  :func:`_lockstep` walks
several target sequences forward together, as rows of one block that a row
leaves after its last word; teacher forcing and ancestral sampling are its
two ways of choosing the next words.  The caller picks the walk: the padded walk steps fixed-size
blocks through :func:`_block_step`, so scoring, sampling and search agree
bit for bit; the deferred walk, which teacher forcing may take when it
needs no step's distribution (maximum likelihood), steps only the
recurrence and attention (:func:`_recurrence`) and runs the output layer
once over all row-steps after it.  :func:`_backward` derives exact
gradients from either walk by a hand-written backward pass through time
that walks the rows back in lockstep too.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import mmap
import os
from dataclasses import dataclass, field, fields, replace
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .align import LexiconTable
from .corpus import Vocabulary
from .errors import DataError

ATTENTION_KINDS = ("dot", "mlp")

_CHECKPOINT_MAGIC = b"LEXNMT/CKPT/v1\n"
BLOCK_ROWS = 8  # rows of every decoder block step (see _block_step)
_TENSOR_MAP = ({"flags": mmap.MAP_PRIVATE | getattr(mmap, "MAP_POPULATE", 0)}
               if hasattr(mmap, "MAP_PRIVATE") else {})  # Windows: no flags


@dataclass
class ModelParams:
    """All named tensors of one encoder-decoder instance plus hyperparameters.

    The decoder hidden width is 2 * d_hid (the concatenated bidirectional
    width), so the encoder's sentence-end state initializes the decoder
    without projection.
    """

    d_emb: int
    d_hid: int
    attn_dim: int
    attention: str
    src_vocab_size: int
    tgt_vocab_size: int
    src_eos: int
    tgt_eos: int
    use_lexicon: bool
    epsilon: float
    tensors: dict[str, np.ndarray] = field(repr=False)

    def __post_init__(self):
        if self.attention not in ATTENTION_KINDS:
            raise ValueError(f"unknown attention kind: {self.attention!r}")
        expected = expected_shapes(self)
        for name, shape in expected.items():
            if name not in self.tensors:
                raise DataError(f"tensor '{name}': missing")
            got = self.tensors[name].shape
            if got != shape:
                raise DataError(
                    f"tensor '{name}': expected shape {shape}, found {got}")
        for name in self.tensors:
            if name not in expected:
                raise DataError(f"tensor '{name}': unexpected")
            if not np.all(np.isfinite(self.tensors[name])):
                raise DataError(f"tensor '{name}': non-finite values")

    @property
    def dec_hid(self) -> int:
        return 2 * self.d_hid

    def copy(self) -> "ModelParams":
        return replace(self, tensors={k: v.copy()
                                      for k, v in self.tensors.items()})

    def hyper_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "tensors"}


def expected_shapes(hp) -> dict[str, tuple[int, ...]]:
    """Canonical tensor-name -> shape map for one hyperparameter setting."""
    d_emb, d_hid = hp.d_emb, hp.d_hid
    dec = 2 * d_hid
    shapes = {
        "src_emb": (hp.src_vocab_size, d_emb),
        "tgt_emb": (hp.tgt_vocab_size, d_emb),
        "enc_fwd_W": (3 * d_hid, d_emb + d_hid),
        "enc_fwd_b": (3 * d_hid,),
        "enc_bwd_W": (3 * d_hid, d_emb + d_hid),
        "enc_bwd_b": (3 * d_hid,),
        "dec_W": (3 * dec, d_emb + dec + dec),
        "dec_b": (3 * dec,),
        "out_W": (dec, dec + dec),
        "out_b": (dec,),
        "softmax_W": (hp.tgt_vocab_size, dec),
        "softmax_b": (hp.tgt_vocab_size,),
    }
    if hp.attention == "mlp":
        shapes["attn_W1"] = (hp.attn_dim, 2 * dec)
        shapes["attn_w2"] = (hp.attn_dim,)
    return shapes


def init_params(src_vocab_size: int, tgt_vocab_size: int, *, d_emb: int = 64,
                d_hid: int = 64, attention: str = "dot", attn_dim: int | None = None,
                use_lexicon: bool = False, epsilon: float = 1e-6,
                src_eos: int = 0, tgt_eos: int = 0, seed: int = 0,
                init_scale: float = 0.08) -> ModelParams:
    """Fresh parameters with uniform(-init_scale, init_scale) weights, zero biases.

    A width below 1 (a model that computes nothing) and a non-finite
    ``epsilon`` (a checkpoint that :func:`load_checkpoint` refuses) raise
    ValueError."""
    hyper = dict(d_emb=d_emb, d_hid=d_hid, attention=attention,
                 attn_dim=attn_dim if attn_dim is not None else d_hid,
                 src_vocab_size=src_vocab_size, tgt_vocab_size=tgt_vocab_size)
    if min(d_emb, d_hid, hyper["attn_dim"]) < 1:
        raise ValueError("d_emb, d_hid and attn_dim must be >= 1")
    if not math.isfinite(epsilon):
        raise ValueError("epsilon must be finite")
    rng = np.random.default_rng(seed)
    tensors = {}
    for name, shape in expected_shapes(SimpleNamespace(**hyper)).items():
        if name.endswith("_b"):
            tensors[name] = np.zeros(shape)
        else:
            tensors[name] = rng.uniform(-init_scale, init_scale, shape)
    return ModelParams(**hyper, src_eos=src_eos, tgt_eos=tgt_eos,
                       use_lexicon=use_lexicon, epsilon=epsilon, tensors=tensors)


# ---------------------------------------------------------------------------
# forward: one step function over plain arrays
# ---------------------------------------------------------------------------

@dataclass
class DecoderState:
    """Decoder hidden and cell state and the last attention context of a
    block of rows: (B, D) arrays, one row per hypothesis."""

    hidden: np.ndarray
    cell: np.ndarray
    context: np.ndarray

    def take(self, rows) -> "DecoderState":
        """The block of the given rows."""
        return DecoderState(self.hidden[rows], self.cell[rows],
                            self.context[rows])


@dataclass
class _SourceContext:
    """The source context of N sentences for one model, read by every
    decoder step: row r of a block reads sentence r, the one sentence of an
    N = 1 context is read by every row, and the blocks of a stack fall in N
    equal shares, share s reading sentence s.  Each sentence's columns are
    zero past its end, and ``pad`` is -inf there."""

    R: np.ndarray  # (N, D, n)
    init_state: np.ndarray  # (N, D): one row per sentence
    lengths: np.ndarray  # (N,) source lengths
    chain: tuple  # (source ids (2, n+1, N), LSTM activations): both directions
    pad: np.ndarray  # (N, n) 0 or -inf
    w1_h: np.ndarray | None = None  # attn_W1[:, h-part] for MLP attention
    mlp_proj: np.ndarray | None = None  # attn_W1[:, r-part] @ R: (N, a, n)
    lexicon_matrix: np.ndarray | None = None  # L_F (N, V, n); None: no bias

    def sentences(self, keep) -> "_SourceContext":
        """The context of the kept sentences, for stepping; it keeps no
        encoder activations, so no backward pass walks it."""
        return replace(self, chain=None, **{
            name: getattr(self, name)[keep] for name in _PER_SENTENCE
            if getattr(self, name) is not None})

    def take(self, rows) -> "_SourceContext":
        """What attention reads for the given rows: their sentences, or the
        context itself when it holds one sentence."""
        if len(self.R) == 1:
            return self
        return replace(self, R=self.R[rows], pad=self.pad[rows],
                       mlp_proj=(None if self.mlp_proj is None
                                 else self.mlp_proj[rows]))


_PER_SENTENCE = ("R", "init_state", "lengths", "pad", "mlp_proj",
                 "lexicon_matrix")  # the fields of _SourceContext by sentence


@dataclass(frozen=True)
class _Stack:
    """The context of a stack of sentences of several source lengths for
    one model, for stepping: its runs of sentences of one length, in stack
    order, each the context of its sentences (:func:`_stack_contexts`).
    A stack holds the same number of blocks for every sentence, so run i
    holds the blocks of its sentences, and attention and the L_F product,
    the only parts of a step that read the source length, run once per run
    over its blocks (:func:`_recurrence`)."""

    runs: tuple
    init_state: np.ndarray  # (N, D): one row per sentence, in stack order

    def sentences(self, keep) -> "_Stack":
        """The stack of the kept sentences (a boolean mask)."""
        runs, at = [], 0
        for run in self.runs:
            k = keep[at:at + len(run.init_state)]
            at += len(k)
            if k.any():
                runs.append(run if k.all() else run.sentences(k))
        return _Stack(tuple(runs), self.init_state[keep])

    def runs_of(self, x) -> list:
        """(run, its blocks of the stack ``x``) pairs."""
        per, at, out = len(x) // len(self.init_state), 0, []
        for run in self.runs:
            out.append((run, x[at:at + per * len(run.init_state)]))
            at += per * len(run.init_state)
        return out


class _Step(NamedTuple):
    """What a decoder step computed, kept for the backward pass: one row per
    row of the block, or per row-step of a walk."""

    lstm: tuple
    attn: np.ndarray | None  # None: a stack of several runs (_recurrence)
    mlp: np.ndarray | None  # tanh activations of MLP attention
    out_in: np.ndarray  # [h; ctx]
    eta: np.ndarray | None  # None: the output layer has not run
    lex: np.ndarray | None  # L_F a + epsilon
    logits: np.ndarray | None
    logit_max: np.ndarray | None
    exp_sum: np.ndarray | None
    probs: np.ndarray | None


def _map_step(fn, step: _Step) -> _Step:
    """``fn`` applied to every array of a :class:`_Step`; None stays."""
    def part(x):
        return None if x is None else fn(x)
    return _Step(tuple(map(part, step.lstm)), *map(part, step[1:]))


def _stack(steps) -> _Step:
    """The rows of the given :class:`_Step` blocks, one after another."""
    def cat(*xs):
        return None if xs[0] is None else np.concatenate(xs)
    return _Step(tuple(map(cat, *(s.lstm for s in steps))),
                 *map(cat, *(s[1:] for s in steps)))


class _Walk(NamedTuple):
    """N rows stepped in lockstep, T steps long.

    ``words`` holds the words of each row, ``ids`` the same as a (T, N)
    array and ``alive`` marks the steps of each row.  ``steps`` holds what
    every step of every row computed, step by step: at step t the rows with
    more than t words, in row order (the order of ``ids[alive]``)."""

    words: list  # one tuple of ids per row
    ids: np.ndarray
    alive: np.ndarray
    steps: _Step

    def entries(self) -> np.ndarray:
        """(T, N) index of each row's steps in ``steps``, -1 past its end."""
        at = np.full(self.alive.shape, -1)
        at[self.alive] = np.arange(len(self.steps.probs))
        return at

    def take(self, rows) -> "_Walk":
        """The walk of the given rows, which must be in increasing order."""
        if len(rows) == len(self.words):
            return self
        alive = self.alive[:, rows]
        alive = alive[alive.any(axis=1)]  # drop the steps after the last end
        at = self.entries()[:len(alive), rows][alive]
        return _Walk([self.words[r] for r in rows],
                     self.ids[:len(alive), rows], alive,
                     _map_step(lambda x: x[at], self.steps))

    def row_major(self, x) -> np.ndarray:
        """The row-steps ``x`` as an (N, T, ...) array, zero past each
        row's end."""
        out = np.zeros((*self.alive.shape, *x.shape[1:]))
        out[self.alive] = x
        return out.swapaxes(0, 1)

    def per_row(self, x, M) -> np.ndarray:
        """Each row-step of ``x`` times the matrix of its row's sentence:
        one product over all row-steps for a single M[0], else one product
        per row r over its steps with M[r]."""
        if len(M) == 1:
            return x @ M[0]
        return np.matmul(self.row_major(x), M).swapaxes(0, 1)[self.alive]

    def row_outer(self, x, y, n) -> np.ndarray:
        """Per sentence of an n-sentence context, the sum over its rows'
        steps of x_k^T y_k: (n, ., .); the one sentence of n = 1 takes one
        product over all row-steps, else row r reads sentence r."""
        if n == 1:
            return (x.T @ y)[None]
        return np.matmul(self.row_major(x).swapaxes(1, 2), self.row_major(y))


def _lstm(W, b, u, c):
    """Coupled-gate LSTM step on u = [x; h]: the forget gate is one minus the
    input gate.  Returns (hidden, cell, activations).  A stack of weights
    steps a stack of blocks, one product each.

    A gate's exp(-z) overflows to inf on a large negative z, which gives the
    gate 0.  The loops that step the LSTM (:func:`_encode_g`,
    :func:`_lockstep`, :func:`_ensemble_logp`) ignore that overflow, once
    per loop: an errstate per call costs a few percent of a small step."""
    n = c.shape[-1]
    z = u @ W.swapaxes(-1, -2) + b
    gates = 1.0 / (1.0 + np.exp(-z[..., :2 * n]))
    i, o = gates[..., :n], gates[..., n:]
    g = np.tanh(z[..., 2 * n:])
    c_new = (1.0 - i) * c + i * g
    tc = np.tanh(c_new)
    return o * tc, c_new, (u, c, i, o, g, tc)


def _encoder_weights(params: ModelParams):
    """Both encoder directions' LSTM weights and biases, stacked."""
    t = params.tensors
    return (np.stack([t["enc_fwd_W"], t["enc_bwd_W"]]),
            np.stack([t["enc_fwd_b"], t["enc_bwd_b"]])[:, None])


@np.errstate(over="ignore")  # see _lstm
def _encode_g(params: ModelParams, sources, *,
              alone: bool = False) -> _SourceContext:
    """Run both encoder directions over the sentences of ``sources``, one
    stacked product per position; a sentence leaves after its end.  Returns
    their padded context without the MLP projection and L_F.

    By default the sentences are the rows of one block, and the context
    keeps each direction's LSTM activations for the backward pass.  With
    ``alone``, each sentence is stepped as its own one-row product, the
    product that encoding it alone makes, so its columns and state are
    ``np.array_equal`` to encoding it alone; no activations are kept, so no
    backward pass walks them."""
    sources = [tuple(F) for F in sources]
    for F in sources:
        if len(F) == 0:
            raise ValueError("cannot encode an empty sentence")
        for f in F:
            if not (0 <= f < params.src_vocab_size):
                raise ValueError(f"source id {f} outside vocabulary")
    t, d = params.tensors, params.d_hid
    lengths = np.array([len(F) for F in sources])
    N, n = len(sources), int(lengths.max())
    # axis 0 of the chain is the direction: forward, then backward
    ids = np.full((2, n + 1, N), params.src_eos)
    for r, F in enumerate(sources):
        ids[:, :len(F), r] = F, F[::-1]
    W, b = _encoder_weights(params)
    if alone:  # (2, N, 1, k) rows against the weights of each direction
        W, b = W[:, None], b[:, None]
    H = np.zeros((2, n + 1, N, d))
    h = c = np.zeros((2, N, *[1] * alone, d))
    live, ended, acts = slice(None), set(lengths.tolist()), []
    for j in range(n + 1):
        if j - 1 in ended:  # the rows whose sentence end was step j - 1
            keep = lengths[live] >= j
            live, h, c = np.flatnonzero(lengths >= j), h[:, keep], c[:, keep]
        x = t["src_emb"][ids[:, j, live]].reshape(*h.shape[:-1], -1)
        h, c, act = _lstm(W, b, np.concatenate([x, h], axis=-1), c)
        if not alone:
            acts.append(act)
        H[:, j, live] = h.reshape(2, -1, d)
    fwd, bwd = H
    R = np.zeros((N, 2 * d, n))
    init = np.empty((N, 2 * d))
    for r, m in enumerate(lengths.tolist()):
        R[r, :d, :m] = bwd[m - 1::-1, r].T
        R[r, d:, :m] = fwd[:m, r].T
        init[r] = np.concatenate([bwd[m, r], fwd[m, r]])
    return _SourceContext(R, init, lengths, None if alone else (ids, acts),
                          np.where(np.arange(n) < lengths[:, None], 0.0,
                                   -np.inf))


def _attach_mlp(params: ModelParams, enc: _SourceContext) -> _SourceContext:
    """``enc`` with the parts of MLP attention that depend only on the
    source: the h-part of attn_W1 and the projection W1_r R, one product
    at R's own width (a projection cut from a wider one need not keep its
    bits)."""
    if params.attention == "mlp":
        W1, dec = params.tensors["attn_W1"], params.dec_hid
        enc.w1_h = W1[:, :dec].copy()
        enc.mlp_proj = W1[:, dec:].copy() @ enc.R
    return enc


def _source_context(params: ModelParams, sources, lexicon) -> _SourceContext:
    """Encode the sentences as the rows of one block and attach each one's
    L_F, zero past its end: the one build of a block context."""
    enc = _attach_mlp(params, _encode_g(params, sources))
    mats = _lexicon_matrices([params], sources, lexicon)
    if mats[0] is not None:
        enc.lexicon_matrix = np.zeros((len(mats), params.tgt_vocab_size,
                                       enc.R.shape[2]))
        for r, L in enumerate(mats):
            enc.lexicon_matrix[r, :, :L.shape[1]] = L
    return enc


def _stack_contexts(models, sources, lexicon) -> list:
    """Per model, the context of a stack whose sentence s is ``sources[s]``,
    for stepping (no backward walks it): one context when the sentences
    share a length, else a :class:`_Stack` of runs of neighbours of one
    length.  One encoder pass per model, each sentence its own one-row
    product (:func:`_encode_g`), is cut straight into the runs; a run's R is
    copied at its own width, its MLP projection computed from that, and its
    L_F stacked once for all models.  Each sentence's part is thus
    ``np.array_equal`` to ``_source_context(model, [F], lexicon)``."""
    passes = [_encode_g(m, sources, alone=True) for m in models]
    mats = _lexicon_matrices(models, sources, lexicon)
    lengths = passes[0].lengths.tolist()
    ends = list(itertools.accumulate(
        len(list(run)) for _, run in itertools.groupby(lengths)))
    spans = [(a, b, lengths[a]) for a, b in zip([0, *ends], ends)]
    lexes = [None if mats[0] is None else np.stack(mats[a:b])
             for a, b, _ in spans]
    out = []
    for m, enc in zip(models, passes):
        runs = tuple(_attach_mlp(m, _SourceContext(
            enc.R[a:b, :, :n].copy(), enc.init_state[a:b], enc.lengths[a:b],
            None, np.zeros((b - a, n)), lexicon_matrix=L))
            for (a, b, n), L in zip(spans, lexes))
        out.append(runs[0] if len(runs) == 1 else _Stack(runs, enc.init_state))
    return out


def _by_row(x, M):
    """Each row of ``x`` times its sentence's matrix of the (N, k, m) ``M``.

    ``x`` is a (B, k) block, whose row r reads sentence r, or a (K,
    BLOCK_ROWS, k) stack of blocks, whose blocks fall in N equal shares,
    share s reading sentence s; all rows read the one sentence of N = 1.  A
    block of one sentence takes one product, and so does each block of a
    stack."""
    if len(M) == 1:
        return x @ M[0]
    if x.ndim == 2:
        return np.matmul(x[:, None], M)[:, 0]
    shares = x.reshape(len(M), -1, *x.shape[1:])
    return (shares @ M[:, None]).reshape(x.shape[:-1] + M.shape[-1:])


def _add_by_row(x, A):
    """Each row of ``x`` plus its sentence's entry of the (N, ...) ``A``,
    rows read as in :func:`_by_row`; an entry broadcasts against the axes
    of a row."""
    if len(A) == 1 or x.ndim == A.ndim:
        return x + A
    shares = x.reshape(len(A), -1, *x.shape[1:])
    total = shares + A[:, None, None]
    return total.reshape(-1, *total.shape[2:])


def _attend(params: ModelParams, h, enc: _SourceContext):
    """Attention weights, context vector and (MLP only) tanh activations of
    a block or stack of rows ``h`` (see :func:`_by_row`)."""
    if enc.mlp_proj is None:
        m = None
        scores = _by_row(h, enc.R)
    else:
        m = np.tanh(_add_by_row((h @ enc.w1_h.T)[..., None], enc.mlp_proj))
        scores = m.swapaxes(-1, -2) @ params.tensors["attn_w2"]
    # exp(-inf) = 0: padding weighs nothing
    scores = _add_by_row(scores, enc.pad)
    e = np.exp(scores - scores.max(axis=-1, keepdims=True))
    a = e / e.sum(axis=-1, keepdims=True)
    return a, _by_row(a, enc.R.swapaxes(-1, -2)), m


def _init_state(enc) -> DecoderState:
    """The initial block state: one row per sentence of the context."""
    zero = np.zeros(enc.init_state.shape)
    return DecoderState(enc.init_state, zero, zero)


def _recurrence(params: ModelParams, prev, state: DecoderState, enc, *,
                bias: bool = False):
    """The LSTM and attention of one decoder step of a block of B rows ((B,)
    ids, a (B, D) state) or a stack of blocks ((K, BLOCK_ROWS) ids and
    state rows): the new state, the first four fields of its
    :class:`_Step` and, with ``bias``, each row's L_F a (None without L_F).

    The blocks of a :class:`_Stack` attend run by run; since the runs'
    attention widths differ, the attention fields of a stack of several
    runs are None."""
    t = params.tensors
    u = np.concatenate([t["tgt_emb"][prev], state.context, state.hidden],
                       axis=-1)
    h, c, lstm = _lstm(t["dec_W"], t["dec_b"], u, state.cell)
    parts = []
    for run, x in enc.runs_of(h) if isinstance(enc, _Stack) else [(enc, h)]:
        a, ctx, m = _attend(params, x, run)
        parts.append((a, ctx, m, None if not bias or run.lexicon_matrix is None
                      else _by_row(a, run.lexicon_matrix.swapaxes(1, 2))))
    if len(parts) == 1:
        a, ctx, m, lex = parts[0]
    else:
        _, ctxs, _, lexes = zip(*parts)
        a = m = None
        ctx = np.concatenate(ctxs)
        lex = None if lexes[0] is None else np.concatenate(lexes)
    return (DecoderState(h, c, ctx),
            (lstm, a, m, np.concatenate([h, ctx], axis=-1)), lex)


def _output_layer(params: ModelParams, q, lex):
    """The output layer's fields of a :class:`_Step` for the rows ``q`` =
    [h; ctx]; ``lex`` holds each row's L_F a, or is None without the
    bias."""
    t = params.tensors
    eta = q @ t["out_W"].T + t["out_b"]
    logits = eta @ t["softmax_W"].T + t["softmax_b"]
    if lex is not None:
        lex = lex + params.epsilon
        logits = logits + np.log(lex)
    top = logits.max(axis=-1, keepdims=True)
    e = np.exp(logits - top)
    total = e.sum(axis=-1, keepdims=True)
    return eta, lex, logits, top[..., 0], total[..., 0], e / total


def _decoder_step(params: ModelParams, prev, state: DecoderState, enc):
    """One decoder step of a block or stack of rows (see :func:`_recurrence`),
    each row against its sentence of ``enc`` (see :func:`_by_row`): (new
    state, :class:`_Step`); the next-word distribution is the ``probs``.
    The LSTM and the output layer run once over all blocks, attention and
    the L_F product once per run of a :class:`_Stack`."""
    state, s, lex = _recurrence(params, prev, state, enc, bias=True)
    return state, _Step(*s, *_output_layer(params, s[3], lex))


def _block_step(params: ModelParams, prev_ids, state: DecoderState, rows,
                enc):
    """Step B rows for each of the S sentences of ``enc`` on ``prev_ids``,
    an (S, B) array ((B,) for one sentence): row j of sentence s continues
    row ``rows[s, j]`` of that sentence's rows in ``state`` (None: row j),
    which holds the same number of rows for every sentence, sentence by
    sentence.

    Each sentence's rows are padded with copies of its real rows to whole
    blocks of exactly BLOCK_ROWS rows, and all blocks are stepped as one
    (K, BLOCK_ROWS) stack in which each block reads its own sentence.
    Returns (new state, :class:`_Step`) of the S * P padded rows, P per
    sentence: row j < B of sentence s is row s * P + j.

    A one-row product (gemv) rounds unlike a block (gemm), but a row of a
    fixed-size block depends neither on its position nor on the other rows,
    and numpy runs a stacked product as one product per block.  So search,
    scoring, sampling, minimum-risk scoring and the exhaustive-search
    oracle, which all step here, agree with ``==`` whichever rows and
    sentences share a stack."""
    prev = np.asarray(prev_ids).reshape(len(enc.init_state), -1)
    S, B = prev.shape
    pad = np.arange(B + -B % BLOCK_ROWS) % B  # pad with copies of real rows
    at = pad if rows is None else np.asarray(rows).reshape(S, B)[:, pad]
    if S > 1:  # each sentence's rows follow those of the one before
        at = at + np.arange(0, len(state.hidden),
                            len(state.hidden) // S)[:, None]
    blocks = at.reshape(-1, BLOCK_ROWS)
    # a stack of one block steps as that block: a (1, 8) stack keeps the
    # bits but made toy-shape mrt_loss 7-8 % slower, in 21 of 21 and again
    # 5 of 6 interleaved pairs (Xeon guest, one OpenBLAS thread)
    if len(blocks) == 1:
        blocks = blocks[0]
    state, step = _decoder_step(params, prev[:, pad].reshape(blocks.shape),
                                state.take(blocks), enc)
    if blocks.ndim == 1:
        return state, step

    def flat(x):
        return x.reshape(-1, *x.shape[2:])
    return (DecoderState(flat(state.hidden), flat(state.cell),
                         flat(state.context)), _map_step(flat, step))


@np.errstate(over="ignore")  # see _lstm
def _lockstep(params: ModelParams, enc: _SourceContext, n_rows: int,
              choose, *, deferred: bool = False) -> _Walk:
    """Walk ``n_rows`` rows forward together from the initial state, row r
    reading sentence r of ``enc`` or all its one sentence.

    At step t, ``choose(t, rows, probs)`` gets the live rows (in row order)
    and their (B, V) next-word distributions, and returns their next words
    and whether each row goes on; a row that stops leaves the block, as a
    finished beam row does.

    The padded walk steps the rows of one sentence through
    :func:`_block_step`.  The ``deferred`` walk steps the rows unpadded
    through the recurrence and attention alone, and ``probs`` is None: for
    teacher forcing, which never feeds the output back, the output layer
    and the lexicon bias run once over all row-steps after the walk."""
    live = np.arange(n_rows)
    prev = np.full(n_rows, params.tgt_eos)
    state, ctx = _init_state(enc), enc
    keep = live % len(enc.R)  # each row starts from its sentence's state
    steps, chosen = [], []
    while len(live):
        if deferred:
            state, s, _ = _recurrence(params, prev, state if keep is None
                                      else state.take(keep), ctx)
            s = _Step(*s, *[None] * 6)  # the output layer runs after the walk
        else:
            state, s = _block_step(params, prev, state, keep, ctx)
            if len(s.probs) > len(live):  # the real rows, not the padding
                s = _map_step(lambda x: x[:len(live)], s)
        prev, goes_on = choose(len(steps), live, s.probs)
        steps.append(s)
        chosen.append((live, prev))
        if goes_on.all():
            keep = None
        else:
            keep = np.flatnonzero(goes_on)
            live, prev, ctx = live[keep], prev[keep], ctx.take(keep)
    ids = np.zeros((len(steps), n_rows), dtype=np.intp)
    alive = np.zeros(ids.shape, dtype=bool)
    for t, (rows, chosen_ids) in enumerate(chosen):
        ids[t, rows] = chosen_ids
        alive[t, rows] = True
    lengths = alive.sum(axis=0).tolist()
    walk = _Walk([tuple(w[:n]) for w, n in zip(ids.T.tolist(), lengths)],
                 ids, alive, _stack(steps))
    if not deferred:
        return walk
    s = walk.steps
    lex = (None if enc.lexicon_matrix is None else
           walk.per_row(s.attn, enc.lexicon_matrix.swapaxes(1, 2)))
    return walk._replace(steps=_Step(*s[:4], *_output_layer(params, s.out_in,
                                                           lex)))


def _check_target(params: ModelParams, E):
    if not E:
        raise ValueError("target sequences must be non-empty")
    if not all(0 <= e < params.tgt_vocab_size for e in E):
        raise ValueError(f"target id outside vocabulary in {list(E)}")


def _teacher_forced(params: ModelParams, enc: _SourceContext, targets, *,
                    deferred: bool = False) -> _Walk:
    """The lockstep walk that feeds each target sequence its own reference
    words: by default the padded walk that sampling steps, so a sequence
    scores what it scored as drawn; ``deferred``, the walk that runs the
    output layer once after it (see :func:`_lockstep`)."""
    targets = [tuple(E) for E in targets]
    for E in targets:
        _check_target(params, E)
    lengths = np.array([len(E) for E in targets])
    ids = np.zeros((len(targets), lengths.max()), dtype=np.intp)
    for r, E in enumerate(targets):
        ids[r, :len(E)] = E
    return _lockstep(params, enc, len(targets),
                     lambda t, rows, _: (ids[rows, t], lengths[rows] > t + 1),
                     deferred=deferred)


def _logprobs(walk: _Walk) -> np.ndarray:
    """log p of each row's words from its steps (log-softmax per step)."""
    s = walk.steps
    terms = np.zeros(walk.alive.shape[::-1])  # (N, T): each row in order
    terms.T[walk.alive] = (s.logits[np.arange(len(s.logits)),
                                    walk.ids[walk.alive]]
                           - (s.logit_max + np.log(s.exp_sum)))
    return np.array([terms[r, :len(w)].sum() for r, w in enumerate(walk.words)])


# ---------------------------------------------------------------------------
# backward through time
# ---------------------------------------------------------------------------

def _lstm_back(act, dh, dc, dz):
    """Backward of one :func:`_lstm` step from the gradients of its outputs:
    writes the gradient of the gate pre-activations z into ``dz`` and
    returns that of the incoming cell."""
    u, c, i, o, g, tc = act
    n = c.shape[-1]
    dc = dc + dh * o * (1.0 - tc * tc)
    dz[..., :n] = dc * (g - c) * i * (1.0 - i)
    dz[..., n:2 * n] = dh * tc * o * (1.0 - o)
    dz[..., 2 * n:] = dc * i * (1.0 - g * g)
    return dc * (1.0 - i)


def _backward(params: ModelParams, enc: _SourceContext, walk: _Walk, seeds,
              grads):
    """Add to ``grads`` the gradient of sum_r seeds[r] * log p(E_r | F_r).

    ``walk`` holds the target sequences E_r and their teacher-forced steps
    against ``enc``, by either walk: row r reads F_r, sentence r of the
    context, or the one sentence F of a one-sentence context.  Teacher
    forcing never feeds the output layer back into the recurrence, so the
    output layer and the lexicon bias are differentiated for all steps at
    once, and the LSTM weights take one product after the walk back through
    attention and the recurrence.  That walk steps all rows back together:
    each step's products are one product over the rows of its block, and a
    row joins at its last word.  What the rows of a sentence send back to
    it adds up, and the encoder is walked back once for all sentences.
    """
    if len(seeds) != len(walk.words):
        raise ValueError(f"{len(seeds)} seeds for {len(walk.words)} target "
                         "sequences")
    t = params.tensors
    D, d_emb, N = params.dec_hid, params.d_emb, len(enc.R)
    s = walk.steps
    # the row-steps are in step order, each step's rows in row order
    alive, ids = walk.alive, walk.ids
    sizes = alive.sum(axis=1).tolist()
    ends = [0, *itertools.accumulate(sizes)]
    prev_words = np.empty_like(ids)
    prev_words[0], prev_words[1:] = params.tgt_eos, ids[:-1]
    prev_words = prev_words[alive]
    seed = np.asarray(seeds, dtype=float)[np.nonzero(alive)[1]]
    # d log p_t[e_t] / d logits_t = onehot(e_t) - p_t
    G = s.probs * -seed[:, None]
    G[np.arange(len(G)), ids[alive]] += seed
    Q, A = s.out_in, s.attn
    grads["softmax_W"] += G.T @ s.eta
    grads["softmax_b"] += G.sum(axis=0)
    dEta = G @ t["softmax_W"]
    grads["out_W"] += dEta.T @ Q
    grads["out_b"] += dEta.sum(axis=0)
    dQ = dEta @ t["out_W"]
    dA = np.zeros_like(A)
    if enc.lexicon_matrix is not None:
        dA += walk.per_row(G / s.lex, enc.lexicon_matrix)

    mlp = enc.mlp_proj is not None
    dCtx = dQ[:, D:].copy()
    dS = np.empty_like(A)
    dZ = np.empty((len(G), 3 * D))
    dU = np.empty((len(G), t["dec_W"].shape[1]))
    if mlp:
        K = np.empty((len(G), params.attn_dim))
        dP = np.zeros_like(enc.mlp_proj)
    # the recurrent gradients, one row per row of the later step's block
    dh_next = dc = dctx_next = np.zeros((0, D))
    for k in reversed(range(len(alive))):
        at = slice(ends[k], ends[k + 1])
        if len(dh_next) < sizes[k]:  # rows that end at step k start at zero
            goes_on = (alive[k + 1, alive[k]] if k + 1 < len(alive)
                       else np.zeros(sizes[k], dtype=bool))
            dh_next, dc, dctx_next = (_rows_into(x, goes_on)
                                      for x in (dh_next, dc, dctx_next))
            rows = np.flatnonzero(alive[k])
            R = enc.take(rows).R  # the sentences of this step's rows
            sentences = (rows % N).tolist()
        attn = A[at]
        dCtx[at] += dctx_next
        da = dA[at] + _by_row(dCtx[at], R)
        dS[at] = ds = attn * (da - np.matmul(da[:, None], attn[:, :, None])[:, 0])
        dh = dQ[at, :D] + dh_next
        if mlp:
            m = s.mlp[at]
            # one product over the rows' attention columns
            grads["attn_w2"] += (m.transpose(1, 0, 2).reshape(len(m[0]), -1)
                                 @ ds.reshape(-1))
            dpre = t["attn_w2"][:, None] * ds[:, None, :] * (1.0 - m * m)
            # row by row, in row order: np.add.at adds the same bits but
            # took 2-14x as long at these shapes (8 rows: 11 -> 27 us at
            # a = 32, 13 -> 180 us at a = 128, on the same machine), and toy
            # ML training lost 5 of 6 benchmark pairs with it
            for r, x in zip(sentences, dpre):
                dP[r] += x
            K[at] = dpre.sum(axis=2)
            dh += K[at] @ enc.w1_h
        else:
            dh += _by_row(ds, R.swapaxes(-1, -2))
        dc = _lstm_back([x[at] for x in s.lstm], dh, dc, dZ[at])
        dU[at] = dZ[at] @ t["dec_W"]
        dctx_next = dU[at, d_emb:d_emb + D]
        dh_next = dU[at, d_emb + D:]

    grads["dec_W"] += dZ.T @ s.lstm[0]
    grads["dec_b"] += dZ.sum(axis=0)
    np.add.at(grads["tgt_emb"], prev_words, dU[:, :d_emb])
    dR = walk.row_outer(dCtx, A, N)
    if mlp:
        grads["attn_W1"][:, :D] += K.T @ Q[:, :D]
        grads["attn_W1"][:, D:] += (dP @ enc.R.swapaxes(1, 2)).sum(axis=0)
        dR += t["attn_W1"][:, D:].T @ dP
    else:
        dR += walk.row_outer(Q[:, :D], dS, N)
    d_init = np.zeros((N, D))  # every row is alive at step 0
    np.add.at(d_init, np.arange(len(dh_next)) % N, dh_next)
    _encoder_backward(params, enc, dR, d_init, grads)


def _rows_into(x, rows):
    """``x`` as the rows of a mask (its second-last axis), the other rows
    zero."""
    out = np.zeros((*x.shape[:-2], len(rows), x.shape[-1]))
    out[..., rows, :] = x
    return out


def _encoder_backward(params: ModelParams, enc: _SourceContext, dR, d_init,
                      grads):
    """Walk both encoder directions back, all rows together, from the
    gradients of the rows' R ((N, D, n)) and of their decoder initial
    states ((N, D)); a row joins at its sentence end."""
    d, d_emb, lengths = params.d_hid, params.d_emb, enc.lengths
    ids, acts = enc.chain
    n = ids.shape[1] - 1
    # each row's positions in run order, then its sentence-end step, which
    # feeds the initial state
    alive = np.arange(n + 1)[:, None] <= lengths
    sizes = alive.sum(axis=1).tolist()
    ends = [0, *itertools.accumulate(sizes)]
    dH = np.zeros((2, n + 1, len(lengths), d))
    for r, m in enumerate(lengths.tolist()):
        dH[0, :m, r], dH[1, :m, r] = dR[r, d:, :m].T, dR[r, :d, m - 1::-1].T
        dH[:, m, r] = d_init[r, d:], d_init[r, :d]
    W, _ = _encoder_weights(params)
    dZ = np.empty((2, ends[-1], 3 * d))
    dU = np.empty((2, ends[-1], W.shape[2]))
    dh = dc = np.zeros((2, 0, d))
    for k in reversed(range(n + 1)):
        at = slice(ends[k], ends[k + 1])
        rows = alive[k] if sizes[k] < len(lengths) else slice(None)
        if dh.shape[1] < sizes[k]:  # rows that end at step k start at zero
            goes_on = lengths[rows] > k
            dh, dc = _rows_into(dh, goes_on), _rows_into(dc, goes_on)
        dc = _lstm_back(acts[k], dH[:, k, rows] + dh, dc, dZ[:, at])
        dU[:, at] = dZ[:, at] @ W
        dh = dU[:, at, d_emb:]
    for i, direction in enumerate(("fwd", "bwd")):
        grads[f"enc_{direction}_W"] += dZ[i].T @ np.concatenate(
            [a[0][i] for a in acts])
        grads[f"enc_{direction}_b"] += dZ[i].sum(axis=0)
        np.add.at(grads["src_emb"], ids[i][alive], dU[i, :, :d_emb])


def _as_model_list(models) -> list[ModelParams]:
    """One model, or a non-empty ensemble sharing one target vocabulary."""
    if isinstance(models, ModelParams):
        return [models]
    models = list(models)
    if not models:
        raise ValueError("need at least one model")
    if len({(m.tgt_vocab_size, m.tgt_eos) for m in models}) > 1:
        raise ValueError("ensemble members have a mismatched target vocabulary")
    return models


def _lexicon_matrices(models, sources, lexicon) -> list:
    """L_F of each source sentence, one matrix shared by the models (they
    share the target vocabulary), or None for each without a table.

    Each model is checked on its own: a lexicon-trained model without a
    table would silently score unbiased, so that mismatch is an error, and
    the bias needs the model's epsilon finite and positive.
    """
    for params in models:
        if lexicon is None and params.use_lexicon:
            raise ValueError(
                "model was trained with lexicon bias; a lexicon table is required")
        if lexicon is not None and not 0 < params.epsilon < math.inf:
            raise ValueError(
                "lexicon bias requires a finite epsilon > 0 to prevent zero "
                "probabilities from becoming -inf under the log")
    if lexicon is None:
        return [None] * len(sources)
    return [build_lexicon_matrix(F, lexicon, models[0].tgt_vocab_size)
            for F in sources]


def _length_cap(F, max_len: int | None) -> int:
    """``max_len``, or the default cap 2*|F| + 10 on hypotheses and samples."""
    return 2 * len(F) + 10 if max_len is None else max_len


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def build_lexicon_matrix(F, table: LexiconTable, tgt_vocab) -> np.ndarray:
    """Dense (|V_e|, |F|) matrix; column j holds p(e | f_j), zero if unknown."""
    size = tgt_vocab if isinstance(tgt_vocab, int) else len(tgt_vocab)
    L = np.zeros((size, len(F)))
    for j, f in enumerate(F):
        dist = table.entries.get(f, {})
        if not all(0 <= e < size for e in dist):
            raise ValueError(f"lexicon entry of source id {f} outside the "
                             "target vocabulary")
        L[list(dist), j] = list(dist.values())
    return L


def ensemble_distribution(distributions) -> np.ndarray:
    """Arithmetic mean of per-model next-word distributions."""
    distributions = [np.asarray(d, dtype=float) for d in distributions]
    if not distributions:
        raise ValueError("need at least one distribution")
    if any(d.shape != distributions[0].shape for d in distributions):
        raise ValueError("ensemble members have mismatched vocabulary sizes")
    total = distributions[0]
    for d in distributions[1:]:  # left to right, from the first member
        total = total + d
    return total / len(distributions)


def _ensemble_logp(models, encs, states, rows, prev_ids):
    """One :func:`_block_step` of every member from the given rows of its
    state, B rows for each of the S sentences of its context: (new states,
    log of the averaged (S, B, V) distributions of the real rows)."""
    S, B = prev_ids.shape
    with np.errstate(over="ignore", divide="ignore"):  # see _lstm
        steps = [_block_step(m, prev_ids, state, rows, enc)
                 for m, state, enc in zip(models, states, encs)]
        probs = [s.probs.reshape(S, -1, s.probs.shape[-1])[:, :B]
                 for _, s in steps]
        # one member's distribution is its own mean
        logp = np.log(probs[0] if len(probs) == 1
                      else ensemble_distribution(probs))
    return [state for state, _ in steps], logp


def sentence_logprob(models, F, E, lexicon: LexiconTable | None = None) -> float:
    """Teacher-forced log p(E | F); ensembles average per-step probabilities.

    ``E`` must end with the target sentence-end id.  Each member walks E as
    one row of the padded blocks that search steps, and the step log
    probabilities add left to right as in search, so a hypothesis scores
    here exactly what search scored it.
    """
    models = _as_model_list(models)
    if not E or E[-1] != models[0].tgt_eos:
        raise ValueError("E must end with the sentence-end id")
    probs = ensemble_distribution(
        [_teacher_forced(m, enc, [E]).steps.probs
         for m, enc in zip(models, _stack_contexts(models, [F], lexicon))])
    total = 0.0
    with np.errstate(divide="ignore"):
        for logp in np.log(probs[np.arange(len(E)), E]).tolist():
            total += logp
    return total


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path, params: ModelParams, src_vocab: Vocabulary,
                    tgt_vocab: Vocabulary):
    """Write a versioned, byte-deterministic container of the full model.

    The file is written beside ``path`` and renamed over it once complete,
    so a write that fails or is cut short leaves any previous file as it
    was.  Its blocks are allocated before it is written, so a file system
    that allocates late (ext4) has no write-out to start at the rename."""
    names = sorted(params.tensors)
    header = {
        "hyper": params.hyper_dict(),
        "src_vocab": src_vocab.tokens,
        "tgt_vocab": tgt_vocab.tokens,
        "tensors": [{"name": n, "shape": list(params.tensors[n].shape)}
                    for n in names],
    }
    text = json.dumps(header, sort_keys=True, separators=(",", ":"))
    head = _CHECKPOINT_MAGIC + text.encode("utf-8") + b"\n"
    size = len(head) + 8 * sum(math.prod(t["shape"])
                               for t in header["tensors"])
    partial = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(partial, "wb") as f:
            if hasattr(os, "posix_fallocate"):  # not on every platform
                with contextlib.suppress(OSError):
                    os.posix_fallocate(f.fileno(), 0, size)
            f.write(head)
            for n in names:  # written from the arrays' own memory, no copy
                f.write(np.ascontiguousarray(params.tensors[n],
                                             dtype="<f8").data)
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(partial)
        raise


def load_checkpoint(path):
    """Read a checkpoint; returns (ModelParams, src Vocabulary, tgt Vocabulary).

    The tensors are views into one fresh private mapping that the tensor data
    is read into: a load holds no copy of the file, and where the mapping is
    filled as it is made (Linux), costs the same whatever the heap holds."""
    try:
        with open(path, "rb") as f:
            if f.read(len(_CHECKPOINT_MAGIC)) != _CHECKPOINT_MAGIC:
                raise DataError(f"{path}: not a checkpoint file (bad magic)")
            try:  # a header without its line end fails the length check
                header = json.loads(f.readline())
            except ValueError as e:
                raise DataError(f"{path}: corrupt checkpoint header") from e
            _check_header(path, header)
            counts = [math.prod(t["shape"]) for t in header["tensors"]]
            excess = os.fstat(f.fileno()).st_size - f.tell() - 8 * sum(counts)
            what = "trailing bytes after" if excess > 0 else "truncated"
            if excess:
                raise DataError(f"{path}: {what} tensor data")
            # mmap refuses a length of 0
            block = mmap.mmap(-1, max(8 * sum(counts), 1), **_TENSOR_MAP)
            f.readinto(block)
    except OSError as e:
        raise DataError(f"cannot read {path}: {e.strerror}") from e
    parts = np.split(np.frombuffer(block, dtype="<f8", count=sum(counts)),
                     np.cumsum(counts)[:-1])
    tensors = {t["name"]: part.reshape(t["shape"])
               for t, part in zip(header["tensors"], parts)}
    hyper = header["hyper"]
    vocabs = Vocabulary(header["src_vocab"]), Vocabulary(header["tgt_vocab"])
    for side, vocab in zip(("src", "tgt"), vocabs):
        if (len(vocab) != hyper[f"{side}_vocab_size"]
                or vocab.eos_id != hyper[f"{side}_eos"]):
            raise DataError(
                f"{path}: {side} vocabulary ({len(vocab)} tokens, sentence "
                f"end {vocab.eos_id}) disagrees with {side}_vocab_size "
                f"{hyper[f'{side}_vocab_size']} and {side}_eos "
                f"{hyper[f'{side}_eos']}")
    return ModelParams(tensors=tensors, **hyper), *vocabs


# exact JSON types: a boolean is no number here, though bool subclasses int
_HYPER_TYPES = {f.name: {"int": (int,), "str": (str,), "bool": (bool,),
                         "float": (int, float)}[f.type]
                for f in fields(ModelParams) if f.name != "tensors"}


def _check_header(path, header):
    """Raise DataError unless the parsed header has the layout save writes."""
    if not isinstance(header, dict):
        raise DataError(f"{path}: checkpoint header is not a JSON object")
    for key in ("hyper", "tensors", "src_vocab", "tgt_vocab"):
        if key not in header:
            raise DataError(f"{path}: checkpoint header lacks '{key}'")
    hyper = header["hyper"]
    if not (isinstance(hyper, dict) and set(hyper) == set(_HYPER_TYPES)
            and all(type(hyper[k]) in t for k, t in _HYPER_TYPES.items())):
        raise DataError(f"{path}: checkpoint hyperparameters must be exactly "
                        f"{sorted(_HYPER_TYPES)}, typed as in ModelParams")
    if not all(math.isfinite(v) for v in hyper.values() if type(v) is float):
        raise DataError(f"{path}: checkpoint hyperparameters must be finite")
    for key in ("src_vocab", "tgt_vocab"):
        if not (isinstance(header[key], list)
                and all(isinstance(t, str) for t in header[key])):
            raise DataError(f"{path}: '{key}' must be a list of tokens")
    entries = header["tensors"]
    if not isinstance(entries, list) or not all(
            isinstance(t, dict) and isinstance(t.get("name"), str)
            and isinstance(t.get("shape"), list)
            and all(type(n) is int and n >= 0 for n in t["shape"])
            for t in entries):
        raise DataError(f"{path}: tensor entries need a string name and a "
                        "shape of non-negative integers")
