"""Attentional encoder-decoder with an optional lexicon-biased output softmax.

A bidirectional coupled-gate LSTM encodes the source into per-word columns R;
the decoder LSTM consumes [embed(previous word); previous context], attends
over R (dot product or MLP similarity), and emits the next-word distribution
softmax(W_s eta + b_s), optionally biased by log(L_F a + epsilon) where L_F
is a dense (|V_e|, |F|) slice of the lexical translation probabilities for the
source words.

The model is written once, in numpy; a model's tensors, like its gradients
and ADAM moments, are views into one flat buffer (:class:`Tensors`).  What
depends only on the source (R, the decoder's initial state, the MLP
projection W1_r R and L_F) is built by one encoder loop (:func:`_encode_g`)
and read by every decoder step as one context type, a :class:`_Stack` of
runs: training encodes N sentences as one padded run that keeps what the
backward walks (:func:`_source_context`); everything stepped without a
backward takes its stacks from :func:`_stacks`, which cuts runs of one
width class, each part equal to encoding its sentence alone; one rule
groups all sentences stepped together (:func:`_cuts`).  Every context's
source axis has the width that :func:`_width` gives its longest sentence,
so a sentence is stepped at one width, that of its own length, wherever it
runs.  :func:`_block_step` steps
fixed blocks of BLOCK_ROWS (8) rows for search, sampling and scoring: the
rows of all sentences of a stack share packed blocks where a step reads only
weights and a row's own values, attention's row-local work runs on their
live rows, and only the products against a sentence's own R and L_F take
blocks that each read one sentence; a stack's blocks share flat products
against a weight only where the running BLAS gives every row the bits of
its own block's product (:func:`_product`), so a row gets the bits it gets
stepped alone and decode output is byte-identical to line-by-line search.  :func:`_walk`, the
one walk that calls it, steps the rows of all sentences of a stack on every
member of an ensemble for search, sampling and teacher forcing
(:func:`_walk_stack`, :func:`_teacher_forced`), so scoring, sampling and
search agree bit for bit.
Maximum likelihood's deferred walk (:func:`_lockstep`) steps only the
recurrence and attention and runs the output layer once after it.
:func:`_backward` derives exact gradients from either walk by a
hand-written backward pass through time, in lockstep too.
"""

from __future__ import annotations

import contextlib
import functools
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
FLAT_BLOCKS = 4  # blocks of a stack in one flat product (see _product)
_TENSOR_MAP = ({"flags": mmap.MAP_PRIVATE | getattr(mmap, "MAP_POPULATE", 0)}
               if hasattr(mmap, "MAP_PRIVATE") else {})  # Windows: no flags


class Tensors(dict):
    """Named float64 tensors: views into one flat ``buffer`` in sorted-name
    (checkpoint) order, iterating in that order however they were made.
    They are written in place, never rebound, added or removed."""

    def __init__(self, shapes, buffer=None):
        names = sorted(shapes)
        at = [0, *itertools.accumulate(math.prod(shapes[n]) for n in names)]
        self.buffer = np.zeros(at[-1]) if buffer is None else buffer
        views = {n: self.buffer[a:b].reshape(shapes[n])
                 for n, a, b in zip(names, at, at[1:])}
        super().__init__(views)

    def like(self, buffer=None) -> "Tensors":
        """Tensors of this layout over ``buffer``, or over fresh zeros."""
        return Tensors({k: v.shape for k, v in self.items()}, buffer)

    def __setitem__(self, name, value):  # `t[name] += x` stores it back
        if value is not self.get(name):
            self._refuse()

    def _refuse(self, *args, **kwargs):
        raise TypeError("tensors are written in place, not rebound")

    __delitem__ = pop = popitem = clear = update = setdefault = __ior__ = _refuse


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
    tensors: Tensors = field(repr=False)

    def __post_init__(self):
        if self.attention not in ATTENTION_KINDS:
            raise ValueError(f"unknown attention kind: {self.attention!r}")
        _check_widths(self, DataError)  # a checkpoint's widths
        expected = expected_shapes(self)
        for name, shape in expected.items():
            if name not in self.tensors:
                raise DataError(f"tensor '{name}': missing")
            got = self.tensors[name].shape
            if got != shape:
                raise DataError(
                    f"tensor '{name}': expected shape {shape}, found {got}")
        finite = np.isfinite(self.tensors.buffer).all()  # one scan
        for name in self.tensors:
            if name not in expected:
                raise DataError(f"tensor '{name}': unexpected")
            if not finite and not np.all(np.isfinite(self.tensors[name])):
                raise DataError(f"tensor '{name}': non-finite values")

    @property
    def dec_hid(self) -> int:
        return 2 * self.d_hid

    def copy(self, out: "ModelParams | None" = None) -> "ModelParams":
        """The model with parameters of its own, checked as a new model is:
        one buffer copy, into that of ``out`` (of this layout) if given."""
        if out is None:
            return replace(self, tensors=self.tensors.like(self.tensors.buffer.copy()))
        np.copyto(out.tensors.buffer, self.tensors.buffer)
        out.__post_init__()
        return out

    def hyper_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)
                if f.name != "tensors"}


def _check_widths(hp, error=ValueError):
    """Refuse a width below 1 (a model that computes nothing) and a target
    vocabulary without a word besides the sentence end to search or draw."""
    if min(hp.d_emb, hp.d_hid, hp.attn_dim) < 1:
        raise error("d_emb, d_hid and attn_dim must be >= 1")
    if hp.tgt_vocab_size < 2:
        raise error("tgt_vocab_size must be >= 2")


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

    A width below 1 (a model that computes nothing), a target vocabulary
    below 2 words and a non-finite ``epsilon`` (a checkpoint that
    :func:`load_checkpoint` refuses) raise ValueError."""
    hyper = dict(d_emb=d_emb, d_hid=d_hid, attention=attention,
                 attn_dim=attn_dim if attn_dim is not None else d_hid,
                 src_vocab_size=src_vocab_size, tgt_vocab_size=tgt_vocab_size)
    _check_widths(SimpleNamespace(**hyper))
    if not math.isfinite(epsilon):
        raise ValueError("epsilon must be finite")
    rng = np.random.default_rng(seed)
    shapes = expected_shapes(SimpleNamespace(**hyper))
    tensors = Tensors(shapes)
    for name, shape in shapes.items():  # drawn in this order; biases stay zero
        if not name.endswith("_b"):  # uniform has no out=: one tensor at a time
            tensors[name][...] = rng.uniform(-init_scale, init_scale, shape)
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
class _Run:
    """A run of a :class:`_Stack`: the source context of N sentences for one
    model at the width n of its longest (:func:`_width`), each zero past its
    end (``pad`` -inf there).  Row r of a block reads sentence r, every row
    the one sentence of N = 1, and the blocks of a stack fall in N equal
    shares, share s reading sentence s.  Every field but ``chain`` is per
    sentence."""

    R: np.ndarray  # (N, D, n)
    init_state: np.ndarray  # (N, D): one row per sentence
    lengths: np.ndarray  # (N,) source lengths
    chain: tuple  # (source ids (2, n+1, N), LSTM activations): both directions
    pad: np.ndarray  # (N, n) 0 or -inf
    mlp_proj: np.ndarray | None = None  # attn_W1[:, r-part] @ R: (N, a, n)
    lexicon_matrix: np.ndarray | None = None  # L_F (N, V, n); None: no bias

    def sentences(self, keep) -> "_Run":
        """The run of the kept sentences, for stepping; it keeps no encoder
        activations, so no backward pass walks it."""
        return replace(self, chain=None, **{
            f.name: getattr(self, f.name)[keep] for f in fields(self)
            if f.name != "chain" and getattr(self, f.name) is not None})


# The most estimated bytes of one member's step of a cut (:func:`_cuts`):
# the smallest power of two that stacks all 40 toy dev lines (V = 12, d =
# 32) and two or three wide-vocabulary lines (V = 2000, d = 128), whose flat
# products (:func:`_product`) run faster than one product per block.  At one
# row each, a cut holds 88-307 toy or 6-23 wide sentences of 1-20 words.
STACK_BYTES = 1 << 22


@dataclass(frozen=True)
class _Stack:
    """The context of a stack of sentences for one model, the one context
    every decoder step reads: its runs (:class:`_Run`), in stack order.

    - A run is a block of sentences padded to the width of its longest
      (:func:`_width`).
    - :func:`_stacks` cuts runs of one width class, so each of its
      sentences has the width it has alone.
    - A training stack (:func:`_source_context`) is one padded run that
      holds the encoder activations.

    A stack holds the same number of blocks for every sentence, so run i
    holds the blocks of its sentences (:meth:`runs_of`)."""

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

    def runs_of(self, x):
        """(run, its blocks of the stack ``x``) pairs."""
        per, at = len(x) // len(self.init_state), 0
        for run in self.runs:
            yield run, x[at:at + per * len(run.init_state)]
            at += per * len(run.init_state)


class _Step(NamedTuple):
    """What a decoder step computed, kept for the backward pass: one row per
    row of the block, or per row-step of a walk."""

    lstm: tuple
    attn: np.ndarray | None  # None: several runs or packed rows (_attend)
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
    """The rows of the given :class:`_Step` blocks, one after another; each
    field is one that every block holds or that every block lacks (None)."""
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

    def take(self, rows) -> "_Walk":
        """The walk of the given rows, which must be in increasing order."""
        if len(rows) == len(self.words):
            return self
        at = np.full(self.alive.shape, -1)  # each row-step's entry in steps
        at[self.alive] = np.arange(len(self.steps.probs))
        alive = self.alive[:, rows]
        alive = alive[alive.any(axis=1)]  # drop the steps after the last end
        at = at[:len(alive), rows][alive]
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
    steps a stack of blocks, one product each; a 2-D weight takes its
    product through :func:`_product`.

    A gate's exp(-z) overflows to inf on a large negative z, which gives the
    gate 0.  The loops that step the LSTM (:func:`_encode_g`, the deferred
    walk :func:`_lockstep` and the walk :func:`_walk`) ignore that
    overflow, once per loop: an errstate per call costs a few percent of a
    small step."""
    n = c.shape[-1]
    z = _product(u, W) + b
    gates = 1.0 / (1.0 + np.exp(-z[..., :2 * n]))
    i, o = gates[..., :n], gates[..., n:]
    g = np.tanh(z[..., 2 * n:])
    c_new = (1.0 - i) * c + i * g
    tc = np.tanh(c_new)
    return o * tc, c_new, (u, c, i, o, g, tc)


def _product(x, W):
    """``x @ W^T``, for a 2-D weight W against a block of rows or a (K,
    BLOCK_ROWS, k) stack of blocks; a stacked W takes one product per item.

    numpy runs a stacked product as one product per block.  A stack's whole
    chunks of FLAT_BLOCKS blocks, and its remaining blocks, each take one
    flat product instead where :func:`_keeps_rows` found that a product of
    that many rows gives every row the bits of its own block's product on
    the running BLAS; elsewhere they keep one product per block.  So every
    row gets the bits it gets stepped alone either way."""
    if x.ndim != 3 or W.ndim > 2:
        return x @ W.swapaxes(-1, -2)
    out = np.empty((*x.shape[:-1], len(W)))
    whole = len(x) - len(x) % FLAT_BLOCKS
    for a, b in (0, whole), (whole, len(x)):
        if a == b:
            continue
        rows = min(b - a, FLAT_BLOCKS) * BLOCK_ROWS  # of one flat product
        part, into = x[a:b], out[a:b]
        if rows > BLOCK_ROWS and _keeps_rows(rows, *W.shape):
            part, into = (y.reshape(-1, rows, y.shape[-1]) for y in (part, into))
        np.matmul(part, W.T, out=into)
    return out


@functools.cache
def _keeps_rows(rows: int, n: int, k: int) -> bool:
    """Whether a product ``x @ W^T`` of ``rows`` rows against an (n, k)
    weight gives each row the bits that the product of its own
    BLOCK_ROWS-row block gives, on the running BLAS and thread setting:
    checked once per process and shape, when first asked.  The BLAS picks
    its kernels by shape, so the shape decides, not the data, which are
    pseudo-random (:func:`_check_data`)."""
    data = _check_data((rows + n) * k).reshape(-1, k)
    x, W = data[:rows], data[rows:]
    blocks = x.reshape(-1, BLOCK_ROWS, k) @ W.T
    return np.array_equal(x @ W.T, blocks.reshape(rows, n))


def _check_data(size: int) -> np.ndarray:
    """``size`` pseudo-random floats in [-0.5, 0.5) with full mantissas:
    the top 52 bits of i times an odd 64-bit constant (a Weyl sequence by
    the golden ratio), for i = 0, 1, ..., made in place in one array.
    Sines of the integers took longer to make than the products the check
    compares, and numpy.random takes longer to import than both."""
    bits = np.arange(size, dtype=np.uint64)
    bits *= np.uint64(0x9E3779B97F4A7C15)
    bits >>= np.uint64(12)  # the mantissa of a float in [1, 2)
    bits |= np.uint64(0x3FF0000000000000)
    data = bits.view(np.float64)
    data -= 1.5
    return data


def _encoder_weights(params: ModelParams):
    """Both encoder directions' LSTM weights and biases, stacked."""
    t = params.tensors
    return (np.stack([t["enc_fwd_W"], t["enc_bwd_W"]]),
            np.stack([t["enc_fwd_b"], t["enc_bwd_b"]])[:, None])


@np.errstate(over="ignore")  # see _lstm
def _encode_g(params: ModelParams, sources, *,
              alone: bool = False) -> _Run:
    """Run both encoder directions over the sentences of ``sources``, one
    stacked product per position; a sentence leaves after its end.  Returns
    their run without the MLP projection and L_F, R and ``pad`` at the
    width of the longest sentence (:func:`_width`).

    By default the sentences are the rows of one block, and the run
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
    R = np.zeros((N, 2 * d, _width(n)))
    init = np.empty((N, 2 * d))
    for r, m in enumerate(lengths.tolist()):
        R[r, :d, :m] = bwd[m - 1::-1, r].T
        R[r, d:, :m] = fwd[:m, r].T
        init[r] = np.concatenate([bwd[m, r], fwd[m, r]])
    return _Run(R, init, lengths, None if alone else (ids, acts),
                np.where(np.arange(R.shape[-1]) < lengths[:, None], 0.0,
                         -np.inf))


def _width(n: int) -> int:
    """The width of the source axis of a context whose longest sentence
    has n words: n up to 8 words, else n rounded up to a multiple of 8.

    Every context is built at this width (:func:`_encode_g`,
    :func:`_lexicon_block`), so a sentence is stepped at the width of its
    own length's class wherever it runs, and stacks cut runs by class
    (:func:`_stacks`).  Zero columns can change the bits of the per-block
    attention products, so a sentence must not be stepped at two widths;
    padding 2-7-word sentences to 8 made toy decode slower, so they keep
    their own width."""
    return n if n <= 8 else n + -n % 8


def _attach_mlp(params: ModelParams, run: _Run) -> _Run:
    """``run`` with the part of MLP attention that depends only on the
    source, the projection W1_r R: one product at the run's width
    (:func:`_width`; a projection cut from a wider one need not keep its
    bits)."""
    if params.attention == "mlp":
        run.mlp_proj = params.tensors["attn_W1"][:, params.dec_hid:] @ run.R
    return run


def _source_context(params: ModelParams, sources, lexicon) -> _Stack:
    """Encode the sentences as the rows of one block and attach each one's
    L_F, zero past its end: a training stack, one padded run that keeps the
    encoder activations for the backward pass."""
    run = _attach_mlp(params, _encode_g(params, sources))
    run.lexicon_matrix = _lexicon_block([params], sources, lexicon)
    return _Stack((run,), run.init_state)


def _step_bytes(params, n: int, rows: int, lexicon) -> int:
    """Estimated bytes of one decoder step of ``params`` for a sentence of
    ``n`` source words with ``rows`` rows, as :func:`_block_step` steps
    them: the rows' LSTM and output activations and their (rows, V)
    arrays; attention's scores, weights and MLP tanh, on the rows for MLP
    attention and on the rows padded to whole blocks for dot attention;
    the weights gathered into those blocks and their contexts; plus the
    sentence's R, MLP projection and L_F.  Everything along the source
    axis is counted at the sentence's width (:func:`_width`)."""
    D, V, w = params.dec_hid, params.tgt_vocab_size, _width(n)
    a = params.attn_dim if params.attention == "mlp" else 0
    L = 0 if lexicon is None else V
    lstm = params.d_emb + 11 * D  # [x; ctx; h], gates and states
    scores = (3 + 2 * a) * w  # scores, weights, MLP tanh
    output = 3 * D + 5 * V + 2 * L  # [h; ctx], eta, softmax; L_F a, log
    blocked = rows + -rows % BLOCK_ROWS
    if a:  # on the live rows; the weights are gathered into blocks
        attend = rows * scores + blocked * (w + D)
    else:  # the dot scores are a product on the blocks
        attend = blocked * (scores + D)
    return 8 * (rows * (lstm + output) + attend + (D + a + L) * w)


def _cuts(models, sources, rows: int, lexicon) -> list[list[int]]:
    """The positions of ``sources``, shortest first (a stable sort), cut
    into neighbours whose steps of ``rows`` rows each (the largest member's
    :func:`_step_bytes`) sum to at most STACK_BYTES, one over it alone: all
    groups stepped together (:func:`_stacks`; maximum likelihood: rows 1)."""
    cuts, size = [], math.inf
    for i in sorted(range(len(sources)), key=lambda i: len(sources[i])):
        cost = max(_step_bytes(m, len(sources[i]), rows, lexicon)
                   for m in models)
        if size + cost > STACK_BYTES:
            cuts.append([])
            size = 0
        cuts[-1].append(i)
        size += cost
    return cuts


def _stacks(models, sources, rows: int, lexicon):
    """The one way to get a :class:`_Stack`: one stack per cut of
    :func:`_cuts`.  Yields each stack's input positions and, built as it is
    reached, each member's :class:`_Stack` of it.

    Each member encodes a stack in one pass, each sentence its own one-row
    product (:func:`_encode_g`), cut straight into runs of one width class
    (:func:`_width`: one run per length up to 8 words, then one per
    multiple of 8): a run's R and ``pad`` are copied at its width, its MLP
    projection computed from that, and its L_F built once for all members,
    so each sentence's part is ``np.array_equal`` to
    ``_source_context(model, [F], lexicon)``.  A wider run's width would
    not keep that: at toy and copy widths the 8-row products ``a @ R^T``
    and ``a @ L_F^T`` change bits once the source axis is padded to 32
    positions or more."""
    for stack in _cuts(models, sources, rows, lexicon):
        stacked = [sources[i] for i in stack]
        passes = [_encode_g(m, stacked, alone=True) for m in models]
        widths = [_width(len(F)) for F in stacked]
        cuts = [0, *np.flatnonzero(np.diff(widths)) + 1, len(widths)]
        spans = [(a, b, widths[a]) for a, b in zip(cuts, cuts[1:])]
        lexes = [_lexicon_block(models, stacked[a:b], lexicon)
                 for a, b, _ in spans]
        yield stack, [_Stack(tuple(_attach_mlp(m, _Run(
            enc.R[a:b, :, :w].copy(), enc.init_state[a:b], enc.lengths[a:b],
            None, enc.pad[a:b, :w], lexicon_matrix=L))
            for (a, b, w), L in zip(spans, lexes)), enc.init_state)
            for m, enc in zip(models, passes)]


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


def _attend(params: ModelParams, h, enc: _Stack, *, spread=None):
    """Attention of the decoder rows ``h`` against the stack ``enc``: each
    row's weights a, context R a, MLP tanh activations and L_F a (None where
    the runs hold no L_F).  The rows are blocks of one sentence each
    (read as in :func:`_by_row`) or, with ``spread`` = (B, back) from
    :func:`_block_step`, packed blocks whose first S * B rows hold each
    sentence's B rows in turn.

    The MLP h-part product W1_h h runs over the blocks as they are; then,
    run by run on each sentence's rows (the S * B live rows when packed),
    the add of its projection W1_r R, the tanh, the score matvec with w2,
    the pad mask and the softmax.  Only the products against a sentence's
    own R and L_F (and the dot scores h R^T) take blocks of BLOCK_ROWS rows
    of one sentence, padded with copies of its rows: packed rows are
    gathered into them (a for MLP, h for dot attention), and ``back``
    gathers their results to the packed rows.  The weights and tanh of
    packed rows or of several runs are None."""
    t, mlp, cols = params.tensors, params.attention == "mlp", None
    x = _product(h, t["attn_W1"][:, :params.dec_hid]) if mlp else h
    if spread is not None:  # the live rows, each sentence's B in turn
        (B, back), S = spread, len(enc.init_state)
        x = x.reshape(-1, x.shape[-1])[:S * B]
        cols = np.arange(B + -B % BLOCK_ROWS) % B  # each sentence's block rows
        if not mlp:  # the dot scores are a product against R
            x, cols = _sentence_blocks(x.reshape(S, B, -1), cols), None
    parts = []
    for run, y in enc.runs_of(x):
        S, n = run.pad.shape
        if mlp:
            m = np.tanh(y.reshape(S, -1, y.shape[-1], 1) + run.mlp_proj[:, None])
            scores = m.swapaxes(-1, -2) @ t["attn_w2"]
        else:
            m, scores = None, _by_row(y, run.R)
        # exp(-inf) = 0: padding weighs nothing
        scores = scores.reshape(S, -1, n) + run.pad[:, None]
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        a = e / e.sum(axis=-1, keepdims=True)
        a = (a.reshape(*y.shape[:-1], n) if cols is None
             else _sentence_blocks(a, cols))
        parts.append((a, _by_row(a, run.R.swapaxes(-1, -2)), m,
                      None if run.lexicon_matrix is None
                      else _by_row(a, run.lexicon_matrix.swapaxes(1, 2))))
    a, ctx, m, lex = parts[0]
    if len(parts) > 1:
        _, ctxs, _, lexes = zip(*parts)
        a = m = None
        ctx = np.concatenate(ctxs)
        lex = None if lex is None else np.concatenate(lexes)
    if spread is not None:
        a = m = None
        ctx = _gather(ctx, back)
        lex = None if lex is None else _gather(lex, back)
    if m is not None:  # one row's activations per row of the block
        m = m.reshape(*a.shape[:-1], *m.shape[-2:])
    return a, ctx, m, lex


def _sentence_blocks(x, cols):
    """The rows ``cols`` of each sentence's rows of the (S, B, k) ``x``, as
    blocks of BLOCK_ROWS rows that each read one sentence."""
    return np.take(x, cols, axis=1).reshape(-1, BLOCK_ROWS, x.shape[-1])


def _init_state(enc: _Stack) -> DecoderState:
    """The initial block state: one row per sentence of the stack."""
    zero = np.zeros(enc.init_state.shape)
    return DecoderState(enc.init_state, zero, zero)


def _recurrence(params: ModelParams, prev, state: DecoderState, enc: _Stack,
                *, spread=None):
    """The LSTM and attention of one decoder step of a block of B rows ((B,)
    ids, a (B, D) state) or a stack of blocks ((K, BLOCK_ROWS) ids and
    state rows): the new state, the first four fields of its
    :class:`_Step` and each row's L_F a (None without L_F).

    The LSTM runs once over all blocks; attention (:func:`_attend`) reads
    them as they are laid out, in blocks of one sentence each or, with
    ``spread``, packed (see :func:`_block_step`), and its fields are None
    for packed rows and for a stack of several runs."""
    t = params.tensors
    u = np.concatenate([t["tgt_emb"][prev], state.context, state.hidden],
                       axis=-1)
    h, c, lstm = _lstm(t["dec_W"], t["dec_b"], u, state.cell)
    a, ctx, m, lex = _attend(params, h, enc, spread=spread)
    return (DecoderState(h, c, ctx),
            (lstm, a, m, np.concatenate([h, ctx], axis=-1)), lex)


def _gather(x, rows):
    """The rows ``rows`` (an index array of any shape) of the rows of a
    block or stack of blocks ``x``, laid out as ``rows``."""
    return x.reshape(-1, x.shape[-1])[rows]


def _output_layer(params: ModelParams, q, lex):
    """The output layer's fields of a :class:`_Step` for the rows ``q`` =
    [h; ctx]; ``lex`` holds each row's L_F a, or is None without the
    bias."""
    t = params.tensors
    eta = _product(q, t["out_W"]) + t["out_b"]
    logits = _product(eta, t["softmax_W"]) + t["softmax_b"]
    if lex is not None:
        lex = lex + params.epsilon
        logits = logits + np.log(lex)
    top = logits.max(axis=-1, keepdims=True)
    e = np.exp(logits - top)
    total = e.sum(axis=-1, keepdims=True)
    return eta, lex, logits, top[..., 0], total[..., 0], e / total


def _block_step(params: ModelParams, prev_ids, state: DecoderState, rows,
                enc: _Stack):
    """Step B rows for each of the S sentences of ``enc`` on ``prev_ids``,
    an (S, B) array or its S * B ids in sentence order: row j of sentence s
    continues row ``rows[s, j]`` of ``state``, ``rows`` laid out as
    ``prev_ids``.

    The S * B rows, sentence by sentence, are packed into blocks of exactly
    BLOCK_ROWS rows, the last padded with copies of the first, and stepped
    as one (K, BLOCK_ROWS) stack through the parts that read only shared
    weights or a row's own values: the embedding, the LSTM, MLP
    attention's h-part product, the output layer and the bias log(L_F a +
    epsilon).  The rest of MLP attention runs on the S * B live rows
    themselves, run by run (:func:`_attend`); only the products against a
    sentence's own R and L_F (and dot attention's scores) run on the rows
    gathered into blocks of one sentence each, its rows padded with copies
    of its own, and their results are gathered back.  Where packing saves
    no block (one sentence, or B a multiple of BLOCK_ROWS), the rows are
    laid out in those per-sentence blocks and nothing is gathered.  Returns
    (new state, :class:`_Step`) of S * P rows, P per sentence: row j < B of
    sentence s is row s * P + j, where P is B when packed and B rounded up
    to whole blocks otherwise; the next-word distributions are the
    ``probs``.

    A one-row product (gemv) rounds unlike a block (gemm), but a row of a
    fixed-size block depends neither on its position nor on the other rows,
    and a stack's products give each block the bits of its own product
    (:func:`_product`); attention's row-local work gives a row the same
    bits however many rows it runs on.  So search, scoring, sampling,
    minimum-risk scoring and the exhaustive-search oracle, which all step
    here, agree with ``==`` whichever rows and sentences share a block."""
    prev = np.asarray(prev_ids).reshape(len(enc.init_state), -1)
    S, B = prev.shape
    P = B + -B % BLOCK_ROWS
    pad = np.arange(P) % B  # pad with copies of real rows
    cols = pad if P > B else slice(None)  # whole blocks: no copies to take
    at = np.asarray(rows).reshape(S, B)[:, cols].reshape(-1)
    prev, lay = prev[:, cols].reshape(-1), None
    K = -(-S * B // BLOCK_ROWS)  # blocks of the packed rows
    if K < S * P // BLOCK_ROWS:  # packing saves a block
        # each packed row's padded row: the rows, then copies of the first
        lay = np.arange(K * BLOCK_ROWS) % (S * B)
        lay = lay // B * P + lay % B
        at, prev = at[lay], prev[lay]
    blocks = at.reshape(-1, BLOCK_ROWS)
    # a stack of one block steps as that block: a (1, 8) stack keeps the
    # bits but made toy-shape mrt_loss 7-8 % slower, in 21 of 21 and again
    # 5 of 6 interleaved pairs (Xeon guest, one OpenBLAS thread)
    if len(blocks) == 1:
        blocks = blocks[0]
    spread = None
    if lay is not None:  # attention gathers each packed row back by lay
        spread, P = (B, lay.reshape(blocks.shape)), B
    state, s, lex = _recurrence(params, prev.reshape(blocks.shape),
                                state.take(blocks), enc, spread=spread)
    step = _Step(*s, *_output_layer(params, s[3], lex))
    if blocks.ndim == 1 and spread is None:
        return state, step

    def flat(x):  # the S * P rows
        return x.reshape(-1, *x.shape[blocks.ndim:])[:S * P]
    return (DecoderState(flat(state.hidden), flat(state.cell),
                         flat(state.context)), _map_step(flat, step))


def _target_ids(params: ModelParams, targets):
    """The target sequences as a (rows, T) id array, zero past each end,
    and their lengths; refuses an empty sequence or a foreign id."""
    for E in targets:
        if not E:
            raise ValueError("target sequences must be non-empty")
        if not all(0 <= e < params.tgt_vocab_size for e in E):
            raise ValueError(f"target id outside vocabulary in {list(E)}")
    lengths = np.array([len(E) for E in targets])
    ids = np.zeros((len(targets), lengths.max()), dtype=np.intp)
    for r, E in enumerate(targets):
        ids[r, :len(E)] = E
    return ids, lengths


@np.errstate(over="ignore")  # see _lstm
def _lockstep(params: ModelParams, enc: _Stack, targets) -> _Walk:
    """The deferred walk of maximum likelihood: teacher-force the targets
    together on a training stack (:func:`_source_context`), row r reading
    sentence r or every row its one sentence, unpadded through the
    recurrence and attention alone; a row that ends leaves the block.  The
    output layer and lexicon bias run once over all row-steps after it."""
    ids, lengths = _target_ids(params, targets)
    live, state = np.arange(len(lengths)), _init_state(enc)
    prev = np.full(len(live), params.tgt_eos)
    # no copy of L_F at each drop: only the bias after the walk reads L_F
    ctx = replace(enc, runs=tuple(replace(run, lexicon_matrix=None)
                                  for run in enc.runs))
    keep = live % len(enc.init_state)  # each row starts at its sentence's state
    steps, chosen = [], []
    while len(live):
        state, s, _ = _recurrence(params, prev, state if keep is None
                                  else state.take(keep), ctx)
        prev, goes_on = ids[live, len(steps)], lengths[live] > len(steps) + 1
        steps.append(_Step(*s, *[None] * 6))  # the output layer runs after
        chosen.append((live, prev))
        if goes_on.all():
            keep = None
        else:
            keep = np.flatnonzero(goes_on)
            live, prev = live[keep], prev[keep]
            if len(ctx.init_state) > 1:  # row r reads sentence r
                ctx = ctx.sentences(goes_on)
    walk = _Walk(*_chosen(chosen, len(lengths)), _stack(steps))
    s, (run,) = walk.steps, enc.runs
    lex = (None if run.lexicon_matrix is None else
           walk.per_row(s.attn, run.lexicon_matrix.swapaxes(1, 2)))
    return walk._replace(steps=_Step(*s[:4], *_output_layer(params, s.out_in,
                                                           lex)))


def _chosen(chosen, n_rows: int):
    """(words, ids, alive) of a walk of ``n_rows`` rows, from each step's
    (live rows, their chosen ids): see :class:`_Walk`."""
    ids = np.zeros((len(chosen), n_rows), dtype=np.intp)
    alive = np.zeros(ids.shape, dtype=bool)
    for t, (rows, chosen_ids) in enumerate(chosen):
        ids[t, rows] = chosen_ids
        alive[t, rows] = True
    lengths = alive.sum(axis=0).tolist()
    return ([tuple(w[:n]) for w, n in zip(ids.T.tolist(), lengths)], ids,
            alive)


@np.errstate(over="ignore", divide="ignore")  # see _lstm; search's log 0
def _walk(models, encs, n_rows: int, choose):
    """Walk ``n_rows`` rows of every sentence of a stack forward together,
    member k on its context ``encs[k]``: one :func:`_block_step` per member
    and step over the live rows, in sentence order, each sentence's padded
    with copies of its own to the most any sentence has, so every row steps
    as it steps in the walk of its sentence alone.  At step t,
    ``choose(t, sentences, counts, probs, steps, rows)`` gets the live
    sentences' stack positions (an array) and live rows (a list), the live
    rows' next-word distributions averaged over the members from the first
    (:func:`ensemble_distribution`), and the members' :class:`_Step`s with
    the live rows' place among their rows (a slice or an index).  It
    returns the parents of the next rows, indices into the live rows in
    sentence order (an (S', k) array when k rows of each of S' sentences go
    on; None: every row goes on as itself), and their input words.  A
    sentence leaves the stacks with its last row."""
    S = len(encs[0].init_state)
    sentences, counts, B, even = np.arange(S), [n_rows] * S, n_rows, True
    states = [_init_state(enc) for enc in encs]
    prev = np.full(S * n_rows, models[0].tgt_eos)
    at = np.repeat(np.arange(S), n_rows)  # each row's parent state row
    for t in itertools.count():
        S, n, ids, rows = len(counts), at.size, prev, at
        if not even:
            starts = np.cumsum(counts) - counts
            pad = starts[:, None] + np.arange(B) % np.array(counts)[:, None]
            ids, rows = prev[pad], at[pad]
        states, steps = zip(*[_block_step(m, ids, state, rows, enc) for
                              m, state, enc in zip(models, states, encs)])
        per = len(steps[0].probs) // S  # each sentence's rows of the step
        real = slice(n)  # the live rows: a prefix unless a sentence is padded
        if per * S != n and S > 1:
            real = (np.arange(0, S * per, per)[:, None] + np.arange(B))[
                np.arange(B) < np.array(counts)[:, None]]
        probs = [step.probs[real] for step in steps]
        # one member's distribution is its own mean
        probs = probs[0] if len(probs) == 1 else ensemble_distribution(probs)
        parents, prev = choose(t, sentences, counts, probs, steps, real)
        if parents is None:
            parents = np.arange(n)
        elif not parents.size:
            return
        elif parents.ndim == 2 and len(parents) == S:
            counts, B, even = [parents.shape[1]] * S, parents.shape[1], True
        else:
            kept = np.bincount(np.repeat(np.arange(S), counts)[
                parents.reshape(-1)], minlength=S)
            if not kept.all():
                encs = [enc.sentences(kept > 0) for enc in encs]
                sentences, kept = sentences[kept > 0], kept[kept > 0]
            counts, B = kept.tolist(), kept.max()
            even = kept.min() == B
        at = parents if isinstance(real, slice) else real[parents]
        # drop the step before the next one: held over, its arrays made toy
        # search 3-4 % slower (interleaved pairs, one OpenBLAS thread)
        del steps, probs


def _walk_stack(params: ModelParams, enc: _Stack, n_rows: int, choose, *,
                keep: bool = False):
    """The one-model :func:`_walk` of ``n_rows`` rows of every sentence of
    the stack ``enc``, row ``i * n_rows + j`` being row j of sentence i, in
    which ``choose(t, rows, sentences, counts, probs)`` gives each live row
    of ``rows`` its next word and whether it goes on.  Returns each
    sentence's (words, log p) of its rows, in stack order, keeping only each
    row-step's word and log-probability term; with ``keep``, the
    :class:`_Walk` of all rows, with the :class:`_Step` of every row-step
    for the backward pass (:func:`_backward`), which reads one sentence's
    unpacked steps: a kept stack of more sentences raises ValueError."""
    if keep and len(enc.init_state) > 1:
        raise ValueError("a kept walk steps one sentence")
    total = len(enc.init_state) * n_rows
    live, chosen, kept = np.arange(total), [], []

    def step(t, sentences, counts, probs, steps, rows):
        nonlocal live
        words, goes_on = choose(t, live, sentences.tolist(), counts, probs)
        chosen.append((live, words))
        s, = steps
        if keep:
            kept.append(s if len(s.probs) == len(words)
                        else _map_step(lambda x: x[rows], s))
        else:
            kept.append(_log_terms(s, words, np.arange(len(s.probs))[rows]))
        if goes_on.all():
            return None, words
        parents = np.flatnonzero(goes_on)
        live = live[parents]
        return parents, words[parents]

    _walk([params], [enc], n_rows, step)
    words, ids, alive = _chosen(chosen, total)
    if keep:
        return _Walk(words, ids, alive, _stack(kept))
    logp = _row_logprobs(np.concatenate(kept), alive, words)
    return [(words[i:i + n_rows], logp[i:i + n_rows])
            for i in range(0, total, n_rows)]


def _teacher_forced(params: ModelParams, enc: _Stack, targets) -> _Walk:
    """The walk (:func:`_walk_stack`) of the one sentence of ``enc`` that
    feeds each row its own target, with its steps: a sequence scores what
    it scored as drawn, as search scored it."""
    ids, lengths = _target_ids(params, targets)
    return _walk_stack(params, enc, len(targets),
                       lambda t, rows, *_: (ids[rows, t],
                                            lengths[rows] > t + 1),
                       keep=True)


def _log_terms(step: _Step, ids, rows) -> np.ndarray:
    """log p of ``ids`` at the given rows of ``step`` (log-softmax)."""
    return step.logits[rows, ids] - (step.logit_max[rows]
                                     + np.log(step.exp_sum[rows]))


def _row_logprobs(terms, alive, words) -> np.ndarray:
    """log p of each row's words from the terms of its steps, given step
    by step with each step's rows in row order, added in word order."""
    per_row = np.zeros(alive.shape[::-1])  # (N, T): each row in order
    per_row.T[alive] = terms
    return np.array([per_row[r, :len(w)].sum() for r, w in enumerate(words)])


def _logprobs(walk: _Walk) -> np.ndarray:
    """log p of each row's words from its steps."""
    s = walk.steps
    return _row_logprobs(_log_terms(s, walk.ids[walk.alive],
                                    np.arange(len(s.logits))),
                         walk.alive, walk.words)


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


def _backward(params: ModelParams, enc: _Stack, walk: _Walk, seeds, grads):
    """Add to ``grads`` the gradient of sum_r seeds[r] * log p(E_r | F_r).

    ``walk`` holds the target sequences E_r and their teacher-forced steps
    against ``enc``, by either walk: row r reads F_r, sentence r of the
    training run, or the one sentence F of a one-sentence run.  Teacher
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
    t, (run,) = params.tensors, enc.runs
    D, d_emb, N = params.dec_hid, params.d_emb, len(run.R)
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
    if run.lexicon_matrix is not None:
        dA += walk.per_row(G / s.lex, run.lexicon_matrix)

    mlp = run.mlp_proj is not None
    dCtx = dQ[:, D:].copy()
    dS = np.empty_like(A)
    dZ = np.empty((len(G), 3 * D))
    dU = np.empty((len(G), t["dec_W"].shape[1]))
    if mlp:
        K = np.empty((len(G), params.attn_dim))
        dP = np.zeros_like(run.mlp_proj)
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
            # the sentences of this step's rows (one sentence: one product)
            R = run.R if N == 1 else run.R[rows]
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
            dh += K[at] @ t["attn_W1"][:, :D]
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
        grads["attn_W1"][:, D:] += (dP @ run.R.swapaxes(1, 2)).sum(axis=0)
        dR += t["attn_W1"][:, D:].T @ dP
    else:
        dR += walk.row_outer(Q[:, :D], dS, N)
    d_init = np.zeros((N, D))  # every row is alive at step 0
    np.add.at(d_init, np.arange(len(dh_next)) % N, dh_next)
    _encoder_backward(params, run, dR, d_init, grads)


def _rows_into(x, rows):
    """``x`` as the rows of a mask (its second-last axis), the other rows
    zero."""
    out = np.zeros((*x.shape[:-2], len(rows), x.shape[-1]))
    out[..., rows, :] = x
    return out


def _encoder_backward(params: ModelParams, run: _Run, dR, d_init, grads):
    """Walk both encoder directions back, all rows together, from the
    gradients of the rows' R ((N, D, n)) and of their decoder initial
    states ((N, D)); a row joins at its sentence end."""
    d, d_emb, lengths = params.d_hid, params.d_emb, run.lengths
    ids, acts = run.chain
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


def _lexicon_block(models, sources, lexicon):
    """L_F of the sentences as one (N, V, n) block at the width n of the
    longest (:func:`_width`), zero past each one's end (one
    :func:`build_lexicon_matrix`), shared by the models, or None without
    a table.  A lexicon-trained model without a table (it would silently
    score unbiased) and a bias without a finite epsilon > 0 raise."""
    for params in models:
        if lexicon is None and params.use_lexicon:
            raise ValueError(
                "model was trained with lexicon bias; a lexicon table is required")
        if lexicon is not None and not 0 < params.epsilon < math.inf:
            raise ValueError(
                "lexicon bias requires a finite epsilon > 0 to prevent zero "
                "probabilities from becoming -inf under the log")
    if lexicon is None:
        return None
    ids = np.full((len(sources), _width(max(map(len, sources)))),
                  -1)  # -1: no entries
    for r, F in enumerate(sources):
        ids[r, :len(F)] = F
    L = build_lexicon_matrix(ids.reshape(-1), lexicon, models[0].tgt_vocab_size)
    return np.ascontiguousarray(L.reshape(len(L), *ids.shape).swapaxes(0, 1))


def _length_cap(F, max_len: int | None) -> int:
    """``max_len``, or the default cap 2*|F| + 10 on hypotheses and samples."""
    return 2 * len(F) + 10 if max_len is None else max_len


# ---------------------------------------------------------------------------
# public operations
# ---------------------------------------------------------------------------

def build_lexicon_matrix(F, table: LexiconTable, tgt_vocab) -> np.ndarray:
    """Dense (|V_e|, |F|) matrix; column j holds p(e | f_j), zero if unknown."""
    size = tgt_vocab if isinstance(tgt_vocab, int) else len(tgt_vocab)
    at, cols = table.entries_of(F)
    e = table.targets[at]
    bad = (e < 0) | (e >= size)
    if bad.any():
        raise ValueError(f"lexicon entry of source id {F[cols[bad.argmax()]]} "
                         "outside the target vocabulary")
    L = np.zeros((size, len(F)))
    L[e, cols] = table.probs[at]  # one scatter
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


def sentence_logprob(models, F, E, lexicon: LexiconTable | None = None) -> float:
    """Teacher-forced log p(E | F); ensembles average per-step probabilities.

    ``E`` must end with the target sentence-end id.  Each member
    teacher-forces E in the walk that search steps (:func:`_teacher_forced`),
    and the step log probabilities add left to right as in search, so a
    hypothesis scores here exactly what search scored it.
    """
    models = _as_model_list(models)
    if not E or E[-1] != models[0].tgt_eos:
        raise ValueError("E must end with the sentence-end id")
    (_, encs), = _stacks(models, [F], 1, lexicon)
    probs = ensemble_distribution([_teacher_forced(m, enc, [E]).steps.probs
                                   for m, enc in zip(models, encs)])
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
    header = {
        "hyper": params.hyper_dict(),
        "src_vocab": src_vocab.tokens,
        "tgt_vocab": tgt_vocab.tokens,
        "tensors": [{"name": n, "shape": list(params.tensors[n].shape)}
                    for n in sorted(params.tensors)],
    }
    text = json.dumps(header, sort_keys=True, separators=(",", ":"))
    head = _CHECKPOINT_MAGIC + text.encode("utf-8") + b"\n"
    data = np.ascontiguousarray(params.tensors.buffer, dtype="<f8").data
    partial = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(partial, "wb") as f:
            if hasattr(os, "posix_fallocate"):  # not on every platform
                with contextlib.suppress(OSError):
                    os.posix_fallocate(f.fileno(), 0, len(head) + data.nbytes)
            f.write(head)
            f.write(data)  # the buffer is in file order: one write, no copy
        os.replace(partial, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(partial)
        raise


def load_checkpoint(path):
    """Read a checkpoint; returns (ModelParams, src Vocabulary, tgt Vocabulary).

    The tensor buffer is one fresh private mapping that the tensor data is
    read into: a load holds no copy of the file, and where the mapping is
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
            shapes = {t["name"]: tuple(t["shape"]) for t in header["tensors"]}
            if len(shapes) < len(header["tensors"]) or list(shapes) != sorted(shapes):
                raise DataError(f"{path}: tensor entries must name each tensor "
                                "once, in sorted order")
            count = sum(map(math.prod, shapes.values()))
            excess = os.fstat(f.fileno()).st_size - f.tell() - 8 * count
            if excess:
                what = "trailing bytes after" if excess > 0 else "truncated"
                raise DataError(f"{path}: {what} tensor data")
            block = mmap.mmap(-1, max(8 * count, 1), **_TENSOR_MAP)  # mmap refuses 0
            f.readinto(block)
    except OSError as e:
        raise DataError(f"cannot read {path}: {e.strerror}") from e
    tensors = Tensors(shapes, np.frombuffer(block, dtype="<f8", count=count))
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
