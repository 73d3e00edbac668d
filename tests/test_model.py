"""Encoder, attention, decoder step, ensembles, and checkpoint tests."""

import io
import json
import math
import os
import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import lexnmt.model as model_mod
from lexnmt.corpus import SentencePair, Vocabulary
from lexnmt.decode import beam_search
from lexnmt.errors import DataError
from lexnmt.model import (BLOCK_ROWS, DecoderState, ModelParams, _attend,
                          _block_step, _encode_g, _init_state, _lockstep,
                          _logprobs, _lstm, _product, _source_context,
                          _stacks, _teacher_forced, build_lexicon_matrix,
                          expected_shapes, init_params, load_checkpoint,
                          save_checkpoint, sentence_logprob)
from lexnmt.train import gradient_norm, mrt_loss_frozen, nll_loss

from helpers import (count_calls, graph_stepper, lexicon_table, random_lexicon,
                     tiny_model)
from oracles import (ref_attention, ref_encode, ref_sentence_logprob,
                     ref_step_distribution)


def _lstm_step(W, b, x, h, c):
    """One LSTM step from input x and state (h, c); returns (hidden, cell)."""
    h, c, _ = _lstm(W, b, np.concatenate([x, h]), c)
    return h, c


# ---------------------------------------------------------------------------
# coupled-gate LSTM
# ---------------------------------------------------------------------------

def test_lstm_zero_parameters_pinned():
    # zero weights: input gate = output gate = 1/2, candidate = 0, so the
    # cell halves and the hidden reads it through tanh
    d = 4
    rng = np.random.default_rng(0)
    x = rng.normal(size=2)
    c0 = rng.normal(size=d)
    h, c = _lstm_step(np.zeros((3 * d, 2 + d)), np.zeros(3 * d), x,
                      rng.normal(size=d), c0)
    assert np.allclose(c, 0.5 * c0, atol=1e-15)
    assert np.allclose(h, 0.5 * np.tanh(0.5 * c0), atol=1e-15)


def test_lstm_forget_gate_is_one_minus_input_gate():
    d = 3
    rng = np.random.default_rng(1)
    x = rng.normal(size=2)
    h0, c0 = rng.normal(size=d), rng.normal(size=d)
    W = np.zeros((3 * d, 2 + d))
    # saturate the input gate open: cell becomes the candidate, history gone
    b_open = np.zeros(3 * d)
    b_open[:d] = 50.0
    _, c_open = _lstm_step(W, b_open, x, h0, c0)
    assert np.allclose(c_open, 0.0, atol=1e-12)
    # saturate it closed: cell is carried through untouched
    b_closed = np.zeros(3 * d)
    b_closed[:d] = -50.0
    _, c_closed = _lstm_step(W, b_closed, x, h0, c0)
    assert np.allclose(c_closed, c0, atol=1e-12)


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("attention", ["dot", "mlp"])
def test_encode_matches_oracle(attention):
    # each sentence alone, and all three as the ragged rows of one context
    params = tiny_model(attention=attention, seed=3)
    table = random_lexicon(np.random.default_rng(3), params.src_vocab_size,
                           params.tgt_vocab_size)
    sources = [(2,), (1, 4, 3), (5, 5, 0, 2)]
    block = _source_context(params, sources, table).runs[0]
    assert block.R.shape == (3, params.dec_hid, 4)
    for r, F in enumerate(sources):
        R_ref, init_ref = ref_encode(params, F)
        L = build_lexicon_matrix(F, table, params.tgt_vocab_size)
        alone = _source_context(params, [F], table).runs[0]
        assert alone.R.shape == (1, params.dec_hid, len(F))
        assert np.array_equal(alone.pad, np.zeros((1, len(F))))  # exact add
        for R, init in ((alone.R[0], alone.init_state[0]),
                        (block.R[r], block.init_state[r])):
            assert np.allclose(R[:, :len(F)], R_ref, rtol=1e-9, atol=1e-12)
            assert not R[:, len(F):].any()
            assert np.allclose(init, init_ref, rtol=1e-9, atol=1e-12)
        # the one-sentence context is row r of the three-sentence one
        assert np.allclose(alone.R[0], block.R[r, :, :len(F)], rtol=1e-9,
                           atol=1e-12)
        assert np.allclose(alone.init_state[0], block.init_state[r],
                           rtol=1e-9, atol=1e-12)
        assert np.array_equal(block.lexicon_matrix[r, :, :len(F)], L)
        assert not block.lexicon_matrix[r, :, len(F):].any()
        assert np.array_equal(alone.lexicon_matrix[0], L)


def test_encode_columns_are_backward_then_forward():
    # assemble the same columns by hand from single LSTM steps
    params = tiny_model(seed=4)
    t = params.tensors
    d = params.d_hid
    F = (2, 3, 1)
    xs = [t["src_emb"][f] for f in F]

    h, c = np.zeros(d), np.zeros(d)
    fwd = []
    for x in xs:
        h, c = _lstm_step(t["enc_fwd_W"], t["enc_fwd_b"], x, h, c)
        fwd.append(h)
    h, c = np.zeros(d), np.zeros(d)
    bwd = [None] * len(F)
    for j in reversed(range(len(F))):
        h, c = _lstm_step(t["enc_bwd_W"], t["enc_bwd_b"], xs[j], h, c)
        bwd[j] = h

    R = _source_context(params, [F], None).runs[0].R[0]
    for j in range(len(F)):
        assert np.allclose(R[:d, j], bwd[j], atol=1e-12)
        assert np.allclose(R[d:, j], fwd[j], atol=1e-12)


def test_encode_rejects_empty_source():
    for sources in ([()], [(1,), ()]):  # alone, and as a row of a block
        with pytest.raises(ValueError, match="empty sentence"):
            _encode_g(tiny_model(), sources)


@pytest.mark.parametrize("V, d", [(20, 32), (2000, 128)],
                         ids=["toy", "wide"])
@pytest.mark.parametrize("use_lexicon", [False, True],
                         ids=["no-lexicon", "lexicon"])
@pytest.mark.parametrize("attention", ["dot", "mlp"])
def test_one_pass_contexts_equal_each_sentence_encoded_alone(
        monkeypatch, attention, use_lexicon, V, d):
    # one encoder pass over a ragged list of sentences, each its own
    # one-row product, gives every sentence the context that encoding it
    # alone gives, bit for bit, for every member of an ensemble
    rng = np.random.default_rng(V + d + use_lexicon)
    models = [init_params(30, V, d_emb=d, d_hid=d, attention=attention,
                          use_lexicon=use_lexicon, seed=V + k, init_scale=0.3)
              for k in range(2)]
    table = random_lexicon(rng, 30, V) if use_lexicon else None
    lengths = (5, 1, 14, 5, 9, 1, 14, 3, 3, 12, 2, 7)
    sources = [tuple(int(f) for f in rng.integers(0, 30, n)) for n in lengths]
    # one stack of all the sentences, shortest first, whatever their size
    monkeypatch.setattr(model_mod, "STACK_BYTES", 1 << 40)
    (order, stacks), = _stacks(models, sources, 1, table)
    per_model = [stack.runs for stack in stacks]
    for params, runs in zip(models, per_model):
        # each sentence taken from its run, in stack order
        encs = [run.sentences(np.arange(len(run.lengths)) == j)
                for run in runs for j in range(len(run.lengths))]
        assert len(encs) == len(sources)
        assert sorted(order) == list(range(len(sources)))
        for i, enc in zip(order, encs):
            F = sources[i]
            alone = _source_context(params, [F], table).runs[0]
            for name in ("R", "init_state", "pad", "mlp_proj",
                         "lexicon_matrix"):
                got, want = getattr(enc, name), getattr(alone, name)
                assert (got is None) == (want is None), name
                assert got is None or np.array_equal(got, want), (
                    f"sentence {i} (length {len(F)}): its one-pass {name} "
                    "differs from encoding it alone, so stacked decode "
                    "would not be byte-identical to line-by-line search "
                    "and the MRT dev errors would not be those of "
                    "encoding each dev sentence alone")
    if use_lexicon:  # one L_F per run, shared by the members
        for a, b in zip(*per_model):
            assert np.shares_memory(a.lexicon_matrix, b.lexicon_matrix)


def test_init_decoder_state_zero_cell_and_context():
    params = tiny_model(seed=5)
    enc = _source_context(params, [(1, 2)], None)
    state = _init_state(enc)  # a one-row block
    assert state.hidden.shape == (1, params.dec_hid)
    assert np.array_equal(state.hidden, enc.init_state)
    assert not np.any(state.cell) and not np.any(state.context)


# ---------------------------------------------------------------------------
# attention
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("attention", ["dot", "mlp"])
def test_attend_matches_oracle(attention):
    params = tiny_model(attention=attention, seed=6)
    rng = np.random.default_rng(6)
    h = rng.normal(size=params.dec_hid)
    enc = _source_context(params, [(1, 4, 2, 3, 0)], None)
    run = enc.runs[0]
    a, ctx, *_ = _attend(params, h[None], enc)  # a one-row block
    a, ctx = a[0], ctx[0]
    R = run.R[0]
    assert a.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(a >= 0)
    assert np.allclose(a, ref_attention(params, h, R), rtol=1e-9, atol=1e-12)
    assert np.allclose(ctx, R @ a, atol=1e-12)


# ---------------------------------------------------------------------------
# decoder step and sentence score
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("attention", ["dot", "mlp"])
def test_decoder_step_matches_oracle(attention):
    params = tiny_model(attention=attention, seed=7)
    F = (1, 4, 2)
    start, step = graph_stepper(params, F)
    state = start()[0]
    R, h = ref_encode(params, F)
    c, ctx = np.zeros(params.dec_hid), np.zeros(params.dec_hid)
    prev = params.tgt_eos
    for word in [3, 1, 0]:
        state, probs = step(0, prev, state)
        h, c, ctx, probs_ref = ref_step_distribution(params, prev, h, c, ctx,
                                                     R)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(probs, probs_ref, rtol=1e-9, atol=1e-12)
        assert np.allclose(state.hidden, h, rtol=1e-9, atol=1e-12)
        assert np.allclose(state.cell, c, rtol=1e-9, atol=1e-12)
        assert np.allclose(state.context, ctx, rtol=1e-9, atol=1e-12)
        prev = word


def test_decoder_step_lexicon_bias_matches_oracle():
    params = tiny_model(seed=9, use_lexicon=True, epsilon=1e-6)
    rng = np.random.default_rng(9)
    table = random_lexicon(rng, params.src_vocab_size, params.tgt_vocab_size)
    F = (0, 3, 3)
    start, step = graph_stepper(params, F, table)
    _, probs = step(0, 2, start()[0])
    R, init = ref_encode(params, F)
    zero = np.zeros(params.dec_hid)
    ref_lex = {"F": F, "table": table.entries, "epsilon": params.epsilon}
    _, _, _, probs_ref = ref_step_distribution(params, 2, init, zero, zero, R,
                                               ref_lex)
    assert np.allclose(probs, probs_ref, rtol=1e-9, atol=1e-12)


def test_lexicon_bias_promotes_supported_tokens():
    params = tiny_model(seed=10)
    table = lexicon_table({4: {5: 1.0}})
    F = (4,)

    def first_step(lexicon):
        start, step = graph_stepper(params, F, lexicon)
        return step(0, params.tgt_eos, start()[0])[1]

    p_plain, p_bias = first_step(None), first_step(table)
    assert p_bias[5] > p_plain[5]
    assert p_bias[5] > 0.99  # everything else sits at the epsilon floor


def test_decoder_step_rejects_nonpositive_epsilon():
    # the bias is refused when the sentence's L_F is built, before any step;
    # nan and inf are refused too
    params = tiny_model(seed=11)
    table = lexicon_table({1: {1: 0.5}})
    for bad in (0.0, -1e-9, float("nan"), float("inf")):
        params.epsilon = bad
        with pytest.raises(ValueError, match="epsilon > 0"):
            graph_stepper(params, (1,), table)


@pytest.mark.parametrize("attention, V, d", [("dot", 20, 32), ("mlp", 20, 32),
                                             ("mlp", 2000, 128)],
                         ids=["toy-dot", "toy-mlp", "wide-mlp"])
def test_block_rows_are_batch_invariant(attention, V, d):
    # the premise of every search == contract: a row of a block step gets
    # the same bits at any position and next to any other rows
    rng = np.random.default_rng(V + d)
    params = init_params(30, V, d_emb=d, d_hid=d, attention=attention,
                         use_lexicon=True, seed=V, init_scale=0.3)
    F = tuple(int(f) for f in rng.integers(0, 30, 9))
    enc = _source_context(params, [F], random_lexicon(rng, 30, V))
    n = 2 * BLOCK_ROWS
    prev = rng.integers(0, V, n)
    state = DecoderState(*rng.uniform(-1, 1, (3, n, params.dec_hid)))
    alone = [_block_step(params, prev[[r]], state, [r], enc)
             for r in range(n)]
    for shift in range(BLOCK_ROWS):
        rows = np.roll(np.arange(n), shift)
        block, step = _block_step(params, prev[rows], state, rows, enc)
        for at, r in enumerate(rows):
            got = (block.hidden[at], block.cell[at], block.context[at],
                   step.probs[at])
            want = (alone[r][0].hidden[0], alone[r][0].cell[0],
                    alone[r][0].context[0], alone[r][1].probs[0])
            assert all(map(np.array_equal, got, want)), (
                f"row {r} at block position {at % BLOCK_ROWS} differs from "
                f"the same row stepped alone: on this BLAS a row of a "
                f"{BLOCK_ROWS}-row product depends on its position or on the "
                "other rows, so the search == contracts (exhaustive search, "
                "search score == teacher-forced score, ensemble identity) "
                "cannot hold")


@pytest.mark.parametrize("attention, use_lexicon, V, d", [
    ("dot", False, 20, 32), ("dot", True, 20, 32), ("mlp", False, 20, 32),
    ("mlp", True, 20, 32), ("mlp", True, 2000, 128), ("dot", False, 2000, 128)],
    ids=["toy-dot", "toy-dot-lexicon", "toy-mlp", "toy-mlp-lexicon",
         "wide-mlp-lexicon", "wide-dot"])
def test_stacked_blocks_equal_blocks_stepped_alone(monkeypatch, attention,
                                                   use_lexicon, V, d):
    # the premise of stacked search: each block of a stack, whichever
    # sentence it reads, whatever the source lengths of the stack and
    # whatever blocks stand beside it, gets the bits it gets when stepped
    # alone against that sentence's own context
    rng = np.random.default_rng(V + d + use_lexicon)
    params = init_params(30, V, d_emb=d, d_hid=d, attention=attention,
                         use_lexicon=use_lexicon, seed=V, init_scale=0.3)
    table = random_lexicon(rng, 30, V) if use_lexicon else None
    held = 16  # state rows per sentence
    monkeypatch.setattr(model_mod, "STACK_BYTES", 1 << 40)  # one stack
    # (source lengths of the stack, rows per sentence): one length; runs of
    # three lengths with a one-sentence run in one block; runs of two
    # lengths with a one-sentence run whose 13 rows fill two blocks; one
    # row of each of four runs in one block; five rows of a one-sentence
    # run and three of the next run's in one block; two sentences of five
    # rows, which packing would not save a block for
    for lengths, B in [((7, 7, 7), 13), ((3, 3, 6, 9, 9), 5),
                       ((4, 8, 8), 13), ((2, 5, 5, 8, 11), 1),
                       ((4, 9, 9), 5), ((6, 10), 5)]:
        S, per = len(lengths), -(-B // BLOCK_ROWS)  # blocks per sentence
        # a stack's rows are packed where that saves a block
        P = B if -(-S * B // BLOCK_ROWS) < S * per else per * BLOCK_ROWS
        sources = [tuple(int(f) for f in rng.integers(0, 30, n))
                   for n in lengths]
        encs = [_source_context(params, [F], table) for F in sources]
        (_, (stack,)), = _stacks([params], sources, B, table)  # sorted
        assert len(stack.runs) == len(set(lengths))
        prev = rng.integers(0, V, (S, B))
        rows = rng.integers(0, held, (S, B))
        state = DecoderState(*rng.uniform(-1, 1, (3, S * held,
                                                  params.dec_hid)))
        block, step = _block_step(params, prev, state, rows + np.arange(
            0, S * held, held)[:, None], stack)  # sentence s's held rows
        assert len(block.hidden) == len(step.probs) == S * P
        pad = np.arange(per * BLOCK_ROWS) % B
        for s in range(S):
            own = state.take(slice(s * held, (s + 1) * held))
            for k in range(per):
                at = pad[k * BLOCK_ROWS:(k + 1) * BLOCK_ROWS]
                alone, alone_step = _block_step(params, prev[s, at], own,
                                                rows[s, at], encs[s])
                got = slice(P * s + k * BLOCK_ROWS,
                            P * s + min((k + 1) * BLOCK_ROWS, P))
                n = got.stop - got.start  # the block's rows in the stack
                pairs = [(block.hidden[got], alone.hidden[:n]),
                         (block.cell[got], alone.cell[:n]),
                         (block.context[got], alone.context[:n]),
                         (step.probs[got], alone_step.probs[:n])]
                assert all(np.array_equal(x, y) for x, y in pairs), (
                    f"block {k} of sentence {s} in a stack of {per * S} "
                    f"blocks with source lengths {lengths} differs from the "
                    "same block stepped alone: numpy or the BLAS computes a "
                    "stacked product unlike one product per block, so the "
                    "decode-identity contract (beam_search_all == beam_search "
                    "of each line alone, decode output == line-by-line "
                    "search), search score == sentence_logprob and MRT "
                    "scoring == sampling cannot hold")


def test_packed_mlp_attention_runs_on_the_live_rows(monkeypatch):
    # a count, not a clock: a packed step of two runs of 5 sentences with 5
    # rows each takes the MLP attention's tanh over each run's S * B = 25
    # live rows, not over S blocks of BLOCK_ROWS rows (40)
    rng = np.random.default_rng(29)
    params = init_params(30, 20, d_emb=16, d_hid=16, attention="mlp",
                         attn_dim=12, use_lexicon=True, seed=29,
                         init_scale=0.3)
    table = random_lexicon(rng, 30, 20)
    sources = [tuple(int(f) for f in rng.integers(0, 30, n))
               for n in (4,) * 5 + (7,) * 5]
    S, B = len(sources), 5
    monkeypatch.setattr(model_mod, "STACK_BYTES", 1 << 40)  # one stack
    (_, (stack,)), = _stacks([params], sources, B, table)
    assert len(stack.runs) == 2 and -(-S * B // BLOCK_ROWS) < S  # packed
    state = DecoderState(*rng.uniform(-1, 1, (3, S, params.dec_hid)))
    prev = rng.integers(0, 20, (S, B))
    rows = np.repeat(np.arange(S), B).reshape(S, B)
    covered, tanh = [], np.tanh

    def spy(x, *args, **kwargs):
        if x.ndim > 2 and x.shape[-2] == params.attn_dim:  # (..., a, n)
            covered.append((x.shape[-1], x.size // (x.shape[-2] * x.shape[-1])))
        return tanh(x, *args, **kwargs)
    monkeypatch.setattr(np, "tanh", spy)
    _, step = _block_step(params, prev, state, rows, stack)
    monkeypatch.undo()
    assert len(step.probs) == S * B
    # (source length, rows) of each run's tanh
    assert covered == [(4, 5 * B), (7, 5 * B)]


@pytest.mark.parametrize("a", [12, 32, 128])
def test_stacked_score_matvec_gives_each_item_its_own_bits(a):
    # MLP attention scores all rows of a run with one stacked matvec
    # m.swapaxes(-1, -2) @ attn_w2, over as many items as the run has rows
    # in the step: each item must get the bits of its matvec alone
    params = init_params(30, 20, d_emb=16, d_hid=16, attention="mlp",
                         attn_dim=a, seed=a, init_scale=0.3)
    w2 = params.tensors["attn_w2"]
    rng = np.random.default_rng(a)
    for n in (1, 3, 8, 13, 33):
        for items in range(1, 41):
            m = np.tanh(rng.uniform(-2, 2, (items, a, n)))
            stacked = m.swapaxes(-1, -2) @ w2
            for i in range(items):
                assert np.array_equal(stacked[i], m[i].swapaxes(-1, -2) @ w2), (
                    f"item {i} of {items} stacked (a = {a}, n = {n}) differs "
                    "from its matvec alone: on this numpy and BLAS a row's "
                    "MLP attention scores depend on the rows stepped beside "
                    "it, so the decode-identity contract (beam_search_all == "
                    "beam_search of each line alone, decode output == "
                    "line-by-line search; ROADMAP item 6) cannot hold")


def _stacked_weights(V, d):
    """The 2-D weights a stack of blocks multiplies by (:func:`_product`), as
    the decoder step reads them: the MLP attention's h-part a column slice."""
    params = init_params(30, V, d_emb=d, d_hid=d, attention="mlp",
                         use_lexicon=True, seed=V, init_scale=0.3)
    t = params.tensors
    return [t["dec_W"], t["out_W"], t["softmax_W"],
            t["attn_W1"][:, :params.dec_hid]]


@pytest.mark.parametrize("V, d", [(20, 32), (2000, 128)], ids=["toy", "wide"])
def test_flat_product_check_is_never_optimistic(V, d):
    # a stack's blocks take one flat product only where the running BLAS
    # keeps every row's bits: each product shape the check accepts does so
    # in fresh trials, and any stack gets one product per block's bits
    rng = np.random.default_rng(V + d)
    for W in _stacked_weights(V, d):
        n, k = W.shape
        for blocks in range(2, model_mod.FLAT_BLOCKS + 1):
            rows = blocks * BLOCK_ROWS
            if not model_mod._keeps_rows(rows, n, k):
                continue
            for _ in range(20):
                x = rng.uniform(-1, 1, (blocks, BLOCK_ROWS, k))
                flat = x.reshape(rows, k) @ W.T
                assert np.array_equal(flat.reshape(blocks, BLOCK_ROWS, n),
                                      x @ W.T), (
                    f"the check accepted {rows}-row products against a "
                    f"({n}, {k}) weight, but one changed a row's bits")
        for K in range(1, 2 * model_mod.FLAT_BLOCKS + 2):
            x = rng.uniform(-1, 1, (K, BLOCK_ROWS, k))
            assert np.array_equal(_product(x, W), x @ W.T)


def test_refused_product_shapes_keep_one_product_per_block(monkeypatch):
    # where the check refuses a shape, a stack takes one product per block
    shapes, matmul = [], np.matmul

    def spy(a, b, **kwargs):
        shapes.append(a.shape)
        return matmul(a, b, **kwargs)
    monkeypatch.setattr(model_mod, "_keeps_rows", lambda *key: False)
    monkeypatch.setattr(np, "matmul", spy)
    rng = np.random.default_rng(5)
    for W in _stacked_weights(20, 32):
        for K in range(2, 2 * model_mod.FLAT_BLOCKS + 2):
            x = rng.uniform(-1, 1, (K, BLOCK_ROWS, W.shape[1]))
            assert np.array_equal(_product(x, W), x @ W.T)
    assert shapes and all(s[-2] == BLOCK_ROWS for s in shapes)


@pytest.mark.parametrize("attention", ["dot", "mlp"])
def test_sentence_logprob_matches_oracle(attention):
    params = tiny_model(attention=attention, seed=12)
    F = (1, 2, 5)
    E = (3, 6, 1, params.tgt_eos)
    got = sentence_logprob(params, F, E)
    assert got == pytest.approx(ref_sentence_logprob(params, F, E), rel=1e-9)
    assert got < 0.0


def test_sentence_logprob_with_lexicon_matches_oracle():
    params = tiny_model(seed=13, use_lexicon=True)
    rng = np.random.default_rng(13)
    table = random_lexicon(rng, params.src_vocab_size, params.tgt_vocab_size)
    F = (2, 4)
    E = (1, 5, params.tgt_eos)
    got = sentence_logprob(params, F, E, lexicon=table)
    ref_lex = {"F": F, "table": table.entries, "epsilon": params.epsilon}
    assert got == pytest.approx(
        ref_sentence_logprob(params, F, E, ref_lex), rel=1e-9)


def test_sentence_logprob_requires_terminal_eos():
    params = tiny_model(seed=14)
    with pytest.raises(ValueError, match="sentence-end"):
        sentence_logprob(params, (1, 2), (3, 4))
    with pytest.raises(ValueError, match="sentence-end"):
        sentence_logprob(params, (1, 2), ())


@pytest.mark.parametrize("which", ["minus-one", "vocab-size"])
@pytest.mark.parametrize("entry", ["sentence_logprob", "mrt_loss_frozen",
                                   "decoder_step"])
def test_target_ids_outside_vocabulary_are_rejected(entry, which):
    # -1 would silently read the last embedding row and V would raise an
    # IndexError deep in the step; both are refused up front
    params = tiny_model(seed=22)
    eos = params.tgt_eos
    bad = {"minus-one": -1, "vocab-size": params.tgt_vocab_size}[which]
    F = (1, 2)
    with pytest.raises(ValueError, match="outside vocabulary"):
        if entry == "sentence_logprob":
            sentence_logprob(params, F, (bad, eos))
        elif entry == "mrt_loss_frozen":
            mrt_loss_frozen(params, F, (3,), [(bad, eos)], alpha=1.0)
        else:  # the teacher-forced decoder steps behind every scorer
            _teacher_forced(params, _source_context(params, [F], None),
                            [(bad, eos)])


@pytest.mark.parametrize("which", ["minus-one", "vocab-size"])
@pytest.mark.parametrize("entry", ["beam_search", "sentence_logprob"])
def test_source_ids_outside_vocabulary_are_rejected(entry, which):
    # the encoder refuses them before any embedding lookup: -1 would read
    # the last source embedding row, V would raise an IndexError
    params = tiny_model(seed=23)
    bad = {"minus-one": -1, "vocab-size": params.src_vocab_size}[which]
    F = (1, bad, 2)
    with pytest.raises(ValueError, match=f"source id {bad} outside vocabulary"):
        if entry == "beam_search":
            beam_search(params, F)
        else:
            sentence_logprob(params, F, (3, params.tgt_eos))


def test_lexicon_model_requires_table():
    params = tiny_model(seed=15, use_lexicon=True)
    with pytest.raises(ValueError, match="lexicon table is required"):
        sentence_logprob(params, (1,), (2, params.tgt_eos))


def test_ensemble_of_identical_models_is_the_single_model():
    params = tiny_model(seed=16)
    F, E = (1, 3), (2, 4, params.tgt_eos)
    single = sentence_logprob(params, F, E)
    pair = sentence_logprob([params, params.copy()], F, E)
    assert pair == single  # (p + p) / 2 is exact in binary floating point


def test_ensemble_averages_per_step_probabilities():
    a = tiny_model(seed=17)
    b = tiny_model(seed=18)
    F, E = (2,), (1, a.tgt_eos)
    got = sentence_logprob([a, b], F, E)

    def step_probs(m):
        start, step = graph_stepper(m, F)
        st, p1 = step(0, m.tgt_eos, start()[0])
        _, p2 = step(0, E[0], st)
        return p1, p2

    pa, pb = step_probs(a), step_probs(b)
    want = (np.log((pa[0][E[0]] + pb[0][E[0]]) / 2)
            + np.log((pa[1][E[1]] + pb[1][E[1]]) / 2))
    assert got == pytest.approx(want, rel=1e-12)


def test_lexicon_ensemble_sentence_logprob_builds_l_f_once(monkeypatch):
    # the members share the target vocabulary, so they read one L_F of the
    # line: one build for the ensemble, not one per member
    a = tiny_model(seed=23, use_lexicon=True)
    b = tiny_model(seed=24, use_lexicon=True)
    table = random_lexicon(np.random.default_rng(23), a.src_vocab_size,
                           a.tgt_vocab_size)
    builds = count_calls(monkeypatch, model_mod, "build_lexicon_matrix")
    F, E = (2, 4, 1), (1, 5, a.tgt_eos)
    assert math.isfinite(sentence_logprob([a, b], F, E, lexicon=table))
    assert [tuple(F_built) for F_built, *_ in builds] == [F]


def test_ensemble_requires_shared_target_vocab():
    a = tiny_model(seed=19)
    b = init_params(6, 9, d_emb=3, d_hid=3, seed=19)
    with pytest.raises(ValueError, match="target vocabulary"):
        sentence_logprob([a, b], (1,), (2, 0))


# ---------------------------------------------------------------------------
# lexicon matrix construction
# ---------------------------------------------------------------------------

def test_build_lexicon_matrix_layout():
    table = lexicon_table({3: {1: 0.7, 2: 0.2}, 9: {0: 1.0}})
    L = build_lexicon_matrix((3, 5, 3), table, 6)
    assert isinstance(L, np.ndarray) and L.dtype == np.float64
    assert L.shape == (6, 3)
    col = np.zeros(6)
    col[1], col[2] = 0.7, 0.2
    assert np.array_equal(L[:, 0], col)
    assert not L[:, 1].any()  # source word 5 has no entry
    assert np.array_equal(L[:, 2], col)  # repeated word, repeated column
    for bad in (6, -1):
        with pytest.raises(ValueError, match="outside the target vocabulary"):
            build_lexicon_matrix((3,), lexicon_table({3: {bad: 0.5}}), 6)


# ---------------------------------------------------------------------------
# parameters and checkpoints
# ---------------------------------------------------------------------------

def test_init_params_shapes_and_determinism():
    params = tiny_model(attention="mlp", seed=20)
    shapes = expected_shapes(params)
    assert set(params.tensors) == set(shapes)
    for name, shape in shapes.items():
        assert params.tensors[name].shape == shape
    again = tiny_model(attention="mlp", seed=20)
    for name in params.tensors:
        assert np.array_equal(params.tensors[name], again.tensors[name])
    other = tiny_model(attention="mlp", seed=21)
    assert not np.array_equal(params.tensors["dec_W"], other.tensors["dec_W"])


@pytest.mark.parametrize("hyper", [
    {"d_emb": 0}, {"d_hid": 0}, {"d_hid": -1}, {"attn_dim": 0},
    {"epsilon": float("nan")}, {"epsilon": float("inf")}])
def test_init_params_refuses_models_no_checkpoint_should_hold(hyper):
    # a zero width trains and decodes nothing, and a non-finite epsilon
    # saves a checkpoint that load_checkpoint refuses
    with pytest.raises(ValueError, match="d_emb, d_hid and attn_dim|epsilon"):
        init_params(4, 4, **{"d_emb": 2, "d_hid": 2, "attention": "mlp",
                             **hyper})


def test_a_target_vocabulary_of_one_word_is_refused():
    # its one word is the sentence end, so search and sampling have no word
    # to choose; no vocabulary file yields it, since <s> and <unk> are in
    # every vocabulary
    with pytest.raises(ValueError, match="tgt_vocab_size must be >= 2"):
        init_params(5, 1, d_emb=3, d_hid=3, seed=1)
    with pytest.raises(DataError, match="tgt_vocab_size must be >= 2"):
        replace(tiny_model(), tgt_vocab_size=1)
    # two words are enough: each beam row has one child
    hyp = beam_search(init_params(5, 2, d_emb=3, d_hid=3, seed=1), (1, 2),
                      beam_size=3, max_len=4)
    assert hyp.tokens[-1] == 0 and len(hyp.tokens) <= 4


def test_dot_attention_has_no_attention_tensors():
    params = tiny_model(attention="dot")
    assert "attn_W1" not in params.tensors
    assert "attn_w2" not in params.tensors


def test_params_validation():
    with pytest.raises(ValueError, match="unknown attention"):
        init_params(4, 4, d_emb=2, d_hid=2, attention="bilinear")
    good = tiny_model(seed=22)
    broken = {k: v.copy() for k, v in good.tensors.items()}
    broken["dec_b"] = np.zeros(1)
    with pytest.raises(DataError, match="dec_b"):
        ModelParams(tensors=broken, **good.hyper_dict())
    missing = {k: v.copy() for k, v in good.tensors.items()}
    del missing["out_W"]
    with pytest.raises(DataError, match="out_W"):
        ModelParams(tensors=missing, **good.hyper_dict())


def test_copy_is_deep():
    params = tiny_model(seed=23)
    clone = params.copy()
    clone.tensors["dec_b"][0] += 1.0
    assert params.tensors["dec_b"][0] != clone.tensors["dec_b"][0]


def _vocabs(params):
    src = Vocabulary(["<s>", "<unk>"] + [f"s{i}" for i in
                                         range(params.src_vocab_size - 2)])
    tgt = Vocabulary(["<s>", "<unk>"] + [f"t{i}" for i in
                                         range(params.tgt_vocab_size - 2)])
    return src, tgt


def test_a_model_and_its_reload_clip_alike(tmp_path):
    # the tensors iterate in buffer (checkpoint) order however they were
    # made, so gradient_norm adds the per-tensor sums of a fresh model and
    # of its reload in one order, and a training step clips them alike
    rng = np.random.default_rng(29)
    for seed in range(20):
        fresh = init_params(20, 20, d_emb=16, d_hid=16, attention="mlp",
                            seed=seed)
        save_checkpoint(tmp_path / "model.ckpt", fresh, *_vocabs(fresh))
        loaded, _, _ = load_checkpoint(tmp_path / "model.ckpt")
        assert list(fresh.tensors) == list(loaded.tensors)
        batch = [SentencePair(*(tuple(int(x) for x in rng.integers(
            0, 20, rng.integers(1, 6))) for _ in range(2)))
            for _ in range(6)]
        (_, got), (_, want) = nll_loss(loaded, batch), nll_loss(fresh, batch)
        assert np.array_equal(got.buffer, want.buffer)
        assert gradient_norm(got) == gradient_norm(want), seed


def test_both_walks_teacher_force_a_context_of_several_sentences():
    # on a training stack of two sentences, row r of either walk reads
    # sentence r and walks to its own targets: the deferred walk of
    # maximum likelihood and the padded walk, whose rows read only their
    # own sentence's share of the targets
    params = tiny_model(seed=3)
    enc = _source_context(params, [(1, 2), (3, 4, 5)], None)
    targets = [(2, params.tgt_eos), (3, 4, params.tgt_eos)]
    deferred = _lockstep(params, enc, targets)
    padded = _teacher_forced(params, enc, targets)
    assert deferred.words == padded.words == targets
    assert _logprobs(padded) == pytest.approx(_logprobs(deferred), rel=1e-12)
    with pytest.raises(ValueError, match="as many targets"):
        _teacher_forced(params, enc, targets + [(2, params.tgt_eos)])


def test_checkpoint_round_trip(tmp_path):
    params = tiny_model(attention="mlp", seed=24, use_lexicon=True,
                        epsilon=1e-5)
    src, tgt = _vocabs(params)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, src, tgt)
    loaded, src2, tgt2 = load_checkpoint(path)
    assert loaded.hyper_dict() == params.hyper_dict()
    assert src2.tokens == src.tokens and tgt2.tokens == tgt.tokens
    for name, value in params.tensors.items():
        assert np.array_equal(loaded.tensors[name], value)


def test_checkpoint_bytes_are_deterministic(tmp_path):
    params = tiny_model(seed=25)
    src, tgt = _vocabs(params)
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, params, src, tgt)
    save_checkpoint(p2, params.copy(), src, tgt)
    assert p1.read_bytes() == p2.read_bytes()


def test_failed_checkpoint_write_keeps_the_previous_file(tmp_path,
                                                        monkeypatch):
    # the tensor data fails after the header is written: the checkpoint
    # already there stays byte for byte, and no partial file is left
    params = tiny_model(seed=27)
    src, tgt = _vocabs(params)
    path = tmp_path / "best.ckpt"
    save_checkpoint(path, params, src, tgt)
    before = path.read_bytes()

    class CutShort(io.FileIO):
        writes = 0

        def write(self, data):  # the header goes through, the data fails
            self.writes += 1
            if self.writes > 1:
                raise RuntimeError("write cut short")
            return super().write(data)

    monkeypatch.setattr(model_mod, "open", CutShort, raising=False)
    with pytest.raises(RuntimeError, match="write cut short"):
        save_checkpoint(path, params.copy(), src, tgt)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["best.ckpt"]


def test_tensors_refuse_rebinding():
    # a rebound tensor would leave the buffer that copies, saves and the
    # optimizer read; writing into a tensor, `+=` included, stays in it
    params = tiny_model(seed=28)
    t = params.tensors
    for change in (lambda: t.__setitem__("dec_b", np.ones_like(t["dec_b"])),
                   lambda: t.__setitem__("extra", np.ones(2)),
                   lambda: t.__delitem__("dec_b"), lambda: t.pop("dec_b"),
                   lambda: t.update(dec_b=np.ones(2)), t.clear):
        with pytest.raises(TypeError, match="not rebound"):
            change()
    assert list(t) == sorted(expected_shapes(params))
    params.tensors["dec_b"] += 1.0
    assert np.shares_memory(params.tensors["dec_b"], params.tensors.buffer)
    assert params.tensors["dec_b"].all()


def test_checkpoint_corruption_errors(tmp_path):
    params = tiny_model(seed=26)
    src, tgt = _vocabs(params)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, src, tgt)
    raw = path.read_bytes()

    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(raw[:-8])
    with pytest.raises(DataError, match="truncated"):
        load_checkpoint(bad)
    bad.write_bytes(raw + b"xx")
    with pytest.raises(DataError, match="trailing bytes"):
        load_checkpoint(bad)
    bad.write_bytes(b"garbage" + raw)
    with pytest.raises(DataError, match="bad magic"):
        load_checkpoint(bad)
    with pytest.raises(DataError, match="cannot read"):
        load_checkpoint(tmp_path / "missing.ckpt")

    # a header that names a tensor twice, or out of sorted order, would
    # load a tensor from the wrong block of the buffer
    head, data = raw.split(b"\n", 2)[1:]
    entries = json.loads(head)["tensors"]
    out_b = next(t for t in entries if t["name"] == "out_b")
    for tensors, extra in ((entries + [out_b], [7.0] * out_b["shape"][0]),
                           (entries[::-1], [])):
        header = {**json.loads(head), "tensors": tensors}
        bad.write_bytes(model_mod._CHECKPOINT_MAGIC + json.dumps(header).encode()
                        + b"\n" + data + np.array(extra, "<f8").tobytes())
        with pytest.raises(DataError, match=re.escape(f"{bad}: tensor entries "
                           "must name each tensor once, in sorted order")):
            load_checkpoint(bad)


def test_checkpoint_load_reads_tensors_outside_the_heap(tmp_path):
    # the tensor data goes straight from the file into one mapping: a load
    # allocates no heap buffer of the file or of the tensors, and the
    # tensors it returns can be trained in place
    params = tiny_model(src_size=400, tgt_size=500, d=32, attention="mlp",
                        use_lexicon=True)
    src, tgt = _vocabs(params)
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, src, tgt)
    tensor_bytes = sum(v.nbytes for v in params.tensors.values())
    tracemalloc.start()
    try:
        loaded = load_checkpoint(path)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * tensor_bytes
    for name, value in loaded.tensors.items():
        assert value.flags.writeable and value.flags.c_contiguous
        value += 1.0
        assert np.array_equal(value, params.tensors[name] + 1.0)
