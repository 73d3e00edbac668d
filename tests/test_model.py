"""Encoder, attention, decoder step, ensembles, and checkpoint tests."""

import numpy as np
import pytest

from lexnmt.align import LexiconTable
from lexnmt.corpus import Vocabulary
from lexnmt.errors import DataError
from lexnmt.model import (ModelParams, build_lexicon_matrix, decoder_step,
                          encode, attend, expected_shapes, init_decoder_state,
                          init_params, load_checkpoint, lstm_step,
                          save_checkpoint, sentence_logprob)
from lexnmt.train import mrt_loss_frozen

from helpers import random_lexicon, tiny_model
from oracles import (ref_attention, ref_encode, ref_sentence_logprob,
                     ref_step_distribution)


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
    h, c = lstm_step(x, (rng.normal(size=d), c0),
                     np.zeros((3 * d, 2 + d)), np.zeros(3 * d))
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
    _, c_open = lstm_step(x, (h0, c0), W, b_open)
    assert np.allclose(c_open, 0.0, atol=1e-12)
    # saturate it closed: cell is carried through untouched
    b_closed = np.zeros(3 * d)
    b_closed[:d] = -50.0
    _, c_closed = lstm_step(x, (h0, c0), W, b_closed)
    assert np.allclose(c_closed, c0, atol=1e-12)


def test_lstm_shape_validation():
    with pytest.raises(ValueError, match="dimension mismatch"):
        lstm_step(np.zeros(2), (np.zeros(3), np.zeros(3)),
                  np.zeros((9, 6)), np.zeros(9))


# ---------------------------------------------------------------------------
# encoder
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("attention", ["dot", "mlp"])
def test_encode_matches_oracle(attention):
    params = tiny_model(attention=attention, seed=3)
    for F in [(2,), (1, 4, 3), (5, 5, 0, 2)]:
        enc = encode(F, params)
        R_ref, init_ref = ref_encode(params, F)
        assert enc.R.shape == (params.dec_hid, len(F))
        assert np.allclose(enc.R, R_ref, rtol=1e-9, atol=1e-12)
        assert np.allclose(enc.init_state, init_ref, rtol=1e-9, atol=1e-12)


def test_encode_columns_are_backward_then_forward():
    # assemble the same columns by hand from raw lstm_step calls
    params = tiny_model(seed=4)
    t = params.tensors
    d = params.d_hid
    F = (2, 3, 1)
    xs = [t["src_emb"][f] for f in F]

    h, c = np.zeros(d), np.zeros(d)
    fwd = []
    for x in xs:
        h, c = lstm_step(x, (h, c), t["enc_fwd_W"], t["enc_fwd_b"])
        fwd.append(h)
    h, c = np.zeros(d), np.zeros(d)
    bwd = [None] * len(F)
    for j in reversed(range(len(F))):
        h, c = lstm_step(xs[j], (h, c), t["enc_bwd_W"], t["enc_bwd_b"])
        bwd[j] = h

    enc = encode(F, params)
    for j in range(len(F)):
        assert np.allclose(enc.R[:d, j], bwd[j], atol=1e-12)
        assert np.allclose(enc.R[d:, j], fwd[j], atol=1e-12)


def test_encode_rejects_empty_source():
    with pytest.raises(ValueError):
        encode((), tiny_model())


def test_init_decoder_state_zero_cell_and_context():
    params = tiny_model(seed=5)
    enc = encode((1, 2), params)
    state = init_decoder_state(enc, params)
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
    R = rng.normal(size=(params.dec_hid, 5))
    a, ctx = attend(h, R, attention, params)
    assert a.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(a >= 0)
    assert np.allclose(a, ref_attention(params, h, R), rtol=1e-9, atol=1e-12)
    assert np.allclose(ctx, R @ a, atol=1e-12)


def test_attend_validation():
    params = tiny_model()
    h = np.zeros(params.dec_hid)
    with pytest.raises(ValueError, match="unknown attention"):
        attend(h, np.zeros((params.dec_hid, 2)), "bilinear", params)
    with pytest.raises(ValueError):
        attend(h, np.zeros((params.dec_hid, 0)), "dot", params)
    with pytest.raises(ValueError, match="dimension mismatch"):
        attend(np.zeros(3), np.zeros((4, 2)), "dot", params)


# ---------------------------------------------------------------------------
# decoder step and sentence score
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("attention", ["dot", "mlp"])
def test_decoder_step_matches_oracle(attention):
    params = tiny_model(attention=attention, seed=7)
    F = (1, 4, 2)
    enc = encode(F, params)
    state = init_decoder_state(enc, params)
    h, c, ctx = state.hidden, state.cell, state.context
    prev = params.tgt_eos
    for word in [3, 1, 0]:
        state, probs = decoder_step(prev, state, enc, params)
        h, c, ctx, probs_ref = ref_step_distribution(params, prev, h, c, ctx,
                                                     enc.R)
        assert probs.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(probs, probs_ref, rtol=1e-9, atol=1e-12)
        assert np.allclose(state.hidden, h, rtol=1e-9, atol=1e-12)
        assert np.allclose(state.cell, c, rtol=1e-9, atol=1e-12)
        assert np.allclose(state.context, ctx, rtol=1e-9, atol=1e-12)
        prev = word


@pytest.mark.parametrize("attention,use_lexicon",
                         [("dot", False), ("mlp", False), ("mlp", True)],
                         ids=["dot", "mlp", "mlp-lexicon"])
def test_decoder_step_accepts_raw_matrix(attention, use_lexicon):
    params = tiny_model(attention=attention, seed=8)
    F = (2, 3)
    table = random_lexicon(np.random.default_rng(8), params.src_vocab_size,
                           params.tgt_vocab_size)
    L = (build_lexicon_matrix(F, table, params.tgt_vocab_size)
         if use_lexicon else None)
    enc = encode(F, params)
    state = init_decoder_state(enc, params)
    s1, p1 = decoder_step(1, state, enc, params, lexicon=L)
    s2, p2 = decoder_step(1, state, enc.R, params, lexicon=L)
    assert np.array_equal(p1, p2)
    assert np.array_equal(s1.hidden, s2.hidden)
    assert np.array_equal(s1.context, s2.context)


def test_decoder_step_lexicon_bias_matches_oracle():
    params = tiny_model(seed=9, use_lexicon=True, epsilon=1e-6)
    rng = np.random.default_rng(9)
    table = random_lexicon(rng, params.src_vocab_size, params.tgt_vocab_size)
    F = (0, 3, 3)
    L = build_lexicon_matrix(F, table, params.tgt_vocab_size)
    enc = encode(F, params)
    state = init_decoder_state(enc, params)
    _, probs = decoder_step(2, state, enc, params, lexicon=L)
    ref_lex = {"F": F, "table": table.entries, "epsilon": params.epsilon}
    _, _, _, probs_ref = ref_step_distribution(
        params, 2, state.hidden, state.cell, state.context, enc.R, ref_lex)
    assert np.allclose(probs, probs_ref, rtol=1e-9, atol=1e-12)


def test_lexicon_bias_promotes_supported_tokens():
    params = tiny_model(seed=10)
    table = LexiconTable({4: {5: 1.0}})
    F = (4,)
    L = build_lexicon_matrix(F, table, params.tgt_vocab_size)
    enc = encode(F, params)
    state = init_decoder_state(enc, params)
    _, p_plain = decoder_step(params.tgt_eos, state, enc, params)
    _, p_bias = decoder_step(params.tgt_eos, state, enc, params, lexicon=L)
    assert p_bias[5] > p_plain[5]
    assert p_bias[5] > 0.99  # everything else sits at the epsilon floor


def test_decoder_step_rejects_nonpositive_epsilon():
    params = tiny_model(seed=11)
    L = build_lexicon_matrix((1,), LexiconTable({1: {1: 0.5}}),
                             params.tgt_vocab_size)
    enc = encode((1,), params)
    state = init_decoder_state(enc, params)
    for bad in (0.0, -1e-9):
        params.epsilon = bad
        with pytest.raises(ValueError, match="epsilon > 0"):
            decoder_step(0, state, enc, params, lexicon=L)


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
        else:
            enc = encode(F, params)
            decoder_step(bad, init_decoder_state(enc, params), enc, params)


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
        enc = encode(F, m)
        st = init_decoder_state(enc, m)
        st, p1 = decoder_step(m.tgt_eos, st, enc, m)
        _, p2 = decoder_step(E[0], st, enc, m)
        return p1, p2

    pa, pb = step_probs(a), step_probs(b)
    want = (np.log((pa[0][E[0]] + pb[0][E[0]]) / 2)
            + np.log((pa[1][E[1]] + pb[1][E[1]]) / 2))
    assert got == pytest.approx(want, rel=1e-12)


def test_ensemble_requires_shared_target_vocab():
    a = tiny_model(seed=19)
    b = init_params(6, 9, d_emb=3, d_hid=3, seed=19)
    with pytest.raises(ValueError, match="target vocabulary"):
        sentence_logprob([a, b], (1,), (2, 0))


# ---------------------------------------------------------------------------
# lexicon matrix construction
# ---------------------------------------------------------------------------

def test_build_lexicon_matrix_layout():
    table = LexiconTable({3: {1: 0.7, 2: 0.2}, 9: {0: 1.0}})
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
            build_lexicon_matrix((3,), LexiconTable({3: {bad: 0.5}}), 6)


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
