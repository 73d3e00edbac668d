"""Structural checks of the model's hand-derived reverse mode.

``model._backward`` adds the gradient of sum_s seeds[s] * log p(E_s | F) for
teacher-forced target sequences scored against a training stack (one padded
run of source sentences); the finite-difference checks here cover every
coordinate of a tensor slice behind one forward operation, those in
``test_train.py`` and ``test_acceptance.py`` sample every tensor.  The other tests pin how the
backward accumulates, where it scatters, and the step's softmax and
log-softmax.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lexnmt.model as model_mod
from lexnmt.corpus import SentencePair
from lexnmt.model import (_backward, _lockstep, _logprobs, _source_context,
                          _teacher_forced)
from lexnmt.train import mrt_loss_frozen, nll_loss

from helpers import count_calls, random_lexicon, tiny_model


def zero_grads(params):
    return {k: np.zeros_like(v) for k, v in params.tensors.items()}


def lexicon_model(seed):
    params = tiny_model(attention="mlp", seed=seed, use_lexicon=True,
                        epsilon=1e-3, init_scale=0.8)
    table = random_lexicon(np.random.default_rng(seed), params.src_vocab_size,
                           params.tgt_vocab_size)
    return params, table


# Each case names an operation of the forward step and a tensor slice whose
# gradient reaches the loss through it (d=3: decoder width 6, attention 3).
CASES = {
    # input and output gates of the decoder LSTM
    "sigmoid": ("dot", False, "dec_b", np.s_[:12]),
    # candidate cell of the decoder LSTM
    "tanh": ("dot", False, "dec_b", np.s_[12:]),
    # target embedding lookup of the previous word
    "row": ("dot", False, "tgt_emb", np.s_[:]),
    # output log-softmax
    "log_softmax": ("dot", True, "softmax_b", np.s_[:]),
    # MLP attention scores through the attention softmax
    "softmax": ("mlp", False, "attn_w2", np.s_[:]),
    # the same through the lexicon bias log(L_F a + epsilon) as well
    "log_add_eps": ("mlp", True, "attn_w2", np.s_[:]),
    # W1_h h added to every column of the source projection
    "addcol": ("mlp", True, "attn_W1", np.s_[:, :6]),
    # the source projection W1_r R
    "matmat": ("mlp", True, "attn_W1", np.s_[:, 6:]),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_op_gradients_match_finite_differences(name):
    attention, use_lexicon, tensor, where = CASES[name]
    params = tiny_model(attention=attention, seed=77, use_lexicon=use_lexicon,
                        epsilon=1e-3, init_scale=0.8)
    table = (random_lexicon(np.random.default_rng(77), params.src_vocab_size,
                            params.tgt_vocab_size) if use_lexicon else None)
    batch = [SentencePair((1, 4, 2), (3, 5, 1)), SentencePair((5,), (2, 6))]
    _, grads = nll_loss(params, batch, table)
    arr = params.tensors[tensor]
    flat = arr.reshape(-1)
    h = 1e-5
    for i in np.arange(arr.size).reshape(arr.shape)[where].reshape(-1):
        orig = flat[i]
        flat[i] = orig + h
        up, _ = nll_loss(params, batch, table)
        flat[i] = orig - h
        down, _ = nll_loss(params, batch, table)
        flat[i] = orig
        assert grads[tensor].reshape(-1)[i] == pytest.approx(
            (up - down) / (2 * h), rel=1e-5, abs=1e-9), (name, i)


def test_shared_subgraph_accumulates():
    # two sequences against one context: one backward adds what two separate
    # backwards add, on top of what the gradient dict already holds
    params, table = lexicon_model(70)
    enc = _source_context(params, [(1, 4, 2)], table)
    E1, E2 = (3, 5, 0), (6, 2, 2, 0)
    both = {k: np.ones_like(v) for k, v in params.tensors.items()}
    _backward(params, enc, _teacher_forced(params, enc, [E1, E2]),
              [0.7, -1.3], both)
    apart = zero_grads(params)
    _backward(params, enc, _teacher_forced(params, enc, [E1]), [0.7], apart)
    _backward(params, enc, _teacher_forced(params, enc, [E2]), [-1.3], apart)
    for name in params.tensors:
        assert np.abs(apart[name]).max() > 0, name
        assert np.allclose(both[name], 1.0 + apart[name],
                           rtol=1e-12, atol=1e-14), name


@pytest.mark.parametrize("attention", ["dot", "mlp"])
def test_lockstep_backward_masks_rows_that_ended(attention):
    # rows of lengths 1, 2 and 4 walked back together, as minimum risk walks
    # its distinct samples: the sum of one-row backwards, to 1e-12 relative.
    # A row that has ended contributes exactly nothing to the steps after
    # its end, so the agreement is that close even with large weights.
    params = tiny_model(attention=attention, seed=78, use_lexicon=True,
                        epsilon=1e-3, init_scale=0.8)
    table = random_lexicon(np.random.default_rng(78), params.src_vocab_size,
                           params.tgt_vocab_size)
    enc = _source_context(params, [(1, 4, 2)], table)
    eos = params.tgt_eos
    samples, seeds = [(eos,), (5, eos), (3, 6, 6, 1)], [0.9, -1.7, 1.3]
    together = zero_grads(params)
    _backward(params, enc, _teacher_forced(params, enc, samples), seeds,
              together)
    apart = zero_grads(params)
    for sample, seed in zip(samples, seeds):
        _backward(params, enc, _teacher_forced(params, enc, [sample]), [seed],
                  apart)
    for name in params.tensors:
        scale = np.abs(apart[name]).max()
        assert scale > 0, name
        assert np.abs(together[name] - apart[name]).max() <= 1e-12 * scale, (
            name)


@pytest.mark.parametrize("use_lexicon", [False, True])
@pytest.mark.parametrize("attention", ["dot", "mlp"])
def test_block_rows_equal_their_one_sentence_losses(attention, use_lexicon):
    # ragged sources and targets as the rows of one padded context: each
    # row's loss, and its gradients (its seed alone, the other rows seeded
    # 0), equal its own one-sentence nll_loss to 1e-12 relative.  Padded
    # source positions and the steps past a row's end are masked, not
    # merely small, so the agreement is that close with large weights.
    params = tiny_model(attention=attention, seed=79, use_lexicon=use_lexicon,
                        epsilon=1e-3, init_scale=0.8)
    table = (random_lexicon(np.random.default_rng(79), params.src_vocab_size,
                            params.tgt_vocab_size) if use_lexicon else None)
    batch = [SentencePair((1,), (3, 5, 1, 2)),
             SentencePair((4, 2, 5, 1, 3), (6,)),
             SentencePair((2, 3), (2, 4, 4)), SentencePair((5, 5, 1), (1, 6))]
    enc = _source_context(params, [p.source for p in batch], table)
    walk = _lockstep(params, enc, [tuple(p.target) + (params.tgt_eos,)
                                   for p in batch])
    logp = _logprobs(walk)
    for r, pair in enumerate(batch):
        loss, alone = nll_loss(params, [pair], table)
        assert -logp[r] == pytest.approx(loss, rel=1e-12)
        seeds = np.zeros(len(batch))
        seeds[r] = -1.0
        row = zero_grads(params)
        _backward(params, enc, walk, seeds, row)
        for name in params.tensors:
            scale = np.abs(alone[name]).max()
            assert np.abs(row[name] - alone[name]).max() <= 1e-12 * scale, (
                r, name)


def test_diamond_graph_single_visit(monkeypatch):
    # the encoder is walked back once per backward, however many sequences
    # share it, and a sequence given twice counts with the sum of its seeds
    params, table = lexicon_model(71)
    enc = _source_context(params, [(2, 3)], table)
    E = (4, 1, 0)
    twice, once = zero_grads(params), zero_grads(params)
    _backward(params, enc, _teacher_forced(params, enc, [E, E]), [0.5, 1.5],
              twice)
    _backward(params, enc, _teacher_forced(params, enc, [E]), [2.0], once)
    for name in params.tensors:
        assert np.allclose(twice[name], once[name],
                           rtol=1e-12, atol=1e-14), name
    walks = count_calls(monkeypatch, model_mod, "_encoder_backward")
    samples = [(3, 5, 0), (2, 0), (6, 6, 3, 1), (0,)]
    mrt_loss_frozen(params, (2, 3), (3, 5), samples, alpha=1.0, lexicon=table)
    assert len(walks) == 1


def test_backward_requires_scalar_root():
    # the seeds weigh the sequences into one scalar: one seed per sequence
    params = tiny_model(seed=72)
    enc = _source_context(params, [(1, 2)], None)
    walk = _teacher_forced(params, enc, [(3, 0), (0,)])
    grads = zero_grads(params)
    for seeds in ([1.0], [1.0, 1.0, 1.0]):
        with pytest.raises(ValueError):
            _backward(params, enc, walk, seeds, grads)
    assert all(not g.any() for g in grads.values())


def test_softmax_outputs_normalized():
    # one huge logit: the probabilities stay finite and sum to one, and the
    # log-softmax of the loss stays finite where a probability underflows
    params = tiny_model(seed=73)
    params.tensors["softmax_b"][:] = [3.0, -1.0, 0.5, 900.0, 0.0, -2.0, 1.0]
    enc = _source_context(params, [(1, 2, 3)], None)
    E = (1, 3, 0)
    walk = _lockstep(params, enc, [E])
    expect = 0.0
    for probs, logits, e in zip(walk.steps.probs, walk.steps.logits, E):
        assert np.isfinite(probs).all()
        assert abs(probs.sum() - 1.0) < 1e-12
        z = logits - logits.max()
        expect += (z - np.log(np.exp(z).sum()))[e]
    assert walk.steps.probs[0, 1] == 0.0  # log of it would be -inf
    assert np.isfinite(_logprobs(walk)[0])
    assert _logprobs(walk)[0] == pytest.approx(expect, rel=1e-12)


def test_log_softmax_matches_log_of_softmax():
    params, table = lexicon_model(74)
    enc = _source_context(params, [(5, 1, 3)], table)
    E = (2, 6, 4, 0)
    walk = _lockstep(params, enc, [E])
    logp = sum(np.log(probs[e]) for probs, e in zip(walk.steps.probs, E))
    assert _logprobs(walk)[0] == pytest.approx(logp, rel=1e-12, abs=1e-12)


SHIFT_MODEL = tiny_model(seed=75)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(min_value=-30, max_value=30), min_size=7, max_size=7),
       st.floats(min_value=-50, max_value=50))
def test_softmax_shift_invariance(values, shift):
    # a constant added to every logit leaves the step's distribution alone
    probs = []
    for b in (np.array(values), np.array(values) + shift):
        params = SHIFT_MODEL.copy()
        params.tensors["softmax_b"][:] = b
        enc = _source_context(params, [(1, 2)], None)
        walk = _lockstep(params, enc, [(4, 0)])
        probs.append(walk.steps.probs)
    assert np.allclose(probs[0], probs[1], atol=1e-12)
    assert np.allclose(probs[0].sum(axis=1), 1.0, atol=1e-12)


def test_pick_and_row_are_one_hot():
    # one target word: the output bias takes onehot(e) - p, and only the
    # embedding rows the sentence looked up receive gradient
    params = tiny_model(seed=76)
    F, E = (2, 4, 2), (5,)
    enc = _source_context(params, [F], None)
    walk = _lockstep(params, enc, [E])
    grads = zero_grads(params)
    _backward(params, enc, walk, [1.0], grads)
    expect = -walk.steps.probs[0]
    expect[5] += 1.0
    assert np.array_equal(grads["softmax_b"], expect)
    for name, rows in (("tgt_emb", {params.tgt_eos}),
                       ("src_emb", set(F) | {params.src_eos})):
        touched = {i for i, r in enumerate(grads[name]) if r.any()}
        assert touched == rows, name
