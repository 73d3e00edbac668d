"""Optimizer, losses, minimum-risk machinery, and training-loop tests."""

import gc
import json
import math
import warnings

import numpy as np
import pytest

import lexnmt.model as model_mod
import lexnmt.train as train_mod
from lexnmt.corpus import SentencePair
from lexnmt.errors import DataError, NumericalError
from lexnmt.metrics import sbleu
from lexnmt.model import (BLOCK_ROWS, _logprobs, _source_context,
                          _teacher_forced, sentence_logprob)
from lexnmt.train import (MrtSettings, OptimizerState, TrainConfig,
                          adam_update, clip_gradients, corpus_nll,
                          expected_sampled_error, gradient_norm, mrt_loss,
                          mrt_loss_frozen, mrt_weights, nll_loss,
                          sample_translations, train_ml, train_mrt)

from helpers import (copy_pairs, count_calls, graph_stepper, random_lexicon,
                     tiny_model)
from oracles import (mean_sampled_sbleu, mrt_expected_error, ref_adam_sequence,
                     ref_adam_update, ref_lockstep_samples, token_accuracy)


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def test_adam_matches_scalar_reference():
    params = tiny_model(seed=30)
    params.tensors["dec_b"][:] = 0.0
    before = params.copy()
    opt = OptimizerState(params.tensors)
    gs = [0.3, -1.1, 0.7, 0.05, 2.0]
    got = []
    for g in gs:
        grads = params.tensors.like()  # zero but for one entry
        grads["dec_b"][0] = g
        adam_update(params, grads, opt, lr=0.01)
        got.append(params.tensors["dec_b"][0])
    want = ref_adam_sequence(0.0, gs, 0.01)
    assert np.allclose(got, want, rtol=0, atol=1e-15)
    # untouched entries must not move (zero gradient, zero moments)
    assert not params.tensors["dec_b"][1:].any()
    for name, value in before.tensors.items():
        if name != "dec_b":
            assert np.array_equal(params.tensors[name], value), name


@pytest.mark.parametrize("shape", [
    {"src_size": 6, "tgt_size": 7, "d": 3},
    {"src_size": 2000, "tgt_size": 2000, "d": 128, "attention": "mlp"}])
def test_flat_adam_matches_per_tensor_reference(shape):
    # clip-then-ADAM steps on the flat buffers give, entry for entry, the
    # bits of the per-tensor update on separate arrays
    params = tiny_model(seed=34, **shape)
    ref = {k: v.copy() for k, v in params.tensors.items()}
    ref_m = {k: np.zeros_like(v) for k, v in ref.items()}
    ref_v = {k: np.zeros_like(v) for k, v in ref.items()}
    opt = OptimizerState(params.tensors)
    rng = np.random.default_rng(35)
    for step, scale in enumerate((0.05, 1.0, 0.2), 1):
        grads = params.tensors.like()
        grads.buffer[:] = rng.normal(0.0, scale, grads.buffer.size)
        ref_grads = {k: v.copy() for k, v in grads.items()}
        clip_gradients(grads, 5.0)
        clip_gradients(ref_grads, 5.0)
        adam_update(params, grads, opt, lr=0.01)
        ref_adam_update(ref, ref_grads, ref_m, ref_v, step, 0.01)
    for name, value in ref.items():
        assert np.array_equal(params.tensors[name], value), name
        assert np.array_equal(opt.m[name], ref_m[name]), name
        assert np.array_equal(opt.v[name], ref_v[name]), name


def test_clip_gradients_scales_only_above_threshold():
    grads = {"a": np.array([3.0, 0.0]), "b": np.array([0.0, 4.0])}
    clip_gradients(grads, max_norm=10.0)
    assert np.array_equal(grads["a"], [3.0, 0.0])  # norm 5 <= 10: untouched
    clip_gradients(grads, max_norm=2.5)
    assert gradient_norm(grads) == pytest.approx(2.5, rel=1e-12)
    assert np.allclose(grads["a"], [1.5, 0.0])
    assert np.allclose(grads["b"], [0.0, 2.0])


def test_clip_gradients_rejects_nonfinite():
    with pytest.raises(NumericalError, match="'w'"):
        clip_gradients({"w": np.array([1.0, float("nan")])}, 1.0)
    with pytest.raises(NumericalError, match="'w'"):
        clip_gradients({"w": np.array([float("inf")])}, 1.0)
    with pytest.raises(ValueError):
        clip_gradients({"w": np.ones(2)}, 0.0)


def test_clip_gradients_scales_overflowing_finite_norm_to_zero():
    # finite entries whose squares overflow give an infinite norm, which is
    # no error: the factor max_norm / inf scales every entry to zero
    grads = {"a": np.array([1e200, 2.0]), "b": np.array([-3.0])}
    with np.errstate(over="ignore"):
        clip_gradients(grads, 1.0)
    assert not grads["a"].any() and not grads["b"].any()


def test_gradient_norm_adds_tensor_sums_left_to_right():
    # 1e16 + 1 rounds back to 1e16 (ties to even), so a left-to-right sum
    # loses both ones, while a compensated sum (math.fsum, or builtin sum of
    # floats from Python 3.12) keeps them and gives other bits
    grads = {"a": np.array([1e8]), "b": np.array([1.0]), "c": np.array([1.0])}
    squares = [1e16, 1.0, 1.0]
    left_to_right = (1e16 + 1.0) + 1.0
    assert math.sqrt(left_to_right) != math.sqrt(math.fsum(squares))
    assert gradient_norm(grads) == math.sqrt(left_to_right)


# ---------------------------------------------------------------------------
# likelihood losses
# ---------------------------------------------------------------------------

def test_nll_loss_value_matches_sentence_logprob():
    params = tiny_model(seed=31)
    batch = [SentencePair((1, 2), (3, 4)), SentencePair((5,), (2,))]
    loss, _ = nll_loss(params, batch)
    want = -sum(sentence_logprob(params, p.source,
                                 tuple(p.target) + (params.tgt_eos,))
                for p in batch)
    assert loss == pytest.approx(want, rel=1e-9)


def test_losses_zero_a_reused_gradient_dict():
    # a training run passes one dict to every loss: it is zeroed first and
    # filled in place, bit for bit what a fresh dict receives
    params = tiny_model(seed=31, attention="mlp")
    batch = [SentencePair((2, 1), (1, 3)), SentencePair((4,), (5, 2, 2))]
    for loss_fn in (lambda **k: nll_loss(params, batch, **k),
                    lambda **k: mrt_loss(params, (1, 2), (3,), num_samples=4,
                                         rng=np.random.default_rng(2), **k)):
        want, fresh = loss_fn()
        reused = params.tensors.like()
        reused.buffer.fill(7.0)
        loss, grads = loss_fn(grads=reused)
        assert grads is reused and loss == want
        for name in params.tensors:
            assert np.array_equal(grads[name], fresh[name]), name


def test_nll_loss_is_additive_over_the_batch():
    params = tiny_model(seed=32)
    p1, p2 = SentencePair((2,), (1, 3)), SentencePair((4, 1), (5,))
    loss, grads = nll_loss(params, [p1, p2])
    l1, g1 = nll_loss(params, [p1])
    l2, g2 = nll_loss(params, [p2])
    assert loss == pytest.approx(l1 + l2, rel=1e-12)
    for name in grads:
        assert np.allclose(grads[name], g1[name] + g2[name],
                           rtol=1e-12, atol=1e-15)
    with pytest.raises(ValueError):
        nll_loss(params, [])


def test_gradient_steps_reduce_loss():
    params = tiny_model(seed=33)
    batch = [SentencePair((1, 2, 3), (1, 2, 3))]
    opt = OptimizerState(params.tensors)
    first, grads = nll_loss(params, batch)
    for _ in range(25):
        adam_update(params, grads, opt, lr=0.05)
        loss, grads = nll_loss(params, batch)
    assert loss < first


@pytest.mark.parametrize("budget", [None, 2])
def test_ml_steps_each_cut_to_its_longest_target(monkeypatch, budget):
    # the sentences step as the rows of the model's cuts (model._cuts, one
    # row per sentence), longest target first (ties in input order), each
    # cut encoded once: the decoder recurrence runs once per step of each
    # cut's longest target, where one sentence at a time would run once per
    # target word.  Eleven small sentences are one cut; at one byte each
    # under a budget of two they are cut in twos, shortest source first
    params = tiny_model(seed=37)
    rng = np.random.default_rng(37)
    pairs = [SentencePair(tuple(int(x) for x in rng.integers(1, 6, n)),
                          tuple(int(x) for x in rng.integers(1, 7, m)))
             for n, m in rng.integers(1, 7, (11, 2))]
    order = sorted(range(len(pairs)), key=lambda i: len(pairs[i].source))
    size = budget or len(pairs)
    cuts = [sorted(order[i:i + size], key=lambda i: (-len(pairs[i].target), i))
            for i in range(0, len(order), size)]
    targets = [[tuple(pairs[i].target) + (params.tgt_eos,) for i in cut]
               for cut in cuts]
    assert len(set(map(len, targets[0]))) > 1
    for loss in (nll_loss, corpus_nll):
        if budget:
            monkeypatch.setattr(model_mod, "_step_bytes", lambda *a: 1)
            monkeypatch.setattr(model_mod, "STACK_BYTES", budget)
        steps = count_calls(monkeypatch, model_mod, "_recurrence")
        encodes = count_calls(monkeypatch, model_mod, "_encode_g")
        walks = count_calls(monkeypatch, model_mod, "_lockstep")
        loss(params, pairs)
        assert [list(w[2]) for w in walks] == targets
        assert len(encodes) == len(cuts)
        assert len(steps) == sum(len(cut[0]) for cut in targets) < sum(
            len(E) for cut in targets for E in cut)
        monkeypatch.undo()


@pytest.mark.parametrize("attention, use_lexicon", [("mlp", True),
                                                    ("dot", False)])
def test_nll_gradients_of_a_cut_of_many_sentences(monkeypatch, attention,
                                                  use_lexicon):
    # one walk and one backward over ten rows, more than a block of 8, with
    # uneven targets and a 9-word source (a run 16 positions wide): three
    # coordinates of every tensor against central differences
    params = tiny_model(attention=attention, seed=62, use_lexicon=use_lexicon,
                        epsilon=1e-3, init_scale=0.8)
    rng = np.random.default_rng(62)
    table = (random_lexicon(rng, params.src_vocab_size, params.tgt_vocab_size)
             if use_lexicon else None)
    batch = [SentencePair(tuple(int(x) for x in rng.integers(0, 6, n)),
                          tuple(int(x) for x in rng.integers(1, 7, m)))
             for n, m in zip((9, 1, 3, 2, 5, 1, 4, 2, 6, 3),
                             (2, 5, 1, 3, 4, 1, 6, 2, 1, 3))]
    backs = count_calls(monkeypatch, model_mod, "_encoder_backward")
    _, grads = nll_loss(params, batch, table)
    assert len(backs) == 1 and len(backs[0][1].lengths) == len(batch)
    h = 1e-5
    pick = np.random.default_rng(63)
    for name, arr in params.tensors.items():
        flat = arr.reshape(-1)
        for i in pick.choice(flat.size, min(3, flat.size), replace=False):
            orig = flat[i]
            flat[i] = orig + h
            up, _ = nll_loss(params, batch, table)
            flat[i] = orig - h
            down, _ = nll_loss(params, batch, table)
            flat[i] = orig
            assert grads[name].reshape(-1)[i] == pytest.approx(
                (up - down) / (2 * h), rel=1e-5, abs=1e-9), (name, i)


def test_corpus_nll_is_token_averaged():
    params = tiny_model(seed=34)
    pairs = [SentencePair((1,), (2, 3)), SentencePair((2, 4), (5,))]
    total = -sum(sentence_logprob(params, p.source,
                                  tuple(p.target) + (params.tgt_eos,))
                 for p in pairs)
    tokens = sum(len(p.target) + 1 for p in pairs)
    assert corpus_nll(params, pairs) == pytest.approx(total / tokens, rel=1e-9)


@pytest.mark.parametrize("use_lexicon", [False, True])
@pytest.mark.parametrize("attention", ["dot", "mlp"])
def test_deferred_and_padded_walks_agree(attention, use_lexicon):
    # nll_loss scores a sentence on the deferred walk (one unpadded row, the
    # output layer after the walk), sentence_logprob on the padded walk of
    # search: the two differ only in rounding
    params = tiny_model(attention=attention, seed=54, use_lexicon=use_lexicon,
                        epsilon=1e-3, init_scale=0.8)
    rng = np.random.default_rng(54)
    table = (random_lexicon(rng, params.src_vocab_size, params.tgt_vocab_size)
             if use_lexicon else None)
    for _ in range(5):
        F = tuple(int(x) for x in rng.integers(0, 6, rng.integers(1, 7)))
        E = tuple(int(x) for x in rng.integers(1, 7, rng.integers(1, 7)))
        loss, _ = nll_loss(params, [SentencePair(F, E)], table)
        padded = sentence_logprob(params, F, E + (params.tgt_eos,), table)
        assert loss == pytest.approx(-padded, rel=1e-12)


def test_token_accuracy_counts_argmax_matches():
    params = tiny_model(seed=35)
    pairs = [SentencePair((1, 2), (3, 4)), SentencePair((5,), (1,))]
    correct = 0
    total = 0
    for p in pairs:
        start, step = graph_stepper(params, p.source)
        state = start()[0]
        prev = params.tgt_eos
        for e in tuple(p.target) + (params.tgt_eos,):
            state, probs = step(0, prev, state)
            correct += int(np.argmax(probs) == e)
            total += 1
            prev = e
    assert token_accuracy(params, pairs) == pytest.approx(correct / total)


@pytest.mark.parametrize("use_lexicon", [False, True])
@pytest.mark.parametrize("attention", ["dot", "mlp"])
def test_gradients_match_finite_differences_on_a_few_coordinates(
        monkeypatch, attention, use_lexicon):
    # the fast-tier counterpart of the acceptance gradient check: three
    # coordinates of every tensor, NLL and MRT, against central differences
    params = tiny_model(attention=attention, seed=60, use_lexicon=use_lexicon,
                        epsilon=1e-3, init_scale=0.8)
    table = (random_lexicon(np.random.default_rng(60), params.src_vocab_size,
                            params.tgt_vocab_size) if use_lexicon else None)
    eos = params.tgt_eos
    F, E = (1, 4, 2), (3, 5, 1)
    samples = [(3, 5, 1, eos), (2, eos), (6, 6, 3, 1), (eos,)]
    # one block of sentences with different source and target lengths, the
    # longest of 11 words: the block is 16 source positions wide
    batch = [SentencePair(F, E), SentencePair((5,), (2, 6)),
             SentencePair((3, 1, 4, 2, 5), (4,)),
             SentencePair((2, 0, 4, 1, 5, 3, 3, 1, 0, 2, 4), (1, 3))]
    backs = count_calls(monkeypatch, model_mod, "_encoder_backward")
    losses = {
        "nll": lambda: nll_loss(params, batch, table),
        "mrt": lambda: mrt_loss_frozen(params, F, E, samples, alpha=1.0,
                                       lexicon=table),
    }
    h = 1e-5
    pick = np.random.default_rng(61)
    for tag, loss_fn in losses.items():
        _, grads = loss_fn()
        assert set(grads) == set(params.tensors)
        if tag == "nll":  # R's columns past each end get no gradient
            _, run, dR, _, _ = backs[-1]
            assert dR.shape[-1] == 16
            for r, n in enumerate(run.lengths.tolist()):
                assert not dR[r, :, n:].any()
        for name, arr in params.tensors.items():
            flat = arr.reshape(-1)
            for i in pick.choice(flat.size, min(3, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + h
                up, _ = loss_fn()
                flat[i] = orig - h
                down, _ = loss_fn()
                flat[i] = orig
                assert grads[name].reshape(-1)[i] == pytest.approx(
                    (up - down) / (2 * h), rel=1e-5, abs=1e-9), (tag, name, i)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_translation_is_reproducible_and_bounded():
    params = tiny_model(seed=36)
    F = (1, 2, 3)
    a = sample_translations(params, F, 20, 8, np.random.default_rng(5))
    assert a == sample_translations(params, F, 20, 8, np.random.default_rng(5))
    assert len(a) == 20
    for s in a:
        assert 1 <= len(s) <= 8
        assert params.tgt_eos not in s[:-1]  # sentence end only terminal
    # the samples are drawn in lockstep: one uniform per live sample and
    # step, in sample order
    assert a == ref_lockstep_samples(*graph_stepper(params, F), params.tgt_eos,
                                     20, 8, np.random.default_rng(5))
    with pytest.raises(ValueError):
        sample_translations(params, F, 1, 0, np.random.default_rng(0))
    with pytest.raises(ValueError):
        sample_translations(params, F, 0, 8, np.random.default_rng(0))


def test_sample_translation_first_token_frequencies():
    # with max_len 1 each sample is exactly one token from the first-step
    # distribution; empirical frequencies must agree within 4 sigma
    params = tiny_model(seed=37)
    F = (2, 4)
    start, step = graph_stepper(params, F)
    _, probs = step(0, params.tgt_eos, start()[0])
    rng = np.random.default_rng(11)
    n = 4000
    counts = np.zeros(params.tgt_vocab_size)
    for s in sample_translations(params, F, n, 1, rng):
        counts[s[0]] += 1
    freq = counts / n
    sigma = np.sqrt(probs * (1 - probs) / n)
    assert np.all(np.abs(freq - probs) <= 4 * sigma + 1e-9)


# ---------------------------------------------------------------------------
# minimum risk
# ---------------------------------------------------------------------------

def test_mrt_weights_pinned_example():
    # alpha * logp = (0, -log 4): weights exp -> (1, 1/4) -> (0.8, 0.2)
    logps = [0.0, -np.log(4.0) / 0.005]
    w = mrt_weights(logps, alpha=0.005)
    assert np.allclose(w, [0.8, 0.2], atol=1e-12)
    assert mrt_expected_error(logps, [0.2, 0.6], 0.005) == pytest.approx(0.28)


def test_mrt_weights_properties():
    rng = np.random.default_rng(12)
    logps = rng.normal(size=6) * 3
    for alpha in (0.005, 0.3, 1.0):
        w = mrt_weights(logps, alpha)
        assert w.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(w > 0)
    # sharpening: large alpha concentrates mass on the argmax
    assert mrt_weights(logps, 50.0)[np.argmax(logps)] > 0.999
    assert np.allclose(mrt_weights([-1.0, -1.0, -1.0], 0.1), 1 / 3)


def test_mrt_loss_frozen_value_is_expected_error():
    params = tiny_model(seed=38)
    F = (1, 3)
    ref = (2, 4)
    eos = params.tgt_eos
    samples = [(2, 4, eos), (5, eos), (2, eos)]
    alpha = 0.7
    loss, grads = mrt_loss_frozen(params, F, ref, samples, alpha)
    logps = [sentence_logprob(params, F, s) for s in samples]
    errors = [1.0 - sbleu(s[:-1], ref) for s in samples]
    assert loss == pytest.approx(mrt_expected_error(logps, errors, alpha),
                                 rel=1e-9)
    assert set(grads) == set(params.tensors)
    assert gradient_norm(grads) > 0


def test_mrt_loss_deduplicates_samples(monkeypatch):
    params = tiny_model(seed=39)
    eos = params.tgt_eos
    fixed = [(3, eos), (3, eos), (2, 4, eos), (3, eos)]

    def fake_walk(params, enc, n_rows, choose, *, keep=False):
        return _teacher_forced(params, enc, fixed[:n_rows])

    monkeypatch.setattr(train_mod, "_walk_stack", fake_walk)
    loss, grads = mrt_loss(params, (1, 2), (3,), num_samples=4, alpha=0.5,
                           rng=np.random.default_rng(0))
    want_loss, want_grads = mrt_loss_frozen(params, (1, 2), (3,),
                                            [(3, eos), (2, 4, eos)], 0.5)
    assert loss == pytest.approx(want_loss, rel=1e-12)
    for name in grads:
        assert np.allclose(grads[name], want_grads[name], rtol=1e-12,
                           atol=1e-15)


@pytest.mark.parametrize("attention", ["dot", "mlp"])
def test_mrt_loss_scores_samples_with_their_sampling_steps(attention):
    # the steps kept from sampling are the teacher-forced steps, bit for bit
    params = tiny_model(seed=53, attention=attention, use_lexicon=True,
                        init_scale=0.5)
    table = random_lexicon(np.random.default_rng(53), params.src_vocab_size,
                           params.tgt_vocab_size)
    F, ref = (1, 2, 3), (3, 4)
    samples = sample_translations(params, F, 8, 2 * len(F) + 10,
                                  np.random.default_rng(7), table)
    distinct = list(dict.fromkeys(samples))
    assert len(distinct) >= 2
    loss, grads = mrt_loss(params, F, ref, num_samples=8, alpha=0.5,
                           rng=np.random.default_rng(7), lexicon=table)
    want_loss, want_grads = mrt_loss_frozen(params, F, ref, distinct, 0.5,
                                            lexicon=table)
    assert loss == want_loss
    for name in grads:
        assert np.array_equal(grads[name], want_grads[name])


def test_mrt_loss_encodes_and_builds_lexicon_once(monkeypatch):
    # the N draws and the scoring of every distinct sample share one source
    # context: one encoder pass and one L_F per sentence
    params = tiny_model(seed=51, use_lexicon=True, init_scale=0.5)
    table = random_lexicon(np.random.default_rng(51), params.src_vocab_size,
                           params.tgt_vocab_size)
    encodes = count_calls(monkeypatch, model_mod, "_encode_g")
    builds = count_calls(monkeypatch, model_mod, "build_lexicon_matrix")
    draws = count_calls(monkeypatch, train_mod, "_walk_stack")
    scored = count_calls(monkeypatch, train_mod, "_expected_error")
    mrt_loss(params, (1, 2, 3), (3, 4), num_samples=6, alpha=0.5,
             rng=np.random.default_rng(5), lexicon=table)
    assert [args[2] for args in draws] == [6]  # one walk of 6 samples
    _, _, distinct, _, _ = scored[0]
    assert len(distinct) >= 2
    assert len(encodes) == 1
    assert len(builds) == 1


def test_mrt_loss_validation(monkeypatch):
    params = tiny_model(seed=40)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="num_samples"):
        mrt_loss(params, (1,), (2,), num_samples=1, rng=rng)
    for alpha in (0.0, -1.0, math.nan, math.inf):
        # refused before any sampling: the rng is never drawn from
        with pytest.raises(ValueError, match="alpha must be > 0 and finite"):
            mrt_loss(params, (1,), (2,), alpha=alpha, rng=None)
        with pytest.raises(ValueError, match="alpha must be > 0 and finite"):
            mrt_loss_frozen(params, (1,), (2,), [(2, params.tgt_eos)], alpha)
    with pytest.raises(ValueError, match="sample set must be non-empty"):
        mrt_loss_frozen(params, (1,), (2,), [], 1.0)
    with pytest.raises(ValueError, match="target sequences must be non-empty"):
        mrt_loss_frozen(params, (1,), (2,), [(2, params.tgt_eos), ()], 1.0)
    with pytest.raises(ValueError, match="rng"):
        mrt_loss(params, (1,), (2,))
    monkeypatch.setattr(
        train_mod, "_walk_stack",
        lambda params, enc, n, *a, **k: _teacher_forced(
            params, enc, [(params.tgt_eos,)] * n))
    with pytest.raises(ValueError, match="empty"):
        mrt_loss(params, (1,), (2,), num_samples=4, rng=rng)


@pytest.mark.parametrize("max_sample_len", [0, -3])
def test_mrt_loss_refuses_a_sample_length_below_one(monkeypatch,
                                                    max_sample_len):
    # refused before any draw: nothing is encoded, the rng is untouched
    params = tiny_model(seed=40)
    rng = np.random.default_rng(0)
    before = rng.bit_generator.state
    encodes = count_calls(monkeypatch, model_mod, "_encode_g")
    with pytest.raises(ValueError,
                       match="num_samples and max_len must be >= 1"):
        mrt_loss(params, (1,), (2,), num_samples=4, rng=rng,
                 max_sample_len=max_sample_len)
    assert rng.bit_generator.state == before
    assert encodes == []


def test_mean_sampled_sbleu_equals_public_sampling_loop():
    params = tiny_model(seed=52, use_lexicon=True, init_scale=0.5)
    table = random_lexicon(np.random.default_rng(52), params.src_vocab_size,
                           params.tgt_vocab_size)
    pairs = [SentencePair((1, 2), (3, 4)), SentencePair((5,), (2,))]
    got = mean_sampled_sbleu(params, pairs, 3, np.random.default_rng(6),
                             max_sample_len=6, lexicon=table)
    rng = np.random.default_rng(6)
    scores = []
    for pair in pairs:
        for s in sample_translations(params, pair.source, 3, 6, rng, table):
            if s[-1] == params.tgt_eos:
                s = s[:-1]
            scores.append(sbleu(tuple(s), pair.target))
    assert got == float(np.mean(scores))


def test_mean_sampled_sbleu_range():
    params = tiny_model(seed=41)
    pairs = [SentencePair((1, 2), (3, 4)), SentencePair((2,), (5,))]
    val = mean_sampled_sbleu(params, pairs, 3, np.random.default_rng(2))
    assert 0.0 <= val <= 1.0


# ---------------------------------------------------------------------------
# training loops
# ---------------------------------------------------------------------------

def _schedule_fixture():
    params = tiny_model(seed=42)
    pairs = [SentencePair((i % 4 + 1,), (i % 5 + 1,)) for i in range(16)]
    config = TrainConfig(lr_schedule=(0.001, 0.0005, 0.00025), word_budget=1,
                         dev_check_interval=1, patience=2, seed=0)
    return params, pairs, config


def test_train_ml_lr_schedule_and_early_stop(monkeypatch):
    params, pairs, config = _schedule_fixture()
    dev_values = [5.0, 4.0, 4.5, 4.5, 4.5, 4.5, 4.5, 4.5]
    snapshots = []
    calls = iter(dev_values)

    def stub(p, *_):
        snapshots.append({k: v.copy() for k, v in p.tensors.items()})
        return next(calls)

    monkeypatch.setattr(train_mod, "corpus_nll", stub)
    best, records = train_ml(params, pairs, pairs[:1], config)
    # the dev sequence improves at check 2 and then stalls: two stalled
    # checks per stage exhaust the patience at each of the three rates
    assert len(records) == 8
    assert [r["dev_loss"] for r in records] == dev_values
    assert [r["lr"] for r in records] == [0.001] * 4 + [0.0005] * 2 \
        + [0.00025] * 2
    assert [r["sentences_seen"] for r in records] == list(range(1, 9))
    # the returned model is the snapshot that scored 4.0
    for name, value in best.tensors.items():
        assert np.array_equal(value, snapshots[1][name])


def test_train_ml_halving_reloads_best_weights(monkeypatch):
    params, pairs, config = _schedule_fixture()
    dev_values = iter([5.0, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0])
    snapshots = []

    def stub(p, *_):
        snapshots.append({k: v.copy() for k, v in p.tensors.items()})
        return next(dev_values)

    monkeypatch.setattr(train_mod, "corpus_nll", stub)
    best, _ = train_ml(params, pairs, pairs[:1], config)
    assert len(snapshots) == 7
    # only the first check improved, so that snapshot is the returned model
    for name, value in best.tensors.items():
        assert np.array_equal(value, snapshots[0][name])
    # check 3 trips the patience, reloading the check-1 weights with a fresh
    # optimizer: check 4 must sit within a single bias-corrected step (whose
    # per-entry magnitude is below lr) of the best weights, not three steps
    gap_after_reload = max(np.abs(snapshots[3][n] - snapshots[0][n]).max()
                           for n in snapshots[0])
    assert gap_after_reload <= 0.0005
    gap_before_reload = max(np.abs(snapshots[2][n] - snapshots[0][n]).max()
                            for n in snapshots[0])
    assert gap_before_reload > 0.001  # two steps at the full rate


def test_train_ml_respects_max_epochs():
    params = tiny_model(seed=43)
    pairs = [SentencePair((1, 2), (2, 1)), SentencePair((3,), (4,))]
    config = TrainConfig(word_budget=50, dev_check_interval=1000,
                         patience=2000, max_epochs=3, seed=1)
    _, records = train_ml(params, pairs, pairs, config)
    assert records[-1]["sentences_seen"] == 3 * len(pairs)
    assert records[-1]["train_loss"] > 0


def test_train_ml_rejects_empty_sets():
    params = tiny_model(seed=44)
    config = TrainConfig(max_epochs=1)
    with pytest.raises(DataError):
        train_ml(params, [], [SentencePair((1,), (1,))], config)
    with pytest.raises(DataError):
        train_ml(params, [SentencePair((1,), (1,))], [], config)


def test_train_ml_raises_on_nonfinite_loss(monkeypatch):
    params = tiny_model(seed=45)
    pairs = [SentencePair((1,), (2,))]
    zero = {k: np.zeros_like(v) for k, v in params.tensors.items()}
    monkeypatch.setattr(train_mod, "nll_loss",
                        lambda *a, **k: (float("nan"), zero))
    with pytest.raises(NumericalError, match="non-finite loss"):
        train_ml(params, pairs, pairs, TrainConfig(max_epochs=1))


def test_train_mrt_raises_on_nonfinite_loss(monkeypatch):
    params = tiny_model(seed=45)
    pairs = [SentencePair((1,), (2,))]
    monkeypatch.setattr(train_mod, "mrt_loss", lambda params, *a, **k: (
        float("nan"), params.tensors.like()))
    with pytest.raises(NumericalError, match="non-finite loss on sentence 0"):
        train_mrt(params, pairs, pairs,
                  TrainConfig(mrt=MrtSettings(num_samples=2, epochs=1)))


def _log_after_a_raise(run, run_dir):
    """Run ``run`` to its NumericalError and collect what it left: the
    ResourceWarnings raised, and the records of its train log."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NumericalError, match="non-finite loss"):
            run()
        gc.collect()
    lines = (run_dir / "trainlog.jsonl").read_text().splitlines(keepends=True)
    assert all(line.endswith("\n") for line in lines)
    assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []
    return [json.loads(line) for line in lines[1:]]


def test_train_log_is_closed_when_training_raises(monkeypatch, tmp_path):
    # a non-finite loss after a few dev checks, or after an MRT epoch,
    # leaves no train log open, and the records written before it whole
    params = tiny_model(seed=45)
    pairs = [SentencePair((1,), (2,)), SentencePair((3, 1), (4,))]
    losses = iter([1.0, 2.0, 3.0, float("nan")])
    monkeypatch.setattr(train_mod, "nll_loss", lambda params, *a, **k: (
        next(losses), params.tensors.like()))
    config = TrainConfig(word_budget=1, dev_check_interval=1, max_epochs=2)
    records = _log_after_a_raise(lambda: train_ml(
        params, pairs, pairs, config, run_dir=str(tmp_path / "ml")),
        tmp_path / "ml")
    assert [r["train_loss"] for r in records] == [0.5, 1.0, 1.5]
    losses = iter([0.5, 0.25, float("nan")])
    monkeypatch.setattr(train_mod, "mrt_loss", lambda params, *a, **k: (
        next(losses), params.tensors.like()))
    config = TrainConfig(mrt=MrtSettings(num_samples=2, epochs=2))
    records = _log_after_a_raise(lambda: train_mrt(
        params, pairs, pairs, config, run_dir=str(tmp_path / "mrt")),
        tmp_path / "mrt")
    assert [r["expected_error"] for r in records] == [0.375]


def test_train_ml_log_file_is_deterministic(tmp_path):
    rng = np.random.default_rng(46)
    pairs = copy_pairs(rng, 6, vocab=6, lmax=3)
    config = TrainConfig(word_budget=8, dev_check_interval=3, patience=100,
                         max_epochs=2, seed=7)
    logs = []
    for name in ("one", "two"):
        run_dir = tmp_path / name
        train_ml(tiny_model(seed=47), pairs[:4], pairs[4:], config,
                 run_dir=str(run_dir))
        logs.append((run_dir / "trainlog.jsonl").read_bytes())
    assert logs[0] == logs[1]
    header = json.loads(logs[0].decode().splitlines()[0])["header"]
    assert header["mode"] == "ml"
    assert header["lr_schedule"] == [0.001, 0.0005, 0.00025]


def test_train_mrt_runs_and_is_deterministic():
    rng = np.random.default_rng(48)
    pairs = copy_pairs(rng, 4, vocab=6, lmax=3)
    mrt = MrtSettings(num_samples=3, alpha=1.0, epochs=2, max_sample_len=6)
    config = TrainConfig(lr_schedule=(0.01,), mrt=mrt, seed=9)
    runs = []
    for _ in range(2):
        best, records = train_mrt(tiny_model(seed=49), pairs[:3], pairs[3:],
                                  config)
        runs.append((best, records))
    assert runs[0][1] == runs[1][1]
    assert len(runs[0][1]) == 2
    for rec in runs[0][1]:
        assert rec["num_samples"] == 3 and rec["alpha"] == 1.0
        assert 0.0 <= rec["dev_expected_error"] <= 1.0
    for name, value in runs[0][0].tensors.items():
        assert np.array_equal(value, runs[1][0].tensors[name])


def test_expected_sampled_error_in_unit_interval():
    params = tiny_model(seed=50)
    pairs = [SentencePair((1, 2), (3,)), SentencePair((4,), (5, 2))]
    err = expected_sampled_error(params, pairs, MrtSettings(num_samples=3),
                                 [np.random.default_rng([3, j]) for j in (0, 1)])
    assert 0.0 <= err <= 1.0


@pytest.mark.parametrize("empty", ["train", "dev"])
def test_train_mrt_refuses_an_empty_set(empty):
    # checked before the first dev check, which would refuse an empty dev
    # set in other words, and before an epoch of no updates
    pairs = [SentencePair((1, 2), (3, 4))]
    sets = {"train": pairs, "dev": pairs, empty: []}
    with pytest.raises(DataError, match="train and dev sets must be non-empty"):
        train_mrt(tiny_model(seed=49), sets["train"], sets["dev"],
                  TrainConfig(mrt=MrtSettings(num_samples=2, epochs=1)))


def test_expected_sampled_error_refuses_an_empty_dev_set():
    with pytest.raises(DataError, match="dev set is empty"):
        expected_sampled_error(tiny_model(seed=50), [], MrtSettings(), [])


@pytest.mark.parametrize("budget", [None, 2], ids=["one-run", "runs-of-two"])
def test_expected_sampled_error_equals_encoding_each_sentence_alone(
        monkeypatch, budget):
    # the dev set is encoded in stacks cut under the decode byte budget, one
    # pass per stack, shortest first, and every stack's sentences are
    # sampled in lockstep, sentence j from its own stream: the same draws
    # and the same value as one encoding and one walk per sentence, so MRT
    # dev errors, logs and checkpoints do not depend on the cuts
    if budget:  # each sentence costs one byte: runs of two, in input order
        monkeypatch.setattr(model_mod, "_step_bytes", lambda *a: 1)
        monkeypatch.setattr(model_mod, "STACK_BYTES", budget)
    passes = count_calls(monkeypatch, model_mod, "_encode_g")
    params = tiny_model(seed=52, attention="mlp", use_lexicon=True,
                        init_scale=0.5)
    table = random_lexicon(np.random.default_rng(52), params.src_vocab_size,
                           params.tgt_vocab_size)
    rng = np.random.default_rng(52)
    pairs = [SentencePair(tuple(int(f) for f in rng.integers(0, 6, n)),
                          tuple(int(e) for e in rng.integers(1, 7, 3)))
             for n in (3, 1, 6, 3, 2, 6)]
    mrt = MrtSettings(num_samples=5, alpha=0.5, max_sample_len=8)
    got = expected_sampled_error(
        params, pairs, mrt, [np.random.default_rng([9, j]) for j in range(6)],
        table)
    # one encoder pass per stack, counted before the reference below
    # encodes each sentence again
    runs = [list(sources) for _, sources in passes]
    values = []
    for j, pair in enumerate(pairs):
        # the walk of mrt_loss: its samples, one sentence alone
        enc = _source_context(params, [pair.source], table)
        draw = train_mod._drawing(params.tgt_eos, [np.random.default_rng(
            [9, j])], [mrt.max_sample_len])
        walk = train_mod._distinct_runs(train_mod._walk_stack(
            params, enc, mrt.num_samples, draw, keep=True))
        values.append(train_mod._expected_error(
            params, pair.target, walk.words, _logprobs(walk), mrt.alpha)[0])
    assert got == float(np.mean(values))
    assert len(set(values)) > 1
    assert sum(runs, []) == sorted((pair.source for pair in pairs), key=len)
    assert [len(run) for run in runs] == ([6] if budget is None else [2] * 3)


@pytest.mark.parametrize("budget", [None, 2], ids=["one-stack", "stacks-of-two"])
@pytest.mark.parametrize("num_samples", [8, 20])
@pytest.mark.parametrize("attention", ["mlp-lexicon", "dot"])
@pytest.mark.parametrize("count", [1, 5, 9])
def test_a_sentence_samples_alike_alone_and_in_a_stack(
        monkeypatch, budget, num_samples, attention, count):
    # each sentence draws from its own stream, so inside a stack stepped in
    # lockstep it draws the words, with the log-probabilities, that it
    # draws alone: one walk of its own, and sample_translations; at 20
    # samples (3 blocks) sentences step with different numbers of blocks;
    # 9 sentences add sources of 9-26 words, whose runs are padded to
    # widths 16, 24 and 32
    if budget:  # each sentence costs one byte: stacks of two
        monkeypatch.setattr(model_mod, "_step_bytes", lambda *a: 1)
        monkeypatch.setattr(model_mod, "STACK_BYTES", budget)
    params = tiny_model(seed=70, attention=attention[:3],
                        use_lexicon=attention == "mlp-lexicon", init_scale=0.5)
    table = (random_lexicon(np.random.default_rng(70), params.src_vocab_size,
                            params.tgt_vocab_size)
             if params.use_lexicon else None)
    rng = np.random.default_rng(71)
    sources = [tuple(int(f) for f in rng.integers(0, 6, n))
               for n in (3, 1, 6, 3, 2, 12, 9, 20, 26)[:count]]
    live, walk_stack = [], train_mod._walk_stack

    def spy(params, enc, n_rows, choose):
        def seen(t, rows, sentences, counts, probs):
            live.append(list(counts))
            return choose(t, rows, sentences, counts, probs)
        return walk_stack(params, enc, n_rows, seen)
    monkeypatch.setattr(train_mod, "_walk_stack", spy)
    got = train_mod._sampled(params, sources, num_samples, 8,
                             [np.random.default_rng([72, j])
                              for j in range(count)], table)
    blocks = [{-(-n // BLOCK_ROWS) for n in counts} for counts in live]
    for j, (F, (samples, logp)) in enumerate(zip(sources, got)):
        # the walk of mrt_loss: the sentence's training stack alone
        walk = walk_stack(
            params, _source_context(params, [F], table), num_samples,
            train_mod._drawing(params.tgt_eos,
                               [np.random.default_rng([72, j])], [8]),
            keep=True)
        assert samples == walk.words
        assert logp.tolist() == _logprobs(walk).tolist()
        assert samples == sample_translations(
            params, F, num_samples, 8, np.random.default_rng([72, j]), table)
    assert len({len(s) for samples, _ in got for s in samples}) > 1
    if count > 1:  # sentences of a stack with different live rows
        assert any(len(set(counts)) > 1 for counts in live)
        assert (num_samples > BLOCK_ROWS) == any(len(b) > 1 for b in blocks)


def test_a_drawn_sample_scores_alike_under_teacher_forcing():
    # a sample's log-probability as drawn in a stack is what teacher
    # forcing scores it, so the dev check weighs a sample set as
    # mrt_loss_frozen does
    params = tiny_model(seed=73, attention="mlp", use_lexicon=True,
                        init_scale=0.5)
    table = random_lexicon(np.random.default_rng(73), params.src_vocab_size,
                           params.tgt_vocab_size)
    sources = [(1, 2, 3), (4,), (5, 0), (1, 4, 2, 0, 5, 3, 3, 1, 0, 2, 4, 5)]
    E = (3, 4)
    drawn = train_mod._sampled(params, sources, 8, None,
                               [np.random.default_rng([74, j])
                                for j in range(len(sources))], table)
    for F, (samples, logp) in zip(sources, drawn):
        enc = _source_context(params, [F], table)
        assert (_logprobs(_teacher_forced(params, enc, samples)).tolist()
                == logp.tolist())
        first = train_mod._first_draws(samples)
        distinct = [samples[r] for r in first]
        assert len(distinct) > 1
        want = train_mod._expected_error(params, E, distinct, logp[first],
                                         0.5)[0]
        assert mrt_loss_frozen(params, F, E, distinct, 0.5, table)[0] == want


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr_schedule=())
    with pytest.raises(ValueError):
        TrainConfig(lr_schedule=(0.1, -0.1))
    with pytest.raises(ValueError):
        TrainConfig(word_budget=0)
    with pytest.raises(ValueError):
        TrainConfig(clip_norm=0.0)
    with pytest.raises(ValueError):  # nan passes a plain <= 0 check
        TrainConfig(clip_norm=float("nan"))
    with pytest.raises(ValueError):
        TrainConfig(lr_schedule=(0.1, float("nan")))
    with pytest.raises(ValueError):
        TrainConfig(patience=0)
    with pytest.raises(ValueError):
        TrainConfig(mrt=MrtSettings(num_samples=1))
    with pytest.raises(ValueError):
        TrainConfig(mrt=MrtSettings(alpha=0.0))
    with pytest.raises(ValueError):
        TrainConfig(mrt=MrtSettings(alpha=float("nan")))
    with pytest.raises(ValueError, match="seed must be >= 0"):
        TrainConfig(seed=-1)
    # no MRT epoch would write the initial model back as the result
    for bad in ({"max_epochs": 0}, {"max_epochs": -1},
                {"mrt": MrtSettings(max_sample_len=0)},
                {"mrt": MrtSettings(epochs=0)}):
        with pytest.raises(ValueError, match=">= 1"):
            TrainConfig(**bad)
    assert TrainConfig(max_epochs=None).max_epochs is None
    assert TrainConfig().initial_lr == 0.001


def test_lexicon_model_rejects_missing_table():
    # a lexicon-trained model evaluated without the table would silently
    # score unbiased, so every entry point refuses instead
    params = tiny_model(use_lexicon=True)
    pair = SentencePair((1, 2), (3, 4))
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="lexicon table is required"):
        nll_loss(params, [pair])
    with pytest.raises(ValueError, match="lexicon table is required"):
        corpus_nll(params, [pair])
    with pytest.raises(ValueError, match="lexicon table is required"):
        token_accuracy(params, [pair])
    with pytest.raises(ValueError, match="lexicon table is required"):
        sample_translations(params, (1, 2), 1, 5, rng)
    with pytest.raises(ValueError, match="lexicon table is required"):
        mrt_loss_frozen(params, (1, 2), (3,), [(3, 0)], alpha=1.0)
    with pytest.raises(ValueError, match="lexicon table is required"):
        mean_sampled_sbleu(params, [pair], 2, rng)
