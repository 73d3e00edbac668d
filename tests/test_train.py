"""Optimizer, losses, minimum-risk machinery, and training-loop tests."""

import json

import numpy as np
import pytest

import lexnmt.model as model_mod
import lexnmt.train as train_mod
from lexnmt.corpus import SentencePair
from lexnmt.errors import DataError, NumericalError
from lexnmt.metrics import sbleu
from lexnmt.model import decoder_step, encode, init_decoder_state, sentence_logprob
from lexnmt.train import (MrtSettings, OptimizerState, TrainConfig,
                          adam_update, clip_gradients, corpus_nll,
                          expected_sampled_error, gradient_norm,
                          mean_sampled_sbleu, mrt_expected_error, mrt_loss,
                          mrt_loss_frozen, mrt_weights, nll_loss,
                          sample_translation, token_accuracy, train_ml,
                          train_mrt)

from helpers import copy_pairs, count_calls, random_lexicon, tiny_model
from oracles import ref_adam_sequence


# ---------------------------------------------------------------------------
# optimizer
# ---------------------------------------------------------------------------

def test_adam_matches_scalar_reference():
    params = tiny_model(seed=30)
    params.tensors["dec_b"][:] = 0.0
    opt = OptimizerState(params.tensors)
    gs = [0.3, -1.1, 0.7, 0.05, 2.0]
    got = []
    for g in gs:
        grad = np.zeros_like(params.tensors["dec_b"])
        grad[0] = g
        adam_update(params, {"dec_b": grad}, opt, lr=0.01)
        got.append(params.tensors["dec_b"][0])
    want = ref_adam_sequence(0.0, gs, 0.01)
    assert np.allclose(got, want, rtol=0, atol=1e-15)
    # untouched entries must not move (zero gradient, zero moments)
    assert not params.tensors["dec_b"][1:].any()


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


def test_corpus_nll_is_token_averaged():
    params = tiny_model(seed=34)
    pairs = [SentencePair((1,), (2, 3)), SentencePair((2, 4), (5,))]
    total = -sum(sentence_logprob(params, p.source,
                                  tuple(p.target) + (params.tgt_eos,))
                 for p in pairs)
    tokens = sum(len(p.target) + 1 for p in pairs)
    assert corpus_nll(params, pairs) == pytest.approx(total / tokens, rel=1e-9)


def test_token_accuracy_counts_argmax_matches():
    params = tiny_model(seed=35)
    pairs = [SentencePair((1, 2), (3, 4)), SentencePair((5,), (1,))]
    correct = 0
    total = 0
    for p in pairs:
        enc = encode(p.source, params)
        state = init_decoder_state(enc, params)
        prev = params.tgt_eos
        for e in tuple(p.target) + (params.tgt_eos,):
            state, probs = decoder_step(prev, state, enc, params)
            correct += int(np.argmax(probs) == e)
            total += 1
            prev = e
    assert token_accuracy(params, pairs) == pytest.approx(correct / total)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------

def test_sample_translation_is_reproducible_and_bounded():
    params = tiny_model(seed=36)
    F = (1, 2, 3)
    a = sample_translation(params, F, 8, np.random.default_rng(5))
    b = sample_translation(params, F, 8, np.random.default_rng(5))
    assert a == b
    for seed in range(20):
        s = sample_translation(params, F, 8, np.random.default_rng(seed))
        assert 1 <= len(s) <= 8
        assert params.tgt_eos not in s[:-1]  # sentence end only terminal
    with pytest.raises(ValueError):
        sample_translation(params, F, 0, np.random.default_rng(0))


def test_sample_translation_first_token_frequencies():
    # with max_len 1 each call draws exactly one token from the first-step
    # distribution; empirical frequencies must agree within 4 sigma
    params = tiny_model(seed=37)
    F = (2, 4)
    enc = encode(F, params)
    _, probs = decoder_step(params.tgt_eos, init_decoder_state(enc, params),
                            enc, params)
    rng = np.random.default_rng(11)
    n = 4000
    counts = np.zeros(params.tgt_vocab_size)
    for _ in range(n):
        counts[sample_translation(params, F, 1, rng)[0]] += 1
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
    draws = iter(fixed)
    monkeypatch.setattr(train_mod, "_sample_g", lambda *a, **k: next(draws))
    loss, grads = mrt_loss(params, (1, 2), (3,), num_samples=4, alpha=0.5,
                           rng=np.random.default_rng(0))
    want_loss, want_grads = mrt_loss_frozen(params, (1, 2), (3,),
                                            [(3, eos), (2, 4, eos)], 0.5)
    assert loss == pytest.approx(want_loss, rel=1e-12)
    for name in grads:
        assert np.allclose(grads[name], want_grads[name], rtol=1e-12,
                           atol=1e-15)


def test_mrt_loss_encodes_and_builds_lexicon_once(monkeypatch):
    # the N draws and the scoring of every distinct sample share one source
    # context: one encoder pass and one L_F per sentence
    params = tiny_model(seed=51, use_lexicon=True, init_scale=0.5)
    table = random_lexicon(np.random.default_rng(51), params.src_vocab_size,
                           params.tgt_vocab_size)
    encodes = count_calls(monkeypatch, model_mod, "_encode_g")
    builds = count_calls(monkeypatch, model_mod, "build_lexicon_matrix")
    draws = count_calls(monkeypatch, train_mod, "_sample_g")
    scored = count_calls(monkeypatch, train_mod, "_expected_error_g")
    mrt_loss(params, (1, 2, 3), (3, 4), num_samples=6, alpha=0.5,
             rng=np.random.default_rng(5), lexicon=table)
    assert len(draws) == 6
    _, _, _, distinct, _ = scored[0]
    assert len(distinct) >= 2
    assert len(encodes) == 1
    assert len(builds) == 1


def test_mrt_loss_validation(monkeypatch):
    params = tiny_model(seed=40)
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="num_samples"):
        mrt_loss(params, (1,), (2,), num_samples=1, rng=rng)
    with pytest.raises(ValueError, match="alpha"):
        mrt_loss(params, (1,), (2,), alpha=0.0, rng=rng)
    with pytest.raises(ValueError, match="rng"):
        mrt_loss(params, (1,), (2,))
    monkeypatch.setattr(train_mod, "_sample_g",
                        lambda *a, **k: (params.tgt_eos,))
    with pytest.raises(ValueError, match="empty"):
        mrt_loss(params, (1,), (2,), num_samples=4, rng=rng)


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
        for _ in range(3):
            s = sample_translation(params, pair.source, 6, rng, table)
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


def test_train_ml_lr_schedule_and_early_stop():
    params, pairs, config = _schedule_fixture()
    dev_values = [5.0, 4.0, 4.5, 4.5, 4.5, 4.5, 4.5, 4.5]
    snapshots = []
    calls = iter(dev_values)

    def stub(p):
        snapshots.append({k: v.copy() for k, v in p.tensors.items()})
        return next(calls)

    best, records = train_ml(params, pairs, pairs[:1], config,
                             dev_eval_fn=stub)
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


def test_train_ml_halving_reloads_best_weights():
    params, pairs, config = _schedule_fixture()
    dev_values = iter([5.0, 9.0, 9.0, 9.0, 9.0, 9.0, 9.0])
    snapshots = []

    def stub(p):
        snapshots.append({k: v.copy() for k, v in p.tensors.items()})
        return next(dev_values)

    best, _ = train_ml(params, pairs, pairs[:1], config, dev_eval_fn=stub)
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
                                 np.random.default_rng(3))
    assert 0.0 <= err <= 1.0


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(lr_schedule=())
    with pytest.raises(ValueError):
        TrainConfig(lr_schedule=(0.1, -0.1))
    with pytest.raises(ValueError):
        TrainConfig(word_budget=0)
    with pytest.raises(ValueError):
        TrainConfig(clip_norm=0.0)
    with pytest.raises(ValueError):
        TrainConfig(patience=0)
    with pytest.raises(ValueError):
        TrainConfig(mrt=MrtSettings(num_samples=1))
    with pytest.raises(ValueError):
        TrainConfig(mrt=MrtSettings(alpha=0.0))
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
        sample_translation(params, (1, 2), 5, rng)
    with pytest.raises(ValueError, match="lexicon table is required"):
        mrt_loss_frozen(params, (1, 2), (3,), [(3, 0)], alpha=1.0)
    with pytest.raises(ValueError, match="lexicon table is required"):
        mean_sampled_sbleu(params, [pair], 2, rng)
