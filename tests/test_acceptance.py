"""Acceptance gate: the ten properties this package commits to.

Each test states its tolerance inline.  The training-based properties run on
synthetic copy/dictionary tasks small enough for single-core CI; fixed seeds
make every number here reproducible.
"""

import time

import numpy as np
import pytest

from lexnmt.align import ibm1_train
from lexnmt.cli import main
from lexnmt.corpus import SentencePair, make_minibatches
from lexnmt.decode import Hypothesis, beam_search, score_hypothesis, translate
from lexnmt.metrics import bleu, sbleu
from lexnmt.model import init_params
from lexnmt.train import (MrtSettings, OptimizerState, TrainConfig,
                          adam_update, clip_gradients, corpus_nll,
                          mrt_loss_frozen, nll_loss, train_ml, train_mrt)

from helpers import (copy_pairs, dict_pairs, graph_stepper, perfect_lexicon,
                     random_lexicon, tiny_model, word_permutation)
from oracles import (argmax_hypothesis, enumerate_complete,
                     mean_sampled_sbleu, ref_bleu, ref_ibm1, ref_sbleu,
                     token_accuracy)

VOCAB = 20
WIDTH = 32


# ---------------------------------------------------------------------------
# shared trained models (copy task, two seeds)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def copy_task():
    rng = np.random.default_rng(1234)
    return copy_pairs(rng, 500, vocab=VOCAB), copy_pairs(rng, 60, vocab=VOCAB)


def _train_copy_model(train_pairs, dev_pairs, seed):
    params = init_params(VOCAB, VOCAB, d_emb=WIDTH, d_hid=WIDTH, seed=seed)
    config = TrainConfig(lr_schedule=(0.002, 0.001, 0.0005), word_budget=50,
                         dev_check_interval=500, patience=5000,
                         max_epochs=15, seed=seed)
    start = time.perf_counter()
    best, records = train_ml(params, train_pairs, dev_pairs, config)
    return best, records, time.perf_counter() - start


@pytest.fixture(scope="module")
def trained_a(copy_task):
    return _train_copy_model(*copy_task, seed=1)


@pytest.fixture(scope="module")
def trained_b(copy_task):
    return _train_copy_model(*copy_task, seed=2)


def _greedy_bleu(params, pairs, word_penalty=0.0, beam_size=1):
    hyps, refs = [], []
    for pair in pairs:
        out = translate(params, pair.source, beam_size=beam_size,
                        word_penalty=word_penalty)
        hyps.append([str(t) for t in out])
        refs.append([str(t) for t in pair.target])
    return bleu(hyps, refs)


# ---------------------------------------------------------------------------
# 1. gradient correctness
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_gradients_match_central_finite_differences():
    # per-tensor relative error ||num - ana|| / max(||num||, ||ana||) < 1e-4
    # over a fixed random subsample of >= 40 coordinates per tensor; the
    # per-entry quotient is meaningless on near-zero entries, where central
    # differences bottom out at the eps*|loss|/h rounding floor
    F = (2, 5, 9, 13, 17)
    E = (3, 8, 12, 19)
    samples = [(3, 8, 0), (12, 0), (8, 8, 12, 19), (0,), (3, 12, 19, 0)]
    h = 1e-5
    start = time.perf_counter()
    worst = 0.0

    for attention in ("dot", "mlp"):
        for use_lex in (False, True):
            params = init_params(VOCAB, VOCAB, d_emb=8, d_hid=8,
                                 attention=attention, use_lexicon=use_lex,
                                 epsilon=1e-3, seed=7, init_scale=0.8)
            lex = (random_lexicon(np.random.default_rng(3), VOCAB, VOCAB)
                   if use_lex else None)
            pair = SentencePair(F, E)
            losses = {
                "nll": lambda: nll_loss(params, [pair], lex),
                "mrt": lambda: mrt_loss_frozen(params, F, E, samples,
                                               alpha=1.0, lexicon=lex),
            }
            for tag, loss_fn in losses.items():
                _, grads = loss_fn()
                pick = np.random.default_rng(5150)
                for name, arr in params.tensors.items():
                    flat = arr.reshape(-1)
                    n = min(40, flat.size)
                    idxs = pick.choice(flat.size, n, replace=False)
                    num = np.zeros(n)
                    for k, i in enumerate(idxs):
                        orig = flat[i]
                        flat[i] = orig + h
                        up, _ = loss_fn()
                        flat[i] = orig - h
                        down, _ = loss_fn()
                        flat[i] = orig
                        num[k] = (up - down) / (2 * h)
                    ana = grads[name].reshape(-1)[idxs]
                    rel = np.linalg.norm(num - ana) / max(
                        np.linalg.norm(num), np.linalg.norm(ana), 1e-12)
                    assert rel < 1e-4, \
                        f"{attention} lex={use_lex} {tag} {name}: {rel:.2e}"
                    worst = max(worst, rel)

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"gradient check took {elapsed:.0f}s"
    assert worst < 1e-4


# ---------------------------------------------------------------------------
# 2. beam search is exact when the beam covers the search space
# ---------------------------------------------------------------------------

def test_beam_search_matches_exhaustive_argmax_on_100_models():
    agree = 0
    trials = 0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        tgt_size = int(rng.integers(3, 5))  # vocab <= 4
        model = tiny_model(src_size=4, tgt_size=tgt_size, d=3,
                           attention="dot" if seed % 2 else "mlp",
                           seed=seed, init_scale=0.02)
        F = tuple(int(x) for x in rng.integers(0, 4, int(rng.integers(1, 4))))
        max_len = int(rng.integers(2, 6))  # max_len <= 5
        beam = (tgt_size - 1) ** max_len  # covers every live prefix
        complete = enumerate_complete(model, max_len,
                                      *graph_stepper(model, F))
        for penalty in (0.0, 0.8):
            got = beam_search(model, F, beam_size=beam, word_penalty=penalty,
                              max_len=max_len)
            want_tokens, want_lp = argmax_hypothesis(complete, penalty)
            trials += 1
            agree += int(got.tokens == want_tokens and got.logprob == want_lp)
    assert agree == trials == 200  # 100% agreement required


# ---------------------------------------------------------------------------
# 3. metrics against a brute-force counter
# ---------------------------------------------------------------------------

def test_metrics_match_brute_force_oracle():
    rng = np.random.default_rng(303)

    def sentence(lmin=0):
        n = int(rng.integers(lmin, 10))
        return [f"w{int(rng.integers(6))}" for _ in range(n)]

    for _ in range(100):
        hyp, ref = sentence(), sentence(lmin=1)
        assert sbleu(hyp, ref) == ref_sbleu(hyp, ref)
    for _ in range(100):
        k = int(rng.integers(1, 4))
        hyps = [sentence() for _ in range(k)]
        refs = [sentence(lmin=1) for _ in range(k)]
        assert bleu(hyps, refs) == ref_bleu(hyps, refs)
    assert sbleu("a b c".split(), "a b d".split()) == \
        pytest.approx(0.6866, abs=1e-4)


# ---------------------------------------------------------------------------
# 4. copy-task convergence
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_copy_task_convergence(trained_a, copy_task):
    best, records, elapsed = trained_a
    _, dev = copy_task
    accuracy = token_accuracy(best, dev)
    nll = corpus_nll(best, dev)
    epochs_used = -(-records[-1]["sentences_seen"] // 500)  # 500 train pairs
    assert accuracy >= 0.99
    assert nll < 0.05
    assert epochs_used <= 30
    assert elapsed < 600.0, f"training took {elapsed:.0f}s"


# ---------------------------------------------------------------------------
# 5. the lexicon bias speeds up dictionary translation
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_lexicon_reaches_90_percent_no_slower():
    perm = word_permutation(np.random.default_rng(99), vocab=VOCAB)
    table = perfect_lexicon(perm)
    cap = 10

    def epochs_to_target(params, train_pairs, dev_pairs, lexicon, seed):
        batches = make_minibatches(train_pairs, 50)
        order = np.random.default_rng(seed)
        opt = OptimizerState(params.tensors)
        for epoch in range(1, cap + 1):
            for bi in order.permutation(len(batches)):
                _, grads = nll_loss(params, batches[bi], lexicon)
                clip_gradients(grads, 5.0)
                adam_update(params, grads, opt, 0.002)
            if token_accuracy(params, dev_pairs, lexicon) >= 0.90:
                return epoch
        return cap + 1  # censored: did not reach the target

    with_lex, without_lex = [], []
    for seed in range(5):
        rng = np.random.default_rng(1000 + seed)
        train_pairs = dict_pairs(rng, 300, perm, vocab=VOCAB)
        dev_pairs = dict_pairs(rng, 50, perm, vocab=VOCAB)
        for bucket, lexicon in ((with_lex, table), (without_lex, None)):
            params = init_params(VOCAB, VOCAB, d_emb=WIDTH, d_hid=WIDTH,
                                 use_lexicon=lexicon is not None,
                                 epsilon=1e-6, seed=seed)
            bucket.append(epochs_to_target(params, train_pairs, dev_pairs,
                                           lexicon, seed))

    assert max(with_lex) <= cap  # the biased model genuinely gets there
    assert np.median(with_lex) <= np.median(without_lex)


# ---------------------------------------------------------------------------
# 6. word penalty: affine score, never-shorter output
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_word_penalty_is_affine_and_lengthens_output(trained_a, copy_task):
    # dyadic penalties and log-probabilities make the identity bitwise exact;
    # for non-dyadic penalties the one rounding in the add leaves at most a
    # couple of ulps, which is as exact as lp + penalty*n can be in binary64
    for logprob in (-0.5, -1.25, -3.0, -10.0):
        for n in (1, 2, 5, 10):
            hyp = Hypothesis(tuple(range(n)), logprob)
            for penalty in (0.25, 0.5, 1.5):
                delta = (score_hypothesis(hyp, penalty)
                         - score_hypothesis(hyp, 0.0))
                assert delta == penalty * n
            delta = score_hypothesis(hyp, 0.8) - score_hypothesis(hyp, 0.0)
            assert abs(delta - 0.8 * n) <= 2 * np.spacing(abs(logprob) + n)

    best, _, _ = trained_a
    _, dev = copy_task
    lengths = {0.0: [], 0.8: []}
    for pair in dev:
        for penalty in lengths:
            hyp = beam_search(best, pair.source, beam_size=5,
                              word_penalty=penalty)
            lengths[penalty].append(len(hyp.tokens))
    assert np.mean(lengths[0.8]) >= np.mean(lengths[0.0])


# ---------------------------------------------------------------------------
# 7. minimum-risk fine-tuning helps
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_mrt_improves_greedy_bleu_without_hurting_samples():
    improved = 0
    for seed in range(5):
        rng = np.random.default_rng(3000 + seed)
        train_pairs = copy_pairs(rng, 500, vocab=VOCAB)
        dev_pairs = copy_pairs(rng, 40, vocab=VOCAB)

        # warm maximum-likelihood start, stopped at 90% token accuracy
        params = init_params(VOCAB, VOCAB, d_emb=WIDTH, d_hid=WIDTH, seed=seed)
        batches = make_minibatches(train_pairs, 50)
        order = np.random.default_rng(seed)
        opt = OptimizerState(params.tensors)
        for _ in range(20):
            for bi in order.permutation(len(batches)):
                _, grads = nll_loss(params, batches[bi])
                clip_gradients(grads, 5.0)
                adam_update(params, grads, opt, 0.002)
            if token_accuracy(params, dev_pairs) >= 0.90:
                break

        bleu_before = _greedy_bleu(params, dev_pairs)
        sampled_before = mean_sampled_sbleu(
            params, dev_pairs, 8, np.random.default_rng((seed, 77)),
            max_sample_len=14)

        config = TrainConfig(lr_schedule=(0.0005, 0.00025, 0.000125),
                             seed=seed,
                             mrt=MrtSettings(num_samples=8, alpha=0.05,
                                             max_sample_len=14, epochs=2))
        tuned, _ = train_mrt(params, train_pairs[:150], dev_pairs, config)

        bleu_after = _greedy_bleu(tuned, dev_pairs)
        sampled_after = mean_sampled_sbleu(
            tuned, dev_pairs, 8, np.random.default_rng((seed, 77)),
            max_sample_len=14)

        assert sampled_after >= sampled_before - 0.01, \
            f"seed {seed}: sampled SBLEU fell {sampled_before:.4f} " \
            f"-> {sampled_after:.4f}"
        improved += int(bleu_after > bleu_before)
    assert improved >= 3, f"greedy BLEU improved in only {improved} of 5 seeds"


# ---------------------------------------------------------------------------
# 8. ensembling
# ---------------------------------------------------------------------------

@pytest.mark.slow
def test_ensemble_identity_and_member_floor(trained_a, trained_b, copy_task):
    a, _, _ = trained_a
    b, _, _ = trained_b
    _, dev = copy_task

    # identical members reproduce the single model output for output
    # tokens, and bitwise for the pair score ((p + p) / 2 is exact)
    for pair in dev[:10]:
        single = beam_search(a, pair.source, beam_size=5)
        doubled = beam_search([a, a.copy()], pair.source, beam_size=5)
        tripled = beam_search([a, a.copy(), a.copy()], pair.source,
                              beam_size=5)
        assert doubled.tokens == single.tokens
        assert doubled.logprob == single.logprob
        assert tripled.tokens == single.tokens

    def corpus_bleu(models):
        hyps = [[str(t) for t in translate(models, p.source, beam_size=5)]
                for p in dev]
        refs = [[str(t) for t in p.target] for p in dev]
        return bleu(hyps, refs)

    bleu_a = corpus_bleu(a)
    bleu_b = corpus_bleu(b)
    bleu_ab = corpus_bleu([a, b])
    assert bleu_ab >= min(bleu_a, bleu_b)


# ---------------------------------------------------------------------------
# 9. alignment EM against the hand-rolled oracle
# ---------------------------------------------------------------------------

def test_ibm1_matches_hand_rolled_em():
    pairs = [SentencePair((0, 1), (0, 1)), SentencePair((0,), (0,))]
    got = ibm1_train(pairs, 10)
    want = ref_ibm1([(p.source, p.target) for p in pairs], 10)
    for f, dist in want.items():
        for e, p in dist.items():
            assert got.prob(f, e) == pytest.approx(p, abs=1e-6)
    for f, dist in got.entries.items():
        assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)


# ---------------------------------------------------------------------------
# 10. byte-level determinism of checkpoints and train logs
# ---------------------------------------------------------------------------

def test_identical_runs_produce_identical_bytes(tmp_path):
    rng = np.random.default_rng(10)
    words_src = ["ichi", "ni", "san", "yon", "go"]
    words_tgt = ["one", "two", "three", "four", "five"]
    src_lines, tgt_lines = [], []
    for _ in range(12):
        idx = rng.integers(0, 5, rng.integers(1, 4))
        src_lines.append(" ".join(words_src[i] for i in idx))
        tgt_lines.append(" ".join(words_tgt[i] for i in idx))
    src = tmp_path / "c.src"
    tgt = tmp_path / "c.tgt"
    src.write_text("\n".join(src_lines) + "\n", encoding="utf-8")
    tgt.write_text("\n".join(tgt_lines) + "\n", encoding="utf-8")
    pre = tmp_path / "pre"
    assert main(["preprocess", "--train-src", str(src), "--train-tgt",
                 str(tgt), "--outdir", str(pre), "--merges", "8"]) == 0

    def run_train(run_dir):
        assert main(["train",
                     "--train-src", str(pre / "train.src"),
                     "--train-tgt", str(pre / "train.tgt"),
                     "--dev-src", str(pre / "train.src"),
                     "--dev-tgt", str(pre / "train.tgt"),
                     "--src-vocab", str(pre / "vocab.src"),
                     "--tgt-vocab", str(pre / "vocab.tgt"),
                     "--run-dir", str(run_dir), "--d-emb", "8",
                     "--d-hid", "8", "--max-epochs", "2",
                     "--dev-check", "6", "--seed", "13"]) == 0
        return ((run_dir / "model.ckpt").read_bytes(),
                (run_dir / "trainlog.jsonl").read_bytes())

    first = run_train(tmp_path / "ml1")
    second = run_train(tmp_path / "ml2")
    assert first == second

    def run_mrt(run_dir):
        assert main(["mrt-train",
                     "--train-src", str(pre / "train.src"),
                     "--train-tgt", str(pre / "train.tgt"),
                     "--dev-src", str(pre / "train.src"),
                     "--dev-tgt", str(pre / "train.tgt"),
                     "--init", str(tmp_path / "ml1" / "model.ckpt"),
                     "--run-dir", str(run_dir), "--samples", "3",
                     "--alpha", "1.0", "--mrt-epochs", "1",
                     "--max-sample-len", "8", "--seed", "13"]) == 0
        return ((run_dir / "model.ckpt").read_bytes(),
                (run_dir / "trainlog.jsonl").read_bytes())

    assert run_mrt(tmp_path / "mr1") == run_mrt(tmp_path / "mr2")
