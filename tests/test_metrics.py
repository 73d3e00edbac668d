"""BLEU and smoothed sentence-level BLEU tests against a brute-force oracle."""

import math

import numpy as np
import pytest

from lexnmt.metrics import bleu, length_ratio, mrt_error, sbleu

from oracles import ref_bleu, ref_sbleu


def _random_sentence(rng, vocab, lmax, lmin=0):
    n = int(rng.integers(lmin, lmax + 1))
    return [f"w{int(rng.integers(vocab))}" for _ in range(n)]


def test_sbleu_matches_oracle_exactly_on_random_pairs():
    rng = np.random.default_rng(101)
    for _ in range(100):
        hyp = _random_sentence(rng, 6, 9)
        ref = _random_sentence(rng, 6, 9, lmin=1)
        assert sbleu(hyp, ref) == ref_sbleu(hyp, ref)


def test_corpus_bleu_matches_oracle_exactly_on_random_pairs():
    rng = np.random.default_rng(202)
    for _ in range(100):
        k = int(rng.integers(1, 5))
        hyps = [_random_sentence(rng, 5, 8) for _ in range(k)]
        refs = [_random_sentence(rng, 5, 8, lmin=1) for _ in range(k)]
        assert bleu(hyps, refs) == ref_bleu(hyps, refs)


def test_sbleu_pinned_value():
    # precision 2/3 on unigrams, smoothed 2/3, 1/2, 1/1 above; no BP
    got = sbleu("a b c".split(), "a b d".split())
    want = (2 / 3 * 2 / 3 * 1 / 2 * 1) ** 0.25
    assert got == pytest.approx(0.6866, abs=1e-4)
    assert got == pytest.approx(want, rel=1e-12)


def test_sbleu_identity_and_disjoint():
    s = "the cat sat".split()
    assert sbleu(s, s) == pytest.approx(1.0)
    assert sbleu("x y".split(), "a b".split()) == 0.0
    assert sbleu([], "a".split()) == 0.0
    with pytest.raises(ValueError):
        sbleu("a".split(), [])


def test_sbleu_brevity_penalty_applies():
    hyp = "a b".split()
    ref = "a b c d".split()
    unsmoothed1 = 1.0  # both unigrams match
    s2 = 2 / 2  # (1+1)/(1+1)
    s3 = 1 / 1  # c3 = 0
    s4 = 1 / 1
    bp = math.exp(1 - 4 / 2)
    assert sbleu(hyp, ref) == pytest.approx(
        bp * (unsmoothed1 * s2 * s3 * s4) ** 0.25, rel=1e-12)


def test_corpus_bleu_zero_when_any_order_has_no_match():
    # no 4-gram match anywhere: geometric mean collapses to zero
    assert bleu(["a b c d".split()], ["a b c e".split()]) == 0.0


def test_corpus_bleu_perfect_and_scale():
    hyps = ["a b c d e".split(), "f g h i".split()]
    assert bleu(hyps, hyps) == pytest.approx(100.0)
    assert 0.0 < bleu(hyps, [h[:-1] + ["zz"] for h in hyps]) < 100.0


def test_corpus_bleu_clipping():
    # "the the the" vs "the cat": unigram matches clipped to ref count 1
    hyps = [["the"] * 7]
    refs = [["the", "cat", "sat", "on", "it", "x", "y"]]
    assert bleu(hyps, refs) == ref_bleu(hyps, refs)
    assert bleu(hyps, refs) == 0.0  # no bigram match


def test_corpus_bleu_input_validation():
    with pytest.raises(ValueError):
        bleu(["a".split()], [])
    with pytest.raises(ValueError):
        bleu([], [])
    # references of no tokens give no brevity penalty to compare against
    with pytest.raises(ValueError, match="references must be non-empty"):
        bleu(["a".split()], [[]])


def test_length_ratio_input_validation():
    with pytest.raises(ValueError, match="length mismatch"):
        length_ratio(["a".split()], ["a".split(), "b".split()])
    with pytest.raises(ValueError, match="references must be non-empty"):
        length_ratio(["a".split(), []], [[], []])


def test_mrt_error_is_one_minus_sbleu():
    ref = "a b c".split()
    hyp = "a b d".split()
    assert mrt_error(ref, hyp) == pytest.approx(1.0 - sbleu(hyp, ref), rel=1e-12)
    assert mrt_error(ref, ref) == pytest.approx(0.0)


def test_length_ratio():
    hyps = [["a"] * 9]
    refs = [["b"] * 10]
    assert length_ratio(hyps, refs) == pytest.approx(90.0)
    # order of sentences does not matter, only totals
    h2 = [["a"] * 4, ["a"] * 5]
    r2 = [["b"] * 6, ["b"] * 4]
    assert length_ratio(h2, r2) == pytest.approx(90.0)
