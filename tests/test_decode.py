"""Beam search, ensembling, and word-penalty tests."""

import numpy as np
import pytest

import lexnmt.decode as decode_mod
import lexnmt.model as model_mod
from lexnmt.decode import (Hypothesis, beam_search, ensemble_distribution,
                           greedy_decode, score_hypothesis, translate)
from lexnmt.model import (decoder_step, encode, init_decoder_state,
                          init_params)

from helpers import count_calls, random_lexicon, tiny_model
from oracles import argmax_hypothesis, enumerate_complete


def _tiny(seed, tgt_size=4, init_scale=0.02, **kw):
    # small weights keep every per-step probability below exp(-0.8), which
    # makes early termination exact under the word penalties tested here
    return tiny_model(src_size=4, tgt_size=tgt_size, d=3, seed=seed,
                      init_scale=init_scale, **kw)


def _oracle_best(models, F, max_len, word_penalty):
    complete = enumerate_complete(models, F, max_len, decoder_step, encode,
                                  init_decoder_state)
    return argmax_hypothesis(complete, word_penalty)


# ---------------------------------------------------------------------------
# scores
# ---------------------------------------------------------------------------

def test_score_is_affine_in_length():
    hyp = Hypothesis(tokens=(3, 1, 4, 1, 5, 9, 2, 6, 5, 0), logprob=-10.0,
                     states=None, complete=True)
    assert score_hypothesis(hyp, 0.8) == -2.0  # dyadic values: exact
    assert score_hypothesis(hyp, 0.0) == -10.0
    assert score_hypothesis(hyp, -0.5) == -15.0


# ---------------------------------------------------------------------------
# exactness against exhaustive enumeration
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("word_penalty", [0.0, 0.8])
def test_wide_beam_matches_exhaustive_search(word_penalty):
    for seed in range(12):
        rng = np.random.default_rng(seed)
        model = _tiny(seed, tgt_size=int(rng.integers(3, 5)))
        F = tuple(int(x) for x in rng.integers(0, 4, int(rng.integers(1, 4))))
        max_len = int(rng.integers(2, 6))
        beam = (model.tgt_vocab_size - 1) ** max_len
        got = beam_search(model, F, beam_size=beam,
                          word_penalty=word_penalty, max_len=max_len)
        want_tokens, want_lp = _oracle_best(model, F, max_len, word_penalty)
        assert got.complete
        assert got.tokens == want_tokens
        assert got.logprob == want_lp  # same accumulation order: bitwise


def test_wide_beam_matches_exhaustive_search_for_ensembles():
    for seed in (1, 5):
        a = _tiny(seed)
        b = _tiny(seed + 100)
        F = (2, 0)
        got = beam_search([a, b], F, beam_size=81, max_len=4)
        want_tokens, want_lp = _oracle_best([a, b], F, 4, 0.0)
        assert got.tokens == want_tokens
        assert got.logprob == want_lp


# ---------------------------------------------------------------------------
# beam width and termination behavior
# ---------------------------------------------------------------------------

def test_greedy_is_beam_size_one():
    model = _tiny(2, init_scale=1.0)
    F = (1, 3, 2)
    g = greedy_decode(model, F)
    b = beam_search(model, F, beam_size=1)
    assert g == b


def test_wider_beam_can_beat_greedy():
    # pinned seed where the greedy path is not the search optimum
    model = tiny_model(src_size=5, tgt_size=5, d=3, seed=4, init_scale=1.5)
    F = (1, 2, 3)
    g = greedy_decode(model, F)
    wide = beam_search(model, F, beam_size=8)
    assert score_hypothesis(wide, 0.0) > score_hypothesis(g, 0.0)
    assert wide.tokens != g.tokens


def test_tie_break_prefers_lexicographically_smaller(monkeypatch):
    # scripted distributions: continuations (1, eos) and (2, eos) tie exactly
    eos = 0
    table = {
        (): np.array([0.05, 0.25, 0.25, 0.45]),
        (1,): np.array([0.9, 1 / 30, 1 / 30, 1 / 30]),
        (2,): np.array([0.9, 1 / 30, 1 / 30, 1 / 30]),
        (3,): np.array([0.1, 0.3, 0.3, 0.3]),
    }

    def fake_step(gp, prev, state, enc):
        prefix = state if prev == eos and not state else state + (prev,)
        probs = table.get(prefix, np.array([1.0, 0.0, 0.0, 0.0]))
        return prefix, probs

    model = _tiny(3)
    monkeypatch.setattr(decode_mod, "_source_context", lambda gp, F, lex: None)
    monkeypatch.setattr(decode_mod, "_init_state_g", lambda gp, e: ())
    monkeypatch.setattr(decode_mod, "_step_probs", fake_step)
    best = beam_search(model, (1,), beam_size=4, max_len=5)
    assert best.tokens == (1, eos)
    assert best.logprob == pytest.approx(np.log(0.25) + np.log(0.9))


def test_shorter_hypothesis_wins_exact_score_tie(monkeypatch):
    # uniform next-word distribution forever: with word penalty log(V) every
    # completion scores exactly zero and the shortest one must be returned
    eos = 0
    V = 4
    uniform = np.full(V, 1.0 / V)
    monkeypatch.setattr(decode_mod, "_source_context", lambda gp, F, lex: None)
    monkeypatch.setattr(decode_mod, "_init_state_g", lambda gp, e: ())
    monkeypatch.setattr(decode_mod, "_step_probs",
                        lambda gp, prev, state, enc: ((), uniform))
    model = _tiny(3)
    best = beam_search(model, (1, 2), beam_size=6, max_len=6,
                       word_penalty=float(np.log(V)))
    assert best.tokens == (eos,)


def test_length_cap_returns_best_completion():
    # sentence-end strongly suppressed: the cap stops the search and the best
    # completion recorded along the way comes back (trivially the length-one
    # one, since every longer completion pays the same end penalty and more)
    model = _tiny(6)
    model.tensors["softmax_b"][model.tgt_eos] = -40.0
    hyp = beam_search(model, (1, 2), beam_size=3, max_len=4)
    assert hyp.complete
    assert hyp.tokens == (model.tgt_eos,)
    assert translate(model, (1, 2), beam_size=3, max_len=4) == []


def test_input_validation():
    model = _tiny(7)
    with pytest.raises(ValueError, match="empty"):
        beam_search(model, ())
    with pytest.raises(ValueError, match="beam_size"):
        beam_search(model, (1,), beam_size=0)
    with pytest.raises(ValueError, match="max_len"):
        beam_search(model, (1,), max_len=0)
    with pytest.raises(ValueError, match="at least one"):
        beam_search([], (1,))


# ---------------------------------------------------------------------------
# ensembles
# ---------------------------------------------------------------------------

def test_ensemble_distribution_is_arithmetic_mean():
    p = np.array([0.5, 0.3, 0.2])
    q = np.array([0.1, 0.1, 0.8])
    assert np.array_equal(ensemble_distribution([p, q]), (p + q) / 2)
    assert np.array_equal(ensemble_distribution([p]), p)
    with pytest.raises(ValueError, match="mismatched"):
        ensemble_distribution([p, np.ones(4) / 4])
    with pytest.raises(ValueError):
        ensemble_distribution([])


def test_ensemble_of_identical_models_equals_single():
    model = _tiny(8, init_scale=1.0)
    F = (3, 1)
    single = beam_search(model, F, beam_size=4)
    double = beam_search([model, model.copy()], F, beam_size=4)
    assert double.tokens == single.tokens
    assert double.logprob == single.logprob  # mean of equal halves is exact


def test_ensemble_builds_one_context_per_member(monkeypatch):
    # parameters are wrapped, the source encoded and L_F built once per member
    # and sentence, however many decoder steps the search takes
    a = _tiny(11, use_lexicon=True)
    b = _tiny(12, use_lexicon=True)
    table = random_lexicon(np.random.default_rng(11), 4, 4)
    wraps = []
    wrap = model_mod.GraphParams.__init__
    monkeypatch.setattr(model_mod.GraphParams, "__init__",
                        lambda gp, params: wraps.append(params)
                        or wrap(gp, params))
    encodes = count_calls(monkeypatch, model_mod, "_encode_g")
    builds = count_calls(monkeypatch, model_mod, "build_lexicon_matrix")
    steps = count_calls(monkeypatch, model_mod, "_decoder_step_g")
    for m in (a, b):  # sentence end suppressed: search runs to the cap
        m.tensors["softmax_b"][m.tgt_eos] = -40.0
    beam_search([a, b], (1, 3, 2), beam_size=3, max_len=6, lexicon=table)
    assert len(steps) == 2 * (1 + 3 * 5)
    assert [id(p) for p in wraps] == [id(a), id(b)]
    assert len(encodes) == 2
    assert len(builds) == 2


def test_ensemble_rejects_mismatched_targets():
    a = _tiny(9)
    b = init_params(4, 9, d_emb=3, d_hid=3, seed=9)
    with pytest.raises(ValueError, match="mismatched target"):
        beam_search([a, b], (1,))


# ---------------------------------------------------------------------------
# word penalty and translate
# ---------------------------------------------------------------------------

def test_positive_word_penalty_never_shortens_output():
    lengths = {0.0: [], 0.8: []}
    for seed in range(10):
        model = _tiny(seed)
        F = (seed % 4, (seed + 1) % 4)
        for penalty in lengths:
            hyp = beam_search(model, F, beam_size=5, word_penalty=penalty)
            lengths[penalty].append(len(hyp.tokens))
    assert np.mean(lengths[0.8]) >= np.mean(lengths[0.0])


def test_translate_strips_terminal_sentence_end():
    model = _tiny(10, init_scale=1.0)
    F = (1, 2)
    hyp = beam_search(model, F, beam_size=4)
    out = translate(model, F, beam_size=4)
    assert hyp.complete and hyp.tokens[-1] == model.tgt_eos
    assert tuple(out) == hyp.tokens[:-1]
    assert model.tgt_eos not in out
