"""Beam search, ensembling, and word-penalty tests."""

import os
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lexnmt.decode as decode_mod
import lexnmt.model as model_mod
from lexnmt.decode import (Hypothesis, _best_children, beam_search,
                           beam_search_all, ensemble_distribution,
                           score_hypothesis, translate)
from lexnmt.model import BLOCK_ROWS, init_params, sentence_logprob

from helpers import count_calls, graph_stepper, random_lexicon, tiny_model
from oracles import argmax_hypothesis, enumerate_complete, greedy_decode


def _tiny(seed, tgt_size=4, init_scale=0.02, **kw):
    # small weights keep every per-step probability below exp(-0.8), so at
    # penalties up to 0.8 every later word lowers a key
    return tiny_model(src_size=4, tgt_size=tgt_size, d=3, seed=seed,
                      init_scale=init_scale, **kw)


def _oracle_best(models, F, max_len, word_penalty):
    complete = enumerate_complete(models, max_len, *graph_stepper(models, F))
    return argmax_hypothesis(complete, word_penalty)


# ---------------------------------------------------------------------------
# scores
# ---------------------------------------------------------------------------

def test_score_is_affine_in_length():
    hyp = Hypothesis(tokens=(3, 1, 4, 1, 5, 9, 2, 6, 5, 0), logprob=-10.0)
    assert score_hypothesis(hyp, 0.8) == -2.0  # dyadic values: exact
    assert score_hypothesis(hyp, 0.0) == -10.0
    assert score_hypothesis(hyp, -0.5) == -15.0


# ---------------------------------------------------------------------------
# exactness against exhaustive enumeration
# ---------------------------------------------------------------------------

# from 1.5 on, above log V, every later word raises a key: the early stop
# must bound what each line's length cap still allows
@pytest.mark.parametrize("word_penalty", [0.0, 0.8, 1.5, 2.5, 5.0])
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
        assert got.tokens[-1] == model.tgt_eos
        assert got.tokens == want_tokens
        assert got.logprob == want_lp  # same accumulation order: bitwise


def test_positive_penalty_search_goes_on_past_a_beaten_child():
    # at penalty 40 the first completion (eos,) scores 37.96 and its best
    # child's key is lower, yet (3, 3, eos) scores 113.78: search must go on
    # while the penalty still due to the cap could lift a child above it
    model = tiny_model(src_size=9, tgt_size=8, d=5, attention="mlp", seed=0,
                       init_scale=0.5)
    F = (1, 5, 7, 4)
    eos = model.tgt_eos
    hyp = beam_search(model, F, beam_size=5, word_penalty=40.0)
    beaten = score_hypothesis(
        Hypothesis((3, 3, eos), sentence_logprob(model, F, (3, 3, eos))), 40.0)
    assert round(beaten, 2) == 113.78
    assert len(hyp.tokens) == 2 * len(F) + 10  # the default cap
    assert round(score_hypothesis(hyp, 40.0), 2) == 683.48
    assert hyp.logprob == sentence_logprob(model, F, hyp.tokens)


def test_wide_beam_matches_exhaustive_search_for_ensembles():
    for seed in (1, 5):
        a = _tiny(seed)
        b = _tiny(seed + 100)
        F = (2, 0)
        got = beam_search([a, b], F, beam_size=81, max_len=4)
        want_tokens, want_lp = _oracle_best([a, b], F, 4, 0.0)
        assert got.tokens == want_tokens
        assert got.logprob == want_lp


@pytest.mark.parametrize("attention", ["dot", "mlp"])
@pytest.mark.parametrize("use_lexicon", [False, True],
                         ids=["plain", "lexicon"])
@pytest.mark.parametrize("members", [1, 2])
def test_search_score_equals_teacher_forced_score(attention, use_lexicon,
                                                  members):
    # search and teacher forcing step the same core in the same order, so
    # the score of the hypothesis found is the teacher-forced score bit for bit
    for seed in range(10):
        rng = np.random.default_rng(seed)
        models = [tiny_model(d=4, attention=attention, seed=10 * seed + k,
                             use_lexicon=use_lexicon, init_scale=0.5)
                  for k in range(members)]
        table = random_lexicon(rng, 6, 7) if use_lexicon else None
        F = tuple(int(x) for x in rng.integers(0, 6, int(rng.integers(1, 5))))
        # the penalty takes search past the bare sentence end, up to the cap
        hyp = beam_search(models, F, beam_size=3, word_penalty=2.0,
                          lexicon=table)
        assert hyp.tokens[-1] == models[0].tgt_eos
        assert hyp.logprob == sentence_logprob(models, F, hyp.tokens, table)


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


def _script(monkeypatch, row_step):
    """Run beam search on ``row_step(prefix, prev) -> (prefix, probs)``; the
    scripted block state is the token prefix of each row."""
    def fake_block(params, prev_ids, state, rows, enc):
        steps = [row_step(state[r], prev)  # one sentence: rows (1, B)
                 for r, prev in zip(np.ravel(rows), np.ravel(prev_ids))]
        return ([p for p, _ in steps],
                SimpleNamespace(probs=np.stack([probs for _, probs in steps])))

    monkeypatch.setattr(decode_mod, "_stacks", lambda models, sources, *a: [
        (range(len(sources)),
         [SimpleNamespace(init_state=[None]) for _ in models])])
    monkeypatch.setattr(model_mod, "_init_state", lambda *a: [()])
    monkeypatch.setattr(model_mod, "_block_step", fake_block)


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.data())
def test_block_child_selection_is_a_stable_argsort(data):
    # a few repeated values (-inf among them) force exact ties at the cut
    B, V = data.draw(st.integers(1, 6)), data.draw(st.integers(2, 8))
    eos = data.draw(st.integers(0, V - 1))
    k = data.draw(st.integers(1, B * V + 2))
    value = st.one_of(st.sampled_from([0.0, -0.5, -2.25, -np.inf]),
                      st.floats(-30.0, 0.0))
    scores = np.array(data.draw(st.lists(value, min_size=B * V,
                                         max_size=B * V))).reshape(B, V)
    live = np.array([v for v in range(V) if v != eos])
    want = np.argsort(-scores[:, live].ravel(), kind="stable")[:k]
    rows, words = _best_children(scores, eos, k)
    assert rows.tolist() == (want // len(live)).tolist()
    assert words.tolist() == live[want % len(live)].tolist()


def test_tie_break_prefers_lexicographically_smaller(monkeypatch):
    # scripted distributions: continuations (1, eos) and (2, eos) tie exactly
    eos = 0
    table = {
        (): np.array([0.05, 0.25, 0.25, 0.45]),
        (1,): np.array([0.9, 1 / 30, 1 / 30, 1 / 30]),
        (2,): np.array([0.9, 1 / 30, 1 / 30, 1 / 30]),
        (3,): np.array([0.1, 0.3, 0.3, 0.3]),
    }

    def fake_step(state, prev):
        prefix = state if prev == eos and not state else state + (prev,)
        probs = table.get(prefix, np.array([1.0, 0.0, 0.0, 0.0]))
        return prefix, probs

    model = _tiny(3)
    _script(monkeypatch, fake_step)
    best = beam_search(model, (1,), beam_size=4, max_len=5)
    assert best.tokens == (1, eos)
    assert best.logprob == pytest.approx(np.log(0.25) + np.log(0.9))


def test_shorter_hypothesis_wins_exact_score_tie(monkeypatch):
    # (eos,) completes first with log .25; the live child (1,) is ahead at
    # log .5, so search goes on and completes (1, eos) with log .5 + log .5,
    # which is log .25 exactly: the longer completion, found later, must not
    # replace the shorter one
    eos = 0
    assert np.log(0.5) + np.log(0.5) == np.log(0.25)
    table = {
        (): np.array([0.25, 0.5, 0.25, 0.0]),
        (1,): np.array([0.5, 0.5, 0.0, 0.0]),
    }

    scored = []

    def fake_step(state, prev):
        prefix = state if prev == eos and not state else state + (prev,)
        scored.append(prefix)
        return prefix, table.get(prefix, np.array([1.0, 0.0, 0.0, 0.0]))

    _script(monkeypatch, fake_step)
    best = beam_search(_tiny(3), (1, 2), beam_size=2, max_len=6)
    assert (1,) in scored  # the tying completion (1, eos) was scored
    assert best.tokens == (eos,)
    assert best.logprob == np.log(0.25)


def test_equal_children_keep_the_lexicographically_smaller_parent(
        monkeypatch):
    # (1, 3) and (2, 3) score log .25 + log .5 both ways; (2,) scores ahead
    # of (1,), and the smaller tokens (1, 3) must take the last place
    table = {
        (): np.array([0.01, 0.25, 0.5, 0.24, 0.0]),
        (1,): np.array([0.01, 0.0, 0.0, 0.5, 0.49]),
        (2,): np.array([0.01, 0.01, 0.01, 0.25, 0.72]),
        (1, 3): np.array([1.0, 0.0, 0.0, 0.0, 0.0]),
        (2, 3): np.array([1.0, 0.0, 0.0, 0.0, 0.0]),
    }

    def fake_step(state, prev):
        prefix = state if prev == 0 and not state else state + (prev,)
        return prefix, table.get(prefix, np.zeros(5))

    _script(monkeypatch, fake_step)
    best = beam_search(_tiny(3), (1,), beam_size=2, max_len=3)
    assert best.tokens == (1, 3, 0)


def test_children_are_chosen_by_penalized_score(monkeypatch):
    # word 1 is one ulp less likely than word 2, but adding the word penalty
    # rounds both keys to one value: the tie goes to the smaller word, which
    # choosing on the raw log-probabilities would miss
    penalty, p2 = 2.0, 0.49
    p1 = np.nextafter(p2, 0.0)
    assert np.log(p1) == np.nextafter(np.log(p2), -np.inf)
    assert np.log(p1) + penalty == np.log(p2) + penalty
    first = np.array([0.01, p1, p2, 0.01])

    def fake_step(state, prev):
        prefix = state if prev == 0 and not state else state + (prev,)
        return prefix, first if not prefix else np.array([1.0, 0, 0, 0])

    _script(monkeypatch, fake_step)
    best = beam_search(_tiny(3), (1,), beam_size=1, max_len=3,
                       word_penalty=penalty)
    assert best.tokens == (1, 0)


def test_length_cap_returns_best_completion():
    # sentence-end strongly suppressed: the cap stops the search and the best
    # completion recorded along the way comes back (trivially the length-one
    # one, since every longer completion pays the same end penalty and more);
    # with zero probability every completion scores -inf, and search still
    # returns the first one
    model = _tiny(6)
    for bias in (-40.0, -1e300):
        model.tensors["softmax_b"][model.tgt_eos] = bias
        hyp = beam_search(model, (1, 2), beam_size=3, max_len=4)
        assert hyp.tokens[-1] == model.tgt_eos
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
    for penalty in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="word_penalty"):
            beam_search(model, (1,), word_penalty=penalty)
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
    # the source is encoded once per member and its L_F built once for
    # all members, however many decoder steps the search takes
    a = _tiny(11, use_lexicon=True)
    b = _tiny(12, use_lexicon=True)
    table = random_lexicon(np.random.default_rng(11), 4, 4)
    encodes = count_calls(monkeypatch, model_mod, "_encode_g")
    builds = count_calls(monkeypatch, model_mod, "build_lexicon_matrix")
    steps = count_calls(monkeypatch, model_mod, "_block_step")
    for m in (a, b):  # sentence end suppressed: search runs to the cap
        m.tensors["softmax_b"][m.tgt_eos] = -40.0
    beam_search([a, b], (1, 3, 2), beam_size=3, max_len=6, lexicon=table)
    assert len(steps) == 2 * 6  # one block step per member and search step
    assert [id(args[0]) for args in encodes] == [id(a), id(b)]
    assert len(builds) == 1


def test_ensemble_rejects_mismatched_targets():
    a = _tiny(9)
    b = init_params(4, 9, d_emb=3, d_hid=3, seed=9)
    with pytest.raises(ValueError, match="mismatched target"):
        beam_search([a, b], (1,))


# ---------------------------------------------------------------------------
# stacked search of many lines
# ---------------------------------------------------------------------------

def _mixed_lines(rng, n, src_size, longest):
    return [tuple(int(f) for f in rng.integers(
        0, src_size, int(rng.integers(1, longest + 1)))) for _ in range(n)]


@pytest.mark.parametrize("beam", [1, 5, 10])
@pytest.mark.parametrize("members", [1, 2])
@pytest.mark.parametrize("word_penalty, max_len", [
    (0.5, None), (40.0, None), (0.0, 4)], ids=["ends", "own-caps", "max-len"])
def test_stacked_search_equals_search_of_each_line_alone(
        monkeypatch, beam, members, word_penalty, max_len):
    # the decode-identity contract: lines of mixed source lengths, searched
    # as one stack, each get what searching them alone gives, to the bit
    rng = np.random.default_rng(beam + 10 * members)
    models = [tiny_model(src_size=9, tgt_size=8, d=5, attention=attention,
                         seed=k, init_scale=0.5, use_lexicon=True)
              for k, attention in zip(range(members), ("mlp", "dot"))]
    if word_penalty > 1:  # no early end: each line runs to its own cap
        for m in models:
            m.tensors["softmax_b"][m.tgt_eos] = -40.0
    table = random_lexicon(rng, 9, 8)
    lines = _mixed_lines(rng, 12, 9, 14)
    searches = count_calls(monkeypatch, decode_mod, "_search")
    got = beam_search_all(models, lines, beam, word_penalty, max_len, table)
    assert len(searches) == 1  # one stack of every length
    for F, hyp in zip(lines, got):
        alone = beam_search(models, F, beam, word_penalty, max_len, table)
        assert hyp.tokens == alone.tokens
        assert hyp.logprob == alone.logprob
        if word_penalty > 1:
            assert len(hyp.tokens) == 2 * len(F) + 10


@pytest.mark.parametrize("V", [2000, 20], ids=["wide", "toy"])
def test_stack_cuts_keep_search_output(monkeypatch, V):
    # the byte budget cuts 32 lines into several stacks at a wide vocabulary
    # and into one at a toy one; either way each line gets what searching
    # it alone gives
    rng = np.random.default_rng(V)
    model = init_params(20, V, d_emb=8, d_hid=8, seed=V, init_scale=0.3)
    lines = _mixed_lines(rng, 32, 20, 6)
    searches = count_calls(monkeypatch, decode_mod, "_search")
    got = beam_search_all(model, lines, 5, 0.0, 6)
    # a cut under the budget makes at least total / budget stacks, and two
    # neighbouring stacks together pass it
    total = sum(model_mod._step_bytes(model, len(F), 5, None) for F in lines)
    fewest = -(-total // model_mod.STACK_BYTES)
    assert (fewest > 1) == (V == 2000)
    assert fewest <= len(searches) <= 2 * fewest
    for F, hyp in zip(lines, got):
        assert hyp == beam_search(model, F, 5, 0.0, 6)


def test_stacked_steps_pack_the_rows_of_all_sentences(monkeypatch):
    # a count, not a clock: each decoder step of a stack of S sentences of
    # B live rows steps ceil(S * B / 8) blocks, not S * ceil(B / 8)
    model = tiny_model(src_size=9, tgt_size=8, d=5, seed=3, init_scale=0.5,
                       use_lexicon=True)
    table = random_lexicon(np.random.default_rng(3), 9, 8)
    for lines, beam in [(_mixed_lines(np.random.default_rng(4), 12, 9, 6), 5),
                        ([(1, 2, 3)] * 16, 1)]:
        steps = count_calls(monkeypatch, model_mod, "_block_step")
        lstms = count_calls(monkeypatch, model_mod, "_lstm")
        if beam == 1:  # sentence end suppressed: every line runs to the cap
            model.tensors["softmax_b"][model.tgt_eos] = -40.0
        beam_search_all(model, lines, beam, 0.0, None, table)
        # (S, B) of each step: its stack's sentences and their rows
        shapes = [(len(args[4].init_state),
                   np.size(args[1]) // len(args[4].init_state))
                  for args in steps]
        rows = [args[2].size // args[2].shape[-1] for args in lstms
                if args[0].ndim == 2]  # the encoder's weights are stacked
        assert rows == [-(-S * B // BLOCK_ROWS) * BLOCK_ROWS for S, B in shapes]
        if beam == 1:  # 16 greedy lines: 2 blocks a step, not 16
            assert rows == [2 * BLOCK_ROWS] * (2 * 3 + 10)
        else:
            assert any(-(-S * B // BLOCK_ROWS) < S * -(-B // BLOCK_ROWS)
                       for S, B in shapes)
        monkeypatch.undo()


_THREADS_SCRIPT = """
import json
import numpy as np
import lexnmt.model as model_mod
from lexnmt.decode import beam_search_all
from lexnmt.model import init_params
from helpers import random_lexicon

model_mod.STACK_BYTES = 1 << 40  # every line in one stack
rng = np.random.default_rng(11)
lexicon = random_lexicon(rng, 30, 2000)
models = [init_params(30, 2000, d_emb=128, d_hid=128, attention="mlp",
                      use_lexicon=True, seed=seed, init_scale=0.3)
          for seed in (1, 2)]
lines = [tuple(int(f) for f in rng.integers(0, 30, n))
         for n in (3, 4, 4, 5, 6, 7)]
print(json.dumps([[[h.tokens, h.logprob.hex()]
                   for h in beam_search_all(members, lines, 5, 3.0, 6,
                                            lexicon)]
                  for members in (models[:1], models)]))
"""


def test_wide_decode_keeps_its_bits_at_two_blas_threads():
    # decode output must not depend on the BLAS thread count, which is why
    # the flat-product check (model._keeps_rows) runs under the process's
    # own setting: six wide lines in one stack, one model and two
    src = os.path.dirname(os.path.dirname(os.path.abspath(model_mod.__file__)))
    path = os.pathsep.join([src, os.path.dirname(os.path.abspath(__file__))])
    outs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path)
        outs.append(subprocess.run(
            [sys.executable, "-c", _THREADS_SCRIPT], env=env, check=True,
            capture_output=True, text=True, timeout=300).stdout)
    assert outs[0] == outs[1] != ""


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
    assert hyp.tokens[-1] == model.tgt_eos
    assert tuple(out) == hyp.tokens[:-1]
    assert model.tgt_eos not in out
