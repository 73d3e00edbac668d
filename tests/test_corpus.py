"""Normalization, BPE, vocabulary, and minibatching tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexnmt import corpus as corpus_mod
from lexnmt.corpus import (END_OF_WORD, EOS, UNK, BpeModel, SentencePair,
                           Vocabulary, apply_bpe, build_vocab, encode_pairs,
                           invert_bpe, learn_bpe, load_bpe, make_minibatches,
                           normalize_halfwidth, save_bpe)
from lexnmt.errors import DataError

from oracles import ref_learn_bpe


# ---------------------------------------------------------------------------
# normalization
# ---------------------------------------------------------------------------

def test_normalize_fullwidth_roman_and_digits():
    assert normalize_halfwidth("ＡＢＣ１２３") == "ABC123"
    assert normalize_halfwidth("abc 123") == "abc 123"
    assert normalize_halfwidth("ｘ２ kg") == "x2 kg"


def test_normalize_leaves_other_scripts_alone():
    s = "日本語 データ ０．５"
    out = normalize_halfwidth(s)
    assert out == "日本語 データ 0．5"  # full-width period is not roman/digit


@settings(max_examples=30, deadline=None)
@given(st.text(max_size=40))
def test_normalize_idempotent(s):
    once = normalize_halfwidth(s)
    assert normalize_halfwidth(once) == once


# ---------------------------------------------------------------------------
# byte pair encoding
# ---------------------------------------------------------------------------

def test_learn_bpe_zero_merges():
    model = learn_bpe(["a b a b"], 0)
    assert model.merges == []
    assert apply_bpe(model, "ab") == ["a", "b", END_OF_WORD]


def test_learn_bpe_most_frequent_pair_first():
    # "ab" twice, "ac" once: pair (a,b) ties (b,</w>) at 2, lexicographic wins
    model = learn_bpe(["ab ab ac"], 1)
    assert model.merges == [("a", "b")]
    assert apply_bpe(model, "ab") == ["ab", END_OF_WORD]


def test_learn_bpe_joint_counts():
    model = learn_bpe(["xy"] + ["xy"], 1)
    assert model.merges == [("x", "y")]


def test_learn_bpe_empty_corpus():
    with pytest.raises(DataError, match="empty corpus"):
        learn_bpe([], 5)
    with pytest.raises(DataError, match="empty corpus"):
        learn_bpe(["", "   "], 5)


def test_corpus_functions_refuse_sizes_below_their_floor():
    with pytest.raises(ValueError, match="num_merges must be >= 0"):
        learn_bpe(["a b"], -1)
    with pytest.raises(ValueError, match="word_budget must be >= 1"):
        make_minibatches([SentencePair((1,), (2,))], 0)


def test_build_vocab_refuses_an_empty_corpus():
    for corpus in ([], ["", "  "]):
        with pytest.raises(DataError, match="empty corpus"):
            build_vocab(corpus, 5)


def test_learn_bpe_merges_are_unique():
    corpus = ["the cat sat on the mat", "the hat of the cat"]
    model = learn_bpe(corpus, 30)
    assert len(set(model.merges)) == len(model.merges)


def test_learn_bpe_overlapping_runs_match_full_recount():
    # (a, a) occurs 3, 2 and 1 times in "aaaa", "aaa" and "aa"; merging it
    # left to right leaves "aa aa </w>", "aa a </w>" and "aa </w>"
    corpus = ["aaaa aaa aa aaa", "a aaaa ba"]
    model = learn_bpe(corpus, 12)
    assert model.merges[0] == ("a", "a")
    assert model.merges == ref_learn_bpe(corpus, 12)


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(st.data())
def test_learn_bpe_equals_full_recount(data):
    # 2-3 letter alphabets give long runs (overlapping pairs) and frequency
    # ties; up to 60 merges is more than most of these corpora allow
    alphabet = data.draw(st.sampled_from(["ab", "abc"]))
    word = st.text(alphabet, min_size=1, max_size=8)
    corpus = data.draw(st.lists(
        st.lists(word, min_size=1, max_size=6).map(" ".join),
        min_size=1, max_size=4))
    num_merges = data.draw(st.integers(0, 60))
    assert learn_bpe(corpus, num_merges).merges == ref_learn_bpe(
        corpus, num_merges)


def test_learn_bpe_merge_rewrites_only_words_with_the_pair(monkeypatch):
    # 200 word types over disjoint two-letter alphabets: every pair belongs
    # to one word type, so each merge rewrites exactly one word
    calls = []
    original = corpus_mod._merge_word

    def counted(symbols, pair):
        calls.append(pair)
        return original(symbols, pair)

    monkeypatch.setattr(corpus_mod, "_merge_word", counted)
    words = [chr(0x4E00 + 2 * i) + chr(0x4E01 + 2 * i) for i in range(200)]
    corpus = [" ".join([w] * (1 + i % 7)) for i, w in enumerate(words)]
    model = learn_bpe(corpus, 30)
    assert len(model.merges) == 30
    assert calls == model.merges


def _replay_merges(word, merges):
    """In-order replay oracle: apply each merge everywhere before the next."""
    symbols = list(word) + [END_OF_WORD]
    for left, right in merges:
        j = 0
        out = []
        while j < len(symbols):
            if (j + 1 < len(symbols) and symbols[j] == left
                    and symbols[j + 1] == right):
                out.append(left + right)
                j += 2
            else:
                out.append(symbols[j])
                j += 1
        symbols = out
    return symbols


@settings(max_examples=40, deadline=None)
@given(st.lists(st.text(alphabet="abcd", min_size=1, max_size=7),
                min_size=1, max_size=8),
       st.integers(min_value=0, max_value=12))
def test_segmentation_equals_in_order_replay(words, num_merges):
    corpus = [" ".join(words)]
    model = learn_bpe(corpus, num_merges)
    for word in words:
        assert model.segment_word(word) == _replay_merges(word, model.merges)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.text(alphabet="abcxyz", min_size=1, max_size=6),
                min_size=1, max_size=6))
def test_bpe_round_trip(words):
    sentence = " ".join(words)
    model = learn_bpe([sentence, "xyz abc"], 8)
    assert invert_bpe(apply_bpe(model, sentence)) == words


def test_bpe_save_load_round_trip(tmp_path):
    model = learn_bpe(["hello hello world word"], 12)
    path = tmp_path / "merges.txt"
    save_bpe(model, path)
    loaded = load_bpe(path)
    assert loaded.merges == model.merges
    assert apply_bpe(loaded, "helloworld") == apply_bpe(model, "helloworld")


def test_apply_bpe_empty_sentence():
    model = learn_bpe(["a b"], 2)
    assert apply_bpe(model, "") == []
    assert invert_bpe([]) == []


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------

def test_vocab_reserved_symbols_and_lookup():
    v = build_vocab(["a a b"], 10)
    assert v.tokens[0] == EOS and v.tokens[1] == UNK
    assert v.eos_id == 0 and v.unk_id == 1
    assert sorted(v.tokens) == sorted([EOS, UNK, "a", "b"])
    for t in v.tokens:
        assert v.token(v.id(t)) == t


def test_vocab_frequency_cutoff_maps_to_unk():
    v = build_vocab(["a a b"], 1)
    assert "a" in v and "b" not in v
    assert v.id("b") == v.unk_id
    assert v.encode("a b a") == [v.id("a"), v.unk_id, v.id("a")]


def test_vocab_frequency_tie_prefers_lexicographic():
    v = build_vocab(["c b c b"], 1)
    assert "b" in v and "c" not in v


def test_vocab_rejects_bad_sizes_and_duplicates():
    with pytest.raises(ValueError):
        build_vocab(["a"], 0)
    with pytest.raises(DataError):
        Vocabulary([EOS, UNK, "a", "a"])
    with pytest.raises(DataError):
        Vocabulary(["a", "b"])


def test_vocab_save_load(tmp_path):
    v = build_vocab(["one two two three"], 10)
    path = tmp_path / "vocab.txt"
    v.save(path)
    loaded = Vocabulary.load(path)
    assert loaded.tokens == v.tokens


# ---------------------------------------------------------------------------
# pairs and minibatches
# ---------------------------------------------------------------------------

def test_encode_pairs_line_count_mismatch():
    v = build_vocab(["a b"], 10)
    with pytest.raises(DataError, match="line counts differ"):
        encode_pairs(["a", "b"], ["a"], v, v)


def test_encode_pairs_reports_empty_line():
    v = build_vocab(["a b"], 10)
    with pytest.raises(DataError, match="line 2"):
        encode_pairs(["a", ""], ["a", "b"], v, v)


def test_sentence_pair_is_immutable_and_counts_words():
    p = SentencePair((2, 3), (4, 5, 6))
    assert p.words == 5
    with pytest.raises(AttributeError):
        p.source = (1,)
    with pytest.raises(DataError):
        SentencePair((), (1,))


def _pair_of_words(n):
    half = n // 2
    return SentencePair(tuple([2] * half), tuple([2] * (n - half)))


def test_minibatch_budget_rule_from_worked_example():
    pairs = [_pair_of_words(1000), _pair_of_words(800), _pair_of_words(500)]
    batches = make_minibatches(pairs, 2048)
    words = [[p.words for p in b] for b in batches]
    assert words == [[1000, 800], [500]]


def test_minibatch_oversized_singleton():
    batches = make_minibatches([_pair_of_words(3000)], 2048)
    assert len(batches) == 1 and len(batches[0]) == 1


def test_minibatch_empty_input():
    assert make_minibatches([], 2048) == []


def test_minibatch_sorts_by_source_length_descending():
    rng = np.random.default_rng(4)
    pairs = []
    for _ in range(50):
        ls = int(rng.integers(1, 9))
        lt = int(rng.integers(1, 9))
        pairs.append(SentencePair(tuple([2] * ls), tuple([3] * lt)))
    batches = make_minibatches(pairs, 20)
    flat = [p for b in batches for p in b]
    lens = [len(p.source) for p in flat]
    assert lens == sorted(lens, reverse=True)
    # permutation of the input
    assert sorted(map(id, flat)) == sorted(map(id, pairs))
    for b in batches:
        if len(b) > 1:
            assert sum(p.words for p in b) <= 20
