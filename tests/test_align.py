"""IBM Model 1 EM tests against a hand-rolled oracle."""

import numpy as np
import pytest

from lexnmt.align import ibm1_train, load_lexicon, prune_lexicon, save_lexicon
from lexnmt.corpus import (SentencePair, Vocabulary, build_vocab, encode_pairs,
                           read_parallel)
from lexnmt.errors import DataError

from helpers import lexicon_table
from oracles import ibm1_log_likelihood, ref_ibm1, ref_ibm1_in_order

# the two-pair corpus used throughout: a<->x dominant, b<->y by exclusion
A, B = 0, 1
X, Y = 0, 1
TWO_PAIRS = [SentencePair((A, B), (X, Y)), SentencePair((A,), (X,))]


def _random_pairs(rng, n, src_vocab=5, tgt_vocab=6, lmax=4):
    pairs = []
    for _ in range(n):
        ls = int(rng.integers(1, lmax + 1))
        lt = int(rng.integers(1, lmax + 1))
        pairs.append(SentencePair(
            tuple(int(rng.integers(src_vocab)) for _ in range(ls)),
            tuple(int(rng.integers(tgt_vocab)) for _ in range(lt))))
    return pairs


def test_single_cooccurrence_is_certain():
    table = ibm1_train([SentencePair((A,), (X,))], 1)
    assert table.prob(A, X) == pytest.approx(1.0)


def test_two_pair_corpus_first_iterations_by_hand():
    # init: t(.|a) = t(.|b) = 1/2 over {x, y}
    # iter 1 counts: c(a,x) = 1/2 + 1 = 3/2, c(a,y) = 1/2 -> t(x|a) = 3/4
    #                c(b,x) = c(b,y) = 1/2            -> t(x|b) = 1/2
    t1 = ibm1_train(TWO_PAIRS, 1)
    assert t1.prob(A, X) == pytest.approx(0.75, abs=1e-12)
    assert t1.prob(A, Y) == pytest.approx(0.25, abs=1e-12)
    assert t1.prob(B, X) == pytest.approx(0.5, abs=1e-12)
    assert t1.prob(B, Y) == pytest.approx(0.5, abs=1e-12)
    # iter 2: z(x) = 5/4, z(y) = 3/4
    #   c(a,x) = 3/5 + 1 = 8/5, c(a,y) = 1/3 -> t(x|a) = 24/29
    #   c(b,x) = 2/5, c(b,y) = 2/3           -> t(x|b) = 3/8
    t2 = ibm1_train(TWO_PAIRS, 2)
    assert t2.prob(A, X) == pytest.approx(24 / 29, abs=1e-12)
    assert t2.prob(B, X) == pytest.approx(0.375, abs=1e-12)


def test_two_pair_corpus_converges_to_diagonal():
    table = ibm1_train(TWO_PAIRS, 10)
    assert table.prob(A, X) > 0.9
    assert table.prob(B, Y) > 0.9


def test_matches_oracle_on_random_corpora():
    rng = np.random.default_rng(7)
    for _ in range(10):
        pairs = _random_pairs(rng, n=int(rng.integers(2, 7)))
        for iters in (1, 3, 10):
            got = ibm1_train(pairs, iters)
            want = ref_ibm1([(p.source, p.target) for p in pairs], iters)
            assert set(got.entries) == set(want)
            for f, dist in want.items():
                assert set(got.entries[f]) == set(dist)
                for e, p in dist.items():
                    assert got.prob(f, e) == pytest.approx(p, abs=1e-6)


def test_bit_identical_to_in_order_loop_on_random_corpora():
    # three source and four target ids over sentences of up to 7 tokens:
    # most sentences repeat an id
    rng = np.random.default_rng(11)
    for _ in range(20):
        pairs = _random_pairs(rng, int(rng.integers(1, 9)), src_vocab=3,
                              tgt_vocab=4, lmax=7)
        for iters in (1, 2, 7):
            got = ibm1_train(pairs, iters)
            want = ref_ibm1_in_order([(p.source, p.target) for p in pairs],
                                     iters)
            assert got.entries == want


def test_bit_identical_to_in_order_loop_on_shipped_corpus(data_dir):
    src, tgt = read_parallel(f"{data_dir}/train.src", f"{data_dir}/train.tgt")
    pairs = encode_pairs(src, tgt, build_vocab(src, 100), build_vocab(tgt, 100))
    got = ibm1_train(pairs, 8)
    assert got.entries == ref_ibm1_in_order(
        [(p.source, p.target) for p in pairs], 8)


def test_per_source_distributions_sum_to_one():
    rng = np.random.default_rng(8)
    pairs = _random_pairs(rng, 12)
    for iters in (1, 2, 5):
        table = ibm1_train(pairs, iters)
        for f, dist in table.entries.items():
            assert sum(dist.values()) == pytest.approx(1.0, abs=1e-9)


def test_log_likelihood_nondecreasing():
    rng = np.random.default_rng(9)
    pairs = _random_pairs(rng, 10)
    lls = [ibm1_log_likelihood(pairs, ibm1_train(pairs, i))
           for i in range(1, 7)]
    for prev, cur in zip(lls, lls[1:]):
        assert cur >= prev - 1e-12


def test_corpus_order_symmetry():
    rng = np.random.default_rng(10)
    pairs = _random_pairs(rng, 8)
    fwd = ibm1_train(pairs, 4)
    rev = ibm1_train(list(reversed(pairs)), 4)
    assert set(fwd.entries) == set(rev.entries)
    for f, dist in fwd.entries.items():
        for e, p in dist.items():
            assert rev.prob(f, e) == pytest.approx(p, abs=1e-12)


def test_train_input_validation():
    with pytest.raises(ValueError):
        ibm1_train(TWO_PAIRS, 0)
    with pytest.raises(DataError, match="empty corpus"):
        ibm1_train([], 3)


def test_prune_drops_without_renormalizing():
    table = lexicon_table({0: {0: 0.95, 1: 0.05}})
    pruned = prune_lexicon(table, 0.1)
    assert pruned.entries[0] == {0: 0.95}
    assert prune_lexicon(table, 0.0).entries == table.entries
    assert prune_lexicon(table, 0.99).entries[0] == {}
    with pytest.raises(ValueError):
        prune_lexicon(table, 1.0)


def test_table_invariants_enforced():
    with pytest.raises(DataError):
        lexicon_table({0: {0: 1.2}})
    with pytest.raises(DataError):
        lexicon_table({0: {0: -0.1}})
    with pytest.raises(DataError):
        lexicon_table({0: {0: 0.8, 1: 0.7}})
    with pytest.raises(DataError):
        lexicon_table({0: {0: float("nan")}})


def test_save_load_round_trip(tmp_path):
    src_vocab = Vocabulary(["<s>", "<unk>", "a", "b"])
    tgt_vocab = Vocabulary(["<s>", "<unk>", "x", "y"])
    pairs = [SentencePair((2, 3), (2, 3)), SentencePair((2,), (2,))]
    table = ibm1_train(pairs, 10)
    path = tmp_path / "lexicon.tsv"
    save_lexicon(table, src_vocab, tgt_vocab, path)
    loaded = load_lexicon(path, src_vocab, tgt_vocab)
    assert set(loaded.entries) == set(table.entries)
    for f, dist in table.entries.items():
        for e, p in dist.items():
            # 17 significant digits round-trips float64 exactly
            assert loaded.prob(f, e) == p


def test_load_skips_out_of_vocab_tokens(tmp_path):
    path = tmp_path / "lexicon.tsv"
    path.write_text("a\tx\t0.5\nzzz\tx\t0.5\na\tqqq\t0.25\n", encoding="utf-8")
    src_vocab = Vocabulary(["<s>", "<unk>", "a"])
    tgt_vocab = Vocabulary(["<s>", "<unk>", "x"])
    table = load_lexicon(path, src_vocab, tgt_vocab)
    assert table.entries == {2: {2: 0.5}}


@pytest.mark.parametrize("text, expected", [
    # line numbers count blank lines
    pytest.param("a\tx\t0.5\n\nx\ta\t0.25\na\tx\n",
                 "{path}: malformed lexicon line 4", id="after-blank-line"),
    pytest.param("a\tx\n", "{path}: malformed lexicon line 1",
                 id="two-fields"),
    pytest.param("a\tx\t0.5\t0.5\n", "{path}: malformed lexicon line 1",
                 id="four-fields"),
    pytest.param("a\tx\tnot_a_number\n",
                 "{path}: bad probability at line 1: 'not_a_number'",
                 id="not-a-number"),
    pytest.param("a\tx\tnan\n",
                 "lexicon probability out of range for pair (2, 3): nan",
                 id="nan"),
    pytest.param("a\tx\t1.5\n",
                 "lexicon probability out of range for pair (2, 3): 1.5",
                 id="above-one"),
    # a token outside the vocabulary drops its line once the number parses
    pytest.param("zz\tx\tfoo\n", "{path}: bad probability at line 1: 'foo'",
                 id="unknown-token-bad-number"),
    pytest.param("zz\tx\t7.5\na\ty\t0.25\n", {2: {4: 0.25}},
                 id="unknown-token-out-of-range"),
    # a repeated pair keeps its place and its last value, counted once
    pytest.param("a\tx\t0.9\na\ty\t0.8\na\tx\t0.3\n",
                 "lexicon distribution for source id 2 sums to 1.1",
                 id="repeated-pair-sum"),
    pytest.param("a\tx\t0.5\na\ty\t0.25\na\tx\t0.125\n",
                 {2: {3: 0.125, 4: 0.25}}, id="repeated-pair"),
    pytest.param("x\tx\t0.5\nx\ty\t0.5\na\ty\t0.6\na\tx\t0.5\n",
                 "lexicon distribution for source id 2 sums to 1.1",
                 id="sum-above-one"),
])
def test_load_rejects_malformed_lines(tmp_path, text, expected):
    path = tmp_path / "lexicon.tsv"
    path.write_text(text, encoding="utf-8")
    v = Vocabulary(["<s>", "<unk>", "a", "x", "y"])
    if isinstance(expected, dict):
        assert load_lexicon(path, v, v).entries == expected
        return
    with pytest.raises(DataError) as caught:
        load_lexicon(path, v, v)
    assert str(caught.value) == expected.format(path=path)
