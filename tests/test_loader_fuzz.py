"""Byte-level fuzzing of every file the command line reads.

Each case starts from a small valid file, flips, inserts and deletes a few
bytes, and runs the command that reads the file.  The command must either
succeed or fail as a data error (exit 2); a mutated ``--config`` may also
fail as a usage error (exit 1).  No mutation may end in a traceback.
Hypothesis is derandomized, so the examples are the same on every run.
"""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lexnmt.align import save_lexicon
from lexnmt.cli import main
from lexnmt.corpus import BpeModel, Vocabulary, save_bpe
from lexnmt.model import init_params, save_checkpoint

from helpers import lexicon_table

WORDS = ["ab", "ba", "abc", "cab"]

EDITS = st.lists(st.tuples(st.sampled_from(["flip", "insert", "delete"]),
                           st.floats(0.0, 1.0, exclude_max=True),
                           st.integers(0, 255)),
                 min_size=1, max_size=4)


def mutate(data: bytes, edits) -> bytes:
    buf = bytearray(data)
    for op, where, byte in edits:
        if op == "insert":
            buf.insert(int(where * (len(buf) + 1)), byte)
        elif buf:
            i = int(where * len(buf))
            if op == "flip":
                buf[i] ^= 1 << (byte % 8)
            else:
                del buf[i]
    return bytes(buf)


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """Each input kind: (valid file, argv that reads a file in its place)."""
    root = tmp_path_factory.mktemp("fuzz")
    vocab = Vocabulary(["<s>", "<unk>"] + WORDS)
    vocab.save(root / "vocab")
    (root / "text").write_text("ab ba\ncab abc ab\n", encoding="utf-8")
    (root / "input").write_text("ab cab\n", encoding="utf-8")
    for name, use_lexicon in (("plain.ckpt", False), ("lex.ckpt", True)):
        params = init_params(len(vocab), len(vocab), d_emb=2, d_hid=2,
                             attention="mlp", use_lexicon=use_lexicon,
                             seed=3, init_scale=0.5)
        save_checkpoint(root / name, params, vocab, vocab)
    save_lexicon(lexicon_table({2: {3: 0.75, 4: 0.25}, 5: {2: 0.5}}), vocab,
                 vocab, root / "lexicon.tsv")
    save_bpe(BpeModel([("a", "b"), ("c", "ab"), ("ab", "</w>")]),
             root / "bpe.merges")
    (root / "config.json").write_text(
        json.dumps({"beam": 2, "word_penalty": 0.5}), encoding="utf-8")

    def decode(ckpt, *extra):
        return ["decode", "--input", str(root / "input"), "--checkpoint",
                str(ckpt), "--max-len", "6", *extra]

    return {
        "checkpoint": (root / "plain.ckpt", lambda p: decode(p)),
        "lexicon": (root / "lexicon.tsv",
                    lambda p: decode(root / "lex.ckpt", "--lexicon", str(p))),
        "vocabulary": (root / "vocab", lambda p: [
            "align", "--src", str(root / "text"), "--tgt", str(root / "text"),
            "--src-vocab", str(p), "--tgt-vocab", str(root / "vocab"),
            "--out", str(root / "aligned.tsv"), "--iterations", "1"]),
        "merges": (root / "bpe.merges",
                   lambda p: decode(root / "plain.ckpt", "--bpe", str(p))),
        "config": (root / "config.json", lambda p: [
            "--config", str(p), *decode(root / "plain.ckpt")]),
    }


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


# a mutated checkpoint may hold huge finite weights: the model must run them
# without a numpy warning (an overflowing LSTM gate saturates quietly)
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("kind", ["checkpoint", "lexicon", "vocabulary",
                                  "merges", "config"])
def test_mutated_input_file_loads_or_fails_as_data_error(valid_files, kind):
    original, argv = valid_files[kind]
    data = original.read_bytes()
    mutated = original.with_name(f"mutated-{original.name}")
    assert _run(argv(original)) == (0, "")

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(EDITS)
    def check(edits):
        mutated.write_bytes(mutate(data, edits))
        code, err = _run(argv(mutated))
        assert "Traceback" not in err
        if kind == "config" and err.startswith("usage error:"):
            # a key no flag owns, or text its flag cannot parse, is a usage
            # error (exit 1), as it is on the command line
            assert code == 1
        else:
            assert code in (0, 2), err

    check()
