"""End-to-end pipeline and exit-code tests for the command line."""

import json
import re

import numpy as np
import pytest

import lexnmt.cli as cli_mod
import lexnmt.decode as decode_mod
import lexnmt.model as model_mod
from lexnmt.align import load_lexicon
from lexnmt.cli import main
from lexnmt.corpus import Vocabulary, load_bpe
from lexnmt.decode import beam_search, score_hypothesis
from lexnmt.errors import DataError, NumericalError
from lexnmt.model import init_params, load_checkpoint, save_checkpoint

from helpers import count_calls, tiny_model

SRC_WORDS = ["uno", "dos", "tres", "cuatro", "cinco", "seis"]
TGT_WORDS = ["one", "two", "three", "four", "five", "six"]


def _write_corpus(directory, n, seed, stem="corpus"):
    rng = np.random.default_rng(seed)
    src_lines, tgt_lines = [], []
    for _ in range(n):
        idx = rng.integers(0, len(SRC_WORDS), rng.integers(1, 4))
        src_lines.append(" ".join(SRC_WORDS[i] for i in idx))
        tgt_lines.append(" ".join(TGT_WORDS[i] for i in idx))
    src = directory / f"{stem}.src"
    tgt = directory / f"{stem}.tgt"
    src.write_text("\n".join(src_lines) + "\n", encoding="utf-8")
    tgt.write_text("\n".join(tgt_lines) + "\n", encoding="utf-8")
    return src, tgt


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """preprocess -> align -> train, shared by the read-only tests below."""
    root = tmp_path_factory.mktemp("pipeline")
    train_src, train_tgt = _write_corpus(root, 24, seed=0, stem="train")
    dev_src, dev_tgt = _write_corpus(root, 6, seed=1, stem="dev")
    data = root / "data"
    assert main(["preprocess",
                 "--train-src", str(train_src), "--train-tgt", str(train_tgt),
                 "--dev-src", str(dev_src), "--dev-tgt", str(dev_tgt),
                 "--outdir", str(data), "--merges", "40"]) == 0

    lexicon = root / "lexicon.tsv"
    assert main(["align",
                 "--src", str(data / "train.src"),
                 "--tgt", str(data / "train.tgt"),
                 "--src-vocab", str(data / "vocab.src"),
                 "--tgt-vocab", str(data / "vocab.tgt"),
                 "--out", str(lexicon), "--iterations", "4"]) == 0

    run = root / "run"
    assert main(["train",
                 "--train-src", str(data / "train.src"),
                 "--train-tgt", str(data / "train.tgt"),
                 "--dev-src", str(data / "dev.src"),
                 "--dev-tgt", str(data / "dev.tgt"),
                 "--src-vocab", str(data / "vocab.src"),
                 "--tgt-vocab", str(data / "vocab.tgt"),
                 "--run-dir", str(run), "--d-emb", "8", "--d-hid", "8",
                 "--max-epochs", "2", "--dev-check", "1000",
                 "--batch-words", "64", "--seed", "3"]) == 0
    return {"root": root, "data": data, "run": run, "lexicon": lexicon,
            "ckpt": run / "model.ckpt"}


# ---------------------------------------------------------------------------
# pipeline stages
# ---------------------------------------------------------------------------

def test_preprocess_outputs(pipeline):
    data = pipeline["data"]
    for name in ("bpe.merges", "vocab.src", "vocab.tgt",
                 "train.src", "train.tgt", "dev.src", "dev.tgt"):
        assert (data / name).exists()
    train_src = (data / "train.src").read_text().splitlines()
    train_tgt = (data / "train.tgt").read_text().splitlines()
    assert len(train_src) == len(train_tgt) == 24
    vocab_lines = (data / "vocab.src").read_text().splitlines()
    assert vocab_lines[0] == "<s>" and vocab_lines[1] == "<unk>"
    merges = (data / "bpe.merges").read_text().splitlines()
    assert 0 < len(merges) <= 40
    assert all(len(line.split(" ")) == 2 for line in merges)


def test_align_output_format(pipeline):
    lines = pipeline["lexicon"].read_text().splitlines()
    assert lines
    by_source = {}
    for line in lines:
        s, t, p = line.split("\t")
        by_source.setdefault(s, 0.0)
        by_source[s] += float(p)
    for total in by_source.values():
        assert total == pytest.approx(1.0, abs=1e-9)


def test_train_outputs(pipeline):
    run = pipeline["run"]
    assert (run / "model.ckpt").exists()
    assert (run / "best.ckpt").exists()
    log_lines = (run / "trainlog.jsonl").read_text().splitlines()
    header = json.loads(log_lines[0])["header"]
    assert header["mode"] == "ml" and header["seed"] == 3
    records = [json.loads(line) for line in log_lines[1:]]
    assert records
    assert all("dev_loss" in r and "lr" in r for r in records)
    params, src_vocab, tgt_vocab = load_checkpoint(run / "model.ckpt")
    assert params.d_emb == 8 and len(src_vocab) > 2


def test_decode_line_alignment_and_scores(pipeline, tmp_path, capsys):
    inp = tmp_path / "input.txt"
    inp.write_text("uno dos\n\ntres cuatro cinco\n", encoding="utf-8")
    out = tmp_path / "output.txt"
    scores = tmp_path / "scores.txt"
    assert main(["decode", "--input", str(inp),
                 "--checkpoint", str(pipeline["ckpt"]),
                 "--bpe", str(pipeline["data"] / "bpe.merges"),
                 "--output", str(out), "--scores", str(scores),
                 "--beam", "3"]) == 0
    lines = out.read_text().split("\n")
    assert len(lines) == 4 and lines[-1] == ""  # exactly 3 newline-ended rows
    assert lines[1] == ""  # empty input stays empty
    score_lines = scores.read_text().splitlines()
    assert len(score_lines) == 3
    assert all(float(s) <= 0.0 or s == "0.000000" for s in score_lines)


def test_decode_to_stdout(pipeline, tmp_path, capsys):
    inp = tmp_path / "input.txt"
    inp.write_text("uno\ndos tres\nseis\n", encoding="utf-8")
    assert main(["decode", "--input", str(inp),
                 "--checkpoint", str(pipeline["ckpt"]),
                 "--bpe", str(pipeline["data"] / "bpe.merges")]) == 0
    assert capsys.readouterr().out.count("\n") == 3


def test_decode_ensemble_and_lexicon(pipeline, tmp_path, capsys):
    inp = tmp_path / "input.txt"
    inp.write_text("uno dos\n", encoding="utf-8")
    assert main(["decode", "--input", str(inp),
                 "--checkpoint", str(pipeline["ckpt"]),
                 "--checkpoint", str(pipeline["run"] / "best.ckpt"),
                 "--bpe", str(pipeline["data"] / "bpe.merges"),
                 "--lexicon", str(pipeline["lexicon"])]) == 0
    assert capsys.readouterr().out.count("\n") == 1


@pytest.mark.parametrize("stack", [32, 2], ids=["one-stack", "split"])
@pytest.mark.parametrize("members", [1, 2])
def test_decode_equals_line_by_line_search(pipeline, tmp_path, monkeypatch,
                                           stack, members):
    # decode searches the lines of one source length together, and a line
    # leaves the stack when its search ends; every line must still get what
    # searching it alone gives, in input order
    monkeypatch.setattr(decode_mod, "STACK_SENTENCES", stack)
    trained, src_vocab, tgt_vocab = load_checkpoint(pipeline["ckpt"])
    other = tmp_path / "other.ckpt"
    save_checkpoint(other, init_params(
        len(src_vocab), len(tgt_vocab), d_emb=8, d_hid=8, seed=5,
        init_scale=0.5, src_eos=src_vocab.eos_id, tgt_eos=tgt_vocab.eos_id),
        src_vocab, tgt_vocab)
    models = [load_checkpoint(other)[0], trained][:members]
    # searches of these lengths end after 1 to 16 words, most before the cap
    lines = ["cinco tres", "tres", "tres cinco cinco", "uno dos", "",
             "seis cinco", "cinco", "tres seis", "seis dos tres",
             "cinco cinco", "uno", "dos tres", "cuatro cinco cinco"]
    inp, out = tmp_path / "input.txt", tmp_path / "output.txt"
    scores, merges = tmp_path / "scores.txt", pipeline["data"] / "bpe.merges"
    inp.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    # a beam of 10 rows spans two 8-row blocks
    argv = ["decode", "--input", str(inp), "--output", str(out),
            "--scores", str(scores), "--bpe", str(merges), "--beam", "10",
            "--word-penalty", "2"]
    for path in [other, pipeline["ckpt"]][:members]:
        argv += ["--checkpoint", str(path)]
    assert main(argv) == 0
    bpe = load_bpe(merges)
    want_text, want_scores = [], []
    for line in lines:
        ids = cli_mod._source_ids(line, bpe, src_vocab)
        hyp = (beam_search(models, ids, beam_size=10, word_penalty=2.0)
               if ids else None)
        want_text.append(cli_mod._target_text(hyp.tokens, bpe, tgt_vocab)
                         if hyp else "")
        want_scores.append(f"{score_hypothesis(hyp, 2.0):.6f}" if hyp
                           else "0.000000")
    assert out.read_text(encoding="utf-8").split("\n")[:-1] == want_text
    assert scores.read_text(encoding="utf-8").splitlines() == want_scores


def test_decode_rejects_mismatched_ensemble(pipeline, tmp_path, capsys):
    other = tmp_path / "other.ckpt"
    params = tiny_model(src_size=3, tgt_size=3, d=2)
    v = Vocabulary(["<s>", "<unk>", "zz"])
    save_checkpoint(other, params, v, v)
    inp = tmp_path / "input.txt"
    inp.write_text("uno\n", encoding="utf-8")
    code = main(["decode", "--input", str(inp),
                 "--checkpoint", str(pipeline["ckpt"]),
                 "--checkpoint", str(other)])
    assert code == 2
    err = capsys.readouterr().err
    assert "vocabulary differs" in err and "Traceback" not in err


def _without(mapping, key):
    return {k: v for k, v in mapping.items() if k != key}


def _with_hyper(header, **values):
    return {**header, "hyper": {**header["hyper"], **values}}


def _with_first_tensor(header, **fields):
    entry = {k: v for k, v in {**header["tensors"][0], **fields}.items()
             if v is not None}
    return {**header, "tensors": [entry] + header["tensors"][1:]}


HEADER_MUTATIONS = {
    "not-an-object": lambda h: [h],
    "no-hyper": lambda h: _without(h, "hyper"),
    "hyper-not-an-object": lambda h: {**h, "hyper": [1, 2]},
    "missing-hyper-key": lambda h: {**h, "hyper": _without(h["hyper"],
                                                           "epsilon")},
    "unknown-hyper-key": lambda h: {**h, "hyper": {**h["hyper"],
                                                   "dropout": 0.1}},
    "hyper-wrong-type": lambda h: {**h, "hyper": {**h["hyper"], "d_hid": "8"}},
    "no-tensors": lambda h: _without(h, "tensors"),
    "no-src-vocab": lambda h: _without(h, "src_vocab"),
    "no-tgt-vocab": lambda h: _without(h, "tgt_vocab"),
    "vocab-not-a-list": lambda h: {**h, "tgt_vocab": 7},
    "tensors-not-a-list": lambda h: {**h, "tensors": {"name": "x"}},
    "tensor-name-not-a-string": lambda h: _with_first_tensor(h, name=3),
    "tensor-without-name": lambda h: _with_first_tensor(h, name=None),
    "tensor-without-shape": lambda h: _with_first_tensor(h, shape=None),
    "shape-not-a-list": lambda h: _with_first_tensor(h, shape="8"),
    "negative-dimension": lambda h: _with_first_tensor(h, shape=[-1, 8]),
    "fractional-dimension": lambda h: _with_first_tensor(h, shape=[1.5]),
    "tgt-eos-outside-vocab": lambda h: _with_hyper(h, tgt_eos=999),
    "src-eos-outside-vocab": lambda h: _with_hyper(h, src_eos=999),
    "tgt-eos-not-sentence-end": lambda h: _with_hyper(h, tgt_eos=3),
    "src-eos-not-sentence-end": lambda h: _with_hyper(h, src_eos=3),
    "tgt-vocab-cut": lambda h: {**h, "tgt_vocab": h["tgt_vocab"][:3]},
    "src-vocab-cut": lambda h: {**h, "src_vocab": h["src_vocab"][:3]},
    "bool-for-int": lambda h: _with_hyper(h, attn_dim=True),
    "bool-for-float": lambda h: _with_hyper(h, epsilon=True),
    "nan-epsilon": lambda h: _with_hyper(h, epsilon=float("nan")),
    "inf-epsilon": lambda h: _with_hyper(h, epsilon=float("inf")),
}


@pytest.mark.parametrize("mutation", sorted(HEADER_MUTATIONS))
def test_decode_rejects_malformed_checkpoint_header(pipeline, tmp_path, capsys,
                                                    mutation):
    magic, header, blob = pipeline["ckpt"].read_bytes().split(b"\n", 2)
    header = HEADER_MUTATIONS[mutation](json.loads(header))
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(magic + b"\n" + json.dumps(header).encode() + b"\n" + blob)
    inp = tmp_path / "input.txt"
    inp.write_text("uno\n", encoding="utf-8")
    assert main(["decode", "--input", str(inp), "--checkpoint", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "Traceback" not in err


def test_score_perfect_match(pipeline, tmp_path, capsys):
    hyp = tmp_path / "hyp.txt"
    hyp.write_text("one two three four\nfive six\n", encoding="utf-8")
    per_sent = tmp_path / "sbleu.tsv"
    assert main(["score", "--hyp", str(hyp), "--ref", str(hyp),
                 "--per-sentence", str(per_sent)]) == 0
    out = capsys.readouterr().out
    assert "BLEU 100.0" in out and "RATIO 100.0" in out
    rows = [line.split("\t") for line in per_sent.read_text().splitlines()]
    assert [r[0] for r in rows] == ["1", "2"]
    assert all(float(r[1]) == pytest.approx(1.0) for r in rows)


def test_sample_formats(pipeline, tmp_path, capsys):
    inp = tmp_path / "input.txt"
    inp.write_text("uno dos\ntres\n", encoding="utf-8")
    assert main(["sample", "--input", str(inp),
                 "--checkpoint", str(pipeline["ckpt"]),
                 "--bpe", str(pipeline["data"] / "bpe.merges"),
                 "--max-len", "8", "--seed", "5"]) == 0
    single = capsys.readouterr().out
    assert single.count("\n") == 2
    assert main(["sample", "--input", str(inp),
                 "--checkpoint", str(pipeline["ckpt"]),
                 "--bpe", str(pipeline["data"] / "bpe.merges"),
                 "--max-len", "8", "--seed", "5", "--samples", "2"]) == 0
    multi = capsys.readouterr().out.splitlines()
    assert len(multi) == 4
    assert [line.split("\t")[0] for line in multi] == ["0", "1", "0", "1"]


def test_sample_encodes_each_line_once(pipeline, tmp_path, monkeypatch,
                                       capsys):
    # the --samples draws of a line share one encoding and one L_F
    encodes = count_calls(monkeypatch, model_mod, "_encode_g")
    builds = count_calls(monkeypatch, model_mod, "build_lexicon_matrix")
    inp = tmp_path / "input.txt"
    inp.write_text("uno dos\n\ntres cuatro\n", encoding="utf-8")
    assert main(["sample", "--input", str(inp),
                 "--checkpoint", str(pipeline["ckpt"]),
                 "--bpe", str(pipeline["data"] / "bpe.merges"),
                 "--lexicon", str(pipeline["lexicon"]),
                 "--max-len", "8", "--samples", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 9
    assert len(encodes) == len(builds) == 2  # the non-empty lines


def test_sample_from_lexicon_model_requires_lexicon(pipeline, tmp_path, capsys):
    data = pipeline["data"]
    run = tmp_path / "lex_run"
    assert main(["train",
                 "--train-src", str(data / "train.src"),
                 "--train-tgt", str(data / "train.tgt"),
                 "--dev-src", str(data / "dev.src"),
                 "--dev-tgt", str(data / "dev.tgt"),
                 "--src-vocab", str(data / "vocab.src"),
                 "--tgt-vocab", str(data / "vocab.tgt"),
                 "--run-dir", str(run), "--lexicon", str(pipeline["lexicon"]),
                 "--d-emb", "6", "--d-hid", "6", "--max-epochs", "1",
                 "--dev-check", "1000", "--batch-words", "64",
                 "--seed", "4"]) == 0
    capsys.readouterr()
    inp = tmp_path / "input.txt"
    inp.write_text("uno dos\n", encoding="utf-8")
    base = ["sample", "--input", str(inp),
            "--checkpoint", str(run / "model.ckpt"),
            "--bpe", str(data / "bpe.merges"), "--max-len", "8"]
    assert main(base) == 2
    err = capsys.readouterr().err
    assert "lexicon table is required" in err and "Traceback" not in err
    assert main(base + ["--lexicon", str(pipeline["lexicon"])]) == 0


def test_mrt_train_from_checkpoint(pipeline, tmp_path, capsys):
    run = tmp_path / "mrt_run"
    data = pipeline["data"]
    code = main(["mrt-train",
                 "--train-src", str(data / "dev.src"),
                 "--train-tgt", str(data / "dev.tgt"),
                 "--dev-src", str(data / "dev.src"),
                 "--dev-tgt", str(data / "dev.tgt"),
                 "--init", str(pipeline["ckpt"]), "--run-dir", str(run),
                 "--samples", "3", "--alpha", "1.0", "--mrt-epochs", "1",
                 "--max-sample-len", "8", "--seed", "2"])
    assert code == 0
    assert (run / "model.ckpt").exists()
    header = json.loads(
        (run / "trainlog.jsonl").read_text().splitlines()[0])["header"]
    assert header["mode"] == "mrt"
    assert header["mrt"]["num_samples"] == 3


def test_mrt_train_skips_sentences_whose_samples_are_all_empty(
        pipeline, tmp_path, capsys):
    # a huge sentence-end bias makes every sample the bare sentence end
    params, src_vocab, tgt_vocab = load_checkpoint(pipeline["ckpt"])
    params.tensors["softmax_b"][params.tgt_eos] = 50.0
    init = tmp_path / "eos.ckpt"
    save_checkpoint(init, params, src_vocab, tgt_vocab)
    run = tmp_path / "mrt_run"
    data = pipeline["data"]
    assert main(["mrt-train",
                 "--train-src", str(data / "dev.src"),
                 "--train-tgt", str(data / "dev.tgt"),
                 "--dev-src", str(data / "dev.src"),
                 "--dev-tgt", str(data / "dev.tgt"),
                 "--init", str(init), "--run-dir", str(run),
                 "--samples", "3", "--alpha", "1.0", "--mrt-epochs", "2",
                 "--max-sample-len", "8", "--seed", "2"]) == 0
    lines = (run / "trainlog.jsonl").read_text().splitlines()
    records = [json.loads(line) for line in lines[1:]]
    assert len(records) == 2
    for r in records:
        assert 0.0 <= r["expected_error"] <= 1.0
        assert 0.0 <= r["dev_expected_error"] <= 1.0


# ---------------------------------------------------------------------------
# configuration file
# ---------------------------------------------------------------------------

def test_config_supplies_defaults_but_flags_win(tmp_path, capsys):
    train_src, train_tgt = _write_corpus(tmp_path, 6, seed=4)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"merges": 2}), encoding="utf-8")

    out1 = tmp_path / "out1"
    assert main(["--config", str(config), "preprocess",
                 "--train-src", str(train_src), "--train-tgt", str(train_tgt),
                 "--outdir", str(out1)]) == 0
    assert "merges: 2 " in capsys.readouterr().out

    out2 = tmp_path / "out2"
    assert main(["--config", str(config), "preprocess",
                 "--train-src", str(train_src), "--train-tgt", str(train_tgt),
                 "--outdir", str(out2), "--merges", "1"]) == 0
    assert "merges: 1 " in capsys.readouterr().out


def test_config_error_handling(pipeline, tmp_path, capsys):
    train_src, train_tgt = _write_corpus(tmp_path, 4, seed=5)
    base = ["preprocess", "--train-src", str(train_src),
            "--train-tgt", str(train_tgt), "--outdir", str(tmp_path / "o")]

    bad_key = tmp_path / "bad_key.json"
    bad_key.write_text(json.dumps({"not_a_flag": 1}), encoding="utf-8")
    assert main(["--config", str(bad_key)] + base) == 1
    assert "not_a_flag" in capsys.readouterr().err

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{oops", encoding="utf-8")
    assert main(["--config", str(bad_json)] + base) == 2

    not_object = tmp_path / "list.json"
    not_object.write_text("[1, 2]", encoding="utf-8")
    assert main(["--config", str(not_object)] + base) == 2

    assert main(["--config", str(tmp_path / "missing.json")] + base) == 2

    # a value whose JSON type does not fit its flag is a data error that
    # names the key; a string is still parsed as the flag's text
    inp = tmp_path / "input.txt"
    inp.write_text("uno dos\n", encoding="utf-8")
    ckpt = str(pipeline["ckpt"])
    decode = ["decode", "--input", str(inp), "--checkpoint", ckpt]
    sample = ["sample", "--input", str(inp), "--checkpoint", ckpt]
    config = tmp_path / "typed.json"

    def run(values, argv):
        config.write_text(json.dumps(values), encoding="utf-8")
        return main(["--config", str(config)] + argv)

    for values, argv in [({"beam": [1]}, decode), ({"max_len": 2.5}, decode),
                         ({"output": 2}, decode), ({"beam": True}, decode),
                         ({"samples": None}, sample),
                         ({"checkpoint": [ckpt]}, sample)]:
        capsys.readouterr()
        assert run(values, argv) == 2, values
        err = capsys.readouterr().err
        key = next(iter(values))
        assert f"config key '{key}'" in err and "Traceback" not in err
    assert run({"seed": "7"}, sample) == 0
    from_config = capsys.readouterr().out
    assert main(sample + ["--seed", "7"]) == 0
    assert capsys.readouterr().out == from_config
    # flags win: an explicit --checkpoint replaces the configured list
    missing = str(tmp_path / "missing.ckpt")
    assert run({"checkpoint": [missing]}, decode) == 0
    assert run({"checkpoint": missing}, decode) == 0


# ---------------------------------------------------------------------------
# exit codes and error hygiene
# ---------------------------------------------------------------------------

def test_usage_errors_exit_one(capsys):
    assert main(["--bogus-flag"]) == 1
    assert main(["no-such-command"]) == 1
    assert main(["decode"]) == 1  # missing required flags
    err = capsys.readouterr().err
    assert "usage error" in err and "Traceback" not in err


@pytest.mark.parametrize("command, flag, value", [
    ("decode", "--beam", "0"), ("decode", "--beam", "-3"),
    ("decode", "--max-len", "0"), ("decode", "--word-penalty", "nan"),
    ("decode", "--word-penalty", "inf"), ("decode", "--word-penalty", "-inf"),
    ("sample", "--max-len", "0"), ("sample", "--samples", "0")])
def test_bad_search_flags_are_usage_errors(tmp_path, capsys, command, flag,
                                           value):
    # refused before any file is read: the checkpoint named here is missing,
    # which would exit 2 once loading began
    assert main([command, "--input", str(tmp_path / "input.txt"),
                 "--checkpoint", str(tmp_path / "missing.ckpt"),
                 f"{flag}={value}"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and flag in err and "Traceback" not in err


@pytest.mark.parametrize("command, flag, value", [
    ("train", "--batch-words", "0"), ("train", "--dev-check", "0"),
    ("train", "--patience", "0"), ("train", "--lr", "nan"),
    ("train", "--clip-norm", "inf"), ("train", "--d-emb", "0"),
    ("train", "--d-hid", "0"), ("train", "--attn-dim", "0"),
    ("train", "--epsilon", "nan"), ("train", "--epsilon", "inf"),
    ("train", "--epsilon", "0"), ("train", "--epsilon", "-1"),
    ("train", "--max-epochs", "0"), ("train", "--max-epochs", "-2"),
    ("mrt-train", "--samples", "1"), ("mrt-train", "--alpha", "nan"),
    ("mrt-train", "--alpha", "0"), ("mrt-train", "--lr", "-1"),
    ("mrt-train", "--max-sample-len", "0")])
def test_bad_training_flags_are_usage_errors(tmp_path, capsys, command, flag,
                                             value):
    # refused before any file is read: every input named here is missing,
    # which would exit 2 once loading began
    inputs = ["--train-src", "--train-tgt", "--dev-src", "--dev-tgt",
              "--lexicon", *{"train": ["--src-vocab", "--tgt-vocab"],
                             "mrt-train": ["--init"]}[command]]
    argv = [command, "--run-dir", str(tmp_path / "run"),
            *(arg for name in inputs for arg in (name, str(tmp_path / "x")))]
    assert main([*argv, f"{flag}={value}"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and "Traceback" not in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command, flag, value", [
    ("preprocess", "--merges", "-1"), ("preprocess", "--src-vocab-size", "0"),
    ("preprocess", "--tgt-vocab-size", "-4"), ("align", "--iterations", "0"),
    ("align", "--min-prob", "1.0"), ("align", "--min-prob", "-0.5"),
    ("align", "--min-prob", "nan")])
def test_bad_corpus_flags_are_usage_errors(tmp_path, capsys, command, flag,
                                           value):
    # refused before any file is read: every input named here is missing,
    # which would exit 2 once loading began
    out = tmp_path / "out"
    inputs = {"preprocess": ["--train-src", "--train-tgt", "--dev-src",
                             "--dev-tgt"],
              "align": ["--src", "--tgt", "--src-vocab", "--tgt-vocab"]}
    argv = [command, {"preprocess": "--outdir", "align": "--out"}[command],
            str(out), *(arg for name in inputs[command]
                        for arg in (name, str(tmp_path / "x")))]
    assert main([*argv, f"{flag}={value}"]) == 1
    err = capsys.readouterr().err
    assert "usage error" in err and flag in err and "Traceback" not in err
    assert not out.exists()


def test_no_command_prints_help(capsys):
    assert main([]) == 1
    assert "COMMAND" in capsys.readouterr().out


def test_missing_data_file_exits_two(tmp_path, capsys):
    assert main(["score", "--hyp", str(tmp_path / "nope.txt"),
                 "--ref", str(tmp_path / "nope.txt")]) == 2
    err = capsys.readouterr().err
    assert "data error" in err and "cannot read" in err
    assert "Traceback" not in err


def _decode_argv(pipeline, *flags):
    return ["decode", "--input", str(pipeline["data"] / "dev.src"),
            "--checkpoint", str(pipeline["ckpt"]), *flags]


def _data_flags(pipeline, **replaced):
    data = pipeline["data"]
    paths = {"train-src": data / "train.src", "train-tgt": data / "train.tgt",
             "dev-src": data / "dev.src", "dev-tgt": data / "dev.tgt",
             "src-vocab": data / "vocab.src", "tgt-vocab": data / "vocab.tgt",
             **replaced}
    return [arg for flag, path in paths.items()
            for arg in (f"--{flag}", str(path))]


# each builds the argv that reads (or, for --output, writes) `bad` there
BAD_FILES = {
    "align --tgt-vocab": lambda p, bad: [
        "align", "--src", str(p["data"] / "train.src"),
        "--tgt", str(p["data"] / "train.tgt"),
        "--src-vocab", str(p["data"] / "vocab.src"), "--tgt-vocab", bad,
        "--out", bad + ".tsv"],
    "decode --bpe": lambda p, bad: _decode_argv(p, "--bpe", bad),
    "decode --lexicon": lambda p, bad: _decode_argv(p, "--lexicon", bad),
    "decode --input": lambda p, bad: [
        "decode", "--input", bad, "--checkpoint", str(p["ckpt"])],
    "--config": lambda p, bad: [
        "--config", bad, "score", "--hyp", bad, "--ref", bad],
    "train --train-src": lambda p, bad: [
        "train", *_data_flags(p, **{"train-src": bad}),
        "--run-dir", bad + ".run"],
    "decode --output": lambda p, bad: _decode_argv(p, "--output", bad),
}


@pytest.mark.parametrize("case", sorted(BAD_FILES))
def test_bad_file_fails_as_data_error_naming_it(pipeline, tmp_path, capsys,
                                                case):
    if case == "decode --output":
        bad = tmp_path / "no-such-dir" / "out.txt"
        reason = "cannot write"
    else:  # invalid UTF-8
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"uno\n\xbf\xff dos\n")
        reason = "not UTF-8"
    assert main(BAD_FILES[case](pipeline, str(bad))) == 2
    err = capsys.readouterr().err
    assert str(bad) in err and reason in err and "Traceback" not in err


def test_text_loaders_raise_data_error_for_a_missing_file(tmp_path):
    missing = tmp_path / "missing.txt"
    vocab = Vocabulary(["<s>", "<unk>"])
    for load in (Vocabulary.load, load_bpe,
                 lambda path: load_lexicon(path, vocab, vocab)):
        with pytest.raises(DataError, match=re.escape(f"cannot read {missing}")):
            load(missing)


def test_mismatched_line_counts_exit_two(tmp_path, capsys):
    src = tmp_path / "a.txt"
    tgt = tmp_path / "b.txt"
    src.write_text("x\ny\n", encoding="utf-8")
    tgt.write_text("x\n", encoding="utf-8")
    assert main(["preprocess", "--train-src", str(src),
                 "--train-tgt", str(tgt),
                 "--outdir", str(tmp_path / "o")]) == 2
    assert "line counts differ" in capsys.readouterr().err


def test_numerical_failure_exits_three(tmp_path, monkeypatch, capsys):
    src, tgt = _write_corpus(tmp_path, 4, seed=6)
    pre = tmp_path / "pre"
    assert main(["preprocess", "--train-src", str(src), "--train-tgt",
                 str(tgt), "--outdir", str(pre), "--merges", "0"]) == 0
    capsys.readouterr()

    def explode(*a, **k):
        raise NumericalError("non-finite loss in minibatch 0")

    monkeypatch.setattr(cli_mod, "train_ml", explode)
    code = main(["train",
                 "--train-src", str(pre / "train.src"),
                 "--train-tgt", str(pre / "train.tgt"),
                 "--dev-src", str(pre / "train.src"),
                 "--dev-tgt", str(pre / "train.tgt"),
                 "--src-vocab", str(pre / "vocab.src"),
                 "--tgt-vocab", str(pre / "vocab.tgt"),
                 "--run-dir", str(tmp_path / "run")])
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical error" in err and "Traceback" not in err


def test_dev_flags_must_come_together(tmp_path, capsys):
    src, tgt = _write_corpus(tmp_path, 4, seed=7)
    assert main(["preprocess", "--train-src", str(src), "--train-tgt",
                 str(tgt), "--outdir", str(tmp_path / "o"),
                 "--dev-src", str(src)]) == 1
    assert "together" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()
    # a dev file that cannot be read also fails before anything is written
    assert main(["preprocess", "--train-src", str(src), "--train-tgt",
                 str(tgt), "--outdir", str(tmp_path / "o"),
                 "--dev-src", str(src), "--dev-tgt",
                 str(tmp_path / "missing.tgt")]) == 2
    assert "cannot read" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_train_determinism_across_runs(tmp_path):
    src, tgt = _write_corpus(tmp_path, 10, seed=8)
    pre = tmp_path / "pre"
    assert main(["preprocess", "--train-src", str(src), "--train-tgt",
                 str(tgt), "--outdir", str(pre), "--merges", "10"]) == 0
    artifacts = []
    for name in ("r1", "r2"):
        run = tmp_path / name
        assert main(["train",
                     "--train-src", str(pre / "train.src"),
                     "--train-tgt", str(pre / "train.tgt"),
                     "--dev-src", str(pre / "train.src"),
                     "--dev-tgt", str(pre / "train.tgt"),
                     "--src-vocab", str(pre / "vocab.src"),
                     "--tgt-vocab", str(pre / "vocab.tgt"),
                     "--run-dir", str(run), "--d-emb", "6", "--d-hid", "6",
                     "--max-epochs", "1", "--dev-check", "1000",
                     "--seed", "11"]) == 0
        artifacts.append(((run / "model.ckpt").read_bytes(),
                          (run / "trainlog.jsonl").read_bytes()))
    assert artifacts[0] == artifacts[1]
