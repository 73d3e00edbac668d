"""Workloads of the pipeline benchmark: their inputs, fixtures and stage plans.

Every workload runs the same seven stages through the ``lexnmt`` command line:
preprocess, align, train, mrt-train, decode (one model), decode (two-model
ensemble) and a checkpoint save/load round trip.  What differs is the data,
the model shape and which code paths the stages reach:

* ``toy-digits`` is the README walkthrough on the shipped ``data/`` corpus
  (V~12, d=32, MLP attention, lexicon bias), where per-op Python and tape
  bookkeeping dominate;
* ``copy-long`` is a seeded copy task with 8-20-token sentences (V=20, d=32,
  dot attention, no lexicon), where costs that grow with length dominate and
  the lexicon and MLP-attention code is bypassed;
* ``wide-vocab`` is a seeded Zipfian corpus with thousands of word types
  (word-level V=2000, d=128, MLP attention, lexicon bias), where matrix
  arithmetic and memory traffic dominate and BPE and EM do real work.

Decode and MRT start from fixture checkpoints that do not depend on the run
seed.  Each workload's ``fixture`` function builds them once per checkout and
source version (for toy-digits and copy-long this trains the models, which
takes about two minutes); the run seed chooses the measured inputs and the
training seeds.
"""

from __future__ import annotations

import os
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np

from checks import read_lines

# Bump when a fixture recipe changes, so stale fixtures are not reused.
FIXTURE_VERSION = "2"

LETTERS = "abcdefghijklmnopqrstuvwxyz"


@dataclass
class Plan:
    """Everything one run of a workload executes, as paths and flags.

    ``reps`` gives how often each stage runs within one round; stages that
    take well under a second are repeated and their median is reported.
    """

    raw: dict                 # train_src, train_tgt, dev_src, dev_tgt
    merges: int
    pre: str                  # preprocess output directory
    align_src: str
    align_tgt: str
    src_vocab: str
    tgt_vocab: str
    iterations: int
    train: dict               # train_src, train_tgt, dev_src, dev_tgt
    train_flags: list
    epochs: int
    mrt: dict                 # train_src, train_tgt, dev_src, dev_tgt
    mrt_flags: list
    init: str                 # MRT warm start
    decode_input: str
    models: list              # [single-model checkpoint, second member]
    decode_flags: list
    lexicon: str | None       # table the models are biased with
    bpe: str | None           # merges applied to decode input
    reference: str | None     # raw reference for BLEU, None: not checked
    length_cap: bool          # every hypothesis must reach 2|F|+10
    reps: dict = field(default_factory=dict)
    # Line subsets of preprocess outputs that train or MRT read (``Subset``),
    # drawn afresh for every round once preprocess has run.
    subsets: list = field(default_factory=list)
    # Called with the round's generator before preprocess to draw a fresh
    # training side of the raw corpus; None: the corpus stays as planned.
    redraw: object = None


def write_lines(path, lines):
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join(line + "\n" for line in lines))


def _cli(main, argv):
    """Run one fixture-building command; fixtures must build cleanly."""
    code = main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"fixture command {argv[0]} failed with exit {code}")


def preprocess_argv(raw, outdir, merges):
    return ["preprocess", "--train-src", raw["train_src"],
            "--train-tgt", raw["train_tgt"], "--dev-src", raw["dev_src"],
            "--dev-tgt", raw["dev_tgt"], "--outdir", outdir,
            "--merges", merges]


def data_argv(files):
    return ["--train-src", files["train_src"], "--train-tgt", files["train_tgt"],
            "--dev-src", files["dev_src"], "--dev-tgt", files["dev_tgt"]]


def split_files(d, stem=""):
    """Paths of a train/dev parallel corpus in d, e.g. ``train.<stem>src``;
    with no stem, the names ``preprocess`` writes."""
    return {"train_src": os.path.join(d, f"train.{stem}src"),
            "train_tgt": os.path.join(d, f"train.{stem}tgt"),
            "dev_src": os.path.join(d, f"dev.{stem}src"),
            "dev_tgt": os.path.join(d, f"dev.{stem}tgt")}


def cycle_lengths(n, lo, hi):
    """n sentence lengths cycling through lo..hi."""
    return [lo + i % (hi - lo + 1) for i in range(n)]


def write_subset(src_path, tgt_path, out_src, out_tgt, lines):
    """Copy the given line numbers of a parallel corpus."""
    src, tgt = read_lines(src_path), read_lines(tgt_path)
    write_lines(out_src, [src[i] for i in lines])
    write_lines(out_tgt, [tgt[i] for i in lines])


def pick_by_length(path, lengths, rng):
    """Line numbers of ``path``: for each entry of ``lengths`` one line of
    that many words, drawn without replacement, so every seed gets the same
    length profile and only the lines vary."""
    by_length = defaultdict(list)
    for i, line in enumerate(read_lines(path)):
        by_length[len(line.split())].append(i)
    picked = []
    for length in sorted(set(lengths)):
        picked += rng.choice(by_length[length], lengths.count(length),
                             replace=False).tolist()
    return sorted(picked)


@dataclass
class Subset:
    """Lines of (src_in, tgt_in) written to (out_src, out_tgt): one for each
    entry of ``lengths``, picked by the word count of that line in ``raw``."""

    src_in: str
    tgt_in: str
    out_src: str
    out_tgt: str
    raw: str
    lengths: tuple

    def write(self, rng):
        lines = pick_by_length(self.raw, list(self.lengths), rng)
        write_subset(self.src_in, self.tgt_in, self.out_src, self.out_tgt,
                     lines)


def length_subsets(raw, pre, train, mrt, sizes):
    """ML training lines, MRT training lines and MRT dev lines, each drawn
    from the preprocessed corpus with the lengths ``sizes`` gives."""
    return [Subset(pre["train_src"], pre["train_tgt"], train["train_src"],
                   train["train_tgt"], raw["train_src"], sizes["train_lengths"]),
            Subset(pre["train_src"], pre["train_tgt"], mrt["train_src"],
                   mrt["train_tgt"], raw["train_src"], sizes["mrt_lengths"]),
            Subset(pre["dev_src"], pre["dev_tgt"], mrt["dev_src"],
                   mrt["dev_tgt"], raw["dev_src"], sizes["mrt_dev_lengths"])]


# ---------------------------------------------------------------------------
# toy-digits: the README walkthrough
# ---------------------------------------------------------------------------

TOY_LENGTHS = (2, 3, 4, 5, 6, 7)
TOY_SIZES = {"merges": 100, "align_iterations": 8, "ml_epochs": 1,
             "train_lengths": TOY_LENGTHS * 8, "mrt_lengths": TOY_LENGTHS * 2,
             # the shipped dev set has a single 4-digit line
             "mrt_dev_lengths": (2, 3, 4, 5, 6, 7, 2, 3, 5, 6),
             "reps": {"preprocess": 5, "align": 4, "train": 1, "mrt": 1,
                      "decode": 1, "ensemble": 1, "checkpoint": 8}}

TOY_ML_FLAGS = ["--attention", "mlp", "--d-emb", "32", "--d-hid", "32",
                "--batch-words", "50", "--lr", "0.002", "--dev-check", "200",
                "--patience", "2000"]
TOY_MRT_FLAGS = ["--samples", "8", "--alpha", "0.05", "--max-sample-len", "20",
                 "--mrt-epochs", "1", "--lr", "0.0005"]


def _toy_raw(root):
    data = os.path.join(root, "data")
    return {"train_src": os.path.join(data, "train.src"),
            "train_tgt": os.path.join(data, "train.tgt"),
            "dev_src": os.path.join(data, "dev.src"),
            "dev_tgt": os.path.join(data, "dev.tgt")}


def toy_fixture(main, root, fx, sizes):
    pre = os.path.join(fx, "pre")
    _cli(main, preprocess_argv(_toy_raw(root), pre, 100))
    _cli(main, ["align", "--src", f"{pre}/train.src", "--tgt", f"{pre}/train.tgt",
                "--src-vocab", f"{pre}/vocab.src", "--tgt-vocab", f"{pre}/vocab.tgt",
                "--out", f"{fx}/lexicon.tsv", "--iterations", 8,
                "--min-prob", 0.01])
    files = split_files(pre)
    _cli(main, ["train", *data_argv(files), "--src-vocab", f"{pre}/vocab.src",
                "--tgt-vocab", f"{pre}/vocab.tgt", "--run-dir", f"{fx}/ml",
                "--lexicon", f"{fx}/lexicon.tsv", *TOY_ML_FLAGS,
                "--max-epochs", 20, "--seed", 1])
    _cli(main, ["mrt-train", *data_argv(files), "--init", f"{fx}/ml/model.ckpt",
                "--run-dir", f"{fx}/mrt", "--lexicon", f"{fx}/lexicon.tsv",
                *TOY_MRT_FLAGS, "--seed", 1])


def toy_plan(root, run, fx, seed, sizes):
    raw = _toy_raw(root)
    pre = os.path.join(run, "pre")
    lexicon = os.path.join(fx, "lexicon.tsv")
    pre_files = split_files(pre)
    train = {**split_files(run, "ml."), "dev_src": pre_files["dev_src"],
             "dev_tgt": pre_files["dev_tgt"]}
    mrt = split_files(run, "mrt.")
    return Plan(
        raw=raw, merges=sizes["merges"], pre=pre,
        align_src=f"{pre}/train.src", align_tgt=f"{pre}/train.tgt",
        src_vocab=f"{pre}/vocab.src", tgt_vocab=f"{pre}/vocab.tgt",
        iterations=sizes["align_iterations"],
        train=train,
        train_flags=["--lexicon", lexicon, *TOY_ML_FLAGS],
        epochs=sizes["ml_epochs"],
        mrt=mrt, subsets=length_subsets(raw, pre_files, train, mrt, sizes),
        mrt_flags=["--lexicon", lexicon, *TOY_MRT_FLAGS],
        init=f"{fx}/ml/model.ckpt",
        decode_input=raw["dev_src"],
        models=[f"{fx}/mrt/model.ckpt", f"{fx}/ml/model.ckpt"],
        decode_flags=["--beam", "5", "--word-penalty", "0.8"],
        lexicon=lexicon, bpe=f"{fx}/pre/bpe.merges",
        reference=raw["dev_tgt"], length_cap=False,
        reps=dict(sizes["reps"]))


# ---------------------------------------------------------------------------
# copy-long: seeded copy task with long sentences
# ---------------------------------------------------------------------------

COPY_SYMBOLS = LETTERS[:18]      # 18 content words + <s>, <unk>: V = 20
COPY_MIN_LEN, COPY_MAX_LEN = 8, 20
COPY_FIXTURE_SEED = 7

COPY_LENGTHS = tuple(range(COPY_MIN_LEN, COPY_MAX_LEN + 1))
COPY_SIZES = {"fixture_train": 400, "fixture_dev": 20, "fixture_epochs": 16,
              "corpus": 104, "dev": 13, "decode": 13,
              "train_lengths": COPY_LENGTHS * 2, "mrt_lengths": (8, 12, 16, 20),
              "mrt_dev_lengths": (8, 12, 16, 20),
              "ml_epochs": 1, "align_iterations": 5,
              "reps": {"preprocess": 5, "align": 4, "train": 1, "mrt": 1,
                       "decode": 1, "ensemble": 1, "checkpoint": 8}}

COPY_MODEL_FLAGS = ["--attention", "dot", "--d-emb", "32", "--d-hid", "32",
                    "--batch-words", "100", "--lr", "0.002"]
COPY_MRT_FLAGS = ["--samples", "8", "--alpha", "0.05", "--mrt-epochs", "1",
                  "--lr", "0.0005"]


def copy_lines(rng, n, stratified):
    """Copy-task sentences of 8-20 symbols.

    Stratified sets cycle through every length in turn (in shuffled order),
    so each seed gives the same length profile and only the symbols vary.
    """
    if stratified:
        lengths = cycle_lengths(n, COPY_MIN_LEN, COPY_MAX_LEN)
        rng.shuffle(lengths)
    else:
        lengths = rng.integers(COPY_MIN_LEN, COPY_MAX_LEN + 1, n)
    return [" ".join(COPY_SYMBOLS[i]
                     for i in rng.integers(0, len(COPY_SYMBOLS), int(length)))
            for length in lengths]


def _write_copy_split(d, rng, n_train, n_dev, stratified):
    os.makedirs(d, exist_ok=True)
    raw = split_files(d)
    train = copy_lines(rng, n_train, stratified)
    dev = copy_lines(rng, n_dev, stratified)
    write_lines(raw["train_src"], train)
    write_lines(raw["train_tgt"], train)
    write_lines(raw["dev_src"], dev)
    write_lines(raw["dev_tgt"], dev)
    return raw


def copy_fixture(main, root, fx, sizes):
    rng = np.random.default_rng(COPY_FIXTURE_SEED)
    raw = _write_copy_split(os.path.join(fx, "raw"), rng,
                            sizes["fixture_train"], sizes["fixture_dev"], False)
    pre = os.path.join(fx, "pre")
    _cli(main, preprocess_argv(raw, pre, 50))
    files = split_files(pre)
    epochs = sizes["fixture_epochs"]
    _cli(main, ["train", *data_argv(files), "--src-vocab", f"{pre}/vocab.src",
                "--tgt-vocab", f"{pre}/vocab.tgt", "--run-dir", f"{fx}/ml",
                *COPY_MODEL_FLAGS, "--dev-check", sizes["fixture_train"],
                "--patience", 3 * sizes["fixture_train"],
                "--max-epochs", epochs, "--seed", 1])
    sub = split_files(os.path.join(fx, "raw"), "mrt.")
    write_subset(files["train_src"], files["train_tgt"], sub["train_src"],
                 sub["train_tgt"], range(50))
    _cli(main, ["mrt-train", *data_argv({**files, "train_src": sub["train_src"],
                                          "train_tgt": sub["train_tgt"]}),
                "--init", f"{fx}/ml/model.ckpt", "--run-dir", f"{fx}/mrt",
                *COPY_MRT_FLAGS, "--seed", 1])


def copy_plan(root, run, fx, seed, sizes):
    rng = np.random.default_rng([seed, 1])
    raw = _write_copy_split(os.path.join(run, "raw"), rng, sizes["corpus"],
                            sizes["dev"], True)
    decode_input = os.path.join(run, "raw", "decode.src")
    write_lines(decode_input, copy_lines(rng, sizes["decode"], True))
    pre = os.path.join(run, "pre")
    files = split_files(pre)
    train = {**split_files(os.path.join(run, "raw"), "ml."),
             "dev_src": files["dev_src"], "dev_tgt": files["dev_tgt"]}
    mrt = split_files(os.path.join(run, "raw"), "mrt.")
    return Plan(
        raw=raw, merges=50, pre=pre,
        align_src=files["train_src"], align_tgt=files["train_tgt"],
        src_vocab=f"{pre}/vocab.src", tgt_vocab=f"{pre}/vocab.tgt",
        iterations=sizes["align_iterations"],
        train=train,
        train_flags=[*COPY_MODEL_FLAGS, "--dev-check", "1000000",
                     "--patience", "1000000"],
        epochs=sizes["ml_epochs"],
        mrt=mrt, subsets=length_subsets(raw, files, train, mrt, sizes),
        mrt_flags=list(COPY_MRT_FLAGS),
        init=f"{fx}/ml/model.ckpt",
        decode_input=decode_input,
        models=[f"{fx}/mrt/model.ckpt", f"{fx}/ml/model.ckpt"],
        decode_flags=["--beam", "5", "--word-penalty", "0"],
        lexicon=None, bpe=f"{fx}/pre/bpe.merges",
        reference=decode_input, length_cap=False,
        reps=dict(sizes["reps"]))


# ---------------------------------------------------------------------------
# wide-vocab: Zipfian word-for-word translation with local reordering
# ---------------------------------------------------------------------------

WIDE_LANGUAGE_SEED = 2016
WIDE_FIXTURE_SEED = 8

WIDE_SIZES = {"types": 5000, "vocab": 2000, "d": 128,
              "fixture_corpus": 1500, "corpus": 600, "min_len": 6,
              "max_len": 14, "merges": 40, "align_iterations": 5,
              "train_lengths": (6, 8, 10, 12, 14), "dev_lengths": (8, 12),
              "mrt_lengths": (10,),
              "mrt_dev_lengths": (10,), "max_sample_len": 10,
              "decode_lengths": (8, 12), "ml_epochs": 1, "model_seeds": (11, 12),
              "reps": {"preprocess": 1, "align": 1, "train": 1, "mrt": 1,
                       "decode": 1, "ensemble": 1, "checkpoint": 8}}

WIDE_MODEL_FLAGS = ["--attention", "mlp", "--batch-words", "200",
                    "--lr", "0.001"]


class WideLanguage:
    """A fixed synthetic language pair: ``types`` source words, each with one
    target word, drawn with Zipfian frequencies.  In the target, a word whose
    frequency rank is divisible by 3 swaps with its right neighbour when it
    sits at an even position, which gives local reordering."""

    def __init__(self, types):
        rng = np.random.default_rng(WIDE_LANGUAGE_SEED)
        self.src = self._words(rng, types, set())
        self.tgt = self._words(rng, types, set(self.src))
        p = 1.0 / (np.arange(types) + 2.7)
        self.p = p / p.sum()

    @staticmethod
    def _words(rng, n, taken):
        words = []
        seen = set(taken)
        letters = np.array(list(LETTERS))
        while len(words) < n:
            w = "".join(letters[rng.integers(0, 26, int(rng.integers(3, 9)))])
            if w not in seen:
                seen.add(w)
                words.append(w)
        return words

    def write(self, rng, lengths, src_path, tgt_path):
        """Sentence pairs of the given lengths, in shuffled order."""
        lengths = list(lengths)
        rng.shuffle(lengths)
        src_lines, tgt_lines = [], []
        for length in lengths:
            ranks = rng.choice(len(self.p), length, p=self.p)
            src = [self.src[r] for r in ranks]
            tgt = [self.tgt[r] for r in ranks]
            for j in range(0, length - 1, 2):
                if ranks[j] % 3 == 0:
                    tgt[j], tgt[j + 1] = tgt[j + 1], tgt[j]
            src_lines.append(" ".join(src))
            tgt_lines.append(" ".join(tgt))
        write_lines(src_path, src_lines)
        write_lines(tgt_path, tgt_lines)
        return src_lines, tgt_lines


def wide_fixture(main, root, fx, sizes):
    from lexnmt.corpus import build_vocab
    from lexnmt.model import init_params, save_checkpoint

    lang = WideLanguage(sizes["types"])
    rng = np.random.default_rng(WIDE_FIXTURE_SEED)
    os.makedirs(f"{fx}/raw")
    src, tgt = lang.write(rng, cycle_lengths(sizes["fixture_corpus"],
                                             sizes["min_len"], sizes["max_len"]),
                          f"{fx}/raw/corpus.src", f"{fx}/raw/corpus.tgt")
    cap = sizes["vocab"] - 2
    src_vocab = build_vocab(src, cap)
    tgt_vocab = build_vocab(tgt, cap)
    src_vocab.save(f"{fx}/vocab.src")
    tgt_vocab.save(f"{fx}/vocab.tgt")
    _cli(main, ["align", "--src", f"{fx}/raw/corpus.src",
                "--tgt", f"{fx}/raw/corpus.tgt", "--src-vocab", f"{fx}/vocab.src",
                "--tgt-vocab", f"{fx}/vocab.tgt", "--out", f"{fx}/lexicon.tsv",
                "--iterations", sizes["align_iterations"], "--min-prob", 0.01])
    d = sizes["d"]
    for k, model_seed in enumerate(sizes["model_seeds"]):
        params = init_params(len(src_vocab), len(tgt_vocab), d_emb=d, d_hid=d,
                             attention="mlp", use_lexicon=True,
                             src_eos=src_vocab.eos_id, tgt_eos=tgt_vocab.eos_id,
                             seed=model_seed)
        save_checkpoint(f"{fx}/model{k}.ckpt", params, src_vocab, tgt_vocab)


def wide_plan(root, run, fx, seed, sizes):
    lang = WideLanguage(sizes["types"])
    rng = np.random.default_rng([seed, 3])
    raw_dir = os.path.join(run, "raw")
    os.makedirs(raw_dir)
    lo, hi = sizes["min_len"], sizes["max_len"]
    corpus = split_files(raw_dir)

    def redraw(rng):
        lang.write(rng, cycle_lengths(sizes["corpus"], lo, hi),
                   corpus["train_src"], corpus["train_tgt"])

    redraw(rng)
    lang.write(rng, sizes["dev_lengths"], corpus["dev_src"], corpus["dev_tgt"])
    train = split_files(raw_dir, "ml.")
    lang.write(rng, sizes["train_lengths"], train["train_src"],
               train["train_tgt"])
    train["dev_src"], train["dev_tgt"] = corpus["dev_src"], corpus["dev_tgt"]
    mrt = split_files(raw_dir, "mrt.")
    lang.write(rng, sizes["mrt_lengths"], mrt["train_src"], mrt["train_tgt"])
    lang.write(rng, sizes["mrt_dev_lengths"], mrt["dev_src"], mrt["dev_tgt"])
    decode_input = os.path.join(raw_dir, "decode.src")
    lang.write(rng, sizes["decode_lengths"], decode_input,
               os.path.join(raw_dir, "decode.tgt"))
    lexicon = f"{fx}/lexicon.tsv"
    d = str(sizes["d"])
    return Plan(
        raw=corpus, merges=sizes["merges"], pre=os.path.join(run, "pre"),
        align_src=corpus["train_src"], align_tgt=corpus["train_tgt"],
        src_vocab=f"{fx}/vocab.src", tgt_vocab=f"{fx}/vocab.tgt",
        iterations=sizes["align_iterations"],
        train=train,
        train_flags=["--lexicon", lexicon, "--d-emb", d, "--d-hid", d,
                     *WIDE_MODEL_FLAGS, "--dev-check", "1000000",
                     "--patience", "1000000"],
        epochs=sizes["ml_epochs"],
        mrt=mrt,
        mrt_flags=["--lexicon", lexicon, "--samples", "8", "--alpha", "0.05",
                   "--max-sample-len", str(sizes["max_sample_len"]),
                   "--mrt-epochs", "1", "--lr", "0.0005"],
        init=f"{fx}/model0.ckpt",
        decode_input=decode_input,
        models=[f"{fx}/model0.ckpt", f"{fx}/model1.ckpt"],
        decode_flags=["--beam", "5", "--word-penalty", "3"],
        lexicon=lexicon, bpe=None, reference=None, length_cap=True,
        reps=dict(sizes["reps"]), redraw=redraw)


@dataclass
class Workload:
    name: str
    sizes: dict
    fixture: object           # (cli main, repo root, fixture dir, sizes)
    plan: object              # (repo root, run dir, fixture dir, seed, sizes)


WORKLOADS = {
    "toy-digits": Workload("toy-digits", TOY_SIZES, toy_fixture, toy_plan),
    "copy-long": Workload("copy-long", COPY_SIZES, copy_fixture, copy_plan),
    "wide-vocab": Workload("wide-vocab", WIDE_SIZES, wide_fixture, wide_plan),
}
