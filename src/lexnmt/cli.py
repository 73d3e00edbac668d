"""Command-line entry point wiring the library into reproducible pipelines.

Subcommands: preprocess (normalize + BPE + vocab), align (IBM Model 1 lexicon),
train (maximum likelihood), mrt-train (minimum-risk fine-tuning), decode,
score, sample.  Configuration precedence is flags > --config file > defaults.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .align import ibm1_train, load_lexicon, prune_lexicon, save_lexicon
from .corpus import (Vocabulary, apply_bpe, build_vocab, encode_pairs,
                     invert_bpe, learn_bpe, load_bpe, normalize_halfwidth,
                     read_lines, read_parallel, save_bpe, write_lines)
from .decode import beam_search_all, score_hypothesis
from .errors import DataError, NumericalError
from .metrics import bleu, length_ratio, sbleu
from .model import init_params, load_checkpoint, save_checkpoint
from .train import (MrtSettings, TrainConfig, sample_translations, train_ml,
                    train_mrt)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _Repeated(argparse.Action):
    """A repeatable flag collected into a list; its first use on the command
    line replaces a list given by the config file."""

    def __call__(self, parser, namespace, values, option_string=None):
        items = getattr(namespace, self.dest)
        items = [] if items is self.default else items
        setattr(namespace, self.dest, items + [values])


def _build_parser():
    parser = _Parser(prog="lexnmt",
                     description="attentional NMT with discrete lexicon bias")
    parser.add_argument("--config", metavar="FILE",
                        help="JSON file of flag defaults (flags still win)")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    subparsers = {}

    p = subparsers["preprocess"] = sub.add_parser(
        "preprocess", help="normalize, learn/apply BPE, build vocabularies")
    p.add_argument("--train-src", required=True)
    p.add_argument("--train-tgt", required=True)
    p.add_argument("--dev-src")
    p.add_argument("--dev-tgt")
    p.add_argument("--outdir", required=True)
    p.add_argument("--merges", type=int, default=1000)
    p.add_argument("--src-vocab-size", type=int, default=10000)
    p.add_argument("--tgt-vocab-size", type=int, default=10000)
    p.set_defaults(func=_cmd_preprocess)

    p = subparsers["align"] = sub.add_parser(
        "align", help="train an IBM Model 1 lexicon on preprocessed text")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--src-vocab", required=True)
    p.add_argument("--tgt-vocab", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--iterations", type=int, default=5)
    p.add_argument("--min-prob", type=float, default=0.0,
                   help="drop entries below this probability")
    p.set_defaults(func=_cmd_align)

    p = subparsers["train"] = sub.add_parser(
        "train", help="maximum-likelihood training")
    _add_data_flags(p)
    p.add_argument("--run-dir", required=True)
    p.add_argument("--lexicon", help="lexicon TSV enabling the biased softmax")
    p.add_argument("--attention", choices=("dot", "mlp"), default="dot")
    p.add_argument("--epsilon", type=float, default=1e-6)
    p.add_argument("--d-emb", type=int, default=64)
    p.add_argument("--d-hid", type=int, default=64)
    p.add_argument("--attn-dim", type=int)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--clip-norm", type=float, default=5.0)
    p.add_argument("--batch-words", type=int, default=2048)
    p.add_argument("--dev-check", type=int, default=200,
                   help="training sentences between dev evaluations")
    p.add_argument("--patience", type=int, default=600,
                   help="sentences without dev improvement before halving the lr")
    p.add_argument("--max-epochs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_train)

    p = subparsers["mrt-train"] = sub.add_parser(
        "mrt-train", help="minimum-risk fine-tuning of a trained model")
    _add_data_flags(p, vocab_flags=False)
    p.add_argument("--init", required=True, metavar="CHECKPOINT")
    p.add_argument("--run-dir", required=True)
    p.add_argument("--lexicon")
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--alpha", type=float, default=0.005)
    p.add_argument("--max-sample-len", type=int)
    p.add_argument("--mrt-epochs", type=int, default=2)
    p.add_argument("--lr", type=float, default=0.001)
    p.add_argument("--clip-norm", type=float, default=5.0)
    p.add_argument("--seed", type=int, default=1)
    p.set_defaults(func=_cmd_mrt_train)

    p = subparsers["decode"] = sub.add_parser(
        "decode", help="beam-search translation of a text file")
    p.add_argument("--input", required=True)
    p.add_argument("--checkpoint", action=_Repeated, required=True,
                   help="model checkpoint; repeat to ensemble")
    p.add_argument("--bpe", help="merge file from preprocess")
    p.add_argument("--lexicon")
    p.add_argument("--beam", type=int, default=5)
    p.add_argument("--word-penalty", type=float, default=0.0)
    p.add_argument("--max-len", type=int,
                   help="hypothesis length cap (default 2*|F|+10)")
    p.add_argument("--output", help="write translations here instead of stdout")
    p.add_argument("--scores", help="side file of per-sentence log scores")
    p.set_defaults(func=_cmd_decode)

    p = subparsers["score"] = sub.add_parser(
        "score", help="corpus BLEU and length ratio")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--per-sentence", metavar="FILE",
                   help="write per-sentence SBLEU TSV here")
    p.set_defaults(func=_cmd_score)

    p = subparsers["sample"] = sub.add_parser(
        "sample", help="draw translations from the model distribution")
    p.add_argument("--input", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--bpe")
    p.add_argument("--lexicon")
    p.add_argument("--samples", type=int, default=1)
    p.add_argument("--max-len", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=_cmd_sample)

    return parser, subparsers


def _add_data_flags(p, vocab_flags: bool = True):
    p.add_argument("--train-src", required=True)
    p.add_argument("--train-tgt", required=True)
    p.add_argument("--dev-src", required=True)
    p.add_argument("--dev-tgt", required=True)
    if vocab_flags:
        p.add_argument("--src-vocab", required=True)
        p.add_argument("--tgt-vocab", required=True)


def _apply_config(parser, subparsers, argv) -> dict[str, str]:
    """Install --config values as flag defaults; returns, per subcommand, the
    error of its first value that does not fit its flag."""
    pre = _Parser(add_help=False)
    pre.add_argument("--config")
    known, _ = pre.parse_known_args(argv)
    if known.config is None:
        return {}
    try:
        values = json.loads("\n".join(read_lines(known.config)))
    except json.JSONDecodeError as e:
        raise DataError(f"{known.config}: invalid JSON: {e}") from e
    if not isinstance(values, dict):
        raise DataError(f"{known.config}: config must be a JSON object")
    all_dests = set()
    errors = {}
    for name, sp in subparsers.items():
        for action in sp._actions:
            all_dests.add(action.dest)
            if action.dest in values:
                try:
                    action.default = _config_value(action, values[action.dest])
                except DataError as e:
                    errors.setdefault(name, f"{known.config}: {e}")
    unknown = set(values) - all_dests
    if unknown:
        raise _UsageError(f"unknown config key: {sorted(unknown)[0]}")
    return errors


def _config_value(action, value):
    """A config value as a flag default, or DataError if its type does not
    fit the flag.  A string is flag text, parsed as on the command line."""
    if isinstance(action, _Repeated):
        items = [value] if isinstance(value, str) else value
        if isinstance(items, list) and all(isinstance(v, str) for v in items):
            return items
    elif isinstance(value, str):
        return value
    elif type(value) in {int: (int,), float: (int, float)}.get(action.type, ()):
        return action.type(value)
    raise DataError(f"config key '{action.dest}': {json.dumps(value)} does "
                    f"not fit {action.option_strings[0]}")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_preprocess(args):
    _check_positive(args, "src_vocab_size", "tgt_vocab_size")
    if args.merges < 0:
        raise _UsageError("--merges must be >= 0")
    if (args.dev_src is None) != (args.dev_tgt is None):
        raise _UsageError("--dev-src and --dev-tgt must be given together")
    src, tgt = read_parallel(args.train_src, args.train_tgt)
    dev = {}
    if args.dev_src is not None:
        dev = dict(zip(("dev.src", "dev.tgt"),
                       read_parallel(args.dev_src, args.dev_tgt)))
    src = [normalize_halfwidth(s) for s in src]
    tgt = [normalize_halfwidth(t) for t in tgt]
    bpe = learn_bpe(src + tgt, args.merges)
    os.makedirs(args.outdir, exist_ok=True)
    save_bpe(bpe, os.path.join(args.outdir, "bpe.merges"))

    def segment(lines):
        return [apply_bpe(bpe, line) for line in lines]

    def write_tokens(name, sentences):
        write_lines(os.path.join(args.outdir, name), map(" ".join, sentences))

    src_bpe = segment(src)
    tgt_bpe = segment(tgt)
    src_vocab = build_vocab(src_bpe, args.src_vocab_size)
    tgt_vocab = build_vocab(tgt_bpe, args.tgt_vocab_size)
    src_vocab.save(os.path.join(args.outdir, "vocab.src"))
    tgt_vocab.save(os.path.join(args.outdir, "vocab.tgt"))
    write_tokens("train.src", src_bpe)
    write_tokens("train.tgt", tgt_bpe)
    for name, lines in dev.items():
        write_tokens(name, segment(map(normalize_halfwidth, lines)))
    print(f"merges: {len(bpe.merges)}  src vocab: {len(src_vocab)}  "
          f"tgt vocab: {len(tgt_vocab)}")
    return 0


def _cmd_align(args):
    _check_positive(args, "iterations")
    if not 0 <= args.min_prob < 1:  # False for nan too
        raise _UsageError("--min-prob must be in [0, 1)")
    src, tgt = read_parallel(args.src, args.tgt)
    src_vocab = Vocabulary.load(args.src_vocab)
    tgt_vocab = Vocabulary.load(args.tgt_vocab)
    pairs = encode_pairs(src, tgt, src_vocab, tgt_vocab)
    table = ibm1_train(pairs, args.iterations)
    if args.min_prob > 0:
        table = prune_lexicon(table, args.min_prob)
    save_lexicon(table, src_vocab, tgt_vocab, args.out)
    entries = sum(len(v) for v in table.entries.values())
    print(f"lexicon: {len(table)} source words, {entries} entries")
    return 0


def _load_data(args, src_vocab, tgt_vocab):
    """Encoded train and dev pairs, and the lexicon table if one is given."""
    train = encode_pairs(*read_parallel(args.train_src, args.train_tgt),
                         src_vocab, tgt_vocab)
    dev = encode_pairs(*read_parallel(args.dev_src, args.dev_tgt),
                       src_vocab, tgt_vocab)
    return train, dev, _load_optional_lexicon(args, src_vocab, tgt_vocab)


def _load_optional_lexicon(args, src_vocab, tgt_vocab):
    return (load_lexicon(args.lexicon, src_vocab, tgt_vocab)
            if args.lexicon else None)


def _train_config(args, **settings) -> TrainConfig:
    """The training configuration of the flags; refusing it is a usage
    error, raised before any file is read."""
    try:
        return TrainConfig(
            lr_schedule=(args.lr, args.lr / 2, args.lr / 4),
            clip_norm=args.clip_norm, seed=args.seed, **settings)
    except ValueError as e:
        raise _UsageError(str(e)) from e


def _cmd_train(args):
    _check_positive(args, "d_emb", "d_hid", "attn_dim")
    if not math.isfinite(args.epsilon):
        raise _UsageError("--epsilon must be a finite number")
    if args.lexicon and args.epsilon <= 0:
        raise _UsageError("--epsilon must be > 0 with --lexicon")
    config = _train_config(
        args, word_budget=args.batch_words, dev_check_interval=args.dev_check,
        patience=args.patience, max_epochs=args.max_epochs)
    src_vocab = Vocabulary.load(args.src_vocab)
    tgt_vocab = Vocabulary.load(args.tgt_vocab)
    train, dev, lexicon = _load_data(args, src_vocab, tgt_vocab)
    params = init_params(
        len(src_vocab), len(tgt_vocab), d_emb=args.d_emb, d_hid=args.d_hid,
        attention=args.attention, attn_dim=args.attn_dim,
        use_lexicon=lexicon is not None, epsilon=args.epsilon,
        src_eos=src_vocab.eos_id, tgt_eos=tgt_vocab.eos_id, seed=args.seed)
    best, log = train_ml(params, train, dev, config,
                         run_dir=args.run_dir, vocabs=(src_vocab, tgt_vocab),
                         lexicon=lexicon)
    save_checkpoint(os.path.join(args.run_dir, "model.ckpt"), best,
                    src_vocab, tgt_vocab)
    if log:
        print(f"best dev loss {min(r['dev_loss'] for r in log):.4f} "
              f"after {log[-1]['sentences_seen']} sentences")
    return 0


def _cmd_mrt_train(args):
    config = _train_config(
        args, mrt=MrtSettings(num_samples=args.samples, alpha=args.alpha,
                              max_sample_len=args.max_sample_len,
                              epochs=args.mrt_epochs))
    params, src_vocab, tgt_vocab = load_checkpoint(args.init)
    train, dev, lexicon = _load_data(args, src_vocab, tgt_vocab)
    best, log = train_mrt(params, train, dev, config, run_dir=args.run_dir,
                          vocabs=(src_vocab, tgt_vocab), lexicon=lexicon)
    save_checkpoint(os.path.join(args.run_dir, "model.ckpt"), best,
                    src_vocab, tgt_vocab)
    if log:
        print(f"dev expected error {log[-1]['dev_expected_error']:.4f} "
              f"after {log[-1]['sentences_seen']} sentences")
    return 0


def _load_models(paths):
    models = []
    vocabs = None
    for path in paths:
        params, src_vocab, tgt_vocab = load_checkpoint(path)
        if vocabs is None:
            vocabs = (src_vocab, tgt_vocab)
        elif (vocabs[0].tokens != src_vocab.tokens
              or vocabs[1].tokens != tgt_vocab.tokens):
            raise DataError(f"{path}: vocabulary differs from first checkpoint")
        models.append(params)
    return models, vocabs[0], vocabs[1]


def _source_ids(line, bpe, src_vocab):
    line = normalize_halfwidth(line)
    tokens = apply_bpe(bpe, line) if bpe is not None else line.split()
    return src_vocab.encode(tokens)


def _target_text(ids, bpe, tgt_vocab):
    """Output text of target ids, without the trailing sentence end."""
    ids = list(ids)
    if ids and ids[-1] == tgt_vocab.eos_id:
        ids.pop()
    words = tgt_vocab.decode(ids)
    return " ".join(invert_bpe(words) if bpe is not None else words)


def _check_positive(args, *flags):
    """Refuse a flag value below 1 (None: the flag's default applies)."""
    for flag in flags:
        value = getattr(args, flag)
        if value is not None and value < 1:
            raise _UsageError(f"--{flag.replace('_', '-')} must be >= 1")


def _cmd_decode(args):
    _check_positive(args, "beam", "max_len")
    if not math.isfinite(args.word_penalty):
        raise _UsageError("--word-penalty must be a finite number")
    models, src_vocab, tgt_vocab = _load_models(args.checkpoint)
    bpe = load_bpe(args.bpe) if args.bpe else None
    lexicon = _load_optional_lexicon(args, src_vocab, tgt_vocab)

    sources = [_source_ids(line, bpe, src_vocab)
               for line in read_lines(args.input)]
    found = iter(beam_search_all(models, [F for F in sources if F],
                                 beam_size=args.beam,
                                 word_penalty=args.word_penalty,
                                 max_len=args.max_len, lexicon=lexicon))
    hyps = [next(found) if F else None for F in sources]
    results = [("", 0.0) if hyp is None else
               (_target_text(hyp.tokens, bpe, tgt_vocab),
                score_hypothesis(hyp, args.word_penalty)) for hyp in hyps]
    write_lines(args.output or None, (text for text, _ in results))
    if args.scores:
        write_lines(args.scores, (f"{score:.6f}" for _, score in results))
    return 0


def _cmd_score(args):
    hyps = [line.split() for line in read_lines(args.hyp)]
    refs = [line.split() for line in read_lines(args.ref)]
    b = bleu(hyps, refs)
    ratio = length_ratio(hyps, refs)
    print(f"BLEU {b:.1f} RATIO {ratio:.1f}")
    if args.per_sentence:
        write_lines(args.per_sentence,
                    (f"{i}\t{sbleu(h, r):.6f}"
                     for i, (h, r) in enumerate(zip(hyps, refs), 1)))
    return 0


def _cmd_sample(args):
    _check_positive(args, "samples", "max_len")
    params, src_vocab, tgt_vocab = load_checkpoint(args.checkpoint)
    bpe = load_bpe(args.bpe) if args.bpe else None
    lexicon = _load_optional_lexicon(args, src_vocab, tgt_vocab)
    rng = np.random.default_rng(args.seed)

    def sample_lines(line):
        ids = _source_ids(line, bpe, src_vocab)
        if not ids:
            return [""] * args.samples
        samples = sample_translations(params, ids, args.samples,
                                      args.max_len, rng, lexicon)
        texts = [_target_text(sample, bpe, tgt_vocab) for sample in samples]
        return (texts if args.samples == 1
                else [f"{k}\t{text}" for k, text in enumerate(texts)])

    write_lines(args.output or None,
                (text for line in read_lines(args.input)
                 for text in sample_lines(line)))
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def run_command(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, subparsers = _build_parser()
    config_errors = _apply_config(parser, subparsers, argv)
    args = parser.parse_args(argv)
    if not hasattr(args, "func"):
        parser.print_help()
        return 1
    if args.command in config_errors:
        raise DataError(config_errors[args.command])
    return args.func(args)


def main(argv=None) -> int:
    try:
        return run_command(argv)
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except NumericalError as e:
        print(f"numerical error: {e}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
