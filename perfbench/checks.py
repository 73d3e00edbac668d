"""Output checks for the pipeline benchmark.

Each check reads what a stage wrote and returns a list of problems (empty when
the output is right).  The checks recount and recompute on their own: BPE
inversion, lexicon sums and BLEU are counted here, and model scores come from
the straight-line numpy forward in ``tests/oracles.py``, which shares no code
with the package's autodiff, batching or search.  The package is used only to
read checkpoints.
"""

from __future__ import annotations

import json
import math
from collections import Counter, defaultdict

import numpy as np

END_OF_WORD = "</w>"
UNK = "<unk>"

SCORE_TOLERANCE = 2e-6     # scores are written with six decimals
NLL_TOLERANCE = 1e-9       # relative; dev NLL is logged at full precision


def read_lines(path):
    with open(path, encoding="utf-8") as f:
        return f.read().splitlines()


def halfwidth(text):
    """Full-width Latin letters and digits to ASCII, as preprocessing does."""
    return "".join(chr(ord(ch) - 0xFEE0)
                   if "０" <= ch <= "９" or "Ａ" <= ch <= "Ｚ"
                   or "ａ" <= ch <= "ｚ" else ch
                   for ch in text)


def encode(tokens, ids):
    return [ids.get(t, ids[UNK]) for t in tokens]


class Bpe:
    """Applies a merge file in learned order, each merge left to right."""

    def __init__(self, path):
        self.merges = [tuple(line.split(" ")) for line in read_lines(path) if line]
        self._cache = {}

    def word(self, word):
        if word not in self._cache:
            symbols = list(word) + [END_OF_WORD]
            for a, b in self.merges:
                out, i = [], 0
                while i < len(symbols):
                    if i + 1 < len(symbols) and symbols[i] == a \
                            and symbols[i + 1] == b:
                        out.append(a + b)
                        i += 2
                    else:
                        out.append(symbols[i])
                        i += 1
                symbols = out
            self._cache[word] = symbols
        return self._cache[word]

    def __call__(self, words):
        return [s for w in words for s in self.word(w)]


def tokenize(line, bpe):
    words = halfwidth(line).split()
    return bpe(words) if bpe is not None else words


# ---------------------------------------------------------------------------
# preprocess and align
# ---------------------------------------------------------------------------

def check_preprocess(raw_files, pre_files):
    """Every segmented line joins back into its normalised raw line."""
    problems = []
    for key, raw_path in raw_files.items():
        raw = read_lines(raw_path)
        seg = read_lines(pre_files[key])
        if len(raw) != len(seg):
            problems.append(f"{key}: {len(seg)} segmented lines for {len(raw)}")
            continue
        for i, (r, s) in enumerate(zip(raw, seg), 1):
            words = [w for w in "".join(s.split()).split(END_OF_WORD) if w]
            if words != halfwidth(r).split():
                problems.append(f"{key} line {i}: BPE does not invert")
                break
    return problems


def read_lexicon(path, src_ids=None, tgt_ids=None):
    """TSV lexicon as {source: {target: prob}}, keyed by ids when vocabularies
    are given (tokens outside them are skipped, as the package does)."""
    table = defaultdict(dict)
    for line in read_lines(path):
        if not line:
            continue
        f, e, p = line.split("\t")
        if src_ids is not None:
            if f not in src_ids or e not in tgt_ids:
                continue
            f, e = src_ids[f], tgt_ids[e]
        table[f][e] = float(p)
    return dict(table)


def check_lexicon_sums(path):
    """Each unpruned IBM Model 1 source distribution sums to one."""
    table = read_lexicon(path)
    if not table:
        return ["lexicon is empty"]
    for f, dist in table.items():
        total = math.fsum(dist.values())
        if abs(total - 1.0) > 1e-9:
            return [f"source {f!r}: probabilities sum to {total!r}"]
    return []


def align_links(src_path, tgt_path):
    """Sum over sentence pairs of |F| * |E|, one EM iteration's link count."""
    return sum(len(s.split()) * len(t.split())
               for s, t in zip(read_lines(src_path), read_lines(tgt_path)))


# ---------------------------------------------------------------------------
# model scores
# ---------------------------------------------------------------------------

class Scorer:
    """Teacher-forced log-probabilities from the numpy reference forward.

    With several models the per-step distributions are averaged before the
    log, which is the package's ensemble rule.
    """

    def __init__(self, oracles, models, table):
        self.oracles = oracles
        self.models = models
        self.table = table

    def logprob(self, F, E):
        o = self.oracles
        states = []
        for m in self.models:
            R, init = o.ref_encode(m, F)
            states.append((init, np.zeros(m.dec_hid), np.zeros(m.dec_hid), R))
        prev = self.models[0].tgt_eos
        total = 0.0
        for e in E:
            dist = 0.0
            for k, m in enumerate(self.models):
                h, c, ctx, R = states[k]
                lex = (None if self.table is None else
                       {"F": F, "table": self.table, "epsilon": m.epsilon})
                h, c, ctx, probs = o.ref_step_distribution(m, prev, h, c, ctx,
                                                           R, lex)
                states[k] = (h, c, ctx, R)
                dist = dist + probs
            total += math.log(dist[e] / len(self.models))
            prev = e
        return total


def _vocab_ids(vocab):
    return {t: i for i, t in enumerate(vocab.tokens)}


def check_dev_nll(load_checkpoint, oracles, run_dir, dev_src, dev_tgt,
                  lexicon_path):
    """The best logged dev NLL equals the reference forward on model.ckpt."""
    params, src_vocab, tgt_vocab = load_checkpoint(f"{run_dir}/model.ckpt")
    src_ids, tgt_ids = _vocab_ids(src_vocab), _vocab_ids(tgt_vocab)
    table = (read_lexicon(lexicon_path, src_ids, tgt_ids)
             if lexicon_path else None)
    scorer = Scorer(oracles, [params], table)
    total, tokens = 0.0, 0
    for s, t in zip(read_lines(dev_src), read_lines(dev_tgt)):
        E = encode(t.split(), tgt_ids) + [params.tgt_eos]
        total -= scorer.logprob(encode(s.split(), src_ids), E)
        tokens += len(E)
    expected = total / tokens
    logged = [r["dev_loss"] for r in _log_records(f"{run_dir}/trainlog.jsonl")]
    if not logged:
        return ["train log has no dev check"]
    if abs(min(logged) - expected) > NLL_TOLERANCE * abs(expected):
        return [f"dev NLL {min(logged)!r} differs from reference {expected!r}"]
    return []


def _log_records(path):
    records = [json.loads(line) for line in read_lines(path) if line]
    return [r for r in records if "header" not in r]


def check_mrt_log(run_dir):
    """Logged expected errors (train and dev) lie in [0, 1]."""
    records = _log_records(f"{run_dir}/trainlog.jsonl")
    if not records:
        return ["MRT log is empty"]
    for r in records:
        for key in ("expected_error", "dev_expected_error"):
            v = r.get(key)
            if not isinstance(v, (int, float)) or not 0.0 <= v <= 1.0:
                return [f"{key} = {v!r} outside [0, 1]"]
    return []


def check_decode(load_checkpoint, oracles, plan, n_models, hyp_path,
                 score_path, stderr):
    """Every --scores line equals the reference score of its hypothesis, and
    hypotheses end where the workload says: naturally, or at 2|F|+10."""
    models = []
    for path in plan.models[:n_models]:
        params, src_vocab, tgt_vocab = load_checkpoint(path)
        models.append(params)
    src_ids, tgt_ids = _vocab_ids(src_vocab), _vocab_ids(tgt_vocab)
    table = (read_lexicon(plan.lexicon, src_ids, tgt_ids)
             if plan.lexicon else None)
    bpe = Bpe(plan.bpe) if plan.bpe else None
    penalty = float(plan.decode_flags[plan.decode_flags.index("--word-penalty")
                                      + 1])
    sources = read_lines(plan.decode_input)
    hyps = read_lines(hyp_path)
    scores = read_lines(score_path)
    if not len(sources) == len(hyps) == len(scores):
        return [f"{len(sources)} inputs, {len(hyps)} outputs, "
                f"{len(scores)} scores"]
    if "no hypothesis completed" in stderr:
        return ["an incomplete hypothesis was returned"]
    scorer = Scorer(oracles, models, table)
    eos = models[0].tgt_eos
    for i, (src, hyp, score) in enumerate(zip(sources, hyps, scores), 1):
        F = encode(tokenize(src, bpe), src_ids)
        E = encode(tokenize(hyp, bpe), tgt_ids) + [eos]
        cap = 2 * len(F) + 10
        if plan.length_cap and len(E) != cap:
            return [f"line {i}: {len(E)} tokens, expected the cap {cap}"]
        if not plan.length_cap and len(E) >= cap:
            return [f"line {i}: decoding ran to the cap {cap}"]
        expected = scorer.logprob(F, E) + penalty * len(E)
        if abs(float(score) - expected) > SCORE_TOLERANCE:
            return [f"line {i}: score {score} but reference gives {expected:.6f}"]
    return []


# ---------------------------------------------------------------------------
# BLEU, counted here and compared with `lexnmt score`
# ---------------------------------------------------------------------------

def _ngrams(words, n):
    return Counter(tuple(words[i:i + n]) for i in range(len(words) - n + 1))


def corpus_bleu(hyps, refs):
    matches, totals = [0] * 4, [0] * 4
    hyp_len = ref_len = 0
    for h, r in zip(hyps, refs):
        hyp_len += len(h)
        ref_len += len(r)
        for n in range(1, 5):
            ref_counts = _ngrams(r, n)
            matches[n - 1] += sum(min(c, ref_counts[g])
                                  for g, c in _ngrams(h, n).items())
            totals[n - 1] += max(0, len(h) - n + 1)
    if min(matches) == 0 or min(totals) == 0:
        return 0.0
    log_prec = sum(math.log(m / t) for m, t in zip(matches, totals)) / 4
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_prec)


def check_bleu(hyp_path, ref_path, score_output, minimum=90.0):
    """Own corpus BLEU agrees with `lexnmt score` and reaches ``minimum``."""
    hyps = [line.split() for line in read_lines(hyp_path)]
    refs = [line.split() for line in read_lines(ref_path)]
    own = corpus_bleu(hyps, refs)
    fields = score_output.split()
    if len(fields) < 2 or fields[0] != "BLEU":
        return [f"unexpected score output {score_output!r}"]
    if abs(float(fields[1]) - own) > 0.05 + 1e-9:
        return [f"lexnmt score says BLEU {fields[1]}, recount gives {own:.2f}"]
    if own < minimum:
        return [f"dev BLEU {own:.2f} below {minimum}"]
    return []
