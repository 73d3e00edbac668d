"""Lexical translation probabilities p(e|f) via IBM Model 1 EM.

Source-to-target direction, no NULL token, uniform initialization over
co-occurring targets.  The resulting table feeds the lexicon-biased softmax;
pruned entries are simply absent (the bias epsilon absorbs missing mass).
"""

from __future__ import annotations

import math
from collections import defaultdict

from .corpus import Vocabulary, read_lines, write_lines
from .errors import DataError


class LexiconTable:
    """Sparse map: source token id -> {target token id: probability}."""

    def __init__(self, entries: dict[int, dict[int, float]]):
        self.entries = entries
        self.validate()

    def validate(self):
        for f, dist in self.entries.items():
            total = 0.0
            for e, p in dist.items():
                if not (0.0 <= p <= 1.0) or p != p:
                    raise DataError(
                        f"lexicon probability out of range for pair ({f}, {e}): {p}")
                total += p
            if total > 1.0 + 1e-9:
                raise DataError(
                    f"lexicon distribution for source id {f} sums to {total}")

    def prob(self, f: int, e: int) -> float:
        return self.entries.get(f, {}).get(e, 0.0)

    def __len__(self):
        return len(self.entries)


def ibm1_train(pairs, iterations: int) -> LexiconTable:
    """Standard Model 1 EM; per-source distributions sum to 1."""
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    pairs = list(pairs)
    if not pairs:
        raise DataError("empty corpus")

    # uniform init over co-occurring targets
    cooc: dict[int, set] = defaultdict(set)
    for p in pairs:
        for f in p.source:
            cooc[f].update(p.target)
    t = {f: {e: 1.0 / len(es) for e in es} for f, es in cooc.items()}

    for _ in range(iterations):
        count = defaultdict(lambda: defaultdict(float))
        total = defaultdict(float)
        for p in pairs:
            for e in p.target:
                z = sum(t[f][e] for f in p.source)
                for f in p.source:
                    frac = t[f][e] / z
                    count[f][e] += frac
                    total[f] += frac
        t = {f: {e: c / total[f] for e, c in count[f].items()} for f in count}
    return LexiconTable({f: dict(dist) for f, dist in t.items()})


def ibm1_log_likelihood(pairs, table: LexiconTable) -> float:
    """Corpus log-likelihood under Model 1 (with the 1/|F| alignment prior)."""
    ll = 0.0
    for p in pairs:
        for e in p.target:
            marginal = sum(table.prob(f, e) for f in p.source) / len(p.source)
            ll += math.log(marginal) if marginal > 0 else float("-inf")
    return ll


def prune_lexicon(table: LexiconTable, min_prob: float) -> LexiconTable:
    """Drop entries below min_prob without renormalizing the remainder."""
    if not (0.0 <= min_prob < 1.0):
        raise ValueError("min_prob must be in [0, 1)")
    pruned = {
        f: {e: p for e, p in dist.items() if p >= min_prob}
        for f, dist in table.entries.items()
    }
    return LexiconTable(pruned)


def save_lexicon(table: LexiconTable, src_vocab: Vocabulary,
                 tgt_vocab: Vocabulary, path):
    """Write TSV lines "source<TAB>target<TAB>prob" at 17 significant digits."""
    write_lines(path, (f"{src_vocab.token(f)}\t{tgt_vocab.token(e)}\t{p:.17g}"
                       for f, dist in sorted(table.entries.items())
                       for e, p in sorted(dist.items())))


def load_lexicon(path, src_vocab: Vocabulary, tgt_vocab: Vocabulary) -> LexiconTable:
    entries: dict[int, dict[int, float]] = defaultdict(dict)
    src_ids, tgt_ids = src_vocab._ids, tgt_vocab._ids  # one lookup per token
    for lineno, line in enumerate(read_lines(path), 1):
        if not line:
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"{path}: malformed lexicon line {lineno}")
        src_tok, tgt_tok, prob_s = parts
        try:
            prob = float(prob_s)
        except ValueError:
            raise DataError(
                f"{path}: bad probability at line {lineno}: {prob_s!r}")
        f, e = src_ids.get(src_tok), tgt_ids.get(tgt_tok)
        if f is not None and e is not None:  # else it cannot bias anything
            entries[f][e] = prob
    return LexiconTable(dict(entries))
