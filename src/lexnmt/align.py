"""Lexical translation probabilities p(e|f) via IBM Model 1 EM.

Source-to-target direction, no NULL token, uniform initialization over
co-occurring targets.  The resulting table feeds the lexicon-biased softmax;
pruned entries are simply absent (the bias epsilon absorbs missing mass).
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

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
    """Standard Model 1 EM; per-source distributions sum to 1.

    EM runs over flat link arrays, one link per (pair, target position,
    source position) in that loop order, and every sum is an ``np.bincount``,
    which adds its weights one after another in input order.  The table is
    therefore the same on every Python version; a per-link loop that sums
    with the builtin ``sum`` is not, as since Python 3.12 it compensates
    float rounding.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    pairs = list(pairs)
    if not pairs:
        raise DataError("empty corpus")

    # each co-occurring (f, e) type gets an index in first-occurrence order;
    # ``row`` numbers the (pair, target position) of each link
    index = {}
    link = np.array([index.setdefault((f, e), len(index)) for p in pairs
                     for e in p.target for f in p.source], dtype=np.int64)
    row = np.repeat(np.arange(sum(len(p.target) for p in pairs)),
                    [len(p.source) for p in pairs for _ in p.target])
    _, src_of = np.unique([f for f, _ in index], return_inverse=True)
    # uniform init over co-occurring targets
    t = 1.0 / np.bincount(src_of)[src_of]
    for _ in range(iterations):
        tl = t[link]
        frac = tl / np.bincount(row, weights=tl)[row]
        total = np.bincount(src_of[link], weights=frac)
        t = np.bincount(link, weights=frac) / total[src_of]
    entries: dict[int, dict[int, float]] = {}
    for (f, e), p in zip(index, t.tolist()):
        entries.setdefault(f, {})[e] = p
    return LexiconTable(entries)


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
