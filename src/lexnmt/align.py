"""Lexical translation probabilities p(e|f) via IBM Model 1 EM.

Source-to-target direction, no NULL token, uniform initialization over
co-occurring targets.  The resulting table feeds the lexicon-biased softmax;
pruned entries are simply absent (the bias epsilon absorbs missing mass).
"""

from __future__ import annotations

import numpy as np

from .corpus import Vocabulary, read_lines, write_lines
from .errors import DataError


class LexiconTable:
    """Sparse p(e | f) in compressed sparse rows, in the order given: source
    id ``sources[r]`` has ``targets[starts[r]:starts[r + 1]]`` and their
    ``probs``.  The first bad probability or source sum over 1 in row order
    (a row's entries before its sum, added left to right) is refused."""

    def __init__(self, sources, starts, targets, probs):
        self.sources, self.starts, self.targets = (
            np.asarray(x, dtype=np.int64) for x in (sources, starts, targets))
        self.probs = p = np.asarray(probs, dtype=float)
        self._row = np.full(self.sources.max(initial=-1) + 2, -1)  # last: none
        self._row[self.sources] = np.arange(len(self))
        row = np.repeat(np.arange(len(self)), np.diff(self.starts))
        total = np.bincount(row, weights=p, minlength=len(self))
        bad = np.flatnonzero(~((p >= 0.0) & (p <= 1.0)))  # nan too
        over = np.flatnonzero(total > 1.0 + 1e-9)
        if len(bad) and (not len(over) or row[bad[0]] <= over[0]):
            k = bad[0]
            raise DataError("lexicon probability out of range for pair "
                            f"({self.sources[row[k]]}, {self.targets[k]}): {p[k]}")
        if len(over):
            raise DataError(f"lexicon distribution for source id "
                            f"{self.sources[over[0]]} sums to {total[over[0]]}")

    def entries_of(self, F):
        """(entry indices, their positions in ``F``) of the ids of ``F``."""
        rows = self._row[np.clip(np.asarray(F, dtype=np.int64), -1, len(self._row) - 1)]
        pos = np.flatnonzero(rows >= 0)
        start, end = self.starts[rows[pos]], self.starts[rows[pos] + 1]
        size = end - start
        # entry j of position p's run is start[p] + j: one index for all
        at = np.arange(size.sum()) + np.repeat(start - (np.cumsum(size) - size),
                                               size)
        return at, np.repeat(pos, size)

    def prob(self, f: int, e: int) -> float:
        at = self.entries_of([f])[0]
        return float(self.probs[at][self.targets[at] == e].sum())

    @property
    def entries(self) -> dict:
        """A fresh {source id: {target id: probability}} dict of the table."""
        return {f: dict(zip(self.targets[a:b].tolist(), self.probs[a:b].tolist()))
                for f, a, b in zip(self.sources.tolist(), self.starts.tolist(),
                                   self.starts[1:].tolist())}

    def __len__(self):
        return len(self.sources)


def _grouped(f, e, p) -> LexiconTable:
    """The table of distinct pairs (f, e) and their probabilities p: rows
    follow their ids' first pairs, each keeping its entries' order."""
    ids, head, inverse, counts = np.unique(
        f, return_index=True, return_inverse=True, return_counts=True)
    order, rank = np.argsort(head[inverse], kind="stable"), np.argsort(head)
    return LexiconTable(ids[rank], np.cumsum([0, *counts[rank]]), e[order], p[order])


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

    # ``row`` numbers the (pair, target position) of each link, and link k
    # of a row reads its pair's source position k
    src, tgt = (np.array([x for p in pairs for x in getattr(p, side)],
                         dtype=np.int64) for side in ("source", "target"))
    n_src, n_tgt = (np.array([len(getattr(p, side)) for p in pairs])
                    for side in ("source", "target"))
    width = np.repeat(n_src, n_tgt)  # the links of each row
    row = np.repeat(np.arange(len(tgt)), width)
    start = np.repeat(np.cumsum(n_src) - n_src, n_tgt)  # its first position
    fl = src[np.arange(len(row))
             + np.repeat(start - (np.cumsum(width) - width), width)]
    el = tgt[row]
    # each co-occurring (f, e) type gets an index in first-occurrence order
    _, first, link = np.unique(fl * (int(el.max(initial=0)) + 1) + el,
                               return_index=True, return_inverse=True)
    order = np.argsort(first)
    rank = np.empty_like(order)
    rank[order] = np.arange(len(order))
    link, f, e = rank[link], fl[first[order]], el[first[order]]
    _, src_of = np.unique(f, return_inverse=True)
    # uniform init over co-occurring targets
    t = 1.0 / np.bincount(src_of)[src_of]
    for _ in range(iterations):
        tl = t[link]
        frac = tl / np.bincount(row, weights=tl)[row]
        total = np.bincount(src_of[link], weights=frac)
        t = np.bincount(link, weights=frac) / total[src_of]
    return _grouped(f, e, t)


def prune_lexicon(table: LexiconTable, min_prob: float) -> LexiconTable:
    """Drop entries below min_prob without renormalizing the remainder."""
    if not (0.0 <= min_prob < 1.0):
        raise ValueError("min_prob must be in [0, 1)")
    keep = table.probs >= min_prob
    kept = np.concatenate([[0], np.cumsum(keep)])  # entries kept before each
    return LexiconTable(table.sources, kept[table.starts],
                        table.targets[keep], table.probs[keep])


def save_lexicon(table: LexiconTable, src_vocab: Vocabulary,
                 tgt_vocab: Vocabulary, path):
    """Write TSV lines "source<TAB>target<TAB>prob" at 17 significant digits."""
    src = np.repeat(table.sources, np.diff(table.starts))
    order = np.argsort(src * (table.targets.max(initial=0) + 1) + table.targets)
    write_lines(path, (f"{src_vocab.token(f)}\t{tgt_vocab.token(e)}\t{p:.17g}"
                       for f, e, p in zip(src[order].tolist(),
                                          table.targets[order].tolist(),
                                          table.probs[order].tolist())))


def load_lexicon(path, src_vocab: Vocabulary, tgt_vocab: Vocabulary) -> LexiconTable:
    """Read "source<TAB>target<TAB>prob" lines, skipping blank ones; a line with
    a token outside the vocabularies is dropped once its probability parses."""
    lines = read_lines(path)
    rows = list(filter(None, lines))
    fields = "\t".join(rows).split("\t") if rows else []
    try:  # one pass, if every line holds two tabs
        if {row.count("\t") for row in rows} - {2}:
            raise ValueError
        probs = np.array(list(map(float, fields[2::3])))
    except ValueError:  # name the first bad line
        for lineno, line in enumerate(lines, 1):
            parts = line.split("\t")
            if line and len(parts) != 3:
                raise DataError(f"{path}: malformed lexicon line {lineno}")
            try:
                line and float(parts[2])
            except ValueError:
                raise DataError(f"{path}: bad probability at line {lineno}: {parts[2]!r}")
    f = np.array([src_vocab._ids.get(t, -1) for t in fields[0::3]], dtype=np.int64)
    e = np.array([tgt_vocab._ids.get(t, -1) for t in fields[1::3]], dtype=np.int64)
    keep = np.flatnonzero((f >= 0) & (e >= 0))  # else it cannot bias anything
    key = f[keep] * len(tgt_vocab) + e[keep]  # repeated pair: first place, last value
    first, last = (np.unique(k, return_index=True)[1] for k in (key, key[::-1]))
    at = np.argsort(first)
    first, last = keep[first[at]], keep[len(key) - 1 - last[at]]
    return _grouped(f[first], e[first], probs[last])
