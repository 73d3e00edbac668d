"""Corpus ingestion: normalization, joint BPE, vocabularies, minibatching,
and the one reader and writer of text files.

Tokenization throughout the package is whitespace splitting.  Subword
segmentation uses the classic greedy pair-merge scheme with a free-standing
end-of-word symbol, so every segmentation is invertible:
``invert_bpe(apply_bpe(model, s)) == s.split()``.
"""

from __future__ import annotations

import sys
from collections import Counter, defaultdict
from contextlib import nullcontext
from dataclasses import dataclass, field

from .errors import DataError

END_OF_WORD = "</w>"

EOS = "<s>"
UNK = "<unk>"

# Full-width roman letters and digits -> ASCII.  Only these classes are
# remapped; other full-width characters pass through untouched.
_HALFWIDTH = {}
for _off in range(26):
    _HALFWIDTH[0xFF21 + _off] = chr(ord("A") + _off)
    _HALFWIDTH[0xFF41 + _off] = chr(ord("a") + _off)
for _off in range(10):
    _HALFWIDTH[0xFF10 + _off] = chr(ord("0") + _off)


def normalize_halfwidth(text: str) -> str:
    """Replace full-width roman letters/digits with half-width equivalents."""
    return text.translate(_HALFWIDTH)


def _tokens(sentence) -> list[str]:
    if isinstance(sentence, str):
        return sentence.split()
    return list(sentence)


# ---------------------------------------------------------------------------
# byte pair encoding
# ---------------------------------------------------------------------------

@dataclass
class BpeModel:
    """An ordered list of learned symbol-pair merges.

    A word is segmented by splitting it into characters, appending the
    ``</w>`` symbol, then applying merges in learned order.
    """

    merges: list[tuple[str, str]]
    _ranks: dict = field(init=False, repr=False, compare=False)
    _cache: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.merges)) != len(self.merges):
            raise DataError("duplicate BPE merge")
        self._ranks = {pair: i for i, pair in enumerate(self.merges)}
        self._cache = {}

    def segment_word(self, word: str) -> list[str]:
        cached = self._cache.get(word)
        if cached is not None:
            return list(cached)
        symbols = list(word) + [END_OF_WORD]
        # Repeatedly applying the lowest-ranked pair present is equivalent to
        # applying all merges in learned order.
        while len(symbols) > 1:
            best = None
            best_rank = len(self.merges)
            for pair in zip(symbols, symbols[1:]):
                rank = self._ranks.get(pair, best_rank)
                if rank < best_rank:
                    best_rank = rank
                    best = pair
            if best is None:
                break
            symbols = _merge_word(symbols, best)
        self._cache[word] = tuple(symbols)
        return symbols


def _merge_word(symbols: list[str], pair: tuple[str, str]) -> list[str]:
    a, b = pair
    out = []
    i = 0
    while i < len(symbols):
        if i + 1 < len(symbols) and symbols[i] == a and symbols[i + 1] == b:
            out.append(a + b)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return out


def learn_bpe(corpus, num_merges: int) -> BpeModel:
    """Learn greedy most-frequent pair merges over a pooled corpus.

    ``corpus`` is an iterable of sentences (whitespace-joined strings or token
    sequences) from both languages pooled together.  Frequency ties break on
    lexicographic order of the pair.
    """
    if num_merges < 0:
        raise ValueError("num_merges must be >= 0")
    word_freq = Counter()
    for sentence in corpus:
        word_freq.update(_tokens(sentence))
    if not word_freq:
        raise DataError("empty corpus")

    words = {w: list(w) + [END_OF_WORD] for w in word_freq}
    # pair frequencies and, per pair, the word types that contain it: a merge
    # rewrites only the words of its pair and moves their counts
    pair_freq, where = Counter(), defaultdict(set)
    for w, symbols in words.items():
        for pair in zip(symbols, symbols[1:]):
            pair_freq[pair] += word_freq[w]
            where[pair].add(w)
    merges: list[tuple[str, str]] = []
    for _ in range(num_merges):
        if not pair_freq:
            break
        best = min(pair_freq, key=lambda p: (-pair_freq[p], p))
        merges.append(best)
        for w in where.pop(best):
            f, old = word_freq[w], words[w]
            new = words[w] = _merge_word(old, best)
            for pair in zip(old, old[1:]):
                pair_freq[pair] -= f
            for pair in zip(new, new[1:]):
                pair_freq[pair] += f
                where[pair].add(w)
            # only a pair the word lost can have run out
            for pair in set(zip(old, old[1:])).difference(zip(new, new[1:])):
                where[pair].discard(w)
                if not pair_freq[pair]:
                    del pair_freq[pair]
    return BpeModel(merges)


def apply_bpe(model: BpeModel, sentence) -> list[str]:
    """Segment a sentence into subword tokens."""
    out = []
    for word in _tokens(sentence):
        out.extend(model.segment_word(word))
    return out


def invert_bpe(tokens) -> list[str]:
    """Reassemble subword tokens into the original words."""
    joined = "".join(tokens)
    return [w for w in joined.split(END_OF_WORD) if w]


def save_bpe(model: BpeModel, path):
    write_lines(path, (f"{a} {b}" for a, b in model.merges))


def load_bpe(path) -> BpeModel:
    merges = []
    for lineno, line in enumerate(read_lines(path), 1):
        if not line:
            continue
        parts = line.split(" ")
        if len(parts) != 2:
            raise DataError(f"{path}: malformed merge at line {lineno}")
        merges.append((parts[0], parts[1]))
    return BpeModel(merges)


# ---------------------------------------------------------------------------
# vocabulary
# ---------------------------------------------------------------------------

class Vocabulary:
    """Bidirectional token<->id map with reserved sentence-end and unknown symbols."""

    def __init__(self, tokens):
        self.tokens = list(tokens)
        if len(set(self.tokens)) != len(self.tokens):
            raise DataError("duplicate token in vocabulary")
        if EOS not in self.tokens or UNK not in self.tokens:
            raise DataError(f"vocabulary must contain {EOS} and {UNK}")
        self._ids = {t: i for i, t in enumerate(self.tokens)}
        self.eos_id = self._ids[EOS]
        self.unk_id = self._ids[UNK]

    def __len__(self):
        return len(self.tokens)

    def __contains__(self, token):
        return token in self._ids

    def id(self, token: str) -> int:
        """Token id, falling back to the unknown symbol."""
        return self._ids.get(token, self.unk_id)

    def token(self, idx: int) -> str:
        return self.tokens[idx]

    def encode(self, tokens) -> list[int]:
        return [self.id(t) for t in _tokens(tokens)]

    def decode(self, ids) -> list[str]:
        return [self.tokens[i] for i in ids]

    def save(self, path):
        write_lines(path, self.tokens)

    @classmethod
    def load(cls, path) -> "Vocabulary":
        return cls([t for t in read_lines(path) if t])


def build_vocab(corpus, max_size: int) -> Vocabulary:
    """Vocabulary of the ``max_size`` most frequent tokens plus reserved symbols.

    Frequency ties keep the lexicographically smaller token.
    """
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    freq = Counter()
    for sentence in corpus:
        freq.update(_tokens(sentence))
    if not freq:
        raise DataError("empty corpus")
    freq.pop(EOS, None)
    freq.pop(UNK, None)
    kept = sorted(freq, key=lambda t: (-freq[t], t))[:max_size]
    return Vocabulary([EOS, UNK] + kept)


# ---------------------------------------------------------------------------
# sentence pairs and minibatches
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SentencePair:
    """One aligned pair of token-id sequences (no trailing sentence-end)."""

    source: tuple[int, ...]
    target: tuple[int, ...]

    def __post_init__(self):
        if not self.source or not self.target:
            raise DataError("empty sentence in pair")

    @property
    def words(self) -> int:
        return len(self.source) + len(self.target)


def encode_pairs(src_sentences, tgt_sentences, src_vocab: Vocabulary,
                 tgt_vocab: Vocabulary) -> list[SentencePair]:
    if len(src_sentences) != len(tgt_sentences):
        raise DataError(
            f"line counts differ: {len(src_sentences)} vs {len(tgt_sentences)}")
    pairs = []
    for i, (s, t) in enumerate(zip(src_sentences, tgt_sentences), 1):
        s_ids = src_vocab.encode(s)
        t_ids = tgt_vocab.encode(t)
        if not s_ids or not t_ids:
            raise DataError(f"empty sentence at line {i}")
        pairs.append(SentencePair(tuple(s_ids), tuple(t_ids)))
    return pairs


def make_minibatches(pairs, word_budget: int = 2048) -> list[list[SentencePair]]:
    """Group pairs into word-budget minibatches.

    Pairs are sorted by descending source length (ties keep corpus order) and
    grouped sequentially; a pair joins the current batch unless that would
    push the batch's source+target word total past the budget.  A single pair
    above the budget forms a singleton batch.
    """
    if word_budget < 1:
        raise ValueError("word_budget must be >= 1")
    order = sorted(range(len(pairs)), key=lambda i: (-len(pairs[i].source), i))
    batches = []
    current: list[SentencePair] = []
    current_words = 0
    for i in order:
        p = pairs[i]
        if current and current_words + p.words > word_budget:
            batches.append(current)
            current = []
            current_words = 0
        current.append(p)
        current_words += p.words
    if current:
        batches.append(current)
    return batches


# ---------------------------------------------------------------------------
# file I/O
# ---------------------------------------------------------------------------

def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file without their line ends; a file that
    cannot be opened or decoded raises DataError naming it."""
    try:
        with open(path, encoding="utf-8") as f:
            return [line.rstrip("\n") for line in f]
    except OSError as e:
        raise DataError(f"cannot read {path}: {e.strerror}") from e
    except UnicodeDecodeError as e:
        raise DataError(f"cannot read {path}: not UTF-8 text ({e.reason})") from e


def write_lines(path, lines):
    """Write ``lines`` as they come, each ended by a newline, to the UTF-8
    file ``path`` or, if it is None, to standard output; a file that cannot
    be written raises DataError naming it."""
    try:
        with (nullcontext(sys.stdout) if path is None
              else open(path, "w", encoding="utf-8")) as out:
            for line in lines:
                out.write(line + "\n")
    except OSError as e:
        name = "standard output" if path is None else path
        raise DataError(f"cannot write {name}: {e.strerror}") from e


def read_parallel(src_path, tgt_path) -> tuple[list[str], list[str]]:
    """Read a line-aligned parallel corpus; error if line counts differ."""
    src = read_lines(src_path)
    tgt = read_lines(tgt_path)
    if len(src) != len(tgt):
        raise DataError(
            f"line counts differ: {src_path} has {len(src)}, "
            f"{tgt_path} has {len(tgt)}")
    return src, tgt
