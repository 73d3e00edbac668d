"""Translation quality metrics: corpus BLEU, smoothed sentence BLEU, length ratio.

Token sequences are generic (strings or ids); scoring of real output happens
on word-level tokens after subword inversion.
"""

from __future__ import annotations

import math
from collections import Counter

MAX_ORDER = 4


def _ngrams(seq, n: int) -> Counter:
    return Counter(tuple(seq[i:i + n]) for i in range(len(seq) - n + 1))


def _clipped_matches(hyp, ref, n: int) -> int:
    hyp_counts = _ngrams(hyp, n)
    ref_counts = _ngrams(ref, n)
    return sum(min(c, ref_counts[g]) for g, c in hyp_counts.items())


def bleu(hypotheses, references) -> float:
    """Corpus BLEU on [0, 100]: clipped n-gram precisions (n=1..4), brevity penalty."""
    if len(hypotheses) != len(references):
        raise ValueError(
            f"length mismatch: {len(hypotheses)} hypotheses vs "
            f"{len(references)} references")
    if not references:
        raise ValueError("references must be non-empty")
    matches = [0] * MAX_ORDER
    totals = [0] * MAX_ORDER
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hypotheses, references):
        hyp = list(hyp)
        ref = list(ref)
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, MAX_ORDER + 1):
            matches[n - 1] += _clipped_matches(hyp, ref, n)
            totals[n - 1] += max(0, len(hyp) - n + 1)
    if ref_len == 0:
        raise ValueError("references must be non-empty")
    if hyp_len == 0 or any(m == 0 or t == 0 for m, t in zip(matches, totals)):
        return 0.0
    log_prec = 0.0
    for m, t in zip(matches, totals):  # left to right on every Python
        log_prec += math.log(m / t)
    log_prec /= MAX_ORDER
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_prec)


def sbleu(hypothesis, reference) -> float:
    """Sentence-level BLEU on [0, 1] with add-one smoothing for n = 2..4.

    The 1-gram precision is unsmoothed; for n >= 2 both the match count and
    the n-gram total get +1.  Standard brevity penalty; an empty hypothesis
    scores 0.
    """
    hyp = list(hypothesis)
    ref = list(reference)
    if not ref:
        raise ValueError("reference must be non-empty")
    if not hyp:
        return 0.0
    m1 = _clipped_matches(hyp, ref, 1)
    if m1 == 0:
        return 0.0
    log_prec = math.log(m1 / len(hyp))
    for n in range(2, MAX_ORDER + 1):
        m = _clipped_matches(hyp, ref, n)
        c = max(0, len(hyp) - n + 1)
        log_prec += math.log((m + 1) / (c + 1))
    log_prec /= MAX_ORDER
    bp = 1.0 if len(hyp) > len(ref) else math.exp(1.0 - len(ref) / len(hyp))
    return bp * math.exp(log_prec)


def mrt_error(reference, hypothesis) -> float:
    """Risk-training error: 1 - sbleu(hypothesis, reference), in [0, 1]."""
    return 1.0 - sbleu(hypothesis, reference)


def length_ratio(hypotheses, references) -> float:
    """100 * total hypothesis tokens / total reference tokens."""
    if len(hypotheses) != len(references):
        raise ValueError(
            f"length mismatch: {len(hypotheses)} hypotheses vs "
            f"{len(references)} references")
    ref_len = sum(len(list(r)) for r in references)
    if ref_len == 0:
        raise ValueError("references must be non-empty")
    hyp_len = sum(len(list(h)) for h in hypotheses)
    return 100.0 * hyp_len / ref_len
