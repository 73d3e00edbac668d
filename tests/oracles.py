"""Independent reference implementations used only by the tests.

Everything here is written from the definitions with plain loops and numpy,
avoiding the library's own counting, model, and search code, so agreement is
evidence rather than tautology.
"""

import math

import numpy as np


# ---------------------------------------------------------------------------
# n-gram metrics (brute-force counting)
# ---------------------------------------------------------------------------

def _count_ngrams(seq, n):
    counts = {}
    for i in range(len(seq) - n + 1):
        g = tuple(seq[i:i + n])
        counts[g] = counts.get(g, 0) + 1
    return counts


def _matches(hyp, ref, n):
    ref_counts = _count_ngrams(ref, n)
    total = 0
    for g, c in _count_ngrams(hyp, n).items():
        total += min(c, ref_counts.get(g, 0))
    return total


def ref_sbleu(hyp, ref):
    hyp = list(hyp)
    ref = list(ref)
    if not hyp:
        return 0.0
    m1 = _matches(hyp, ref, 1)
    if m1 == 0:
        return 0.0
    log_prec = math.log(m1 / len(hyp))
    for n in range(2, 5):
        m = _matches(hyp, ref, n)
        c = max(0, len(hyp) - n + 1)
        log_prec += math.log((m + 1) / (c + 1))
    log_prec /= 4
    bp = 1.0 if len(hyp) > len(ref) else math.exp(1.0 - len(ref) / len(hyp))
    return bp * math.exp(log_prec)


def ref_bleu(hyps, refs):
    matches = [0, 0, 0, 0]
    totals = [0, 0, 0, 0]
    hyp_len = 0
    ref_len = 0
    for hyp, ref in zip(hyps, refs):
        hyp = list(hyp)
        ref = list(ref)
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, 5):
            matches[n - 1] += _matches(hyp, ref, n)
            totals[n - 1] += max(0, len(hyp) - n + 1)
    if hyp_len == 0 or any(m == 0 or t == 0 for m, t in zip(matches, totals)):
        return 0.0
    log_prec = sum(math.log(m / t) for m, t in zip(matches, totals)) / 4
    bp = 1.0 if hyp_len > ref_len else math.exp(1.0 - ref_len / hyp_len)
    return 100.0 * bp * math.exp(log_prec)


# ---------------------------------------------------------------------------
# IBM Model 1 EM (hand-rolled, dict of dict)
# ---------------------------------------------------------------------------

def ref_ibm1(pairs, iterations):
    """pairs: iterable of (source ids, target ids); returns {f: {e: p}}."""
    cooc = {}
    for F, E in pairs:
        for f in F:
            bucket = cooc.setdefault(f, set())
            bucket.update(E)
    t = {f: {e: 1.0 / len(es) for e in sorted(es)} for f, es in cooc.items()}
    for _ in range(iterations):
        counts = {f: dict.fromkeys(es, 0.0) for f, es in t.items()}
        for F, E in pairs:
            for e in E:
                z = 0.0
                for f in F:
                    z += t[f][e]
                for f in F:
                    counts[f][e] += t[f][e] / z
        new_t = {}
        for f, ce in counts.items():
            norm = sum(ce.values())
            new_t[f] = {e: c / norm for e, c in ce.items()}
        t = new_t
    return t


def ref_ibm1_in_order(pairs, iterations):
    """Model 1 EM as one loop over (pair, target position, source position)
    that adds every sum in that order, normaliser and per-source total
    included: the order in which ``ibm1_train`` sums, so the two tables are
    bit-identical.  pairs: iterable of (source ids, target ids)."""
    cooc = {}
    for F, E in pairs:
        for f in F:
            cooc.setdefault(f, set()).update(E)
    t = {f: {e: 1.0 / len(es) for e in es} for f, es in cooc.items()}
    for _ in range(iterations):
        counts = {}
        totals = {}
        for F, E in pairs:
            for e in E:
                z = 0.0
                for f in F:
                    z += t[f][e]
                for f in F:
                    frac = t[f][e] / z
                    dist = counts.setdefault(f, {})
                    dist[e] = dist.get(e, 0.0) + frac
                    totals[f] = totals.get(f, 0.0) + frac
        t = {f: {e: c / totals[f] for e, c in ce.items()}
             for f, ce in counts.items()}
    return t


def ibm1_log_likelihood(pairs, table):
    """Corpus log-likelihood under Model 1 (with the 1/|F| alignment prior)."""
    ll = 0.0
    for p in pairs:
        for e in p.target:
            marginal = sum(table.prob(f, e) for f in p.source) / len(p.source)
            ll += math.log(marginal) if marginal > 0 else float("-inf")
    return ll


# ---------------------------------------------------------------------------
# byte pair encoding (full recount after every merge)
# ---------------------------------------------------------------------------

def _ref_merge(symbols, pair):
    out = []
    j = 0
    while j < len(symbols):
        if j + 1 < len(symbols) and (symbols[j], symbols[j + 1]) == pair:
            out.append(pair[0] + pair[1])
            j += 2
        else:
            out.append(symbols[j])
            j += 1
    return out


def ref_learn_bpe(corpus, num_merges, end_of_word="</w>"):
    """Greedy pair merges that recount every pair of every word type before
    each merge and rewrite every word after it; ties go to the
    lexicographically smaller pair.  Returns the list of merges."""
    word_freq = {}
    for sentence in corpus:
        for w in sentence.split():
            word_freq[w] = word_freq.get(w, 0) + 1
    words = {w: list(w) + [end_of_word] for w in word_freq}
    merges = []
    for _ in range(num_merges):
        pair_freq = {}
        for w, symbols in words.items():
            for pair in zip(symbols, symbols[1:]):
                pair_freq[pair] = pair_freq.get(pair, 0) + word_freq[w]
        if not pair_freq:
            break
        best = min(pair_freq, key=lambda p: (-pair_freq[p], p))
        merges.append(best)
        words = {w: _ref_merge(symbols, best) for w, symbols in words.items()}
    return merges


# ---------------------------------------------------------------------------
# straight-line model forward pass
# ---------------------------------------------------------------------------

def _ref_lstm(W, b, x, h, c):
    n = h.shape[0]
    z = W @ np.concatenate([x, h]) + b
    i = 1.0 / (1.0 + np.exp(-z[:n]))
    o = 1.0 / (1.0 + np.exp(-z[n:2 * n]))
    g = np.tanh(z[2 * n:])
    c_new = (1.0 - i) * c + i * g
    return o * np.tanh(c_new), c_new


def ref_encode(params, F):
    t = params.tensors
    d = params.d_hid
    xs = [t["src_emb"][f] for f in F]
    x_eos = t["src_emb"][params.src_eos]

    h = np.zeros(d)
    c = np.zeros(d)
    fwd = []
    for x in xs:
        h, c = _ref_lstm(t["enc_fwd_W"], t["enc_fwd_b"], x, h, c)
        fwd.append(h)
    fwd_final, _ = _ref_lstm(t["enc_fwd_W"], t["enc_fwd_b"], x_eos, h, c)

    h = np.zeros(d)
    c = np.zeros(d)
    bwd = [None] * len(xs)
    for j in range(len(xs) - 1, -1, -1):
        h, c = _ref_lstm(t["enc_bwd_W"], t["enc_bwd_b"], xs[j], h, c)
        bwd[j] = h
    bwd_final, _ = _ref_lstm(t["enc_bwd_W"], t["enc_bwd_b"], x_eos, h, c)

    R = np.stack([np.concatenate([bwd[j], fwd[j]]) for j in range(len(xs))],
                 axis=1)
    return R, np.concatenate([bwd_final, fwd_final])


def _ref_softmax(z):
    e = np.exp(z - z.max())
    return e / e.sum()


def ref_attention(params, h, R):
    if params.attention == "dot":
        scores = R.T @ h
    else:
        W1 = params.tensors["attn_W1"]
        dec = params.dec_hid
        scores = np.array([
            params.tensors["attn_w2"]
            @ np.tanh(W1 @ np.concatenate([h, R[:, j]]))
            for j in range(R.shape[1])
        ])
        assert W1.shape[1] == 2 * dec
    return _ref_softmax(scores)


def ref_step_distribution(params, prev_word, h, c, ctx, R, lexicon=None):
    """One decoder step; returns (h, c, ctx, probability vector)."""
    t = params.tensors
    x = np.concatenate([t["tgt_emb"][prev_word], ctx])
    h, c = _ref_lstm(t["dec_W"], t["dec_b"], x, h, c)
    a = ref_attention(params, h, R)
    ctx = R @ a
    eta = t["out_W"] @ np.concatenate([h, ctx]) + t["out_b"]
    logits = t["softmax_W"] @ eta + t["softmax_b"]
    if lexicon is not None:
        p_lex = np.zeros(params.tgt_vocab_size)
        for j, f in enumerate(lexicon["F"]):
            for e, p in lexicon["table"].get(f, {}).items():
                p_lex[e] += p * a[j]
        logits = logits + np.log(p_lex + lexicon["epsilon"])
    return h, c, ctx, _ref_softmax(logits)


def ref_sentence_logprob(params, F, E, lexicon=None):
    """log p(E | F) using only numpy; E must end with the eos id."""
    R, init = ref_encode(params, F)
    h = init
    c = np.zeros(params.dec_hid)
    ctx = np.zeros(params.dec_hid)
    prev = params.tgt_eos
    total = 0.0
    for e in E:
        h, c, ctx, probs = ref_step_distribution(params, prev, h, c, ctx, R,
                                                 lexicon)
        total += math.log(probs[e])
        prev = e
    return total


# ---------------------------------------------------------------------------
# exhaustive search (independent of beam_search)
# ---------------------------------------------------------------------------

def enumerate_complete(models, max_len, start, step):
    """All complete sequences up to max_len total tokens with their logprobs.

    Model evaluation is the library's own step (``start()`` gives the members'
    initial states, ``step(k, prev, state)`` advances member k and returns
    the new state and its probabilities), so scores are bit-comparable; the
    search itself is an exhaustive scan.
    """
    if not isinstance(models, (list, tuple)):
        models = [models]
    eos = models[0].tgt_eos
    out = []
    stack = [((), 0.0, start())]
    while stack:
        tokens, lp, states = stack.pop()
        prev = tokens[-1] if tokens else eos
        new_states = []
        dist = np.zeros(models[0].tgt_vocab_size)
        for k in range(len(models)):
            st, probs = step(k, prev, states[k])
            new_states.append(st)
            dist += probs
        dist /= len(models)
        with np.errstate(divide="ignore"):
            logp = np.log(dist)
        out.append((tokens + (eos,), lp + logp[eos]))
        if len(tokens) + 1 < max_len:
            new_states = tuple(new_states)
            for v in range(len(dist)):
                if v != eos:
                    stack.append((tokens + (v,), lp + logp[v], new_states))
    return out


def greedy_decode(models, F, max_len=None, lexicon=None):
    """Beam search of width one, without a word penalty."""
    from lexnmt.decode import beam_search
    return beam_search(models, F, beam_size=1, word_penalty=0.0,
                       max_len=max_len, lexicon=lexicon)


def token_accuracy(params, pairs, lexicon=None):
    """Fraction of target positions where the argmax next-word prediction is
    correct under teacher forcing (sentence-end step included)."""
    from lexnmt.model import _lockstep, _source_context
    correct = 0
    total = 0
    for pair in pairs:
        enc = _source_context(params, [pair.source], lexicon)
        E = tuple(pair.target) + (params.tgt_eos,)
        steps = _lockstep(params, enc, [E]).steps
        for e, logits in zip(E, steps.logits):
            correct += int(np.argmax(logits) == e)
            total += 1
    return correct / total


def mean_sampled_sbleu(params, pairs, num_samples, rng, max_sample_len=None,
                       lexicon=None):
    """Mean SBLEU of ancestral samples against their references."""
    from lexnmt.metrics import sbleu
    from lexnmt.model import _length_cap, _source_context, _walk_stack
    from lexnmt.train import _drawing, _strip_eos
    scores = []
    for pair in pairs:
        # the samples mrt_loss draws: one walk on the training stack
        enc = _source_context(params, [pair.source], lexicon)
        draw = _drawing(params.tgt_eos, [rng],
                        [_length_cap(pair.source, max_sample_len)])
        (samples, _), = _walk_stack(params, enc, num_samples, draw)
        for s in samples:
            scores.append(sbleu(_strip_eos(s, params.tgt_eos), pair.target))
    return float(np.mean(scores))


def argmax_hypothesis(complete, word_penalty):
    """Best (tokens, logprob) under score + the shorter/lexicographic tie-break."""
    best = None
    for tokens, lp in complete:
        score = lp + word_penalty * len(tokens)
        key = (-score, len(tokens), tokens)
        if best is None or key < best[0]:
            best = (key, tokens, lp)
    return best[1], best[2]


# ---------------------------------------------------------------------------
# sampling and minimum risk
# ---------------------------------------------------------------------------

def ref_lockstep_samples(start, step, eos, num_samples, max_len, rng):
    """Ancestral samples drawn in lockstep, one sample at a time.

    ``start`` and ``step`` are as in :func:`enumerate_complete` (member 0).
    At each step every sample still live, in sample order, takes its next
    distribution and one uniform u from ``rng``, and draws the first word
    whose cumulative probability exceeds u times the total.  A sample ends
    with ``eos`` or at ``max_len`` words.
    """
    rows = [{"state": start()[0], "words": []} for _ in range(num_samples)]
    for _ in range(max_len):
        for row in rows:
            words = row["words"]
            if words and words[-1] == eos:
                continue
            row["state"], probs = step(0, words[-1] if words else eos,
                                       row["state"])
            cum = np.cumsum(probs)
            idx = int(np.searchsorted(cum, rng.random() * cum[-1],
                                      side="right"))
            words.append(min(idx, len(cum) - 1))
    return [tuple(row["words"]) for row in rows]


def mrt_expected_error(logprobs, errors, alpha):
    """sum_s w_s err_s with w = softmax(alpha * logp), from the definition."""
    z = [alpha * lp for lp in logprobs]
    top = max(z)
    w = [math.exp(v - top) for v in z]
    return sum(wi * err for wi, err in zip(w, errors)) / sum(w)


# ---------------------------------------------------------------------------
# scalar ADAM reference
# ---------------------------------------------------------------------------

def ref_adam_sequence(x0, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Apply ADAM to one scalar over a gradient sequence; returns all iterates."""
    x = x0
    m = 0.0
    v = 0.0
    out = []
    for t, g in enumerate(grads, 1):
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        x = x - lr * mhat / (math.sqrt(vhat) + eps)
        out.append(x)
    return out


def ref_adam_update(tensors, grads, m, v, step, lr):
    """The per-tensor ADAM step that the flat one replaced, on dicts of
    arrays updated in place (``step`` counts this step): each tensor in
    slices of 16384 entries through two slice-sized buffers, each entry
    m = b1 m + (1 - b1) g, v = b2 v + (1 - b2) g g, p -= lr (m / bc1) /
    (sqrt(v / bc2) + eps) in that order."""
    beta1, beta2, eps, size = 0.9, 0.999, 1e-8, 16384
    bc1, bc2 = 1.0 - beta1 ** step, 1.0 - beta2 ** step
    num, den = np.empty(size), np.empty(size)
    for name, grad in grads.items():
        flat = [x.reshape(-1) for x in (tensors[name], m[name], v[name], grad)]
        for i in range(0, flat[0].size, size):
            p_, m_, v_, g = (x[i:i + size] for x in flat)
            a, b = num[:len(p_)], den[:len(p_)]
            m_ *= beta1
            np.multiply(1.0 - beta1, g, out=a)
            m_ += a
            v_ *= beta2
            np.multiply(1.0 - beta2, g, out=a)
            a *= g
            v_ += a
            np.divide(m_, bc1, out=a)
            np.multiply(lr, a, out=a)
            np.divide(v_, bc2, out=b)
            np.sqrt(b, out=b)
            b += eps
            a /= b
            p_ -= a
