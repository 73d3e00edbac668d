"""Shared builders for synthetic tasks and random model inputs, and the
syntax trees of the package for the guards that read its source."""

import ast
import os
import sys

import numpy as np

import lexnmt
from lexnmt.align import LexiconTable
from lexnmt.corpus import SentencePair
from lexnmt.model import (_block_step, _init_state, _source_context,
                          init_params)

PACKAGE_DIR = os.path.dirname(lexnmt.__file__)


def package_modules():
    """(path from the package directory, syntax tree) of every module of
    the package, its subdirectories included, in sorted order."""
    for dirpath, dirnames, filenames in os.walk(PACKAGE_DIR):
        dirnames.sort()
        for filename in sorted(f for f in filenames if f.endswith(".py")):
            path = os.path.join(dirpath, filename)
            with open(path, encoding="utf-8") as f:
                tree = ast.parse(f.read(), path)
            yield os.path.relpath(path, PACKAGE_DIR), tree


def copy_pairs(rng, n, vocab=20, lmin=1, lmax=6):
    """Random copy-task pairs over content ids [2, vocab)."""
    out = []
    for _ in range(n):
        length = int(rng.integers(lmin, lmax + 1))
        ids = tuple(int(x) for x in rng.integers(2, vocab, length))
        out.append(SentencePair(ids, ids))
    return out


def word_permutation(rng, vocab=20):
    """Bijection on content ids [2, vocab), the toy 'dictionary'."""
    values = np.arange(2, vocab)
    rng.shuffle(values)
    return {f: int(e) for f, e in zip(range(2, vocab), values)}


def dict_pairs(rng, n, perm, vocab=20, lmin=1, lmax=6):
    """Word-for-word translation pairs under a fixed permutation."""
    out = []
    for _ in range(n):
        length = int(rng.integers(lmin, lmax + 1))
        src = tuple(int(x) for x in rng.integers(2, vocab, length))
        out.append(SentencePair(src, tuple(perm[f] for f in src)))
    return out


def lexicon_table(entries):
    """The LexiconTable of a {source id: {target id: probability}} dict, in
    the dict's order."""
    rows = list(entries.values())
    return LexiconTable(list(entries), np.cumsum([0, *map(len, rows)]),
                        [e for row in rows for e in row],
                        [p for row in rows for p in row.values()])


def perfect_lexicon(perm):
    return lexicon_table({f: {e: 1.0} for f, e in perm.items()})


def random_lexicon(rng, src_size, tgt_size, fanout=4, mass=0.9):
    """Random sparse table with per-source mass <= ``mass``."""
    entries = {}
    for f in range(src_size):
        targets = rng.choice(tgt_size, min(fanout, tgt_size), replace=False)
        probs = rng.dirichlet(np.ones(len(targets))) * mass
        entries[f] = {int(e): float(p) for e, p in zip(targets, probs)}
    return lexicon_table(entries)


def tiny_model(src_size=6, tgt_size=7, d=3, attention="dot", seed=0, **kw):
    return init_params(src_size, tgt_size, d_emb=d, d_hid=d,
                       attention=attention, seed=seed, **kw)


def count_calls(monkeypatch, module, name):
    """Record the arguments of every call of ``module.name``, under each name
    a ``lexnmt`` module binds to it (imports included)."""
    original = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod_name, mod in list(sys.modules.items()):
        if mod_name == "lexnmt" or mod_name.startswith("lexnmt."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counted)
    return calls


def graph_stepper(models, F, lexicon=None):
    """``(start, step)`` over the block step that beam search runs.

    ``start()`` returns each member's initial decoder state; ``step(k, prev,
    state)`` advances member k by one row, a one-row block, and returns (new
    state, probability array).  Each member is encoded once, with its L_F.
    """
    if not isinstance(models, (list, tuple)):
        models = [models]
    encs = [_source_context(m, [F], lexicon) for m in models]

    def start():
        return tuple(_init_state(enc) for enc in encs)

    def step(k, prev, state):
        state, step = _block_step(models[k], [prev], state, [0], encs[k])
        return state, step.probs[0]

    return start, step
