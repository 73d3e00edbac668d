"""Random generators are made in two places: the stream helper of training
(``train._stream``), which keys each sampled sentence's own generator by
seed, stage, epoch and index, and ``model.init_params``.  A generator made
anywhere else could be shared by sentences sampled one after another, and
their samples would then depend on the order and the stacks they are drawn
in."""

import ast

from helpers import package_modules

GENERATOR_NAMES = {"default_rng", "Generator"}
MAKERS = {("train.py", "_stream"), ("model.py", "init_params")}


def _named(tree, scope=None):
    """(function, line, name) of every generator name under ``tree``, with
    the outermost function it is in (None: module level)."""
    for node in ast.iter_child_nodes(tree):
        inner = scope
        if scope is None and isinstance(node, (ast.FunctionDef,
                                               ast.AsyncFunctionDef)):
            inner = node.name
        if isinstance(node, ast.Name) and node.id in GENERATOR_NAMES:
            yield inner, node.lineno, node.id
        elif isinstance(node, ast.Attribute) and node.attr in GENERATOR_NAMES:
            yield inner, node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from ((inner, node.lineno, alias.name) for alias in node.names
                        if alias.name in GENERATOR_NAMES)
        yield from _named(node, inner)


def test_only_the_stream_helper_and_init_params_make_generators():
    found = [(filename, *hit) for filename, tree in package_modules()
             for hit in _named(tree)]
    stray = [f"{filename}:{line} names {name}"
             for filename, function, line, name in found
             if (filename, function) not in MAKERS]
    assert stray == []
    # a renamed maker would pass the check above by naming nothing
    assert {(filename, function) for filename, function, _, _ in found} == MAKERS
