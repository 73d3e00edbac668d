"""Stacks of sentences are built and stepped in two modules only: the model
defines them (``_Stack``, ``_stack_contexts``) and decode cuts the stacks
(``decode._stacks``) that search and sampling take their contexts from."""

import ast
import os

import lexnmt

PACKAGE_DIR = os.path.dirname(lexnmt.__file__)

STACK_NAMES = {"_Stack", "_stack_contexts"}
STACK_MODULES = {"model.py", "decode.py"}


def _names(tree):
    """(line, name) of every name, attribute and import under ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.lineno, alias.name) for alias in node.names)


def test_only_model_and_decode_name_the_stack_builder():
    stray = []
    for filename in sorted(os.listdir(PACKAGE_DIR)):
        if not filename.endswith(".py") or filename in STACK_MODULES:
            continue
        path = os.path.join(PACKAGE_DIR, filename)
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), path)
        stray += [f"{filename}:{line} names {name}"
                  for line, name in _names(tree) if name in STACK_NAMES]
    assert stray == []
