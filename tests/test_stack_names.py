"""Stacks of sentences are cut and built in one module: the model defines
them (``_Stack``, of ``_Run``s) and cuts them under its byte budget
(``STACK_BYTES``, ``_step_bytes``) in its one generator of stacks
(``_stacks``), which search, sampling and scoring take their contexts from;
the layout of a stack's decoder state is the model's too.  Decode only
searches: no package module but the command line and the package root
imports it."""

import ast
import os

import lexnmt

PACKAGE_DIR = os.path.dirname(lexnmt.__file__)

STACK_NAMES = {"_Stack", "_Run", "STACK_BYTES", "_step_bytes"}
# what computing a stack state's rows per sentence takes
STATE_LAYOUT_NAMES = {"repeat", "hidden", "cell", "context"}
DECODE_IMPORTERS = {"cli.py", "__init__.py"}


def _names(tree):
    """(line, name) of every name, attribute and import under ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.lineno, node.id
        elif isinstance(node, ast.Attribute):
            yield node.lineno, node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from ((node.lineno, alias.name) for alias in node.names)


def _decode_imports(tree):
    """Lines of every import of the decode module under ``tree``."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            modules = ([node.module] if node.module
                       else [alias.name for alias in node.names])
        elif isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        else:
            continue
        if {"decode", "lexnmt.decode"} & set(modules):
            yield node.lineno


def _package_modules():
    """(file name, syntax tree) of every module of the package."""
    for filename in sorted(os.listdir(PACKAGE_DIR)):
        if filename.endswith(".py"):
            path = os.path.join(PACKAGE_DIR, filename)
            with open(path, encoding="utf-8") as f:
                yield filename, ast.parse(f.read(), path)


def test_only_model_names_the_stack_builder():
    trees = dict(_package_modules())
    stray = [f"{filename}:{line} names {name}"
             for filename, tree in trees.items() if filename != "model.py"
             for line, name in _names(tree) if name in STACK_NAMES]
    assert stray == []
    # a renamed class would pass the check above by being named nowhere
    assert STACK_NAMES <= {name for _, name in _names(trees["model.py"])}


def test_decode_computes_no_state_layout():
    # search drops finished sentences through the model's state and stack
    # (``sentences``); it neither repeats masks over rows nor reads states
    trees = dict(_package_modules())
    stray = [f"decode.py:{line} names {name}"
             for line, name in _names(trees["decode.py"])
             if name in STATE_LAYOUT_NAMES]
    assert stray == []


def test_only_the_command_line_and_package_root_import_decode():
    # training samples from the model's stacks; it does not reach into search
    stray = [f"{filename}:{line} imports decode"
             for filename, tree in _package_modules()
             if filename not in DECODE_IMPORTERS
             for line in _decode_imports(tree)]
    assert stray == []
