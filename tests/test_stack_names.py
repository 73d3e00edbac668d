"""Stacks of sentences are cut and built in one module: the model defines
them (``_Stack``, of ``_Run``s) and cuts every group of sentences stepped
together under its byte budget (``STACK_BYTES``, ``_step_bytes``), in one
rule (``_cuts``) that its one generator of stacks (``_stacks``), which
search, sampling and scoring take their contexts from, and maximum
likelihood's walks follow; no other module groups sentences by the rows of
the model's step blocks (``BLOCK_ROWS``).  The layout of a stack's decoder
state is the model's too.  Decode only searches: no package module but the
command line and the package root imports it."""

import ast

from helpers import package_modules

STACK_NAMES = {"_Stack", "_Run", "STACK_BYTES", "_step_bytes", "BLOCK_ROWS"}
# what computing a stack state's rows per sentence, holding or stepping a
# decoder state and dropping a sentence from a state or stack take
STATE_LAYOUT_NAMES = {"repeat", "hidden", "cell", "context", "_init_state",
                      "_block_step", "_ensemble_logp", "sentences"}
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


def test_only_model_names_the_stack_builder():
    trees = dict(package_modules())
    stray = [f"{filename}:{line} names {name}"
             for filename, tree in trees.items() if filename != "model.py"
             for line, name in _names(tree) if name in STACK_NAMES]
    assert stray == []
    # a renamed class would pass the check above by being named nowhere
    assert STACK_NAMES <= {name for _, name in _names(trees["model.py"])}


def test_decode_computes_no_state_layout():
    # search only chooses the children of its rows: the model's walk
    # (``model._walk``) holds and steps each member's state and drops
    # finished sentences from it and from the stacks
    trees = dict(package_modules())
    stray = [f"decode.py:{line} names {name}"
             for line, name in _names(trees["decode.py"])
             if name in STATE_LAYOUT_NAMES]
    assert stray == []


def test_only_the_command_line_and_package_root_import_decode():
    # training samples from the model's stacks; it does not reach into search
    stray = [f"{filename}:{line} imports decode"
             for filename, tree in package_modules()
             if filename not in DECODE_IMPORTERS
             for line in _decode_imports(tree)]
    assert stray == []
