"""The package opens files in five places only: one text reader, one text
writer, the checkpoint writer and reader, and the training log."""

import ast

from helpers import package_modules

FILE_OPENERS = {"read_lines", "write_lines", "save_checkpoint",
                "load_checkpoint", "TrainLogWriter"}
OPEN_NAMES = {"open", "fdopen", "read_text", "write_text", "read_bytes",
              "write_bytes"}


def _open_calls(node, owners=()):
    """(line, enclosing function and class names) of every call that opens
    a file under ``node``."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        owners = owners + (node.name,)
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(
            func, "attr", None)
        if name in OPEN_NAMES:
            yield node.lineno, owners
    for child in ast.iter_child_nodes(node):
        yield from _open_calls(child, owners)


def test_files_are_opened_only_by_the_shared_readers_and_writers():
    stray = [f"{filename}:{line} in {'.'.join(owners) or 'module'}"
             for filename, tree in package_modules()
             for line, owners in _open_calls(tree)
             if not FILE_OPENERS.intersection(owners)]
    assert stray == []
