"""The package opens files in five places only: one text reader, one text
writer, the checkpoint writer and reader, and the training log."""

import ast
import os

import lexnmt

PACKAGE_DIR = os.path.dirname(lexnmt.__file__)

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
    stray = []
    for filename in sorted(os.listdir(PACKAGE_DIR)):
        if not filename.endswith(".py"):
            continue
        path = os.path.join(PACKAGE_DIR, filename)
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), path)
        stray += [f"{filename}:{line} in {'.'.join(owners) or 'module'}"
                  for line, owners in _open_calls(tree)
                  if not FILE_OPENERS.intersection(owners)]
    assert stray == []
