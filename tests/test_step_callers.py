"""One decoder step, two loops that call it: ``model._block_step`` is
stepped only by the padded walk (``model._walk_stack``), which samples and
teacher-forces for sampling, scoring and minimum-risk training, and by
search (``model._ensemble_logp``).  Maximum likelihood's deferred walk
steps the recurrence alone."""

import ast
import os

import lexnmt

PACKAGE_DIR = os.path.dirname(lexnmt.__file__)


def _users(name):
    """(file name, enclosing top-level definition) of every use of ``name``
    in the package: a name, an attribute or an import, outside its own
    definition."""
    for filename in sorted(os.listdir(PACKAGE_DIR)):
        if not filename.endswith(".py"):
            continue
        path = os.path.join(PACKAGE_DIR, filename)
        with open(path, encoding="utf-8") as f:
            tree = ast.parse(f.read(), path)
        for top in tree.body:
            where = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if (isinstance(node, ast.Name) and node.id == name
                        or isinstance(node, ast.Attribute)
                        and node.attr == name
                        or isinstance(node, ast.ImportFrom)
                        and name in (alias.name for alias in node.names)):
                    yield filename, where


def test_only_the_padded_walk_and_search_step_blocks():
    assert sorted(set(_users("_block_step"))) == [
        ("model.py", "_ensemble_logp"), ("model.py", "_walk_stack")]
