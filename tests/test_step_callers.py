"""One decoder step, one loop that calls it: ``model._block_step`` is
stepped only by the walk (``model._walk``), which search, sampling,
teacher-forced scoring and minimum-risk training all step through.
Maximum likelihood's deferred walk steps the recurrence alone."""

import ast

from helpers import package_modules


def _users(name):
    """(file name, enclosing top-level definition) of every use of ``name``
    in the package: a name, an attribute or an import, outside its own
    definition."""
    for filename, tree in package_modules():
        for top in tree.body:
            where = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if (isinstance(node, ast.Name) and node.id == name
                        or isinstance(node, ast.Attribute)
                        and node.attr == name
                        or isinstance(node, ast.ImportFrom)
                        and name in (alias.name for alias in node.names)):
                    yield filename, where


def test_only_the_walk_steps_blocks():
    assert sorted(set(_users("_block_step"))) == [("model.py", "_walk")]
