"""Every module-level function and class of the package is named somewhere
in the package besides its own definition: by another module, the CLI, an
import in ``__init__`` or other code of its own module.  Code that only the
tests call belongs in the tests (``tests/oracles.py``).

Only names and imports count, not attribute names: ``text.translate`` in
the corpus module would otherwise count as a use of ``decode.translate``."""

import ast

from helpers import package_modules


def _named(node):
    """Every name read, bound or imported under ``node``."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.alias):
            names.add(n.name)
    return names


def test_every_module_level_definition_is_named_by_the_package():
    # (file, top-level statement)
    statements = [(filename, node) for filename, tree in package_modules()
                  for node in tree.body]
    named = [(node, _named(node)) for _, node in statements]
    unnamed = [f"{filename}:{node.name}" for filename, node in statements
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not any(node.name in names
                           for other, names in named if other is not node)]
    assert unnamed == []
