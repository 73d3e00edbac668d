"""The builtin ``sum`` runs under the package only where its result does not
depend on how the interpreter adds floats.

From Python 3.12, ``sum`` of floats uses compensated summation, so a float
sum through it would give other bits than on 3.10 and 3.11; float sums are
explicit left-to-right loops or numpy reductions instead.  The allowed call
sites add integers.
"""

import ast

from helpers import package_modules

# (file, enclosing function, the summed expression)
ALLOWED = {
    ("align.py", "ibm1_train", "(len(p.target) for p in pairs)"),
    ("metrics.py", "_clipped_matches",
     "(min(c, ref_counts[g]) for g, c in hyp_counts.items())"),
    ("metrics.py", "length_ratio", "(len(list(r)) for r in references)"),
    ("metrics.py", "length_ratio", "(len(list(h)) for h in hypotheses)"),
    ("model.py", "load_checkpoint", "map(math.prod, shapes.values())"),
    ("train.py", "train_ml", "(len(p.target) + 1 for p in batch)"),
}


def _sum_calls(node, owner=None):
    """(enclosing function, summed expression) of every builtin-sum call."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        owner = node.name
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "sum"):
        yield owner, ast.unparse(node.args[0]) if node.args else ""
    for child in ast.iter_child_nodes(node):
        yield from _sum_calls(child, owner)


def test_builtin_sum_only_at_listed_call_sites():
    found = {(filename, *site) for filename, tree in package_modules()
             for site in _sum_calls(tree)}
    assert found - ALLOWED == set()
