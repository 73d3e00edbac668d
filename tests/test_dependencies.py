"""The package imports no third-party module beyond its declared ones."""

import ast
import os
import re
import subprocess
import sys

import pytest

from helpers import PACKAGE_DIR, package_modules

REPO_ROOT = os.path.dirname(os.path.dirname(PACKAGE_DIR))


def _imported_top_level_modules():
    names = set()
    for _, tree in package_modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.split(".")[0])
    return names


def test_third_party_imports_match_declared_dependencies():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(REPO_ROOT, "pyproject.toml"), "rb") as f:
        declared = {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower()
                    for d in tomllib.load(f)["project"]["dependencies"]}
    third_party = (_imported_top_level_modules()
                   - set(sys.stdlib_module_names) - {"lexnmt"})
    assert declared == {"numpy"}
    assert third_party == declared


def test_import_does_not_load_scipy():
    env = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE_DIR))
    code = "import sys, lexnmt; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.strip() == "False"
