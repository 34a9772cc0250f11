"""Static checks on the package source: every module but ``__init__``, which
re-exports, uses each name it imports."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "cdalg"


def annotation_names(tree: ast.AST) -> set[str]:
    """The names read inside string annotations, such as ``-> "Algebra"``."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
            args = node.args
            annotations += [a.annotation for a in (*args.posonlyargs, *args.args,
                                                   *args.kwonlyargs, args.vararg, args.kwarg)
                            if a is not None]
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for annotation in filter(None, annotations):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                          if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str) -> list[str]:
    """The names an import binds, anywhere in the module, that are never read."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update({(a.asname or a.name.split(".")[0]): node.lineno for a in node.names})
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update({(a.asname or a.name): node.lineno for a in node.names})
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)} | annotation_names(tree)
    return sorted(f"{name} (line {line})" for name, line in bound.items() if name not in read)


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py") if p.name != "__init__.py"))
def test_module_uses_every_name_it_imports(module):
    assert unused_imports((SRC / module).read_text()) == []


@pytest.mark.parametrize("source, unused", [
    ("import os\n", ["os (line 1)"]),
    ("import os.path\nos.sep\n", []),
    ("from typing import Callable, Iterator\ndef f() -> Iterator: ...\n", ["Callable (line 1)"]),
    ("from functools import partial\ndef f():\n    from math import isqrt\n    return partial\n",
     ["isqrt (line 3)"]),
    ("from .core import Algebra\ndef f(a: 'Algebra'): ...\n", []),
    ("from __future__ import annotations\nimport numpy as np\nnp.zeros\n", []),
])
def test_unused_imports_finds_names_never_read(source, unused):
    assert unused_imports(source) == unused
