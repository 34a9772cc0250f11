"""Static checks on the package source: every module but ``__init__``, which
re-exports, uses each name it imports, and every private function or method
is referenced somewhere in the package."""

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


def unreferenced_private_functions(sources: dict[str, str]) -> list[str]:
    """The private module-level functions and methods of classes at module
    level (``_name``, dunders aside) whose name no module reads, as a name,
    an attribute or an imported name."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    found = []
    for module, tree in trees.items():
        for node in tree.body:
            defs = [("", node)]
            if isinstance(node, ast.ClassDef):
                defs = [(f"{node.name}.", item) for item in node.body]
            for prefix, item in defs:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and item.name.startswith("_") and not item.name.endswith("__")
                        and item.name not in read):
                    found.append(f"{module}: {prefix}{item.name} (line {item.lineno})")
    return sorted(found)


def test_every_private_function_is_referenced():
    sources = {p.name: p.read_text() for p in SRC.glob("*.py")}
    assert unreferenced_private_functions(sources) == []


@pytest.mark.parametrize("sources, unreferenced", [
    ({"a.py": "def _f(): ...\n"}, ["a.py: _f (line 1)"]),
    ({"a.py": "def _f(): ...\n", "b.py": "from .a import _f\n"}, []),
    ({"a.py": "def _f(): ...\ndef g():\n    return _f()\n"}, []),
    ({"a.py": "class C:\n    def _m(self): ...\n    def __len__(self): ...\n"},
     ["a.py: C._m (line 2)"]),
    ({"a.py": "class C:\n    def _m(self): ...\n", "b.py": "def g(c):\n    return c._m\n"}, []),
    ({"a.py": "def f():\n    def _inner(): ...\n    return 1\n"}, []),
])
def test_unreferenced_private_functions_finds_dead_helpers(sources, unreferenced):
    assert unreferenced_private_functions(sources) == unreferenced
