"""nicom evaluates with integers and Fractions only: no module under src/nicom
holds a float literal, a true division ``/``, a ``float(...)`` call, or a
``math.log*`` or ``math.sqrt`` (by attribute or by ``from math import``).
Timing (``perf_counter``) is not evaluation and is not flagged.

A second scan finds imported names that are never read, in src/nicom and in
tests/, and a third finds module-level private names of src/nicom that
nothing in src/nicom or tests/ reads."""

import ast
from pathlib import Path

import nicom

SRC = Path(nicom.__file__).parent


def _is_float_math(name):
    return name.startswith("log") or name == "sqrt"


def float_hits(tree):
    """(line, what) for every float construct in a parsed module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
            yield node.lineno, f"float literal {node.value!r}"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
            yield node.lineno, "true division /"
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "float"):
            yield node.lineno, "float(...)"
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id == "math" and _is_float_math(node.attr)):
            yield node.lineno, f"math.{node.attr}"
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if _is_float_math(alias.name):
                    yield node.lineno, f"from math import {alias.name}"


def test_no_float_in_src():
    modules = sorted(SRC.glob("*.py"))
    assert modules
    hits = [f"{path.name}:{line}: {what}" for path in modules
            for line, what in float_hits(ast.parse(path.read_text(), str(path)))]
    assert not hits, hits


def test_the_scan_sees_each_float_construct():
    source = """
import math
from math import isqrt, log2
a = 0.5
b = 1 / 2
b /= 3
c = float(7)
d = math.sqrt(5) + math.log(3)
e = 7 // 2 + isqrt(5)
"""
    assert sorted(what for _, what in float_hits(ast.parse(source))) == sorted([
        "from math import log2", "float literal 0.5", "true division /", "true division /",
        "float(...)", "math.sqrt", "math.log"])


def unused_imports(tree):
    """(line, name) for every name an import binds that the module never reads."""
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (isinstance(node, ast.ImportFrom)
                                            and node.module != "__future__"):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                if name not in read:
                    yield node.lineno, name


def test_every_imported_name_is_read():
    modules = sorted(SRC.glob("*.py")) + sorted(Path(__file__).parent.glob("*.py"))
    assert len(modules) > 10
    hits = [f"{path.parent.name}/{path.name}:{line}: {name}" for path in modules
            for line, name in unused_imports(ast.parse(path.read_text(), str(path)))]
    assert not hits, hits


def test_the_scan_sees_each_unused_import():
    source = """
from __future__ import annotations
import os.path
import json as j
from math import gcd, isqrt
from . import qratio
print(os.path.sep, gcd(4, 6), qratio.q_diff)
"""
    assert sorted(name for _, name in unused_imports(ast.parse(source))) == ["isqrt", "j"]


def private_definitions(tree):
    """(line, name) for every ``_name``, not a dunder, that a module defines at its top level."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield node.lineno, name


def names_read(tree):
    """Every name a module reads: as a name, as an attribute or by ``from ... import``."""
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            read.update(alias.name for alias in node.names)
    return read


def test_every_private_name_is_read():
    modules = sorted(SRC.glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in modules + sorted(Path(__file__).parent.glob("*.py"))}
    read = set().union(*map(names_read, trees.values()))
    defined = [(path, line, name) for path in modules
               for line, name in private_definitions(trees[path])]
    assert len(defined) > 20
    hits = [f"{path.name}:{line}: {name}" for path, line, name in defined if name not in read]
    assert not hits, hits


def test_the_scan_sees_each_unread_private_name():
    source = """
import sys
from os import _exit
__all__ = []
_READ = 1
_UNREAD = 2
_PAIR_READ, _PAIR_UNREAD = 3, 4
_ANNOTATED: int = 5
_AS_ATTRIBUTE = 6
def _helper():
    return _READ + _PAIR_READ + sys.modules[__name__]._AS_ATTRIBUTE
class _Gone:
    _inner = 7
"""
    tree = ast.parse(source)
    assert sorted(name for _, name in private_definitions(tree)
                  if name not in names_read(tree)) == [
        "_ANNOTATED", "_Gone", "_PAIR_UNREAD", "_UNREAD", "_helper"]
