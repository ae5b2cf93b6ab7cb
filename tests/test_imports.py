"""Every name a divsym module imports is used in that module or listed
in its __all__ (re-exports), every module-level definition is read
outside the tests, every dataclass field is read somewhere, and the
state a process keeps across calls is a known list.  ast only: no
linter is needed.  The package holds Python sources only: no
generated C or compiled extension."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "divsym"


def unused_imports(source):
    """Names bound by import statements that no Name node reads and
    __all__ does not list; __future__ imports are exempt."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


def test_checker_flags_only_unused_names():
    source = ("from __future__ import annotations\n"
              "import os, sys as system\n"
              "from a.b import c, d as e, f\n"
              "__all__ = ['f']\n"
              "print(os.sep, e)\n")
    assert unused_imports(source) == [(2, "system"), (3, "c")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_package_holds_only_python_sources():
    files = [p for p in SRC.rglob("*")
             if p.is_file() and "__pycache__" not in p.parts]
    assert files and [p.name for p in files if p.suffix != ".py"] == []


def _defined_names(node):
    """The names a module-level statement defines: a def's or class's
    name, or each name an assignment binds (tuple targets unpacked)."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                         ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [t.id for target in targets for t in ast.walk(target)
            if isinstance(t, ast.Name)]


def unread_definitions(modules, readers):
    """(module, name) of each module-level def, class or assigned name
    in `modules` ({name: source}) that no Name or Attribute node in
    `readers` (sources) loads; strings such as __all__ entries do not
    count, and dunder names such as __all__ are exempt."""
    read = set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and \
                    isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return sorted((module, name)
                  for module, source in modules.items()
                  for node in ast.parse(source).body
                  for name in _defined_names(node)
                  if name not in read
                  and not (name.startswith("__") and name.endswith("__")))


def test_unread_definition_checker():
    modules = {"m": "__all__ = ['f', 'g']\n"
                    "def f(): pass\ndef g(): pass\nclass C: pass\n"
                    "def h(): pass\nK = 1\n"}
    readers = [modules["m"], "import m\nm.g()\nm.C = h = 1\n"]
    assert unread_definitions(modules, readers) == \
        [("m", "C"), ("m", "K"), ("m", "f"), ("m", "h")]


def test_every_definition_is_read_outside_the_tests():
    # a package definition that only tests call belongs in the tests
    bench = SRC.parents[1] / "perfbench"
    paths = sorted(SRC.glob("*.py")) + [
        p for p in sorted(bench.glob("*.py")) if not p.name.startswith("test_")]
    sources = {p: p.read_text(encoding="utf-8") for p in paths}
    modules = {p.stem: s for p, s in sources.items() if p.parent == SRC}
    assert unread_definitions(modules, sources.values()) == []



def _decorator_names(node):
    """The name of each decorator of a def or class statement, with or
    without arguments and with or without its module prefix."""
    return [getattr(d, "id", getattr(d, "attr", None))
            for d in (d.func if isinstance(d, ast.Call) else d
                      for d in node.decorator_list)]


def _is_dataclass(node):
    """True when a class statement is decorated @dataclass."""
    return "dataclass" in _decorator_names(node)


def unread_fields(modules, readers):
    """(module, class, field) of each field of a module-level @dataclass
    in `modules` ({name: source}) that no Attribute node in `readers`
    (sources) loads.  NamedTuples are exempt: they are read by
    unpacking."""
    read = {node.attr for source in readers
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    return sorted((module, node.name, stmt.target.id)
                  for module, source in modules.items()
                  for node in ast.parse(source).body
                  if isinstance(node, ast.ClassDef) and _is_dataclass(node)
                  for stmt in node.body
                  if isinstance(stmt, ast.AnnAssign)
                  and isinstance(stmt.target, ast.Name)
                  and stmt.target.id not in read)


def test_unread_field_checker():
    modules = {"m": "from dataclasses import dataclass\n"
                    "from typing import NamedTuple\n"
                    "@dataclass(frozen=True)\n"
                    "class A:\n    x: int\n    y: int = 0\n"
                    "@dataclass\nclass B:\n    z: int\n"
                    "class T(NamedTuple):\n    w: int\n"}
    readers = [modules["m"], "import m\nprint(m.A(1).x, m.B(z=2))\n"]
    assert unread_fields(modules, readers) == \
        [("m", "A", "y"), ("m", "B", "z")]


def test_every_dataclass_field_is_read():
    # a field nothing loads is carried, and copied, for no reader
    root = SRC.parents[1]
    modules = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    readers = [p.read_text(encoding="utf-8") for d in ("src", "perfbench",
                                                       "tests")
               for p in sorted((root / d).rglob("*.py"))]
    assert unread_fields(modules, readers) == []


def process_state(modules):
    """(module, name) of each name a `global` statement in `modules`
    ({name: source}) declares, and of each module-level function
    decorated with functools' lru_cache or cache: the state one process
    keeps across calls."""
    found = set()
    for module, source in modules.items():
        tree = ast.parse(source)
        found.update((module, name) for node in ast.walk(tree)
                     if isinstance(node, ast.Global) for name in node.names)
        found.update((module, node.name) for node in tree.body
                     if isinstance(node, ast.FunctionDef)
                     and {"lru_cache", "cache"} & set(_decorator_names(node)))
    return sorted(found)


def test_process_state_checker():
    modules = {"m": "import functools\n"
                    "from functools import cache, cached_property, lru_cache\n"
                    "_a = None\n"
                    "@lru_cache(maxsize=4)\ndef f(x): return x\n"
                    "@functools.cache\ndef g(): pass\n"
                    "@cache\ndef h(): pass\n"
                    "def k():\n    global _a, _b\n    _a = _b = 1\n"
                    "class C:\n    @functools.lru_cache\n    def m(self): pass\n"
                    "    @cached_property\n    def p(self): pass\n"}
    assert process_state(modules) == \
        [("m", "_a"), ("m", "_b"), ("m", "f"), ("m", "g"), ("m", "h")]


def test_process_state_is_the_known_list():
    # state that outlives a call is shared by every caller in the
    # process, so each entry here is a deliberate one
    modules = {p.stem: p.read_text(encoding="utf-8")
               for p in sorted(SRC.glob("*.py"))}
    assert process_state(modules) == [
        ("collector", "_server"), ("diversify", "_draws"),
        ("diversify", "_identifier_hash"), ("replicate", "_last_plan")]
