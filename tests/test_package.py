"""The package's public surface."""

import ast
from collections import Counter
from pathlib import Path

import fptycho

SRC = Path(fptycho.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_star_import_resolves_every_exported_name():
    namespace: dict = {}
    exec("from fptycho import *", namespace)   # a stale name raises here
    assert set(fptycho.__all__) <= namespace.keys()
    assert len(set(fptycho.__all__)) == len(fptycho.__all__)


def test_no_module_imports_a_name_it_never_uses():
    """Every name a module under src/fptycho imports is read somewhere in it,
    or listed in its ``__all__``."""
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(
                    node, "module", None) != "__future__":
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    imported[name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if (isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
                used |= set(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert not unused, f"imported and never used: {unused}"


def _mentions(tree: ast.AST) -> Counter:
    """Each name ``tree`` reads or writes, each attribute it names and each
    string constant it holds (``__all__`` entries and lookup tables too)."""
    found = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found[node.id] += 1
        elif isinstance(node, ast.Attribute):
            found[node.attr] += 1
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found[node.value] += 1
    return found


def test_every_public_function_and_method_has_a_caller():
    """Every public module-level function and class method under src/fptycho
    is named in src/fptycho or perfbench outside its own definition: code
    that only the tests call belongs in the tests."""
    everywhere, defs = Counter(), []
    for path in sorted(SRC.glob("*.py")) + sorted(PERFBENCH.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        everywhere += _mentions(tree)
        if path.parent != SRC:
            continue
        for node in tree.body:
            members = node.body if isinstance(node, ast.ClassDef) else [node]
            defs += [(path.name, member) for member in members
                     if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                     and not member.name.startswith("_")]
    uncalled = sorted(f"{name}:{node.lineno} {node.name}" for name, node in defs
                      if everywhere[node.name] <= _mentions(node)[node.name])
    assert not uncalled, f"defined in src/fptycho, named nowhere else: {uncalled}"
