"""The package's public surface."""

import ast
from pathlib import Path

import fptycho


def test_star_import_resolves_every_exported_name():
    namespace: dict = {}
    exec("from fptycho import *", namespace)   # a stale name raises here
    assert set(fptycho.__all__) <= namespace.keys()
    assert len(set(fptycho.__all__)) == len(fptycho.__all__)


def test_no_module_imports_a_name_it_never_uses():
    """Every name a module under src/fptycho imports is read somewhere in it,
    or listed in its ``__all__``."""
    unused = []
    for path in sorted(Path(fptycho.__file__).parent.glob("*.py")):
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
