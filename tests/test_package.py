"""Static checks over the package source: no unused imports, no unreferenced private names."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "docidlm"
MODULES = sorted(PACKAGE.glob("*.py"))


def _tree(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _referenced_names(tree: ast.AST) -> set[str]:
    """Every name read in ``tree``, as a bare name or as an attribute; assigning is not reading."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    tree = _tree(path)
    imported = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported += [(alias.asname or alias.name).split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = _referenced_names(tree)
    assert [name for name in imported if name not in used] == []


def _defined_names(tree: ast.Module):
    """Names bound at a module's top level (functions, classes, assignments) and its classes' methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            yield from (item.name for item in node.body
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from (name.id for target in targets for name in ast.walk(target)
                        if isinstance(name, ast.Name))


def test_every_private_top_level_definition_is_referenced():
    # methods count too, dunders excepted
    trees = {path.name: _tree(path) for path in MODULES}
    used = set().union(*map(_referenced_names, trees.values()))
    private = [
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _defined_names(tree)
        if name.startswith("_") and not (name.startswith("__") and name.endswith("__"))
        and name not in used
    ]
    assert private == []
