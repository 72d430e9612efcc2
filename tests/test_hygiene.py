"""Dead-code checks over the package source, with the standard library's ast.

Three rules: every import is used in its module, every private name
(a module-level function, class or constant, or a method, whose name
starts with one underscore) is referenced somewhere in the package, and
every parameter of a function or method is read in its body.
__init__.py imports to re-export, so its imports are exempt. So are
bodies that hold only a docstring or `...` (protocol stubs), lambdas
(the conversion weights share one signature) and get_params(deep), the
estimator idiom.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "graphsi"
MODULES = {path.name: ast.parse(path.read_text(), str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def loaded_names(tree: ast.AST) -> set[str]:
    """Names read in tree: bare names, attributes and imported names."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Store):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def is_private(name: str) -> bool:
    return name.startswith("_") and not name.startswith("__")


def private_definitions(tree: ast.Module):
    """(line, name) of each private module-level name and method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.lineno, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield node.lineno, target.id
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.lineno, item.name


@pytest.mark.parametrize("name", [name for name in MODULES if name != "__init__.py"])
def test_every_import_is_used(name):
    tree = MODULES[name]
    used = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}
    unused = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append((node.lineno, bound))
    assert unused == []


def test_every_private_name_is_referenced():
    referenced = set().union(*map(loaded_names, MODULES.values()))
    unreferenced = [(name, line, private) for name, tree in MODULES.items()
                    for line, private in private_definitions(tree)
                    if is_private(private) and private not in referenced]
    assert unreferenced == []


def unread_parameters(tree: ast.Module):
    """(line, function, parameter) of each parameter its body never reads."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if all(isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant)
               for stmt in node.body):
            continue  # a docstring or ... alone: a stub
        args = node.args
        params = [arg.arg for arg in args.posonlyargs + args.args + args.kwonlyargs]
        params += [arg.arg for arg in (args.vararg, args.kwarg) if arg is not None]
        read = {name.id for stmt in node.body for name in ast.walk(stmt)
                if isinstance(name, ast.Name) and isinstance(name.ctx, ast.Load)}
        for param in params:
            if param not in read and (node.name, param) != ("get_params", "deep"):
                yield node.lineno, node.name, param


@pytest.mark.parametrize("name", list(MODULES))
def test_every_parameter_is_read(name):
    assert list(unread_parameters(MODULES[name])) == []
