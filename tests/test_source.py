"""Source hygiene that a linter would check, with the standard library's ast:
no module-level private name is left unused, no import is unused, and every
name in the package's ``__all__`` is bound there and listed once."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "hstconformal"


def _modules():
    return {p.name: ast.parse(p.read_text(encoding="utf-8"), str(p))
            for p in sorted(SRC.glob("*.py"))}


def _top_level(tree):
    # module-level statements, including those under a module-level if or try
    stack = list(tree.body)
    while stack:
        node = stack.pop(0)
        if isinstance(node, (ast.If, ast.Try)):
            stack.extend(node.body + node.orelse + getattr(node, "finalbody", []))
            stack.extend(s for h in getattr(node, "handlers", []) for s in h.body)
        else:
            yield node


def _bound(node):
    """The names a module-level statement binds."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Import, ast.ImportFrom)):
        return [(a.asname or a.name).split(".")[0] for a in node.names]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for t in targets for n in ast.walk(t)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]
    return []


def _loaded(node):
    """Names read under ``node``, bare or as an attribute of something else."""
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr


def _exported(tree):
    for node in _top_level(tree):
        if isinstance(node, ast.Assign) and "__all__" in _bound(node):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_private_module_name_is_used_outside_its_definition():
    modules = _modules()
    everywhere = Counter(name for tree in modules.values() for name in _loaded(tree))
    unused = []
    for fname, tree in modules.items():
        for node in _top_level(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue  # imports have their own test below
            own = Counter(_loaded(node))
            unused += [f"{fname}: {name}" for name in _bound(node)
                       if name.startswith("_") and not name.startswith("__")
                       and everywhere[name] == own[name]]
    assert not unused, unused


def test_every_imported_name_is_used():
    unused = []
    for fname, tree in _modules().items():
        loaded = set(_loaded(tree)) | _exported(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                unused += [f"{fname}: {name}" for name in _bound(node) if name not in loaded]
    assert not unused, unused


def test_every_exported_name_is_bound_once():
    # a listed name that is not bound breaks `from hstconformal import *`
    import hstconformal

    listed = hstconformal.__all__
    assert [name for name, k in Counter(listed).items() if k > 1] == []
    assert [name for name in listed if not hasattr(hstconformal, name)] == []
