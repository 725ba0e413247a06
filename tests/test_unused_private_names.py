"""Every module-level private name of the package is read somewhere else in
it: an ast scan of `src/a4csl`.

A private name (one leading underscore, not a dunder) is not part of the
public surface, so when no other statement of the package reads it, it is
dead code.  The tests do not count as readers: code kept only for a test
belongs in the test tree.  A function that only calls itself is dead too.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "a4csl"


def _bound(stmt: ast.stmt) -> list[str]:
    """The names a module-level statement binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _read(stmt: ast.stmt) -> set[str]:
    """Every name a statement reads: loaded names, attributes and the names
    it imports."""
    out = set()
    for n in ast.walk(stmt):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def unreferenced_private_names(sources: dict[str, str]) -> list[str]:
    """`module:name` for each module-level private name of the given
    modules that no other module-level statement of any of them reads."""
    statements = [(module, stmt) for module, source in sources.items()
                  for stmt in ast.parse(source).body]
    reads = [_read(stmt) for _, stmt in statements]
    out = []
    for k, (module, stmt) in enumerate(statements):
        for name in _bound(stmt):
            private = name.startswith("_") and not name.endswith("__")
            if private and not any(name in r for j, r in enumerate(reads) if j != k):
                out.append(f"{module}:{name}")
    return out


def test_scan_finds_an_unreferenced_private_name():
    sources = {
        "a": ("_IMPORTED = 1\n_DEAD = 2\n_read_as_attribute = 3\n__version__ = '0'\n"
              "def _self_only(n):\n    return _self_only(n - 1)\n"
              "def _called():\n    return 0\n"
              "_X, (_Y, _Z) = 1, (2, _called())\n"),
        "b": "from .a import _IMPORTED\nimport a\nprint(_IMPORTED, a._read_as_attribute, _X, _Y)\n",
    }
    assert unreferenced_private_names(sources) == ["a:_DEAD", "a:_self_only", "a:_Z"]


def test_every_private_name_is_read_elsewhere_in_the_package():
    sources = {p.name: p.read_text() for p in sorted(PACKAGE.glob("*.py"))}
    assert len(sources) > 5
    assert unreferenced_private_names(sources) == []
