"""``src/`` holds only what the package itself or the benchmark reaches.

Every module-level function, class and constant of ``src/akltmqc`` must be
referenced somewhere in ``src/`` outside its own definition, or named in
``perfbench/*.py`` (the benchmark tracer wraps names that only the tests
call otherwise). A reference implementation that only the tests read
belongs in ``tests/reference.py``; a helper nothing reads is deleted.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "akltmqc").glob("*.py"))
BENCH = "\n".join(p.read_text() for p in sorted((ROOT / "perfbench").glob("*.py")))


def _defined(stmt):
    """Names a top-level statement defines (functions, classes, constants)."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
        targets = [stmt.target]
    else:
        return []
    return [
        node.id
        for target in targets
        for node in ast.walk(target)
        if isinstance(node, ast.Name)
    ]


def _used(stmt):
    """Names a statement reads: plain names, attributes and imports."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name.rpartition(".")[2])
    return out


def _unreached():
    definitions = []  # (module, statement index, name)
    uses = []  # (module, statement index, names read)
    for path in SOURCES:
        for i, stmt in enumerate(ast.parse(path.read_text()).body):
            definitions += [(path.stem, i, name) for name in _defined(stmt)]
            uses.append((path.stem, i, _used(stmt)))
    return [
        f"{module}.{name}"
        for module, i, name in definitions
        if not (name.startswith("__") and name.endswith("__"))
        and not any(
            name in names and (other, j) != (module, i)
            for other, j, names in uses
        )
        and not re.search(rf"\b{re.escape(name)}\b", BENCH)
    ]


def test_every_src_name_is_reached():
    assert _unreached() == []
