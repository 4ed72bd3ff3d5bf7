"""Every imported name is used: a stdlib-only ``ast`` scan of the package
(except ``__init__.py``, whose imports are its exports), the tests and the
scripts.  Every module-level private function or class of the package is
referenced in its own module, and every method of a package class is named
somewhere in the package."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _sources():
    for directory in ("src/graphcake", "tests", "scripts"):
        for path in sorted((ROOT / directory).rglob("*.py")):
            if path.name != "__init__.py":
                yield path


def unused_imports(source: str) -> list[str]:
    """Names bound by an import that appear nowhere as a Name node or as a
    function parameter."""
    tree = ast.parse(source)
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                if alias.name != "*":
                    name = alias.asname or alias.name.split(".")[0]
                    imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used.add(node.arg)
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_imports_detects_and_spares():
    source = "import os\nimport a.b\nfrom m import x as y, z\n\ndef f(z):\n    return a.b\n"
    assert unused_imports(source) == ["os (line 1)", "y (line 3)"]


def test_no_unused_imports():
    found = {
        str(path.relative_to(ROOT)): names
        for path in _sources()
        if (names := unused_imports(path.read_text()))
    }
    assert found == {}


def unreferenced_private_defs(source: str) -> list[str]:
    """Module-level ``_private`` functions and classes whose name appears
    nowhere in the module as a Name node.  A name search over the whole tree
    would miss one whose name another file also defines."""
    tree = ast.parse(source)
    defined = {
        node.name: node.lineno
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name.startswith("_")
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in defined.items() if name not in used]


def test_unreferenced_private_defs_detects_and_spares():
    source = "def _dead():\n    pass\n\nclass _Used:\n    pass\n\ndef _helper():\n    return _Used()\n\nx = _helper()\n"
    assert unreferenced_private_defs(source) == ["_dead (line 1)"]


def test_no_unreferenced_private_defs():
    found = {
        str(path.relative_to(ROOT)): names
        for path in sorted((ROOT / "src/graphcake").glob("*.py"))
        if (names := unreferenced_private_defs(path.read_text()))
    }
    assert found == {}


def unreferenced_methods(sources) -> list[str]:
    """Non-dunder methods of the classes with no explicit base in ``sources``
    whose name appears in none of them as a Name node or an attribute.

    The check goes by name, not by call graph: any Name or attribute
    anywhere that spells a method's name counts as a use, so a wrapper
    called only by another wrapper escapes it.  Classes with a base are
    skipped, since their methods may be called by the base (``Rational``'s
    operators, an ``argparse`` parser's ``error``)."""
    used, methods = set(), []
    for tree in map(ast.parse, sources):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ClassDef) and not node.bases:
                methods += [
                    (f"{node.name}.{item.name}", item.name, item.lineno)
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not (item.name.startswith("__") and item.name.endswith("__"))
                ]
    return [f"{qual} (line {line})" for qual, name, line in methods if name not in used]


def test_unreferenced_methods_detects_and_spares():
    classes = (
        "class A:\n    def __init__(self):\n        pass\n\n    def dead(self):\n        pass\n\n"
        "    def used(self):\n        pass\n\n\nclass B(Base):\n    def error(self):\n        pass\n"
    )
    assert unreferenced_methods([classes, "A().used()\n"]) == ["A.dead (line 5)"]


def test_no_unreferenced_methods():
    sources = [path.read_text() for path in sorted((ROOT / "src/graphcake").glob("*.py"))]
    assert unreferenced_methods(sources) == []


# The modules that answer queries: only they record them in a ledger.
LEDGER_WRITERS = {"model.py", "divide.py", "star_eps.py", "queries.py"}


def ledger_records(source: str) -> list[str]:
    """Each naming of ``record_eval`` or ``record_cut``, as a name, an
    attribute or a definition."""
    found = []
    for node in ast.walk(ast.parse(source)):
        name = getattr(node, "id", None) or getattr(node, "attr", None)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = node.name
        if name in ("record_eval", "record_cut"):
            found.append((node.lineno, name))
    return [f"{name} (line {line})" for line, name in sorted(found)]


def test_ledger_records_detects_and_spares():
    source = "def f(ledger):\n    ledger.record_cut()\n    eval_share(ledger)\n    return record_eval\n"
    assert ledger_records(source) == ["record_cut (line 2)", "record_eval (line 4)"]


def test_only_query_answering_modules_record_queries():
    found = {
        path.name: names
        for path in sorted((ROOT / "src/graphcake").glob("*.py"))
        if path.name not in LEDGER_WRITERS and (names := ledger_records(path.read_text()))
    }
    assert found == {}
