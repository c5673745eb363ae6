"""Every module-level import in the package and its tests is read or listed in
__all__, and every exception class the package defines is raised in it.

Static checks with the standard library's ast. A name bound by an import
at module level (``from __future__`` aside) must appear as a loaded name
somewhere in its module, or be listed in the module's ``__all__``. A class
that derives, directly or through other package classes, from a built-in
exception must be named by some ``raise`` statement in the package.
"""

import ast
import builtins
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "refrank"
MODULES = sorted(PACKAGE.rglob("*.py"))


def _module_level(body):
    """Statements at module level, including those nested in if/try blocks there."""
    for node in body:
        yield node
        if isinstance(node, ast.If):
            yield from _module_level(node.body)
            yield from _module_level(node.orelse)
        elif isinstance(node, ast.Try):
            for block in (node.body, node.orelse, node.finalbody):
                yield from _module_level(block)
            for handler in node.handlers:
                yield from _module_level(handler.body)


def _imported_names(tree):
    """(bound name, line) for each module-level import, __future__ excluded."""
    for node in _module_level(tree.body):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.partition(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _exported(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    read = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    exported = _exported(tree)
    return [
        f"line {line}: {name}"
        for name, line in _imported_names(tree)
        if name not in read and name not in exported
    ]


@pytest.mark.parametrize(
    "path", MODULES + sorted(TESTS.glob("*.py")),
    ids=lambda path: str(path.relative_to(PACKAGE if PACKAGE in path.parents else TESTS.parent)),
)
def test_every_module_level_import_is_read_or_exported(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import json as js\n"
        "import xml.dom\n"
        "from math import pi, tau\n"
        "from .base import Exported\n"
        "__all__ = ['Exported']\n"
        "print(pi, xml.dom)\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 3: js", "line 5: tau"]


def test_the_package_has_modules_to_check():
    assert PACKAGE / "cli.py" in MODULES and PACKAGE / "scorer" / "llm.py" in MODULES


def _is_builtin_exception(name: str) -> bool:
    value = getattr(builtins, name, None)
    return isinstance(value, type) and issubclass(value, BaseException)


def exceptions_never_raised(sources) -> list[str]:
    """Exception classes defined in the sources that no raise statement names."""
    bases: dict[str, list[str]] = {}
    raised: set[str] = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [base.id for base in node.bases if isinstance(base, ast.Name)]
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    exceptions: set[str] = set()
    grew = True
    while grew:
        found = {
            name for name, names in bases.items()
            if any(base in exceptions or _is_builtin_exception(base) for base in names)
        }
        grew = found != exceptions
        exceptions = found
    return sorted(exceptions - raised)


def test_every_exception_class_is_raised():
    assert exceptions_never_raised(path.read_text(encoding="utf-8") for path in MODULES) == []


def test_the_check_sees_an_exception_never_raised():
    source = (
        "class BaseError(Exception): pass\n"
        "class UnusedError(BaseError): pass\n"
        "class UsedError(BaseError): pass\n"
        "class Bare(ValueError): pass\n"
        "class Plain: pass\n"
        "def f():\n"
        "    raise BaseError('x')\n"
        "def g():\n"
        "    raise Bare from None\n"
        "def h():\n"
        "    raise UsedError()\n"
    )
    assert exceptions_never_raised([source]) == ["UnusedError"]
