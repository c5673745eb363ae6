"""Every module-level import in the package and its tests is read or listed in
__all__, every exception class the package defines is raised in it, every
private helper it defines is read in it, and one method body in the scorer
package defines score_batch.

Static checks with the standard library's ast. A name bound by an import
at module level (``from __future__`` aside) must appear as a loaded name
somewhere in its module, or be listed in the module's ``__all__``. A class
that derives, directly or through other package classes, from a built-in
exception must be named by some ``raise`` statement in the package. A private
function or class, or a private module-level name (one leading underscore,
dunders aside), must be read somewhere in the package: as a loaded name,
an attribute, or an imported name. No module calls ``time.sleep``, so
every wait in the package is one that closing its scorer can end. Each
judge supplies only its ``_judge``, so a batch's code (its error, and
anything counted per batch) lives in Scorer.score_batch alone, and
``score`` is Scorer's alone, and no class in the package defines a
``_score_one`` hook beside ``_judge``. And importing
refrank.cli loads no third-party module but click.
"""

import ast
import builtins
import os
import subprocess
import sys
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


def test_the_cli_loads_no_module_outside_the_standard_library_but_click():
    # a fresh interpreter, so that modules earlier tests imported hide none
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import refrank.cli\n"
        "loaded = {name.partition('.')[0] for name in set(sys.modules) - before}\n"
        "print(*sorted(loaded - set(sys.stdlib_module_names)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, check=True,
    )
    assert done.stdout.split() == ["click", "refrank"]


def test_the_cli_loads_neither_http_client_nor_ssl():
    # the endpoint judge speaks HTTP on raw sockets, and loads ssl only to open an https connection
    script = (
        "import sys\n"
        "import refrank.cli\n"
        "print(*sorted({'http.client', 'ssl'} & set(sys.modules)))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)}, check=True,
    )
    assert done.stdout.split() == []


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


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _private_definitions(tree):
    """Private functions and classes at any depth, and private module-level names."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name
    for node in _module_level(tree.body):
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) else []
        )
        for target in targets:
            yield from (name.id for name in ast.walk(target) if isinstance(name, ast.Name))


def unread_private_names(sources) -> list[str]:
    """Private helpers the sources define that none of them reads."""
    defined: set[str] = set()
    read: set[str] = set()
    for source in sources:
        tree = ast.parse(source)
        defined.update(name for name in _private_definitions(tree) if _is_private(name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    return sorted(defined - read)


def test_every_private_helper_is_read():
    assert unread_private_names(path.read_text(encoding="utf-8") for path in MODULES) == []


def test_the_check_sees_a_private_helper_never_read():
    sources = [
        "_TABLE = {}\n"
        "_UNREAD, (_PAIR, public) = 1, (2, 3)\n"
        "class _Used: pass\n"
        "def _helper(): return _Used\n"
        "def _orphan(): pass\n"
        "def __dunder__(): pass\n"
        "class Public:\n"
        "    def _method(self): return self._attr\n"
        "    def _unused_method(self): pass\n",
        "from .one import _TABLE\n"
        "print(_helper(), Public()._method(), _PAIR)\n",
    ]
    assert unread_private_names(sources) == ["_UNREAD", "_orphan", "_unused_method"]


def sleep_calls(source: str) -> list[str]:
    """Lines that name ``time.sleep``, or import ``sleep`` from ``time``."""
    lines = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module == "time":
            lines.update(node.lineno for alias in node.names if alias.name == "sleep")
        elif (
            isinstance(node, ast.Attribute) and node.attr == "sleep"
            and isinstance(node.value, ast.Name) and node.value.id == "time"
        ):
            lines.add(node.lineno)
    return [f"line {line}" for line in sorted(lines)]


@pytest.mark.parametrize("path", MODULES, ids=lambda path: str(path.relative_to(PACKAGE)))
def test_no_module_calls_time_sleep(path):
    assert sleep_calls(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_a_sleep():
    source = (
        "import time\n"
        "from time import monotonic, sleep\n"
        "time.monotonic()\n"
        "def wait(event):\n"
        "    event.wait(1)\n"
        "    time.sleep(0.5)\n"
        "pause = time.sleep\n"
    )
    assert sleep_calls(source) == ["line 2", "line 6", "line 7"]


def method_bodies(sources, name: str) -> list[str]:
    """``Class.name`` for each method called ``name`` that the sources define."""
    return [
        f"{node.name}.{name}"
        for source in sources
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)) and item.name == name
    ]


def test_one_method_body_defines_score_batch():
    sources = (path.read_text(encoding="utf-8") for path in sorted((PACKAGE / "scorer").glob("*.py")))
    assert method_bodies(sources, "score_batch") == ["Scorer.score_batch"]


def test_the_check_sees_a_second_score_batch():
    sources = [
        "class Scorer:\n"
        "    def score_batch(self, requests): return self._judge(requests)\n",
        "class Alias(Scorer):\n"
        "    score_batch = Scorer.score_batch\n"
        "class Override(Scorer):\n"
        "    def score_batch(self, requests): return super().score_batch(requests)\n",
    ]
    assert method_bodies(sources, "score_batch") == ["Scorer.score_batch", "Override.score_batch"]


def test_score_is_the_base_batch_of_one_and_no_judge_supplies_score_one():
    # _judge is the one hook: score is Scorer's alone, and nothing in the
    # package defines _score_one
    sources = {path.relative_to(PACKAGE).as_posix(): path.read_text(encoding="utf-8") for path in MODULES}
    assert [name for name, source in sources.items() if "def score(" in source] == ["scorer/base.py"]
    assert method_bodies(sources.values(), "score") == ["Scorer.score"]
    assert method_bodies(sources.values(), "_score_one") == []


def test_the_check_sees_a_judge_that_supplies_score_one():
    sources = [
        "class Scorer:\n"
        "    def _score_one(self, request): raise NotImplementedError\n",
        "class Oracle(Scorer):\n"
        "    def _score_one(self, request): return {}, 0\n",
    ]
    assert method_bodies(sources, "_score_one") == ["Scorer._score_one", "Oracle._score_one"]
