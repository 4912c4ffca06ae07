"""Ratchet: no public library code that nothing outside tests/ reaches.

Every public top-level ``def``/``class`` in ``src/repro``, and every
public method of a public class, must be named somewhere besides its own
definition: elsewhere in its module, or in a Python or shell file under
src/repro (package ``__init__`` re-exports do not count), servebench/,
examples/ or scripts/. A decorated top-level definition is exempt, since
the decorator registers it (``@experiment`` runners, lint rules). So are
abstract methods and methods that override a base-class method (the base
class's caller reaches them, e.g. ``BlockingInAsyncRule.check``).
A symbol only tests name is dead code with a test attached; delete both
rather than grow the exemption.
"""

import ast
import importlib
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE = REPO_ROOT / "src" / "repro"
CALLER_ROOTS = ("servebench", "examples", "scripts")


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _modules() -> dict[Path, str]:
    return {
        path: _read(path)
        for path in sorted(PACKAGE.rglob("*.py"))
        if path.name != "__init__.py"
    }


def _caller_texts() -> list[str]:
    texts = []
    for root in CALLER_ROOTS:
        for path in sorted((REPO_ROOT / root).rglob("*")):
            if path.is_file() and path.suffix in {".py", ".sh"}:
                texts.append(_read(path))
    return texts


def _is_abstract(node: ast.AST) -> bool:
    return any(
        (isinstance(d, ast.Name) and d.id == "abstractmethod")
        or (isinstance(d, ast.Attribute) and d.attr == "abstractmethod")
        for d in node.decorator_list
    )


def _overrides(module: str, class_name: str, method: str) -> bool:
    cls = getattr(importlib.import_module(module), class_name)
    return any(method in vars(base) for base in cls.__mro__[1:])


def _public_undecorated(path: Path, source: str):
    """Yield (label, name) for each top-level symbol and method to check."""
    module = "repro." + ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
    for node in ast.parse(source).body:
        is_def = isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        )
        if not is_def or node.name.startswith("_"):
            continue
        if not node.decorator_list:
            yield node.name, node.name
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if (
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not item.name.startswith("_")
                and not _is_abstract(item)
                and not _overrides(module, node.name, item.name)
            ):
                yield f"{node.name}.{item.name}", item.name


def unreached_symbols() -> list[str]:
    modules = _modules()
    callers = _caller_texts()
    offenders = []
    for path, source in modules.items():
        elsewhere = [text for other, text in modules.items() if other != path]
        elsewhere += callers
        for label, name in _public_undecorated(path, source):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if len(word.findall(source)) > 1:
                continue
            if any(word.search(text) for text in elsewhere):
                continue
            offenders.append(f"{path.relative_to(PACKAGE)}:{label}")
    return offenders


def test_every_public_library_symbol_is_reached():
    offenders = unreached_symbols()
    assert not offenders, (
        "public symbols named only by their definition, package __init__ "
        "re-exports or tests -- delete them with their tests:\n  "
        + "\n  ".join(offenders)
    )
