"""Ratchet: no public library code that nothing outside tests/ reaches.

Every public top-level ``def``/``class`` in ``src/repro`` must be named
somewhere besides its own definition: elsewhere in its module, or in a
Python or shell file under src/repro (package ``__init__`` re-exports do
not count), servebench/, examples/, benchmarks/ or scripts/. A decorated
definition is exempt, since the decorator registers it (``@experiment``
runners, lint rules). A symbol only tests name is dead code with a test
attached; delete both rather than grow the exemption.
"""

import ast
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE = REPO_ROOT / "src" / "repro"
CALLER_ROOTS = ("servebench", "examples", "benchmarks", "scripts")


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


def _public_undecorated(source: str):
    for node in ast.parse(source).body:
        if (
            isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")
            and not node.decorator_list
        ):
            yield node.name


def unreached_symbols() -> list[str]:
    modules = _modules()
    callers = _caller_texts()
    offenders = []
    for path, source in modules.items():
        elsewhere = [text for other, text in modules.items() if other != path]
        elsewhere += callers
        for name in _public_undecorated(source):
            word = re.compile(rf"\b{re.escape(name)}\b")
            if len(word.findall(source)) > 1:
                continue
            if any(word.search(text) for text in elsewhere):
                continue
            offenders.append(f"{path.relative_to(PACKAGE)}:{name}")
    return offenders


def test_every_public_library_symbol_is_reached():
    offenders = unreached_symbols()
    assert not offenders, (
        "public symbols named only by their definition, package __init__ "
        "re-exports or tests -- delete them with their tests:\n  "
        + "\n  ".join(offenders)
    )
