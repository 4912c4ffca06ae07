"""Ratchet: no public library code that nothing outside tests/ reaches.

Every public top-level ``def``/``class`` in ``src/repro``, and every
public method of a public class, must have a caller. A caller is either

- a code reference in a module of ``src/repro`` other than a package
  ``__init__``: an ``ast.Name`` or ``ast.Attribute`` spelling the
  symbol's name, or an import alias of it. The symbol's own module
  counts. A string, a docstring, a comment or an ``__all__`` entry does
  not, nor does a package ``__init__`` re-export; or
- the name as a whole word anywhere in a Python or shell file under
  servebench/, examples/ or scripts/ (servebench's tracer names its
  targets in strings).

A decorated top-level definition is exempt, since the decorator
registers it (``@experiment`` runners, lint rules). So are abstract
methods and methods that override a base-class method (the base class's
caller reaches them, e.g. ``BlockingInAsyncRule.check``). Matching is by
name: a reference to any attribute called ``step`` reaches every
``step``. A symbol only tests name is dead code with a test attached;
delete both rather than grow the exemption.
"""

import ast
import importlib
import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE = REPO_ROOT / "src" / "repro"
CALLER_ROOTS = tuple(
    REPO_ROOT / root for root in ("servebench", "examples", "scripts")
)


def _read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


def _modules(package: Path) -> dict[Path, ast.Module]:
    return {
        path: ast.parse(_read(path))
        for path in sorted(package.rglob("*.py"))
        if path.name != "__init__.py"
    }


def _code_references(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
    return names


def _caller_texts(caller_roots) -> list[str]:
    texts = []
    for root in caller_roots:
        for path in sorted(Path(root).rglob("*")):
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


def _public_undecorated(package: Path, path: Path, tree: ast.Module):
    """Yield (label, name) for each top-level symbol and method to check."""
    parts = path.relative_to(package).with_suffix("").parts
    module = ".".join((package.name, *parts))
    for node in tree.body:
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


def unreached_symbols(
    package: Path = PACKAGE, caller_roots=CALLER_ROOTS
) -> list[str]:
    modules = _modules(package)
    referenced = set()
    for tree in modules.values():
        referenced |= _code_references(tree)
    callers = _caller_texts(caller_roots)
    offenders = []
    for path, tree in modules.items():
        for label, name in _public_undecorated(package, path, tree):
            if name in referenced:
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            if any(word.search(text) for text in callers):
                continue
            offenders.append(f"{path.relative_to(package)}:{label}")
    return offenders


def test_every_public_library_symbol_is_reached():
    offenders = unreached_symbols()
    assert not offenders, (
        "public symbols with no code reference in src/repro outside package "
        "__init__ files, and no mention in servebench/, examples/ or "
        "scripts/ -- delete them with their tests:\n  "
        + "\n  ".join(offenders)
    )


def test_only_code_references_reach_a_library_symbol(tmp_path):
    package = tmp_path / "fixturepkg"
    package.mkdir()
    (package / "__init__.py").write_text(
        "from fixturepkg.lib import called, labelled, quoted\n"
        '__all__ = ["called", "labelled", "quoted"]\n'
    )
    lib = (
        '"""Helpers: labelled() is documented here, and nowhere used."""\n'
        '__all__ = ["called", "labelled", "quoted"]\n'
        "\n"
        "def called():\n"
        "    return 1\n"
        "\n"
        "def labelled():\n"
        '    """labelled: named in __all__, this docstring and a comment."""\n'
        "    return 2  # labelled\n"
        "\n"
        "def quoted():\n"
        "    return 3\n"
    )
    (package / "lib.py").write_text(lib)
    (package / "user.py").write_text(
        "from fixturepkg import lib\n\n\ndef _use():\n    return lib.called()\n"
    )
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    (scripts / "drive.py").write_text('TARGET = "fixturepkg.lib.quoted"\n')
    # The old rule let ``labelled`` through: its name recurs in its module.
    assert len(re.findall(r"\blabelled\b", lib)) > 1

    offenders = unreached_symbols(package, (scripts,))

    assert offenders == ["lib.py:labelled"]
