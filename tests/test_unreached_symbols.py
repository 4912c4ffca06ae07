"""Ratchet: no public library code that nothing outside tests/ reaches.

Every public top-level ``def``/``class`` in ``src/repro``, and every
public method of a public class, must have a caller. A caller is either

- a code reference in a module of ``src/repro`` other than a package
  ``__init__``: an ``ast.Attribute`` spelling the symbol's name, or an
  import alias of it, and for a top-level symbol also an ``ast.Name``.
  A bare name never reaches a method: a local variable called
  ``scaled`` is not a call of ``EnergyLedger.scaled``. The symbol's own
  module counts. A string, a docstring, a comment or an ``__all__``
  entry does not, nor does a package ``__init__`` re-export; or
- a code reference in a Python file under servebench/, examples/ or
  scripts/: the same AST references, or a part of a dotted-identifier
  string constant (servebench's tracer names its targets as
  ``"SessionPool.acquire"``); a comment or other prose does not count;
  or
- the name as a whole word in a shell file under those roots.

A top-level definition whose decorator registers it by name is exempt
(``@experiment`` runners, ``@register`` lint rules); other decorators
(``@dataclass``, ``@runtime_checkable``) exempt nothing. Abstract
methods and methods that override a base-class method are exempt too
(the base class's caller reaches them, e.g.
``BlockingInAsyncRule.check``). Matching is by name: a reference to any
attribute called ``step`` reaches every ``step``. A symbol only tests name is dead code with a test attached;
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


REGISTERING_DECORATORS = ("experiment", "register")
DOTTED_IDENTIFIER = re.compile(r"[A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+")


def _code_references(
    tree: ast.Module, dotted_strings: bool = False
) -> tuple[set[str], set[str]]:
    """Bare ``ast.Name`` ids, and the names every other reference spells
    (attributes, import aliases and, if asked, dotted-string parts)."""
    names: set[str] = set()
    attributes: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, ast.alias):
            attributes.update(node.name.split("."))
        elif (
            dotted_strings
            and isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and DOTTED_IDENTIFIER.fullmatch(node.value)
        ):
            attributes.update(node.value.split("."))
    return names, attributes


def _caller_references(caller_roots) -> tuple[set[str], set[str], list[str]]:
    """Code references of the Python files, and the shell files' texts."""
    names: set[str] = set()
    attributes: set[str] = set()
    shell_texts = []
    for root in caller_roots:
        for path in sorted(Path(root).rglob("*")):
            if not path.is_file():
                continue
            if path.suffix == ".py":
                file_names, file_attributes = _code_references(
                    ast.parse(_read(path)), dotted_strings=True
                )
                names |= file_names
                attributes |= file_attributes
            elif path.suffix == ".sh":
                shell_texts.append(_read(path))
    return names, attributes, shell_texts


def _is_abstract(node: ast.AST) -> bool:
    return any(
        (isinstance(d, ast.Name) and d.id == "abstractmethod")
        or (isinstance(d, ast.Attribute) and d.attr == "abstractmethod")
        for d in node.decorator_list
    )


def _registers(node: ast.AST) -> bool:
    """Is a decorator of ``node`` one that registers it by name?"""
    targets = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return any(
        isinstance(target, ast.Name) and target.id in REGISTERING_DECORATORS
        for target in targets
    )


def _overrides(module: str, class_name: str, method: str) -> bool:
    cls = getattr(importlib.import_module(module), class_name)
    return any(method in vars(base) for base in cls.__mro__[1:])


def _public_unregistered(package: Path, path: Path, tree: ast.Module):
    """Yield (label, name, is_method) for each symbol to check."""
    parts = path.relative_to(package).with_suffix("").parts
    module = ".".join((package.name, *parts))
    for node in tree.body:
        is_def = isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        )
        if not is_def or node.name.startswith("_"):
            continue
        if not _registers(node):
            yield node.name, node.name, False
        if not isinstance(node, ast.ClassDef):
            continue
        for item in node.body:
            if (
                isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not item.name.startswith("_")
                and not _is_abstract(item)
                and not _overrides(module, node.name, item.name)
            ):
                yield f"{node.name}.{item.name}", item.name, True


def unreached_symbols(
    package: Path = PACKAGE, caller_roots=CALLER_ROOTS
) -> list[str]:
    modules = _modules(package)
    names, attributes, shell_texts = _caller_references(caller_roots)
    for tree in modules.values():
        tree_names, tree_attributes = _code_references(tree)
        names |= tree_names
        attributes |= tree_attributes
    offenders = []
    for path, tree in modules.items():
        for label, name, is_method in _public_unregistered(package, path, tree):
            if name in attributes or (not is_method and name in names):
                continue
            word = re.compile(rf"\b{re.escape(name)}\b")
            if any(word.search(text) for text in shell_texts):
                continue
            offenders.append(f"{path.relative_to(package)}:{label}")
    return offenders


def test_every_public_library_symbol_is_reached():
    offenders = unreached_symbols()
    assert not offenders, (
        "public symbols with no code reference in src/repro outside package "
        "__init__ files or in servebench/, examples/ or scripts/, and no "
        "mention in a shell file there -- delete them with their tests:\n  "
        + "\n  ".join(offenders)
    )


def test_only_code_references_reach_a_library_symbol(tmp_path, monkeypatch):
    package = tmp_path / "fixturepkg"
    package.mkdir()
    (package / "__init__.py").write_text(
        "from fixturepkg.lib import called, labelled, quoted\n"
        '__all__ = ["called", "labelled", "quoted"]\n'
    )
    lib = (
        '"""Helpers: labelled() is documented here, and nowhere used."""\n'
        "from dataclasses import dataclass\n"
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
        "\n"
        "def commented():\n"
        "    return 4\n"
        "\n"
        "def shelled():\n"
        "    return 5\n"
        "\n"
        "@dataclass\n"
        "class Record:\n"
        "    value: int = 0\n"
        "\n"
        "class Widget:\n"
        "    def shaded(self):\n"
        "        return 6\n"
    )
    (package / "lib.py").write_text(lib)
    (package / "user.py").write_text(
        "from fixturepkg import lib\n\n\n"
        "def _use():\n"
        "    shaded = lib.Widget()  # a local, not a reference to the method\n"
        "    return lib.called(), shaded\n"
    )
    scripts = tmp_path / "scripts"
    scripts.mkdir()
    (scripts / "drive.py").write_text(
        'TARGET = "fixturepkg.lib.quoted"\n'
        "# commented() is only named here, in a comment.\n"
        'NOTE = "run commented() by hand"\n'
    )
    (scripts / "drive.sh").write_text("python -c 'import fixturepkg; shelled'\n")
    # The old rule let ``labelled`` through: its name recurs in its module.
    assert len(re.findall(r"\blabelled\b", lib)) > 1

    monkeypatch.syspath_prepend(str(tmp_path))

    offenders = unreached_symbols(package, (scripts,))

    assert offenders == [
        "lib.py:labelled",
        "lib.py:commented",
        "lib.py:Record",
        "lib.py:Widget.shaded",
    ]
