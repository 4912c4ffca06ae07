"""Every servebench tracer target still names a callable in ``repro``.

The tracer raises at install when a target is gone, so a renamed layer
call would otherwise surface only in a traced benchmark run.  This
resolves each target the way ``Tracer.install`` does, without wrapping
anything.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]


def _targets() -> tuple:
    if str(REPO_ROOT) not in sys.path:
        sys.path.insert(0, str(REPO_ROOT))
    return importlib.import_module("servebench.tracer").TARGETS


TARGETS = _targets()


@pytest.mark.parametrize(
    "target", TARGETS, ids=[f"{t.span}:{t.path}" for t in TARGETS]
)
def test_target_resolves(target):
    owner = importlib.import_module(target.module)
    *owner_path, attr = target.path.split(".")
    for part in owner_path:
        owner = getattr(owner, part)
    assert callable(getattr(owner, attr))
    # Install patches the attribute where it is defined, not an inherited one.
    assert attr in vars(owner), f"{target.module}.{target.path} is inherited"
    for name in target.also:
        importlib.import_module(name)

