"""Every attribute the benchmark's traced run hooks still exists in the library.

``bench/tracer.py`` (standard library only) wraps functions it names by
dotted path and skips, as ``missing_hooks``, any it cannot find.  This test
resolves each of its span and count targets the way the tracer does, through
``vars(owner)``, so deleting a traced member fails here and not only in the
benchmark's own suite.
"""

import importlib
import runpy
from pathlib import Path

import pytest

TRACER = runpy.run_path(str(Path(__file__).resolve().parents[1] / "bench" / "tracer.py"))
TARGETS = [(mod, path) for _, mod, path in TRACER["SPANS"]] + [
    (mod, path) for _, mod, path, _ in TRACER["COUNTS"]
]


@pytest.mark.parametrize("mod, path", TARGETS, ids=[f"{m}.{p}" for m, p in TARGETS])
def test_hook_target_resolves(mod, path):
    owner = importlib.import_module(f"pseudoquant.{mod}")
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    assert attr in vars(owner)
