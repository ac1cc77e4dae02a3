"""Every script under scripts/ imports against the package as it stands.

Each script runs its work under a `__main__` guard, so running it under
another name only executes its imports and definitions: a script that
imports a name the package no longer has fails here, not when someone next
runs it.
"""

import runpy
import sys
from pathlib import Path

import pytest

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=[path.name for path in SCRIPTS])
def test_script_imports(path, monkeypatch):
    # a script may put a directory on sys.path; it is restored afterwards
    monkeypatch.setattr(sys, "path", list(sys.path))
    namespace = runpy.run_path(str(path), run_name="smoke")
    assert callable(namespace.get("main"))
