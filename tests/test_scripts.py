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

from dnls import cli

SCRIPTS = sorted((Path(__file__).resolve().parent.parent / "scripts").glob("*.py"))


def test_scripts_are_found():
    assert SCRIPTS


@pytest.mark.parametrize("path", SCRIPTS, ids=[path.name for path in SCRIPTS])
def test_script_imports(path, monkeypatch):
    # a script may put a directory on sys.path; it is restored afterwards
    monkeypatch.setattr(sys, "path", list(sys.path))
    namespace = runpy.run_path(str(path), run_name="smoke")
    assert callable(namespace.get("main"))


def test_reference_runs_cover_every_experiment(monkeypatch):
    # the refactor oracle's byte-identity check reaches only the experiments
    # it runs, so a new experiment must join its reference configs
    monkeypatch.setattr(sys, "path", list(sys.path))
    path = SCRIPTS[0].parent / "reference_artifacts.py"
    runs = runpy.run_path(str(path), run_name="smoke")["REFERENCE_RUNS"]
    assert {experiment for _, experiment, _ in runs} == set(cli.RUNNERS)
