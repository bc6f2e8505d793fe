"""Package surface: every exported name resolves, and importing the CLI
stays light (scipy is loaded only by the code paths that integrate)."""

from __future__ import annotations

import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import lopstokes

MODULES = sorted(m.name for m in pkgutil.iter_modules(lopstokes.__path__))


@pytest.mark.parametrize("name", ["", *MODULES])
def test_exports_resolve(name):
    module = importlib.import_module(f"lopstokes.{name}" if name else "lopstokes")
    stale = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert stale == []


def test_cli_import_leaves_scipy_out():
    src = os.path.dirname(os.path.dirname(os.path.abspath(lopstokes.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-c",
         "import sys, lopstokes.cli; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env, check=True, timeout=120)
    assert out.stdout.strip() == "[]"
