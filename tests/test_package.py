"""Package surface: every exported name resolves, and scipy is a test
dependency only: neither importing the CLI nor running verify loads it."""

from __future__ import annotations

import importlib
import json
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


def _scipy_modules_after(code: str) -> str:
    """The scipy modules a child running code has loaded, as printed text."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lopstokes.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    env.pop("LOPSTOKES_OUT", None)
    out = subprocess.run(
        [sys.executable, "-c",
         f"import sys, lopstokes.cli; {code}; "
         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        capture_output=True, text=True, env=env, check=True, timeout=120)
    return out.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_scipy_out():
    assert _scipy_modules_after("pass") == "[]"


def test_verify_leaves_scipy_out(tmp_path):
    # the toy class grid keeps the run short; the energy cross-check runs
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"class_grid": {
        "lam_min": 1e-2, "lam_max": 1e4, "lam_per_decade": 2, "n_angles": 5,
        "a_min": 1e-2, "a_max": 1e3, "a_per_decade": 2}}))
    argv = ["verify", "--samples", "20", "--config", str(config),
            "--out", str(tmp_path / "out")]
    assert _scipy_modules_after(f"assert lopstokes.cli.main({argv!r}) == 0") == "[]"
    assert list((tmp_path / "out").glob("verify_*.json"))
