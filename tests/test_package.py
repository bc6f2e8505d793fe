"""Package surface: every exported name resolves, and the exports load
lazily (importing the package loads no submodule, `dir` lists every export);
each process loads only the layers it runs: the CLI with its config (the
benchmark's setup child) loads cli, config, errors and params alone and no
numpy, nor does the CLI answering --version, --help, a usage error (exit 2)
or a config or override error (exit 65); the
scans and kernel-decay load none of the resolvent and multiplier layers,
and kernel-decay none of the scan layers; neither they nor solve load
OpenSSL (_hashlib); scipy is a test dependency only
(neither importing the CLI nor running verify loads it), and importing the
CLI or the layers that use the process pool (lopatinski, multiplier) leaves
the process-pool modules out, which only a running pool loads."""

from __future__ import annotations

import ast
import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import lopstokes
from helpers import solve_inputs

MODULES = sorted(m.name for m in pkgutil.iter_modules(lopstokes.__path__))


@pytest.mark.parametrize("name", ["", *MODULES])
def test_exports_resolve(name):
    module = importlib.import_module(f"lopstokes.{name}" if name else "lopstokes")
    stale = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert stale == []


def _modules_after(code: str, packages=("scipy",), module="lopstokes.cli",
                   status=0) -> str:
    """The modules of packages a child that imports module and runs code has
    loaded when it exits, with status, as printed text."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(lopstokes.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run(
        [sys.executable, "-c",
         f"import atexit, sys, {module}; atexit.register(lambda: print(sorted("
         f"m for m in sys.modules if m.split('.')[0] in {packages!r}))); {code}"],
        capture_output=True, text=True, env=env, timeout=120)
    assert out.returncode == status, out.stderr
    return out.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_scipy_out():
    assert _modules_after("pass") == "[]"


def test_cli_import_leaves_the_process_pool_out():
    # the pool's modules load when a pool runs, not on import
    for module in ("lopstokes.cli", "lopstokes.lopatinski", "lopstokes.multiplier"):
        assert _modules_after("pass", ("multiprocessing", "concurrent"), module) == "[]"


def test_verify_leaves_scipy_out(tmp_path):
    # the toy class grid keeps the run short; the energy cross-check runs
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"class_grid": {
        "lam_min": 1e-2, "lam_max": 1e4, "lam_per_decade": 2, "n_angles": 5,
        "a_min": 1e-2, "a_max": 1e3, "a_per_decade": 2}}))
    argv = ["verify", "--samples", "20", "--config", str(config),
            "--out", str(tmp_path / "out")]
    assert _modules_after(f"assert lopstokes.cli.main({argv!r}) == 0") == "[]"
    assert list((tmp_path / "out").glob("verify_*.json"))


# the package's exports before they were loaded lazily
EXPORTS = {
    "__version__", "FluidParams", "Sector", "REFERENCE_PARAMS", "STRESS_PARAM_SETS",
    "char_roots_batch",
    "ScanReport", "asymptotic_report", "omega1", "omega2", "scan_lower_bound",
    "HeightCurve", "HeightScanReport", "SymbolKit", "height_curve", "height_scan",
    "omega3", "omega4_formula", "slope_limit",
    "FuzzReport", "Profile", "ProfileBatch", "assemble_batch", "fuzz_residuals",
    "inner_product",
    "Claim", "MultiplierClassReport", "certify_table", "declared_claims",
    "DecayReport", "PhysicalField", "PhysicalSolution", "kernel_decay_check",
    "solve_physical",
    "GridSpec", "RunConfig", "Tolerances", "default_config", "load_config",
    "LopStokesError", "NonPositiveParameter", "EqualDensities", "OutOfSector",
    "WrongSign", "SingularDetL", "NonPositiveOmega", "HeightNotInvertible",
    "NoCutoffFound", "ZeroModeData", "QuadratureFailure", "ConfigError", "WorkerLost",
}


def _layers_after(code: str, module="lopstokes.cli") -> set[str]:
    """The lopstokes submodules a child that imports module and runs code loads."""
    return _layers(ast.literal_eval(_modules_after(code, ("lopstokes",), module)))


def _layers(loaded) -> set[str]:
    return {m.split(".", 1)[1] for m in loaded if "." in m}


def test_exports_are_unchanged_and_listed():
    assert len(lopstokes.__all__) == len(EXPORTS) and set(lopstokes.__all__) == EXPORTS
    assert set(dir(lopstokes)) >= EXPORTS


def test_package_import_loads_no_submodule():
    assert _layers_after("pass", module="lopstokes") == set()


def test_setup_child_loads_only_the_config_layers(tmp_path):
    # what the benchmark times as setup: import the CLI, read a config
    config = tmp_path / "config.json"
    config.write_text("{}")
    code = f"from lopstokes.config import load_config; load_config({str(config)!r})"
    assert _layers_after(code) == {"cli", "config", "errors", "params"}
    assert _modules_after(code, ("numpy",)) == "[]"


@pytest.mark.parametrize("argv, status", [
    (["--version"], 0),
    (["--help"], 0),
    (["scan-height", "--no-such-flag", "--out", "{out}"], 2),
    (["scan-height", "--config", "{config}", "--out", "{out}"], 65),
    (["verify", "--samples", "0", "--out", "{out}"], 65),
], ids=["version", "help", "usage-error", "config-error", "override-error"])
def test_front_end_exits_without_numpy(tmp_path, argv, status):
    # parsing and validating the input needs no array layer: the first one,
    # and numpy with it, loads once the input is valid
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"grid": {"n_angles": 2}}))
    argv = [a.format(config=config, out=tmp_path / "out") for a in argv]
    code = f"sys.exit(lopstokes.cli.main({argv!r}))"
    assert _modules_after(code, ("numpy",), status=status) == "[]"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, absent", [
    ("scan-lopatinski", {"resolvent", "multiplier", "jet"}),
    ("scan-height", {"resolvent", "multiplier", "jet"}),
    ("kernel-decay", {"resolvent", "multiplier", "jet", "coefficients", "lopatinski"}),
    ("solve", {"multiplier", "jet"}),
])
def test_commands_load_only_their_layers(tmp_path, command, absent):
    # a coarse scan grid keeps the scans short; kernel-decay has no grid.
    # No command loads OpenSSL (_hashlib): the report tag takes the
    # interpreter's builtin sha256
    if command == "solve":
        argv = solve_inputs(tmp_path)
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"grid": {"lam_per_decade": 2, "n_angles": 5,
                                               "a_per_decade": 2}}))
        argv = [command, "--config", str(config), "--out", str(tmp_path / "out")]
    loaded = ast.literal_eval(_modules_after(f"assert lopstokes.cli.main({argv!r}) == 0",
                                             ("lopstokes", "_hashlib")))
    assert _layers(loaded) >= {"cli", "reports"} and not _layers(loaded) & absent
    assert "_hashlib" not in loaded
