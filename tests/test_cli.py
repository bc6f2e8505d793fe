"""Command-level properties: each scan grid is evaluated once per command,
scan-lopatinski writes its pinned report bytes, malformed solve input or a
solve lambda outside the sector ends in exit 65, and so does a config key the
program no longer reads, a non-finite number, a malformed solve block or an
out-of-range --seed/--samples, and a grid, or a scan refinement, of more
points than MAX_GRID_POINTS; the energy suite reproduces its pinned quadrature
figure."""

from __future__ import annotations

import hashlib
import json
import math
import re
import sys
from types import SimpleNamespace

import numpy as np
import pytest

from lopstokes import cli, coefficients, lopatinski
from lopstokes.cli import main
from lopstokes.config import (
    MAX_GRID_POINTS,
    REFERENCE_PARAMS,
    GridSpec,
    Tolerances,
    default_config,
)
from lopstokes.reports import write_field
from lopstokes.transform import PhysicalField

EPS = math.pi / 4
GRID_POINTS = GridSpec().points(EPS)[0].size                 # 190,333
# the scan refinement: twice the density (241 magnitudes and A values over
# the same 12 decades) and 12 more angles
REFINED_POINTS = 241 * 25 * 241                              # 1,452,025

# the default scan grid with a coarse class grid, so verify stays quick
SMALL_CLASS = {"class_grid": {"lam_min": 1e-2, "lam_max": 1e4, "lam_per_decade": 2,
                              "n_angles": 5, "a_min": 1e-2, "a_max": 1e3,
                              "a_per_decade": 2}}


def _count_points(monkeypatch, fn):
    """Count the points passed to fn, through every lopstokes name bound to it."""
    seen = []

    def counted(fluid, lam, a):
        seen.append(np.size(lam))
        return fn(fluid, lam, a)

    for name, module in list(sys.modules.items()):
        if name == "lopstokes" or name.startswith("lopstokes."):
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, counted)
    return seen


@pytest.fixture
def config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CLASS))
    return ["--config", str(path), "--out", str(tmp_path / "out")]


@pytest.mark.parametrize("argv", [["scan-height"], ["verify", "--samples", "10"],
                                  ["verify-multipliers"]])
def test_height_grid_evaluated_once(monkeypatch, config, argv):
    height = _count_points(monkeypatch, coefficients.height_ratio)
    det = _count_points(monkeypatch, lopatinski.det_ratios)
    assert main([*argv, *config]) == 0
    assert sum(height) == GRID_POINTS
    assert det == []


def test_det_grids_evaluated_once(monkeypatch, config):
    det = _count_points(monkeypatch, lopatinski.det_ratios)
    height = _count_points(monkeypatch, coefficients.height_ratio)
    assert main(["scan-lopatinski", *config]) == 0
    assert sum(det) == GRID_POINTS + REFINED_POINTS
    assert height == []


def test_scan_report_bytes_pinned(tmp_path):
    # scan-lopatinski end to end on a 405-point grid: any drift in how the
    # scan is evaluated or its reports are formatted changes these digests
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"grid": {
        "lam_min": 1e-2, "lam_max": 1e2, "lam_per_decade": 2, "n_angles": 5,
        "a_min": 1e-2, "a_max": 1e2, "a_per_decade": 2}}))
    assert main(["scan-lopatinski", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    digests = {p.suffix: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (tmp_path / "out").glob("scan_*")}
    assert digests == {
        ".csv": "b7b31b3950330ae938c184d5021ccd1245dba60fc3aff47bcf2546a041f5d800",
        ".json": "336d1bbbb3b0df3bd3a070c91051032a6b7b32223f3dc64d01af77d127fc67b3",
    }


@pytest.fixture
def solve_argv(tmp_path):
    """An explicit-H solve on a 16-point grid: config plus two input fields."""
    box, shape = (64.0,), (16,)
    x = np.arange(16) * (2.0 * math.pi / 16)
    cfg = {"solve": {"lambda_re": 2.0, "lambda_im": 1.0, "mode": "explicit-H",
                     "x_levels": [0.0, 0.5], "box": list(box), "shape": list(shape)}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    bases = []
    for name, values in (("h1", np.sin(x)), ("H", 0.5 * np.cos(2.0 * x))):
        base = str(tmp_path / name)
        write_field(base, PhysicalField(box_lengths=box, grid_shape=shape, x_levels=(0.0,),
                                        samples=values[None, :]),
                    2.0 + 1.0j, REFERENCE_PARAMS, name)
        bases.append(base)
    return ["solve", "--config", str(path), "--out", str(tmp_path / "out"), *bases]


def test_solve_reads_its_fields(solve_argv):
    assert main(solve_argv) == 0


@pytest.mark.parametrize("lam,code", [
    (complex(-5.0, 0.1), 65),     # arg 3.12 beyond pi - epsilon = 2.36
    (0j, 65),
    (complex(-1.0, 1.05), 0),     # arg 2.33, just inside
], ids=["beyond-edge", "zero", "inside"])
def test_solve_lambda_must_lie_in_the_sector(capsys, tmp_path, solve_argv, lam, code):
    path = tmp_path / "config.json"
    cfg = json.loads(path.read_text())
    cfg["solve"].update(lambda_re=lam.real, lambda_im=lam.imag)
    path.write_text(json.dumps(cfg))
    assert main(solve_argv) == code
    written = list((tmp_path / "out").glob("solve_*"))
    if code:
        assert "outside sector" in capsys.readouterr().err
        assert written == []
    else:
        assert written


def _replace_line(path, lineno, edit):
    lines = path.read_text().splitlines()
    lines[lineno] = edit(lines[lineno])
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("suffix,edit,message", [
    (".csv", lambda p: _replace_line(p, 3, lambda s: "x" + s), "data row 3: invalid literal"),
    (".csv", lambda p: _replace_line(p, 4, lambda s: s + ",0.0"),
     "data row 4: expected 4 cells, got 5"),
    (".csv", lambda p: _replace_line(p, 0, lambda s: s + ",extra"), "expected 4 columns"),
    (".csv", lambda p: _replace_line(p, 5, lambda s: "1" + s[1:]), r"data row 5: level 1 outside \[0, 1\)"),
    (".csv", lambda p: _replace_line(p, 6, lambda s: "0,-3" + s[s.index(",", 2):]),
     r"data row 6: index 0 -3 outside \[0, 16\)"),
    (".json", lambda p: p.write_text(json.dumps(
        {k: v for k, v in json.loads(p.read_text()).items() if k != "shape"})),
     "missing key 'shape'"),
    (".json", lambda p: p.write_text("{"), "Expecting property name"),
], ids=["bad-cell", "row-columns", "header-columns", "level-range", "index-range",
        "missing-key", "bad-json"])
def test_malformed_solve_input_exits_65(capsys, tmp_path, solve_argv, suffix, edit, message):
    edit(tmp_path / f"h1{suffix}")
    assert main(solve_argv) == 65
    err = capsys.readouterr().err
    assert f"h1{suffix}" in err
    assert re.search(message, err), err


def test_removed_sector_key_exits_65(capsys, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"sector": {"epsilon": EPS, "lambda_floor": 2.5}}))
    assert main(["scan-height", "--config", str(path), "--out", str(tmp_path / "out")]) == 65
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "config.sector" in err and "lambda_floor" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,doc", [
    ("verify", {"seed": math.nan}),
    ("verify", {"samples": math.inf}),
    ("scan-lopatinski", {"grid": {"lam_max": math.inf}}),
    ("scan-height", {"grid": {"n_angles": math.nan}}),
    ("verify-multipliers", {"class_grid": {"a_max": math.inf}}),
], ids=["seed-nan", "samples-inf", "lam_max-inf", "n_angles-nan", "class-a_max-inf"])
def test_non_finite_config_exits_65(capsys, tmp_path, command, doc):
    # json.dumps writes the NaN and Infinity literals that json.loads accepts
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main([command, "--config", str(path), "--out", str(tmp_path / "out")]) == 65
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "expected a finite number" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc", [
    {"grid": {"n_angles": 1e300}},
    {"grid": {"lam_per_decade": 1e12}},
    {"class_grid": {"a_per_decade": 1e6}},
], ids=["n_angles-1e300", "lam_per_decade-1e12", "class_grid-a_per_decade-1e6"])
def test_huge_grid_exits_65(capsys, tmp_path, doc):
    # counted, not laid out: no grid is allocated
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["scan-height", "--config", str(path), "--out", str(tmp_path / "out")]) == 65
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"above the limit of {MAX_GRID_POINTS:,}" in err
    assert f"config.{next(iter(doc))}: grid has 10^" in err
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_scan_refinement_beyond_the_bound_exits_65(capsys, tmp_path):
    # 361 x 13 x 361 points are admitted; the scan's 721 x 25 x 721 are not
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"grid": {"lam_per_decade": 30, "a_per_decade": 30}}))
    assert main(["scan-lopatinski", "--config", str(path),
                 "--out", str(tmp_path / "out")]) == 65
    err = capsys.readouterr().err
    assert err.startswith("error: scan refinement") and "above the limit" in err


@pytest.mark.parametrize("flag,message", [
    (["--seed", "-1"], "seed must fit in an unsigned 64-bit value, got -1"),
    (["--seed", str(2**64)], "seed must fit in an unsigned 64-bit value"),
    (["--samples", "0"], "samples must be >= 1, got 0"),
], ids=["seed-negative", "seed-2**64", "samples-0"])
def test_bad_override_exits_65(capsys, tmp_path, flag, message):
    assert main(["verify", *flag, "--out", str(tmp_path / "out")]) == 65
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key,value,message", [
    ("lambda_re", "x", "config.solve.lambda_re: expected a number"),
    ("box", 12, "config.solve.box: expected a list"),
    ("data", 5, "config.solve.data: expected a list"),
    ("lambda_im", None, "config.solve.lambda_im: expected a number"),
    ("x_levels", [-0.5], "config.solve.x_levels[0]: expected a number >= 0"),
], ids=["lambda_re-str", "box-scalar", "data-scalar", "lambda_im-null", "x_levels-negative"])
def test_malformed_solve_config_exits_65(capsys, tmp_path, solve_argv, key, value, message):
    path = tmp_path / "config.json"
    cfg = json.loads(path.read_text())
    cfg["solve"][key] = value
    path.write_text(json.dumps(cfg))
    assert main(solve_argv) == 65
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "out").exists()


def test_energy_suite_pinned():
    # the figure verify writes for the default probes; fuzz supplies only
    # the closed-form worst, absent here
    cfg = default_config()
    doc = cli._energy_suite(cfg, Tolerances(), SimpleNamespace(worst={}))
    assert doc["quadrature_cross_worst"] == 5.621283425259092e-16
    assert doc["passed"]
