"""Command-level properties: each scan grid is evaluated once per command,
scan-lopatinski, verify-multipliers and solve write their pinned report
bytes, solve exits 1 on a residual above its limit or a NaN one, malformed
solve input, a field of three tangential axes, a field not at the one level
x_N = 0 or a solve lambda outside the sector ends in exit 65, and so does a
config file that is not UTF-8, a config key the program no longer reads, a
fluid or sector value out of range (named with its file and key path), a
non-finite number, a malformed solve block or an out-of-range
--seed/--samples, a non-finite value in a solve field file, and a grid of
more points than MAX_GRID_POINTS; a kinematic solve below the height cutoff
prints its advisory, read off only the height magnitudes from the one at or
below |lambda| up, as the whole grid would give it; the energy suite
reproduces its pinned quadrature figure, and an error in an energy probe
fails that suite alone;
verify-multipliers names the domain each claim was judged on and writes
strict JSON when a drift is NaN or infinite; verify, which runs its fuzz on
the class table's pool, writes its pinned bytes with one worker or two,
keeps the exit code of an error raised in the fuzz worker, exits 71 when
that worker dies, still writes the fuzz suite when the quotient cutoff is
not found, and fails the fuzz (exit bit 1) when too few samples leave a
residual category unmeasured; scan-lopatinski, whose tasks run on the same
pool, writes the same bytes with one worker or two and any task or block
size, tasks that split a magnitude included, evaluates each task in one
call, names the grid-order first nonfinite or least point whichever task
finishes first, exits 71 when a scan worker dies, and leaves --out as it
was when it fails; every command but solve writes the default config's
pinned bytes with class chunks of 20,000 and scan tasks of 50,000 points;
every error class ends in its exit code and hint."""

from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import multiprocessing
import os
import re
import sys
import time
from types import SimpleNamespace

import numpy as np
import pytest

from helpers import mutated, solve_inputs
from lopstokes import (cli, coefficients, errors, lopatinski, multiplier, pool, reports,
                       resolvent)
from lopstokes.cli import main
from lopstokes.config import (
    MAX_GRID_POINTS,
    REFERENCE_PARAMS,
    GridSpec,
    Tolerances,
    default_config,
)
from lopstokes.errors import SingularDetL
from lopstokes.multiplier import Claim
from lopstokes.reports import write_field
from lopstokes.transform import PhysicalField

EPS = math.pi / 4
GRID_POINTS = GridSpec().points(EPS)[0].size                 # 190,333

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
    # in this process, where the counts are seen: pool workers count their own
    monkeypatch.setattr(pool, "_workers", lambda: 1)
    det = _count_points(monkeypatch, lopatinski.det_ratios)
    height = _count_points(monkeypatch, coefficients.height_ratio)
    assert main(["scan-lopatinski", *config]) == 0
    assert sum(det) == GRID_POINTS == 190_333
    assert height == []


def test_multiplier_report_names_each_domain(config, tmp_path):
    assert main(["verify-multipliers", *config]) == 0
    (path,) = (tmp_path / "out").glob("multipliers_*.json")
    claims = json.loads(path.read_text())["claims"]
    # the (lambda + K)-quotients, floored at the cutoff, keep the 3-D grid;
    # the 32 homogeneous claims run on the orbit images
    assert ({c["name"] for c in claims if c["domain"] == "grid"}
            == {c["name"] for c in claims if c["lam_floor"] > 0.0})
    assert sum(c["domain"] == "orbit" for c in claims) == 32


# a 405-point scan grid: 9 magnitudes of 5 angles and 9 A values
SCAN_GRID = GridSpec(lam_min=1e-2, lam_max=1e2, lam_per_decade=2, n_angles=5,
                     a_min=1e-2, a_max=1e2, a_per_decade=2)
SCAN_DIGESTS = {
    ".csv": "b7b31b3950330ae938c184d5021ccd1245dba60fc3aff47bcf2546a041f5d800",
    ".json": "3f54e85d1d93569c5d98d59f72a7141332698fdea7ff9a87a192f85e6cb2a64e",
}


def _scan(tmp_path, out) -> int:
    """scan-lopatinski on SCAN_GRID into out."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"grid": dataclasses.asdict(SCAN_GRID)}))
    return main(["scan-lopatinski", "--config", str(path), "--out", str(out)])


def _digests(out) -> dict:
    return {p.suffix: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}


def test_scan_report_bytes_pinned(tmp_path):
    # scan-lopatinski end to end on a 405-point grid: any drift in how the
    # scan is evaluated or its reports are formatted changes these digests
    assert _scan(tmp_path, tmp_path / "out") == 0
    assert _digests(tmp_path / "out") == SCAN_DIGESTS


@pytest.fixture
def solve_argv(tmp_path):
    return solve_inputs(tmp_path)


def test_solve_reads_its_fields(solve_argv):
    assert main(solve_argv) == 0


def _solve_digests(tmp_path) -> dict:
    """sha256 of each solve output, keyed by its name after solve_<tag>_."""
    return {p.name.split("_", 2)[2]: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in (tmp_path / "out").glob("solve_*")}


SOLVE_DIGESTS = {
    "height.csv": "08b8934de6df9d3db0eaa01f363ff7bb986c0f48219b677981d0267b1cba412d",
    "height.json": "61328ca0cd4c1b9ab09f76739030f37c6443820e0c3d0c9b64d6a41a3e3d9bf9",
    "pressure.csv": "7e7d743a7de53ca7b843bbcecb1ebbd4731057a0ce8d74e0f723e764f34f17cc",
    "pressure.json": "cc4ac0942da7e01387771834fd9726fa7a782b42980300e2c8990fa581f15efe",
    "residuals.csv": "a445cdfbc55202b2a726d9c92328b45736c6aa4a11292d46de32a683f3f710e6",
    "u_minus_1.csv": "b7ad547ed0e71741da11b12d28426d29904524a579620fdb44badc0d3798a2d2",
    "u_minus_1.json": "53345a35cfae22e59dbf8d28aa0baafa604cf70d3c6f40a66aa14e5123f43de5",
    "u_minus_2.csv": "649ade97a0992425a4977fb2b290ff337d7755d2554d19207af3079db9dc0997",
    "u_minus_2.json": "1fb366c0d41d831c8daff292d2d7b50bac91e81526aa6a8ad1d52dcf22285a11",
    "u_plus_1.csv": "1177e222b0d532c06ff02a684192ea4c16ef09cafa18605be215b5f9e3a460f9",
    "u_plus_1.json": "6cacf03dfb864c405111357dfff2e7598efbb0cae65e3cfc60e92463ce920e90",
    "u_plus_2.csv": "340dcbe59cc1149fd7fe52b45cab29529081499e6752187627722f78e37758f1",
    "u_plus_2.json": "e2326a8f619216094cdc867e0f2be4b58f8d050b1981bf338455293c76523223",
}


def test_solve_report_bytes_pinned(capsys, tmp_path, solve_argv):
    # any drift in how the modes are solved, inverted or written changes these
    assert main(solve_argv) == 0
    assert _solve_digests(tmp_path) == SOLVE_DIGESTS
    assert capsys.readouterr().out.rstrip().endswith("-> PASS")


def test_solve_fails_above_its_residual_limit(capsys, tmp_path, solve_argv):
    # worst ODE residual 1.757e-14 against a limit of 1e-10 * 1e-6; the
    # outputs are written before the verdict, and they do not change
    assert main([*solve_argv, "--tolerance-scale", "1e-6"]) == 1
    out = capsys.readouterr().out
    assert "worst ODE residual 1.757e-14" in out and out.rstrip().endswith("-> FAIL")
    assert set(_solve_digests(tmp_path)) == set(SOLVE_DIGESTS)


def test_solve_fails_on_nan_residual(capsys, tmp_path, solve_argv):
    with mutated("gamma_minus", math.nan):
        assert main(solve_argv) == 1
    assert "worst ODE residual nan" in capsys.readouterr().out
    assert set(_solve_digests(tmp_path)) == set(SOLVE_DIGESTS)


def test_three_tangential_axes_exit_65(capsys, tmp_path):
    # a 16x16x16 field in hand-written 6-column form: the header alone is refused
    shape, box = [16, 16, 16], [8.0, 8.0, 8.0]
    bases = []
    for name in ("h1", "h2", "h3", "d"):
        base = tmp_path / name
        base.with_suffix(".json").write_text(json.dumps(
            {"name": name, "box": box, "shape": shape, "x_levels": [0.0]}))
        base.with_suffix(".csv").write_text("level,i,j,k,re,im\n0,0,0,1,1.0,0.0\n")
        bases.append(str(base))
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"solve": {"lambda_re": 2.0, "mode": "kinematic",
                                          "x_levels": [0.0], "box": box, "shape": shape}}))
    assert main(["solve", "--config", str(path), "--out", str(tmp_path / "out"), *bases]) == 65
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "h1.json" in err
    assert "at most two tangential axes" in err
    assert not list((tmp_path / "out").glob("solve_*"))


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


def _set_header(key, value):
    def edit(path):
        header = json.loads(path.read_text())
        header[key] = value
        path.write_text(json.dumps(header))
    return edit


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
    (".json", _set_header("shape", [16.9]), r"h1\.json: shape\[0\]: expected an integer, got 16\.9"),
    (".json", _set_header("shape", ["16"]), r"h1\.json: shape\[0\]: expected a number, got '16'"),
    (".json", _set_header("x_levels", ["0"]), r"h1\.json: x_levels\[0\]: expected a number"),
    (".json", _set_header("x_levels", [math.nan]),
     r"h1\.json: x_levels\[0\]: expected a finite number, got nan"),
    (".json", _set_header("box", [True]), r"h1\.json: box\[0\]: expected a number, got True"),
    (".csv", lambda p: p.write_text(p.read_text() + "0,3,99.0,0.0\n"),
     r"h1\.csv: data row 17: same level/index 0 as data row 4"),
    (".json", lambda p: p.write_text("[" * 100_000), r"h1\.json: JSON nested too deeply"),
], ids=["bad-cell", "row-columns", "header-columns", "level-range", "index-range",
        "missing-key", "bad-json", "shape-fraction", "shape-string", "level-string",
        "level-nan", "box-bool", "repeated-index", "deep-json"])
def test_malformed_solve_input_exits_65(capsys, tmp_path, solve_argv, suffix, edit, message):
    edit(tmp_path / f"h1{suffix}")
    assert main(solve_argv) == 65
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"h1{suffix}" in err
    assert re.search(message, err), err


@pytest.mark.parametrize("cells", [("nan", "0.0"), ("1.0", "-inf"), ("1e400", "0.0")],
                         ids=["re-nan", "im-inf", "re-overflow"])
def test_non_finite_field_value_exits_65(capsys, tmp_path, solve_argv, cells):
    _replace_line(tmp_path / "h1.csv", 3, lambda s: ",".join([*s.split(",")[:2], *cells]))
    assert main(solve_argv) == 65
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "h1.csv: data row 3: non-finite value" in err
    assert not list((tmp_path / "out").glob("solve_*"))


def test_removed_sector_key_exits_65(capsys, tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"sector": {"epsilon": EPS, "lambda_floor": 2.5}}))
    assert main(["scan-height", "--config", str(path), "--out", str(tmp_path / "out")]) == 65
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "config.sector" in err and "lambda_floor" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("doc,message", [
    ({"sector": {"epsilon": 0}}, "config.sector: sector epsilon must lie in (0, pi/2], got 0.0"),
    ({"fluid": {"mu_plus": -1}}, "config.fluid: mu_plus must be positive and finite, got -1.0"),
], ids=["sector-epsilon", "fluid-mu_plus"])
def test_record_error_names_its_file_and_key_exits_65(capsys, tmp_path, doc, message):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    assert main(["scan-height", "--config", str(path), "--out", str(tmp_path / "out")]) == 65
    assert capsys.readouterr().err == f"error: {path}: {message}\n"
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


def test_non_utf8_config_exits_65(capsys, tmp_path):
    path = tmp_path / "config.json"
    path.write_bytes(b"\xff\xfe{}")
    assert main(["scan-height", "--config", str(path), "--out", str(tmp_path / "out")]) == 65
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: 'utf-8' codec can't decode byte 0xff")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_deeply_nested_config_exits_65(capsys, tmp_path):
    path = tmp_path / "config.json"
    path.write_text("[" * 100_000)
    assert main(["scan-height", "--config", str(path), "--out", str(tmp_path / "out")]) == 65
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: JSON nested too deeply")
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
    # the closed-form worst, 0 here
    cfg = default_config()
    fuzz = SimpleNamespace(unsampled=[], worst={"energy": {"value": 0.0}})
    doc = cli._energy_suite(cfg, Tolerances(), fuzz)
    assert doc["quadrature_cross_worst"] == 5.621283425259092e-16
    assert doc["passed"]


def test_energy_suite_fails_on_the_fuzz_placeholder():
    # every energy residual is NaN, so the fuzz's energy worst is still its
    # placeholder -1.0: the suite fails instead of reading it as a defect
    cfg = dataclasses.replace(default_config(), samples=40)
    with mutated("gamma_minus", math.nan), np.errstate(invalid="ignore", divide="ignore"):
        fuzz = resolvent.fuzz_residuals(cfg.fluid, cfg.sector, cfg.samples, cfg.seed)
    assert fuzz.nan_residuals["energy"]["count"] == 40 and "energy" in fuzz.unsampled
    assert cli._energy_suite(cfg, Tolerances(), fuzz) == {
        "passed": False, "error": "no fuzz sample measured an energy residual"}


def _strict(text: str):
    """text parsed as strict JSON: no NaN or Infinity literals."""
    def reject(literal):
        raise ValueError(f"non-standard JSON literal {literal}")
    return json.loads(text, parse_constant=reject)


def test_multiplier_report_is_strict_json(monkeypatch, config, tmp_path):
    # a NaN symbol has NaN drifts; one that is zero up to |lambda| = 2e4 has
    # every constant 0.0 on the base class grid (|lambda| <= 1e4) and not on
    # the refined one, so every drift is infinite
    def claims(lam0):
        return [Claim("nan", 1.0, 1, lambda kit, i1: kit.l11p * math.nan),
                Claim("late", 1.0, 1, lambda kit, i1: kit.l11p * (abs(kit.lam.x[0]) > 2e4)),
                Claim("L11+", 1.0, 1, lambda kit, i1: kit.l11p)]

    monkeypatch.setattr(multiplier, "declared_claims", claims)
    assert main(["verify-multipliers", *config]) == 2
    (path,) = (tmp_path / "out").glob("multipliers_*.json")
    drifts = {c["name"]: c["max_drift"] for c in _strict(path.read_text())["claims"]}
    assert drifts["nan"] == "nan" and drifts["late"] == "inf"
    assert 1.0 <= drifts["L11+"] < Tolerances().class_drift


needs_fork = pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                                reason="the pool forks its workers")


def _in_worker(parent: int) -> bool:
    return os.getpid() != parent


@needs_fork
def test_verify_bytes_do_not_depend_on_the_worker_count(monkeypatch, tmp_path):
    # one worker runs the fuzz, the class table and the rest in this
    # process; two run the fuzz on one pool worker alongside the table.  Any
    # drift in the fuzz, multiplier, height or energy suite changes these
    # digests
    path = tmp_path / "config.json"
    path.write_text(json.dumps(SMALL_CLASS))
    for workers in (1, 2):
        monkeypatch.setattr(pool, "_workers", lambda: workers)
        out = tmp_path / f"out{workers}"
        assert main(["verify", "--samples", "200", "--config", str(path),
                     "--out", str(out)]) == 0
        digests = {p.name.split("_")[0]: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in out.iterdir()}
        assert digests == {
            "class": "6b95d16c45d432eb7eeb4853cddcd8b47ecd0137033181cc5488d5af256c8cef",
            "verify": "a9af6f01caa3b4787e9da947fb97552308644253923b588d4d3ecf04b5efb26c",
        }, workers
    assert multiprocessing.active_children() == []


@needs_fork
def test_fuzz_error_in_a_worker_keeps_its_exit_code(monkeypatch, config, capsys):
    monkeypatch.setattr(pool, "_workers", lambda: 2)
    parent = os.getpid()

    def fuzz(*args, **kwargs):
        raise SingularDetL(f"raised in {'a worker' if _in_worker(parent) else 'the caller'}")

    monkeypatch.setattr(resolvent, "fuzz_residuals", fuzz)
    assert main(["verify", *config]) == 65
    assert "error: raised in a worker" in capsys.readouterr().err
    assert multiprocessing.active_children() == []


@needs_fork
def test_lost_fuzz_worker_exits_71(monkeypatch, config, capsys):
    monkeypatch.setattr(pool, "_workers", lambda: 2)
    parent = os.getpid()

    def fuzz(*args, **kwargs):
        assert _in_worker(parent)
        os._exit(1)

    monkeypatch.setattr(resolvent, "fuzz_residuals", fuzz)
    assert main(["verify", *config]) == 71
    err = capsys.readouterr().err
    assert err.startswith("error: a pool worker process died"), err
    assert "Traceback" not in err
    assert multiprocessing.active_children() == []


@needs_fork
def test_scan_bytes_do_not_depend_on_workers_or_tasks(monkeypatch, tmp_path):
    # tasks of two magnitudes (90 points), formatted in CSV blocks of 64
    # rows, in this process or on two workers
    monkeypatch.setattr(lopatinski, "_TASK_POINTS", 90)
    monkeypatch.setattr(reports, "_CSV_BLOCK", 64)
    det = _count_points(monkeypatch, lopatinski.det_ratios)
    for workers in (1, 2):
        monkeypatch.setattr(pool, "_workers", lambda: workers)
        assert _scan(tmp_path, tmp_path / f"out{workers}") == 0
        assert _digests(tmp_path / f"out{workers}") == SCAN_DIGESTS
        # five tasks of one call each, counted in this process only
        assert det == [90] * 4 + [45]
    assert multiprocessing.active_children() == []


def _poisoned(value):
    """det_ratios with the ratio at scan points 200 and 50 of SCAN_GRID set
    to value, taking 0.2 s longer on the call that holds point 50."""
    lam, a = SCAN_GRID.points(EPS)
    clean = lopatinski.det_ratios

    def poisoned(fluid, lam_c, a_c):
        absdet, ratio = clean(fluid, lam_c, a_c)
        for k in (200, 50):
            ratio[(lam_c == lam[k]) & (a_c == a[k])] = value
        if ((lam_c == lam[50]) & (a_c == a[50])).any():
            time.sleep(0.2)
        return absdet, ratio

    return poisoned


def _first_point_error(value) -> str:
    """The error scan-lopatinski prints for _poisoned(value): point 50 is named."""
    lam, a = SCAN_GRID.points(EPS)
    if value != 0.0:
        return f"error: nonfinite |det L| ratio at lam={lam[50]!r}, A={a[50]!r}\n"
    return f"error: scan infimum 0.0 at lam={complex(lam[50])!r}, A={float(a[50])!r}\n"


@needs_fork
@pytest.mark.parametrize("workers", [1, 2])
def test_scan_tasks_may_split_magnitudes(monkeypatch, capsys, tmp_path, workers):
    # tasks of 37 points against magnitudes of 45, so most tasks split one:
    # one det_ratios call per task, the pinned bytes, and the grid-order first
    # nonfinite or tied point named, though points 50 and 200 lie in split
    # magnitudes (the second and the fifth) and the task holding 50 finishes
    # last
    monkeypatch.setattr(lopatinski, "_TASK_POINTS", 37)
    monkeypatch.setattr(pool, "_workers", lambda: workers)
    log = tmp_path / "calls"
    clean = lopatinski.det_ratios

    def logged(fluid, lam, a):
        with open(log, "a") as fh:
            fh.write(f"{lam.size}\n")
        return clean(fluid, lam, a)

    monkeypatch.setattr(lopatinski, "det_ratios", logged)
    assert _scan(tmp_path, tmp_path / "out") == 0
    assert _digests(tmp_path / "out") == SCAN_DIGESTS
    assert sorted(map(int, log.read_text().split())) == sorted([37] * 10 + [35])
    capsys.readouterr()
    for value in (math.nan, 0.0):
        monkeypatch.setattr(lopatinski, "det_ratios", _poisoned(value))
        assert _scan(tmp_path, tmp_path / "failed") == 1
        assert capsys.readouterr().err == _first_point_error(value)
    assert multiprocessing.active_children() == []


def _failed_scans(monkeypatch, capsys, tmp_path, det_ratios) -> list:
    """(exit code, stderr) of scan-lopatinski on SCAN_GRID, one task per
    magnitude on two workers and det_ratios patched, run into a new --out
    and into one holding an older run's reports of the same name: both must
    be left as they were."""
    old = tmp_path / "old"
    assert _scan(tmp_path, old) == 0
    before = {p.name: p.read_bytes() for p in old.iterdir()}
    capsys.readouterr()
    monkeypatch.setattr(lopatinski, "_TASK_POINTS", 45)
    monkeypatch.setattr(lopatinski, "det_ratios", det_ratios)
    monkeypatch.setattr(pool, "_workers", lambda: 2)
    runs = [(_scan(tmp_path, out), capsys.readouterr().err) for out in (tmp_path / "new", old)]
    assert list((tmp_path / "new").iterdir()) == []
    assert {p.name: p.read_bytes() for p in old.iterdir()} == before
    assert multiprocessing.active_children() == []
    return runs


@needs_fork
@pytest.mark.parametrize("value", [math.nan, 0.0], ids=["nonfinite", "zero"])
def test_scan_worker_failure_names_the_first_point(monkeypatch, capsys, tmp_path, value):
    # points 50 and 200 lie in the second and the fifth task; the second
    # finishes last, and its point is still the one named
    runs = _failed_scans(monkeypatch, capsys, tmp_path, _poisoned(value))
    assert runs == [(1, _first_point_error(value))] * 2


@needs_fork
def test_failed_scan_cancels_its_unstarted_tasks(monkeypatch, capsys, tmp_path):
    # the first of nine tasks fails at once and every other takes 0.2 s on
    # two workers: the scan raises while the last tasks are still waiting for
    # a worker, and those are cancelled, not run
    lam = SCAN_GRID.points(EPS)[0]
    clean = lopatinski.det_ratios
    log = tmp_path / "evaluated"

    def poisoned(fluid, lam_c, a_c):
        with open(log, "a") as fh:
            fh.write(f"{abs(lam_c[0])!r}\n")
        absdet, ratio = clean(fluid, lam_c, a_c)
        if lam_c[0] == lam[0]:
            ratio[0] = math.nan
        else:
            time.sleep(0.2)
        return absdet, ratio

    monkeypatch.setattr(lopatinski, "_TASK_POINTS", 45)
    monkeypatch.setattr(lopatinski, "det_ratios", poisoned)
    monkeypatch.setattr(pool, "_workers", lambda: 2)
    assert _scan(tmp_path, tmp_path / "out") == 1
    assert capsys.readouterr().err.startswith("error: nonfinite |det L| ratio at lam=")
    assert len(log.read_text().splitlines()) < 9
    assert multiprocessing.active_children() == []


@needs_fork
def test_lost_scan_worker_exits_71(monkeypatch, capsys, tmp_path):
    parent = os.getpid()

    def lost(fluid, lam, a):
        assert _in_worker(parent)
        os._exit(1)

    for code, err in _failed_scans(monkeypatch, capsys, tmp_path, lost):
        assert code == 71
        assert err.startswith("error: a pool worker process died"), err
        assert "Traceback" not in err


def test_no_quotient_cutoff_still_writes_the_fuzz_suite(monkeypatch, config, tmp_path):
    # no scanned magnitude clears this floor, so the quotient cutoff is
    # not found and no class table is certified
    monkeypatch.setattr(coefficients, "omega4_formula", lambda fluid, sector: 1e9)
    assert main(["verify", "--samples", "20", *config]) == 2
    (path,) = (tmp_path / "out").glob("verify_*.json")
    suites = _strict(path.read_text())["suites"]
    assert suites["multipliers"]["passed"] is False
    assert suites["multipliers"]["error"].startswith("no cutoff in ")
    assert suites["fuzz"]["passed"] and suites["fuzz"]["n_samples"] == 20
    assert all(suites[name]["passed"] for name in ("height", "energy"))
    assert not list((tmp_path / "out").glob("class_*.csv"))


def test_unsampled_fuzz_category_sets_exit_bit_1(config, tmp_path):
    # one sample is explicit-H, so no kinematic residual is ever measured
    code = main(["verify", "--samples", "1", *config])
    assert code & 1
    (path,) = (tmp_path / "out").glob("verify_*.json")
    fuzz = _strict(path.read_text())["suites"]["fuzz"]
    assert fuzz["passed"] is False and fuzz["unsampled"] == ["kinematic"]


@pytest.mark.parametrize("workers", [1, 2])
def test_multiplier_report_bytes_pinned(monkeypatch, config, tmp_path, workers):
    # verify-multipliers on the coarse class grid, in this process or on the
    # pool: any drift in how the claims are routed, chunked, folded or
    # written changes these digests
    monkeypatch.setattr(pool, "_workers", lambda: workers)
    assert main(["verify-multipliers", *config]) == 0
    digests = {p.name.split("_")[0]: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (tmp_path / "out").iterdir()}
    assert digests == {
        "class": "6b95d16c45d432eb7eeb4853cddcd8b47ecd0137033181cc5488d5af256c8cef",
        "multipliers": "c4bc3233818fe67199aa68fb565a3d1e2097e3c250e5485bdd5805485c237ac8",
    }


# the reports of every command but solve on the default config (verify
# at its default seed and 10,000 samples), at the default chunk sizes; verify
# and verify-multipliers write the same class table
DEFAULT_DIGESTS = {
    "class_e2bc2fd638e1.csv": "1f306c1687ccef05e00dbbf2a95dc3711dc0286c6cf8494f2b998ef373e8957a",
    "multipliers_e2bc2fd638e1.json":
        "4a0f9e56ad028aaa9e9ff070eb4eae9dbd7d1b3864b1372fcc8f78cae8b712ab",
    "scan_e2bc2fd638e1.csv": "774820813204701863bb05464bc9a5542254a09c2ea8f24d11ecd45cd60d30d2",
    "scan_e2bc2fd638e1.json": "d91415d3683b775dc29fb3931c704701000cd2afb6b4cd92bcf0fb86533e01db",
    "height_e2bc2fd638e1.csv":
        "789430cf22ceeb9d9f83fcdede0bb34774b3579e3c7d127643e5d184735aa0c3",
    "height_e2bc2fd638e1.json":
        "00ae651d709f66bac88596478c03b2811659c674acc9608ff8faa67c70132f7b",
    "decay2_e2bc2fd638e1.csv":
        "ccc106a59a42dfc78bdbee3f0bb05c25ce46d5f6544b0e7419067a922bb90601",
    "decay3_e2bc2fd638e1.csv":
        "4db1036bc104d3043fa5f6cc632586726af8ceed691c2f7e3d54f0f2ad1196f2",
    "decay_e2bc2fd638e1.json": "fae3a059929e3e42e61f1cc86b54bce791575b8095013ac2766717b7f325f83e",
    "verify_e2bc2fd638e1.json":
        "6fc097f77ab01a0d361c332afce0cdde1a19b5528d4841674ac09f52ef86041a",
}


@needs_fork
@pytest.mark.parametrize("workers", [1, 2])
def test_default_reports_do_not_depend_on_the_chunk_sizes(monkeypatch, tmp_path, workers):
    # class chunks of 20,000 points and scan tasks of 50,000, far above the
    # defaults, in this process or on the pool
    monkeypatch.setattr(pool, "_workers", lambda: workers)
    monkeypatch.setattr(multiplier, "_CHUNK", 20_000)
    monkeypatch.setattr(lopatinski, "_TASK_POINTS", 50_000)
    for command in ("verify-multipliers", "scan-lopatinski", "scan-height", "kernel-decay",
                    "verify"):
        assert main([command, "--out", str(tmp_path)]) == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.iterdir()} == DEFAULT_DIGESTS
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("name,levels", [("h1", (0.5,)), ("H", (0.7, 0.0))],
                         ids=["off-interface", "two-levels"])
def test_solve_field_off_the_interface_exits_65(capsys, tmp_path, solve_argv, name, levels):
    base = tmp_path / name
    write_field(str(base), PhysicalField(box_lengths=(64.0,), grid_shape=(16,),
                                         x_levels=levels, samples=np.ones((len(levels), 16))),
                2.0 + 1.0j, REFERENCE_PARAMS, name)
    assert main(solve_argv) == 65
    err = capsys.readouterr().err
    assert err.startswith(f"error: {base}: field levels {levels}")
    assert "x_N = 0" in err
    assert not list((tmp_path / "out").glob("solve_*"))


@pytest.mark.parametrize("cutoff,advised", [(10.0, True), (0.5, False)],
                         ids=["above-lambda", "below-lambda"])
def test_kinematic_solve_advises_below_the_height_cutoff(monkeypatch, capsys, tmp_path,
                                                         solve_argv, cutoff, advised):
    # |lambda| = |2 + i| = 2.236 against a stubbed scan-height cutoff
    path = tmp_path / "config.json"
    cfg = json.loads(path.read_text())
    cfg["solve"]["mode"] = "kinematic"
    path.write_text(json.dumps(cfg))
    monkeypatch.setattr(coefficients, "height_curve", lambda fluid, sector, grid, mags:
                        SimpleNamespace(cutoff=lambda floor: cutoff))
    assert main(solve_argv) == 0
    err = capsys.readouterr().err
    advisory = ("advisory: |lambda| = 2.236e+00 is below the certified height cutoff "
                "lambda0 = 1.000e+01; the kinematic inversion is not covered by the "
                "scanned bound there\n")
    assert err == (advisory if advised else "")


@pytest.mark.parametrize("lam_range,floor,scanned,advised,code", [
    ((1e-2, 1e2), 0.3, 5, True, 0), ((1e-2, 1e2), 0.25, 5, False, 0),
    ((10.0, 1e4), 0.3, 7, True, 0), ((1e-4, 1.0), 0.3, 1, False, 0),
    ((1e-2, 1e2), 0.6, 5, False, 1),
], ids=["advised", "clear", "below-grid", "above-grid", "no-cutoff"])
def test_kinematic_advisory_scans_only_the_magnitudes_it_reads(
        monkeypatch, capsys, tmp_path, solve_argv, lam_range, floor, scanned, advised, code):
    # |lambda| = 2.236 on height grids of 2 magnitudes per decade; on
    # [1e-2, 1e2] a floor of 0.3 puts the cutoff at 100, 0.25 at 0.032 and
    # 0.6 nowhere.  The magnitudes from the one at or below |lambda| upward
    # give the decision of the whole grid: the same stderr and exit code.
    path = tmp_path / "config.json"
    cfg = json.loads(path.read_text())
    cfg["solve"]["mode"] = "kinematic"
    cfg["grid"] = {"lam_min": lam_range[0], "lam_max": lam_range[1], "lam_per_decade": 2,
                   "n_angles": 5, "a_min": 1e-2, "a_max": 1e2, "a_per_decade": 2}
    path.write_text(json.dumps(cfg))
    monkeypatch.setattr(cli, "Tolerances", lambda: Tolerances(height_floor=floor))
    seen = _count_points(monkeypatch, coefficients.height_ratio)
    got = main(solve_argv), capsys.readouterr()
    assert len(seen) == scanned
    full = coefficients.height_curve
    monkeypatch.setattr(coefficients, "height_curve",
                        lambda fluid, sector, grid, mags: full(fluid, sector, grid))
    assert (main(solve_argv), capsys.readouterr()) == got
    assert got[0] == code
    assert ("advisory: " in got[1].err) == advised


def test_energy_probe_error_fails_the_energy_suite(tmp_path):
    # no quadrature meets this tolerance: QuadratureFailure in a probe's
    # cross-check fails the energy suite alone, and the report is written
    cfg = dataclasses.replace(default_config(), samples=20,
                              class_grid=GridSpec(**SMALL_CLASS["class_grid"]))
    tol = dataclasses.replace(Tolerances(), energy_quad_rel=1e-30)
    assert cli.cmd_verify(cfg, tol, str(tmp_path), "tag") == 8
    energy = _strict((tmp_path / "verify_tag.json").read_text())["suites"]["energy"]
    assert energy["passed"] is False
    assert energy["error"].startswith("energy integral error estimate ")


ZERO_MODE_HINT = ("half-space symbols are undefined at the zero tangential mode; "
                  "subtract the per-level mean from the data before solving")
HEIGHT_HINT = ("lambda + K degenerates at this mode; move |lambda| above the "
               "scan-height cutoff or supply H directly in explicit-H mode")
EXITS = {"ZeroModeData": (65, ZERO_MODE_HINT), "HeightNotInvertible": (65, HEIGHT_HINT),
         "NonPositiveOmega": (1, None), "NoCutoffFound": (1, None),
         "WorkerLost": (71, None), "OSError": (66, None)}


@pytest.mark.parametrize("name", [*errors.__all__, "OSError"])
def test_each_error_class_keeps_its_exit_code_and_hint(monkeypatch, capsys, tmp_path, name):
    # every other library error, ConfigError included, is 65 without a hint
    cls = OSError if name == "OSError" else getattr(errors, name)

    def failing(*args):
        raise cls("stubbed failure")

    monkeypatch.setattr(cli, "cmd_scan_height", failing)
    code, hint = EXITS.get(name, (65, None))
    assert main(["scan-height", "--out", str(tmp_path / "out")]) == code
    assert capsys.readouterr().err == ("error: stubbed failure\n"
                                       + (f"hint: {hint}\n" if hint else ""))
