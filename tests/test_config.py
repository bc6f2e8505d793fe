"""Run-configuration parsing, tolerance scaling, and scan-grid geometry."""

from __future__ import annotations

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from lopstokes.config import (
    MAX_GRID_POINTS,
    REFERENCE_PARAMS,
    STRESS_PARAM_SETS,
    GridSpec,
    RunConfig,
    Tolerances,
    default_config,
    load_config,
)
from lopstokes.cli import main
from lopstokes.config import config_document, parse_config
from lopstokes.errors import ConfigError
from lopstokes.multiplier import _widened
from lopstokes.params import FluidParams, Sector


class TestTolerances:
    def test_defaults(self):
        tol = Tolerances()
        assert len(dataclasses.fields(tol)) == 10
        assert tol.fuzz_residual == 1e-10
        assert tol.energy_quad_rel == 1e-9
        assert tol.class_drift == 2.0
        assert tol.height_floor == 1e-3
        assert tol.zero_mode == 1e-12

    def test_scale_touches_residual_thresholds(self):
        tol = Tolerances().scale(10.0)
        assert tol.fuzz_residual == pytest.approx(1e-9)
        assert tol.energy_defect == pytest.approx(1e-9)
        assert tol.quadrature_cross == pytest.approx(1e-7)
        assert tol.asym_dev_at_100 == pytest.approx(0.5)

    def test_scale_leaves_algorithm_switches(self):
        base = Tolerances()
        tol = base.scale(100.0)
        for name in ("class_drift", "envelope_drift", "height_floor", "height_inv_rel",
                     "zero_mode", "energy_quad_rel"):
            assert getattr(tol, name) == getattr(base, name), name

    @pytest.mark.parametrize("factor", [0.0, -1.0, float("inf"), float("nan")])
    def test_scale_rejects_bad_factor(self, factor):
        with pytest.raises(ConfigError, match="positive"):
            Tolerances().scale(factor)

    def test_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            Tolerances().fuzz_residual = 1.0


class TestGridSpec:
    def test_default_sizes(self):
        g = GridSpec()
        assert g.lam_mags().size == 121
        assert g.a_vals().size == 121
        assert g.angles(math.pi / 4).size == 13

    def test_angle_span(self):
        angs = GridSpec().angles(math.pi / 4)
        span = math.pi - math.pi / 4
        assert angs[0] == pytest.approx(-span)
        assert angs[-1] == pytest.approx(span)
        assert angs[6] == pytest.approx(0.0, abs=1e-15)

    def test_mag_counts_round(self):
        g = GridSpec(lam_min=1e-2, lam_max=1e2, lam_per_decade=3)
        assert g.lam_mags().size == 13
        assert g.lam_mags()[0] == pytest.approx(1e-2, rel=1e-12)
        assert g.lam_mags()[-1] == pytest.approx(1e2, rel=1e-12)

    def test_points_order(self):
        g = GridSpec(lam_min=1.0, lam_max=10.0, lam_per_decade=1, n_angles=3,
                     a_min=1.0, a_max=100.0, a_per_decade=1)
        lam, a = g.points(math.pi / 4)
        n_a = g.a_vals().size
        assert lam.size == a.size == 2 * 3 * n_a
        # a cycles fastest, lambda is constant within each block
        assert np.all(lam[:n_a] == lam[0])
        assert a[0] == pytest.approx(1.0)
        assert a[n_a - 1] == pytest.approx(100.0)
        span = math.pi - math.pi / 4
        assert lam[0] == pytest.approx(1.0 * np.exp(-1j * span), rel=1e-12)

    @pytest.mark.parametrize("kw", [
        {"lam_min": 0.0},
        {"lam_min": -1.0},
        {"lam_max": 1e-5},
        {"a_min": 0.0},
        {"a_max": 1e-5},
        {"lam_per_decade": 0},
        {"a_per_decade": 0},
        {"n_angles": 2},
    ])
    def test_validation(self, kw):
        with pytest.raises(ConfigError):
            GridSpec(**kw)


class TestClassGridSpec:
    """The class grid spec, RunConfig().class_grid: a GridSpec with its own
    defaults, refined by the multiplier certification alone."""

    def test_default_sizes(self):
        g = RunConfig().class_grid
        assert g.lam_mags().size == 31
        assert g.a_vals().size == 25
        assert g.angles(math.pi / 4).size == 7

    def test_refined_widens_and_densifies(self):
        g = _widened(RunConfig().class_grid)
        assert g.lam_min == pytest.approx(1e-5)
        assert g.lam_max == pytest.approx(1e7)
        assert g.a_min == pytest.approx(1e-5)
        assert g.a_max == pytest.approx(1e5)
        assert g.lam_per_decade == 6
        assert g.a_per_decade == 6
        assert g.n_angles == 7

    @pytest.mark.parametrize("kw", [
        {"lam_min": 0.0},
        {"lam_max": 1e-5},
        {"a_min": -1.0},
        {"a_per_decade": 0},
        {"n_angles": 2},
    ])
    def test_validation(self, kw):
        with pytest.raises(ConfigError):
            dataclasses.replace(RunConfig().class_grid, **kw)

    def test_bad_class_grid_is_a_config_error_in_the_cli(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"class_grid": {"lam_min": 0}}))
        code = main(["verify-multipliers", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 65
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "lam_min" in err


class TestParseConfig:
    def test_empty_doc_is_default(self):
        assert parse_config({}) == default_config()

    def test_full_document(self):
        doc = {
            "fluid": {"rho_plus": 1.0, "rho_minus": 3.0, "mu_plus": 0.5,
                      "mu_minus": 2.0, "nu_plus": 0.1, "sigma": 4.0},
            "sector": {"epsilon": 0.9},
            "grid": {"lam_min": 1e-2, "lam_max": 1e2, "lam_per_decade": 4,
                     "n_angles": 5, "a_min": 1e-1, "a_max": 1e3,
                     "a_per_decade": 2},
            "class_grid": {"lam_per_decade": 2},
            "seed": 42,
            "samples": 500,
            "out_dir": "out",
            "solve": {"lambda_re": 2.0, "lambda_im": 1.0, "mode": "explicit-H"},
        }
        cfg = parse_config(doc)
        assert cfg.fluid.rho_minus == 3.0
        assert cfg.fluid.sigma == 4.0
        assert cfg.sector.epsilon == 0.9
        assert cfg.grid.lam_per_decade == 4
        assert cfg.grid.n_angles == 5
        assert cfg.class_grid.lam_per_decade == 2
        assert cfg.class_grid.a_per_decade == 3
        assert cfg.seed == 42
        assert cfg.samples == 500
        assert cfg.out_dir == "out"
        assert cfg.solve["mode"] == "explicit-H"

    def test_partial_fluid_keeps_defaults(self):
        cfg = parse_config({"fluid": {"mu_plus": 7.0}})
        assert cfg.fluid.mu_plus == 7.0
        assert cfg.fluid.rho_minus == REFERENCE_PARAMS.rho_minus

    def test_unknown_top_key(self):
        with pytest.raises(ConfigError, match=r"config: unknown key\(s\) \['sneed'\]"):
            parse_config({"sneed": 1})

    def test_unknown_nested_key_paths(self):
        with pytest.raises(ConfigError, match=r"config\.fluid: unknown"):
            parse_config({"fluid": {"rho": 1.0}})
        with pytest.raises(ConfigError, match=r"config\.grid: unknown"):
            parse_config({"grid": {"lam_step": 1.0}})
        with pytest.raises(ConfigError, match=r"config\.solve: unknown"):
            parse_config({"solve": {"order": 1}})

    def test_subtree_must_be_mapping(self):
        with pytest.raises(ConfigError, match="expected an object"):
            parse_config({"fluid": [1, 2]})

    def test_bool_is_not_a_number(self):
        with pytest.raises(ConfigError, match="expected a number"):
            parse_config({"seed": True})

    def test_integer_fields(self):
        assert parse_config({"seed": 2.0}).seed == 2
        with pytest.raises(ConfigError, match="expected an integer"):
            parse_config({"seed": 1.5})
        with pytest.raises(ConfigError, match="expected an integer"):
            parse_config({"grid": {"n_angles": 5.5}})

    def test_seed_bounds(self):
        assert parse_config({"seed": 0}).seed == 0
        with pytest.raises(ConfigError, match="64-bit"):
            parse_config({"seed": -1})
        with pytest.raises(ConfigError, match="64-bit"):
            parse_config({"seed": 2**64})

    def test_samples_bound(self):
        with pytest.raises(ConfigError, match=">= 1"):
            parse_config({"samples": 0})

    @pytest.mark.parametrize("kw,message", [
        ({"seed": -1}, "seed must fit in an unsigned 64-bit value"),
        ({"seed": 2**64}, "seed must fit in an unsigned 64-bit value"),
        ({"samples": 0}, "samples must be >= 1"),
    ], ids=["seed-negative", "seed-2**64", "samples-0"])
    def test_run_config_validates_itself(self, kw, message):
        with pytest.raises(ConfigError, match=message):
            RunConfig(**kw)
        with pytest.raises(ConfigError, match=message):
            dataclasses.replace(RunConfig(), **kw)

    # test_cli runs the seed, samples and grid cases through the command
    @pytest.mark.parametrize("doc,where", [
        ({"fluid": {"sigma": float("-inf")}}, "config.fluid.sigma"),
        ({"class_grid": {"n_angles": float("nan")}}, "config.class_grid.n_angles"),
        ({"seed": 10**400}, "config.seed"),
        ({"sector": {"epsilon": 10**400}}, "config.sector.epsilon"),
    ], ids=["sigma-inf", "n_angles-nan", "huge-int", "huge-float-field"])
    def test_non_finite_numbers(self, doc, where):
        with pytest.raises(ConfigError, match=rf"{re.escape(where)}: expected a finite number"):
            parse_config(doc)

    # test_cli runs the other malformed solve values through the command
    @pytest.mark.parametrize("solve,message", [
        ({"lambda_re": float("nan")}, "config.solve.lambda_re: expected a finite number"),
        ({"mode": "explicit"}, "config.solve.mode: expected one of"),
        ({"box": [1.0, 0.0]}, "config.solve.box[1]: expected a positive number"),
        ({"shape": [8, 2.5]}, "config.solve.shape[1]: expected an integer"),
        ({"data": ["h1", 2]}, "config.solve.data: expected a list of strings"),
    ], ids=["lambda-nan", "mode", "box-zero", "shape-float", "data-items"])
    def test_solve_values(self, solve, message):
        with pytest.raises(ConfigError, match=re.escape(message)):
            parse_config({"solve": solve})

    def test_solve_block_is_kept_as_given(self):
        solve = {"lambda_re": 2, "mode": "kinematic", "shape": [8], "box": [1]}
        assert parse_config({"solve": solve}).solve == solve

    def test_out_dir_type(self):
        with pytest.raises(ConfigError, match="out_dir"):
            parse_config({"out_dir": 7})

    @pytest.mark.parametrize("block", ["grid", "class_grid"])
    @pytest.mark.parametrize("kw,message", [
        ({"a_per_decade": 1e6}, "grid has 10^"),
        ({"n_angles": 2}, "grid density too low"),
    ], ids=["too-many-points", "too-few-angles"])
    def test_grid_errors_name_their_block(self, block, kw, message):
        with pytest.raises(ConfigError, match=rf"^config\.{block}: {re.escape(message)}"):
            parse_config({block: kw})

    def test_grid_size_error_reads_the_point_count(self):
        with pytest.raises(ConfigError) as exc:
            parse_config({"class_grid": {"a_per_decade": 1e6}})
        assert str(exc.value) == ("config.class_grid: grid has 10^9.24 points, "
                                  f"above the limit of {MAX_GRID_POINTS:,}")

    def test_grid_range_errors_propagate(self):
        with pytest.raises(ConfigError, match="lam_min < lam_max"):
            parse_config({"grid": {"lam_min": 10.0, "lam_max": 1.0}})

    def test_absent_keys_keep_the_defaults(self):
        cfg = parse_config({"samples": 3, "grid": {"n_angles": 5}})
        assert cfg == dataclasses.replace(
            RunConfig(), samples=3, grid=GridSpec(n_angles=5))

    def test_document_roundtrip(self):
        cfg = RunConfig(seed=11, samples=64)
        doc = config_document(cfg)
        assert parse_config(doc) == cfg

    def test_document_roundtrip_off_the_defaults(self):
        # every record and scalar the document carries differs from its default
        cfg = RunConfig(
            fluid=FluidParams(2.0, 0.5, 3.0, 0.25, 7.0, 0.0),
            sector=Sector(epsilon=1.2),
            grid=GridSpec(lam_min=1e-3, lam_max=1e3, lam_per_decade=4, n_angles=9,
                          a_min=1e-2, a_max=1e5, a_per_decade=5),
            class_grid=GridSpec(lam_min=1e-2, lam_max=1e2, lam_per_decade=2, n_angles=5,
                                a_min=1e-3, a_max=1e1, a_per_decade=1),
            seed=2**64 - 1, samples=3, out_dir="elsewhere",
            solve={"lambda_re": 2.0, "lambda_im": -1, "mode": "kinematic",
                   "x_levels": [0, 0.5], "box": [64.0, 32], "shape": [8, 4],
                   "data": ["h1", "h2", "d"]})
        for f in dataclasses.fields(RunConfig):
            if f.name != "out_dir":
                assert getattr(cfg, f.name) != getattr(RunConfig(), f.name), f.name
        doc = json.loads(json.dumps(config_document(cfg)))
        assert parse_config(doc) == dataclasses.replace(cfg, out_dir=RunConfig().out_dir)


class TestLoadConfig:
    def test_valid_file(self, tmp_path):
        p = tmp_path / "run.json"
        p.write_text(json.dumps({"seed": 9, "fluid": {"sigma": 2.0}}))
        cfg = load_config(str(p))
        assert cfg.seed == 9
        assert cfg.fluid.sigma == 2.0

    def test_json_error_has_location(self, tmp_path):
        p = tmp_path / "broken.json"
        p.write_text('{"seed": }')
        with pytest.raises(ConfigError, match=r"line 1, column 10"):
            load_config(str(p))

    def test_config_error_prefixed_with_path(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text('{"nope": 1}')
        with pytest.raises(ConfigError, match="bad.json"):
            load_config(str(p))

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(str(tmp_path / "absent.json"))


class TestParameterSets:
    def test_reference_params(self):
        assert REFERENCE_PARAMS == FluidParams(1.0, 2.0, 1.0, 1.0, 1.0, 1.0)

    def test_stress_sets(self):
        assert len(STRESS_PARAM_SETS) == 8
        assert STRESS_PARAM_SETS[6].sigma == 0.0
        assert STRESS_PARAM_SETS[1].mu_plus == 1e3
        assert STRESS_PARAM_SETS[5].rho_plus == 1e3
        # sigma = 0 only where the height symbol degenerates by design
        assert sum(1 for p in STRESS_PARAM_SETS if p.sigma == 0.0) == 1
