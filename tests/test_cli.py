"""Command-level properties: each scan grid is evaluated once per command."""

from __future__ import annotations

import json
import math
import sys

import numpy as np
import pytest

from lopstokes import coefficients, lopatinski
from lopstokes.cli import main
from lopstokes.config import GridSpec

EPS = math.pi / 4
GRID_POINTS = GridSpec().points(EPS)[0].size                 # 190,333
REFINED_POINTS = GridSpec().refined().points(EPS)[0].size   # 1,452,025

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
