"""Workload definitions: the commands each workload runs and the inputs it
generates from the workload seed.

A workload is a list of `lopstokes` subcommands run one after another, each
in a fresh process, plus the files those commands read.  Every input is
derived from the seed alone, so one seed always gives one set of inputs.
The "toy" size of each workload exercises the same commands on coarse grids
and is used only by the self-test and the warm-up pass.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

NAMES = ("verify", "scans", "solve3d")

# What the `lopstokes` console script runs: `python3 -c LAUNCH <args>`.
LAUNCH = "import sys; from lopstokes.cli import main; sys.exit(main())"

# Coarse grids that keep every certification passing at toy size.  The
# toy verify keeps the default scan grid: the quotient-claim cutoff is read
# off that grid, and a coarse one moves it below where the claims hold.
_TOY_GRID = {"lam_min": 1e-3, "lam_max": 1e5, "lam_per_decade": 2,
             "n_angles": 5, "a_min": 1e-3, "a_max": 1e5, "a_per_decade": 2}
_TOY_CLASS_GRID = {"lam_min": 1e-2, "lam_max": 1e4, "lam_per_decade": 2,
                   "n_angles": 5, "a_min": 1e-2, "a_max": 1e3, "a_per_decade": 2}
_TOY_SAMPLES = 20

# solve3d: one lambda in the sector, a periodic box long enough that the
# slowest tangential kernel decay length (1/Re sqrt(lambda/2) ~ 0.97 here)
# fits ten times in each side, so the periodization warning stays silent.
SOLVE_LAMBDA = complex(2.0, 1.0)
SOLVE_BOX = (12.0, 12.0)
SOLVE_SHAPE = (64, 64)
_TOY_SOLVE_SHAPE = (16, 16)    # the solver needs powers of two >= 16
SOLVE_X_LEVELS = (0.0, 0.5, 1.0)
SOLVE_FIELDS = ("h_1", "h_2", "d")

# The package's reference parameter set, which the default configuration
# uses; spelled out in every config so loading it exercises the params layer.
_FLUID = {"rho_plus": 1.0, "rho_minus": 2.0, "mu_plus": 1.0,
          "mu_minus": 1.0, "nu_plus": 1.0, "sigma": 1.0}


@dataclass(frozen=True)
class Command:
    """One `lopstokes` invocation; "{out}" in argv is replaced per pass."""

    name: str          # the subcommand, e.g. "scan-lopatinski"
    argv: tuple[str, ...]

    def for_out(self, out: str) -> list[str]:
        return [out if a == "{out}" else a for a in self.argv]


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    config_path: str
    commands: tuple[Command, ...]
    field_paths: tuple[str, ...] = ()


def _write_json(path: str, doc) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def write_field(base: str, name: str, values: np.ndarray, box, x_levels,
                lam: complex) -> None:
    """Write one field in the documented solve input format.

    `<base>.csv` holds the columns level, i, j, re, im (one row per sample,
    floats in shortest round-trip form); `<base>.json` records name, box,
    shape, x_levels, lambda and the fluid parameters.
    """
    shape = values.shape[1:]
    idx_names = ("i", "j")[:len(shape)]
    with open(base + ".csv", "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(("level", *idx_names, "re", "im")) + "\n")
        for li in range(values.shape[0]):
            for idx in np.ndindex(shape):
                v = complex(values[(li,) + idx])
                fh.write(",".join((str(li), *(str(k) for k in idx),
                                   repr(v.real), repr(v.imag))) + "\n")
    _write_json(base + ".json", {
        "name": name, "box": list(box), "shape": list(shape),
        "x_levels": list(x_levels),
        "lambda": {"re": lam.real, "im": lam.imag},
        "fluid": dict(_FLUID),
    })


def solve_fields(seed: int, shape) -> list[np.ndarray]:
    """Three real zero-mean fields (h_1, h_2, d) drawn from the seed."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in SOLVE_FIELDS:
        f = rng.standard_normal(shape)
        out.append(f - f.mean())
    return out


def build(name: str, seed: int, work_dir: str, toy: bool = False) -> Workload:
    """Write the workload's config and input files under work_dir."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    if not 0 <= seed < 2 ** 64:
        raise ValueError(f"seed must fit in an unsigned 64-bit value, got {seed}")
    os.makedirs(work_dir, exist_ok=True)
    cfg: dict = {"fluid": dict(_FLUID)}
    if toy and name == "scans":
        cfg["grid"] = dict(_TOY_GRID)
    if toy and name == "verify":
        cfg["class_grid"] = dict(_TOY_CLASS_GRID)
    fields: tuple[str, ...] = ()
    if name == "solve3d":
        shape = _TOY_SOLVE_SHAPE if toy else SOLVE_SHAPE
        cfg["solve"] = {
            "lambda_re": SOLVE_LAMBDA.real, "lambda_im": SOLVE_LAMBDA.imag,
            "mode": "kinematic", "x_levels": list(SOLVE_X_LEVELS),
            "box": list(SOLVE_BOX), "shape": list(shape),
        }
        fields = tuple(os.path.join(work_dir, f"input_{f}") for f in SOLVE_FIELDS)
        for base, f, values in zip(fields, SOLVE_FIELDS, solve_fields(seed, shape)):
            write_field(base, f, values[None, ...], SOLVE_BOX, (0.0,), SOLVE_LAMBDA)
    config_path = os.path.join(work_dir, "config.json")
    _write_json(config_path, cfg)

    common = ("--config", config_path, "--out", "{out}")
    if name == "verify":
        extra = ("--samples", str(_TOY_SAMPLES)) if toy else ()
        cmds = (Command("verify", ("verify", *common, "--seed", str(seed), *extra)),)
    elif name == "scans":
        cmds = tuple(Command(c, (c, *common))
                     for c in ("scan-lopatinski", "scan-height", "kernel-decay"))
    else:
        cmds = (Command("solve", ("solve", *common, *fields)),)
    return Workload(name=name, seed=seed, config_path=config_path,
                    commands=cmds, field_paths=fields)
