"""Command-line front end: scans, certification suites, grid solves.

Subcommands
    scan-lopatinski   determinant lower-bound scan + asymptotic constants
    scan-height       lambda0 cutoff and |lambda+K| lower-bound scan
    verify            fuzz + multipliers + height + energy, bitmask exit
    verify-multipliers  the symbol-class table alone
    solve             boundary data files -> field outputs + residual sidecar
    kernel-decay      inverse-FFT decay envelope of the height kernel

Each scan grid is evaluated once per command.  The height curve (per-|lambda|
minimum of |lambda+K|/(|lambda|+A)) yields both cutoffs, the height report
and the height CSV; the determinant grid yields omega and its worst point,
and its tasks on the shared process pool (pool.run) return the scan CSV
rows, which are streamed to a temporary file and moved into place only once
the scan has passed its checks.

`verify` evaluates the height curve first, for the quotient cutoff, and then
runs its fuzz as one more task on the shared process pool, alongside the
multiplier-class table (multiplier.certify_alongside): with two cores one
worker runs the fuzz while the other starts on the claims.  When no quotient
cutoff is found, the table has no claims and the multiplier suite records
the error.  The height and energy suites follow in this process; the energy
suite reads the fuzz's worst energy sample.

Importing this module loads only the config, errors and params layers.  Each
subcommand imports the layers it runs when it starts, so no process compiles
code it never calls.  `verify` imports all of its layers, and hashlib,
before the pool forks.  Its fuzz worker still imports numpy.random, which
loads hashlib (secrets -> hmac -> hashlib), and hashlib loads OpenSSL; done
after the fork, in the worker, that raises the command's peak RSS, so the
parent loads hashlib first.  The report tag takes sha256 from the
interpreter's builtin module, so no other command loads OpenSSL.

The library measures and the commands judge: every pass/fail decision
(omega > 0 with the asymptotic deviation within asym_dev_at_100, omega4 > 0,
the decay drift within envelope_drift, the fuzz, multiplier and energy
verdicts, the solve residuals within fuzz_residual) is taken here, against
Tolerances().scale(--tolerance-scale).
The run defaults (fluid, sector, grids, seed, samples) come from RunConfig.

Exit codes: 0 success; 2 usage (argparse); 65 config or data validation,
including a non-finite config number, a malformed solve block, a non-finite
value in a solve field file, a field with more than two tangential axes, a
solve input field that is not one level at x_N = 0, an out-of-range
--seed/--samples, and a `solve` lambda outside the configured sector (or
lambda = 0);
`verify` failures form a bitmask (1 fuzz, also when too few --samples
leave a residual category unmeasured, 2 multipliers, 4 height, 8 energy,
also when an energy probe raises an error, which the report records);
verify-multipliers alone exits with its bitmask value 2; the
scan and decay commands exit 1 when their certification fails, and `solve`
exits 1, after writing its outputs, when its worst ODE or interface residual
is above fuzz_residual or NaN; 71
(EX_OSERR) when a worker of the shared process pool dies (one evaluating
the multiplier classes or the determinant scan, or the one running the
`verify` fuzz), for example killed by the OOM killer.

Reports land in --out, or in the config's out_dir without it; no
environment variable overrides either.  They are named <kind>_<hash>.<ext>
by the 12-hex content hash of the effective configuration, so identical runs
produce byte-identical artifacts at identical paths and nothing carries a
timestamp.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import sys
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .config import RunConfig, Tolerances, default_config, load_config
from .errors import (
    ConfigError,
    HeightNotInvertible,
    LopStokesError,
    NoCutoffFound,
    NonPositiveOmega,
    WorkerLost,
    ZeroModeData,
)

if TYPE_CHECKING:
    from .coefficients import HeightCurve

_DEFAULT_SAMPLES = RunConfig().samples


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH", help="JSON run configuration")
    common.add_argument("--out", metavar="DIR",
                        help="report directory (default from config)")
    common.add_argument("--seed", type=int, metavar="U64", help="fuzz RNG seed")
    common.add_argument("--samples", type=int, metavar="N", help="fuzz sample count")
    common.add_argument("--tolerance-scale", type=float, default=1.0, metavar="FLOAT",
                        help="multiply every pass/fail tolerance by this factor")

    p = argparse.ArgumentParser(
        prog="lopstokes",
        description="Numerical certification of a two-phase half-space "
                    "Stokes interface model: symbol scans, explicit resolvent "
                    "solves, multiplier-class tables.")
    p.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = p.add_subparsers(dest="command", required=True)
    sub.add_parser("scan-lopatinski", parents=[common],
                   help="lower-bound scan of the boundary determinant")
    sub.add_parser("scan-height", parents=[common],
                   help="invertibility scan of lambda + K")
    sub.add_parser("verify", parents=[common],
                   help="full certification suite (bitmask exit code)")
    sub.add_parser("verify-multipliers", parents=[common],
                   help="symbol-class table only")
    ps = sub.add_parser("solve", parents=[common],
                        help="solve grid boundary data from field files")
    ps.add_argument("data", nargs="*", metavar="FIELD",
                    help="base paths of input fields (.csv/.json pairs): "
                         "tangential jumps h_1 [h_2], then H or d per the "
                         "configured mode; defaults to config solve.data")
    sub.add_parser("kernel-decay", parents=[common],
                   help="decay envelope of the inverse height kernel")
    return p


def _effective(args) -> tuple[RunConfig, Tolerances, str, str]:
    from .reports import config_hash, ensure_out_dir

    try:
        cfg = load_config(args.config) if args.config else default_config()
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
    over = {k: getattr(args, k) for k in ("seed", "samples") if getattr(args, k) is not None}
    cfg = dataclasses.replace(cfg, **over)
    tol = Tolerances().scale(args.tolerance_scale)
    out = args.out or cfg.out_dir
    tag = config_hash(cfg, extra={"tolerance_scale": args.tolerance_scale})
    return cfg, tol, ensure_out_dir(out), tag


def cmd_scan_lopatinski(cfg: RunConfig, tol: Tolerances, out: str, tag: str) -> int:
    from .lopatinski import scan_lower_bound
    from .reports import replaced, write_json

    # the CSV is streamed to a temporary file, moved into place once the scan
    # has passed its checks, so a failed scan leaves no report
    with replaced(os.path.join(out, f"scan_{tag}.csv")) as csv_path:
        rep = scan_lower_bound(cfg.fluid, cfg.sector, cfg.grid, csv_path)
    write_json(os.path.join(out, f"scan_{tag}.json"), rep.to_dict())
    dev = max(rep.delta1, rep.delta2)
    ok = rep.omega > 0.0 and dev <= tol.asym_dev_at_100
    print(f"scan-lopatinski: omega = {rep.omega:.6e} over {rep.n_points} points, "
          f"asymptotic deviation {dev:.2%} -> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_scan_height(cfg: RunConfig, tol: Tolerances, out: str, tag: str) -> int:
    from .coefficients import height_curve, height_scan
    from .reports import write_height_csv, write_json

    curve = height_curve(cfg.fluid, cfg.sector, cfg.grid)
    rep = height_scan(cfg.fluid, cfg.sector, curve, curve.cutoff(tol.height_floor))
    write_json(os.path.join(out, f"height_{tag}.json"), rep.to_dict())
    write_height_csv(os.path.join(out, f"height_{tag}.csv"), curve.mags, curve.per_min)
    ok = rep.omega4 > 0.0
    print(f"scan-height: lambda0 = {rep.lambda0:.6e}, omega4 = {rep.omega4:.6e}, "
          f"K/A slope = {rep.slope:.6f} (formula limit {rep.slope_limit:.6f}) "
          f"-> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


_ENERGY_PROBES = (
    (complex(2.0, 1.5), (0.8,), "kinematic"),
    (complex(-40.0, 90.0), (1.0, 2.0), "explicit-H"),
    (complex(1e-3, 5e-4), (30.0,), "explicit-H"),
    (complex(3e4, -2e4), (0.05, 0.02), "kinematic"),
    (complex(0.5, -0.2), (1e3,), "kinematic"),
)


def _energy_suite(cfg: RunConfig, tol: Tolerances, fuzz_rep) -> dict:
    from .resolvent import assemble_batch, energy_quadrature_check

    if "energy" in fuzz_rep.unsampled:
        return {"passed": False, "error": "no fuzz sample measured an energy residual"}
    worst_closed = fuzz_rep.worst["energy"]["value"]
    worst_quad = 0.0
    for lam, xi, mode in _ENERGY_PROBES:
        h = [0.4 + 0.3j] * len(xi)
        top = 0.6 - 0.2j if mode == "kinematic" else 0.1 + 0.7j
        try:
            batch = assemble_batch(cfg.fluid, [lam], [xi], [h], [top], mode, tol=tol)
            worst_quad = max(worst_quad,
                             energy_quadrature_check(batch, quad_rel=tol.energy_quad_rel))
        except LopStokesError as exc:
            return {"passed": False, "error": str(exc)}
    return {
        "closed_form_worst": worst_closed,
        "quadrature_cross_worst": worst_quad,
        "passed": bool(worst_closed <= tol.energy_defect
                       and worst_quad <= tol.quadrature_cross),
    }


def _quotient_cutoff(cfg: RunConfig, curve: HeightCurve) -> float:
    """The cutoff lambda0 above which the (lambda + K)-quotients are claimed."""
    from .coefficients import omega4_formula

    # The (lambda + K)-quotient symbols lose uniformity wherever
    # |lambda + K|/(|lambda| + A) dips below its formula-level constant (the
    # interfacial dispersion curve passes near the sector edge at moderate
    # |lambda|), so they are claimed above the smallest scanned cutoff whose
    # suffix infimum clears omega4_formula, not the height_floor.
    return curve.cutoff(omega4_formula(cfg.fluid, cfg.sector))


def cmd_verify(cfg: RunConfig, tol: Tolerances, out: str, tag: str) -> int:
    # every layer is imported here, before the pool forks, and hashlib too:
    # the fuzz worker imports numpy.random, whose secrets -> hmac -> hashlib
    # chain loads OpenSSL.  Loaded in the worker, after the fork, that raised
    # the command's peak RSS by about 2.5 MB; loaded here it adds nothing
    import hashlib  # noqa: F401

    from .coefficients import height_curve, height_scan
    from .multiplier import certify_alongside, declared_claims
    from .reports import write_class_csv, write_json
    from .resolvent import fuzz_residuals

    suites: dict[str, dict] = {}

    curve = height_curve(cfg.fluid, cfg.sector, cfg.grid)
    try:
        lam0c = _quotient_cutoff(cfg, curve)
    except NoCutoffFound as exc:
        lam0c, suites["multipliers"] = None, {"passed": False, "error": str(exc)}
    # the fuzz is one more task on the pool of the class table, a table
    # without claims when no quotient cutoff is found
    fuzz, table = certify_alongside(
        functools.partial(fuzz_residuals, cfg.fluid, cfg.sector, cfg.samples, cfg.seed,
                          tol=tol),
        [] if lam0c is None else declared_claims(lam0c),
        cfg.fluid, cfg.sector, cfg.class_grid, tol)
    if lam0c is not None:
        write_class_csv(os.path.join(out, f"class_{tag}.csv"), table)
        suites["multipliers"] = {
            "passed": all(r.verdict == "pass" for r in table),
            "failed": sorted(r.name for r in table if r.verdict != "pass"),
            "n_claims": len(table),
            "quotient_cutoff": lam0c,
            "max_drift": float(np.max([r.max_drift() for r in table])),
        }
    suites["fuzz"] = {**fuzz.to_dict(), "passed": fuzz.passed(tol)}

    try:
        hrep = height_scan(cfg.fluid, cfg.sector, curve, curve.cutoff(tol.height_floor))
        suites["height"] = {**hrep.to_dict(), "passed": hrep.omega4 > 0.0}
    except (NoCutoffFound, HeightNotInvertible) as exc:
        suites["height"] = {"passed": False, "error": str(exc)}

    suites["energy"] = _energy_suite(cfg, tol, fuzz)

    code = 0
    for bit, name in ((1, "fuzz"), (2, "multipliers"), (4, "height"), (8, "energy")):
        if not suites[name]["passed"]:
            code |= bit
    summary = {
        "seed": cfg.seed,
        "samples": cfg.samples,
        "reduced_coverage": cfg.samples < _DEFAULT_SAMPLES,
        "suites": suites,
        "exit_code": code,
    }
    write_json(os.path.join(out, f"verify_{tag}.json"), summary)
    for name in ("fuzz", "multipliers", "height", "energy"):
        print(f"verify: {name:12s} {'PASS' if suites[name]['passed'] else 'FAIL'}")
    if summary["reduced_coverage"]:
        print(f"verify: reduced coverage ({cfg.samples} fuzz samples, "
              f"default {_DEFAULT_SAMPLES})")
    return code


def cmd_verify_multipliers(cfg: RunConfig, tol: Tolerances, out: str, tag: str) -> int:
    from .coefficients import height_curve
    from .multiplier import certify_table, declared_claims
    from .reports import write_class_csv, write_json

    lam0 = _quotient_cutoff(cfg, height_curve(cfg.fluid, cfg.sector, cfg.grid))
    table = certify_table(declared_claims(lam0), cfg.fluid, cfg.sector, cfg.class_grid, tol)
    write_class_csv(os.path.join(out, f"class_{tag}.csv"), table)
    write_json(os.path.join(out, f"multipliers_{tag}.json"), {
        "quotient_cutoff": lam0,
        "claims": [
            {"name": r.name, "s": r.s, "type": r.mtype,
             "lam_floor": r.lam_floor, "domain": r.domain, "verdict": r.verdict,
             "max_drift": r.max_drift()}
            for r in table
        ],
    })
    bad = [r.name for r in table if r.verdict != "pass"]
    print(f"verify-multipliers: {len(table) - len(bad)}/{len(table)} claims pass"
          + (f"; failing: {', '.join(bad)}" if bad else ""))
    return 0 if not bad else 2


def cmd_solve(cfg: RunConfig, tol: Tolerances, out: str, tag: str, data_args) -> int:
    from .coefficients import height_curve
    from .reports import read_field, write_field, write_residual_csv
    from .transform import solve_physical

    sv = cfg.solve
    missing = [k for k in ("lambda_re", "mode", "x_levels", "box", "shape") if k not in sv]
    if missing:
        raise ConfigError(f"config.solve: missing key(s) {missing}")
    lam = complex(sv["lambda_re"], sv.get("lambda_im", 0.0))
    cfg.sector.require(lam)
    mode = sv["mode"]
    box = tuple(float(b) for b in sv["box"])
    shape = tuple(int(n) for n in sv["shape"])
    dim = len(shape) + 1
    paths = list(data_args) if data_args else list(sv.get("data", []))
    if len(paths) != dim:
        raise ConfigError(
            f"solve needs {dim} field files ({dim - 1} tangential jumps plus "
            f"{'H' if mode == 'explicit-H' else 'd'}), got {len(paths)}")

    fields = []
    for path in paths:
        header, fld = read_field(path)
        if fld.grid_shape != shape or fld.box_lengths != box:
            raise ConfigError(
                f"{path}: field grid {fld.grid_shape} box {fld.box_lengths} "
                f"does not match config solve grid {shape} box {box}")
        if fld.x_levels != (0.0,):
            raise ConfigError(f"{path}: field levels {fld.x_levels} are not the one "
                              "interface level x_N = 0")
        fields.append(fld.samples[0])

    if mode == "kinematic":
        lam0 = height_curve(cfg.fluid, cfg.sector, cfg.grid).cutoff(tol.height_floor)
        if abs(lam) < lam0:
            print(f"advisory: |lambda| = {abs(lam):.3e} is below the certified "
                  f"height cutoff lambda0 = {lam0:.3e}; the kinematic inversion "
                  "is not covered by the scanned bound there", file=sys.stderr)

    sol = solve_physical(cfg.fluid, lam, fields[:-1], fields[-1], mode, box,
                         x_levels=tuple(float(x) for x in sv["x_levels"]), tol=tol)

    outputs = [*((f"u_plus_{J}", u) for J, u in enumerate(sol.u_plus, start=1)),
               *((f"u_minus_{J}", u) for J, u in enumerate(sol.u_minus, start=1)),
               ("pressure", sol.pressure), ("height", sol.height)]
    for name, fld in outputs:
        write_field(os.path.join(out, f"solve_{tag}_{name}"), fld, lam, cfg.fluid, name)
    write_residual_csv(os.path.join(out, f"solve_{tag}_residuals.csv"),
                       shape, sol.modes, sol.residuals)
    ode, iface = sol.worst_residuals()
    ok = ode <= tol.fuzz_residual and iface <= tol.fuzz_residual    # False on NaN
    print(f"solve: {sol.modes.size} modes, worst ODE residual {ode:.3e}, worst "
          f"interface residual {iface:.3e} -> {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def cmd_kernel_decay(cfg: RunConfig, tol: Tolerances, out: str, tag: str) -> int:
    from .reports import write_decay_csv, write_json
    from .transform import kernel_decay_check

    reps = {dim: kernel_decay_check(dim=dim) for dim in (2, 3)}
    write_json(os.path.join(out, f"decay_{tag}.json"), {
        str(dim): {
            "constant": r.constant, "n": r.n, "box": r.box,
            "x_levels": list(r.x_levels), "drift_refine": r.drift_refine,
            "drift_box": r.drift_box,
            "monotone_levels": list(r.monotone_levels),
            "passed": r.passed(tol.envelope_drift),
        }
        for dim, r in reps.items()
    })
    ok = True
    for dim, r in reps.items():
        write_decay_csv(os.path.join(out, f"decay{dim}_{tag}.csv"), r)
        good = r.passed(tol.envelope_drift)
        ok = ok and good
        print(f"kernel-decay dim {dim}: constant {r.constant:.4f}, refine drift "
              f"x{r.drift_refine:.3f}, box drift x{r.drift_box:.3f} "
              f"-> {'PASS' if good else 'FAIL'}")
    return 0 if ok else 1


# The exit code and hint of each failure; main answers an error with the
# entry of the first class in its method resolution order.
_FAILURES = {
    ZeroModeData: (65, "half-space symbols are undefined at the zero tangential "
                       "mode; subtract the per-level mean from the data before solving"),
    HeightNotInvertible: (65, "lambda + K degenerates at this mode; move |lambda| "
                              "above the scan-height cutoff or supply H directly in "
                              "explicit-H mode"),
    NonPositiveOmega: (1, None),
    NoCutoffFound: (1, None),
    WorkerLost: (71, None),
    LopStokesError: (65, None),
    OSError: (66, None),
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg, tol, out, tag = _effective(args)
        if args.command == "scan-lopatinski":
            return cmd_scan_lopatinski(cfg, tol, out, tag)
        if args.command == "scan-height":
            return cmd_scan_height(cfg, tol, out, tag)
        if args.command == "verify":
            return cmd_verify(cfg, tol, out, tag)
        if args.command == "verify-multipliers":
            return cmd_verify_multipliers(cfg, tol, out, tag)
        if args.command == "solve":
            return cmd_solve(cfg, tol, out, tag, args.data)
        return cmd_kernel_decay(cfg, tol, out, tag)
    except tuple(_FAILURES) as exc:
        code, hint = next(_FAILURES[c] for c in type(exc).__mro__ if c in _FAILURES)
        print(f"error: {exc}" + (f"\nhint: {hint}" if hint else ""), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
