"""Output checks: every report a command writes is read back and judged.

A check returns a list of failure messages (empty when the output is
correct).  Certified numbers are compared with the reference values in
references.json, each within the tolerance recorded beside it.  The scan's
worst point is also recomputed here in mpmath from the closed-form boundary
matrix, ported into this file, so the check does not rest on the code it
checks.
"""

from __future__ import annotations

import csv
import glob
import hashlib
import json
import os

import mpmath
import numpy as np

REFERENCES = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


def load_references(path: str = REFERENCES) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def digests(out_dir: str) -> dict[str, str]:
    """sha256 of every file a command wrote, by file name."""
    out = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "*"))):
        h = hashlib.sha256()
        with open(path, "rb") as fh:
            for block in iter(lambda: fh.read(1 << 20), b""):
                h.update(block)
        out[os.path.basename(path)] = h.hexdigest()
    return out


def near(label: str, got, ref: dict) -> list[str]:
    """got against {"value": v, "rel": r} or {"value": v, "abs": a}."""
    want = ref["value"]
    if not isinstance(got, (int, float)) or isinstance(got, bool):
        return [f"{label}: expected a number, got {got!r}"]
    if "abs" in ref:
        ok = abs(got - want) <= ref["abs"]
    else:
        ok = abs(got - want) <= ref["rel"] * abs(want)
    return [] if ok else [f"{label} = {got!r}, reference {want!r} "
                          f"(tolerance {ref.get('abs', ref.get('rel'))!r})"]


def _at_most(label: str, got, limit: float) -> list[str]:
    if not isinstance(got, (int, float)) or not got <= limit:
        return [f"{label} = {got!r} exceeds {limit!r}"]
    return []


def _one(out_dir: str, pattern: str):
    hits = sorted(glob.glob(os.path.join(out_dir, pattern)))
    if len(hits) != 1:
        raise FileNotFoundError(f"expected one {pattern} in {out_dir}, found {len(hits)}")
    return hits[0]


def _json(out_dir: str, pattern: str):
    with open(_one(out_dir, pattern), "r", encoding="utf-8") as fh:
        return json.load(fh)


def _csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


# -- independent recomputation ------------------------------------------------

def det_ratio_mp(fluid: dict, re_lam: float, im_lam: float, a: float,
                 dps: int = 50) -> float:
    """|det L| / (sqrt|lambda| + A)^4 in mpmath at one spectral point.

    The textbook entries (with the explicit A+B+ - A^2 and B- - A
    differences, harmless at this precision) fill the 3x3 interface matrix,
    whose determinant mpmath expands directly.
    """
    mp = mpmath.mp
    with mpmath.workdps(dps):
        lam = mp.mpc(re_lam, im_lam)
        A = mp.mpf(a)
        rp, rm = mp.mpf(fluid["rho_plus"]), mp.mpf(fluid["rho_minus"])
        mup, mum, nup = (mp.mpf(fluid["mu_plus"]), mp.mpf(fluid["mu_minus"]),
                         mp.mpf(fluid["nu_plus"]))
        ap = mp.sqrt(rp * lam / (mup + nup) + A * A)
        bp = mp.sqrt(rp * lam / mup + A * A)
        bm = mp.sqrt(rm * lam / mum + A * A)
        d = ap * bp - A * A
        l11p = rp * lam * ap / d
        l22p = rp * lam * bp / d
        l12p = mup * A * A * (2 * ap * bp - A * A - bp * bp) / d
        l21p = rp * lam * ((mup + nup) * ap + (mup - nup) * bp) / ((mup + nup) * (bp + ap) * d)
        l11m = mum * (A + bm)
        l12m = mum * A * (bm - A)
        l21m = mum * (bm - A)
        l22m = mum * (A + bm) * bm
        L = mp.matrix([[l11p + l11m, l12p, l12m],
                       [l21m, 0, l22m],
                       [-l21p, -l22p, 0]])
        return float(abs(mp.det(L)) / (mp.sqrt(abs(lam)) + A) ** 4)


# -- per-command checks -------------------------------------------------------

def check_scan_lopatinski(out_dir: str, refs: dict, tols: dict, **_) -> list[str]:
    fails = []
    rep = _json(out_dir, "scan_*.json")
    omega = rep["omega"]
    fails += near("scan omega", omega, refs["omega"])
    if rep["n_points"] != refs["scan_points"]:
        fails.append(f"scan n_points {rep['n_points']} != {refs['scan_points']}")
    dev = max(rep["regime_deviations"].values())
    fails += _at_most("scan asymptotic deviation", dev, tols["asym_dev_at_100"])
    wp = rep["worst_point"]
    if wp["ratio"] != omega:
        fails.append(f"worst-point ratio {wp['ratio']!r} != omega {omega!r}")
    indep = det_ratio_mp(rep["fluid"], wp["re_lambda"], wp["im_lambda"], wp["A"])
    fails += near("mpmath ratio at the worst point", omega,
                  {"value": indep, "rel": tols["independent_rel"]})
    head, rows = _csv(_one(out_dir, "scan_*.csv"))
    if head != ["re_lambda", "im_lambda", "A", "abs_detL", "ratio"]:
        fails.append(f"scan csv header {head}")
    if len(rows) != rep["n_points"]:
        fails.append(f"scan csv has {len(rows)} rows, report says {rep['n_points']}")
    elif rows:
        csv_min = float(np.min(np.array([r[4] for r in rows], dtype=np.float64)))
        if csv_min != omega:
            fails.append(f"scan csv minimum ratio {csv_min!r} != omega {omega!r}")
    return fails


def check_scan_height(out_dir: str, refs: dict, tols: dict, **_) -> list[str]:
    fails = []
    rep = _json(out_dir, "height_*.json")
    fails += near("height omega4", rep["omega4"], refs["omega4"])
    fails += near("height lambda0", rep["lambda0"], refs["lambda0"])
    head, rows = _csv(_one(out_dir, "height_*.csv"))
    if head != ["lam_mag", "min_ratio"] or not rows:
        fails.append(f"height csv header {head} with {len(rows)} rows")
    else:
        above = [float(r[1]) for r in rows if float(r[0]) >= rep["lambda0"]]
        if not above or min(above) != rep["omega4"]:
            fails.append("height csv minimum above lambda0 differs from omega4")
    return fails


def check_kernel_decay(out_dir: str, refs: dict, tols: dict, **_) -> list[str]:
    fails = []
    rep = _json(out_dir, "decay_*.json")
    for dim, ref in refs["decay_constant"].items():
        r = rep.get(dim)
        if r is None or r["passed"] is not True:
            fails.append(f"kernel-decay dim {dim} did not pass")
            continue
        fails += near(f"kernel-decay dim {dim} constant", r["constant"], ref)
        _, rows = _csv(_one(out_dir, f"decay{dim}_*.csv"))
        if not rows:
            fails.append(f"kernel-decay dim {dim} csv is empty")
    return fails


def check_verify(out_dir: str, refs: dict, tols: dict, seed: int, **_) -> list[str]:
    fails = []
    rep = _json(out_dir, "verify_*.json")
    suites = rep["suites"]
    if rep["exit_code"] != 0:
        fails.append(f"verify exit_code {rep['exit_code']}")
    for name in ("fuzz", "multipliers", "height", "energy"):
        if suites.get(name, {}).get("passed") is not True:
            fails.append(f"verify suite {name} did not pass")
    if rep["seed"] != seed or rep["samples"] != refs["fuzz_samples"]:
        fails.append(f"verify ran seed {rep['seed']} with {rep['samples']} samples, "
                     f"expected {seed} with {refs['fuzz_samples']}")
    limits = {"ode": tols["fuzz_residual"], "interface": tols["fuzz_residual"],
              "kinematic": tols["fuzz_residual"], "energy": tols["energy_defect"],
              "decay": tols["decay_margin"]}
    worst = suites["fuzz"]["worst"]
    for cat, limit in limits.items():
        value = worst.get(cat, {}).get("value")
        if not isinstance(value, float) or value < 0.0:
            fails.append(f"fuzz category {cat} recorded no sample")
        else:
            fails += _at_most(f"fuzz worst {cat}", value, limit)
    energy = suites["energy"]
    fails += _at_most("energy closed-form worst", energy["closed_form_worst"],
                      tols["energy_defect"])
    fails += _at_most("energy quadrature cross-check", energy["quadrature_cross_worst"],
                      tols["quadrature_cross"])
    height = suites["height"]
    fails += near("verify omega4", height.get("omega4"), refs["verify_omega4"])
    fails += near("verify lambda0", height.get("lambda0"), refs["lambda0"])
    mult = suites["multipliers"]
    claims = refs["claims"]
    if mult.get("n_claims") != len(claims) or mult.get("failed") != []:
        fails.append(f"multipliers: {mult.get('n_claims')} claims, "
                     f"failed {mult.get('failed')}; expected {len(claims)}, none failed")
    fails += near("quotient cutoff", mult.get("quotient_cutoff"), refs["quotient_cutoff"])
    _, rows = _csv(_one(out_dir, "class_*.csv"))
    if sorted({r[0] for r in rows}) != sorted(claims):
        fails.append("class csv symbols differ from the reference claims")
    return fails


def _read_grid_field(path: str, shape) -> np.ndarray:
    """Level-0 samples of a field CSV as a complex array of the grid shape."""
    out = np.full(tuple(shape), np.nan + 0j)
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row in reader:
            if row[0] == "0":
                out[int(row[1]), int(row[2])] = float(row[3]) + 1j * float(row[4])
    return out


def check_solve(out_dir: str, refs: dict, tols: dict, field_paths=(), **_) -> list[str]:
    fails = []
    shape = refs["solve_shape"]
    head, rows = _csv(_one(out_dir, "solve_*_residuals.csv"))
    if head != ["k0", "k1", "ode_residual", "interface_residual"]:
        fails.append(f"residual csv header {head}")
    if len(rows) != shape[0] * shape[1] - 1:
        fails.append(f"residual csv has {len(rows)} modes, expected {shape[0] * shape[1] - 1}")
    if rows:
        ode = max(float(r[2]) for r in rows)
        iface = max(float(r[3]) for r in rows)
        fails += _at_most("solve worst ODE residual", ode, tols["ode_residual"])
        fails += _at_most("solve worst interface residual", iface, tols["interface_residual"])
    names = [f"u_plus_{j}" for j in (1, 2, 3)] + [f"u_minus_{j}" for j in (1, 2, 3)]
    for name in names + ["pressure", "height"]:
        for ext in ("csv", "json"):
            if len(glob.glob(os.path.join(out_dir, f"solve_*_{name}.{ext}"))) != 1:
                fails.append(f"solve output {name}.{ext} missing")
    if fails:
        return fails
    # tangential velocity jump at the interface: u_minus_J - u_plus_J = h_J
    for j, base in enumerate(field_paths[:2], start=1):
        h = _read_grid_field(base + ".csv", shape)
        up = _read_grid_field(_one(out_dir, f"solve_*_u_plus_{j}.csv"), shape)
        um = _read_grid_field(_one(out_dir, f"solve_*_u_minus_{j}.csv"), shape)
        err = float(np.max(np.abs(um - up - h))) / float(np.max(np.abs(h)))
        if not err <= tols["velocity_jump_rel"]:
            fails.append(f"velocity jump {j} misses h_{j} by {err:.3e} (relative)")
    return fails


CHECKS = {
    "scan-lopatinski": check_scan_lopatinski,
    "scan-height": check_scan_height,
    "kernel-decay": check_kernel_decay,
    "verify": check_verify,
    "solve": check_solve,
}


def check_output(command: str, out_dir: str, refs: dict, tols: dict,
                 seed: int, field_paths=()) -> list[str]:
    """Failures of one command's outputs; a missing or malformed file fails."""
    try:
        return CHECKS[command](out_dir, refs, tols, seed=seed, field_paths=field_paths)
    except (OSError, ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return [f"{command} outputs unreadable: {type(exc).__name__}: {exc}"]
