"""Deterministic report serialization: canonical JSON, CSV tables, config hashes.

Reports are append-only artifacts named by a content hash of the effective
run configuration, so re-running the same study overwrites byte-identical
files and distinct studies never collide.  Nothing here embeds timestamps,
hostnames, or float formatting that could vary between runs; floats are
written with repr (shortest round-trip form).
"""

from __future__ import annotations

import csv
import hashlib
import json
import os
from typing import Iterable, Sequence

import numpy as np

from .config import GridSpec, RunConfig, config_document
from .lopatinski import det_ratios
from .params import FluidParams, Sector
from .transform import PhysicalField

__all__ = [
    "jsonable",
    "canonical_json",
    "config_hash",
    "write_json",
    "scan_rows",
    "write_scan_csv",
    "write_height_csv",
    "write_class_csv",
    "write_decay_csv",
    "write_field",
    "read_field",
    "write_residual_csv",
    "ensure_out_dir",
]


def jsonable(obj):
    """Recursively convert to JSON-encodable values; complex -> {re, im}."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, complex) or isinstance(obj, np.complexfloating):
        return {"re": float(obj.real), "im": float(obj.imag)}
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def canonical_json(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"))


def config_hash(cfg: RunConfig, extra: dict | None = None) -> str:
    """12-hex content hash of the effective configuration.

    The hashed document excludes the output directory (it changes where,
    never what); extra carries CLI-level overrides such as the tolerance
    scale.
    """
    doc = config_document(cfg)
    if extra:
        doc = {**doc, **extra}
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()[:12]


def write_json(path: str, obj) -> None:
    text = json.dumps(jsonable(obj), sort_keys=True, indent=1)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
        fh.write("\n")


def _fmt(v) -> str:
    return repr(float(v))


def _write_csv(path: str, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(header)
        for row in rows:
            w.writerow([c if isinstance(c, str) else
                        (str(c) if isinstance(c, (int, np.integer)) else _fmt(c))
                        for c in row])


def scan_rows(fluid: FluidParams, sector: Sector, grid: GridSpec):
    """Per-point determinant scan rows in deterministic grid order."""
    lam, a = grid.points(sector.epsilon)
    absdet, ratio = det_ratios(fluid, lam, a)
    for i in range(lam.size):
        yield (float(lam[i].real), float(lam[i].imag), float(a[i]),
               float(absdet[i]), float(ratio[i]))


def write_scan_csv(path: str, rows: Iterable[Sequence[float]]) -> None:
    _write_csv(path, ("re_lambda", "im_lambda", "A", "abs_detL", "ratio"), rows)


def write_height_csv(path: str, mags: Sequence[float], ratios: Sequence[float]) -> None:
    """Plot-ready per-magnitude minimum of |lambda+K|/(|lambda|+A)."""
    _write_csv(path, ("lam_mag", "min_ratio"),
               zip((float(m) for m in mags), (float(r) for r in ratios)))


def write_class_csv(path: str, reports) -> None:
    """One row per certified derivative: the contract columns plus the
    symbol name keying them."""
    def rows():
        for rep in reports:
            for kappa, ell, c, drift in rep.rows():
                yield (rep.name, "".join(str(k) for k in kappa), str(ell),
                       c, drift)
    _write_csv(path, ("symbol", "kappa_multi_index", "ell", "constant",
                      "refinement_drift"), rows())


def write_decay_csv(path: str, report) -> None:
    _write_csv(path, ("shell_radius", "sup_weighted", "n_points"),
               ((lo, w, int(c)) for lo, w, c in report.to_rows()))


def write_field(base_path: str, field: PhysicalField, lam: complex,
                fluid: FluidParams, name: str) -> tuple[str, str]:
    """Write one field as CSV samples plus a JSON header.

    CSV columns are the level index, the tangential grid indices, re, im;
    the header records box, shape, x_levels, lambda, and the parameter set.
    Returns (csv path, json path).
    """
    d = len(field.grid_shape)
    idx_names = ("i", "j")[:d]
    csv_path = base_path + ".csv"
    json_path = base_path + ".json"

    def rows():
        for li in range(len(field.x_levels)):
            level = field.samples[li]
            for idx in np.ndindex(field.grid_shape):
                v = level[idx]
                yield (li, *[int(k) for k in idx], float(v.real), float(v.imag))

    _write_csv(csv_path, ("level", *idx_names, "re", "im"), rows())
    write_json(json_path, {
        "name": name,
        "box": list(field.box_lengths),
        "shape": list(field.grid_shape),
        "x_levels": list(field.x_levels),
        "lambda": complex(lam),
        "fluid": fluid.to_dict(),
    })
    return csv_path, json_path


def read_field(base_path: str) -> tuple[dict, PhysicalField]:
    """Read back a field written by write_field (also the solve input format)."""
    with open(base_path + ".json", "r", encoding="utf-8") as fh:
        header = json.load(fh)
    shape = tuple(int(n) for n in header["shape"])
    levels = tuple(float(x) for x in header["x_levels"])
    samples = np.zeros((len(levels),) + shape, dtype=np.complex128)
    with open(base_path + ".csv", "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        head = next(reader)
        d = len(shape)
        if len(head) != d + 3:
            raise ValueError(f"{base_path}.csv: expected {d + 3} columns, got {len(head)}")
        for row in reader:
            li = int(row[0])
            idx = tuple(int(c) for c in row[1:1 + d])
            samples[(li,) + idx] = float(row[1 + d]) + 1j * float(row[2 + d])
    field = PhysicalField(box_lengths=tuple(float(b) for b in header["box"]),
                          grid_shape=shape, x_levels=levels, samples=samples)
    return header, field


def write_residual_csv(path: str, grid_shape: Sequence[int],
                       mode_residuals: dict) -> None:
    """Solve sidecar: per-mode ODE and interface defects in grid order."""
    d = len(grid_shape)
    idx_names = ("k0", "k1")[:d]

    def rows():
        for idx in sorted(mode_residuals):
            ode, iface = mode_residuals[idx]
            yield (*[int(k) for k in idx], float(ode), float(iface))

    _write_csv(path, (*idx_names, "ode_residual", "interface_residual"), rows())


def ensure_out_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path
