"""Deterministic report serialization: canonical JSON, CSV tables, config hashes.

Reports are append-only artifacts named by a content hash of the effective
run configuration, so re-running the same study overwrites byte-identical
files and distinct studies never collide.  Nothing here embeds timestamps,
hostnames, or float formatting that could vary between runs; floats are
written with repr (shortest round-trip form).  CSV writers take whole
columns (arrays in grid order) of equal length, and format and write them
one block of rows at a time, so the text held at once does not grow with
the row count; the scan CSV is written from the scan_rows texts of
consecutive runs of points, formatted by the same code.  Within a block
each distinct value of a column is formatted once: floats are keyed by
their 64-bit pattern, so 0.0 and -0.0, and NaNs of different payloads,
stay apart, and the text is gathered back by index.
Rows are joined with commas; string cells are quoted by the csv module's
minimal rule, once per distinct string of a block.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from contextlib import contextmanager
from typing import TYPE_CHECKING, Sequence

import numpy as np

from . import config
from .config import RunConfig, config_document
from .errors import ConfigError
from .params import FluidParams

if TYPE_CHECKING:
    from .transform import PhysicalField

__all__ = [
    "jsonable",
    "canonical_json",
    "config_hash",
    "write_json",
    "scan_rows",
    "write_scan_rows",
    "write_height_csv",
    "write_class_csv",
    "write_decay_csv",
    "write_field",
    "read_field",
    "write_residual_csv",
    "replaced",
    "ensure_out_dir",
]


def _number(x: float):
    """x itself when finite, else the string "nan", "inf" or "-inf"."""
    return x if math.isfinite(x) else repr(x)


def jsonable(obj):
    """Recursively convert to strict-JSON values: complex -> {re, im}, and a
    non-finite float -> "nan", "inf" or "-inf"."""
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, (bool, int, str)) or obj is None:
        return obj
    if isinstance(obj, complex) or isinstance(obj, np.complexfloating):
        return {"re": _number(float(obj.real)), "im": _number(float(obj.imag))}
    if isinstance(obj, (float, np.floating)):
        return _number(float(obj))
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return jsonable(obj.tolist())
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def canonical_json(obj) -> str:
    return json.dumps(jsonable(obj), sort_keys=True, separators=(",", ":"), allow_nan=False)


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
    text = json.dumps(jsonable(obj), sort_keys=True, indent=1, allow_nan=False)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
        fh.write("\n")


def _quoted(text: str) -> str:
    """text as one field of a row of several, quoted as csv.writer quotes it."""
    buf = io.StringIO()
    # a lone empty field would be written as "", so write a second, empty one
    csv.writer(buf, lineterminator="\n").writerow((text, ""))
    return buf.getvalue()[:-2]


def _cells(col: np.ndarray) -> list[str]:
    """One CSV column as text: floats by repr, integers by str, strings quoted.

    Each distinct value is formatted once, floats keyed by their bit pattern.
    """
    kind = col.dtype.kind
    if kind == "f":
        keys, inv = np.unique(col.astype(np.float64, copy=False).view(np.int64),
                              return_inverse=True)
        text = map(repr, keys.view(np.float64).tolist())
    else:
        keys, inv = np.unique(col, return_inverse=True)
        text = map(str if kind in "iu" else _quoted, keys.tolist())
    return np.array(list(text), dtype=object)[inv].tolist()


# rows formatted and written at once: the 190,333-row scan CSV writes as fast
# in blocks of 16,384 rows as in one (8,192 was sometimes slower), and the
# write's traced peak falls from 21 MB to under 6 MB
_CSV_BLOCK = 16384

_SCAN_HEADER = ("re_lambda", "im_lambda", "A", "abs_detL", "ratio")


def _rows(columns) -> str:
    """The CSV text of the rows of equal-length columns, each distinct value
    of a column formatted once."""
    return "\n".join(map(",".join, zip(*map(_cells, columns)))) + "\n"


def _blocks(header: Sequence[str], columns: Sequence):
    """The _rows texts of equal-length columns, one per block of _CSV_BLOCK
    rows, formatted as they are taken; unequal lengths raise ValueError."""
    columns = [np.asarray(col) for col in columns]
    lengths = [len(col) for col in columns]
    if len(set(lengths)) > 1:
        raise ValueError(f"CSV columns of unequal length {lengths} under {list(header)}")
    return (_rows([col[start:start + _CSV_BLOCK] for col in columns])
            for start in range(0, lengths[0] if lengths else 0, _CSV_BLOCK))


def _write_text(path: str, header: Sequence[str], blocks) -> None:
    """Write the header, then each text block in turn."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(map(_quoted, header)) + "\n")
        for text in blocks:
            fh.write(text)


def _write_csv(path: str, header: Sequence[str], columns: Sequence) -> None:
    """Write equal-length columns under header, a block of rows at a time."""
    _write_text(path, header, _blocks(header, columns))


def scan_rows(lam, a, absdet, ratio) -> str:
    """The scan CSV rows of these points, without the header, formatted a
    block at a time: a run of points in grid order gives its run of rows."""
    lam = np.asarray(lam, dtype=np.complex128)
    return "".join(_blocks(_SCAN_HEADER, (lam.real, lam.imag, a, absdet, ratio)))


def write_scan_rows(path: str, texts) -> None:
    """The per-point determinant scan CSV from the scan_rows texts of
    consecutive runs of points in grid order, written one at a time as they
    are taken."""
    _write_text(path, _SCAN_HEADER, texts)


def write_height_csv(path: str, mags: Sequence[float], ratios: Sequence[float]) -> None:
    """Plot-ready per-magnitude minimum of |lambda+K|/(|lambda|+A)."""
    _write_csv(path, ("lam_mag", "min_ratio"), (mags, ratios))


def write_class_csv(path: str, reports) -> None:
    """One row per certified derivative: the contract columns plus the
    symbol name keying them."""
    rows = [(rep.name, "".join(str(k) for k in kappa), str(ell), c, drift)
            for rep in reports for kappa, ell, c, drift in rep.rows()]
    _write_csv(path, ("symbol", "kappa_multi_index", "ell", "constant",
                      "refinement_drift"), tuple(zip(*rows)))


def write_decay_csv(path: str, report) -> None:
    _write_csv(path, ("shell_radius", "sup_weighted", "n_points"),
               tuple(zip(*report.shells)))


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

    n_levels = len(field.x_levels)
    level = np.repeat(np.arange(n_levels), math.prod(field.grid_shape))
    idx = np.tile(np.indices(field.grid_shape).reshape(d, -1), n_levels)
    values = field.samples.reshape(-1)
    _write_csv(csv_path, ("level", *idx_names, "re", "im"),
               (level, *idx, values.real, values.imag))
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
    """Read back a field written by write_field (also the solve input format).

    The CSV is parsed in one pass, by column type; rows it does not list
    stay zero.  Malformed input (bad JSON, a missing or bad header key, a
    bad cell, a non-finite value, a wrong column count, an index outside the
    header's grid or one an earlier row gave) raises ConfigError naming the
    file.  The header's numbers are read as the config's are.
    """
    from .transform import PhysicalField

    json_path, csv_path = base_path + ".json", base_path + ".csv"

    def numbers(key: str, integer: bool = False) -> tuple:
        return tuple(config._number(x, f"{json_path}: {key}[{i}]", integer)
                     for i, x in enumerate(header[key]))

    try:
        with open(json_path, "r", encoding="utf-8") as fh:
            header = json.load(fh)
        shape, levels = numbers("shape", integer=True), numbers("x_levels")
        # the header alone builds, and so validates, the all-zero field
        field = PhysicalField(box_lengths=numbers("box"), grid_shape=shape, x_levels=levels,
                              samples=np.zeros((len(levels),) + shape, dtype=np.complex128))
    except KeyError as exc:
        raise ConfigError(f"{json_path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{json_path}: {exc}") from exc

    d = len(shape)
    names = ("level", *(f"index {k}" for k in range(d)))
    dtype = [(name, np.int64) for name in names] + [("re", np.float64), ("im", np.float64)]
    try:
        with open(csv_path, "r", encoding="utf-8") as fh:
            head, _, body = fh.read().partition("\n")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{csv_path}: {exc}") from exc
    n_cols = len(head.split(","))
    if n_cols != d + 3:
        raise ConfigError(f"{csv_path}: expected {d + 3} columns, got {n_cols}")
    try:
        rows = (np.loadtxt(io.StringIO(body), delimiter=",", dtype=dtype, comments=None,
                           ndmin=1)
                if body.strip() else np.zeros(0, dtype=dtype))
    except ValueError as exc:
        raise ConfigError(f"{csv_path}: {_bad_row(body, d) or exc}") from exc

    index = tuple(rows[name] for name in names)
    for name, col, n in zip(names, index, field.samples.shape):
        bad = np.flatnonzero((col < 0) | (col >= n))
        if bad.size:
            raise ConfigError(f"{csv_path}: data row {bad[0] + 1}: {name} "
                              f"{col[bad[0]]} outside [0, {n})")
    bad = np.flatnonzero(~(np.isfinite(rows["re"]) & np.isfinite(rows["im"])))
    if bad.size:
        raise ConfigError(f"{csv_path}: data row {bad[0] + 1}: non-finite value "
                          f"{complex(rows['re'][bad[0]], rows['im'][bad[0]])!r}")
    flat = np.ravel_multi_index(index, field.samples.shape)
    first = np.zeros(flat.size, dtype=bool)
    first[np.unique(flat, return_index=True)[1]] = True
    if not first.all():
        row = np.flatnonzero(~first)[0]
        raise ConfigError(f"{csv_path}: data row {row + 1}: same {'/'.join(names)} as "
                          f"data row {np.flatnonzero(flat == flat[row])[0] + 1}")
    field.samples[index] = rows["re"] + 1j * rows["im"]
    return header, field


def _bad_row(body: str, d: int) -> str | None:
    """The first data row of a field CSV body that does not parse, in words."""
    rows = (line for line in body.splitlines() if line.strip())
    for n, line in enumerate(rows, start=1):
        cells = line.split(",")
        if len(cells) != d + 3:
            return f"data row {n}: expected {d + 3} cells, got {len(cells)}"
        try:
            for i, cell in enumerate(cells):
                (int if i <= d else float)(cell)
        except ValueError as exc:
            return f"data row {n}: {exc}"
    return None


def write_residual_csv(path: str, grid_shape: Sequence[int], modes, residuals) -> None:
    """Solve sidecar: a row of ODE and interface defects per mode, the
    (M, 2) residuals of the flat C-order grid indices modes."""
    idx = np.unravel_index(np.asarray(modes, dtype=np.int64), tuple(grid_shape))
    vals = np.asarray(residuals, dtype=np.float64).reshape(-1, 2)
    _write_csv(path, (*("k0", "k1")[:len(idx)], "ode_residual", "interface_residual"),
               (*idx, *vals.T))


@contextmanager
def replaced(path: str):
    """A temporary path beside path, moved onto path by os.replace when the
    block ends without an error and removed when it raises, so a failed
    write leaves path as it was."""
    head, tail = os.path.split(path)
    tmp = os.path.join(head, f".{tail}.{os.getpid()}.tmp")
    try:
        yield tmp
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise
    os.replace(tmp, path)


def ensure_out_dir(path: str) -> str:
    os.makedirs(path, exist_ok=True)
    return path
