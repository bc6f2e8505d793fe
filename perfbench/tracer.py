"""Layer tracing from outside the program.

Run as a program, this executes one `lopstokes` command in-process through
`lopstokes.cli.main(argv)` after wrapping the public functions of every
layer module, in every `lopstokes` namespace that binds them, and writes the
recorded spans to a JSON file when the command ends:

    python3 perfbench/tracer.py --spans FILE --run-id ID -- verify --config C ...

Each span holds its name, start, end, parent span and error flag; the file
carries the run id shared by all of its spans.  Nothing in the program is
edited, so the trace follows whatever the command actually calls; a named
span whose function no longer exists is listed as absent instead of failing.

Imported, `aggregate()` turns span files into the per-layer metrics.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import json
import os
import resource
import sys
import time

import numpy as np

LAYERS = ("params", "symbols", "kernels", "lopatinski", "coefficients",
          "resolvent", "multiplier", "transform", "reports", "config", "cli")

# Methods wrapped besides the module-level functions: (layer, class, method).
_METHODS = (("coefficients", "SymbolKit", "batch"),)

# Spans the per-layer metrics read; any the program lacks are reported absent.
NAMED_SPANS = (
    "kernels.detscan_batch", "kernels.heightscan_batch",
    "lopatinski.scan_lower_bound", "lopatinski.asymptotic_report",
    "lopatinski.assemble",
    "coefficients.height_scan", "coefficients.SymbolKit.batch",
    "coefficients.solve_betas",
    "resolvent.fuzz_residuals", "resolvent.assemble_profiles",
    "resolvent.ode_residual", "resolvent.interface_residual",
    "resolvent.decay_margin", "resolvent.energy_balance",
    "resolvent.energy_quadrature_check",
    "multiplier.certify_table", "multiplier.class_cutoff",
    "transform.solve_physical", "transform.kernel_decay_check",
    "reports.read_field", "reports.write_json",
    "config.load_config", "cli.main",
)

_RESOLVENT_PER_CALL = ("assemble_profiles", "ode_residual", "interface_residual",
                       "decay_margin", "energy_balance")


def _layer_of(module_name: str) -> str | None:
    parts = module_name.split(".")
    if len(parts) >= 2 and parts[0] == "lopstokes" and parts[1] in LAYERS:
        return parts[1]
    return None


# -- counting hooks: (args, kwargs, result) -> work items of the span --------

def _first_size(args, kwargs, result):
    return int(np.size(args[0]))


def _symbolkit_points(args, kwargs, result):
    return int(np.size(args[2]))          # (cls, fluid, lam, a)


def _csv_rows(path: str) -> tuple[int, int]:
    with open(path, "rb") as fh:
        data = fh.read()
    return max(data.count(b"\n") - 1, 0), len(data)


def _csv_path(args, result) -> str | None:
    cands = [c for c in (result if isinstance(result, tuple) else ())
             if isinstance(c, str)]
    if args and isinstance(args[0], str):
        cands += [args[0], args[0] + ".csv"]
    for c in cands:
        if c.endswith(".csv") and os.path.isfile(c):
            return c
    return None


class Tracer:
    """Spans and counters of one traced command, kept in memory until dump()."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.names: list[str] = []
        self._name_idx: dict[str, int] = {}
        # each span: [name index, parent span, start ns, end ns, error, items]
        self.spans: list[list[int]] = []
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.wrapped: set[str] = set()
        self.hook_errors = 0
        self._hooks = {
            "kernels.detscan_batch": _first_size,
            "kernels.heightscan_batch": _first_size,
            "coefficients.SymbolKit.batch": _symbolkit_points,
            "resolvent.fuzz_residuals": lambda a, k, r: int(r.n_samples),
            "transform.solve_physical": lambda a, k, r: len(r.mode_residuals),
            "reports.read_field": lambda a, k, r: int(r[1].samples.size),
            "multiplier.certify_table": self._certify_counts,
        }
        self._rss_before: list[int] = []

    def _count(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _certify_counts(self, args, kwargs, table) -> int:
        kappas = len(getattr(sys.modules.get("lopstokes.multiplier"), "KAPPAS", ()))
        for rep in table:
            self._count("multiplier.claims", 1)
            self._count("multiplier.claims_passed", int(rep.verdict == "pass"))
            self._count("multiplier.fd_discarded", int(rep.discarded))
            # every claim estimates len(KAPPAS) derivatives at ell = 0 and 1
            # on each point of the base and the refined grid
            self._count("multiplier.fd_estimates",
                        2 * kappas * (int(rep.n_base) + int(rep.n_refined)))
        return len(table)

    def _csv_hook(self, args, kwargs, result) -> int:
        path = _csv_path(args, result)
        if path is None:
            return 0
        rows, size = _csv_rows(path)
        self._count("reports.csv_bytes", size)
        return rows

    def _hook_for(self, name: str):
        if name in self._hooks:
            return self._hooks[name]
        if name.startswith("reports.write_") and name != "reports.write_json":
            return self._csv_hook
        return None

    def wrap(self, name: str, fn):
        if name not in self._name_idx:
            self._name_idx[name] = len(self.names)
            self.names.append(name)
        idx = self._name_idx[name]
        hook = self._hook_for(name)
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        track_rss = name == "multiplier.certify_table"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [idx, stack[-1] if stack else -1, 0, 0, 0, 0]
            sid = len(spans)
            spans.append(rec)
            stack.append(sid)
            if track_rss:
                self._rss_before.append(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
            rec[2] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                rec[4] = 1
                raise
            finally:
                rec[3] = clock()
                stack.pop()
                if track_rss:
                    grown = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss \
                        - self._rss_before.pop()
                    self._count("multiplier.rss_growth_kb", grown)
            if hook is not None:
                try:
                    rec[5] = int(hook(args, kwargs, result))
                except Exception:           # a renamed attribute must not stop the run
                    self.hook_errors += 1
            return result

        self.wrapped.add(name)
        return wrapper

    def install(self) -> None:
        """Wrap every public layer function in every namespace binding it."""
        mods = [m for n, m in list(sys.modules.items())
                if m is not None and (n == "lopstokes" or n.startswith("lopstokes."))]
        replace: dict[int, tuple[object, object]] = {}
        for mod in mods:
            layer = _layer_of(mod.__name__)
            if layer is None:
                continue
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__ or id(obj) in replace):
                    continue
                replace[id(obj)] = (obj, self.wrap(f"{layer}.{attr}", obj))
        for mod in mods:
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, attr, hit[1])
        for layer, cls_name, meth in _METHODS:
            cls = getattr(sys.modules.get(f"lopstokes.{layer}"), cls_name, None)
            raw = vars(cls).get(meth) if isinstance(cls, type) else None
            if isinstance(raw, classmethod):
                setattr(cls, meth, classmethod(
                    self.wrap(f"{layer}.{cls_name}.{meth}", raw.__func__)))

    def dump(self, path: str, grid_points: int) -> None:
        doc = {
            "run_id": self.run_id,
            "names": self.names,
            "spans": self.spans,
            "counters": self.counters,
            "absent": sorted(set(NAMED_SPANS) - self.wrapped),
            "hook_errors": self.hook_errors,
            "grid_points": grid_points,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _grid_points(argv: list[str]) -> int:
    """Points in one pass over the command's scan grid (0 if unknown)."""
    try:
        from lopstokes.config import default_config, load_config
        cfg = (load_config(argv[argv.index("--config") + 1])
               if "--config" in argv else default_config())
        g = cfg.grid
        return int(g.lam_mags().size * g.n_angles * g.a_vals().size)
    except Exception:                       # the metric is dropped, not the run
        return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spans", required=True, help="span file to write")
    ap.add_argument("--run-id", required=True)
    ap.add_argument("command", nargs=argparse.REMAINDER,
                    help="-- followed by the lopstokes arguments")
    args = ap.parse_args(argv)
    cmd = args.command[1:] if args.command[:1] == ["--"] else args.command

    import lopstokes.cli

    grid_points = _grid_points(cmd)
    tracer = Tracer(args.run_id)
    tracer.install()
    try:
        return lopstokes.cli.main(cmd)
    finally:
        tracer.dump(args.spans, grid_points)


# -- aggregation --------------------------------------------------------------

def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num / den * scale if den else 0.0


def aggregate(span_files: list[str]) -> tuple[dict[str, float], dict]:
    """Per-layer metrics over the span files of one traced pass.

    Returns (metrics, detail): the metrics a trace gives, and for reference
    the per-name calls/self/total times, the absent spans and the layers
    that recorded any span.
    """
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    items: dict[str, int] = {}
    errors: dict[str, int] = {}
    counters: dict[str, float] = {}
    absent: set[str] = set()
    stencil_points = 0
    grid_points = 0
    hook_errors = 0
    for path in span_files:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
        names, spans = doc["names"], doc["spans"]
        absent.update(doc["absent"])
        hook_errors += doc["hook_errors"]
        grid_points = max(grid_points, doc["grid_points"])
        for k, v in doc["counters"].items():
            counters[k] = counters.get(k, 0) + v
        child = [0] * len(spans)
        for name_i, parent, start, end, err, n in spans:
            if parent >= 0:
                p = spans[parent]
                child[parent] += max(0, min(end, p[3]) - max(start, p[2]))
        in_mult = [False] * len(spans)
        for sid, (name_i, parent, start, end, err, n) in enumerate(spans):
            name = names[name_i]
            in_mult[sid] = name.startswith("multiplier.") or (
                parent >= 0 and in_mult[parent])
            if name == "coefficients.SymbolKit.batch" and parent >= 0 and in_mult[parent]:
                stencil_points += n
            dur = (end - start) * 1e-9
            calls[name] = calls.get(name, 0) + 1
            total_s[name] = total_s.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + dur - child[sid] * 1e-9
            items[name] = items.get(name, 0) + n
            errors[name] = errors.get(name, 0) + err

    def c(n):
        return calls.get(n, 0)

    def s(n):
        return self_s.get(n, 0.0)

    def t(n):
        return total_s.get(n, 0.0)

    def i(n):
        return items.get(n, 0)

    m: dict[str, float] = {}
    for k in ("kernels.detscan_batch", "kernels.heightscan_batch",
              "coefficients.SymbolKit.batch"):
        m[f"{k}.calls"] = c(k)
        m[f"{k}.points"] = i(k)
        m[f"{k}.us_per_point"] = _ratio(t(k), i(k), 1e6)
    m["lopatinski.scan_lower_bound.self_s"] = s("lopatinski.scan_lower_bound")
    m["lopatinski.asymptotic_report.self_s"] = s("lopatinski.asymptotic_report")
    for k in ("lopatinski.assemble", "coefficients.solve_betas",
              *(f"resolvent.{fn}" for fn in _RESOLVENT_PER_CALL)):
        m[f"{k}.calls"] = c(k)
        m[f"{k}.us_per_call"] = _ratio(t(k), c(k), 1e6)
    m["coefficients.height_passes"] = _ratio(i("kernels.heightscan_batch"), grid_points)
    m["coefficients.height_scan.self_s"] = s("coefficients.height_scan")
    fz = "resolvent.fuzz_residuals"
    m[f"{fz}.samples"] = i(fz)
    m[f"{fz}.self_s"] = s(fz)
    m[f"{fz}.ms_per_sample"] = _ratio(t(fz), i(fz), 1e3)
    eq = "resolvent.energy_quadrature_check"
    m[f"{eq}.calls"] = c(eq)
    m[f"{eq}.self_s"] = s(eq)
    m["resolvent.errors"] = sum(v for k, v in errors.items() if k.startswith("resolvent."))
    m["multiplier.certify_table.self_s"] = s("multiplier.certify_table")
    m["multiplier.class_cutoff.self_s"] = s("multiplier.class_cutoff")
    for k in ("claims", "claims_passed", "fd_estimates", "fd_discarded"):
        m[f"multiplier.{k}"] = counters.get(f"multiplier.{k}", 0)
    m["multiplier.stencil_points"] = stencil_points
    est = counters.get("multiplier.fd_estimates", 0)
    m["multiplier.resolved_ratio"] = (
        1.0 - counters.get("multiplier.fd_discarded", 0) / est if est else 0.0)
    m["multiplier.rss_growth_mb"] = counters.get("multiplier.rss_growth_kb", 0) / 1024.0
    sp = "transform.solve_physical"
    m[f"{sp}.modes"] = i(sp)
    m[f"{sp}.self_s"] = s(sp)
    m[f"{sp}.ms_per_mode"] = _ratio(t(sp), i(sp), 1e3)
    m["transform.kernel_decay_check.calls"] = c("transform.kernel_decay_check")
    m["transform.kernel_decay_check.self_s"] = s("transform.kernel_decay_check")
    writers = [k for k in calls if k.startswith("reports.write_")
               and k != "reports.write_json"]
    rows = sum(i(k) for k in writers)
    write_self = sum(s(k) for k in writers)
    m["reports.csv_rows"] = rows
    m["reports.csv_bytes"] = counters.get("reports.csv_bytes", 0)
    m["reports.us_per_row"] = _ratio(write_self, rows, 1e6)
    m["reports.write_csv.self_s"] = write_self
    m["reports.read_field.calls"] = c("reports.read_field")
    m["reports.read_field.rows"] = i("reports.read_field")
    m["reports.read_field.self_s"] = s("reports.read_field")
    m["reports.write_json.calls"] = c("reports.write_json")
    m["reports.write_json.self_s"] = s("reports.write_json")
    m["config.load_config.self_s"] = s("config.load_config")
    layers_seen = sorted({k.split(".")[0] for k in calls})
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(v for k, v in self_s.items()
                                   if k.split(".")[0] == layer)
    m["trace.absent_spans"] = len(absent)
    detail = {
        "calls": calls, "self_s": self_s, "total_s": total_s, "items": items,
        "absent": sorted(absent), "layers_seen": layers_seen,
        "hook_errors": hook_errors, "grid_points": grid_points,
    }
    return m, detail


if __name__ == "__main__":
    sys.exit(main())
