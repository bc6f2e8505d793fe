"""Self-test of the benchmark at toy size (about two minutes on 2 cores):

    python3 perfbench/selftest.py

It checks that
1. every metric the benchmark prints, traced and untraced, has the name and
   unit listed in BENCHMARK.json, and every listed metric is printed;
2. the traced run records spans in every layer each workload touches, and
   none in the layers a workload is meant to leave idle;
3. the output checker fails when handed a deliberately wrong reference value,
   a tolerance that cannot hold, or a report whose certified number was
   altered (caught by the independent mpmath recomputation).
Exit code 0 means every check passed.
"""

from __future__ import annotations

import copy
import glob
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import workloads  # noqa: E402

TOUCHED = {
    "verify": {"params", "symbols", "kernels", "lopatinski", "coefficients",
               "resolvent", "multiplier", "reports", "config", "cli"},
    "scans": {"params", "symbols", "kernels", "lopatinski", "coefficients",
              "transform", "reports", "config", "cli"},
    "solve3d": {"params", "symbols", "kernels", "lopatinski", "coefficients",
                "resolvent", "transform", "reports", "config", "cli"},
}
IDLE = {"verify": {"transform"}, "scans": {"resolvent", "multiplier"},
        "solve3d": {"multiplier"}}

# (command, where in the references, what to break it with)
WRONG_REFERENCES = (
    ("scan-lopatinski", ("omega", "value"), lambda v: v * (1 + 1e-3)),
    ("scan-height", ("omega4", "value"), lambda v: v * (1 + 1e-3)),
    ("kernel-decay", ("decay_constant", "2", "value"), lambda v: v * (1 + 1e-3)),
    ("verify", ("quotient_cutoff", "value"), lambda v: v * (1 + 1e-3)),
    ("verify", ("claims",), lambda v: v[:-1]),
)


def _bench_metrics() -> tuple[dict, dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return ({m["name"]: m["unit"] for m in doc["end_to_end"]},
            {m["name"]: m["unit"] for m in doc["per_layer"]})


def _run_toy(workload: str, trace: int) -> tuple[dict, dict]:
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if out.returncode != 0:
        raise RuntimeError(f"run.py {workload} failed: {out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    summary_line = [ln for ln in lines if ln.strip().startswith("summary ")]
    with open(summary_line[-1].split(None, 1)[1], "r", encoding="utf-8") as fh:
        summary = json.load(fh)
    return json.loads(lines[-1]), summary


def test_metric_names(problems: list[str]) -> None:
    e2e, layer = _bench_metrics()
    for wl in workloads.NAMES:
        for trace, want in ((0, e2e), (1, layer)):
            result, summary = _run_toy(wl, trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(
                    f"{wl} trace {trace}: printed metrics differ from BENCHMARK.json: "
                    f"missing {sorted(set(want) - set(got))}, "
                    f"extra {sorted(set(got) - set(want))}, "
                    f"unit mismatch {sorted(k for k in got if k in want and got[k] != want[k])}")
            if result["correct"] is not True or result["failed"] != 0:
                problems.append(f"{wl} trace {trace}: toy run not correct: {result}")
            if trace:
                seen = set(summary["trace"]["layers_seen"])
                if not TOUCHED[wl] <= seen:
                    problems.append(f"{wl}: no spans in layers {sorted(TOUCHED[wl] - seen)}")
                if seen & IDLE[wl]:
                    problems.append(f"{wl}: spans in idle layers {sorted(seen & IDLE[wl])}")
                if summary["trace"]["absent"]:
                    problems.append(f"{wl}: absent spans {summary['trace']['absent']}")


def _toy_outputs(work: str) -> dict[str, tuple[str, workloads.Workload]]:
    """Run every toy command once; returns command -> (output dir, workload)."""
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    env.pop("LOPSTOKES_OUT", None)
    outs = {}
    for name in workloads.NAMES:
        wl = workloads.build(name, 5, os.path.join(work, name), toy=True)
        for cmd in wl.commands:
            out = os.path.join(work, name, "out-" + cmd.name)
            os.makedirs(out)
            subprocess.run([sys.executable, "-c", workloads.LAUNCH, *cmd.for_out(out)],
                           cwd=ROOT, env=env, capture_output=True, timeout=300,
                           check=True)
            outs[cmd.name] = (out, wl)
    return outs


def _set(doc: dict, path: tuple, fn) -> None:
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = fn(doc[path[-1]])


def test_checker_rejects(problems: list[str]) -> None:
    refs = checks.load_references()
    toy, tols = refs["toy"], refs["tolerances"]
    work = os.path.join(ROOT, ".perfbench", f"selftest-{os.getpid()}")
    try:
        outs = _toy_outputs(work)
        for cmd, (out, wl) in outs.items():
            fails = checks.check_output(cmd, out, toy, tols, wl.seed, wl.field_paths)
            if fails:
                problems.append(f"checker rejects correct {cmd} output: {fails}")
        for cmd, path, breaker in WRONG_REFERENCES:
            out, wl = outs[cmd]
            bad = copy.deepcopy(toy)
            _set(bad, path, breaker)
            if not checks.check_output(cmd, out, bad, tols, wl.seed, wl.field_paths):
                problems.append(f"checker accepts {cmd} with wrong reference {path}")
        out, wl = outs["solve"]
        strict = dict(tols, ode_residual=1e-30)
        if not checks.check_output("solve", out, toy, strict, wl.seed, wl.field_paths):
            problems.append("checker accepts solve residuals above an impossible tolerance")
        # alter the certified omega in the report and move the reference with it:
        # only the independent recomputation can notice
        out, wl = outs["scan-lopatinski"]
        path = glob.glob(os.path.join(out, "scan_*.json"))[0]
        with open(path, "r", encoding="utf-8") as fh:
            rep = json.load(fh)
        omega = rep["omega"] * (1 + 1e-6)
        rep["omega"] = rep["worst_point"]["ratio"] = omega
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rep, fh)
        moved = copy.deepcopy(toy)
        moved["omega"]["value"] = omega
        fails = checks.check_output("scan-lopatinski", out, moved, tols, wl.seed)
        if not any("mpmath" in f for f in fails):
            problems.append(f"independent check misses an altered omega: {fails}")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main() -> int:
    problems: list[str] = []
    test_checker_rejects(problems)
    test_metric_names(problems)
    for p in problems:
        print(f"FAIL {p}")
    print("selftest: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
