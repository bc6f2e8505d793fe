"""Certification benchmark for the `lopstokes` CLI.

    python3 perfbench/run.py --workload verify --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  Each command of the workload runs
as users run it, one fresh `python3` process per subcommand with the
checkout's `src/` on the path, in a closed loop: one command at a time, the
next only after the previous has exited.  The run

1. writes the workload's inputs from --seed;
2. makes one untimed warm-up pass at toy size, so byte code is compiled;
3. times SETUP_REPEATS children that only import `lopstokes.cli` and load
   the workload's config (setup_s is their median);
4. repeats timed passes while another one still fits in --seconds (a
   second one while it fits in 1.5 x --seconds), each into fresh output
   directories;
5. with --trace 1, adds one traced pass (perfbench/tracer.py) whose reports
   must be byte-identical to the untimed passes';
6. checks every output and prints one JSON object as the last line.

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Exit code 2 means the benchmark could not run at all (no `src/lopstokes`,
or LOPSTOKES_MUTATE set).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_REPEATS = 5
DEADLINE_S = 170.0          # the whole run, including set-up and checks
CLI_COMMANDS = ("verify", "scan-lopatinski", "scan-height", "kernel-decay", "solve")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "NUMBA_NUM_THREADS", "LOPSTOKES_BACKEND")

_SETUP = ("import sys, lopstokes.cli; from lopstokes.config import load_config; "
          "load_config(sys.argv[1])")
_PROVENANCE = """\
import json, platform, numpy, scipy, mpmath, lopstokes.kernels as k
b = getattr(k, "backend_name", None)
print(json.dumps({"python": platform.python_version(), "numpy": numpy.__version__,
                  "scipy": scipy.__version__, "mpmath": mpmath.__version__,
                  "backend": b() if b else "absent"}))
"""


@dataclass
class Proc:
    """One finished child: wall time, its own peak RSS and CPU, exit code."""

    wall_s: float
    maxrss_kb: int
    cpu_s: float
    code: int
    stderr: str = ""


@dataclass
class CmdRun:
    name: str
    out_dir: str
    proc: Proc
    failures: list[str] = field(default_factory=list)


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout()


def run_child(argv: list[str], env: dict, log: str, timeout: float) -> Proc:
    """Run argv to completion; stdout/stderr go to log.out/log.err.

    The child is reaped with wait4, which gives its own peak RSS and CPU.
    A child still running after `timeout` seconds is killed and reported
    with exit code -9.
    """
    with open(log + ".out", "wb") as out, open(log + ".err", "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, stdout=out, stderr=err, cwd=ROOT)
        old = signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, max(timeout, 1.0))
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        except _Timeout:
            proc.kill()
            _, status, ru = os.wait4(proc.pid, 0)
        except BaseException:               # interrupted: leave no child behind
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, old)
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log + ".err", "r", encoding="utf-8", errors="replace") as fh:
        stderr = fh.read()
    return Proc(wall_s=wall, maxrss_kb=ru.ru_maxrss, cpu_s=ru.ru_utime + ru.ru_stime,
                code=proc.returncode, stderr=stderr)


class Bench:
    def __init__(self, args, run_dir: str, env: dict):
        self.args = args
        self.run_dir = run_dir
        self.env = env
        self.deadline = time.monotonic() + DEADLINE_S
        self.refs = checks.load_references()

    def left(self) -> float:
        return self.deadline - time.monotonic()

    def run_pass(self, wl: workloads.Workload, tag: str, traced: bool = False) -> list[CmdRun]:
        runs = []
        for i, cmd in enumerate(wl.commands):
            out = os.path.join(self.run_dir, tag, cmd.name)
            os.makedirs(out)
            if traced:
                argv = [sys.executable, os.path.join(HERE, "tracer.py"),
                        "--spans", os.path.join(self.run_dir, tag, f"spans-{i}.json"),
                        "--run-id", f"{wl.name}-{wl.seed}-{tag}-{i}", "--",
                        *cmd.for_out(out)]
            else:
                argv = [sys.executable, "-c", workloads.LAUNCH, *cmd.for_out(out)]
            proc = run_child(argv, self.env, os.path.join(self.run_dir, tag, cmd.name),
                             self.left())
            runs.append(CmdRun(cmd.name, out, proc))
        return runs

    def setup_times(self, wl: workloads.Workload) -> tuple[list[float], int]:
        times, failed = [], 0
        for k in range(SETUP_REPEATS):
            p = run_child([sys.executable, "-c", _SETUP, wl.config_path], self.env,
                          os.path.join(self.run_dir, f"setup-{k}"), self.left())
            times.append(p.wall_s)
            failed += p.code != 0
        return times, failed

    def provenance(self) -> dict:
        p = run_child([sys.executable, "-c", _PROVENANCE], self.env,
                      os.path.join(self.run_dir, "provenance"), self.left())
        try:
            with open(os.path.join(self.run_dir, "provenance.out"), "r",
                      encoding="utf-8") as fh:
                info = json.load(fh)
        except ValueError:
            info = {"error": p.stderr.strip()[-300:]}
        info.update({
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "threads_env": {v: os.environ.get(v) for v in THREAD_VARS},
            "commit": _git_commit(ROOT),
            "seed": self.args.seed,
            "workload": self.args.workload,
        })
        return info


def _git_commit(root: str) -> str:
    """HEAD of the checkout if it is a git work tree, read without git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), "r", encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.isfile(path):
            with open(path, "r", encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), "r", encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git work tree)"


def _exit_failures(r: CmdRun) -> None:
    if r.proc.code != 0:
        r.failures.append(f"{r.name} exited with {r.proc.code}")
    if r.proc.stderr.strip():
        r.failures.append(f"{r.name} wrote to stderr: {r.proc.stderr.strip()[-300:]}")


def check_runs(passes: list[list[CmdRun]], refs: dict, tols: dict,
               wl: workloads.Workload) -> dict[str, dict[str, str]]:
    """Judge every command of every pass; returns the first pass's digests.

    The first pass's outputs are checked in full.  Later passes must write
    byte-identical files, which carries the verdict over to them.
    """
    reference: dict[str, dict[str, str]] = {}
    for runs in passes:
        for r in runs:
            _exit_failures(r)
            digest = checks.digests(r.out_dir)
            if r.name not in reference:
                reference[r.name] = digest
                r.failures += checks.check_output(r.name, r.out_dir, refs, tols,
                                                  wl.seed, wl.field_paths)
            elif digest != reference[r.name]:
                r.failures.append(f"{r.name} reports differ from the first pass")
    return reference


def _median(xs):
    return statistics.median(xs) if xs else 0.0


def _unit(name: str) -> str:
    if name.endswith("_mb"):
        return "MB"
    if ".us_per_" in name:
        return "us"
    if ".ms_per_" in name:
        return "ms"
    if name.endswith("_s"):
        return "s"
    if name.endswith("bytes"):
        return "bytes"
    if name.endswith(("ratio", "passes")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="lopstokes certification benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--toy", action="store_true",
                    help="coarse grids and few samples (self-test size)")
    args = ap.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "lopstokes", "cli.py")):
        print(f"error: no lopstokes sources under {src}", file=sys.stderr)
        return 2
    if "LOPSTOKES_MUTATE" in os.environ:
        print("error: LOPSTOKES_MUTATE is set; a mutated build reports like a "
              "clean one, so the benchmark refuses to run", file=sys.stderr)
        return 2

    run_dir = os.path.join(ROOT, ".perfbench",
                           f"{args.workload}-{args.seed}-t{args.trace}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    env = {k: v for k, v in os.environ.items() if k != "LOPSTOKES_OUT"}
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")

    bench = Bench(args, run_dir, env)
    size = "toy" if args.toy else "full"
    refs, tols = bench.refs[size], bench.refs["tolerances"]
    wl = workloads.build(args.workload, args.seed, os.path.join(run_dir, "input"), args.toy)
    warm = workloads.build(args.workload, args.seed, os.path.join(run_dir, "warm-input"),
                           toy=True)
    bench.run_pass(warm, "warmup")
    setup, setup_failed = bench.setup_times(wl)

    passes: list[list[CmdRun]] = []
    t0 = time.perf_counter()
    while True:
        passes.append(bench.run_pass(wl, f"pass{len(passes)}"))
        # another pass only if one more of the same length still ends inside
        # --seconds; the second pass may overrun it by half, so a long pass
        # (verify) is still measured twice.  Leave room for a traced pass
        # and the checks.
        last = sum(r.proc.wall_s for r in passes[-1])
        limit = args.seconds * (1.5 if len(passes) == 1 else 1.0)
        if (time.perf_counter() - t0 + last > limit
                or bench.left() < last * (1 + 1.5 * args.trace) + 15.0):
            break
    traced = bench.run_pass(wl, "traced", traced=True) if args.trace else []

    reference = check_runs(passes, refs, tols, wl)
    for r in traced:
        _exit_failures(r)
        if checks.digests(r.out_dir) != reference.get(r.name):
            r.failures.append(f"traced {r.name} reports differ from the untraced ones")

    all_runs = [r for runs in passes for r in runs] + traced
    failed = sum(1 for r in all_runs if r.failures) + setup_failed
    attempted = len(all_runs) + len(setup)
    pass_wall = [sum(r.proc.wall_s for r in runs) for runs in passes]
    pass_rss = [max(r.proc.maxrss_kb for r in runs) / 1024.0 for runs in passes]
    pass_cpu = [sum(r.proc.cpu_s for r in runs) for runs in passes]

    if args.trace:
        spans = sorted(os.path.join(run_dir, "traced", f) for f in
                       os.listdir(os.path.join(run_dir, "traced")) if f.startswith("spans-"))
        metrics, detail = tracer.aggregate(spans)
        for c in CLI_COMMANDS:
            walls = [r.proc.wall_s for runs in passes for r in runs if r.name == c]
            rss = [r.proc.maxrss_kb / 1024.0 for runs in passes for r in runs if r.name == c]
            metrics[f"cli.{c}.wall_s"] = _median(walls)
            metrics[f"cli.{c}.peak_rss_mb"] = _median(rss)
        traced_wall = sum(r.proc.wall_s for r in traced)
        metrics["trace.overhead_ratio"] = traced_wall / _median(pass_wall)
        metrics["proc.cpu_s"] = _median(pass_cpu)
        metrics["fail_ratio"] = failed / attempted
    else:
        metrics = {
            "wall_s": _median(pass_wall),
            "peak_rss_mb": _median(pass_rss),
            "setup_s": _median(setup),
        }
        detail = {}

    info = bench.provenance()
    summary = {
        "provenance": info,
        "passes": [[{"command": r.name, "wall_s": r.proc.wall_s,
                     "maxrss_kb": r.proc.maxrss_kb, "cpu_s": r.proc.cpu_s,
                     "code": r.proc.code, "failures": r.failures} for r in runs]
                   for runs in passes + ([traced] if traced else [])],
        "setup_s": setup,
        "metrics": metrics,
        "trace": detail,
    }
    summary_path = os.path.join(run_dir, "summary.json")
    with open(summary_path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, indent=1)
    for entry in os.listdir(run_dir):
        path = os.path.join(run_dir, entry)
        if os.path.isdir(path):
            shutil.rmtree(path)
        elif entry != "summary.json":
            os.remove(path)

    print(f"perfbench {args.workload} seed {args.seed} ({size} size): "
          f"{len(passes)} timed pass(es), trace {args.trace}")
    print(f"  pass wall_s {', '.join(f'{w:.3f}' for w in pass_wall)}; "
          f"setup_s {', '.join(f'{s:.3f}' for s in setup)}")
    for name, value in metrics.items():
        print(f"  {name:45s} {value:.6g} {_unit(name)}")
    for r in all_runs:
        for f in r.failures:
            print(f"  FAIL {f}")
    print(f"  provenance {json.dumps(info, sort_keys=True)}")
    print(f"  summary {summary_path}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
