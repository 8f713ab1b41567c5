"""Benchmark runner: run one workload's gapalign CLI commands and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload align --seed 1 --seconds 30 --trace 0

The runner builds the workload's inputs from ``--seed``, then runs its
command sequence as a closed loop with one command in flight: each
command is a fresh ``python -m gapalign.cli`` child, as a user runs it.
Sequences repeat while another one fits in ``--seconds``.  Every output
is checked.  With ``--trace 1`` the run also repeats the sequence once
with every gapalign layer wrapped in spans (``traced_cli.py``) and
reports per-layer metrics instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it holds the run's details (per-command timings, checks, environment).
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import filecmp
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from metrics import END_TO_END, EXPECTED_SPANS, PER_LAYER
from tracer import clock_ns
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPS = 3  # set-up runs per benchmark run; setup_s is their median
RUN_BUDGET_S = 165.0  # children still running this long after the start are killed
RUNNER_RSS_MB = 64


@dataclass
class CommandResult:
    group: str
    args: list
    start_ns: int
    end_ns: int
    code: int
    rss_mb: float
    stdout: str
    stderr: str
    trace: dict | None = None

    @property
    def wall_s(self) -> float:
        return (self.end_ns - self.start_ns) * 1e-9


def spawn(argv, cwd: Path, env: dict, log_stem: Path, timeout_s: float, group="",
          args=()) -> CommandResult:
    """Run one child to completion; its peak RSS comes from ``os.wait4``."""
    out_path, err_path = log_stem.with_suffix(".out"), log_stem.with_suffix(".err")
    with open(out_path, "w") as out, open(err_path, "w") as err:
        start = clock_ns()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out, stderr=err)
        timer = threading.Timer(timeout_s, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        end = clock_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return CommandResult(group, list(args), start, end, proc.returncode, usage.ru_maxrss / 1024.0,
                         out_path.read_text(), err_path.read_text())


class Runner:
    def __init__(self, workload, smoke: bool, work: Path):
        self.workload = workload
        self.smoke = smoke
        self.work = work
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.logs = work / "logs"
        self.logs.mkdir(parents=True, exist_ok=True)
        self.spawned = 0
        self.deadline_ns = clock_ns() + int(RUN_BUDGET_S * 1e9)

    def _spawn(self, argv, group="", args=(), env=None):
        self.spawned += 1
        timeout_s = max(1.0, (self.deadline_ns - clock_ns()) * 1e-9)
        return spawn(argv, self.work, env or self.env, self.logs / str(self.spawned), timeout_s,
                     group, args)

    def _task(self, task: str, seed: int = 0) -> CommandResult:
        """Run a set-up or check task of ``workloads.py`` in a child of its own."""
        return self._spawn([sys.executable, str(ROOT / "perfbench" / "workloads.py"), task,
                            self.workload.name, str(seed), str(int(self.smoke))])

    def setup(self, seed: int):
        """Build the inputs SETUP_REPS times; return the times and the set-up checks.

        Each set-up child also imports gapalign, which fills the bytecode
        and page caches before the first timed command.
        """
        samples, digests, checks = [], set(), []
        for _ in range(SETUP_REPS):
            result = self._task("setup", seed)
            samples.append(result.wall_s)
            digests.add(_tree_digest(self.work / "in"))
            checks.append(("set-up succeeds", result.code == 0, result.stderr.strip()[-300:]))
        checks.append(("same seed gives the same inputs", len(digests) == 1, ""))
        return samples, checks

    def sequence(self, traced: bool) -> list[CommandResult]:
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        results = []
        for group, args in self.workload.commands(self.smoke):
            if traced:
                trace_path = self.logs / f"trace{self.spawned + 1}.json"
                env = dict(self.env, PERFBENCH_TRACE_OUT=str(trace_path))
                argv = [sys.executable, str(ROOT / "perfbench" / "traced_cli.py"), *args]
                result = self._spawn(argv, group, args, env)
                if result.code == 0:
                    result.trace = json.loads(trace_path.read_text())
            else:
                result = self._spawn([sys.executable, "-m", "gapalign.cli", *args], group, args)
            results.append(result)
            if result.code != 0:
                break  # later commands read this one's outputs
        return results

    def checks(self, results) -> list:
        expected = len(self.workload.commands(self.smoke))
        checks = [(f"exit 0: {' '.join(r.args[:3])}", r.code == 0,
                   r.stderr.strip()[-300:] if r.code else "") for r in results]
        if len(results) < expected or any(r.code for r in results):
            return checks + [("outputs checked", False, "a command failed")]
        task = self._task("check")
        if task.code != 0:  # a check that cannot run counts as failed
            return checks + [("outputs checked", False, task.stderr.strip()[-300:])]
        return checks + [tuple(c) for c in json.loads(task.stdout.splitlines()[-1])]


# The runner reads files in chunks and holds no large arrays: a child can
# inherit its parent's peak RSS in ru_maxrss, so a large runner would inflate
# the commands' readings.  A check holds the runner under RUNNER_RSS_MB,
# below the smallest workload peak (73 MB on simulate).


def _tree_digest(directory: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(directory)).encode())
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


def _same_tree(a: Path, b: Path) -> tuple[bool, str]:
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if files_a != files_b:
        return False, f"file lists differ: {files_a} vs {files_b}"
    differ = [str(f) for f in files_a if not filecmp.cmp(a / f, b / f, shallow=False)]
    return not differ, f"{len(files_a)} files" + (f"; differ: {differ}" if differ else "")


# ---------------------------------------------------------------- environment


def _blas_threads():
    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "libscipy_openblas*.so*"))
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
            fn = lib.scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return None


def _cpuinfo(key):
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def _dgemm_gflops(n=1024, reps=5) -> float:
    """Best of ``reps`` n x n float64 products, after one warm-up product."""
    rng = np.random.default_rng(0)
    a, b = rng.random((n, n)), rng.random((n, n))
    a @ b
    best = None
    for _ in range(reps):
        start = clock_ns()
        a @ b
        elapsed = clock_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return 2.0 * n**3 / best


def environment(traced: bool) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    env = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "cpu_model": _cpuinfo("model name"),
        "cache_size": _cpuinfo("cache size"),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "bandwidth_roofline": "not measured: a stream probe needs arrays of at least 4x the "
                              "last-level cache, more than this host's memory allows",
    }
    if traced:
        env["dgemm_gflops"] = _dgemm_gflops()
    return env


# --------------------------------------------------------------------- metrics


def _median(values):
    return float(statistics.median(values))


def end_to_end_metrics(seqs, setup_samples) -> dict:
    values = {
        "wall_s": _median([(s[-1].end_ns - s[0].start_ns) * 1e-9 for s in seqs]),
        "setup_s": _median(setup_samples),
        "peak_rss_mb": _median([max(r.rss_mb for r in s) for s in seqs]),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit, _, _ in END_TO_END}


def _merge_spans(traced) -> dict:
    merged: dict[str, dict] = {}
    for result in traced:
        for name, entry in (result.trace or {}).get("spans", {}).items():
            into = merged.setdefault(name, {})
            for key, value in entry.items():
                into[key] = into.get(key, 0) + value
    return merged


def layer_metrics(traced, seqs) -> tuple[dict, dict]:
    spans = _merge_spans(traced)
    children: dict[str, dict] = {}
    for result in traced:
        for name, entry in (result.trace or {}).get("run_toy_training_children", {}).items():
            into = children.setdefault(name, {"calls": 0, "total_ns": 0})
            into["calls"] += entry["calls"]
            into["total_ns"] += entry["total_ns"]
    with_trace = [r for r in traced if r.trace]
    untraced_wall = _median([(s[-1].end_ns - s[0].start_ns) * 1e-9 for s in seqs])
    groups = {}
    for seq in seqs:
        for name in {r.group for r in seq}:
            groups.setdefault(name, []).append(sum(r.wall_s for r in seq if r.group == name))
    special = {
        "cli.startup_s": sum(r.trace["root_start_ns"] - r.start_ns for r in with_trace) * 1e-9,
        "cli.exit_s": sum(r.end_ns - r.trace["root_end_ns"] for r in with_trace) * 1e-9,
        "simulator.log_steps.calls": children.get("frame.decompose_gap", {}).get("calls", 0),
        "simulator.log_steps.total_s": sum(
            e["total_ns"] for n, e in children.items() if n != "simulator.draw") * 1e-9,
        "trace.overhead_s": (traced[-1].end_ns - traced[0].start_ns) * 1e-9 - untraced_wall,
    }
    listed_self = {n[: -len(".self_s")] for n, *_ in PER_LAYER if n.endswith(".self_s")}
    special["trace.other_self_s"] = sum(
        e["self_ns"] for n, e in spans.items() if n not in listed_self) * 1e-9
    metrics = {}
    for name, unit, _, _ in PER_LAYER:
        if name in special:
            value = special[name]
        elif name.startswith("cmd."):
            value = _median(groups.get(name[4:-2], [0.0]))
        else:
            span, field = name.rsplit(".", 1)
            entry = spans.get(span, {})
            value = entry.get("self_ns", 0) * 1e-9 if field == "self_s" else entry.get(field, 0)
        metrics[name] = {"value": value, "unit": unit}
    intensity = {name: e["gflop"] * 1e9 / e["operand_bytes"]
                 for name, e in spans.items() if e.get("operand_bytes")}
    return metrics, {"spans": spans, "flop_per_byte_computed": intensity}


def trace_checks(workload_name, traced, seqs, same) -> list:
    spans = _merge_spans(traced)
    checks = [("traced outputs byte-identical to untraced outputs", same[0], same[1])]
    missing = [n for n in EXPECTED_SPANS[workload_name] if spans.get(n, {}).get("calls", 0) < 1]
    checks.append(("every expected span records a call", not missing, f"missing: {missing}"))
    for r in traced:
        if not r.trace:
            continue
        self_ns = sum(e["self_ns"] for e in r.trace["spans"].values())
        startup = r.trace["root_start_ns"] - r.start_ns
        exit_ns = r.end_ns - r.trace["root_end_ns"]
        residual = (r.end_ns - r.start_ns) - (startup + self_ns + exit_ns)
        checks.append((f"startup + span self times + exit = wall: {' '.join(r.args[:3])}",
                       abs(residual) <= 1000, f"residual {residual} ns"))
    return checks


# ------------------------------------------------------------------------ main


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and a short simulator config, for harness tests")
    args = parser.parse_args(argv)
    if not (SRC / "gapalign" / "cli.py").is_file():
        print(f"perfbench: no gapalign sources under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(workload, args.smoke, work)
        setup_samples, checks = runner.setup(args.seed)
        # Flush the freshly written inputs, so their write-back does not
        # compete with the first timed commands.
        os.sync()
        seqs, begin = [], clock_ns()
        while True:
            seqs.append(runner.sequence(traced=False))
            elapsed = (clock_ns() - begin) * 1e-9
            last = (seqs[-1][-1].end_ns - seqs[-1][0].start_ns) * 1e-9
            if elapsed + last > args.seconds or any(r.code for r in seqs[-1]):
                break
        for seq in seqs[:-1]:
            checks += [(f"exit 0: {' '.join(r.args[:3])}", r.code == 0, "") for r in seq]
        checks += runner.checks(seqs[-1])
        detail = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
                  "setup_samples_s": setup_samples,
                  "sequences": [[{"group": r.group, "args": r.args, "wall_s": r.wall_s,
                                  "rss_mb": r.rss_mb, "code": r.code} for r in s]
                                for s in seqs]}
        if args.trace:
            (work / "out").rename(work / "out_untraced")
            traced = runner.sequence(traced=True)
            checks += runner.checks(traced)
            checks += trace_checks(args.workload, traced, seqs,
                                   _same_tree(work / "out_untraced", work / "out"))
            metrics, detail["layers"] = layer_metrics(traced, seqs)
            detail["traced_commands"] = [
                {"args": r.args, "wall_s": r.wall_s, "rss_mb": r.rss_mb,
                 "startup_s": (r.trace["root_start_ns"] - r.start_ns) * 1e-9 if r.trace else None,
                 "exit_s": (r.end_ns - r.trace["root_end_ns"]) * 1e-9 if r.trace else None}
                for r in traced]
        else:
            metrics = end_to_end_metrics(seqs, setup_samples)
        own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        checks.append(("runner stays small enough not to mask peak RSS",
                       own_mb <= RUNNER_RSS_MB, f"{own_mb:.1f} MB <= {RUNNER_RSS_MB} MB"))
        detail["environment"] = environment(traced=bool(args.trace))
        detail["checks"] = [{"name": n, "ok": ok, "detail": d} for n, ok, d in checks]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it

    failed = sum(1 for _, ok, _ in checks if not ok)
    detail["error_rate"] = failed / len(checks)
    for name, ok, info in checks:
        if not ok:
            print(f"perfbench: FAILED {name}: {info}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": failed == 0, "attempted": len(checks), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
