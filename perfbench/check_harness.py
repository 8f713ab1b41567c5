"""Tests of the benchmark harness itself.

Run from the repository root::

    python3 -m pytest -q perfbench/check_harness.py

The file name keeps these tests out of the repository's own test run:
the smoke runs start many interpreters and are not tests of gapalign.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, EXPECTED_SPANS, NAME_RE, PER_LAYER, benchmark_json  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def ticking_clock(step=10):
    """A clock that advances by ``step`` on every read, plus any manual advance."""
    state = {"now": 0}

    def clock():
        state["now"] += step
        return state["now"]

    return clock, state


def test_self_time_of_nested_spans():
    clock, state = ticking_clock()
    tracer = Tracer(clock)

    def inner():
        state["now"] += 100

    def outer():
        state["now"] += 1000
        wrapped_inner()
        wrapped_inner()

    wrapped_inner = tracer.wrap("m.inner", inner)
    tracer.wrap("m.outer", outer)()
    summary = tracer.summary()
    # each inner span: 100 of work plus the 10 its closing clock read adds
    assert summary["m.inner"] == {"calls": 2, "self_ns": 220, "total_ns": 220}
    outer_total = summary["m.outer"]["total_ns"]
    assert outer_total == 1000 + 2 * (10 + 110) + 10
    assert summary["m.outer"]["self_ns"] == outer_total - 220
    assert sum(e["self_ns"] for e in summary.values()) == outer_total


def test_generator_spans_cover_each_next_and_exclude_the_consumer():
    clock, state = ticking_clock(step=1)
    tracer = Tracer(clock)

    def produce():
        for item in range(3):
            state["now"] += 50
            helper()
            yield item
        state["now"] += 7  # runs inside the last next(), which ends the iteration

    def helper():
        state["now"] += 5

    helper = tracer.wrap("m.helper", helper)
    gen = tracer.wrap_generator("m.produce", produce, count=lambda item: {"items": 1})
    root = tracer.begin("root")
    for _ in gen():
        state["now"] += 1000  # consumer work between next() calls
    tracer.end(root)
    summary = tracer.summary()
    assert summary["m.produce"]["calls"] == 4
    assert summary["m.produce"]["items"] == 3
    assert summary["m.helper"]["calls"] == 3
    # per item: 50 of own work; helper spans (2 reads + 5) are children
    assert summary["m.produce"]["self_ns"] == 3 * (50 + 1 + 1) + (7 + 1)
    assert summary["root"]["self_ns"] >= 3 * 1000
    assert sum(e["self_ns"] for e in summary.values()) == summary["root"]["total_ns"]


def test_metric_names_and_units_follow_the_contract():
    names = [m[0] for m in END_TO_END] + [m[0] for m in PER_LAYER]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME_RE.fullmatch(name), name
    for unit in [m[1] for m in END_TO_END] + [m[1] for m in PER_LAYER]:
        assert len(unit) <= 16 and all(c.isalnum() or c in "_/%.-" for c in unit), unit
    assert ("setup_s", "s", "lower", max(b for *_, b in END_TO_END)) in END_TO_END
    assert all(0 < bound <= 0.25 for *_, bound in END_TO_END)


def test_benchmark_json_matches_the_tables():
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == benchmark_json(WORKLOADS.values())


def test_install_wraps_every_lookup_site():
    script = """
import sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer, install
import gapalign.cli, gapalign.realign, gapalign.simulator, gapalign.diagnostics
from gapalign.moments import MomentAccumulator, stats_of
tracer = Tracer()
names = install(tracer)
assert gapalign.cli.read_embeddings is names["io.read_embeddings"]
assert gapalign.realign.apply_blockwise is names["realign.apply_blockwise"]
assert gapalign.simulator.stats_of is names["moments.stats_of"]
assert gapalign.diagnostics.stats_of is names["moments.stats_of"]
import numpy as np
gapalign.moments.stats_of(np.ones((4, 3)), track_cov=True)
calls = {k: v["calls"] for k, v in tracer.summary().items()}
assert calls["moments.stats_of"] == 1 and calls["moments.accumulate"] == 1, calls
assert calls["moments.finalize"] == 1, calls
print("ok")
"""
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    out = subprocess.run([sys.executable, "-c", script, str(HERE)], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.returncode == 0 and out.stdout.strip() == "ok", out.stderr


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(workload, trace):
    out = run_bench("--workload", workload, "--seed", "7", "--seconds", "1",
                    "--trace", str(trace), "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, out.stderr
    expected = [m[0] for m in (PER_LAYER if trace else END_TO_END)]
    assert list(result["metrics"]) == expected
    if trace:
        spans = json.loads(out.stdout.splitlines()[-2])["detail"]["layers"]["spans"]
        assert all(spans.get(name, {}).get("calls", 0) > 0 for name in EXPECTED_SPANS[workload])
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = run_bench("--workload", "simulate", "--seed", "1", "--seconds", "1", "--trace", "0",
                    cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
