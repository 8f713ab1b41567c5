"""Metric tables: names, units, bounds, and which end-to-end metric each layer moves.

``BENCHMARK.json`` lists the same names; ``check_harness.py`` keeps the
two in step.  A layer metric's ``target`` names the end-to-end or
command metric it should move and the workload where it should move it,
so later changes can cite the prediction before measuring.  Where a
workload is not named, the metric should not move there.
"""

from __future__ import annotations

import re

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# name, unit, better, bound (share of the parent's median it may worsen by).
# Times get the widest bound the contract allows: on the shared 2-core host
# they were measured drifting by up to a quarter within half an hour (a
# DGEMM probe's rate moved by 45%), which no length of run averages out.
# Peak RSS repeats to within 0.1 MB.
END_TO_END = [
    ("wall_s", "s", "lower", 0.25),  # the workload's command sequence, one command at a time
    ("setup_s", "s", "lower", 0.25),  # median of the set-ups in one run
    ("peak_rss_mb", "MB", "lower", 0.05),  # highest ru_maxrss of any command child
]

_IO = "every cmd.* metric and wall_s on align; barely diagnose; not simulate"
_MOMENTS = "cmd.frame_build_s and cmd.align_blockwise_s on align; a little wall_s on simulate"
_SPECTRAL = ("cmd.frame_build_s and cmd.align_blockwise_s on align; wall_s on diagnose; "
             "wall_s on simulate (tyler_shape)")
_FRAME = "cmd.decompose_s and cmd.align_blockwise_s on align"
_REALIGN = ("cmd.align_realign_s, cmd.apply_realign_s, cmd.align_blockwise_s and "
            "peak_rss_mb on align")
_KNN = "wall_s on diagnose"
_SIM = "wall_s on simulate"
_CLI = "wall_s on every workload"

# name, unit, better, target
PER_LAYER = [
    *[(f"io.{fn}.{field}", unit, "lower", _IO)
      for fn in ("read_embeddings", "iter_embedding_batches", "write_embeddings",
                 "save_artifact", "load_artifact", "file_digest")
      for field, unit in (("self_s", "s"), ("calls", "count"), ("bytes", "B"))],
    ("io.payload_encode.self_s", "s", "lower", _IO),
    ("io.payload_decode.self_s", "s", "lower", _IO),
    ("moments.accumulate.self_s", "s", "lower", _MOMENTS),
    ("moments.accumulate.rows", "count", "higher", _MOMENTS),
    ("moments.accumulate.gflop", "GFLOP", "lower", _MOMENTS),
    ("moments.finalize.self_s", "s", "lower", _MOMENTS),
    ("moments.stats_of.self_s", "s", "lower", _MOMENTS),
    ("moments.stats_of.calls", "count", "lower", _MOMENTS),
    ("spectral.sym_eig.self_s", "s", "lower", _SPECTRAL),
    ("spectral.sym_eig.calls", "count", "lower", _SPECTRAL),
    ("spectral.tyler_shape.self_s", "s", "lower", _SPECTRAL),
    ("spectral.tyler_shape.calls", "count", "lower", _SPECTRAL),
    ("spectral.tyler_shape.iterations", "count", "lower", _SPECTRAL),
    ("frame.build_frame.self_s", "s", "lower", _FRAME),
    ("frame.decompose_gap.self_s", "s", "lower", _FRAME),
    ("frame.decompose_gap.rows", "count", "higher", _FRAME),
    ("frame.complement_basis.self_s", "s", "lower", _FRAME),
    *[(f"realign.{fn}.{field}", unit, better, _REALIGN)
      for fn in ("estimate_realign", "substitution_operator", "estimate_blockwise",
                 "apply_blockwise")
      for field, unit, better in (("self_s", "s", "lower"), ("rows", "count", "higher"))],
    ("realign.apply_blockwise.gflop", "GFLOP", "lower", _REALIGN),
    ("diagnostics.cosine_histogram.self_s", "s", "lower", "peak_rss_mb and wall_s on diagnose"),
    ("diagnostics.cosine_histogram.pairs", "count", "higher", "peak_rss_mb on diagnose"),
    *[(f"diagnostics.{fn}.{field}", unit, better, _KNN)
      for fn in ("knn_mixing_rate", "knn_overlap")
      for field, unit, better in (("self_s", "s", "lower"), ("rows", "count", "higher"),
                                  ("gflop", "GFLOP", "lower"))],
    ("contrastive.estimate_coupling.self_s", "s", "lower", _SIM),
    ("contrastive.estimate_coupling.calls", "count", "lower", _SIM),
    ("simulator.draw.self_s", "s", "lower", _SIM),
    ("simulator.draw.calls", "count", "lower", _SIM),
    ("simulator.draw.rows", "count", "higher", _SIM),
    ("simulator.run_toy_training.self_s", "s", "lower", _SIM + " (embed, loss, backprop, step)"),
    ("simulator.log_steps.calls", "count", "lower", _SIM),
    ("simulator.log_steps.total_s", "s", "lower", _SIM + " (traced analysis inside log steps)"),
    ("cli.startup_s", "s", "lower", _CLI + " (interpreter start and imports, summed)"),
    ("cli.exit_s", "s", "lower", _CLI + " (after main returns until the child is reaped)"),
    *[(f"cli.{cmd}.self_s", "s", "lower", _CLI + " (command time no child span covers)")
      for cmd in ("stats", "frame", "decompose", "align", "diagnose", "simulate")],
    ("cmd.frame_build_s", "s", "lower", "wall_s on align (both stats commands plus frame)"),
    ("cmd.decompose_s", "s", "lower", "wall_s on align (decompose)"),
    ("cmd.align_realign_s", "s", "lower", "wall_s on align (calibrate plus apply)"),
    ("cmd.apply_realign_s", "s", "lower", "wall_s on align (apply from the saved artifact)"),
    ("cmd.align_blockwise_s", "s", "lower", "wall_s on align (align --method blockwise)"),
    ("trace.overhead_s", "s", "lower", "none: traced wall_s minus untraced wall_s"),
    ("trace.other_self_s", "s", "lower", "none: self time of traced spans not listed above"),
]

# Spans that must record at least one call on the workload that exercises them;
# a wrapper that misses its calls shows up here instead of as a silent zero.
_ALIGN_SPANS = [
    "io.read_embeddings", "io.iter_embedding_batches", "io.write_embeddings",
    "io.save_artifact", "io.load_artifact", "io.file_digest", "io.payload_encode",
    "io.payload_decode", "moments.accumulate", "moments.finalize", "moments.stats_of",
    "spectral.sym_eig", "frame.build_frame", "frame.decompose_gap", "frame.complement_basis",
    "realign.estimate_realign", "realign.substitution_operator", "realign.estimate_blockwise",
    "realign.apply_blockwise", "cli.stats", "cli.frame", "cli.decompose", "cli.align",
]
EXPECTED_SPANS = {
    "align": _ALIGN_SPANS,
    "diagnose": [
        "io.read_embeddings", "io.write_embeddings", "io.file_digest", "moments.stats_of",
        "spectral.sym_eig", "realign.estimate_realign", "realign.substitution_operator",
        "diagnostics.cosine_histogram", "diagnostics.knn_mixing_rate",
        "diagnostics.knn_overlap", "cli.align", "cli.diagnose",
    ],
    "simulate": [
        "simulator.draw", "simulator.run_toy_training", "contrastive.estimate_coupling",
        "spectral.tyler_shape", "spectral.sym_eig", "moments.stats_of", "moments.accumulate",
        "frame.build_frame", "frame.decompose_gap", "frame.complement_basis", "cli.simulate",
    ],
}


def benchmark_json(workloads) -> dict:
    """The ``BENCHMARK.json`` document these tables describe."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": 30,
        "workloads": [{"name": w.name, "why": w.why} for w in workloads],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b, _ in PER_LAYER],
    }
