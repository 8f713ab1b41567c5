"""Batch command-line surface wiring the library into complete workflows.

Subcommands: stats, frame, decompose, align, diagnose, simulate, verify,
sample-curve, bench.  Every report embeds the tool version, the full
flag set, what its numbers depend on (numpy, BLAS and the thread
settings), and SHA-256 digests of the input files; outputs are written
atomically (temp file plus rename) so interrupted jobs never leave torn
artifacts.

A statistics artifact is its JSON file plus the ``.npy`` sidecars it
names beside it (see ``gapalign.io``); copy or move them together.  An
artifact's ``input_digests`` entry is the digest of its JSON file, which
covers the sidecars through the SHA-256 recorded for each.

Exit codes: 0 success; 1 usage error, a flag value that does not parse
included; 2 data error: bad files, shape or version mismatches, an
``align`` or ``sample-curve`` row off the unit sphere (its norm off 1 by
more than 1e-4, the rule ``gapalign.realign`` states), and a flag value
out of range, refused while parsing, before any input is opened, with
``<param> must be <rule>, got <text> (<flag>)`` (each ``--help`` states
its range); 3 numerical degeneracy: zero or overflowing norms, collapsed
spectra, diverged runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__
from .contrastive import (
    ContrastiveBatch,
    estimate_coupling,
    grad_anchor,
    leakage_bound_check,
    loss_and_grads,
    moment_identity_check,
)
from .diagnostics import (
    cosine_histogram,
    js_divergence,
    knn_mixing_rate,
    knn_overlap,
    modality_gap,
    sample_complexity_curve,
)
from .errors import DataFormatError, DegenerateInputError, GapAlignError
from .frame import ReferenceFrame, build_frame, decompose_gap, leakage_ratio, paired_mean_gap
from .io import (
    RowMap,
    StatsArtifact,
    _on_sphere,
    _row_norms,
    atomic_write_text,
    file_digest,
    iter_embedding_batches,
    load_artifact,
    read_embeddings,
    row_blocks,
    row_source,
    save_artifact,
    write_embeddings,
)
from .moments import (
    CompensatedMean,
    Float32ReplayMean,
    ModalityStats,
    MomentAccumulator,
    _BLOCK,
    shrink,
    stats_of,
)
from .realign import (_SPHERE_TOL, AlignmentStats, BlockwiseStats, C3Baseline,
                      estimate_blockwise, estimate_realign)
from .simulator import SimulatorConfig, gap_necessity_ablation, run_toy_training
from .spectral import condition_number, effective_rank, power_law_alpha, sym_eig


class _Parser(argparse.ArgumentParser):
    """argparse that exits 1 on usage errors instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _bounded(flag: str, kind, lo, hi=None, open_lo=False):
    """argparse ``type=`` for ``flag``: an int or finite float >= lo (> lo if open_lo), <= hi.

    A value that does not parse is a usage error (exit 1).  A value out of
    range raises ``GapAlignError``, which argparse does not catch, so
    ``main`` exits 2 before any input is opened; the message names the flag.
    """
    show = str if kind is int else "{:g}".format
    rule = (f"{'>' if open_lo else '>='} {show(lo)}" if hi is None
            else f"in {'(' if open_lo else '['}{show(lo)}, {show(hi)}]")
    rule = ("an integer " if kind is int else "finite and ") + rule

    def parse(text):
        value = kind(text)
        if (kind is float and not math.isfinite(value)) or value < lo or (
                open_lo and value == lo) or (hi is not None and value > hi):
            name = flag.lstrip("-").replace("-", "_")
            raise GapAlignError(f"{name} must be {rule}, got {text} ({flag})")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in a usage error
    return parse


def _listed(parse):
    """argparse ``type=`` for a comma list whose every entry ``parse`` parses and checks."""

    def parse_list(text):
        return [parse(entry) for entry in text.split(",")]

    parse_list.__name__ = f"{parse.__name__} list"
    return parse_list


_THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _provenance(args, inputs):
    """What a report's numbers depend on: the tool, its flags and inputs, numpy and BLAS.

    Rounding in BLAS-backed kernels can depend on the BLAS build and its
    thread count, so the report records the thread variables and the CPUs
    this process may run on.  Every entry is fixed for a fixed environment.
    """
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.25 has no dict mode
        blas = {}
    return {
        "tool": "gapalign",
        "version": __version__,
        "flags": {k: v for k, v in vars(args).items() if k != "func"},
        "input_digests": {path: file_digest(path) for path in inputs if path},
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {**{name: os.environ.get(name) for name in _THREAD_VARIABLES},
                    "cpu_affinity": len(os.sched_getaffinity(0))
                    if hasattr(os, "sched_getaffinity") else os.cpu_count()},
    }


def _write_json(path, payload):
    atomic_write_text(path, json.dumps(payload, indent=1, sort_keys=True, allow_nan=False) + "\n")


def _save_payload(obj, path, provenance):
    save_artifact(StatsArtifact(obj.kind, obj.to_payload(), provenance), path)


def _load_payload(path, *classes):
    """Decode ``path`` with whichever of ``classes`` has its kind; a refusal names ``path``."""
    artifact = load_artifact(path)
    for cls in classes:
        if artifact.kind == cls.kind:
            try:
                return cls.from_payload(artifact.payload)
            except DataFormatError as exc:
                raise DataFormatError(f"{path}: {exc}") from exc
    kinds = " or ".join(cls.kind for cls in classes)
    raise DataFormatError(f"{path}: expected a {kinds} artifact, got {artifact.kind}")


def _write_csv(path, header, rows, preamble=()):
    lines = [*preamble, ",".join(header)]
    for row in rows:
        lines.append(",".join(f"{v:.17g}" if isinstance(v, float) else str(v) for v in row))
    atomic_write_text(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------- stats


def _cmd_stats(args):
    acc = None
    for batch in iter_embedding_batches(args.in_path, batch_rows=_BLOCK):
        if acc is None:
            acc = MomentAccumulator(batch.shape[1], track_cov=not args.no_cov)
        acc.accumulate(batch)
    if acc is None:
        raise DataFormatError(f"{args.in_path}: no rows found")
    stats = acc.finalize()
    if stats.covariance is not None and args.shrink > 0:
        stats.covariance = shrink(stats.covariance, args.shrink)
    _save_payload(stats, args.out, _provenance(args, [args.in_path]))
    print(f"stats: n={stats.n} dims={stats.dims} trace={stats.trace:.6g} -> {args.out}")
    return 0


# ---------------------------------------------------------------- frame


def _cmd_frame(args):
    stats_x = _load_payload(args.x, ModalityStats)
    stats_y = _load_payload(args.y, ModalityStats)
    if stats_x.covariance is None or stats_y.covariance is None:
        raise DataFormatError("frame construction needs covariances; rerun stats without --no-cov")
    frame = build_frame(stats_x.covariance, stats_y.covariance, energy=args.energy)
    _save_payload(frame, args.out, _provenance(args, [args.x, args.y]))
    print(f"frame: dims={frame.dims} rank={frame.rank} energy={args.energy} -> {args.out}")
    return 0


# ------------------------------------------------------------ decompose


def _cmd_decompose(args):
    """The split's report, one row block at a time: no N x d array, the inputs included.

    Both inputs are row sources; the mean-gap pass and the split pass each
    read every block of them once.
    """
    frame = _load_payload(args.frame, ReferenceFrame)
    x, y = row_source(args.x), row_source(args.y)
    mean_gap = paired_mean_gap(x, y, frame)
    recon_err = 0.0
    resid_in_sq = np.empty(x.shape[0])
    resid_out_sq = np.empty(x.shape[0])
    for block in row_blocks(x.shape[0]):
        x_rows, y_rows = x[block], y[block]
        dec = decompose_gap(x_rows, y_rows, frame, mean_gap=mean_gap)
        resid_in_sq[block] = np.sum(dec.resid_in**2, axis=1)
        resid_out_sq[block] = np.sum(dec.resid_out**2, axis=1)
        rebuilt = frame.lift(dec.bias_in) + dec.bias_out + frame.lift(dec.resid_in)
        rebuilt += dec.resid_out
        rebuilt -= np.subtract(x_rows, y_rows, dtype=np.float64)
        recon_err = max(recon_err, float(np.abs(rebuilt).max()))
    report = {
        "rows": x.shape[0],
        "rank": frame.rank,
        "mean_gap_norm": float(np.linalg.norm(mean_gap)),
        "bias_in_norm": float(np.linalg.norm(dec.bias_in)),
        "bias_out_norm": float(np.linalg.norm(dec.bias_out)),
        "resid_in_trace": float(np.mean(resid_in_sq)),
        "resid_out_trace": float(np.mean(resid_out_sq)),
        "mean_gap_leakage": leakage_ratio(mean_gap, frame)
        if np.linalg.norm(mean_gap) > 0
        else 0.0,
        "max_reconstruction_error": recon_err,
        "provenance": _provenance(args, [args.x, args.y, args.frame]),
    }
    _write_json(args.report, report)
    print(f"decompose: |mean gap|={report['mean_gap_norm']:.6g} "
          f"|bias_out|={report['bias_out_norm']:.6g} -> {args.report}")
    return 0


# ---------------------------------------------------------------- align


_FITTED = {"realign": (AlignmentStats,), "blockwise": (BlockwiseStats,)}


def _unit_rows(path):
    """``path``'s rows as a row source that refuses a row off the unit sphere as it is read.

    The rule and its tolerance are ``realign``'s (``_SPHERE_TOL``).  Its
    ``source`` is the same rows unchecked, for a later pass over them.
    """
    return RowMap(row_source(path), lambda rows, lo: _on_sphere(rows, path, _SPHERE_TOL, lo))


def _operator(args):
    """The operator of ``--method``: loaded from ``--stats`` or fitted to the calibration files.

    c3 and anchor-only fit nothing; they take the means of either.  Each
    calibration row is checked on the unit sphere in the first pass over it.
    """
    if args.stats:
        op = _load_payload(args.stats, *_FITTED.get(args.method, (AlignmentStats, BlockwiseStats)))
        if args.method in _FITTED:
            return op
        mu_src, mu_tgt = op.mu_src, op.mu_tgt
    elif not (args.calib_src and args.calib_tgt):
        raise DataFormatError("provide --stats or both --calib-src and --calib-tgt")
    else:
        calib_src, calib_tgt = _unit_rows(args.calib_src), _unit_rows(args.calib_tgt)
        stats_src, stats_tgt = (stats_of(rows, track_cov=args.method == "blockwise")
                                for rows in (calib_src, calib_tgt))
        if args.method == "blockwise":
            frame = build_frame(stats_src.covariance, stats_tgt.covariance, energy=args.energy)
            return estimate_blockwise(frame, stats_src, stats_tgt, calib_src.source,
                                      eig_floor=args.eig_floor)
        if args.method == "realign":
            return estimate_realign(stats_src, stats_tgt, calib_src.source, eps=args.eps)
        mu_src, mu_tgt = stats_src.mean, stats_tgt.mean
    return C3Baseline(mu_src, mu_tgt, args.sigma if args.method == "c3" else 0.0, args.seed)


def _cmd_align(args):
    """Map ``--in`` through a loaded or fitted operator, one row block at a time.

    ``--in`` and the calibration files are row sources: every calibration
    pass and the apply pass read them one row block at a time, and each
    output block is written as soon as it is computed.  So the command
    holds one ``moments._BLOCK`` float64 block, pieces of at most
    ``io._widest_block`` rows and O(d^2), whatever the row count.  The
    output file appears by an atomic rename after its last block, so an
    error midway (a non-finite input row, a row off the unit sphere, a
    collapse) leaves no ``--out``.
    """
    if args.save_stats and args.method not in _FITTED:
        raise DataFormatError(f"--save-stats saves a realign or blockwise operator; "
                              f"{args.method} fits none")
    source = _unit_rows(args.in_path)
    op = _operator(args)
    if args.save_stats:
        _save_payload(op, args.save_stats,
                      _provenance(args, [args.stats, args.calib_src, args.calib_tgt]))
    if source.shape[1] != op.dims:
        raise DataFormatError(f"{args.in_path} has {source.shape[1]} dims, "
                              f"the operator expects {op.dims}")
    write_embeddings(RowMap(source, op.apply), args.out)
    print(f"align[{args.method}]: {source.shape[0]} rows -> {args.out}")
    return 0


# -------------------------------------------------------------- diagnose


def _spectrum_summary(acc):
    """The mean, descending eigenvalues and spectrum summary of ``acc``'s rows."""
    stats = acc.finalize()
    lam = sym_eig(stats.covariance).eigenvalues
    summary = {
        "trace": float(lam.sum()),
        "effective_rank": effective_rank(lam) if lam.max() > 0 else None,
        "condition_number": condition_number(lam),
    }
    try:
        summary["power_law_alpha"] = power_law_alpha(lam)
    except (GapAlignError, ValueError):
        summary["power_law_alpha"] = None
    return stats.mean, lam, summary


def _cmd_diagnose(args):
    set_a = read_embeddings(args.a)
    set_b = read_embeddings(args.b)
    # the pairs are drawn and checked now, and scored off the kNN mixing pass's Gram tiles
    hist_a = cosine_histogram(set_a, num_pairs=args.pairs, bins=args.bins,
                              smoothing=args.smoothing, seed=args.seed, deferred=True)
    hist_b = cosine_histogram(set_b, num_pairs=args.pairs, bins=args.bins,
                              smoothing=args.smoothing, seed=args.seed + 1, deferred=True)
    acc_a, acc_b = (MomentAccumulator(s.shape[1]).accumulate(s) for s in (set_a, set_b))
    (mu_a, lam_a, spec_a), (mu_b, lam_b, spec_b) = map(_spectrum_summary, (acc_a, acc_b))
    gap = modality_gap(mu_a, mu_b)
    if args.plots_dir:
        pooled = acc_a.merge(acc_b).finalize()
        pca_mean, pca_axes = pooled.mean, sym_eig(pooled.covariance).eigenvectors[:, :2].copy()
    acc_a = acc_b = pooled = None  # no d x d matrix is held through the kNN passes
    mixing = knn_mixing_rate(set_a, set_b, k=args.k_mix, histograms=(hist_a, hist_b))
    report = {
        "rows_a": set_a.shape[0],
        "rows_b": set_b.shape[0],
        "modality_gap": gap,
        "js_divergence_nats": js_divergence(hist_a, hist_b),
        "js_log_base": "natural",
        "knn_mixing_rate": mixing,
        "knn_mixing_definition": "pooled neighbors, fraction from the other set",
        "spectrum_a": spec_a,
        "spectrum_b": spec_b,
        "provenance": _provenance(args, [args.a, args.b, args.overlap_with]),
    }
    if args.overlap_with:
        # the aligned set is read for this call only, so the pooled PCA below runs without it
        report["knn_overlap"] = knn_overlap(set_a, read_embeddings(args.overlap_with),
                                            k=args.k_overlap)
    if args.plots_dir:
        os.makedirs(args.plots_dir, exist_ok=True)
        mids = 0.5 * (hist_a.bin_edges[:-1] + hist_a.bin_edges[1:])
        _write_csv(f"{args.plots_dir}/cosine_hist.csv", ["bin_center", "mass_a", "mass_b"],
                   list(zip(mids.tolist(), hist_a.masses.tolist(), hist_b.masses.tolist())))
        for name, lam in (("a", lam_a), ("b", lam_b)):
            _write_csv(f"{args.plots_dir}/spectrum_{name}.csv", ["k", "eigenvalue"],
                       list(enumerate(lam.tolist(), start=1)))
        # blocked to bound the centred temporary; 1,024-row blocks matched the whole-set
        # product bit for bit on 768-wide sets at 1 and 2 BLAS threads, 512-row ones did not
        coords = np.vstack([(s[block] - pca_mean) @ pca_axes
                            for s in (set_a, set_b) for block in row_blocks(s.shape[0])])
        labels = [0] * set_a.shape[0] + [1] * set_b.shape[0]
        _write_csv(f"{args.plots_dir}/pca_coords.csv", ["pc1", "pc2", "set"],
                   [(float(c[0]), float(c[1]), l) for c, l in zip(coords, labels)])
    _write_json(args.report, report)
    print(f"diagnose: gap={report['modality_gap']:.6g} js={report['js_divergence_nats']:.6g} "
          f"mixing={report['knn_mixing_rate']:.4f} -> {args.report}")
    return 0


# -------------------------------------------------------------- simulate


def _parse_config_file(path):
    mapping = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataFormatError(f"{path}:{lineno}: expected 'key = value'")
            key, value = line.split("=", 1)
            mapping[key.strip()] = value.strip()
    return mapping


def _cmd_simulate(args):
    config = SimulatorConfig.from_mapping(_parse_config_file(args.config)) if args.config else SimulatorConfig()
    if args.ablation:
        report = gap_necessity_ablation(config, seeds=args.seeds)
        report["provenance"] = _provenance(args, [args.config])
        _write_json(args.ablation_report, report)
        ratio = report["baseline_over_shared"]
        print(f"ablation: baseline/shared = {'undefined' if ratio is None else f'{ratio:.2f}'} "
              f"-> {args.ablation_report}")
        return 0
    trace = run_toy_training(config)
    _write_csv(args.trace, trace.header(), trace.rows(),
               [f"# gapalign {__version__} freeze_step={trace.freeze_step} rank={trace.rank}"])
    print(f"simulate: {len(trace.steps)} logged steps (freeze at {trace.freeze_step}, "
          f"rank {trace.rank}) -> {args.trace}")
    return 0


# ---------------------------------------------------------------- verify


def _unit_batch(rng, tau):
    """A random batch of 8 unit-norm anchor/candidate pairs in 16 dimensions."""
    rows = rng.normal(size=(16, 16))
    rows /= _row_norms(rows, "verify batch")[:, None]
    return ContrastiveBatch(rows[:8], rows[8:], tau)


def _verify_gradients(rng):
    worst = 0.0
    h = 1e-5
    for trial in range(20):
        batch = _unit_batch(rng, [0.05, 0.5, 1.0][trial % 3])
        i = int(rng.integers(batch.size))
        g = grad_anchor(batch, i)

        def loss_at(step):
            anchors = batch.anchors.copy()
            anchors[i] += step
            return loss_and_grads(anchors, batch.candidates, batch.temperature).losses[i]

        fd = np.array([(loss_at(e) - loss_at(-e)) / (2 * h) for e in h * np.eye(g.shape[0])])
        worst = max(worst, np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1.0))
    return [("anchor gradient vs central differences", worst < 1e-6, f"max rel err {worst:.2e}")]


def _verify_span(rng):
    worst = 0.0
    for _ in range(20):
        batch = _unit_batch(rng, 0.5)
        g = grad_anchor(batch, int(rng.integers(batch.size)))
        coeffs, *_ = np.linalg.lstsq(batch.candidates.T, g, rcond=None)
        worst = max(worst, np.linalg.norm(g - batch.candidates.T @ coeffs) / np.linalg.norm(g))
    return [("anchor gradient lies in candidate span", worst < 1e-10, f"max residual {worst:.2e}")]


def _verify_bounds(rng):
    violations = 0
    total = 0
    for _ in range(200):
        d = int(rng.integers(4, 65))
        r = int(rng.integers(1, max(2, d // 2)))
        frame = ReferenceFrame(
            basis=np.linalg.qr(rng.normal(size=(d, r)))[0], energy_threshold=0.9
        )
        basis_t = np.linalg.qr(rng.normal(size=(d, r)))[0]
        g = rng.normal(size=(50, r)) @ basis_t.T
        report = leakage_bound_check(g, frame, basis_t, coupling=0.0, slack=1e-12)
        violations += int(report.violation_fraction * report.n_checked)
        total += report.n_checked
    return [("geometric leakage bound", violations == 0, f"{violations}/{total} violations")]


def _verify_coupling(rng):
    n, r, m = 10_000, 6, 10
    planted = rng.normal(size=(m, r)) * 0.5
    delta = rng.normal(size=(n, r))
    signal = delta @ planted.T
    noise = rng.normal(size=(n, m)) * np.sqrt(np.mean(signal**2) / 10.0)
    est = estimate_coupling(delta, signal + noise, ridge=1e-8)
    rel = np.linalg.norm(est.matrix - planted) / np.linalg.norm(planted)
    indep = estimate_coupling(rng.normal(size=(n, r)), rng.normal(size=(n, m)), ridge=1e-6)
    res = moment_identity_check(delta, signal + noise, planted)
    return [
        ("planted coupling recovered at SNR 10", rel < 0.10, f"rel err {rel:.3f}"),
        ("independent residuals give near-zero fit", indep.r_squared < 0.02,
         f"R^2 {indep.r_squared:.4f}"),
        ("moment identities on planted model", res.cross_rel < 0.02 and res.cov_rel < 0.02,
         f"cross {res.cross_rel:.4f}, cov {res.cov_rel:.4f}"),
    ]


_SUITES = {"gradients": _verify_gradients, "span": _verify_span, "bounds": _verify_bounds,
           "coupling": _verify_coupling}


def _cmd_verify(args):
    rng = np.random.default_rng(args.seed)
    names = list(_SUITES) if args.suite == "all" else [args.suite]
    all_ok = True
    for name in names:
        for label, ok, detail in _SUITES[name](rng):
            all_ok &= ok
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {label} ({detail})")
    return 0 if all_ok else 3


# ------------------------------------------------------------ sample-curve


def _cmd_sample_curve(args):
    src, tgt = (_unit_rows(path)[:] for path in (args.src, args.tgt))
    table = sample_complexity_curve(src, tgt, args.sizes, trials=args.trials, seed=args.seed,
                                    holdout=args.holdout)
    rows = [[e["size"], e["gap_mean"], e["gap_std"]] + [float(g) for g in e["gaps"]]
            for e in table]
    header = ["size", "gap_mean", "gap_std"] + [f"trial_{i}" for i in range(args.trials)]
    _write_csv(args.out, header, rows)
    print(f"sample-curve: {len(table)} sizes -> {args.out}")
    return 0


# ---------------------------------------------------------------- bench


def _offset_cov_error(rows):
    """Relative Frobenius error of the accumulator's covariance of ``rows``.

    The oracle is the two-pass covariance in long double: the mean first,
    then the scatter of the centred rows.
    """
    cov = MomentAccumulator(rows.shape[1]).accumulate(rows).finalize().covariance
    wide = rows.astype(np.longdouble)
    centred = wide - wide.mean(axis=0)
    truth = centred.T @ centred / rows.shape[0]
    return float(np.linalg.norm((cov - truth).astype(np.float64))
                 / np.linalg.norm(truth.astype(np.float64)))


_BENCH_CHUNK = 10_000  # rows per timed accumulate call, so the least --sizes entry
_BENCH_PASSES = 3  # each size's time is the best of this many


def _cmd_bench(args):
    """Time the accumulator per row at each --sizes entry, then its precision floor.

    One warm-up accumulate call comes first.  Then 3 passes each time every
    size in turn, and a size's time is the best of its 3: host noise only
    adds time, and cycling through the sizes keeps a slow spell of the host
    off any one size's passes.
    """
    if sorted(args.sizes) != args.sizes:
        raise DataFormatError("bench sizes must be ascending")
    rng = np.random.default_rng(args.seed)
    chunk = rng.normal(size=(_BENCH_CHUNK, args.dims)) + 0.75
    MomentAccumulator(args.dims, track_cov=not args.no_cov).accumulate(chunk)
    rows = [[int(n) // _BENCH_CHUNK * _BENCH_CHUNK, math.inf] for n in args.sizes]
    for _ in range(_BENCH_PASSES):
        for row in rows:
            acc = MomentAccumulator(args.dims, track_cov=not args.no_cov)
            start = time.perf_counter()
            for _ in range(row[0] // _BENCH_CHUNK):
                acc.accumulate(chunk)
            seconds = min(row[1], time.perf_counter() - start)
            row[1:] = [seconds, row[0] / seconds, acc.state_nbytes()]
    header = ["rows", "seconds", "rows_per_sec", "state_bytes"]
    _write_csv(args.out, header, rows)

    replay_n = 500_000
    f64 = MomentAccumulator(args.dims, track_cov=False)
    f32 = Float32ReplayMean(args.dims)
    oracle = CompensatedMean(args.dims)
    gen = np.random.default_rng(args.seed + 1)
    for _ in range(replay_n // _BENCH_CHUNK):
        block = gen.normal(size=(_BENCH_CHUNK, args.dims)) + 0.75
        for acc in (f64, f32, oracle):
            acc.accumulate(block)
    truth = oracle.mean()
    err64 = float(np.linalg.norm(f64.finalize().mean - truth))
    err32 = float(np.linalg.norm(f32.mean().astype(np.float64) - truth))
    offset, offset_n = 1e4, 20_000
    offset_err = _offset_cov_error(gen.normal(size=(offset_n, args.dims)) + offset)
    per_row = [r[1] / r[0] for r in rows]
    spread = max(per_row) / min(per_row)
    print(f"bench: time/row spread x{spread:.3f} across sizes; state bytes "
          f"{sorted(set(int(r[3]) for r in rows))}")
    print(f"bench: f32 replay err {err32:.3e} vs f64 err {err64:.3e} "
          f"(ratio {err32 / max(err64, 1e-300):.1e}) at n={replay_n}")
    print(f"bench: covariance rel err {offset_err:.3e} at offset {offset:g} "
          f"vs two-pass long-double oracle at n={offset_n}")
    if args.report:
        _write_json(args.report, {
            "timing": [dict(zip(header, r)) for r in rows],
            "per_row_spread": spread,
            "f32_replay_error": err32,
            "f64_error": err64,
            "replay_rows": replay_n,
            "offset_cov_rel_error": offset_err,
            "offset": offset,
            "offset_rows": offset_n,
            "provenance": _provenance(args, []),
        })
    return 0


# ----------------------------------------------------------------- main


def build_parser():
    parser = _Parser(prog="gapalign", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    energy = argparse.ArgumentParser(add_help=False)
    energy.add_argument("--energy", type=_bounded("--energy", float, lo=0, hi=1, open_lo=True),
                        default=0.90, help="share of the summed covariances' trace the frame "
                        "keeps, in (0, 1] (align: blockwise only)")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=_bounded("--seed", int, lo=0), default=0,
                        help="key of the random draws, >= 0")

    p = sub.add_parser("stats", help="streaming moments of an embedding file")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--no-cov", action="store_true")
    p.add_argument("--shrink", type=_bounded("--shrink", float, lo=0.0, hi=1.0), default=0.0,
                   help="shrinkage intensity in [0, 1]")
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("frame", parents=[energy],
                       help="build the frozen reference frame from two stats artifacts")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_frame)

    p = sub.add_parser("decompose", help="bias/residual split of paired embedding files")
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--frame", required=True)
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("align", parents=[energy], help="apply a training-free alignment operator")
    p.add_argument("--method", choices=["realign", "blockwise", "c3", "anchor-only"],
                   required=True)
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--stats", help="a realign or blockwise artifact (c3/anchor-only: its means)")
    p.add_argument("--calib-src")
    p.add_argument("--calib-tgt")
    p.add_argument("--save-stats", help="realign and blockwise only: save the fitted operator")
    p.add_argument("--eps", type=_bounded("--eps", float, lo=0.0), default=1e-8,
                   help="realign: trace regularizer, finite and >= 0")
    p.add_argument("--eig-floor", type=_bounded("--eig-floor", float, lo=0.0, hi=1.0),
                   default=1e-6, help="blockwise: relative eigenvalue floor in [0, 1]")
    p.add_argument("--sigma", type=_bounded("--sigma", float, lo=0.0), default=0.04,
                   help="c3 only: noise std, finite and >= 0")
    p.add_argument("--seed", type=_bounded("--seed", int, lo=0, hi=2**128 - 1), default=0,
                   help="c3 only: key of the noise stream, 0 to 2^128 - 1")
    p.set_defaults(func=_cmd_align)

    p = sub.add_parser("diagnose", parents=[seeded],
                       help="alignment quality metrics for two embedding files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--plots-dir")
    p.add_argument("--overlap-with", help="index-aligned transformed copy of --a")
    p.add_argument("--pairs", type=_bounded("--pairs", int, lo=1, hi=10**8), default=200_000,
                   help="sampled pairs per set, 1 to 10^8")
    p.add_argument("--bins", type=_bounded("--bins", int, lo=8, hi=10**6), default=201,
                   help="cosine histogram bins, 8 to 10^6")
    p.add_argument("--smoothing", action="store_true")
    p.add_argument("--k-mix", type=_bounded("--k-mix", int, lo=1), default=20,
                   help="pooled neighbors per row, 1 to the rows of --a and --b less 1")
    p.add_argument("--k-overlap", type=_bounded("--k-overlap", int, lo=1), default=10,
                   help="neighbors per row for --overlap-with, 1 to the rows of --a less 1")
    p.set_defaults(func=_cmd_diagnose)

    p = sub.add_parser("simulate", help="toy dual-encoder training with geometric tracing")
    p.add_argument("--config", help="key = value text file of SimulatorConfig fields")
    p.add_argument("--trace", default="trace.csv")
    p.add_argument("--ablation", action="store_true")
    p.add_argument("--ablation-report", default="ablation.json")
    p.add_argument("--seeds", type=_listed(_bounded("--seeds", int, lo=0)), default="0,1,2,3,4",
                   help="--ablation: comma-separated training seeds, each >= 0")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("verify", parents=[seeded], help="run the analytic-oracle check suites")
    p.add_argument("--suite", choices=[*_SUITES, "all"], default="all")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("sample-curve", parents=[seeded],
                       help="held-out gap vs calibration sample size")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--sizes", type=_listed(_bounded("--sizes", int, lo=1)), required=True,
                   help="ascending comma-separated calibration sizes, each >= 1")
    p.add_argument("--trials", type=_bounded("--trials", int, lo=1, hi=10_000), default=5,
                   help="draws per size, 1 to 10^4")
    p.add_argument("--holdout", type=_bounded("--holdout", int, lo=2), default=None,
                   help="held-out rows per set, >= 2 (default: a fifth of the smaller set)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample_curve)

    p = sub.add_parser("bench", parents=[seeded],
                       help="accumulator throughput, state size, and precision floor",
                       description=_cmd_bench.__doc__)
    p.add_argument("--sizes", type=_listed(_bounded("--sizes", float, lo=_BENCH_CHUNK, hi=1e8)),
                   default="100000,500000,1000000",
                   help="ascending comma-separated row counts, each 10^4 to 10^8")
    # at 1,024 dims the offset-covariance check holds two 20,000 x 1,024 long-double arrays
    p.add_argument("--dims", type=_bounded("--dims", int, lo=1, hi=1024), default=64,
                   help="row width, 1 to 1024")
    p.add_argument("--no-cov", action="store_true")
    p.add_argument("--out", required=True)
    p.add_argument("--report")
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except (DegenerateInputError, np.linalg.LinAlgError) as exc:
        print(f"gapalign: numerical degeneracy: {exc}", file=sys.stderr)
        return 3
    except (DataFormatError, GapAlignError, OSError, ValueError) as exc:
        print(f"gapalign: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
