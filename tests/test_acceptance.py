"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the line per
criterion; tolerances are pinned here and nowhere else.
"""

import csv
import json
import time

import numpy as np
import pytest

from gapalign import (
    ContrastiveBatch,
    ReferenceFrame,
    apply_blockwise,
    build_frame,
    cosine_histogram,
    effective_rank,
    estimate_blockwise,
    estimate_coupling,
    estimate_realign,
    grad_anchor,
    grad_candidate,
    js_divergence,
    knn_mixing_rate,
    knn_overlap,
    leakage_ratio,
    max_principal_sine,
    moment_identity_check,
    phantom_drift,
    power_law_alpha,
    sample_complexity_curve,
    stats_of,
    sym_eig,
    tyler_shape,
)
from gapalign.cli import main
from gapalign.diagnostics import CosineHistogram
from gapalign.frame import geometric_baseline
from gapalign.realign import affine_align
from gapalign.simulator import SimulatorConfig, gap_necessity_ablation, run_toy_training


def report(number, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def unit_rows(rows):
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def anisotropic_source(rng, n, d, kappa, offset_scale=0.6, spread=0.35):
    """Unit rows whose pre-normalization covariance has condition kappa."""
    variances = np.linspace(kappa, 1.0, d)
    variances /= variances.max()
    offset = rng.normal(size=d)
    offset *= offset_scale / np.linalg.norm(offset)
    raw = offset + spread * rng.standard_normal((n, d)) * np.sqrt(variances)
    return unit_rows(raw)


def test_criterion_1_realign_moment_correctness():
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    d, n = 64, 100_000
    src = anisotropic_source(rng, n, d, kappa=100.0)
    tgt = anisotropic_source(rng, n, d, kappa=10.0)
    s_src, s_tgt = stats_of(src), stats_of(tgt)
    eps = 1e-8
    stats = estimate_realign(s_src, s_tgt, src, eps=eps)

    moved = affine_align(src, stats)
    after = stats_of(moved)
    mean_err = float(np.linalg.norm(after.mean - s_tgt.mean))
    expected_trace = s_tgt.trace * s_src.trace / (s_src.trace + eps)
    trace_err = abs(after.trace - expected_trace) / expected_trace

    # with eps = 0 the affine output trace must equal the target trace itself
    stats0 = estimate_realign(s_src, s_tgt, src, eps=0.0)
    after0 = stats_of(affine_align(src, stats0))
    trace_err0 = abs(after0.trace - s_tgt.trace) / s_tgt.trace

    unit1 = unit_rows(affine_align(src, stats))
    corrected_mean = unit1.mean(axis=0) - stats.mu_drift + stats.mu_tgt
    step3_err = float(np.linalg.norm(corrected_mean - stats.mu_tgt))
    elapsed = time.perf_counter() - start

    ok = (
        mean_err < 1e-10
        and trace_err < 1e-10
        and trace_err0 < 1e-10
        and step3_err < 1e-12
        and elapsed < 10.0
    )
    report(1, ok, f"mean err {mean_err:.2e}, trace rel {trace_err:.2e} (eps=0: {trace_err0:.2e}), "
                  f"step-3 mean err {step3_err:.2e}, {elapsed:.1f}s")


def test_criterion_2_shape_preservation():
    rng = np.random.default_rng(2)
    d, n = 32, 20_000
    src = anisotropic_source(rng, n, d, kappa=50.0)
    tgt = anisotropic_source(rng, n, d, kappa=5.0)
    stats = estimate_realign(stats_of(src), stats_of(tgt), src)
    cov_before = stats_of(src, track_cov=True).covariance
    cov_after = stats_of(affine_align(src, stats), track_cov=True).covariance

    scale_err = np.linalg.norm(cov_after - stats.scale**2 * cov_before) / np.linalg.norm(
        stats.scale**2 * cov_before
    )
    dec_b, dec_a = sym_eig(cov_before), sym_eig(cov_after)
    # arccos of a dot product near 1 cannot resolve angles below ~1.5e-8 rad
    max_angle = max(
        max_principal_sine(dec_b.eigenvectors[:, [i]], dec_a.eigenvectors[:, [i]])
        for i in range(d)
    )
    kappa_b = dec_b.eigenvalues[0] / dec_b.eigenvalues[-1]
    kappa_a = dec_a.eigenvalues[0] / dec_a.eigenvalues[-1]
    kappa_rel = abs(kappa_a - kappa_b) / kappa_b

    ok = scale_err < 1e-10 and max_angle < 1e-8 and kappa_rel < 1e-10
    report(2, ok, f"cov scaling rel {scale_err:.2e}, max eigvec angle {max_angle:.2e} rad, "
                  f"kappa rel change {kappa_rel:.2e}")


def test_criterion_3_gradient_oracle():
    start = time.perf_counter()
    rng = np.random.default_rng(3)
    b, d = 8, 16
    h = 1e-5
    worst_fd = worst_span = worst_collinear = 0.0
    for trial in range(100):
        tau = (0.05, 0.5, 1.0)[trial % 3]
        batch = ContrastiveBatch(
            anchors=unit_rows(rng.normal(size=(b, d))),
            candidates=unit_rows(rng.normal(size=(b, d))),
            temperature=tau,
        )
        i = int(rng.integers(b))

        def loss_at(vec):
            sims = batch.candidates @ vec / tau
            return float(np.log(np.exp(sims - sims.max()).sum()) + sims.max() - sims[i])

        g = grad_anchor(batch, i)
        fd = np.empty(d)
        for axis in range(d):
            plus, minus = batch.anchors[i].copy(), batch.anchors[i].copy()
            plus[axis] += h
            minus[axis] -= h
            fd[axis] = (loss_at(plus) - loss_at(minus)) / (2 * h)
        worst_fd = max(worst_fd, np.linalg.norm(fd - g) / max(np.linalg.norm(g), 1.0))

        coeffs, *_ = np.linalg.lstsq(batch.candidates.T, g, rcond=None)
        worst_span = max(
            worst_span, np.linalg.norm(g - batch.candidates.T @ coeffs) / np.linalg.norm(g)
        )

        j = int(rng.integers(b))
        gc = grad_candidate(batch, i, j)
        x = batch.anchors[i]
        cross = gc - (gc @ x) * x
        worst_collinear = max(
            worst_collinear, np.linalg.norm(cross) / max(np.linalg.norm(gc), 1.0)
        )
    elapsed = time.perf_counter() - start
    ok = worst_fd < 1e-6 and worst_span < 1e-10 and worst_collinear < 1e-12 and elapsed < 5.0
    report(3, ok, f"fd rel {worst_fd:.2e}, span resid {worst_span:.2e}, "
                  f"collinearity {worst_collinear:.2e}, {elapsed:.1f}s")


def test_criterion_4_leakage_bound():
    rng = np.random.default_rng(4)
    violations = 0
    worst = -np.inf
    for _ in range(10_000):
        d = int(rng.integers(2, 65))
        r = int(rng.integers(1, d)) if d > 1 else 1
        frame = ReferenceFrame(
            basis=np.linalg.qr(rng.normal(size=(d, r)))[0], energy_threshold=0.9
        )
        basis_t = np.linalg.qr(rng.normal(size=(d, r)))[0]
        g = basis_t @ rng.normal(size=r)
        excess = leakage_ratio(g, frame) - geometric_baseline(frame, basis_t)
        worst = max(worst, excess)
        if excess > 1e-12:
            violations += 1
    ok = violations == 0
    report(4, ok, f"0 of 10000 allowed, got {violations} (worst excess {worst:.2e})")


def test_criterion_5_tyler_estimator():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    d, n = 8, 20_000
    planted = np.geomspace(100.0, 1.0, d)
    raw = rng.standard_normal((n, d)) * np.sqrt(planted)
    directions = unit_rows(raw)
    est = tyler_shape(directions)
    truth = np.diag(planted) * d / planted.sum()
    rel = np.linalg.norm(est.sigma_hat - truth) / np.linalg.norm(truth)
    trace_err = abs(np.trace(est.sigma_hat) - d)
    scaled = tyler_shape(4.0 * directions)
    bitwise = np.array_equal(est.sigma_hat, scaled.sigma_hat)
    elapsed = time.perf_counter() - start
    ok = rel < 0.05 and trace_err < 1e-10 and bitwise and elapsed < 30.0
    report(5, ok, f"shape rel {rel:.3f}, trace err {trace_err:.2e}, "
                  f"scale-invariant bitwise={bitwise}, {elapsed:.1f}s")


def test_criterion_6_coupling_recovery():
    rng = np.random.default_rng(6)
    n, r, m = 10_000, 4, 6
    planted = rng.normal(size=(m, r))
    din = rng.normal(size=(n, r))
    signal = din @ planted.T
    noise = rng.normal(size=(n, m)) * np.sqrt(np.mean(signal**2) / 10.0)
    dout = signal + noise
    est = estimate_coupling(din, dout, ridge=1e-8)
    rel = np.linalg.norm(est.matrix - planted) / np.linalg.norm(planted)
    res = moment_identity_check(din, dout, planted)
    indep = estimate_coupling(rng.normal(size=(n, r)), rng.normal(size=(n, m)), ridge=1e-6)
    ok = rel < 0.10 and res.cross_rel < 0.02 and res.cov_rel < 0.02 and indep.r_squared < 0.02
    report(6, ok, f"L rel {rel:.4f}, identities ({res.cross_rel:.4f}, {res.cov_rel:.4f}), "
                  f"independence R^2 {indep.r_squared:.4f}")


def test_criterion_7_spectrum_metrics():
    k = np.arange(1, 129, dtype=np.float64)
    alpha_errs = []
    for alpha in (1.0, 1.33, 2.0):
        got = power_law_alpha(3.7 * k**-alpha, 2, 128)
        alpha_errs.append(abs(got - alpha))
    er = effective_rank(np.ones(32))
    edges = np.linspace(-1, 1, 3)
    p = CosineHistogram(edges, np.array([1.0, 0.0]), 1, 0)
    q = CosineHistogram(edges, np.array([0.0, 1.0]), 1, 0)
    js_self = js_divergence(p, p)
    js_disjoint = js_divergence(p, q)
    ok = (
        max(alpha_errs) < 1e-3
        and abs(er - 32.0) < 1e-6
        and js_self == 0.0
        and abs(js_disjoint - np.log(2.0)) < 1e-12
    )
    report(7, ok, f"alpha errs {[f'{e:.1e}' for e in alpha_errs]}, eff rank err "
                  f"{abs(er - 32):.1e}, JS self {js_self}, JS disjoint err "
                  f"{abs(js_disjoint - np.log(2)):.1e}")


def test_criterion_8_knn_diagnostics():
    rng = np.random.default_rng(8)
    d = 8
    a = rng.standard_normal((2000, d))
    b = rng.standard_normal((2000, d))
    mixing = knn_mixing_rate(a, b, k=20)

    far = rng.standard_normal((500, d))
    separated = knn_mixing_rate(far, far + 10.0 * np.sqrt(d), k=20)

    x = rng.standard_normal((500, d))
    rot = np.linalg.qr(rng.normal(size=(d, d)))[0]
    overlap_id = knn_overlap(x, x, k=10)
    overlap_rigid = knn_overlap(x, 1.7 * (x @ rot.T), k=10)
    overlap_null = knn_overlap(x, rng.standard_normal((500, d)), k=10)
    null_rate = 10 / 499

    ok = (
        0.45 <= mixing <= 0.55
        and separated < 0.01
        and overlap_id == 1.0
        and overlap_rigid == 1.0
        and 0.5 * null_rate <= overlap_null <= 2.0 * null_rate
    )
    report(8, ok, f"mixing {mixing:.3f}, separated {separated:.4f}, overlap id/rigid "
                  f"{overlap_id}/{overlap_rigid}, null {overlap_null:.4f} "
                  f"(target {null_rate:.4f})")


def test_criterion_9_phantom_drift():
    rng = np.random.default_rng(9)
    d, n = 8, 100_000
    m = np.zeros(d)
    m[:2] = 0.5
    scales = np.ones(d)
    scales[0] = 10.0
    aniso = rng.standard_normal((n, d)) * scales
    iso = rng.standard_normal((n, d))
    angle_aniso = phantom_drift(m, aniso).drift_angle_deg
    angle_iso = phantom_drift(m, iso).drift_angle_deg

    sym = rng.standard_normal((n, d)) * scales
    dirs = sym / np.linalg.norm(sym, axis=1, keepdims=True)
    sym_mean = float(np.linalg.norm(dirs.mean(axis=0)))

    ok = angle_aniso >= angle_iso + 5.0 and sym_mean < 3.0 / np.sqrt(n)
    report(9, ok, f"anisotropic angle {angle_aniso:.1f} vs isotropic {angle_iso:.1f} deg, "
                  f"symmetric mean {sym_mean:.2e} < {3 / np.sqrt(n):.2e}")


def test_criterion_10_streaming_contracts(tmp_path):
    # `gapalign bench` is the accumulator's one probe: a warm-up call, then each size's
    # time the best of 3 passes that cycle through the sizes; its float32 replay draws
    # 500k rows from default_rng(seed + 1)
    start = time.perf_counter()
    out, path = tmp_path / "bench.csv", tmp_path / "bench.json"
    assert main(["bench", "--seed", "10", "--dims", "64", "--out", str(out),
                 "--report", str(path)]) == 0
    elapsed = time.perf_counter() - start
    doc = json.loads(path.read_text())
    timing = list(csv.DictReader(out.read_text().splitlines()))
    assert [int(row["rows"]) for row in timing] == [100_000, 500_000, 1_000_000]
    per_row = [float(row["seconds"]) / int(row["rows"]) for row in timing]
    spread = max(per_row) / min(per_row)
    assert spread == pytest.approx(doc["per_row_spread"], rel=1e-12)
    state_sizes = {int(row["state_bytes"]) for row in timing}
    err32, err64 = doc["f32_replay_error"], doc["f64_error"]
    ok = spread <= 1.25 and len(state_sizes) == 1 and err32 >= 1e3 * err64 and elapsed < 120.0
    report(10, ok, f"time/row spread x{spread:.3f}, state bytes {state_sizes}, "
                   f"f32/f64 err ratio {err32 / max(err64, 1e-300):.1e}, {elapsed:.1f}s")


def test_criterion_11_sample_complexity_curve():
    rng = np.random.default_rng(11)
    d, total = 16, 130_000
    src = unit_rows(np.array([0.5] + [0.0] * (d - 1)) + 0.4 * rng.standard_normal((total, d)))
    tgt = unit_rows(
        np.array([0.0, 0.6] + [0.0] * (d - 2)) + 0.3 * rng.standard_normal((total, d))
    )
    table = sample_complexity_curve(
        src, tgt, sizes=[100, 1_000, 10_000, 100_000], trials=5, seed=0, holdout=20_000
    )
    gaps = {row["size"]: row["gap_mean"] for row in table}
    stds = {row["size"]: row["gap_std"] for row in table}
    plateau = gaps[10_000] <= 2.0 * gaps[100_000]
    ratio = stds[100] / stds[10_000]
    expected = np.sqrt(10_000 / 100)
    clt = expected / 2 <= ratio <= expected * 2
    ok = plateau and clt
    report(11, ok, f"gap(1e4)={gaps[10_000]:.2e} vs 2x gap(1e5)={2 * gaps[100_000]:.2e}; "
                   f"std ratio {ratio:.1f} (CLT {expected:.1f} within x2)")


def test_criterion_12_toy_training_defaults():
    start = time.perf_counter()
    trace = run_toy_training(SimulatorConfig())
    arr = np.array
    quartile = max(1, len(trace.steps) // 4)
    rho_min = min(trace.rho_align[-quartile:])
    bound_ok = (
        arr(trace.leak_ref) <= arr(trace.sin_theta) + arr(trace.coupling_norm) + 1e-6
    ).mean()
    cos_med = float(np.median(arr(trace.cos_stability)[1:]))
    ku, kv = trace.kappa_u[-1], trace.kappa_v[-1]
    elapsed = time.perf_counter() - start
    ok = (
        rho_min > 0.9
        and bound_ok >= 0.99
        and cos_med > 0.95
        and ku > kv > 1.0
        and elapsed < 300.0
    )
    report(12, ok, f"rho final-quartile min {rho_min:.3f}, bound held at {bound_ok:.1%} of "
                   f"steps, cos median {cos_med:.3f}, kappa_u {ku:.1f} > kappa_v {kv:.1f} > 1, "
                   f"{elapsed:.0f}s")


def test_criterion_13_gap_necessity_ablation():
    config = SimulatorConfig(steps=600, offset_scale=1.5, probe_size=4096)
    rep = gap_necessity_ablation(config, seeds=(0, 1, 2, 3, 4),
                                 variants=("baseline", "shared_encoder"))
    ratio = rep["baseline_over_shared"]
    ok = ratio >= 10.0
    report(13, ok, f"baseline mean gamma {rep['baseline']['mean']:.4f} vs shared "
                   f"{rep['shared_encoder']['mean']:.4f}: ratio {ratio:.1f} (>= 10)")


def test_criterion_14_blockwise_operator():
    rng = np.random.default_rng(14)
    d, n = 8, 100_000
    off = np.zeros(d)
    off[0] = 0.85
    rest = rng.uniform(0.3, 2.0, size=d - 1)
    var_src = np.concatenate([[1.0], rest])
    var_src /= var_src.sum()
    var_tgt = np.concatenate([[1.0], np.roll(rest, 3)])
    var_tgt /= var_tgt.sum()
    sigma = 0.2
    src = unit_rows(off + sigma * rng.standard_normal((n, d)) * np.sqrt(var_src))
    tgt = unit_rows(off + sigma * rng.standard_normal((n, d)) * np.sqrt(var_tgt))
    fresh = unit_rows(
        off + sigma * np.random.default_rng(15).standard_normal((n, d)) * np.sqrt(var_src)
    )
    frame = build_frame(
        stats_of(src, track_cov=True).covariance,
        stats_of(tgt, track_cov=True).covariance,
        energy=0.7,
    )
    stats = estimate_blockwise(frame, stats_of(src), stats_of(tgt, track_cov=True), src)
    out = apply_blockwise(fresh, stats)
    rels = []
    for basis in (frame.basis, stats.basis_out):
        cov_out = np.cov((out @ basis).T, bias=True)
        cov_tgt = np.cov((tgt @ basis).T, bias=True)
        rels.append(np.linalg.norm(cov_out - cov_tgt) / np.linalg.norm(cov_tgt))

    # ill-conditioned source: in-block condition number near 1e3; a floor
    # of 1e-2 must engage, flag, and keep outputs finite
    variances = np.geomspace(1.0, 1e-4, d)
    hard_src = unit_rows(
        np.array([0.8, 0, 0, 0, 0, 0, 0, 0.1])
        + rng.standard_normal((20_000, d)) * np.sqrt(variances) * 0.2
    )
    hard_frame = build_frame(
        stats_of(hard_src, track_cov=True).covariance,
        stats_of(tgt[:20_000], track_cov=True).covariance,
        energy=0.9,
    )
    with pytest.warns(UserWarning, match="floor"):
        hard_stats = estimate_blockwise(hard_frame, stats_of(hard_src),
                                        stats_of(tgt[:20_000], track_cov=True), hard_src,
                                        eig_floor=1e-2)
    hard_out = apply_blockwise(hard_src[:1000], hard_stats)
    ok = max(rels) < 0.03 and hard_stats.floored and np.isfinite(hard_out).all()
    report(14, ok, f"block cov rel ({rels[0]:.4f}, {rels[1]:.4f}) < 0.03; ill-conditioned "
                   f"floored={hard_stats.floored}, outputs finite={np.isfinite(hard_out).all()}")
