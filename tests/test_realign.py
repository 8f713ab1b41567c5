import json
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from test_moments import piece_sum_mean

from gapalign import (
    AlignmentStats,
    DataFormatError,
    DegenerateInputError,
    ModalityStats,
    C3Baseline,
    ReferenceFrame,
    apply_blockwise,
    build_frame,
    estimate_blockwise,
    estimate_realign,
    max_principal_sine,
    stats_of,
    substitution_operator,
    sym_eig,
)
from gapalign.realign import BlockwiseStats, _floored_invsqrt, affine_align, sym_sqrt_of


def unit_rows(rows):
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def anisotropic_sphere_sample(rng, n, d, kappa=50.0, offset_scale=0.4, spread=0.25):
    """Unit vectors around a random anchor with an anisotropic spread."""
    variances = np.linspace(kappa, 1.0, d)
    variances *= 1.0 / variances.max()
    offset = rng.normal(size=d)
    offset /= np.linalg.norm(offset) / offset_scale
    raw = offset + spread * rng.standard_normal(size=(n, d)) * np.sqrt(variances)
    return unit_rows(raw)


def unit_rows_f64(rows):
    # the library's normalization: sqrt of the row sum of squares, then divide
    return rows / np.sqrt((rows * rows).sum(axis=-1))[:, None]


def realign_oracle(rows, stats):
    """The realign pipeline on whole arrays, one full-size temporary per step."""
    rows = np.asarray(rows, dtype=np.float64)
    unit1 = unit_rows_f64(stats.mu_tgt + stats.scale * (rows - stats.mu_src))
    return unit_rows_f64(unit1 - stats.mu_drift + stats.mu_tgt)


def blockwise_oracle(rows, stats, skip_centroid=False):
    """The blockwise pipeline as four per-block products on whole arrays."""
    rows = np.asarray(rows, dtype=np.float64)
    anchored = unit_rows_f64(rows - stats.mu_src + stats.mu_tgt)
    basis, comp = stats.frame.basis, stats.basis_out
    recombined = ((anchored @ basis) @ stats.t_in.T) @ basis.T
    if comp.shape[1] > 0:
        recombined = recombined + ((anchored @ comp) @ stats.t_out.T) @ comp.T
    shaped = unit_rows_f64(recombined)
    if skip_centroid:
        return shaped
    return unit_rows_f64(shaped - stats.mu_drift + stats.mu_tgt)


def estimate_blockwise_oracle(frame, src, tgt, eig_floor=1e-6):
    """Blockwise calibration from per-block covariances of projected coordinates."""
    src, tgt = np.asarray(src, dtype=np.float64), np.asarray(tgt, dtype=np.float64)
    mu_src, mu_tgt = src.mean(axis=0), tgt.mean(axis=0)
    anchored = unit_rows_f64(src - mu_src + mu_tgt)
    basis_out = frame.complement_basis()

    def cov(coords):
        centered = coords - coords.mean(axis=0)
        return centered.T @ centered / coords.shape[0]

    def transform(basis):
        invsqrt, _ = _floored_invsqrt(cov(anchored @ basis), eig_floor)
        return sym_sqrt_of(cov(tgt @ basis)) @ invsqrt

    d, r = frame.dims, frame.rank
    stats = BlockwiseStats(
        frame=frame,
        basis_out=basis_out,
        t_in=transform(frame.basis),
        t_out=transform(basis_out) if d > r else np.zeros((0, 0)),
        mu_src=mu_src,
        mu_tgt=mu_tgt,
        mu_drift=np.zeros(d),
        eig_floor=eig_floor,
        calib_n=src.shape[0],
    )
    stats.mu_drift = blockwise_oracle(src, stats, skip_centroid=True).mean(axis=0)
    return stats


def make_stats(mu_src, mu_tgt, trace_src, trace_tgt, mu_drift, eps=0.0):
    scale = float(np.sqrt(trace_tgt / (trace_src + eps)))
    return AlignmentStats(
        mu_src=mu_src,
        mu_tgt=mu_tgt,
        trace_src=trace_src,
        trace_tgt=trace_tgt,
        scale=scale,
        eps=eps,
        mu_drift=mu_drift,
        calib_n=1,
    )


class TestEstimate:
    def test_identical_stats_give_unit_scale(self):
        rng = np.random.default_rng(0)
        src = anisotropic_sphere_sample(rng, 2000, 8)
        stats_both = stats_of(src)
        aligned = estimate_realign(stats_both, stats_both, src, eps=0.0)
        assert aligned.scale == 1.0
        npt.assert_allclose(np.linalg.norm(aligned.mu_drift), np.linalg.norm(src.mean(axis=0)),
                            rtol=1e-6)

    def test_trace_ratio(self):
        rng = np.random.default_rng(1)
        src = unit_rows(rng.normal(size=(100, 4)))
        stats = estimate_realign(
            stats_of(np.zeros((5, 4)) + src[:5]),
            stats_of(src[:5]),
            src,
            eps=0.0,
        )
        assert stats.scale == 1.0
        from gapalign import ModalityStats

        s = estimate_realign(
            ModalityStats(mean=np.zeros(4), trace=1.0, n=10),
            ModalityStats(mean=np.zeros(4), trace=4.0, n=10),
            src,
            eps=0.0,
        )
        assert s.scale == 2.0

    def test_empty_calibration_rejected(self):
        from gapalign import ModalityStats

        m = ModalityStats(mean=np.zeros(3), trace=1.0, n=10)
        with pytest.raises(DegenerateInputError):
            estimate_realign(m, m, np.zeros((0, 3)))

    def test_drift_split_half_stability(self):
        rng = np.random.default_rng(2)
        src = anisotropic_sphere_sample(rng, 50_000, 16, kappa=50.0)
        tgt = anisotropic_sphere_sample(rng, 50_000, 16, kappa=10.0)
        s_src, s_tgt = stats_of(src), stats_of(tgt)
        half_a = estimate_realign(s_src, s_tgt, src[:25_000])
        half_b = estimate_realign(s_src, s_tgt, src[25_000:])
        assert np.linalg.norm(half_a.mu_drift - half_b.mu_drift) < 1e-2

    def test_payload_round_trip(self):
        rng = np.random.default_rng(3)
        src = anisotropic_sphere_sample(rng, 500, 6)
        stats = estimate_realign(stats_of(src), stats_of(src), src)
        back = AlignmentStats.from_payload(stats.to_payload())
        npt.assert_array_equal(back.mu_drift, stats.mu_drift)
        assert back.scale == stats.scale


class TestApply:
    def test_identity_configuration(self):
        stats = make_stats(np.zeros(3), np.zeros(3), 1.0, 1.0, np.zeros(3))
        e = np.array([3.0, 0.0, 4.0])
        npt.assert_allclose(stats.apply(e[None])[0], e / 5.0, rtol=1e-15)
        norm = np.linalg.norm(stats.apply(e[None])[0])
        assert abs(norm - 1.0) < 1e-12

    def test_centered_point_maps_to_anchor_ray(self):
        rng = np.random.default_rng(4)
        mu_src, mu_tgt = (0.5 * v / np.linalg.norm(v) for v in rng.normal(size=(2, 5)))
        drift = rng.normal(size=5) * 0.05
        stats = make_stats(mu_src, mu_tgt, 2.0, 1.0, drift)
        out = stats.apply(mu_src[None])[0]
        expected_unit1 = mu_tgt / np.linalg.norm(mu_tgt)
        expected = expected_unit1 - drift + mu_tgt
        expected /= np.linalg.norm(expected)
        npt.assert_allclose(out, expected, rtol=1e-12)

    def test_affine_moment_matching_same_sample(self):
        rng = np.random.default_rng(5)
        src = anisotropic_sphere_sample(rng, 20_000, 16)
        tgt = anisotropic_sphere_sample(rng, 20_000, 16, kappa=5.0)
        s_src, s_tgt = stats_of(src), stats_of(tgt)
        eps = 1e-8
        stats = estimate_realign(s_src, s_tgt, src, eps=eps)
        transformed = affine_align(src, stats)
        moved = stats_of(transformed)
        assert np.linalg.norm(moved.mean - s_tgt.mean) < 1e-10
        expected_trace = s_tgt.trace * s_src.trace / (s_src.trace + eps)
        npt.assert_allclose(moved.trace, expected_trace, rtol=1e-10)

    def test_step3_mean_restoration_same_sample(self):
        rng = np.random.default_rng(6)
        src = anisotropic_sphere_sample(rng, 10_000, 8)
        tgt = anisotropic_sphere_sample(rng, 10_000, 8, kappa=3.0)
        stats = estimate_realign(stats_of(src), stats_of(tgt), src)
        unit1 = unit_rows(affine_align(src, stats))
        corrected = unit1 - stats.mu_drift + stats.mu_tgt
        assert np.linalg.norm(corrected.mean(axis=0) - stats.mu_tgt) < 1e-12

    def test_step3_mean_restoration_fresh_sample(self):
        rng = np.random.default_rng(7)
        d, n = 8, 100_000
        calib = anisotropic_sphere_sample(rng, n, d)
        rng2 = np.random.default_rng(7)
        fresh = anisotropic_sphere_sample(rng2, n, d)
        tgt = anisotropic_sphere_sample(np.random.default_rng(8), n, d, kappa=3.0)
        stats = estimate_realign(stats_of(calib), stats_of(tgt), calib)
        unit1 = unit_rows(affine_align(fresh, stats))
        corrected = unit1 - stats.mu_drift + stats.mu_tgt
        # fresh-sample restoration is exact in expectation; allow CLT noise
        assert np.linalg.norm(corrected.mean(axis=0) - stats.mu_tgt) < 4.0 * np.sqrt(d / n)

    def test_shape_preservation(self):
        rng = np.random.default_rng(8)
        src = anisotropic_sphere_sample(rng, 5_000, 12)
        tgt = anisotropic_sphere_sample(rng, 5_000, 12, kappa=4.0)
        stats = estimate_realign(stats_of(src), stats_of(tgt), src)
        cov_before = stats_of(src, track_cov=True).covariance
        cov_after = stats_of(affine_align(src, stats), track_cov=True).covariance
        npt.assert_allclose(cov_after, stats.scale**2 * cov_before, rtol=1e-9, atol=1e-14)
        dec_b, dec_a = sym_eig(cov_before), sym_eig(cov_after)
        max_sine = max(
            max_principal_sine(dec_b.eigenvectors[:, [i]], dec_a.eigenvectors[:, [i]])
            for i in range(dec_b.eigenvectors.shape[1])
        )
        assert max_sine < 1e-8
        kb = dec_b.eigenvalues[0] / dec_b.eigenvalues[-1]
        ka = dec_a.eigenvalues[0] / dec_a.eigenvalues[-1]
        assert abs(ka - kb) / kb < 1e-10

    def test_pairwise_cosine_invariance(self):
        rng = np.random.default_rng(9)
        src = anisotropic_sphere_sample(rng, 50, 6)
        tgt = anisotropic_sphere_sample(rng, 50, 6)
        stats = estimate_realign(stats_of(src), stats_of(tgt), src)
        moved = affine_align(src, stats)
        a = src - stats.mu_src
        b = moved - stats.mu_tgt
        cos_a = (a @ a.T) / np.outer(np.linalg.norm(a, axis=1), np.linalg.norm(a, axis=1))
        cos_b = (b @ b.T) / np.outer(np.linalg.norm(b, axis=1), np.linalg.norm(b, axis=1))
        npt.assert_allclose(cos_b, cos_a, atol=1e-12)

    def test_output_unit_norm(self):
        rng = np.random.default_rng(10)
        src = anisotropic_sphere_sample(rng, 200, 5)
        tgt = anisotropic_sphere_sample(rng, 200, 5)
        stats = estimate_realign(stats_of(src), stats_of(tgt), src)
        out = substitution_operator(src, stats)
        npt.assert_allclose(np.linalg.norm(out, axis=1), np.ones(200), atol=1e-12)

    @pytest.mark.parametrize("operator, row", [("realign", 1500), ("calibrate", 1500),
                                               ("blockwise", 9692)])
    def test_collapse_names_row_in_whole_input(self, operator, row):
        rng = np.random.default_rng(30)
        rows = unit_rows(rng.normal(size=(row + 700, 4)))
        rows[row] = 0.0
        stats = make_stats(np.zeros(4), np.zeros(4), 1.0, 1.0, np.zeros(4))
        centred = ModalityStats(mean=np.zeros(4), trace=1.0, n=10)
        frame = ReferenceFrame(basis=np.eye(4)[:, :2], energy_threshold=0.9)
        blockwise = BlockwiseStats(frame=frame, basis_out=frame.complement_basis(),
                                   t_in=np.eye(2), t_out=np.eye(2), mu_src=np.zeros(4),
                                   mu_tgt=np.zeros(4), mu_drift=np.zeros(4), eig_floor=1e-6,
                                   calib_n=1)
        run = {
            "realign": lambda: substitution_operator(rows, stats),
            "calibrate": lambda: estimate_realign(centred, centred, rows),
            "blockwise": lambda: apply_blockwise(rows, blockwise),
        }[operator]
        with pytest.raises(DegenerateInputError, match=f"at row {row}$"):
            run()

    def test_degenerate_collapse_names_stage(self):
        stats = make_stats(np.zeros(2), np.zeros(2), 1.0, 1.0, np.zeros(2))
        with pytest.raises(DegenerateInputError, match="affine-stage"):
            stats.apply(np.zeros(2)[None])


class TestSubstitutionOperator:
    def test_empty_set(self):
        stats = make_stats(np.zeros(3), np.zeros(3), 1.0, 1.0, np.zeros(3))
        out = substitution_operator(np.zeros((0, 3)), stats)
        assert out.shape[0] == 0 and out.shape[1] == 3

    def test_single_row_matches_scalar_apply(self):
        rng = np.random.default_rng(11)
        src = anisotropic_sphere_sample(rng, 100, 4)
        stats = estimate_realign(stats_of(src), stats_of(src), src)
        one = substitution_operator(src[:1], stats)
        npt.assert_array_equal(one[0], stats.apply(src[0][None])[0])

    def test_batch_equals_rowwise_loop_bitwise(self):
        rng = np.random.default_rng(12)
        src = anisotropic_sphere_sample(rng, 10_000, 8)
        tgt = anisotropic_sphere_sample(rng, 10_000, 8, kappa=4.0)
        stats = estimate_realign(stats_of(src), stats_of(tgt), src)
        batch = substitution_operator(src, stats)
        loop = np.vstack([stats.apply(row[None])[0] for row in src])
        npt.assert_array_equal(batch, loop)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 1023, 1024, 1025, 1026, 2050, 3000, 4097, 4099])
    def test_blocked_equals_unblocked_bitwise(self, n, dtype):
        rng = np.random.default_rng(24)
        src = anisotropic_sphere_sample(rng, n, 12)
        tgt = anisotropic_sphere_sample(rng, 3000, 12, kappa=4.0)
        rows = src.astype(dtype)
        stats = estimate_realign(stats_of(src), stats_of(tgt), rows)
        unit1 = unit_rows_f64(stats.mu_tgt + stats.scale * (rows.astype(np.float64) - stats.mu_src))
        npt.assert_array_equal(stats.mu_drift, piece_sum_mean(unit1))
        npt.assert_array_equal(substitution_operator(rows, stats), realign_oracle(rows, stats))

    def test_peak_memory_is_output_plus_one_block(self):
        rng = np.random.default_rng(25)
        rows = unit_rows(rng.standard_normal((20_000, 256))).astype(np.float32)
        stats = make_stats(rows.mean(axis=0), np.roll(rows.mean(axis=0), 1), 1.0, 0.8, np.zeros(256))
        tracemalloc.start()
        try:
            out = substitution_operator(rows, stats)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # whole-array steps would hold several 39 MiB float64 temporaries at once
        assert peak < out.nbytes + 16 * 2**20

    def test_preserves_order(self):
        rng = np.random.default_rng(13)
        src = anisotropic_sphere_sample(rng, 20, 4)
        stats = estimate_realign(stats_of(src), stats_of(src), src)
        out = substitution_operator(src, stats)
        first = stats.apply(src[0][None])[0]
        npt.assert_array_equal(out[0], first)


class TestBaselines:
    def test_anchor_shift_identity_means(self):
        rng = np.random.default_rng(14)
        rows = unit_rows(rng.normal(size=(50, 6)))
        out = C3Baseline(np.zeros(6), np.zeros(6), sigma=0.0).apply(rows)
        npt.assert_allclose(out, rows, atol=1e-12)

    def test_c3_sigma_zero_deterministic(self):
        rng = np.random.default_rng(15)
        rows = unit_rows(rng.normal(size=(20, 4)))
        mu = rows.mean(axis=0)
        a = C3Baseline(mu, np.zeros(4), sigma=0.0).apply(rows)
        b = C3Baseline(mu, np.zeros(4), sigma=0.0).apply(rows)
        npt.assert_array_equal(a, b)
        # without noise the seed draws nothing
        npt.assert_array_equal(a, C3Baseline(mu, np.zeros(4), sigma=0.0, seed=5).apply(rows))

    def test_c3_seeded_reproducible(self):
        rng = np.random.default_rng(16)
        rows = unit_rows(rng.normal(size=(30, 5)))
        mu_src, mu_tgt = rows.mean(axis=0), np.zeros(5)
        a = C3Baseline(mu_src, mu_tgt, sigma=0.1, seed=77).apply(rows)
        b = C3Baseline(mu_src, mu_tgt, sigma=0.1, seed=77).apply(rows)
        c = C3Baseline(mu_src, mu_tgt, sigma=0.1, seed=78).apply(rows)
        npt.assert_array_equal(a, b)
        assert np.linalg.norm(a - c) > 1e-6

    def test_apply_is_bitwise_independent_of_how_rows_are_split_into_calls(self):
        rng = np.random.default_rng(17)
        src = anisotropic_sphere_sample(rng, 3000, 12)
        tgt = anisotropic_sphere_sample(rng, 3000, 12, kappa=4.0)
        stats = estimate_realign(stats_of(src), stats_of(tgt), src)
        rows = src.astype(np.float32)
        cuts = [0, 1000, 1025, rows.shape[0]]
        realign = [stats.apply(rows[lo:hi], lo) for lo, hi in zip(cuts, cuts[1:])]
        npt.assert_array_equal(np.vstack(realign), stats.apply(rows))
        c3 = C3Baseline(stats.mu_src, stats.mu_tgt, sigma=0.05, seed=7)
        split = np.vstack([c3.apply(rows[lo:hi], lo) for lo, hi in zip(cuts, cuts[1:])])
        whole = C3Baseline(stats.mu_src, stats.mu_tgt, sigma=0.05, seed=7).apply(rows)
        npt.assert_array_equal(split, whole)
        stats_src, stats_tgt = stats_of(src, track_cov=True), stats_of(tgt, track_cov=True)
        frame = build_frame(stats_src.covariance, stats_tgt.covariance, energy=0.9)
        blockwise = estimate_blockwise(frame, stats_src, stats_tgt, src)
        split = np.vstack([blockwise.apply(rows[lo:hi], lo) for lo, hi in zip(cuts, cuts[1:])])
        npt.assert_array_equal(split, blockwise.apply(rows))

    def test_c3_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            C3Baseline(np.zeros(2), np.zeros(2), sigma=-0.1)


def test_every_operator_maps_a_single_row_to_a_one_row_matrix():
    # blockwise once returned (d,) for a (d,) row while realign and c3 returned (1, d)
    rng = np.random.default_rng(18)
    src = anisotropic_sphere_sample(rng, 500, 6)
    tgt = anisotropic_sphere_sample(rng, 500, 6, kappa=4.0)
    stats_src, stats_tgt = stats_of(src, track_cov=True), stats_of(tgt, track_cov=True)
    frame = build_frame(stats_src.covariance, stats_tgt.covariance, energy=0.9)
    for op in (estimate_realign(stats_src, stats_tgt, src),
               C3Baseline(stats_src.mean, stats_tgt.mean),
               estimate_blockwise(frame, stats_src, stats_tgt, src)):
        assert op.apply(src[0]).shape == (1, 6)


def test_every_operator_refuses_rows_of_another_width_with_one_message():
    # c3 once raised numpy's "operands could not be broadcast" instead
    rng = np.random.default_rng(19)
    src = anisotropic_sphere_sample(rng, 500, 6)
    tgt = anisotropic_sphere_sample(rng, 500, 6, kappa=4.0)
    stats_src, stats_tgt = stats_of(src, track_cov=True), stats_of(tgt, track_cov=True)
    frame = build_frame(stats_src.covariance, stats_tgt.covariance, energy=0.9)
    for op in (estimate_realign(stats_src, stats_tgt, src),
               C3Baseline(stats_src.mean, stats_tgt.mean, sigma=0.05),
               estimate_blockwise(frame, stats_src, stats_tgt, src)):
        with pytest.raises(DataFormatError, match=r"^rows have 5 dims, the operator expects 6$"):
            op.apply(src[:, :5])


@pytest.mark.parametrize("operator, stage", [("realign", "affine-stage"), ("blockwise", "anchor"),
                                             ("anchor-only", "anchor")])
def test_every_operator_refuses_a_row_whose_norm_overflows_naming_the_stage(operator, stage):
    # `gapalign align` refuses such rows as it reads them; the operators refuse them on their own
    rng = np.random.default_rng(20)
    src = anisotropic_sphere_sample(rng, 500, 6)
    tgt = anisotropic_sphere_sample(rng, 500, 6, kappa=4.0)
    stats_src, stats_tgt = stats_of(src, track_cov=True), stats_of(tgt, track_cov=True)
    if operator == "realign":
        op = estimate_realign(stats_src, stats_tgt, src)
    elif operator == "blockwise":
        frame = build_frame(stats_src.covariance, stats_tgt.covariance, energy=0.9)
        op = estimate_blockwise(frame, stats_src, stats_tgt, src)
    else:
        op = C3Baseline(stats_src.mean, stats_tgt.mean, sigma=0.0)
    with pytest.raises(DegenerateInputError, match=f"^{stage} normalization: norm overflowed "
                                                   "at row 3$"):
        op.apply(np.vstack([src[:3], src[3:10] * 1e200]))


@pytest.mark.parametrize("eps", [np.nan, np.inf, -1e-8])
def test_estimate_realign_rejects_an_eps_that_is_not_finite_and_non_negative(eps):
    stats = ModalityStats(mean=np.zeros(2), trace=1.0, n=10)
    with pytest.raises(ValueError, match="eps must be finite and non-negative"):
        estimate_realign(stats, stats, np.eye(2), eps=eps)


@pytest.mark.parametrize("eig_floor", [np.nan, -1.0, 1.5])
def test_estimate_blockwise_rejects_an_eig_floor_outside_the_unit_interval(eig_floor):
    stats = ModalityStats(mean=np.zeros(2), trace=1.0, n=10, covariance=np.eye(2))
    frame = ReferenceFrame(basis=np.eye(2)[:, :1], energy_threshold=0.9)
    with pytest.raises(ValueError, match=r"eig_floor must be finite and in \[0, 1\]"):
        estimate_blockwise(frame, stats, stats, np.eye(2), eig_floor=eig_floor)


class TestBlockwise:
    @staticmethod
    def concentrated_pair(seed, n=20_000, d=8, offset=0.85, sigma=0.2, energy=0.7):
        """Two sphere clouds sharing the mean-axis variance but with
        different orthogonal variance profiles.

        Norm fluctuation after the block transform scales with the
        cloud's angular spread and with how much the transform stretches
        the mean direction; keeping the spread modest and the mean-axis
        variance equal across modalities keeps the sphere projections
        near-affine, so covariance transport is measurable.
        """
        rng = np.random.default_rng(seed)
        off = np.zeros(d)
        off[0] = offset
        rest = rng.uniform(0.3, 2.0, size=d - 1)
        var_src = np.concatenate([[1.0], rest])
        var_src /= var_src.sum()
        var_tgt = np.concatenate([[1.0], np.roll(rest, 3)])
        var_tgt /= var_tgt.sum()
        src = unit_rows(off + sigma * rng.standard_normal((n, d)) * np.sqrt(var_src))
        tgt = unit_rows(off + sigma * rng.standard_normal((n, d)) * np.sqrt(var_tgt))
        fresh = unit_rows(
            off + sigma * np.random.default_rng(seed + 99).standard_normal((n, d)) * np.sqrt(var_src)
        )
        frame = build_frame(
            stats_of(src, track_cov=True).covariance,
            stats_of(tgt, track_cov=True).covariance,
            energy=energy,
        )
        return src, tgt, fresh, frame

    def make_pair(self, rng, n=20_000, d=8):
        src, tgt, _, frame = self.concentrated_pair(int(rng.integers(1 << 30)), n=n, d=d)
        return src, tgt, frame

    def test_sqrt_helpers_scalar_case(self):
        npt.assert_allclose(sym_sqrt_of(np.array([[1.0]])), [[1.0]])
        inv, floored = _floored_invsqrt(np.array([[4.0]]), 1e-6)
        npt.assert_allclose(sym_sqrt_of(np.array([[1.0]])) @ inv, [[0.5]])
        assert not floored

    def test_identical_blocks_give_identity_transform(self):
        rng = np.random.default_rng(17)
        src, _, frame = self.make_pair(rng, n=5_000)
        stats = estimate_blockwise(frame, stats_of(src), stats_of(src, track_cov=True), src)
        npt.assert_allclose(stats.t_in, np.eye(frame.rank), atol=1e-8)
        npt.assert_allclose(stats.t_out, np.eye(frame.dims - frame.rank), atol=1e-8)

    def test_transform_matches_block_covariance_on_calibration(self):
        rng = np.random.default_rng(18)
        src, tgt, frame = self.make_pair(rng)
        stats = estimate_blockwise(frame, stats_of(src), stats_of(tgt, track_cov=True), src)
        anchored = C3Baseline(stats.mu_src, stats.mu_tgt, sigma=0.0).apply(src)
        coords = anchored @ frame.basis
        cov_src = np.cov(coords.T, bias=True)
        cov_tgt = np.cov((tgt @ frame.basis).T, bias=True)
        moved = stats.t_in @ cov_src @ stats.t_in.T
        assert np.linalg.norm(moved - cov_tgt) / np.linalg.norm(cov_tgt) < 1e-6

    def test_applied_output_matches_target_blocks(self):
        src, tgt, fresh, frame = self.concentrated_pair(19, n=40_000)
        stats = estimate_blockwise(frame, stats_of(src), stats_of(tgt, track_cov=True), src)
        out = apply_blockwise(fresh, stats)
        for basis in (frame.basis, stats.basis_out):
            cov_out = np.cov((out @ basis).T, bias=True)
            cov_tgt = np.cov((tgt @ basis).T, bias=True)
            assert np.linalg.norm(cov_out - cov_tgt) / np.linalg.norm(cov_tgt) < 0.05

    def test_identity_stats_return_normalized_input(self):
        rng = np.random.default_rng(20)
        frame = ReferenceFrame(
            basis=np.linalg.qr(rng.normal(size=(6, 2)))[0], energy_threshold=0.9
        )
        stats = BlockwiseStats(
            frame=frame,
            basis_out=frame.complement_basis(),
            t_in=np.eye(2),
            t_out=np.eye(4),
            mu_src=np.zeros(6),
            mu_tgt=np.zeros(6),
            mu_drift=np.zeros(6),
            eig_floor=1e-6,
            calib_n=1,
        )
        rows = unit_rows(rng.normal(size=(10, 6)))
        npt.assert_allclose(apply_blockwise(rows, stats), rows, atol=1e-12)

    def test_pure_subspace_input_closed_form(self):
        rng = np.random.default_rng(21)
        frame = ReferenceFrame(
            basis=np.linalg.qr(rng.normal(size=(5, 3)))[0], energy_threshold=0.9
        )
        t_in = np.diag([2.0, 1.0, 1.0])
        stats = BlockwiseStats(
            frame=frame,
            basis_out=frame.complement_basis(),
            t_in=t_in,
            t_out=np.eye(2),
            mu_src=np.zeros(5),
            mu_tgt=np.zeros(5),
            mu_drift=np.zeros(5),
            eig_floor=1e-6,
            calib_n=1,
        )
        coeff = np.array([0.6, 0.0, 0.8])
        x = frame.lift(coeff)
        expected = frame.lift(t_in @ coeff)
        expected /= np.linalg.norm(expected)
        npt.assert_allclose(apply_blockwise(x, stats), expected[None], atol=1e-12)

    def test_ill_conditioned_source_floors_and_flags(self):
        # a condition number near 1e3 inside the blocks; a floor of 1e-2
        # caps the whitening amplification and must be reported
        rng = np.random.default_rng(22)
        d = 6
        variances = np.geomspace(1.0, 1e-4, d)
        src = unit_rows(
            np.array([0.8, 0, 0, 0, 0, 0.1]) + rng.standard_normal((5_000, d)) * np.sqrt(variances) * 0.2
        )
        tgt = anisotropic_sphere_sample(rng, 5_000, d, kappa=3.0)
        frame = build_frame(
            stats_of(src, track_cov=True).covariance,
            stats_of(tgt, track_cov=True).covariance,
            energy=0.9,
        )
        with pytest.warns(UserWarning, match="floor"):
            stats = estimate_blockwise(frame, stats_of(src), stats_of(tgt, track_cov=True), src,
                                       eig_floor=1e-2)
        assert stats.floored
        out = apply_blockwise(src[:100], stats)
        assert np.isfinite(out).all()

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 1025, 8191, 8192, 8193, 8194, 16_385])
    def test_composed_operator_matches_per_block_products(self, n, dtype):
        src, tgt, fresh, frame = self.concentrated_pair(26, n=16_385)
        stats = estimate_blockwise(frame, stats_of(src), stats_of(tgt, track_cov=True), src)
        rows = fresh[:n].astype(dtype)
        npt.assert_allclose(apply_blockwise(rows, stats), blockwise_oracle(rows, stats),
                            rtol=0, atol=1e-12)

    def test_calibration_matches_projected_block_covariances(self):
        # 8,193 calibration rows: the centred covariance and the drift pass
        # both cross a row-block boundary
        src, tgt, _, frame = self.concentrated_pair(27, n=8_193)
        stats = estimate_blockwise(frame, stats_of(src), stats_of(tgt, track_cov=True), src)
        expected = estimate_blockwise_oracle(frame, src, tgt)
        for name in ("t_in", "t_out", "mu_src", "mu_tgt", "mu_drift"):
            npt.assert_allclose(getattr(stats, name), getattr(expected, name), rtol=0,
                                atol=1e-12, err_msg=name)

    def test_rank_d_frame_has_empty_complement(self):
        src, tgt, fresh, _ = self.concentrated_pair(28, n=9_000)
        frame = ReferenceFrame(basis=np.linalg.qr(np.random.default_rng(28).normal(size=(8, 8)))[0],
                               energy_threshold=1.0)
        stats = estimate_blockwise(frame, stats_of(src), stats_of(tgt, track_cov=True), src)
        assert stats.basis_out.shape == (8, 0) and stats.t_out.shape == (0, 0)
        expected = estimate_blockwise_oracle(frame, src, tgt)
        npt.assert_allclose(stats.t_in, expected.t_in, rtol=0, atol=1e-12)
        npt.assert_allclose(apply_blockwise(fresh, stats), blockwise_oracle(fresh, stats),
                            rtol=0, atol=1e-12)
        # JSON stores the 0 x 0 t_out as [], which must still load as 0 x 0
        back = BlockwiseStats.from_payload(json.loads(json.dumps(stats.to_payload(),
                                                                 default=np.ndarray.tolist)))
        assert back.basis_out.shape == (8, 0) and back.t_out.shape == (0, 0)
        npt.assert_array_equal(apply_blockwise(fresh, back), apply_blockwise(fresh, stats))

    @pytest.mark.parametrize("field, value", [
        ("basis_out", np.zeros((6, 3))),
        ("t_in", np.eye(3)),
        ("t_out", np.full((4, 4), np.nan)),
        ("mu_src", np.zeros(5)),
        ("mu_tgt", np.array([0, 0, np.inf, 0, 0, 0])),
        ("mu_drift", np.full(6, np.nan)),
        ("mu_drift", np.full(6, 0.5)),  # longer than 1; apply once turned every row to -mu_drift
    ])
    def test_malformed_fields_rejected(self, field, value):
        rng = np.random.default_rng(29)
        frame = ReferenceFrame(basis=np.linalg.qr(rng.normal(size=(6, 2)))[0], energy_threshold=0.9)
        fields = dict(frame=frame, basis_out=frame.complement_basis(), t_in=np.eye(2),
                      t_out=np.eye(4), mu_src=np.zeros(6), mu_tgt=np.zeros(6),
                      mu_drift=np.zeros(6), eig_floor=1e-6, calib_n=1)
        BlockwiseStats(**fields)
        fields[field] = value
        with pytest.raises(DataFormatError, match=field):
            BlockwiseStats(**fields)

    def test_payload_round_trip(self):
        rng = np.random.default_rng(23)
        src, tgt, frame = self.make_pair(rng, n=3_000)
        stats = estimate_blockwise(frame, stats_of(src), stats_of(tgt, track_cov=True), src)
        back = BlockwiseStats.from_payload(stats.to_payload())
        npt.assert_array_equal(back.t_in, stats.t_in)
        npt.assert_array_equal(back.mu_drift, stats.mu_drift)
        rows = src[:7]
        npt.assert_array_equal(apply_blockwise(rows, back), apply_blockwise(rows, stats))
