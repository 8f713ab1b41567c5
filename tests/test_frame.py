import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from test_moments import piece_sum_mean

from gapalign import (
    DataFormatError,
    DegenerateInputError,
    ReferenceFrame,
    build_frame,
    cosine_stability,
    decompose_gap,
    geometric_baseline,
    leakage_ratio,
    noise_angle_degrees,
    relative_drift,
    spectrum_correlation,
)


def decompose_gap_oracle(x, y, frame):
    """The whole-array split: widened inputs, full-size temporaries, the streamed mean's rule."""
    x = np.asarray(x).astype(np.float64, copy=False)
    y = np.asarray(y).astype(np.float64, copy=False)
    diffs = x - y
    mean_gap = piece_sum_mean(diffs)
    bias_in = frame.coords(mean_gap)
    bias_out = mean_gap - frame.lift(bias_in)
    centered = diffs - mean_gap
    resid_in = frame.coords(centered)
    resid_out = centered - frame.lift(resid_in)
    return bias_in, bias_out, resid_in, resid_out, mean_gap


def random_frame(rng, d, r):
    basis = np.linalg.qr(rng.normal(size=(d, r)))[0]
    return ReferenceFrame(basis=basis, energy_threshold=0.9)


class TestBuildFrame:
    def test_rank_one(self):
        frame = build_frame(np.diag([1.0, 0.0]), np.diag([1.0, 0.0]), energy=0.9)
        assert frame.rank == 1
        npt.assert_allclose(np.abs(frame.basis), [[1.0], [0.0]], atol=1e-14)

    def test_uniform_spectrum_tie(self):
        frame = build_frame(0.5 * np.eye(4), 0.5 * np.eye(4), energy=0.5)
        assert frame.rank == 2

    def test_cumulative_energy(self):
        cov = np.diag([8.0, 1.0, 1.0])
        frame = build_frame(0.5 * cov, 0.5 * cov, energy=0.85)
        assert frame.rank == 2

    def test_zero_variance_rejected(self):
        with pytest.raises(DegenerateInputError):
            build_frame(np.zeros((3, 3)), np.zeros((3, 3)))

    def test_rebuild_identical(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(6, 6))
        cov = a @ a.T
        f1 = build_frame(cov, cov.copy(), energy=0.9)
        f2 = build_frame(cov, cov.copy(), energy=0.9)
        npt.assert_array_equal(f1.basis, f2.basis)

    def test_artifact_payload_round_trip(self):
        frame = build_frame(np.diag([3.0, 1.0, 0.1]), np.diag([1.0, 1.0, 0.1]), energy=0.8)
        back = ReferenceFrame.from_payload(frame.to_payload())
        npt.assert_array_equal(back.basis, frame.basis)
        assert back.energy_threshold == frame.energy_threshold

    def test_non_finite_basis_rejected(self):
        # a NaN makes the orthonormality residual NaN, which no bound rejects
        basis = np.eye(4)[:, :2].copy()
        basis[1, 0] = np.nan
        with pytest.raises(DataFormatError, match="non-finite"):
            ReferenceFrame(basis=basis, energy_threshold=0.9)


class TestProjections:
    def test_axis_frame(self):
        frame = ReferenceFrame(basis=np.array([[1.0], [0.0]]), energy_threshold=0.9)
        v = np.array([3.0, 4.0])
        npt.assert_allclose(frame.coords(v), [3.0])
        npt.assert_allclose(frame.project_complement(v), [0.0, 4.0])

    def test_vector_in_subspace_has_zero_complement(self):
        rng = np.random.default_rng(1)
        frame = random_frame(rng, 8, 3)
        v = frame.lift(rng.normal(size=3))
        assert np.linalg.norm(frame.project_complement(v)) < 1e-12

    def test_pythagoras(self):
        rng = np.random.default_rng(2)
        frame = random_frame(rng, 10, 4)
        for _ in range(10):
            v = rng.normal(size=10)
            lhs = np.linalg.norm(v) ** 2
            rhs = np.linalg.norm(frame.coords(v)) ** 2
            rhs += np.linalg.norm(frame.project_complement(v)) ** 2
            assert abs(lhs - rhs) < 1e-10

    def test_complement_projection_idempotent(self):
        rng = np.random.default_rng(3)
        frame = random_frame(rng, 7, 2)
        v = rng.normal(size=7)
        once = frame.project_complement(v)
        twice = frame.project_complement(once)
        npt.assert_allclose(twice, once, atol=1e-12)

    def test_complement_basis_orthonormal_and_complementary(self):
        rng = np.random.default_rng(4)
        frame = random_frame(rng, 9, 4)
        comp = frame.complement_basis()
        assert comp.shape == (9, 5)
        npt.assert_allclose(comp.T @ comp, np.eye(5), atol=1e-12)
        npt.assert_allclose(frame.basis.T @ comp, np.zeros((4, 5)), atol=1e-12)


class TestDecomposeGap:
    def test_identical_sets_all_zero(self):
        rng = np.random.default_rng(5)
        frame = random_frame(rng, 6, 2)
        x = rng.normal(size=(20, 6))
        dec = decompose_gap(x, x, frame)
        assert np.linalg.norm(dec.mean_gap) == 0.0
        assert np.linalg.norm(dec.bias_in) == 0.0
        assert np.linalg.norm(dec.resid_out) == 0.0

    def test_constant_gap_in_complement(self):
        rng = np.random.default_rng(6)
        frame = random_frame(rng, 6, 2)
        shift = frame.project_complement(rng.normal(size=6))
        y = rng.normal(size=(30, 6))
        dec = decompose_gap(y + shift, y, frame)
        npt.assert_allclose(dec.bias_in, np.zeros(2), atol=1e-12)
        npt.assert_allclose(dec.bias_out, shift, atol=1e-12)
        assert np.linalg.norm(dec.resid_in) < 1e-10
        assert np.linalg.norm(dec.resid_out) < 1e-10

    def test_per_sample_reconstruction(self):
        rng = np.random.default_rng(7)
        frame = random_frame(rng, 8, 3)
        x = rng.normal(size=(100, 8))
        y = rng.normal(size=(100, 8))
        dec = decompose_gap(x, y, frame)
        rebuilt = (
            frame.lift(dec.bias_in)
            + dec.bias_out
            + frame.lift(dec.resid_in)
            + dec.resid_out
        )
        npt.assert_allclose(rebuilt, x - y, atol=1e-10)

    def test_residuals_zero_mean_and_bias_out_in_complement(self):
        rng = np.random.default_rng(8)
        frame = random_frame(rng, 8, 3)
        dec = decompose_gap(rng.normal(size=(50, 8)), rng.normal(size=(50, 8)), frame)
        assert np.linalg.norm(dec.resid_in.mean(axis=0)) < 1e-10
        assert np.linalg.norm(dec.resid_out.mean(axis=0)) < 1e-10
        assert np.linalg.norm(frame.coords(dec.bias_out)) < 1e-10

    def test_mismatched_rows_rejected(self):
        rng = np.random.default_rng(9)
        frame = random_frame(rng, 4, 2)
        with pytest.raises(DataFormatError):
            decompose_gap(rng.normal(size=(5, 4)), rng.normal(size=(6, 4)), frame)

    def test_single_pair_rejected(self):
        rng = np.random.default_rng(10)
        frame = random_frame(rng, 4, 2)
        with pytest.raises(DataFormatError):
            decompose_gap(rng.normal(size=(1, 4)), rng.normal(size=(1, 4)), frame)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [2, 1023, 1024, 1025, 1026, 2050, 3000])
    def test_blocked_equals_whole_array_bitwise(self, n, dtype):
        rng = np.random.default_rng(n)
        frame = random_frame(rng, 40, 7)
        x = (rng.normal(size=(n, 40)) + 0.3).astype(dtype)
        y = rng.normal(size=(n, 40)).astype(dtype)
        dec = decompose_gap(x, y, frame)
        got = (dec.bias_in, dec.bias_out, dec.resid_in, dec.resid_out, dec.mean_gap)
        for name, a, b in zip(("bias_in", "bias_out", "resid_in", "resid_out", "mean_gap"),
                              got, decompose_gap_oracle(x, y, frame)):
            assert a.dtype == np.float64 and a.shape == b.shape, name
            assert np.array_equal(a, b), name

    def test_peak_memory_is_resid_out_plus_one_block(self):
        rng = np.random.default_rng(11)
        n, d, r = 20_000, 256, 4
        frame = random_frame(rng, d, r)
        x = rng.normal(size=(n, d)).astype(np.float32)
        y = rng.normal(size=(n, d)).astype(np.float32)
        tracemalloc.start()
        try:
            decompose_gap(x, y, frame)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        resid_out, resid_in, block = n * d * 8, n * r * 8, 1025 * d * 8
        assert peak < resid_out + resid_in + block + (1 << 20)


class TestLeakage:
    def test_in_subspace(self):
        rng = np.random.default_rng(11)
        frame = random_frame(rng, 6, 2)
        g = frame.lift(rng.normal(size=2))
        assert leakage_ratio(g, frame) < 1e-12

    def test_in_complement(self):
        rng = np.random.default_rng(12)
        frame = random_frame(rng, 6, 2)
        g = frame.project_complement(rng.normal(size=6))
        npt.assert_allclose(leakage_ratio(g, frame), 1.0, atol=1e-12)

    def test_diagonal_split(self):
        frame = ReferenceFrame(basis=np.array([[1.0], [0.0]]), energy_threshold=0.9)
        g = np.array([1.0, 1.0])
        npt.assert_allclose(leakage_ratio(g, frame), np.sqrt(2) / 2, rtol=1e-12)

    def test_zero_vector_rejected(self):
        frame = ReferenceFrame(basis=np.array([[1.0], [0.0]]), energy_threshold=0.9)
        with pytest.raises(DegenerateInputError):
            leakage_ratio(np.zeros(2), frame)


class TestGeometricBaseline:
    def test_identical_bases(self):
        rng = np.random.default_rng(13)
        frame = random_frame(rng, 6, 3)
        assert geometric_baseline(frame, frame.basis) < 1e-12

    def test_rotation_30_degrees(self):
        frame = ReferenceFrame(basis=np.array([[1.0], [0.0]]), energy_threshold=0.9)
        rotated = np.array([[np.cos(np.pi / 6)], [np.sin(np.pi / 6)]])
        npt.assert_allclose(geometric_baseline(frame, rotated), 0.5, rtol=1e-12)

    def test_bound_dominates_sampled_leakage(self):
        rng = np.random.default_rng(14)
        d, r = 16, 5
        frame = random_frame(rng, d, r)
        basis_t = np.linalg.qr(rng.normal(size=(d, r)))[0]
        bound = geometric_baseline(frame, basis_t)
        coeffs = rng.normal(size=(2000, r))
        samples = coeffs @ basis_t.T
        leaks = np.array([leakage_ratio(g, frame) for g in samples])
        assert leaks.max() <= bound + 1e-12

    def test_rank_mismatch_rejected(self):
        rng = np.random.default_rng(15)
        frame = random_frame(rng, 6, 3)
        with pytest.raises(DataFormatError):
            geometric_baseline(frame, np.linalg.qr(rng.normal(size=(6, 2)))[0])


class TestDriftAndStability:
    def test_no_drift(self):
        g = np.array([0.3, -0.2])
        assert relative_drift(g, g) == 0.0

    def test_floor_active(self):
        floor = 1e-12
        current = np.array([floor, 0.0])
        npt.assert_allclose(relative_drift(current, np.zeros(2), floor=floor), 1.0)

    def test_simple_ratio(self):
        npt.assert_allclose(
            relative_drift(np.array([1.0, 0.1]), np.array([1.0, 0.0])), 0.1, rtol=1e-12
        )

    def test_cosine_extremes(self):
        v = np.array([0.2, 0.5])
        npt.assert_allclose(cosine_stability(v, v), 1.0, rtol=1e-12)
        npt.assert_allclose(cosine_stability(v, -v), -1.0, rtol=1e-12)
        assert abs(cosine_stability(np.array([1.0, 0.0]), np.array([0.0, 1.0]))) == 0.0

    def test_cosine_degenerate_warns(self):
        with pytest.warns(UserWarning):
            assert cosine_stability(np.zeros(2), np.ones(2)) == 0.0


class TestSpectrumCorrelation:
    def test_equal_matrices(self):
        cov = np.diag([3.0, 2.0, 1.0])
        npt.assert_allclose(spectrum_correlation(cov, cov), 1.0, rtol=1e-12)

    def test_sorting_precedes_correlation(self):
        npt.assert_allclose(
            spectrum_correlation(np.diag([3.0, 2.0, 1.0]), np.diag([1.0, 2.0, 3.0])),
            1.0,
            rtol=1e-12,
        )

    def test_direct_pearson_value(self):
        # frozen from an independent pearson computation on [4,2,1] vs [9,3,1]
        got = spectrum_correlation(np.diag([4.0, 2.0, 1.0]), np.diag([9.0, 3.0, 1.0]))
        npt.assert_allclose(got, 0.9958705948858221, rtol=1e-12)

    def test_constant_spectrum_degenerate(self):
        with pytest.warns(UserWarning):
            assert spectrum_correlation(np.eye(3), np.diag([2.0, 1.0, 0.5])) == 0.0


class TestNoiseAngle:
    def test_aligned(self):
        cov = np.diag([5.0, 1.0])
        assert noise_angle_degrees(np.array([2.0, 0.0]), cov) < 1e-6

    def test_perpendicular(self):
        cov = np.diag([5.0, 1.0])
        npt.assert_allclose(noise_angle_degrees(np.array([0.0, 1.0]), cov), 90.0)

    def test_folding_to_quadrant(self):
        cov = np.diag([5.0, 1.0])
        npt.assert_allclose(noise_angle_degrees(np.array([-1.0, 0.0]), cov), 0.0, atol=1e-6)
        npt.assert_allclose(noise_angle_degrees(np.array([1.0, 1.0]), cov), 45.0, rtol=1e-10)

    def test_zero_vector_rejected(self):
        with pytest.raises(DegenerateInputError):
            noise_angle_degrees(np.zeros(2), np.eye(2))
