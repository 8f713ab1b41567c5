import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from gapalign import (
    CompensatedMean,
    DataFormatError,
    DegenerateInputError,
    Float32ReplayMean,
    MomentAccumulator,
    build_frame,
    estimate_blockwise,
    estimate_realign,
    shrink,
    stats_of,
)
from gapalign import io as io_module
from gapalign import moments as moments_module
from gapalign.frame import ReferenceFrame, decompose_gap, paired_mean_gap
from gapalign.io import _ROW_BLOCK as ROW_BLOCK
from gapalign.io import EmbeddingFile, _widest_block, row_blocks, write_embeddings


def piece_sum_mean(rows):
    """The summation rule of every streamed mean, written out.

    The float64 sum of each piece of ``row_blocks(n)`` (numpy's axis-0
    sum), the piece sums added in order, over n.
    """
    rows = np.asarray(rows, dtype=np.float64)
    total = None
    for piece in row_blocks(rows.shape[0]):
        part = rows[piece].sum(axis=0)
        total = part if total is None else total + part
    return total / rows.shape[0]


def two_pass_stats(rows):
    """Independent oracle: textbook two-pass mean and scatter."""
    rows = np.asarray(rows, dtype=np.float64)
    mean = rows.mean(axis=0)
    centered = rows - mean
    trace = float(np.mean(np.sum(centered**2, axis=1)))
    cov = centered.T @ centered / rows.shape[0]
    return mean, trace, cov


def test_accumulate_basic_sums():
    acc = MomentAccumulator(2)
    acc.accumulate(np.array([[1.0, 0.0], [-1.0, 0.0]]))
    assert acc.n == 2
    npt.assert_array_equal(acc.sum, [0.0, 0.0])
    assert acc.sumsq_norm == 2.0


def test_repeated_point_zero_trace():
    acc = MomentAccumulator(2, track_cov=False)
    acc.accumulate(np.array([[0.5, 0.5]]))
    acc.accumulate(np.array([[0.5, 0.5]]))
    stats = acc.finalize()
    assert stats.trace == 0.0


def test_three_rows_against_two_pass_oracle():
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    mean, trace, cov = two_pass_stats(rows)
    stats = MomentAccumulator(2).accumulate(rows).finalize()
    npt.assert_allclose(stats.mean, mean, rtol=1e-15)
    npt.assert_allclose(stats.mean, [2.0 / 3.0, 2.0 / 3.0], rtol=1e-15)
    npt.assert_allclose(stats.trace, trace, rtol=1e-12)
    npt.assert_allclose(stats.covariance, cov, atol=1e-15)


def test_accumulate_leaves_input_unmodified():
    rows = np.ones((3, 2), dtype=np.float32)
    before = rows.copy()
    MomentAccumulator(2).accumulate(rows)
    npt.assert_array_equal(rows, before)


def test_dimension_mismatch():
    with pytest.raises(DataFormatError):
        MomentAccumulator(3).accumulate(np.ones((2, 2)))


def test_non_finite_rejected():
    bad = np.array([[1.0, np.inf]])
    with pytest.raises(DataFormatError):
        MomentAccumulator(2).accumulate(bad)


def test_merge_identity_element():
    rows = np.random.default_rng(0).normal(size=(50, 4))
    a = MomentAccumulator(4).accumulate(rows)
    merged = MomentAccumulator(4).merge(a)
    sa, sm = a.finalize(), merged.finalize()
    npt.assert_array_equal(sm.mean, sa.mean)
    assert sm.trace == sa.trace


def test_merge_commutative():
    rng = np.random.default_rng(1)
    a = MomentAccumulator(4).accumulate(rng.normal(size=(40, 4)))
    b = MomentAccumulator(4).accumulate(rng.normal(size=(60, 4)))
    ab, ba = a.merge(b).finalize(), b.merge(a).finalize()
    npt.assert_allclose(ab.mean, ba.mean, rtol=1e-12)
    npt.assert_allclose(ab.trace, ba.trace, rtol=1e-12)
    npt.assert_allclose(ab.covariance, ba.covariance, rtol=1e-12, atol=1e-15)


def test_sharded_merge_matches_single_pass():
    rng = np.random.default_rng(2)
    rows = rng.normal(size=(10_000, 16)) + 0.3
    single = MomentAccumulator(16).accumulate(rows).finalize()
    shards = np.array_split(rows, 7)
    acc = MomentAccumulator(16)
    for shard in shards:
        acc = acc.merge(MomentAccumulator(16).accumulate(shard))
    merged = acc.finalize()
    npt.assert_allclose(merged.mean, single.mean, rtol=1e-12)
    npt.assert_allclose(merged.trace, single.trace, rtol=1e-12)
    npt.assert_allclose(merged.covariance, single.covariance, rtol=1e-12, atol=1e-14)


def test_merge_associative():
    rng = np.random.default_rng(3)
    parts = [MomentAccumulator(3).accumulate(rng.normal(size=(30, 3))) for _ in range(3)]
    left = parts[0].merge(parts[1]).merge(parts[2]).finalize()
    right = parts[0].merge(parts[1].merge(parts[2])).finalize()
    npt.assert_allclose(left.mean, right.mean, rtol=1e-12)
    npt.assert_allclose(left.trace, right.trace, rtol=1e-12)


def test_finalize_single_point():
    stats = MomentAccumulator(2, track_cov=False).accumulate(np.array([[3.0, 4.0]])).finalize()
    npt.assert_array_equal(stats.mean, [3.0, 4.0])
    assert stats.trace == 0.0


def test_finalize_empty_raises():
    with pytest.raises(DegenerateInputError):
        MomentAccumulator(2).finalize()


def test_covariance_needs_two_samples():
    acc = MomentAccumulator(2).accumulate(np.array([[1.0, 2.0]]))
    with pytest.raises(DegenerateInputError):
        acc.finalize()


def test_standard_normal_trace_monte_carlo():
    rng = np.random.default_rng(42)
    rows = rng.standard_normal(size=(100_000, 2))
    stats = stats_of(rows)
    assert abs(stats.trace - 2.0) / 2.0 < 0.03


def test_unit_sphere_trace_monte_carlo():
    rng = np.random.default_rng(43)
    rows = rng.standard_normal(size=(100_000, 8))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    stats = stats_of(rows)
    expected = 1.0 - float(np.linalg.norm(stats.mean) ** 2)
    assert abs(stats.trace - expected) < 0.02


def test_covariance_numerically_psd():
    rng = np.random.default_rng(9)
    rows = rng.normal(size=(500, 12)) @ rng.normal(size=(12, 12))
    stats = stats_of(rows, track_cov=True)
    lam = np.linalg.eigvalsh(stats.covariance)
    assert lam.min() >= -1e-10 * stats.trace
    npt.assert_allclose(np.trace(stats.covariance), stats.trace, rtol=1e-9)


def test_shrink_endpoints_and_midpoint():
    cov = np.diag([2.0, 0.0])
    npt.assert_array_equal(shrink(cov, 0.0), cov)
    npt.assert_allclose(shrink(cov, 1.0), np.eye(2), rtol=1e-15)
    npt.assert_allclose(shrink(cov, 0.5), np.diag([1.5, 0.5]), rtol=1e-15)
    npt.assert_allclose(np.trace(shrink(cov, 0.3)), 2.0, rtol=1e-12)
    with pytest.raises(ValueError):
        shrink(cov, 1.5)


def test_state_size_constant_in_n():
    acc = MomentAccumulator(64)
    size0 = acc.state_nbytes()
    rng = np.random.default_rng(0)
    for _ in range(5):
        acc.accumulate(rng.normal(size=(1000, 64)))
    assert acc.state_nbytes() == size0


def test_f32_replay_error_floor():
    """Single-precision accumulation loses at least 1e3x more accuracy."""
    rng = np.random.default_rng(77)
    dims = 8
    f64 = MomentAccumulator(dims, track_cov=False)
    f32 = Float32ReplayMean(dims)
    oracle = CompensatedMean(dims)
    for _ in range(50):
        chunk = rng.normal(size=(10_000, dims)) + 0.75
        f64.accumulate(chunk)
        f32.accumulate(chunk)
        oracle.accumulate(chunk)
    truth = oracle.mean()
    err64 = np.linalg.norm(f64.finalize().mean - truth)
    err32 = np.linalg.norm(f32.mean().astype(np.float64) - truth)
    assert err32 > 0
    assert err32 >= 1e3 * err64


# ------------------------------------------------ centred row-blocked kernel

BLOCK = moments_module._BLOCK


def long_double_oracle(rows):
    """Covariance and trace in long double, two-pass: the mean first."""
    wide = np.asarray(rows, dtype=np.longdouble)
    centred = wide - wide.mean(axis=0)
    cov = centred.T @ centred / rows.shape[0]
    return cov, np.sum(centred * centred) / rows.shape[0]


def offset_rows(rng, n, d, offset):
    return rng.normal(size=(n, d)) @ rng.normal(size=(d, d)) + offset


def rel_err(got, truth):
    truth = np.asarray(truth, dtype=np.longdouble)
    diff = np.asarray(got, dtype=np.longdouble) - truth
    return float(np.sqrt(np.sum(diff * diff)) / np.sqrt(np.sum(truth * truth)))


def test_merge_of_uneven_halves_equals_one_pass_at_large_offset():
    rows = offset_rows(np.random.default_rng(50), 10_001, 16, 1e4)
    single = MomentAccumulator(16).accumulate(rows).finalize()
    a = MomentAccumulator(16).accumulate(rows[:2_345])
    b = MomentAccumulator(16).accumulate(rows[2_345:])
    merged = a.merge(b).finalize()
    npt.assert_allclose(merged.mean, single.mean, rtol=1e-12)
    assert rel_err(merged.covariance, single.covariance) <= 1e-12
    assert abs(merged.trace - single.trace) <= 1e-12 * single.trace


@pytest.mark.parametrize("offset", [30.0, 1e4, 1e5])
@pytest.mark.parametrize("batches", [1, 7])
def test_covariance_and_trace_accurate_far_from_the_origin(offset, batches):
    # raw moments lose about eps * (offset / spread)^2 of relative precision;
    # the centred state does not
    rows = offset_rows(np.random.default_rng(51), 3 * BLOCK + 1, 16, offset)
    acc = MomentAccumulator(16)
    for part in np.array_split(rows, batches):
        acc.accumulate(part)
    stats = acc.finalize()
    cov, trace = long_double_oracle(rows)
    assert rel_err(stats.covariance, cov) <= 1e-10
    assert rel_err(stats.trace, trace) <= 1e-10


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, BLOCK + 2, 3 * BLOCK + 1,
                               ROW_BLOCK + 1, BLOCK + 3])
def test_mean_is_bitwise_the_whole_array_sum(n, dtype):
    rows = (np.random.default_rng(n).normal(size=(n, 8)) * 3.0 + 0.7).astype(dtype)
    mean = stats_of(rows, track_cov=n > 1).mean
    assert np.array_equal(mean, piece_sum_mean(rows))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("d", [1, 8])
@pytest.mark.parametrize("n", [1, 2, ROW_BLOCK + 2, ROW_BLOCK + 3, ROW_BLOCK + 4, BLOCK + 1,
                               BLOCK + 2, BLOCK + 3, BLOCK + 4, 2 * BLOCK + 2, 3 * BLOCK + 1])
def test_every_streamed_mean_follows_one_rule(n, d, dtype):
    # the moments, the mean of a pass, the mean gap and the split's default mean
    # gap; a paired split needs two pairs, so one row has only the first two
    rows = (np.random.default_rng(n).normal(size=(n, d)) * 3.0 + 0.7).astype(dtype)
    means = [stats_of(rows).mean,
             moments_module._mean_of(n, d, lambda block, out: np.copyto(out, rows[block]))]
    if n > 1:
        zeros, frame = np.zeros_like(rows), ReferenceFrame(np.eye(d)[:, :1], 0.9)
        means += [paired_mean_gap(rows, zeros, frame), decompose_gap(rows, zeros, frame).mean_gap]
    assert [mean.tobytes() for mean in means] == [piece_sum_mean(rows).tobytes()] * len(means)


def test_mean_of_the_bench_replay_is_accurate():
    # `gapalign bench --seed 10 --dims 64`'s replay; a walk that added every row
    # to one running total read 1.25e-13
    gen = np.random.default_rng(11)
    acc, oracle = MomentAccumulator(64, track_cov=False), CompensatedMean(64)
    for _ in range(50):
        block = gen.normal(size=(10_000, 64)) + 0.75
        acc.accumulate(block)
        oracle.accumulate(block)
    assert np.linalg.norm(acc.finalize().mean - oracle.mean()) <= 4e-15


def test_mean_of_4m_rows_is_accurate():
    # streamed in 100k-row batches; a walk that added every row to one running
    # total was off by 345 ulp of |mean| here, this rule by 9
    rng = np.random.default_rng(0)
    acc, oracle = MomentAccumulator(16, track_cov=False), CompensatedMean(16)
    for _ in range(40):
        batch = rng.normal(0.6, 0.3, size=(100_000, 16))
        acc.accumulate(batch)
        oracle.accumulate(batch)
    truth = oracle.mean()
    assert np.linalg.norm(acc.finalize().mean - truth) <= 16 * np.spacing(np.linalg.norm(truth))


@pytest.mark.parametrize("track_cov", [True, False])
@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("n", [2 * BLOCK + 1, 3 * BLOCK + 7, 4 * BLOCK + 2, 5 * BLOCK + 3])
def test_calls_over_the_batches_of_kernel_blocks_continue_one_walk(n, k, track_cov):
    # each call carries the column sum on and merges its blocks into the state, so
    # calls over the batches of row_blocks(n, k * BLOCK) walk the blocks of one call
    rows = offset_rows(np.random.default_rng(n + k), n, 8, 30.0)
    whole = MomentAccumulator(8, track_cov).accumulate(rows)
    acc = MomentAccumulator(8, track_cov)
    for batch in row_blocks(n, k * BLOCK):
        acc.accumulate(rows[batch])
    assert acc.n == whole.n and acc.sumsq_norm == whole.sumsq_norm
    assert acc.sum.tobytes() == whole.sum.tobytes()
    assert not track_cov or acc.scatter.tobytes() == whole.scatter.tobytes()


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_stats_of_memory_does_not_grow_with_n():
    d = 256
    rng = np.random.default_rng(52)
    small = rng.normal(size=(2 * BLOCK, d)).astype(np.float32)
    large = rng.normal(size=(8 * BLOCK, d)).astype(np.float32)
    peak_small = traced_peak(lambda: stats_of(small, track_cov=True))
    peak_large = traced_peak(lambda: stats_of(large, track_cov=True))
    # one float64 block buffer plus a few d x d matrices; widening the whole
    # 8-block input would take 64 MiB
    assert peak_small < (BLOCK + 1) * d * 8 + 8 * d * d * 8 + (1 << 20)
    assert peak_large < peak_small + (1 << 20)


@pytest.mark.parametrize("how", ["merge", "accumulate"])
@pytest.mark.parametrize("d", [200, 768])
def test_rank1_update_is_bitwise_the_outer_product_formula(d, how):
    # Chan et al.'s update adds weight * outer(delta, delta) to the scatters' sum; d = 768
    # is a multiple of the rows it is added in at a time, 200 is not
    rng = np.random.default_rng(d)
    first, more = rng.normal(size=(300, d)) + 0.5, rng.normal(size=(200, d)) - 0.5
    acc = MomentAccumulator(d).accumulate(first)
    if how == "merge":
        other = MomentAccumulator(d).accumulate(more)
        delta, want = other.sum / other.n - acc.sum / acc.n, other.scatter.copy()
    else:
        mean = more.sum(axis=0) / more.shape[0]
        centred = more - mean
        delta, want = mean - acc.sum / acc.n, centred.T @ centred
    want += acc.scatter
    outer = np.outer(delta, delta)
    outer *= acc.n * more.shape[0] / (acc.n + more.shape[0])
    want += outer
    got = acc.merge(other) if how == "merge" else acc.accumulate(more)
    assert got.scatter.tobytes() == want.tobytes()


def test_continuing_a_walk_holds_no_outer_product():
    # beyond the kernel's block: the block's scatter and the rank-1 update's rows (1.33
    # d x d); a d x d outer product of the update as well reads 2.07 d x d
    d = 512
    rng = np.random.default_rng(58)
    acc = MomentAccumulator(d).accumulate(rng.normal(size=(600, d)))
    more = rng.normal(size=(700, d))
    block = _widest_block(700, BLOCK) * d * 8
    assert traced_peak(lambda: acc.accumulate(more)) - block < 1.5 * d * d * 8


def unit_sample(rng, n, d, spread):
    raw = rng.normal(size=d) + spread * rng.normal(size=(n, d)) * np.linspace(1.0, 0.2, d)
    return (raw / np.linalg.norm(raw, axis=1, keepdims=True)).astype(np.float32)


@pytest.mark.parametrize("operator", ["realign", "blockwise"])
def test_calibration_memory_is_inputs_plus_blocks(operator):
    n, d = 30_000, 256
    rng = np.random.default_rng(53)
    src, tgt = unit_sample(rng, n, d, 0.3), unit_sample(rng, n, d, 0.2)
    if operator == "realign":
        s_src, s_tgt = stats_of(src), stats_of(tgt)
        calibrate = lambda: estimate_realign(s_src, s_tgt, src)
    else:
        s_src, s_tgt = stats_of(src), stats_of(tgt, track_cov=True)
        frame = build_frame(stats_of(src, track_cov=True).covariance,
                            s_tgt.covariance, energy=0.9)
        calibrate = lambda: estimate_blockwise(frame, s_src, s_tgt, src)
    block = max(BLOCK, ROW_BLOCK) + 1
    # the inputs are allocated before tracing starts; an N x d float64
    # array of intermediate rows alone would take 59 MiB
    assert traced_peak(calibrate) < 2 * block * d * 8 + 24 * d * d * 8 + (1 << 20)


def blockwise_from_files(tmp_path, n, d):
    """Two ``EmbeddingFile`` sources of n x d float32 rows and a blockwise calibration over them."""
    rng = np.random.default_rng(56)
    for name, spread in (("src", 0.3), ("tgt", 0.2)):
        write_embeddings(unit_sample(rng, n, d, spread), tmp_path / f"{name}.emb1")
    src, tgt = (EmbeddingFile(str(tmp_path / f"{name}.emb1")) for name in ("src", "tgt"))

    def calibrate():
        s_src, s_tgt = stats_of(src, track_cov=True), stats_of(tgt, track_cov=True)
        frame = build_frame(s_src.covariance, s_tgt.covariance, energy=0.9)
        return estimate_blockwise(frame, s_src, s_tgt, src)

    return src, tgt, calibrate


def test_blockwise_calibration_from_files_holds_one_block_and_pieces(tmp_path):
    # the kernel's float64 block, its producers' pieces (the files' read
    # buffers, a normalization) and the d x d moments, frame and transforms;
    # a second block-sized array, or read buffers a block wide, exceed it
    n, d = 20_000, 256
    _, _, calibrate = blockwise_from_files(tmp_path, n, d)
    block = (_widest_block(n, BLOCK) + 1) * d * 8
    assert traced_peak(calibrate) < block + 4 * _widest_block(n) * d * 8 + 12 * d * d * 8


def test_file_read_buffers_hold_at_most_one_piece(tmp_path, monkeypatch):
    n = 20_000
    _, _, calibrate = blockwise_from_files(tmp_path, n, 64)
    read, ranges = io_module.read_embeddings, []

    def recorded(path, rows=None):
        ranges.append(rows)
        return read(path, rows=rows)

    monkeypatch.setattr(io_module, "read_embeddings", recorded)
    calibrate()
    # every slice of a file source is one range read, at most one piece wide
    assert ranges and all(rows is not None for rows in ranges)
    assert max(rows.stop - rows.start for rows in ranges) <= _widest_block(n)


def test_non_finite_row_in_a_later_block_leaves_state_unchanged():
    rng = np.random.default_rng(54)
    acc = MomentAccumulator(4).accumulate(rng.normal(size=(10, 4)))
    before = (acc.n, acc.sum.copy(), acc.sumsq_norm, acc.scatter.copy())
    bad = rng.normal(size=(2 * BLOCK + 5, 4))
    bad[BLOCK + 3, 2] = np.nan
    with pytest.raises(DataFormatError, match=f"batch row {BLOCK + 3}$"):
        acc.accumulate(bad)
    assert acc.n == before[0] and acc.sumsq_norm == before[2]
    npt.assert_array_equal(acc.sum, before[1])
    npt.assert_array_equal(acc.scatter, before[3])


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("track_cov", [True, False])
def test_moments_that_overflow_are_refused_and_leave_state_unchanged(track_cov):
    # finite rows of norm 1e200: the scatter and the squared norms overflow float64
    rng = np.random.default_rng(55)
    acc = MomentAccumulator(4, track_cov=track_cov).accumulate(rng.normal(size=(10, 4)))
    before = (acc.n, acc.sum.copy(), acc.sumsq_norm)
    with pytest.raises(DegenerateInputError, match=f"moments of {2 * BLOCK + 15} rows overflow"):
        acc.accumulate(rng.normal(size=(2 * BLOCK + 5, 4)) * 1e200)
    assert acc.n == before[0] and acc.sumsq_norm == before[2]
    npt.assert_array_equal(acc.sum, before[1])


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_a_merge_that_overflows_is_refused_and_leaves_state_unchanged():
    # each part's rows are equal, so its own moments are 0 and pass the per-call
    # check; the merge term 5 * 8 * (4e153)^2 of the squared norms overflows
    acc = MomentAccumulator(8).accumulate(np.full((10, 8), 2e153))
    other = MomentAccumulator(8).accumulate(np.full((10, 8), -2e153))
    states = [(a.n, a.sum.copy(), a.sumsq_norm, a.scatter.copy()) for a in (acc, other)]
    with pytest.raises(DegenerateInputError, match="moments of 20 rows overflow float64"):
        acc.accumulate(np.full((10, 8), -2e153))
    with pytest.raises(DegenerateInputError, match="moments of 20 rows overflow float64"):
        acc.merge(other)
    for a, (n, total, sumsq, scatter) in zip((acc, other), states):
        assert a.n == n and a.sumsq_norm == sumsq
        npt.assert_array_equal(a.sum, total)
        npt.assert_array_equal(a.scatter, scatter)
