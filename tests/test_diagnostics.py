import tracemalloc
import warnings
from unittest import mock

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gapalign import (
    CosineHistogram,
    DataFormatError,
    DegenerateInputError,
    cosine_histogram,
    estimate_realign,
    js_divergence,
    knn_mixing_rate,
    knn_overlap,
    modality_gap,
    phantom_drift,
    sample_complexity_curve,
    stats_of,
    substitution_operator,
    write_embeddings,
)
from gapalign import diagnostics
from gapalign.cli import main
from gapalign.diagnostics import (_has_duplicate_rows, _neighbor_indices, _PairSample, _screen,
                                  _widened)
from gapalign.io import EmbeddingFile


def unit_rows(rows):
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def neighbor_indices_oracle(points, k, chunk=512):
    """Full stable argsort of every distance row: the reference the kNN kernel must match."""
    n = points.shape[0]
    sq = np.einsum("ij,ij->i", points, points)
    out = np.empty((n, k), dtype=np.int64)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        block = points[start:stop]
        d2 = sq[start:stop, None] + sq[None, :] - 2.0 * (block @ points.T)
        d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
        out[start:stop] = np.argsort(d2, axis=1, kind="stable")[:, :k]
    return out


def _merge_tile_unscreened(best_d, best_i, d2, col0, k, spare):
    """The tile merge the screened kernel replaced: every entry of every tile is compared."""
    rows, width = d2.shape
    have = best_d.shape[1]
    if have == k:
        hit = d2 < best_d[:, -1:]
    elif width > k:
        np.copyto(spare, d2)
        spare.partition(k - 1, axis=1)
        hit = d2 <= spare[:, k - 1:k]
    else:
        hit = np.ones(d2.shape, dtype=bool)
    flat = np.flatnonzero(hit)
    row, col = np.divmod(flat, width)
    counts = np.bincount(row, minlength=rows)
    slot = have + np.arange(flat.size) - (np.cumsum(counts) - counts)[row]
    dist = np.full((rows, have + int(counts.max(initial=0))), np.inf)
    index = np.full(dist.shape, np.iinfo(np.int64).max)
    dist[:, :have] = best_d
    index[:, :have] = best_i
    dist[row, slot] = d2[row, col]
    index[row, slot] = col0 + col
    keep = np.lexsort((index, dist), axis=1)[:, :min(k, have + width)]
    return np.take_along_axis(dist, keep, axis=1), np.take_along_axis(index, keep, axis=1)


def neighbor_indices_unscreened(points, k, chunk):
    """The kNN kernel before screening: whole distance tiles in row-major tile order.

    The oracle for the screened kernel, which must return the same
    neighbors on any input, ties and round-off included.
    """
    parts = points if isinstance(points, tuple) else (points,)
    spans = list(diagnostics.row_blocks(sum(part.shape[0] for part in parts), chunk))
    widths = [span.stop - span.start for span in spans]
    sq = np.concatenate([np.einsum("ij,ij->i", block, block)
                         for block in (_widened(parts, span) for span in spans)])
    best = [(np.empty((width, 0)), np.empty((width, 0), dtype=np.int64)) for width in widths]
    for a, span_a in enumerate(spans):
        rows_a = _widened(parts, span_a)
        for b in range(a, len(spans)):
            span_b = spans[b]
            rows_b = rows_a if b == a else _widened(parts, span_b)
            gram = rows_a @ rows_b.T
            d2 = np.add.outer(sq[span_a], sq[span_b]) - 2.0 * gram
            if b == a:
                np.fill_diagonal(d2, np.inf)
            best[a] = _merge_tile_unscreened(*best[a], d2, span_b.start, k, np.empty_like(d2))
            if b != a:
                best[b] = _merge_tile_unscreened(*best[b], d2.T, span_a.start, k,
                                                 np.empty_like(d2.T))
    return np.vstack([index for _, index in best])


def mixing_rate_oracle(a, b, k):
    """Pooled float64 copy of both sets, labelled by set: the rate the in-place kernel must match."""
    pool = np.vstack([a, b]).astype(np.float64)
    labels = np.concatenate([np.zeros(len(a)), np.ones(len(b))])
    return float((labels[neighbor_indices_oracle(pool, k)] != labels[:, None]).mean())


def overlap_oracle(before, after, k):
    """Float64 copies of both sets and per-row set intersections of their neighbor lists."""
    nb = neighbor_indices_oracle(np.asarray(before, dtype=np.float64), k)
    na = neighbor_indices_oracle(np.asarray(after, dtype=np.float64), k)
    return float(np.mean([np.intersect1d(nb[i], na[i]).size for i in range(len(nb))]) / k)


def duplicate_rows_oracle(rows):
    """The set-of-bytes rule: float64 rows plus 0.0 (so -0.0 is 0.0), compared byte for byte."""
    return len({row.tobytes() for row in rows.astype(np.float64) + 0.0}) != len(rows)


def traced_peak(fn, *args, **kwargs):
    """Peak bytes ``tracemalloc`` sees while ``fn`` runs, over what was allocated before."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def cosine_masses_oracle(rows, num_pairs, bins=201, smoothing=False, seed=0):
    """Unchunked histogram masses: every sampled pair gathered at once."""
    data = np.asarray(rows, dtype=np.float64)
    n = data.shape[0]
    norms = np.linalg.norm(data, axis=1)
    rng = np.random.default_rng(seed)
    i = rng.integers(0, n, size=num_pairs)
    j = (i + rng.integers(1, n, size=num_pairs)) % n
    cos = np.clip(np.einsum("ij,ij->i", data[i], data[j]) / (norms[i] * norms[j]), -1.0, 1.0)
    counts, _ = np.histogram(cos, bins=np.linspace(-1.0, 1.0, bins + 1))
    masses = counts / float(num_pairs)
    if smoothing:
        kernel = np.array([1.0, 2.0, 3.0, 2.0, 1.0])
        masses = np.convolve(masses, kernel / kernel.sum(), mode="same")
        masses = masses / masses.sum()
    return masses


def with_nan(rows, row, col=0):
    rows = np.array(rows, dtype=np.float64)
    rows[row, col] = np.nan
    return rows


@st.composite
def tie_heavy_points(draw):
    """Small-integer grid rows, many of them exact duplicates, plus k and a chunk size."""
    n = draw(st.integers(2, 40))
    d = draw(st.integers(1, 4))
    distinct = draw(st.integers(1, n))
    grid = draw(arrays(np.int64, (distinct, d), elements=st.integers(-2, 2)))
    pick = draw(arrays(np.int64, n, elements=st.integers(0, distinct - 1)))
    k = draw(st.one_of(st.just(1), st.just(n - 1), st.integers(1, n - 1)))
    chunk = draw(st.integers(1, n + 2))
    return grid[pick].astype(np.float64), k, chunk


@st.composite
def two_set_tie_points(draw):
    """Tie-heavy grid rows split into two sets of either dtype, with a tile size and k.

    Row counts cover n = 1 and 2 (mod tile), where the trailing range
    folds into the one before it, and the set boundary falls at a tile
    edge as well as inside a tile.
    """
    chunk = draw(st.integers(3, 8))
    n = max(2, draw(st.integers(1, 5)) * chunk + draw(st.one_of(st.sampled_from([1, 2]),
                                                                 st.integers(0, chunk - 1))))
    d = draw(st.integers(1, 3))
    distinct = draw(st.integers(1, n))
    grid = draw(arrays(np.int64, (distinct, d), elements=st.integers(-2, 2)))
    pick = draw(arrays(np.int64, n, elements=st.integers(0, distinct - 1)))
    edges = [chunk * t for t in range(1, n // chunk + 1) if chunk * t < n]
    split = draw(st.sampled_from(edges) if edges and draw(st.booleans()) else st.integers(1, n - 1))
    k = draw(st.sampled_from([1, min(20, n - 1), n - 1]))
    points = grid[pick]
    parts = tuple(part.astype(draw(st.sampled_from([np.float32, np.float64])))
                  for part in (points[:split], points[split:]))
    return parts, k, chunk


@st.composite
def rows_with_planted_twins(draw):
    """Random rows with signed zeros, optionally with one row copied over another.

    The copy is exact, or differs from its source only in the sign of a
    zero, which still makes the two rows equal as numbers.
    """
    n = draw(st.one_of(st.integers(2, 40), st.sampled_from([1025, 2049])))
    d = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.standard_normal((n, d))
    zeros = rng.random((n, d)) < 0.3
    rows[zeros] = rng.choice([0.0, -0.0], size=int(zeros.sum()))
    twin = draw(st.sampled_from(["none", "exact", "signed_zero"]))
    if twin != "none":
        src, dst = rng.choice(n, size=2, replace=False)
        rows[dst] = rows[src]
        if twin == "signed_zero":
            rows[src, 0], rows[dst, 0] = 0.0, -0.0
    return rows.astype(draw(st.sampled_from([np.float32, np.float64])))


@st.composite
def histogram_sets(draw):
    """Two sets with duplicated and negated rows, a tile size, k, and histogram settings.

    Rows are small integers, whose cosines often sit exactly on a bin
    edge or at +-1, or Gaussian.  Float64 rows may be scaled to norms
    where squares and products underflow or overflow.  Random tile sizes
    put sampled pairs in diagonal tiles and in off-diagonal tiles with
    either row first.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 6))
    integer = draw(st.booleans())
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    scale = 1.0
    if dtype == np.float64:
        scale = draw(st.sampled_from([1.0, 2.0**-530, 2.0**-490, 2.0**500]))

    def rows(n):
        x = rng.integers(-2, 3, size=(n, d)) if integer else rng.normal(size=(n, d))
        x[~x.any(axis=1), 0] = 1.0
        copies = rng.random(n) < 0.3
        x[copies] = x[rng.integers(0, n, copies.sum())] * rng.choice([1.0, -1.0], (copies.sum(), 1))
        return (x * scale).astype(dtype)

    a, b = rows(draw(st.integers(2, 30))), rows(draw(st.integers(2, 30)))
    assume(all(np.linalg.norm(x, axis=1).all() for x in (a, b)))  # squares may underflow to 0
    n = len(a) + len(b)
    return (a, b, draw(st.integers(1, n + 2)), draw(st.integers(1, n - 1)),
            draw(st.integers(8, 24)), draw(st.integers(1, 400)), draw(st.integers(0, 2**31)),
            draw(st.booleans()))


class TestModalityGap:
    def test_equal_means(self):
        assert modality_gap(np.ones(4), np.ones(4)) == 0.0

    def test_unit_axes(self):
        npt.assert_allclose(modality_gap(np.array([1.0, 0.0]), np.array([0.0, 1.0])), np.sqrt(2))

    def test_shape_mismatch(self):
        with pytest.raises(DataFormatError):
            modality_gap(np.ones(3), np.ones(4))


class TestCosineHistogram:
    def test_identical_rows_mass_at_one(self):
        rows = np.tile(unit_rows(np.array([[1.0, 2.0, 2.0]])), (10, 1))
        hist = cosine_histogram(rows, num_pairs=1000, bins=20, seed=0)
        assert hist.masses[-1] == 1.0
        npt.assert_allclose(hist.masses.sum(), 1.0, atol=1e-12)

    def test_orthonormal_rows_mass_at_zero(self):
        hist = cosine_histogram(np.eye(6), num_pairs=500, bins=20, seed=1)
        zero_bin = np.searchsorted(hist.bin_edges, 0.0, side="right") - 1
        assert hist.masses[zero_bin] == 1.0

    def test_seed_determinism(self):
        rng = np.random.default_rng(2)
        rows = unit_rows(rng.normal(size=(50, 8)))
        h1 = cosine_histogram(rows, num_pairs=2000, seed=7)
        h2 = cosine_histogram(rows, num_pairs=2000, seed=7)
        npt.assert_array_equal(h1.masses, h2.masses)

    def test_pairs_are_distinct_indices(self):
        # two antipodal rows: self-pairs would put mass at +1
        rows = np.array([[1.0, 0.0], [-1.0, 0.0]])
        hist = cosine_histogram(rows, num_pairs=100, bins=10, seed=3)
        assert hist.masses[0] == 1.0

    def test_smoothing_preserves_total_mass(self):
        rng = np.random.default_rng(4)
        rows = unit_rows(rng.normal(size=(100, 5)))
        hist = cosine_histogram(rows, num_pairs=5000, smoothing=True, seed=5)
        npt.assert_allclose(hist.masses.sum(), 1.0, atol=1e-12)

    def test_too_few_rows(self):
        with pytest.raises(DataFormatError):
            cosine_histogram(np.ones((1, 3)), num_pairs=10)

    def test_non_finite_row_rejected(self):
        rows = unit_rows(np.random.default_rng(6).normal(size=(50, 8)))
        with pytest.raises(DataFormatError, match="row 7"):
            cosine_histogram(with_nan(rows, 7), num_pairs=1000)

    @pytest.mark.parametrize("num_pairs", [0, -3])
    def test_non_positive_pair_count_rejected(self, num_pairs):
        # zero pairs used to divide zero counts by zero and return NaN masses
        rows = unit_rows(np.random.default_rng(6).normal(size=(50, 8)))
        with pytest.raises(ValueError, match="num_pairs"):
            cosine_histogram(rows, num_pairs=num_pairs)

    @pytest.mark.parametrize("smoothing", [False, True])
    @pytest.mark.parametrize("num_pairs", [1, 1023, 1024, 1025, 5000])
    def test_blocked_masses_equal_unchunked(self, num_pairs, smoothing):
        rows = np.random.default_rng(22).normal(size=(300, 24))
        hist = cosine_histogram(rows, num_pairs=num_pairs, smoothing=smoothing, seed=9)
        expected = cosine_masses_oracle(rows, num_pairs, smoothing=smoothing, seed=9)
        assert np.array_equal(hist.masses, expected)

    def test_peak_memory_independent_of_pair_count(self):
        rows = np.random.default_rng(23).normal(size=(2000, 256))
        tracemalloc.start()
        try:
            cosine_histogram(rows, num_pairs=200_000, seed=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # gathering all pairs at once would hold two 200k x 256 float64 arrays (781 MiB)
        assert peak < 32 * 2**20


class TestJsDivergence:
    @staticmethod
    def hist_from_masses(masses):
        masses = np.asarray(masses, dtype=np.float64)
        edges = np.linspace(-1, 1, masses.size + 1)
        return CosineHistogram(bin_edges=edges, masses=masses, pair_count=1, sampling_seed=0)

    def test_self_divergence_zero(self):
        rng = np.random.default_rng(6)
        rows = unit_rows(rng.normal(size=(40, 4)))
        h = cosine_histogram(rows, num_pairs=1000, seed=0)
        assert js_divergence(h, h) == 0.0

    def test_disjoint_support_ln2(self):
        p = self.hist_from_masses([1.0, 0.0])
        q = self.hist_from_masses([0.0, 1.0])
        npt.assert_allclose(js_divergence(p, q), np.log(2.0), atol=1e-15)

    def test_two_bin_frozen_value(self):
        # frozen from a direct two-bin computation with natural log
        p = self.hist_from_masses([0.5, 0.5])
        q = self.hist_from_masses([0.9, 0.1])
        npt.assert_allclose(js_divergence(p, q), 0.10174922507919676, rtol=1e-12)

    def test_symmetry_and_bounds(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            pm = rng.dirichlet(np.ones(16))
            qm = rng.dirichlet(np.ones(16))
            p, q = self.hist_from_masses(pm), self.hist_from_masses(qm)
            assert js_divergence(p, q) == js_divergence(q, p)
            assert 0.0 <= js_divergence(p, q) <= np.log(2.0) + 1e-15

    def test_grid_mismatch_rejected(self):
        p = self.hist_from_masses([0.5, 0.5])
        q = self.hist_from_masses([0.25, 0.25, 0.25, 0.25])
        with pytest.raises(DataFormatError):
            js_divergence(p, q)


@st.composite
def screened_knn_cases(draw):
    """Row sets for the screened kNN kernel, with k and a tile size.

    Gaussian rows, unit-norm float32 rows, rows with many exact copies,
    and Gaussian rows scaled by 2^-500 or 2^500, whose squares and
    products sit near the ends of the float64 range.  One matrix or a
    two-part tuple; tiles from one row (every row short of k) to wider
    than the set; k in {1, 20, n - 1}.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n, d = draw(st.integers(2, 48)), draw(st.integers(1, 8))
    kind = draw(st.sampled_from(["gaussian", "unit32", "copies", "tiny", "huge"]))
    rows = rng.standard_normal((n, d))
    if kind == "unit32":
        rows = unit_rows(rows).astype(np.float32)
    elif kind == "copies":
        rows = rows[rng.integers(0, max(1, n // 4), n)]
    elif kind != "gaussian":
        rows *= 2.0**-500 if kind == "tiny" else 2.0**500
    k = draw(st.sampled_from([1, min(20, n - 1), n - 1]))
    chunk = draw(st.one_of(st.integers(1, k), st.integers(1, n + 2)))
    split = draw(st.none() | st.integers(1, n - 1))
    return (rows if split is None else (rows[:split], rows[split:])), k, chunk


class TestNeighborIndices:
    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_points())
    def test_matches_stable_argsort_on_ties(self, case):
        points, k, chunk = case
        assert np.array_equal(_neighbor_indices(points, k, chunk=chunk),
                              neighbor_indices_oracle(points, k, chunk=chunk))

    @settings(max_examples=300, deadline=None)
    @given(two_set_tie_points())
    def test_two_sets_in_place_match_pooled_argsort(self, case):
        parts, k, chunk = case
        pooled = np.vstack(parts).astype(np.float64)
        assert np.array_equal(_neighbor_indices(parts, k, chunk=chunk),
                              neighbor_indices_oracle(pooled, k))

    def test_matches_stable_argsort_across_default_chunks(self):
        rng = np.random.default_rng(24)
        points = rng.integers(-1, 2, size=(1100, 3)).astype(np.float64)
        for k in (1, 20, 1099):
            assert np.array_equal(_neighbor_indices(points, k), neighbor_indices_oracle(points, k))

    @settings(derandomize=True, max_examples=250, deadline=None)
    @given(screened_knn_cases())
    def test_screened_kernel_equals_the_unscreened_one(self, case):
        points, k, chunk = case
        assert np.array_equal(_neighbor_indices(points, k, chunk=chunk),
                              neighbor_indices_unscreened(points, k, chunk))

    @settings(derandomize=True, max_examples=500, deadline=None)
    @given(st.floats(0, 2.0**1000) | st.sampled_from([0.0, 1.0, 2.0**-1074, 2.0**-1030]),
           st.floats(0, 2.0**1000) | st.sampled_from([0.0, 1.0, 2.0**-1074, 2.0**-1030]),
           st.floats(-2.0**1000, 2.0**1000) | st.sampled_from([0.0, 0.5, -2.0**-1074, 2.0**-1060]))
    def test_screen_passes_every_entry_within_kth(self, sq_row, sq_min, kth):
        # Gram values on the threshold h, one ulp either side of it, and 40 ulps
        # either side of the margin-free threshold (s - kth)/2, near which an
        # entry of the nearest possible column lands at exactly kth
        h = float(_screen(np.array([sq_row]), sq_min, np.array([kth]))[0])
        assume(np.isfinite(h))
        s = sq_row + sq_min
        grams = [np.nextafter(h, -np.inf), h, np.nextafter(h, np.inf)]
        up = down = 0.5 * (s - kth)
        for _ in range(40):
            grams += [up, down]
            up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        for g in grams:
            with np.errstate(over="ignore"):
                d2 = s - 2.0 * g  # the kernel's distance to a column of squared norm sq_min
            if d2 <= kth:
                assert g > h, (g, h, d2)
        # the margin is a few ulps of the terms, not a wider net
        assert h >= 0.5 * (s - kth) - 8 * 2.0**-53 * (s + abs(kth)) - 2.0**-1070

    def test_screen_is_strict_when_every_term_is_zero(self):
        # zero rows: each Gram entry is 0 and lies at the k-th distance 0
        assert _screen(np.zeros(1), 0.0, np.zeros(1))[0] < 0.0
        points = np.zeros((6, 3))
        for chunk in (1, 2, 6):
            assert np.array_equal(_neighbor_indices(points, 2, chunk=chunk),
                                  neighbor_indices_oracle(points, 2))


class TestKnnMixing:
    def test_separated_clusters(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(300, 4))
        b = rng.normal(size=(300, 4)) + 30.0
        assert knn_mixing_rate(a, b, k=10) < 0.01

    def test_same_distribution_mixing(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(800, 6))
        b = rng.normal(size=(800, 6))
        rate = knn_mixing_rate(a, b, k=20)
        assert 0.45 <= rate <= 0.55

    def test_single_point_in_tight_cluster(self):
        rng = np.random.default_rng(10)
        lone = np.zeros((1, 3))
        cluster = np.ones((9, 3)) + 0.01 * rng.normal(size=(9, 3))
        rate = knn_mixing_rate(lone, cluster, k=1)
        npt.assert_allclose(rate, 0.1)  # only the lone point crosses modality

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(11)
        a = rng.normal(size=(100, 5))
        b = rng.normal(size=(100, 5)) + 0.5
        rot = np.linalg.qr(rng.normal(size=(5, 5)))[0]
        shift = rng.normal(size=5)
        base = knn_mixing_rate(a, b, k=7)
        moved = knn_mixing_rate(a @ rot.T + shift, b @ rot.T + shift, k=7)
        assert base == moved

    def test_k_too_large(self):
        with pytest.raises(ValueError):
            knn_mixing_rate(np.ones((3, 2)), np.ones((3, 2)), k=6)

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            knn_mixing_rate(np.eye(3), np.eye(3), k=0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_pooled_copy_oracle(self, dtype):
        rng = np.random.default_rng(28)
        a = rng.normal(size=(1100, 6)).astype(dtype)
        b = (rng.normal(size=(700, 6)) + 0.5).astype(dtype)
        assert knn_mixing_rate(a, b, k=20) == mixing_rate_oracle(a, b, 20)

    def test_working_memory_flat_in_rows(self):
        # the pooled kernel formed 512 x n tiles and a pooled float64 copy,
        # which grew by 37 MiB here when n doubled
        rng = np.random.default_rng(29)
        peaks = []
        for n in (1536, 3072):
            a = rng.normal(size=(n, 16)).astype(np.float32)
            b = rng.normal(size=(n, 16)).astype(np.float32)
            peaks.append(traced_peak(knn_mixing_rate, a, b, k=20))
        assert peaks[1] - peaks[0] < 4 * 2**20

    def test_row_too_long_for_distances_rejected(self):
        # a squared norm of 2^1040 puts sums of squares past the float64 range,
        # where a distance would overflow to inf or nan
        a, b = np.ones((5, 3)), np.ones((5, 3))
        b[2] *= 2.0**520
        with pytest.raises(DegenerateInputError, match=r"row 7 has norm >= 2\^510"):
            knn_mixing_rate(a, b, k=2)

    def test_non_finite_row_rejected(self):
        rng = np.random.default_rng(25)
        a, b = rng.normal(size=(50, 8)), rng.normal(size=(50, 8))
        with pytest.raises(DataFormatError, match="row 4 of rows_b"):
            knn_mixing_rate(a, with_nan(b, 4, 2), k=5)


class TestTileScoredHistograms:
    """Deferred histograms scored off the pooled kNN pass's Gram tiles."""

    @staticmethod
    def fused(a, b, k, chunk, seed, **hist):
        """Mixing rate and both deferred histograms from one pooled pass over ``chunk`` rows."""
        with mock.patch.object(diagnostics, "_TILE", chunk):
            hists = [cosine_histogram(x, seed=seed + s, deferred=True, **hist)
                     for s, x in enumerate((a, b))]
            return knn_mixing_rate(a, b, k=k, histograms=hists), hists

    @settings(max_examples=300, deadline=None)
    @given(histogram_sets())
    def test_masses_and_mixing_bitwise_the_standalone_calls(self, case):
        a, b, chunk, k, bins, num_pairs, seed, smoothing = case
        mixing, hists = self.fused(a, b, k, chunk, seed, num_pairs=num_pairs, bins=bins,
                                   smoothing=smoothing)
        with mock.patch.object(diagnostics, "_TILE", chunk):
            assert mixing == knn_mixing_rate(a, b, k=k)
        for s, (x, hist) in enumerate(zip((a, b), hists)):
            alone = cosine_histogram(x, num_pairs=num_pairs, bins=bins, smoothing=smoothing,
                                     seed=seed + s)
            assert np.array_equal(hist.masses, alone.masses)
            assert hist.pair_count == num_pairs and hist._pending is None

    def test_tile_dot_products_pushed_half_the_margin_bin_as_gathered(self, monkeypatch):
        # Integer rows put many cosines exactly on the edges at 0 and +-0.5 of an
        # 8-bin grid.  Every tile dot product moves half the margin toward its
        # nearest edge, and one on an edge moves below it: pairs within the
        # margin must be re-scored from gathered rows, and the rest keep their bins.
        rng = np.random.default_rng(40)
        d, bins = 3, 8
        a, b = (rng.integers(-1, 2, size=(n, d)).astype(np.float64) for n in (45, 38))
        for x in (a, b):
            x[~x.any(axis=1), 0] = 1.0
        norms = np.linalg.norm(np.vstack([a, b]), axis=1)
        edges = np.linspace(-1.0, 1.0, bins + 1)
        half_margin = 2 * (d + 2) * 2.0**-53
        score_tile = _PairSample.score_tile

        def pushed(sample, lo_a, lo_b, gram):
            scale = np.outer(norms[lo_a:lo_a + gram.shape[0]], norms[lo_b:lo_b + gram.shape[1]])
            cos = gram / scale
            at = np.clip(np.searchsorted(edges, cos, side="right"), 1, bins)
            down = cos - edges[at - 1] <= edges[at] - cos
            score_tile(sample, lo_a, lo_b, gram + np.where(down, -half_margin, half_margin) * scale)

        monkeypatch.setattr(_PairSample, "score_tile", pushed)
        _, hists = self.fused(a, b, 10, 16, 8, num_pairs=3000, bins=bins)
        for s, (x, hist) in enumerate(zip((a, b), hists)):
            alone = _PairSample(x, 3000, bins, False, 8 + s)
            cos = alone.gathered(alone.i, alone.j)
            # the push moves some pairs across an edge unless they are re-scored
            assert np.min(np.abs(cos[:, None] - edges[1:-1]), axis=1).min() < half_margin
            assert np.array_equal(hist.masses, cosine_histogram(x, 3000, bins, seed=8 + s).masses)

    def test_one_set_deferred(self):
        rng = np.random.default_rng(41)
        a, b = rng.normal(size=(60, 5)), rng.normal(size=(70, 5)) + 0.5
        hist = cosine_histogram(b, num_pairs=500, seed=2, deferred=True)
        assert hist.masses is None
        assert knn_mixing_rate(a, b, k=5, histograms=(None, hist)) == knn_mixing_rate(a, b, k=5)
        assert np.array_equal(hist.masses, cosine_histogram(b, num_pairs=500, seed=2).masses)

    def test_histogram_of_another_set_rejected(self):
        rng = np.random.default_rng(42)
        a, b = rng.normal(size=(60, 5)), rng.normal(size=(70, 5))
        deferred = cosine_histogram(a, num_pairs=50, deferred=True)
        with pytest.raises(ValueError, match="deferred histograms of rows_a and rows_b"):
            knn_mixing_rate(a, b, k=5, histograms=(None, deferred))
        with pytest.raises(ValueError, match="deferred histograms of rows_a and rows_b"):
            knn_mixing_rate(a, b, k=5, histograms=(cosine_histogram(a, num_pairs=50), None))

    def test_peak_memory_within_4_mib_of_mixing_alone(self):
        rng = np.random.default_rng(43)
        a = rng.normal(size=(4000, 768)).astype(np.float32)
        b = (rng.normal(size=(4000, 768)) + 0.1).astype(np.float32)
        alone = traced_peak(knn_mixing_rate, a, b)

        def fused():
            hists = [cosine_histogram(x, num_pairs=200_000, seed=s, deferred=True)
                     for s, x in enumerate((a, b))]
            knn_mixing_rate(a, b, histograms=hists)

        assert traced_peak(fused) <= alone + 4 * 2**20


class TestKnnOverlap:
    def test_identity(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(50, 4))
        assert knn_overlap(x, x, k=5) == 1.0

    def test_rotation_and_scaling_invariance(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(80, 6))
        rot = np.linalg.qr(rng.normal(size=(6, 6)))[0]
        moved = 2.5 * (x @ rot.T)
        assert knn_overlap(x, moved, k=8) == 1.0

    def test_random_reembedding_matches_null_rate(self):
        rng = np.random.default_rng(14)
        n, k = 500, 10
        x = rng.normal(size=(n, 8))
        y = rng.normal(size=(n, 8))
        rate = knn_overlap(x, y, k=k)
        null = k / (n - 1)
        assert 0.5 * null <= rate <= 2.0 * null

    def test_duplicates_flagged(self):
        x = np.vstack([np.eye(4), np.eye(4), np.eye(4)])
        with pytest.warns(UserWarning, match="duplicate"):
            knn_overlap(x, x + 0.0, k=2)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(3, 12).flatmap(lambda n: st.tuples(*[
        arrays(dtype, (n, d), elements=st.sampled_from([-1.0, -0.0, 0.0, 0.5]))
        for dtype in (np.float64, np.float32) for d in (1, 3)])))
    def test_duplicate_warning_agrees_with_unique_rows(self, sets):
        for before, after in ((sets[0], sets[1]), (sets[2], sets[3])):
            expected = {name for name, arr in (("before", before), ("after", after))
                        if np.unique(arr, axis=0).shape[0] != arr.shape[0]}
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                knn_overlap(before, after, k=1)
            flagged = {name for name in ("before", "after")
                       for w in caught if f"{name!r} set" in str(w.message)}
            assert flagged == expected

    def test_signed_zero_rows_are_duplicates(self):
        x = np.array([[0.0, 1.0], [-0.0, 1.0], [1.0, 0.0]])
        with pytest.warns(UserWarning, match="'before' set"):
            knn_overlap(x, np.eye(3)[:, :2] + np.arange(3)[:, None], k=1)

    def test_too_few_rows(self):
        with pytest.raises(ValueError):
            knn_overlap(np.ones((3, 2)), np.ones((3, 2)), k=3)

    def test_equals_per_row_set_intersection(self):
        rng = np.random.default_rng(26)
        n, k = 300, 6
        x = rng.normal(size=(n, 5))
        y = x + 0.5 * rng.normal(size=(n, 5))
        nb, na = neighbor_indices_oracle(x, k), neighbor_indices_oracle(y, k)
        shared = np.array([np.intersect1d(nb[i], na[i]).size for i in range(n)], dtype=np.float64)
        assert knn_overlap(x, y, k=k) == shared.mean() / k

    def test_k_zero_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            knn_overlap(np.eye(3), np.eye(3), k=0)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_float64_copy_oracle(self, dtype):
        rng = np.random.default_rng(30)
        x = rng.normal(size=(1100, 6)).astype(dtype)
        y = (x + 0.3 * rng.normal(size=(1100, 6))).astype(dtype)
        assert knn_overlap(x, y, k=10) == overlap_oracle(x, y, 10)

    @settings(max_examples=200, deadline=None)
    @given(rows_with_planted_twins())
    def test_duplicate_check_matches_set_of_bytes(self, rows):
        assert _has_duplicate_rows(rows) == duplicate_rows_oracle(rows)

    def test_working_memory_flat_in_rows(self):
        # float64 copies, n-wide tiles and the set of row bytes grew by 18 MiB here
        rng = np.random.default_rng(31)
        peaks = []
        for n in (1536, 3072):
            x = rng.normal(size=(n, 16)).astype(np.float32)
            peaks.append(traced_peak(knn_overlap, x, x + np.float32(0.1), k=10))
        assert peaks[1] - peaks[0] < 4 * 2**20

    def test_non_finite_row_rejected(self):
        x = np.random.default_rng(27).normal(size=(50, 8))
        with pytest.raises(DataFormatError, match="row 11 of rows_before"):
            knn_overlap(with_nan(x, 11), x, k=5)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_knn_on_file_sources_equals_knn_on_their_rows_bit_for_bit(tmp_path, dtype):
    # 1,500 rows per set span two kNN tiles; the kernel holds one tile of a source
    # while it reads another, which a file source's reused read buffer once overwrote
    rng = np.random.default_rng(33)
    n = 1_500
    assert n > diagnostics._TILE
    a = unit_rows(rng.normal(size=(n, 16))).astype(dtype)
    b = unit_rows(rng.normal(size=(n, 16)) + 0.3).astype(dtype)
    after = unit_rows(a + 0.2 * rng.normal(size=(n, 16))).astype(dtype)
    files = []
    for name, rows in (("a", a), ("b", b), ("after", after)):
        write_embeddings(rows, str(tmp_path / f"{name}.emb1"))
        files.append(EmbeddingFile(str(tmp_path / f"{name}.emb1")))
    file_a, file_b, file_after = files
    assert knn_mixing_rate(file_a, file_b, k=10) == knn_mixing_rate(a, b, k=10)
    assert knn_overlap(file_a, file_after, k=10) == knn_overlap(a, after, k=10)
    for points, rows in (((file_a, file_b), (a, b)), (file_a, a)):
        assert np.array_equal(_neighbor_indices(points, 10), _neighbor_indices(rows, 10))


class TestDiagnoseMemory:
    """``gapalign diagnose`` working memory beyond its inputs must not grow with n."""

    @staticmethod
    def diagnose_peak(tmp_path, n):
        rng = np.random.default_rng(32)
        a = unit_rows(rng.normal(size=(n, 16))).astype(np.float32)
        b = unit_rows(rng.normal(size=(n, 16)) + 0.3).astype(np.float32)
        paths = {name: str(tmp_path / f"{name}{n}.emb1") for name in ("a", "b", "after")}
        write_embeddings(a, paths["a"])
        write_embeddings(b, paths["b"])
        write_embeddings(a.astype(np.float64) + 0.01, paths["after"])
        argv = ["diagnose", "--a", paths["a"], "--b", paths["b"], "--overlap-with", paths["after"],
                "--plots-dir", str(tmp_path / f"plots{n}"), "--report", str(tmp_path / f"r{n}.json")]
        peak = traced_peak(main, argv)
        inputs = a.nbytes + b.nbytes + 2 * a.nbytes
        return peak, inputs

    def test_cli_peak_beyond_inputs_flat_in_rows(self, tmp_path):
        # guards the command against a stage whose working memory grows with n again:
        # the pooled kernel's tiles and float64 copies grew by 37 MiB here
        (peak_n, inputs_n), (peak_2n, inputs_2n) = (self.diagnose_peak(tmp_path, n)
                                                    for n in (1536, 3072))
        assert (peak_2n - inputs_2n) - (peak_n - inputs_n) < 4 * 2**20


class TestPhantomDrift:
    def test_isotropic_noise_keeps_bias_direction(self):
        rng = np.random.default_rng(15)
        d, n = 8, 100_000
        m = np.zeros(d)
        m[:2] = 0.3
        zeta = rng.standard_normal((n, d))
        report = phantom_drift(m, zeta)
        assert report.drift_angle_deg < 2.0
        # isotropic noise gives a mixing matrix proportional to identity
        diag = np.diag(report.mixing_matrix)
        off = report.mixing_matrix - np.diag(diag)
        assert np.abs(off).max() < 0.05 * diag.mean()

    def test_central_symmetry_zero_mean(self):
        rng = np.random.default_rng(16)
        n, d = 50_000, 6
        half = rng.standard_normal((n // 2, d)) * np.array([3.0, 1, 1, 1, 1, 0.5])
        sym = np.vstack([half, -half])
        dirs = sym / np.linalg.norm(sym, axis=1, keepdims=True)
        assert np.linalg.norm(dirs.mean(axis=0)) < 1e-14  # antithetic pairs cancel exactly
        plain = rng.standard_normal((n, d))
        dirs2 = plain / np.linalg.norm(plain, axis=1, keepdims=True)
        assert np.linalg.norm(dirs2.mean(axis=0)) < 3.0 / np.sqrt(n)

    def test_anisotropic_noise_rotates_bias(self):
        rng = np.random.default_rng(17)
        d, n = 8, 100_000
        m = np.zeros(d)
        m[:2] = 0.5
        scales = np.ones(d)
        scales[0] = 10.0  # std 10 along the first axis: variance 100
        aniso = rng.standard_normal((n, d)) * scales
        iso = rng.standard_normal((n, d))
        angle_aniso = phantom_drift(m, aniso).drift_angle_deg
        angle_iso = phantom_drift(m, iso).drift_angle_deg
        assert angle_aniso > angle_iso + 5.0

    def test_zero_bias_rejected(self):
        with pytest.raises(DegenerateInputError):
            phantom_drift(np.zeros(3), np.ones((10, 3)))

    def test_zero_noise_sample_rejected(self):
        zeta = np.ones((5, 3))
        zeta[2] = 0.0
        with pytest.raises(DegenerateInputError):
            phantom_drift(np.ones(3), zeta)


class TestSampleComplexityCurve:
    @staticmethod
    def synthetic_pair(rng, n, d=16):
        src = unit_rows(np.array([0.5] + [0.0] * (d - 1)) + 0.4 * rng.standard_normal((n, d)))
        tgt = unit_rows(np.array([0.0, 0.6] + [0.0] * (d - 2)) + 0.3 * rng.standard_normal((n, d)))
        return src, tgt

    def test_full_pool_single_trial_matches_direct_calibration(self):
        rng = np.random.default_rng(18)
        src, tgt = self.synthetic_pair(rng, 1200)
        table = sample_complexity_curve(src, tgt, sizes=[960], trials=1, seed=3, holdout=240)
        # reproduce the split the curve used
        rng2 = np.random.default_rng(3)
        perm_src = rng2.permutation(1200)
        perm_tgt = rng2.permutation(1200)
        held_src, pool_src = src[perm_src[:240]], src[perm_src[240:]]
        held_tgt, pool_tgt = tgt[perm_tgt[:240]], tgt[perm_tgt[240:]]
        stats = estimate_realign(stats_of(pool_src), stats_of(pool_tgt), pool_src)
        aligned = substitution_operator(held_src, stats)
        direct = modality_gap(aligned.mean(axis=0), held_tgt.mean(axis=0))
        npt.assert_allclose(table[0]["gap_mean"], direct, rtol=1e-10)

    def test_gap_shrinks_with_size(self):
        rng = np.random.default_rng(19)
        src, tgt = self.synthetic_pair(rng, 26_000)
        table = sample_complexity_curve(
            src, tgt, sizes=[100, 500, 2_000, 10_000], trials=5, seed=4
        )
        means = [row["gap_mean"] for row in table]
        inversions = sum(means[i + 1] > means[i] for i in range(len(means) - 1))
        assert inversions <= 1
        assert means[-1] < means[0]

    def test_std_decays_at_clt_rate(self):
        rng = np.random.default_rng(20)
        src, tgt = self.synthetic_pair(rng, 26_000)
        table = sample_complexity_curve(src, tgt, sizes=[100, 10_000], trials=8, seed=5)
        ratio = table[0]["gap_std"] / table[1]["gap_std"]
        expected = np.sqrt(10_000 / 100)
        assert expected / 2 <= ratio <= expected * 2

    def test_oversized_request_rejected(self):
        rng = np.random.default_rng(21)
        src, tgt = self.synthetic_pair(rng, 500)
        with pytest.raises(DataFormatError):
            sample_complexity_curve(src, tgt, sizes=[10_000], trials=1, seed=0)
