"""Scalar and distributional quality metrics for alignment.

Includes centroid distance, sampled pairwise-cosine histograms with
Jensen-Shannon divergence, exact brute-force k-nearest-neighbor mixing
and overlap statistics, Monte Carlo measurement of the spurious
centroid shift caused by projecting anisotropic noise onto the sphere,
and a sample-complexity sweep for alignment calibration.

Every sampled metric takes an explicit seed and is deterministic under
it.  The histogram and kNN metrics never widen a whole input set: they
read float32 or float64 rows in place and widen to float64 one block or
tile at a time; blocks, pair blocks and tile ranges all come from
``io.row_blocks``.  A cosine histogram scores its sampled pairs by one of
two routes with the same counts.  Standalone, it gathers and scores them
``_PAIR_BLOCK`` at a time, so its working memory is bounded by that
block size rather than by ``num_pairs x d``.  Deferred and handed to
``knn_mixing_rate``, it reads each pair's dot product off the Gram tile
of the pooled kNN pass that holds it, and gathers only pairs whose tile
cosine lies within a round-off margin of a bin edge (``_PairSample``).
Nearest neighbors are exact, from square Gram tiles of ``_TILE`` rows a
side merged into a running k nearest per row, with ties broken toward
the lower index; memory beyond the inputs is O(tile^2 + n k).  A row
first takes its k nearest in its diagonal tile; every other tile is
screened in Gram space, with a round-off margin, so that only entries
that can enter a row's k nearest get a distance (``_neighbor_indices``).
This is meant for desk-scale inputs (up to around 1e5 rows), not
approximate search.  The histogram and kNN metrics reject
input with a non-finite value by raising ``DataFormatError`` that names
the first such row.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataFormatError, DegenerateInputError
from .io import _finite, as_matrix, row_blocks
from .moments import stats_of
from .realign import estimate_realign

_PAIR_BLOCK = 1024  # sampled pairs gathered and scored at a time
# Rows per side of a kNN distance tile: its Gram, distances and candidate mask
# take 17 MiB however many rows the sets have.  On 8,000 pooled 768-d rows
# (k = 20, 2-core host) 512/768/1,024/1,536-row tiles took 1.30/1.20/1.23/1.30 s.
_TILE = 1024
_NO_INDEX = np.iinfo(np.int64).max  # pads a merge row past its candidates
# Rows with norms in this range keep every square, product and partial sum of
# their dot products finite, and the error of those that underflow below
# 2^-115 d |x||y|, negligible beside the round-off bound in ``_PairSample``.
_NORMAL_NORMS = (2.0**-480, 2.0**480)


@dataclass
class CosineHistogram:
    """Normalized histogram of sampled pairwise cosines on a fixed [-1, 1] grid.

    A deferred histogram (``cosine_histogram(..., deferred=True)``) has
    ``masses`` None until ``knn_mixing_rate`` scores its pairs.
    """

    bin_edges: np.ndarray
    masses: np.ndarray | None
    pair_count: int
    sampling_seed: int
    _pending: _PairSample | None = field(default=None, repr=False, compare=False)


@dataclass
class DriftReport:
    """Measured centroid shift of a biased anisotropic cloud after projection.

    ``drift_norm`` is the distance between the projected-mean estimate
    and the projection of the bias alone; ``drift_angle_deg`` (in
    [0, 180]) is the angle between them; ``mixing_matrix`` is the Monte
    Carlo estimate of the linear response of the projected mean to a
    small bias.
    """

    drift_norm: float
    drift_angle_deg: float
    mixing_matrix: np.ndarray


def modality_gap(mu_a: np.ndarray, mu_b: np.ndarray) -> float:
    """Euclidean distance between two distribution centroids."""
    a = np.asarray(mu_a, dtype=np.float64)
    b = np.asarray(mu_b, dtype=np.float64)
    if a.shape != b.shape:
        raise DataFormatError("centroids have mismatched shapes")
    return float(np.linalg.norm(a - b))


class _PairSample:
    """One set's seeded index pairs and the bin counts of their cosines.

    A pair's cosine is its float64 dot product over the product of the
    two row norms, clipped to [-1, 1].  ``gathered`` forms the dot
    product from the two rows gathered and widened; the tile route
    (``sort_into_tiles``, then ``score_tile`` on each Gram tile of a
    pooled kNN pass) reads it off the tile instead.  The two summation
    orders differ, but each lies within gamma_d * |x||y| of the exact dot
    product, gamma_d = d u / (1 - d u) with u = 2^-53 (Higham, "Accuracy
    and Stability of Numerical Algorithms", 2002, sec. 3.1), and |x||y|
    exceeds the norm product both routes divide by by at most (d + 3) u,
    relative.  Each division adds u, so the two cosines differ by at most
    about 2 (d + 1) u; ``margin`` is twice that, 4 (d + 2) u.  The bin of
    a clipped cosine is monotone in the cosine, so a tile cosine farther
    than the margin from every bin edge, +-1 included, bins as the
    gathered one does.  Other pairs, non-finite ones and pairs with a
    row norm outside ``_NORMAL_NORMS`` (where underflow or overflow
    voids the bound) are re-scored by ``gathered``.  So the counts are
    the gather route's, bit for bit, on any BLAS.
    """

    def __init__(self, rows, num_pairs: int, bins: int, smoothing: bool, seed: int):
        data = _finite(rows, "non-finite value in row {} of rows")
        n = data.shape[0]
        if n < 2:
            raise DataFormatError("need at least 2 rows to form pairs")
        if bins < 8:
            raise ValueError("use at least 8 bins")
        if num_pairs <= 0:
            raise ValueError(f"num_pairs must be positive, got {num_pairs}")
        with np.errstate(over="ignore"):  # an infinite norm is refused below
            norms = np.concatenate([np.linalg.norm(data[block].astype(np.float64, copy=False),
                                                   axis=1) for block in row_blocks(n)])
        if np.any(norms == 0):
            raise DegenerateInputError(f"zero-norm row {int(np.argmin(norms != 0))}")
        if np.any(norms == np.inf):
            raise DegenerateInputError(f"norm overflowed at row {int(np.argmax(norms == np.inf))}")
        rng = np.random.default_rng(seed)
        i = rng.integers(0, n, size=num_pairs)
        j = (i + rng.integers(1, n, size=num_pairs)) % n
        index = np.int32 if n <= np.iinfo(np.int32).max else np.int64
        self.data, self.norms, self.i, self.j = data, norms, i.astype(index), j.astype(index)
        self.normal = (norms >= _NORMAL_NORMS[0]) & (norms <= _NORMAL_NORMS[1])
        self.margin = 4 * (data.shape[1] + 2) * 2.0**-53
        self.edges = np.linspace(-1.0, 1.0, bins + 1)
        self.counts = np.zeros(bins, dtype=np.int64)
        self.pair_count, self.smoothing = num_pairs, smoothing

    def gathered(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Cosines of the pairs ``(i, j)``, from rows gathered ``_PAIR_BLOCK`` pairs at a time."""
        cos = np.empty(i.size)
        for block in row_blocks(i.size, _PAIR_BLOCK):
            ii, jj = i[block], j[block]
            left = self.data[ii].astype(np.float64, copy=False)
            right = self.data[jj].astype(np.float64, copy=False)
            cos[block] = np.einsum("ij,ij->i", left, right) / (self.norms[ii] * self.norms[jj])
        return cos

    def count(self, cos: np.ndarray) -> None:
        self.counts += np.histogram(np.clip(cos, -1.0, 1.0), bins=self.edges)[0]

    def sort_into_tiles(self, spans, base: int) -> None:
        """Trade the pairs for their offsets in the Gram tiles of a pooled pass over ``spans``.

        ``spans`` are the pass's ``row_blocks``, and the set's rows are the
        pooled rows from ``base`` on.  A pair is read at (lower row, higher
        row) of the tile of their spans, tiles being the span pairs (a, b)
        with a <= b.  ``offsets`` holds each tile's pairs contiguously
        (int32: a tile has at most ``(chunk + 2)^2`` entries), and
        ``tiles`` maps a tile's first row and column to their slice.
        """
        m, size = len(spans), spans[0].stop  # every span but the last is ``size`` rows wide
        widths = np.array([span.stop - span.start for span in spans])
        p = np.minimum(self.i, self.j).astype(np.int64) + base
        q = np.maximum(self.i, self.j).astype(np.int64) + base
        sp, sq = np.minimum(p // size, m - 1), np.minimum(q // size, m - 1)
        tile = sp * m + sq
        offsets = (p - sp * size) * widths[sq] + (q - sq * size)
        self.offsets = offsets[np.argsort(tile)].astype(np.int32)
        ends = np.cumsum(np.bincount(tile, minlength=m * m)).tolist()
        self.tiles = {(spans[t // m].start, spans[t % m].start): slice(start, end)
                      for t, (start, end) in enumerate(zip([0] + ends, ends)) if start < end}
        self.base = base
        self.i = self.j = None

    def score_tile(self, lo_a: int, lo_b: int, gram: np.ndarray) -> None:
        """Count the pairs read off ``gram``, the dot products of pooled rows lo_a.. by lo_b.."""
        part = self.tiles.get((lo_a, lo_b))
        if part is None:
            return
        offsets = self.offsets[part]
        i, j = np.divmod(offsets, gram.shape[1])
        i += lo_a - self.base
        j += lo_b - self.base
        cos = gram.reshape(-1)[offsets] / (self.norms[i] * self.norms[j])
        bins = self.counts.size
        with np.errstate(invalid="ignore"):  # a non-finite cosine casts to some index
            at = np.clip(((cos + 1.0) * (0.5 * bins)).astype(np.intp), 0, bins - 1)
        # the test is against bin at's own edges, so a cosine counted into it lies
        # inside it, and one the rounded estimate misplaced is re-scored
        clear = np.minimum(cos - self.edges[at], self.edges[at + 1] - cos) > self.margin
        clear &= self.normal[i] & self.normal[j]
        self.counts += np.bincount(at[clear], minlength=bins)
        self.count(self.gathered(i[~clear], j[~clear]))

    def masses(self) -> np.ndarray:
        masses = self.counts / float(self.pair_count)
        if self.smoothing:
            kernel = np.array([1.0, 2.0, 3.0, 2.0, 1.0])
            masses = np.convolve(masses, kernel / kernel.sum(), mode="same")
            masses = masses / masses.sum()
        return masses


def cosine_histogram(
    rows,
    num_pairs: int = 200_000,
    bins: int = 201,
    smoothing: bool = False,
    seed: int = 0,
    *,
    deferred: bool = False,
) -> CosineHistogram:
    """Histogram the cosines of uniformly sampled distinct index pairs.

    Pairs (i, j) with i != j are drawn uniformly with a seeded
    generator, so the metric is reproducible and costs O(num_pairs)
    instead of O(N^2).  ``smoothing`` convolves the masses with a small
    triangular kernel (half-width 2 bins) and renormalizes.

    The input is checked and the pairs drawn here either way.  By
    default they are scored here too, from gathered rows.  A
    ``deferred`` histogram has ``masses`` None until it is passed to
    ``knn_mixing_rate(..., histograms=...)`` with the same ``rows``,
    whose O(N^2) pooled pass reads each pair's dot product off its Gram
    tiles; the masses are bitwise the gathered ones (``_PairSample``).
    """
    sample = _PairSample(rows, num_pairs, bins, smoothing, seed)
    hist = CosineHistogram(bin_edges=sample.edges, masses=None, pair_count=num_pairs,
                           sampling_seed=seed, _pending=sample)
    if not deferred:
        sample.count(sample.gathered(sample.i, sample.j))
        hist.masses, hist._pending = sample.masses(), None
    return hist


def js_divergence(p: CosineHistogram, q: CosineHistogram) -> float:
    """Jensen-Shannon divergence between two histograms on the same grid.

    Natural log, so the value lies in [0, ln 2]; empty bins follow the
    0 * log 0 = 0 convention.
    """
    if not np.array_equal(p.bin_edges, q.bin_edges):
        raise DataFormatError("histograms use different bin grids")
    pm, qm = p.masses, q.masses
    mid = 0.5 * (pm + qm)

    def kl(a, m):
        nz = a > 0
        return float(np.sum(a[nz] * np.log(a[nz] / m[nz])))

    return max(0.0, 0.5 * kl(pm, mid) + 0.5 * kl(qm, mid))


def _widened(parts, rows: slice) -> np.ndarray:
    """The ``rows`` of the row concatenation of ``parts``, as float64."""
    lo, hi = rows.start, rows.stop
    pieces, start = [], 0
    for part in parts:
        stop = start + part.shape[0]
        if lo < stop and start < hi:
            pieces.append(part[max(lo - start, 0):min(hi, stop) - start])
        start = stop
    if len(pieces) == 1:
        return pieces[0].astype(np.float64, copy=False)
    return np.concatenate(pieces, dtype=np.float64)


def _merge_tile(best_d, best_i, row, col, dist, k: int):
    """Merge candidates into their rows' running k nearest.

    ``best_d`` and ``best_i`` hold each row's nearest so far in (distance,
    index) order; candidate t is column ``col[t]`` at ``dist[t]`` from row
    ``row[t]``, in any order.  The first k by (distance, index) stay.  Rows
    without candidates are left alone, so a row short of k needs them all.
    """
    have = best_d.shape[1]
    counts = np.bincount(row)
    rows = np.flatnonzero(counts)
    counts = counts[rows]
    # one stable sort, by radix on the narrowest integers that hold a row of the tile
    order = np.argsort(row.astype(np.min_scalar_type(best_d.shape[0])), kind="stable")
    at = np.repeat(np.arange(rows.size), counts)
    slot = have + np.arange(row.size) - np.repeat(np.cumsum(counts) - counts, counts)
    dist_m = np.full((rows.size, have + int(counts.max(initial=0))), np.inf)
    index_m = np.full(dist_m.shape, _NO_INDEX)
    dist_m[:, :have], index_m[:, :have] = best_d[rows], best_i[rows]
    dist_m[at, slot], index_m[at, slot] = dist[order], col[order]
    keep = np.lexsort((index_m, dist_m), axis=1)[:, :min(k, dist_m.shape[1])]
    dist_m, index_m = (np.take_along_axis(m, keep, axis=1) for m in (dist_m, index_m))
    if keep.shape[1] > have:  # the rows were short of k, so every row is here
        return dist_m, index_m
    best_d[rows], best_i[rows] = dist_m, index_m
    return best_d, best_i


def _screen(sq_rows: np.ndarray, sq_min: float, kth: np.ndarray) -> np.ndarray:
    """Per row, the Gram value every entry within ``kth`` exceeds (see ``_neighbor_indices``)."""
    near = sq_rows + sq_min
    return 0.5 * (near - kth) - (2.0**-51 * (near + np.abs(kth)) + 2.0**-1072)


def _merge_screened(best_d, best_i, gram, sq_rows, sq_cols, axis: int, col0: int, k: int, hit):
    """Merge an off-diagonal Gram tile into the k nearest of its rows (``axis`` 0) or columns (1).

    ``best_d`` and ``best_i`` are as in ``_merge_tile``; ``hit``, of ``gram``'s shape, is scratch.
    """
    own, other = (sq_rows, sq_cols) if axis == 0 else (sq_cols, sq_rows)
    kth = best_d[:, -1]  # +inf while a row is short of k, since it still holds itself
    h = _screen(own, other.min(), kth)
    np.greater(gram, np.expand_dims(h, 1 - axis), out=hit)
    i, j = np.divmod(np.flatnonzero(hit), hit.shape[1])
    d2 = (sq_rows[i] + sq_cols[j]) - 2.0 * gram[i, j]
    row, col = (i, j) if axis == 0 else (j, i)
    near = d2 <= kth[row]
    return _merge_tile(best_d, best_i, row[near], col[near] + col0, d2[near], k)


def _neighbor_indices(points, k: int, chunk: int = _TILE, on_tile=None) -> np.ndarray:
    """Exact k nearest neighbors of every row among all other rows.

    ``points`` is one matrix or a tuple of matrices read as their row
    concatenation; rows are widened to float64 one tile at a time, so no
    pooled copy is made.  Squared distances ``(|a|^2 + |b|^2) - 2 a.b``
    come from Gram tiles between ranges of ``chunk`` rows (``row_blocks``),
    each unordered pair of ranges multiplied once for both ranges' rows
    (float addition commutes, and the BLAS product's transpose equals the
    swapped product, checked bit for bit on OpenBLAS 0.3.31).  Every row
    keeps a running k nearest in (distance, index) order (``_merge_tile``),
    so the result equals the first k columns of a stable ``argsort`` of
    each full distance row.  Memory beyond the inputs is O(chunk^2 + n k).
    Rows must be finite; one of norm 2^510 or more, whose distances could
    overflow, raises ``DataFormatError``.  Returns an (n, k) index array,
    nearest first.

    Tiles are taken range by range: the diagonal tile (b, b), with its
    distances formed whole, then (a, b) for a < b, screened in Gram space.
    A row i whose k-th distance is ``kth`` takes only entries g > h_i =
    (s - kth)/2 - 4u (s + |kth|) - 2^-1072, u = 2^-53, s = fl(|x_i|^2 + m)
    and m the least squared norm of the other range.  The margin is a
    round-off bound like ``_PairSample``'s (Higham 2002, sec. 2.2): a kept
    entry has fl(s' - 2g) <= kth with s' = fl(|x_i|^2 + |x_j|^2) >= s, so
    s' - 2g <= kth + u|kth|/(1 - u) and g >= (s - kth)/2 - u|kth|, while
    rounding h costs at most (1 + O(u)) u (s + |kth|) plus 2^-1075 for
    halving a subnormal, which the margin exceeds.  A row short of k holds
    every entry so far, itself at +inf (``fill_diagonal``) among them, so
    its h is -inf.  A candidate's distance is the diagonal tiles'
    elementwise expression, so its bits do not depend on which entries are
    formed; those with d2 <= kth are merged, a tie at ``kth`` going to the
    index key.

    ``on_tile(lo_a, lo_b, gram)``, if given, sees each Gram tile of dot
    products between the ranges starting at rows ``lo_a <= lo_b`` before
    it is used, and must not change it.  Deferred cosine histograms
    score their pairs there (``_PairSample``).
    """
    parts = points if isinstance(points, tuple) else (points,)
    spans = list(row_blocks(sum(part.shape[0] for part in parts), chunk))
    widths = [span.stop - span.start for span in spans]
    sq = np.concatenate([np.einsum("ij,ij->i", block, block)
                         for block in (_widened(parts, span) for span in spans)])
    if not sq.max() < 2.0**1020:  # else a squared distance could overflow
        raise DataFormatError(f"row {int(np.argmax(~(sq < 2.0**1020)))} has norm >= 2^510")
    # the Gram and distance tiles reuse two buffers, so no tile is allocated twice
    buffers = np.empty((2, max(widths) ** 2))
    best = []
    for b, span_b in enumerate(spans):
        rows_b = _widened(parts, span_b)
        for a in (b, *range(b)):  # the diagonal tile first
            span_a, shape = spans[a], (widths[a], widths[b])
            gram, d2 = (buf[:shape[0] * shape[1]].reshape(shape) for buf in buffers)
            np.matmul(rows_b if a == b else _widened(parts, span_a), rows_b.T, out=gram)
            if on_tile is not None:
                on_tile(span_a.start, span_b.start, gram)
            if a < b:  # the distance buffer holds the candidate masks
                hit = buffers[1].view(bool)[:gram.size].reshape(shape)
                for axis, (own, col0) in enumerate(((a, span_b.start), (b, span_a.start))):
                    best[own] = _merge_screened(*best[own], gram, sq[span_a], sq[span_b], axis,
                                                col0, k, hit)
                continue
            gram *= 2.0
            np.add.outer(sq[span_b], sq[span_b], out=d2)
            d2 -= gram
            np.fill_diagonal(d2, np.inf)
            kth = np.full(widths[b], np.inf)
            if widths[b] > k:  # the first k by (distance, index) lie within the k-th distance
                np.copyto(gram, d2)
                gram.partition(k - 1, axis=1)
                kth = gram[:, k - 1]
            row, col = np.divmod(np.flatnonzero(d2 <= kth[:, None]), widths[b])
            best.append(_merge_tile(np.empty((widths[b], 0)), np.empty((widths[b], 0), np.int64),
                                    row, col + span_b.start, d2[row, col], k))
    return np.vstack([index for _, index in best])


def knn_mixing_rate(rows_a, rows_b, k: int = 20, histograms=()) -> float:
    """Mean fraction of cross-modality points among each point's k neighbors.

    Both sets are pooled, in place: neighbors are found over their row
    concatenation without copying it.  Around 0.5 for equal-size samples
    of the same distribution, near 0 for well-separated clouds.

    ``histograms`` holds deferred cosine histograms of ``rows_a`` and
    ``rows_b``, in that order (None skips one).  The pooled pass scores
    their pairs off its Gram tiles and fills in their masses, which equal
    those of the same histograms scored standalone, bit for bit.
    """
    a = _finite(rows_a, "non-finite value in row {} of rows_a")
    b = _finite(rows_b, "non-finite value in row {} of rows_b")
    if a.shape[1] != b.shape[1]:
        raise DataFormatError("sets have different dimensionalities")
    n = a.shape[0] + b.shape[0]
    if not 0 < k < n:
        raise ValueError(f"k={k} must be positive and smaller than the pooled size {n}")
    pending = [(hist, rows, base) for hist, rows, base in zip(histograms, (a, b), (0, a.shape[0]))
               if hist is not None]
    for hist, rows, _ in pending:
        if hist._pending is None or hist._pending.data is not rows:
            raise ValueError("histograms must be deferred histograms of rows_a and rows_b")
    spans = list(row_blocks(n, _TILE))
    for hist, _, base in pending:
        hist._pending.sort_into_tiles(spans, base)

    def score(lo_a, lo_b, gram):
        for hist, _, _ in pending:
            hist._pending.score_tile(lo_a, lo_b, gram)

    nn = _neighbor_indices((a, b), k, _TILE, on_tile=score)  # the tiles ``spans`` names
    for hist, _, _ in pending:
        hist.masses, hist._pending = hist._pending.masses(), None
    # pooled index i lies in the second set when i >= len(a)
    other = (nn >= a.shape[0]) != (np.arange(n) >= a.shape[0])[:, None]
    return float(other.mean())


def _has_duplicate_rows(data) -> bool:
    """Whether two rows of ``data`` are equal as numbers (-0.0 equals 0.0).

    Rows are hashed a block at a time from the bits of their float64
    values plus 0.0, which turns -0.0 into 0.0; rows whose hashes agree
    are then compared byte for byte.  Memory is O(n + block x d).
    """
    # odd weights are invertible modulo 2^64, so no column's bits are lost
    weights = 2 * np.random.default_rng(0).integers(0, 2**63, data.shape[1], dtype=np.uint64) + 1
    keys = np.empty(data.shape[0], dtype=np.uint64)
    for block in row_blocks(data.shape[0]):
        bits = np.add(data[block], 0.0, dtype=np.float64).view(np.uint64)
        bits *= weights
        keys[block] = bits.sum(axis=1)
    ranked = np.sort(keys)
    for key in np.unique(ranked[1:][ranked[1:] == ranked[:-1]]):
        rows = np.add(data[keys == key], 0.0, dtype=np.float64)
        if len({row.tobytes() for row in rows}) < len(rows):
            return True
    return False


def knn_overlap(rows_before, rows_after, k: int = 10) -> float:
    """Mean retained fraction of each point's k-neighborhood across a transform.

    Rows must be index-aligned between the two sets.  Exact duplicates
    make neighbor sets ambiguous and are flagged with a warning.
    """
    before = _finite(rows_before, "non-finite value in row {} of rows_before")
    after = _finite(rows_after, "non-finite value in row {} of rows_after")
    if before.shape[0] != after.shape[0]:
        raise DataFormatError("sets must have equal row counts")
    n = before.shape[0]
    if not 0 < k < n:
        raise ValueError(f"k={k} must be positive and smaller than the row count {n}")
    for name, arr in (("before", before), ("after", after)):
        if _has_duplicate_rows(arr):
            warnings.warn(f"duplicate rows in the {name!r} set; neighbor sets are ambiguous")
    nn_before = _neighbor_indices(before, k)
    nn_after = _neighbor_indices(after, k)
    # each neighbor row holds k distinct indices, so equal pairs count the shared ones
    shared = (nn_before[:, :, None] == nn_after[:, None, :]).sum(axis=(1, 2))
    return float(shared.mean() / k)


def phantom_drift(m: np.ndarray, zeta_samples) -> DriftReport:
    """Monte Carlo estimate of the projected-mean shift under noisy bias.

    Given a bias vector ``m`` and zero-mean noise samples, estimates the
    mean of (m + noise)/|m + noise| and compares it with m/|m| both in
    norm and in angle.  Also reports the mixing matrix, the empirical
    mean of (I - uu^T)/|z| over noise directions u = z/|z|, whose
    anisotropy is what rotates the projected mean away from the bias.
    """
    m = np.asarray(m, dtype=np.float64)
    z = as_matrix(zeta_samples).astype(np.float64, copy=False)
    m_norm = np.linalg.norm(m)
    if m_norm == 0.0:
        raise DegenerateInputError("bias vector must be nonzero")
    norms = np.linalg.norm(z, axis=1)
    if np.any(norms == 0):
        raise DegenerateInputError(f"zero-norm noise sample at row {int(np.argmin(norms != 0))}")

    shifted = m + z
    shifted_norms = np.linalg.norm(shifted, axis=1)
    if np.any(shifted_norms == 0):
        raise DegenerateInputError("a noise sample exactly cancels the bias")
    mean_proj = (shifted / shifted_norms[:, None]).mean(axis=0)

    inv = 1.0 / norms
    d = z.shape[1]
    mixing = np.mean(inv) * np.eye(d) - (z * (inv**3)[:, None]).T @ z / z.shape[0]

    unit_bias = m / m_norm
    drift_norm = float(np.linalg.norm(mean_proj - unit_bias))
    denom = np.linalg.norm(mean_proj) * 1.0
    if denom == 0.0:
        angle = 90.0
    else:
        cos = float(mean_proj @ unit_bias) / denom
        angle = float(np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))))
    return DriftReport(drift_norm=drift_norm, drift_angle_deg=angle, mixing_matrix=mixing)


def sample_complexity_curve(
    src_rows,
    tgt_rows,
    sizes,
    trials: int = 5,
    seed: int = 0,
    holdout: int | None = None,
    eps: float = 1e-8,
) -> list[dict]:
    """Held-out alignment gap as a function of calibration sample size.

    For each size N and trial, N source and N target rows are drawn
    from the calibration pools, alignment statistics are estimated on
    them, the operator is applied to the held-out source rows, and the
    centroid distance to the held-out target is recorded.  Returns one
    row per size with the per-trial gaps and their mean and standard
    deviation.  ``trials`` and every size must be at least 1.
    """
    src = as_matrix(src_rows).astype(np.float64, copy=False)
    tgt = as_matrix(tgt_rows).astype(np.float64, copy=False)
    sizes = [int(s) for s in sizes]
    if sorted(sizes) != sizes:
        raise ValueError("sizes must be ascending")
    if trials < 1 or min(sizes, default=0) < 1:
        raise ValueError(f"trials and every size must be >= 1, got trials={trials}, sizes={sizes}")
    rng = np.random.default_rng(seed)

    if holdout is None:
        holdout = min(src.shape[0], tgt.shape[0]) // 5
    if holdout < 2:
        raise DataFormatError("not enough rows to hold out a test split")
    perm_src = rng.permutation(src.shape[0])
    perm_tgt = rng.permutation(tgt.shape[0])
    held_src = src[perm_src[:holdout]]
    held_tgt = tgt[perm_tgt[:holdout]]
    pool_src = src[perm_src[holdout:]]
    pool_tgt = tgt[perm_tgt[holdout:]]
    pool = min(pool_src.shape[0], pool_tgt.shape[0])
    if sizes[-1] > pool:
        raise DataFormatError(
            f"holdout {holdout} leaves {pool} of {min(src.shape[0], tgt.shape[0])} rows for "
            f"calibration, fewer than the largest size {sizes[-1]}"
        )

    mu_held_tgt = held_tgt.mean(axis=0)
    table = []
    for size in sizes:
        gaps = []
        for _ in range(trials):
            pick_src = pool_src[rng.choice(pool_src.shape[0], size=size, replace=False)]
            pick_tgt = pool_tgt[rng.choice(pool_tgt.shape[0], size=size, replace=False)]
            stats = estimate_realign(stats_of(pick_src), stats_of(pick_tgt), pick_src, eps=eps)
            gaps.append(modality_gap(stats.apply(held_src).mean(axis=0), mu_held_tgt))
        gaps_arr = np.array(gaps)
        table.append(
            {
                "size": size,
                "gaps": gaps,
                "gap_mean": float(gaps_arr.mean()),
                "gap_std": float(gaps_arr.std(ddof=1)) if trials > 1 else 0.0,
            }
        )
    return table
