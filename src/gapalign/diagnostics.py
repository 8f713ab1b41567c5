"""Scalar and distributional quality metrics for alignment.

Includes centroid distance, sampled pairwise-cosine histograms with
Jensen-Shannon divergence, exact brute-force k-nearest-neighbor mixing
and overlap statistics, Monte Carlo measurement of the spurious
centroid shift caused by projecting anisotropic noise onto the sphere,
and a sample-complexity sweep for alignment calibration.

Every sampled metric takes an explicit seed and is deterministic under
it.  The histogram and kNN metrics never widen a whole input set: they
read float32 or float64 rows in place and widen to float64 one block or
tile at a time.  The cosine histogram gathers and scores its sampled
pairs ``_PAIR_BLOCK`` at a time, so its working memory is bounded by
that block size rather than by ``num_pairs x d``.  Nearest neighbors
use exact pairwise distances, formed in square tiles of ``_TILE`` rows
a side and merged into a running k nearest per row, with ties broken
toward the lower index; memory beyond the inputs is O(tile^2 + n k).
This is meant for desk-scale inputs (up to around 1e5 rows), not
approximate search.  The histogram and kNN metrics reject input with a
non-finite value by raising ``DataFormatError`` that names the first
such row.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, DegenerateInputError
from .io import as_matrix, row_blocks
from .moments import stats_of
from .realign import estimate_realign, substitution_operator

_PAIR_BLOCK = 1024  # sampled pairs gathered and scored at a time
# Rows per side of a kNN distance tile: its Gram, distances and candidate mask
# take 17 MiB however many rows the sets have.  On 8,000 pooled 768-d rows
# (k = 20, 2-core host) 512/768/1,024/1,536-row tiles took 1.30/1.20/1.23/1.30 s.
_TILE = 1024
_NO_INDEX = np.iinfo(np.int64).max  # pads a merge row past its candidates


@dataclass
class CosineHistogram:
    """Normalized histogram of sampled pairwise cosines on a fixed [-1, 1] grid."""

    bin_edges: np.ndarray
    masses: np.ndarray
    pair_count: int
    sampling_seed: int


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


def _finite_rows(rows, name: str) -> np.ndarray:
    """Return ``rows`` as a matrix in its own dtype, rejecting any non-finite row."""
    data = as_matrix(rows)
    for block in row_blocks(data.shape[0]):
        good = np.isfinite(data[block]).all(axis=1)
        if not good.all():
            raise DataFormatError(
                f"non-finite value in row {block.start + int(np.argmin(good))} of {name}")
    return data


def cosine_histogram(
    rows,
    num_pairs: int = 200_000,
    bins: int = 201,
    smoothing: bool = False,
    seed: int = 0,
) -> CosineHistogram:
    """Histogram the cosines of uniformly sampled distinct index pairs.

    Pairs (i, j) with i != j are drawn uniformly with a seeded
    generator, so the metric is reproducible and costs O(num_pairs)
    instead of O(N^2).  ``smoothing`` convolves the masses with a small
    triangular kernel (half-width 2 bins) and renormalizes.
    """
    data = _finite_rows(rows, "rows")
    n = data.shape[0]
    if n < 2:
        raise DataFormatError("need at least 2 rows to form pairs")
    if bins < 8:
        raise ValueError("use at least 8 bins")
    if num_pairs <= 0:
        raise ValueError(f"num_pairs must be positive, got {num_pairs}")
    norms = np.concatenate([np.linalg.norm(data[block].astype(np.float64, copy=False), axis=1)
                            for block in row_blocks(n)])
    if np.any(norms == 0):
        raise DegenerateInputError(f"zero-norm row {int(np.argmin(norms != 0))}")

    rng = np.random.default_rng(seed)
    i = rng.integers(0, n, size=num_pairs)
    j = (i + rng.integers(1, n, size=num_pairs)) % n

    edges = np.linspace(-1.0, 1.0, bins + 1)
    counts = np.zeros(bins, dtype=np.int64)
    for start in range(0, num_pairs, _PAIR_BLOCK):
        ii = i[start:start + _PAIR_BLOCK]
        jj = j[start:start + _PAIR_BLOCK]
        left = data[ii].astype(np.float64, copy=False)
        right = data[jj].astype(np.float64, copy=False)
        cos = np.einsum("ij,ij->i", left, right) / (norms[ii] * norms[jj])
        counts += np.histogram(np.clip(cos, -1.0, 1.0), bins=edges)[0]
    masses = counts / float(num_pairs)
    if smoothing:
        kernel = np.array([1.0, 2.0, 3.0, 2.0, 1.0])
        masses = np.convolve(masses, kernel / kernel.sum(), mode="same")
        masses = masses / masses.sum()
    return CosineHistogram(bin_edges=edges, masses=masses, pair_count=num_pairs,
                           sampling_seed=seed)


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


def _spans(n: int, size: int) -> list[tuple[int, int]]:
    """``(lo, hi)`` ranges of ``size`` rows covering ``range(n)`` in order.

    A trailing range narrower than 3 rows joins the one before it: BLAS
    multiplies operands 1 or 2 wide by other kernels, whose rounding
    differs from the wide product's.
    """
    spans, lo = [], 0
    while lo < n:
        hi = n if n - lo < size + 3 else lo + size
        spans.append((lo, hi))
        lo = hi
    return spans


def _widened(parts, lo: int, hi: int) -> np.ndarray:
    """Rows ``lo:hi`` of the row concatenation of ``parts``, as float64."""
    pieces, start = [], 0
    for part in parts:
        stop = start + part.shape[0]
        if lo < stop and start < hi:
            pieces.append(part[max(lo - start, 0):min(hi, stop) - start])
        start = stop
    if len(pieces) == 1:
        return pieces[0].astype(np.float64, copy=False)
    return np.concatenate(pieces, dtype=np.float64)


def _merge_tile(best_d, best_i, d2, col0: int, k: int, spare: np.ndarray):
    """Merge a distance tile into its rows' running k nearest.

    ``best_d`` and ``best_i`` hold each row's nearest so far in
    (distance, index) order.  ``d2`` holds the rows' distances to columns
    ``col0, col0 + 1, ...``, which come after every column merged before,
    so once a row holds k neighbors only an entry strictly nearer than its
    k-th can enter.  Until then the candidates are the entries at or below
    the row's k-th smallest in this tile, found by partitioning a copy in
    ``spare`` (``d2``'s shape, free to overwrite).  Of the row's neighbors
    and candidates, the first k by (distance, index) stay.
    """
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
    del hit
    row, col = np.divmod(flat, width)
    counts = np.bincount(row, minlength=rows)
    slot = have + np.arange(flat.size) - (np.cumsum(counts) - counts)[row]
    dist = np.full((rows, have + int(counts.max(initial=0))), np.inf)
    index = np.full(dist.shape, _NO_INDEX)
    dist[:, :have] = best_d
    index[:, :have] = best_i
    dist[row, slot] = d2[row, col]
    index[row, slot] = col0 + col
    keep = np.lexsort((index, dist), axis=1)[:, :min(k, have + width)]
    return np.take_along_axis(dist, keep, axis=1), np.take_along_axis(index, keep, axis=1)


def _neighbor_indices(points, k: int, chunk: int = _TILE) -> np.ndarray:
    """Exact k nearest neighbors of every row among all other rows.

    ``points`` is one matrix or a tuple of matrices read as their row
    concatenation; rows are widened to float64 one tile at a time, so no
    pooled copy is made.  Squared distances ``(|a|^2 + |b|^2) - 2 a.b``
    are formed in tiles between ranges of ``chunk`` rows (``_spans``).
    Each unordered pair of ranges is multiplied once: the tile serves the
    first range's rows and its transpose the second's, since float
    addition commutes and the BLAS product's transpose equals the
    swapped product (checked bit for bit on OpenBLAS 0.3.31).  Every row
    keeps a running k nearest in (distance, index) order, and each tile
    merges into it (``_merge_tile``); tiles reach a row in increasing
    column order.  Ties resolve to the lower index across tiles as
    within one, so the result equals the first k columns of a stable
    ``argsort`` of each full distance row.  Memory beyond the inputs is
    O(chunk^2 + n k).  Inputs must be finite.  Returns an (n, k) index
    array, nearest first.
    """
    parts = points if isinstance(points, tuple) else (points,)
    spans = _spans(sum(part.shape[0] for part in parts), chunk)
    sq = np.concatenate([np.einsum("ij,ij->i", block, block)
                         for block in (_widened(parts, lo, hi) for lo, hi in spans)])
    # the Gram and distance tiles reuse two buffers, so no tile is allocated twice
    buffers = np.empty((2, max(hi - lo for lo, hi in spans) ** 2))
    best = [(np.empty((hi - lo, 0)), np.empty((hi - lo, 0), dtype=np.int64)) for lo, hi in spans]
    for a, (lo_a, hi_a) in enumerate(spans):
        rows_a = _widened(parts, lo_a, hi_a)
        for b in range(a, len(spans)):
            lo_b, hi_b = spans[b]
            rows_b = rows_a if b == a else _widened(parts, lo_b, hi_b)
            shape = (hi_a - lo_a, hi_b - lo_b)
            gram, d2 = (buf[:shape[0] * shape[1]].reshape(shape) for buf in buffers)
            np.matmul(rows_a, rows_b.T, out=gram)
            gram *= 2.0
            np.add.outer(sq[lo_a:hi_a], sq[lo_b:hi_b], out=d2)
            d2 -= gram
            if b == a:
                np.fill_diagonal(d2, np.inf)
            # the Gram tile is spent, so its buffer is the merges' spare
            best[a] = _merge_tile(*best[a], d2, lo_b, k, spare=gram)
            if b != a:
                best[b] = _merge_tile(*best[b], d2.T, lo_a, k, spare=gram.reshape(shape[::-1]))
    return np.vstack([index for _, index in best])


def knn_mixing_rate(rows_a, rows_b, k: int = 20) -> float:
    """Mean fraction of cross-modality points among each point's k neighbors.

    Both sets are pooled, in place: neighbors are found over their row
    concatenation without copying it.  Around 0.5 for equal-size samples
    of the same distribution, near 0 for well-separated clouds.
    """
    a = _finite_rows(rows_a, "rows_a")
    b = _finite_rows(rows_b, "rows_b")
    if a.shape[1] != b.shape[1]:
        raise DataFormatError("sets have different dimensionalities")
    n = a.shape[0] + b.shape[0]
    if not 0 < k < n:
        raise ValueError(f"k={k} must be positive and smaller than the pooled size {n}")
    nn = _neighbor_indices((a, b), k)
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
    before = _finite_rows(rows_before, "rows_before")
    after = _finite_rows(rows_after, "rows_after")
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
    deviation.
    """
    src = as_matrix(src_rows).astype(np.float64, copy=False)
    tgt = as_matrix(tgt_rows).astype(np.float64, copy=False)
    sizes = [int(s) for s in sizes]
    if sorted(sizes) != sizes:
        raise ValueError("sizes must be ascending")
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
    if sizes[-1] > min(pool_src.shape[0], pool_tgt.shape[0]):
        raise DataFormatError(
            f"largest size {sizes[-1]} exceeds the calibration pool "
            f"({min(pool_src.shape[0], pool_tgt.shape[0])} rows)"
        )

    mu_held_tgt = held_tgt.mean(axis=0)
    table = []
    for size in sizes:
        gaps = []
        for _ in range(trials):
            pick_src = pool_src[rng.choice(pool_src.shape[0], size=size, replace=False)]
            pick_tgt = pool_tgt[rng.choice(pool_tgt.shape[0], size=size, replace=False)]
            stats = estimate_realign(stats_of(pick_src), stats_of(pick_tgt), pick_src, eps=eps)
            aligned = substitution_operator(held_src, stats)
            gaps.append(modality_gap(aligned.data.mean(axis=0), mu_held_tgt))
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
