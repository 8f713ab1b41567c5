"""Scalar and distributional quality metrics for alignment.

Includes centroid distance, sampled pairwise-cosine histograms with
Jensen-Shannon divergence, exact brute-force k-nearest-neighbor mixing
and overlap statistics, Monte Carlo measurement of the spurious
centroid shift caused by projecting anisotropic noise onto the sphere,
and a sample-complexity sweep for alignment calibration.

Every sampled metric takes an explicit seed and is deterministic under
it.  The cosine histogram gathers and scores its sampled pairs
``_PAIR_BLOCK`` at a time, so its working memory is bounded by that
block size rather than by ``num_pairs x d``.  Nearest neighbors use
exact pairwise distances with ties broken toward the lower index; this
is meant for desk-scale inputs (up to around 1e5 rows), not approximate
search.  The histogram and kNN metrics reject input with a non-finite
value by raising ``DataFormatError`` that names the first such row.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, DegenerateInputError
from .io import as_matrix
from .moments import stats_of
from .realign import estimate_realign, substitution_operator

_PAIR_BLOCK = 1024  # sampled pairs gathered and scored at a time


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
    """Return ``rows`` as a float64 matrix, rejecting any non-finite row."""
    data = as_matrix(rows).astype(np.float64, copy=False)
    good = np.isfinite(data).all(axis=1)
    if not good.all():
        raise DataFormatError(f"non-finite value in row {int(np.argmin(good))} of {name}")
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
    norms = np.linalg.norm(data, axis=1)
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
        cos = np.einsum("ij,ij->i", data[ii], data[jj]) / (norms[ii] * norms[jj])
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


def _neighbor_indices(points: np.ndarray, k: int, chunk: int = 512) -> np.ndarray:
    """Exact k nearest neighbors of every point among all others.

    Squared distances are computed ``chunk`` rows at a time.  In each
    tile, ``argpartition`` selects k candidates per row and they are
    ordered by (distance, index).  Ties resolve to the lower index: a
    row with more than k entries at or below its k-th distance re-sorts
    all of those entries stably, so the result equals the first k
    columns of a stable ``argsort`` of the row.  Inputs must be finite.
    Returns an (n, k) index array, nearest first.
    """
    n = points.shape[0]
    sq = np.einsum("ij,ij->i", points, points)
    out = np.empty((n, k), dtype=np.int64)
    for start in range(0, n, chunk):
        stop = min(start + chunk, n)
        block = points[start:stop]
        # (|a|^2 + |b|^2) - 2 a.b in two tile buffers: with the four temporaries of one
        # expression, the peak RSS moved by a tile with the allocator's history
        d2 = np.add.outer(sq[start:stop], sq)
        gram = block @ points.T
        gram *= 2.0
        d2 -= gram
        del gram
        d2[np.arange(stop - start), np.arange(start, stop)] = np.inf
        cand = np.argpartition(d2, k - 1, axis=1)[:, :k]
        cand_d2 = np.take_along_axis(d2, cand, axis=1)
        order = np.lexsort((cand, cand_d2), axis=1)
        nearest = np.take_along_axis(cand, order, axis=1)
        kth = np.take_along_axis(cand_d2, order[:, -1:], axis=1)
        for row in np.flatnonzero((d2 <= kth).sum(axis=1) > k):
            ties = np.flatnonzero(d2[row] <= kth[row])
            nearest[row] = ties[np.argsort(d2[row, ties], kind="stable")[:k]]
        out[start:stop] = nearest
    return out


def knn_mixing_rate(rows_a, rows_b, k: int = 20) -> float:
    """Mean fraction of cross-modality points among each point's k neighbors.

    Both sets are pooled; around 0.5 for equal-size samples of the same
    distribution, near 0 for well-separated clouds.
    """
    a = _finite_rows(rows_a, "rows_a")
    b = _finite_rows(rows_b, "rows_b")
    if a.shape[1] != b.shape[1]:
        raise DataFormatError("sets have different dimensionalities")
    pool = np.vstack([a, b])
    if not 0 < k < pool.shape[0]:
        raise ValueError(f"k={k} must be positive and smaller than the pooled size {pool.shape[0]}")
    labels = np.concatenate([np.zeros(a.shape[0]), np.ones(b.shape[0])])
    nn = _neighbor_indices(pool, k)
    other = labels[nn] != labels[:, None]
    return float(other.mean())


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
        # adding 0.0 turns -0.0 into 0.0, so rows equal as numbers have equal bytes
        if len({row.tobytes() for row in arr + 0.0}) != n:
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
