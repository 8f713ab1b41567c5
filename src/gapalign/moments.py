"""Streaming estimation of means, traces, and covariances.

Accumulation always happens in float64 regardless of the input dtype:
single-precision accumulators hit an irreducible error floor once sample
counts reach the hundreds of thousands, which is far above the precision
needed for statistical alignment.

The state is the row count, the column sum, and the centred second
moments: the sum of squared distances to the mean and, optionally, the
scatter matrix about the mean.  A batch is folded one row block
(``io.row_blocks``) at a time.  A ``fill(rows, out)`` producer writes
each block into one reusable float64 buffer, one piece of at most
``io._widest_block`` rows per call; the block is checked for non-finite
values, centred about its own mean and merged into the state with the
pairwise update of Chan, Golub & LeVeque ("Algorithms for computing the
sample variance", Am. Stat. 1983).  Centred moments keep their precision
when the mean lies far from the origin, where raw moments lose it to the
cancellation in sum(x x^T) / n - mean mean^T.  Accumulators merge with
the same update, and moments that overflow float64, in a call or in a
merge, are refused before they are stored.  Memory is one ``_BLOCK``
float64 block, plus what a producer needs for one piece (a file source's
read, a normalization), plus O(d^2), whatever the number of rows.

Every ``accumulate`` call continues one walk: the column sum adds the sums
of the pieces of ``row_blocks(n)`` in order (``_row_sums``), so calls over
the batches of ``row_blocks(n, k * _BLOCK)`` give bitwise the moments of
one call over all n rows (``stats`` reads its file so), and the round-off
grows with n / 1,024 additions, not n.  ``_mean_of`` sums the same pieces
for passes that need only a mean (the mean gap, the drift).
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, DegenerateInputError
from .io import (_ROW_BLOCK, Payload, _check_int, _checked, _finite, _widest_block, as_matrix,
                 row_blocks)

# Rows per block of the moment kernel.  The block's scatter GEMM dominates
# its cost.  stats_of on 50k x 768 float32 rows (2-core host, best of 5)
# took 0.70 s with covariance and 0.10 s without at 1,024 rows, 0.52 s and
# 0.09 s at 4,096, and 0.50 s and 0.14 s at 8,192: 4,096 is near the best of both.
_BLOCK = 4096


def _row_sums(n: int, dims: int, fill, size: int = _ROW_BLOCK, total=None):
    """``(rows, block, total)`` for each slice ``rows`` of ``row_blocks(n, size)``.

    ``block`` is a float64 view of one reusable buffer, filled one piece of
    ``row_blocks(k)`` (at most ``_widest_block`` rows) at a time:
    ``fill(piece, out)`` writes the rows the global slice ``piece`` names
    into ``out``, so a producer's own temporaries are a piece wide however
    wide ``size`` is.  ``total`` is the column sum of every row up to the
    block's end, after the starting ``total`` if one is given: each piece
    is summed (numpy's axis-0 sum) as it is filled, and the piece sums are
    added to the total in order.  For a ``size`` that is a multiple of
    ``_ROW_BLOCK`` the pieces are the slices of ``row_blocks(n)``, so
    ``total`` does not depend on ``size``.
    """
    buf = np.empty((_widest_block(n, size), dims))
    for rows in row_blocks(n, size):
        block = buf[:rows.stop - rows.start]
        for piece in row_blocks(block.shape[0]):
            fill(slice(rows.start + piece.start, rows.start + piece.stop), block[piece])
            part = block[piece].sum(axis=0)
            total = part if total is None else total + part
        yield rows, block, total


def _mean_of(n: int, dims: int, fill) -> np.ndarray:
    """The mean of n rows of ``dims`` values that ``fill(rows, out)`` writes (``_row_sums``)."""
    if n < 1:
        raise DegenerateInputError("cannot take the mean of 0 rows")
    for _, _, total in _row_sums(n, dims, fill):
        pass
    return total / n


@dataclass
class ModalityStats(Payload, kind="modality_stats"):
    """Finalized first/second moments of one embedding distribution.

    ``trace`` is the expected squared distance to the mean, which equals
    tr(covariance) when the covariance is tracked.  Covariance uses the
    population convention (divide by n).  Construction checks that the
    mean is a finite vector, the trace finite and non-negative, ``n`` an
    integer >= 1 and the covariance absent or a finite d x d matrix.
    """

    mean: np.ndarray
    trace: float
    n: int
    covariance: np.ndarray | None = None

    def __post_init__(self):
        self.mean = _checked("mean", self.mean, (None,))
        self.trace = float(_checked("trace", self.trace, ()))
        if self.trace < 0.0:
            raise DataFormatError(f"trace {self.trace} is negative")
        _check_int("n", self.n, 1)
        if self.covariance is not None:
            self.covariance = _checked("covariance", self.covariance, (self.dims, self.dims))

    @property
    def dims(self) -> int:
        return self.mean.shape[0]


class MomentAccumulator:
    """Single-writer accumulator of centred moments in float64.

    State: ``n`` rows, their column ``sum``, ``sumsq_norm`` (the sum of
    squared distances to the current mean) and, when tracked, ``scatter``
    (the sum of outer products of the centred rows).

    Parameters
    ----------
    dims : int
        Embedding dimensionality.
    track_cov : bool
        Also accumulate the d x d scatter matrix.  Disable for very
        large d where only mean and trace are needed.
    """

    def __init__(self, dims: int, track_cov: bool = True):
        if dims < 1:
            raise ValueError("dims must be >= 1")
        self.dims = dims
        self.track_cov = track_cov
        self.n = 0
        self.sum = np.zeros(dims, dtype=np.float64)
        self.sumsq_norm = 0.0
        self.scatter = np.zeros((dims, dims), dtype=np.float64) if track_cov else None

    def state_nbytes(self) -> int:
        """Byte size of the numeric state; constant as n grows."""
        total = self.sum.nbytes + 8 + 8
        if self.scatter is not None:
            total += self.scatter.nbytes
        return total

    def accumulate(self, batch) -> "MomentAccumulator":
        """Continue the walk over a batch of rows (``accumulate_from``).

        The batch is left unmodified; its values are widened to float64
        one block at a time before any arithmetic.
        """
        rows = as_matrix(batch)
        if rows.shape[1] != self.dims:
            raise DataFormatError(f"batch has {rows.shape[1]} dims, accumulator expects {self.dims}")
        return self.accumulate_from(rows.shape[0],
                                    lambda block, out: np.copyto(out, rows[block]))

    def accumulate_from(self, n: int, fill) -> "MomentAccumulator":
        """Continue the walk over n more rows that ``fill(rows, out)`` writes piece by piece.

        ``out`` is a float64 (k x d) view of the kernel's block buffer, k at
        most ``io._widest_block(n)``; ``fill`` must write the k input rows
        the slice ``rows`` names into it.  ``rows`` counts from the first of
        the n rows, so a producer names a bad row by its index in the whole
        input.  Producers of float64 rows write straight into the buffer,
        without a copy of their own.  Each block of ``row_blocks(n, _BLOCK)``
        is folded into a shallow copy of the state, carrying its column sum
        on (``_row_sums``), and ``_commit`` stores the result, so a non-finite
        row, or moments that overflow float64, leave this one unchanged.
        """
        state = copy.copy(self)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused by _commit
            for rows, block, total in _row_sums(n, self.dims, fill, _BLOCK,
                                                self.sum if self.n else None):
                k = block.shape[0]
                # a sum of finite values is finite unless it overflows, so only
                # a non-finite sum needs the per-row search
                if not np.isfinite(total).all():
                    _finite(block, "non-finite value in batch row {}", rows.start)
                mean = block.sum(axis=0) / k
                block -= mean
                scatter = block.T @ block if self.scatter is not None else None
                delta = mean - state.sum / state.n if state.n else None
                state.sumsq_norm, state.scatter = state._merged(
                    k, delta, float(np.vdot(block, block)), scatter)
                state.n, state.sum = state.n + k, total
        return self._commit(state.n, state.sum, state.sumsq_norm, state.scatter)

    def _merged(self, n_b: int, delta, sumsq_b: float, scatter_b):
        """Chan et al.'s update: the centred moments of these rows and n_b more.

        ``delta`` is the new rows' mean minus the current mean, None if
        either side has no rows.  Returns the merged ``(sumsq_norm,
        scatter)`` and assigns nothing; the merged scatter is built in
        ``scatter_b``, which the caller gives up.
        """
        sumsq = self.sumsq_norm + sumsq_b
        if self.scatter is not None:
            scatter_b += self.scatter
        if delta is not None:
            weight = self.n * n_b / (self.n + n_b)
            sumsq += weight * float(delta @ delta)
            if self.scatter is not None:
                outer = np.outer(delta, delta)
                outer *= weight
                scatter_b += outer
        return sumsq, scatter_b

    def _commit(self, n: int, total, sumsq: float, scatter) -> "MomentAccumulator":
        """Store the moments of n rows; ones that overflow float64 are refused, the state kept."""
        if not (math.isfinite(sumsq) and np.isfinite(total).all()
                and (scatter is None or np.isfinite(scatter).all())):
            raise DegenerateInputError(f"moments of {n} rows overflow float64")
        if scatter is not None:
            # copied into the state's own array: taking the merged one instead left
            # the heap 3.6 MB larger at the peak of `stats` on 768-d rows
            np.copyto(self.scatter, scatter)
        self.n, self.sum, self.sumsq_norm = n, total, sumsq
        return self

    def merge(self, other: "MomentAccumulator") -> "MomentAccumulator":
        """Return a new accumulator equivalent to concatenating both inputs (``_commit``)."""
        if self.dims != other.dims:
            raise DataFormatError("cannot merge accumulators with different dims")
        if self.track_cov != other.track_cov:
            raise DataFormatError("cannot merge accumulators with different track_cov flags")
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused by _commit
            delta = other.sum / other.n - self.sum / self.n if self.n and other.n else None
            sumsq, scatter = self._merged(other.n, delta, other.sumsq_norm,
                                          copy.copy(other.scatter))
            total = self.sum + other.sum
        return MomentAccumulator(self.dims, self.track_cov)._commit(self.n + other.n, total,
                                                                     sumsq, scatter)

    def finalize(self) -> ModalityStats:
        """Convert the centred moments to mean/trace/covariance.

        Requires n >= 1; the covariance path additionally requires
        n >= 2.
        """
        if self.n < 1:
            raise DegenerateInputError("cannot take the mean of 0 rows")
        cov = None
        if self.scatter is not None:
            if self.n < 2:
                raise DegenerateInputError("covariance needs at least 2 samples")
            cov = self.scatter / self.n
        return ModalityStats(mean=self.sum / self.n, trace=self.sumsq_norm / self.n, n=self.n,
                             covariance=cov)


def stats_of(rows, track_cov: bool = False) -> ModalityStats:
    """One-shot moments of an in-memory sample."""
    rows = as_matrix(rows)
    return MomentAccumulator(rows.shape[1], track_cov=track_cov).accumulate(rows).finalize()


def shrink(cov: np.ndarray, intensity: float) -> np.ndarray:
    """Shrink a covariance toward the isotropic matrix with equal trace.

    Returns (1 - intensity) * cov + intensity * (tr(cov)/d) * I.  The
    trace is preserved exactly up to round-off.
    """
    if not 0.0 <= intensity <= 1.0:
        raise ValueError(f"shrinkage intensity must be in [0, 1], got {intensity}")
    cov = np.asarray(cov, dtype=np.float64)
    d = cov.shape[0]
    if cov.shape != (d, d):
        raise DataFormatError("covariance must be square")
    return (1.0 - intensity) * cov + intensity * (np.trace(cov) / d) * np.eye(d)


class CompensatedMean:
    """Reference mean estimator for precision checks.

    Per-batch column sums are computed exactly with ``math.fsum`` and
    combined across batches with Neumaier-compensated summation, so the
    result is exact up to a single final rounding per batch boundary.
    Used as the oracle when quantifying accumulator round-off.
    """

    def __init__(self, dims: int):
        self.n = 0
        self._sum = np.zeros(dims, dtype=np.float64)
        self._comp = np.zeros(dims, dtype=np.float64)

    def accumulate(self, batch) -> "CompensatedMean":
        rows = as_matrix(batch).astype(np.float64, copy=False)
        part = np.array([math.fsum(col) for col in rows.T])
        total = self._sum + part
        big_first = np.abs(self._sum) >= np.abs(part)
        self._comp += np.where(big_first, (self._sum - total) + part, (part - total) + self._sum)
        self._sum = total
        self.n += rows.shape[0]
        return self

    def mean(self) -> np.ndarray:
        if self.n < 1:
            raise DegenerateInputError("no samples accumulated")
        return (self._sum + self._comp) / self.n


class Float32ReplayMean:
    """Deliberately single-precision mean accumulator.

    Adds each batch's float32 sum to a float32 running total, on purpose,
    where ``MomentAccumulator`` sums in float64, 1,024 rows at a time.  Only
    demonstrates the precision floor; never use it for real statistics.
    """

    def __init__(self, dims: int):
        self.n = 0
        self._sum = np.zeros(dims, dtype=np.float32)

    def accumulate(self, batch) -> "Float32ReplayMean":
        rows = as_matrix(batch).astype(np.float32)
        self._sum = self._sum + rows.sum(axis=0, dtype=np.float32)
        self.n += rows.shape[0]
        return self

    def mean(self) -> np.ndarray:
        if self.n < 1:
            raise DegenerateInputError("no samples accumulated")
        return self._sum / np.float32(self.n)
