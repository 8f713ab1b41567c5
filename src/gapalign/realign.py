"""Training-free statistical alignment of one embedding distribution to another.

The main operator is a three-step pipeline acting on unit-normalized
source embeddings:

1. anchor: recenter the source mean onto the target mean;
2. trace: rescale centered residuals by s = sqrt(T_tgt / (T_src + eps))
   so the global variance matches, then project to the unit sphere;
3. centroid: subtract the post-projection drifted mean (calibrated once
   and frozen into the stats) and re-anchor onto the target mean, then
   re-normalize.

Scalar rescaling preserves the source covariance shape exactly, which
is the point: the spectrum, eigenvectors, and condition number of the
source survive the mapping.  A blockwise variant matches per-subspace
covariances with whitening-coloring transforms instead; it aligns
second moments more aggressively at the price of amplifying noise in
weak directions, so its inverse square roots are floored and flagged.

Every operator maps rows to float64 rows with ``apply(rows, first_row=0)``,
naming a norm collapse or overflow at its row counted from ``first_row``.
Rows are an (N, d) array or a row source; a single (d,) row is one row of
one, so every operator maps it to a (1, d) array.  Each operator's row map
up to its last unit-norm projection is its ``_shape(rows, out, at)``,
which calibration and apply share; one walker, ``_mapped``, serves every
``apply`` and adds the centroid stage to realign and blockwise.  The noise
of ``C3Baseline`` is one seeded stream its ``apply`` calls continue.

Calibration and application both run in row blocks (``io.row_blocks``)
and widen float32 input block by block, so each needs O(block * d + d^2)
memory beyond its rows and its output, whether in memory or in a file:
a covariance pass holds the moment kernel's one ``moments._BLOCK``
float64 block, which it fills in pieces of at most ``io._widest_block``
rows, and every other pass holds pieces of that size.  A normalization
squares ``_NORM_ROWS`` rows at a time and divides its rows in place.
Calibration slices a row source such as ``io.EmbeddingFile`` one block
at a time, as it slices an array, and the file's rows are read block by
block.  Apply maps every row block on its own, so applying to
consecutive blocks and writing each output block as it comes, as
``gapalign align`` does, holds no whole input or output.  Each
calibration pass recomputes the intermediate rows it needs (the first
normalization, the anchored rows) one block at a time instead of
holding them for the whole set.  Covariances come from the centred
moment kernel in ``moments``, and drift means from ``moments._mean_of``
over ``_shape``, equal bitwise to a whole-array mean of the same rows.
Blockwise is applied as one composed d x d map, derived once from the
stored per-block transforms and bases; its square roots come from
``spectral.sym_apply``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataFormatError, DegenerateInputError
from .frame import ReferenceFrame
from .io import Payload, _check_int, _checked, as_matrix, row_blocks
from .moments import ModalityStats, MomentAccumulator, _mean_of
from .spectral import sym_apply

_COLLAPSE = 1e-12
_NORM_ROWS = 128  # rows whose squares are formed at a time, so no block-sized temporary


def _normalize_in_place(rows: np.ndarray, stage: str, first_row: int) -> np.ndarray:
    """Divide each row of a float64 matrix by its norm in place and return ``rows``.

    ``first_row`` is the index of ``rows[0]`` in the caller's input, so a
    norm that collapses below 1e-12 or overflows to inf is reported at its
    row in the whole input.  Each row's squared norm is the same row-wise
    reduction whatever the piece of ``_NORM_ROWS`` rows it is formed in, so
    batch and single-row paths agree bitwise.
    """
    norms = np.empty(rows.shape[0])
    with np.errstate(over="ignore"):  # an infinite norm is refused below
        for piece in row_blocks(rows.shape[0], _NORM_ROWS):
            part = rows[piece]
            np.sqrt((part * part).sum(axis=1), out=norms[piece])
    bad = (norms < _COLLAPSE) | (norms == np.inf)
    if bad.any():
        i = int(np.argmax(bad))
        what = "overflowed" if norms[i] == np.inf else f"collapsed below {_COLLAPSE}"
        raise DegenerateInputError(f"{stage}: norm {what} at row {first_row + i}")
    rows /= norms[:, None]
    return rows


def _affine_into(rows, mu_src, scale, mu_tgt, out: np.ndarray) -> np.ndarray:
    """out = mu_tgt + scale * (rows - mu_src), widening ``rows`` to float64 on the fly."""
    np.subtract(rows, mu_src, out=out, dtype=np.float64)
    out *= scale
    out += mu_tgt
    return out


def _anchored(rows, mu_src, mu_tgt, out: np.ndarray, at: int) -> np.ndarray:
    """The anchor step: the mean shift at unit scale into ``out``, then each row made unit."""
    return _normalize_in_place(_affine_into(rows, mu_src, 1.0, mu_tgt, out),
                               "anchor normalization", at)


def _mapped(rows, op, first_row: int) -> np.ndarray:
    """``op._shape`` on each row block, then step 3 if ``op`` carries a ``mu_drift``."""
    rows = as_matrix(rows)
    if rows.shape[1] != op.dims:
        raise DataFormatError(f"rows have {rows.shape[1]} dims, the operator expects {op.dims}")
    out = np.empty((rows.shape[0], op.dims))
    drift = getattr(op, "mu_drift", None)
    for block in row_blocks(rows.shape[0]):
        at = first_row + block.start
        shaped = op._shape(rows[block], out[block], at)
        if drift is not None:
            shaped -= drift
            shaped += op.mu_tgt
            _normalize_in_place(shaped, "centroid-stage normalization", at)
    return out


@dataclass
class AlignmentStats(Payload, kind="alignment_stats"):
    """Frozen calibration of the three-step operator.

    ``scale`` is sqrt(trace_tgt / (trace_src + eps)); ``mu_drift`` is
    the mean of the calibration outputs after the first normalization,
    estimated once and reused for every subsequent sample.
    """

    mu_src: np.ndarray
    mu_tgt: np.ndarray
    trace_src: float
    trace_tgt: float
    scale: float
    eps: float
    mu_drift: np.ndarray
    calib_n: int

    def __post_init__(self):
        self.mu_src = _checked("mu_src", self.mu_src, (None,))
        self.mu_tgt = _checked("mu_tgt", self.mu_tgt, (self.dims,))
        self.mu_drift = _checked("mu_drift", self.mu_drift, (self.dims,))
        for name in ("trace_src", "trace_tgt", "scale", "eps"):
            setattr(self, name, float(_checked(name, getattr(self, name), ())))
        if self.eps < 0:  # the range estimate_realign fits with
            raise DataFormatError(f"eps must be >= 0, got {self.eps}")
        _check_int("calib_n", self.calib_n, 1)
        with np.errstate(all="ignore"):  # a negative or zero denominator fails the check below
            expected = np.sqrt(np.divide(self.trace_tgt, self.trace_src + self.eps))
        if not np.isclose(self.scale, expected, rtol=1e-12, atol=0.0):
            raise DataFormatError("scale is inconsistent with the stored traces")
        if np.linalg.norm(self.mu_drift) > 1.0 + 1e-9:
            raise DataFormatError("mu_drift longer than 1; not a mean of unit vectors")

    @property
    def dims(self) -> int:
        return self.mu_src.shape[0]

    def apply(self, rows, first_row: int = 0) -> np.ndarray:
        """``substitution_operator`` on ``rows``, as a float64 array."""
        return substitution_operator(rows, self, first_row)

    def _shape(self, rows, out: np.ndarray, at: int) -> np.ndarray:
        """Steps 1-2 into ``out``, then each row made unit: the rows ``mu_drift`` is the mean of."""
        return _normalize_in_place(_affine_into(rows, self.mu_src, self.scale, self.mu_tgt, out),
                                   "affine-stage normalization", at)


def affine_align(rows, stats: AlignmentStats) -> np.ndarray:
    """Steps 1-2 only: mu_tgt + scale * (rows - mu_src), no normalization."""
    return _affine_into(rows, stats.mu_src, stats.scale, stats.mu_tgt, np.empty(np.shape(rows)))


def estimate_realign(
    stats_src: ModalityStats,
    stats_tgt: ModalityStats,
    calib_src,
    eps: float = 1e-8,
) -> AlignmentStats:
    """Calibrate the operator from per-modality moments plus source samples.

    Covariances are not needed: the scale uses traces only.  The
    calibration sample is pushed through the anchor/trace steps and the
    first spherical projection; its mean becomes the frozen drift
    correction.  Roughly 1e4 calibration samples are enough for the
    drift estimate to stabilize.  ``eps`` must be finite and >= 0.
    """
    if not 0 <= eps < np.inf:
        raise ValueError(f"eps must be finite and non-negative, got {eps}")
    calib = as_matrix(calib_src)
    if calib.shape[0] == 0:
        raise DegenerateInputError("empty calibration set")
    if calib.shape[1] != stats_src.dims or stats_src.dims != stats_tgt.dims:
        raise DataFormatError("dimension mismatch between stats and calibration set")
    stats = AlignmentStats(
        mu_src=stats_src.mean,
        mu_tgt=stats_tgt.mean,
        trace_src=stats_src.trace,
        trace_tgt=stats_tgt.trace,
        scale=float(np.sqrt(stats_tgt.trace / (stats_src.trace + eps))),
        eps=eps,
        mu_drift=np.zeros(stats_src.dims),
        calib_n=calib.shape[0],
    )
    stats.mu_drift = _mean_of(calib.shape[0], stats.dims,
                              lambda block, out: stats._shape(calib[block], out, block.start))
    return stats


def substitution_operator(source_set, stats: AlignmentStats, first_row: int = 0) -> np.ndarray:
    """The three steps on every row of ``source_set``, as a float64 array in the same row order.

    The output rows are unit-norm.  A norm that collapses below 1e-12 or
    overflows raises ``DegenerateInputError`` naming the stage and the row,
    counted from ``first_row``.
    """
    return _mapped(source_set, stats, first_row)


@dataclass
class C3Baseline:
    """Centroid alignment plus isotropic Gaussian noise, then normalization; not persisted.

    The C^3 baseline of Zhang et al. (ICLR 2024); ``sigma=0`` is anchor-only.
    The noise is one Philox stream keyed by ``seed``: consecutive ``apply``
    calls continue it, so blocked calls give the rows of one whole call.
    """

    mu_src: np.ndarray
    mu_tgt: np.ndarray
    sigma: float = 0.04
    seed: int = 0
    rng: np.random.Generator = field(init=False, repr=False)

    def __post_init__(self):
        if not (np.isfinite(self.sigma) and self.sigma >= 0):
            raise ValueError(f"sigma must be finite and non-negative, got {self.sigma}")
        self.mu_src = _checked("mu_src", self.mu_src, (None,))
        self.mu_tgt = _checked("mu_tgt", self.mu_tgt, (self.dims,))
        self.rng = np.random.Generator(np.random.Philox(key=self.seed))

    @property
    def dims(self) -> int:
        return self.mu_src.shape[0]

    def apply(self, rows, first_row: int = 0) -> np.ndarray:
        return _mapped(rows, self, first_row)

    def _shape(self, rows, out: np.ndarray, at: int) -> np.ndarray:
        """The anchor step, with the next noise of the stream added before the projection."""
        if self.sigma == 0:
            return _anchored(rows, self.mu_src, self.mu_tgt, out, at)
        _affine_into(rows, self.mu_src, 1.0, self.mu_tgt, out)
        out += self.sigma * self.rng.standard_normal(size=out.shape)
        return _normalize_in_place(out, "noise-stage normalization", at)


@dataclass
class BlockwiseStats(Payload, kind="blockwise_stats"):
    """Calibrated per-subspace whitening-coloring operator.

    ``t_in`` (r x r) and ``t_out`` ((d-r) x (d-r)) act in the frame's
    coordinates; ``basis_out`` is the deterministic complement basis
    used for the out-of-subspace block.  ``floored`` records that the
    source block spectrum hit the eigenvalue floor during calibration,
    the documented failure mode of aggressive covariance matching.

    ``operator`` is both block transforms composed in ambient
    coordinates, B t_in^T B^T + C t_out^T C^T for the frame basis B and
    C = ``basis_out``, so a row maps through one d x d product.  It is
    derived on construction and not persisted.
    """

    frame: ReferenceFrame
    basis_out: np.ndarray
    t_in: np.ndarray
    t_out: np.ndarray
    mu_src: np.ndarray
    mu_tgt: np.ndarray
    mu_drift: np.ndarray
    eig_floor: float
    calib_n: int
    floored: bool = False
    operator: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        d, r = self.frame.dims, self.frame.rank
        self.basis_out = _checked("basis_out", self.basis_out, (d, d - r))
        self.t_in = _checked("t_in", self.t_in, (r, r))
        self.t_out = _checked("t_out", self.t_out, (d - r, d - r))
        self.mu_src = _checked("mu_src", self.mu_src, (d,))
        self.mu_tgt = _checked("mu_tgt", self.mu_tgt, (d,))
        self.mu_drift = _checked("mu_drift", self.mu_drift, (d,))
        self.eig_floor = float(_checked("eig_floor", self.eig_floor, ()))
        if not 0 <= self.eig_floor <= 1:  # the range estimate_blockwise fits with
            raise DataFormatError(f"eig_floor must be in [0, 1], got {self.eig_floor}")
        _check_int("calib_n", self.calib_n, 1)
        if not isinstance(self.floored, bool):
            raise DataFormatError(f"floored must be a bool, got {self.floored!r}")
        basis, comp = self.frame.basis, self.basis_out
        self.operator = basis @ self.t_in.T @ basis.T + comp @ self.t_out.T @ comp.T

    @property
    def dims(self) -> int:
        return self.frame.dims

    def apply(self, rows, first_row: int = 0) -> np.ndarray:
        """``apply_blockwise`` on ``rows``."""
        return apply_blockwise(rows, self, first_row)

    def _shape(self, rows, out: np.ndarray, at: int) -> np.ndarray:
        """The anchor step into a block-sized scratch, then ``operator`` into ``out``, unit."""
        unit = _anchored(rows, self.mu_src, self.mu_tgt, np.empty(out.shape), at)
        return _normalize_in_place(np.matmul(unit, self.operator, out=out),
                                   "block-transform normalization", at)


def _floored_invsqrt(cov: np.ndarray, eig_floor: float):
    """Inverse symmetric square root with a relative eigenvalue floor."""
    floored = False

    def floored_inverse_root(lam):
        nonlocal floored
        lam = np.maximum(lam, 0.0)
        if lam[0] <= 0:
            raise DegenerateInputError("block covariance is zero; cannot whiten")
        floor = eig_floor * lam[0]
        floored = bool(np.any(lam < floor))
        return 1.0 / np.sqrt(np.maximum(lam, floor))

    return sym_apply(cov, floored_inverse_root), floored


def estimate_blockwise(
    frame: ReferenceFrame,
    stats_src: ModalityStats,
    stats_tgt: ModalityStats,
    calib_src,
    eig_floor: float = 1e-6,
) -> BlockwiseStats:
    """Calibrate per-block whitening-coloring transforms in a frozen frame.

    ``stats_src`` and ``stats_tgt`` are the moments of the source and
    target calibration sets, as for ``estimate_realign``; the target's
    must carry its covariance (``stats_of(rows, track_cov=True)``, the
    moments a frame is built from).  The source rows ``calib_src`` are
    anchor-aligned (mean shift plus normalization) first; one centred
    covariance of the anchored source and the target covariance are
    projected onto the frame basis and its complement, and each block
    transform is the target square root times the floored source inverse
    square root.  The drift correction is then calibrated exactly as in
    the scalar operator.  Hitting the floor is reported via ``floored``
    and a warning rather than an exception: the output stays finite.  The
    anchored rows are recomputed block by block in the covariance pass
    and in the drift pass, never held for the whole set.  ``eig_floor``
    must be in [0, 1].
    """
    if not 0 <= eig_floor <= 1:
        raise ValueError(f"eig_floor must be finite and in [0, 1], got {eig_floor}")
    src = as_matrix(calib_src)
    if src.shape[0] == 0:
        raise DegenerateInputError("empty calibration set")
    if stats_tgt.covariance is None:
        raise DataFormatError("blockwise calibration needs the target covariance")
    if {src.shape[1], stats_src.dims, stats_tgt.dims} != {frame.dims}:
        raise DataFormatError("calibration sets do not match the frame dimension")
    r, d = frame.rank, frame.dims
    n = src.shape[0]
    if n <= max(r, d - r):
        warnings.warn("calibration set smaller than block size; covariances will be singular")

    mu_src, mu_tgt, cov_tgt = stats_src.mean, stats_tgt.mean, stats_tgt.covariance
    cov_src = MomentAccumulator(d).accumulate_from(
        n, lambda block, out: _anchored(src[block], mu_src, mu_tgt, out, block.start)
    ).finalize().covariance
    basis_out = frame.complement_basis()

    def block_transform(basis):
        invsqrt, floored = _floored_invsqrt(basis.T @ cov_src @ basis, eig_floor)
        return sym_sqrt_of(basis.T @ cov_tgt @ basis) @ invsqrt, floored

    t_in, floored_in = block_transform(frame.basis)
    if d - r > 0:
        t_out, floored_out = block_transform(basis_out)
    else:
        t_out, floored_out = np.zeros((0, 0)), False
    floored = floored_in or floored_out
    if floored:
        warnings.warn(
            "source block spectrum hit the eigenvalue floor; whitening amplification capped"
        )

    stats = BlockwiseStats(
        frame=frame,
        basis_out=basis_out,
        t_in=t_in,
        t_out=t_out,
        mu_src=mu_src,
        mu_tgt=mu_tgt,
        mu_drift=np.zeros(d),
        eig_floor=eig_floor,
        calib_n=n,
        floored=floored,
    )
    stats.mu_drift = _mean_of(n, d, lambda block, out: stats._shape(src[block], out, block.start))
    return stats


def sym_sqrt_of(cov: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root (negative round-off eigenvalues clamped)."""
    return sym_apply(cov, lambda lam: np.sqrt(np.maximum(lam, 0.0)))


def apply_blockwise(e_src, stats: BlockwiseStats, first_row: int = 0) -> np.ndarray:
    """Map rows through the blockwise pipeline, as a float64 array in the same row order.

    A collapse names its row counted from ``first_row``, as in
    ``substitution_operator``.
    """
    return _mapped(e_src, stats, first_row)
