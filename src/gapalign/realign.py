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

All apply operators are pure functions of their calibrated statistics;
the isotropic-noise baseline additionally takes a seed for its
counter-based generator.

Calibration and application both run in row blocks and widen float32
input block by block.  Applying any operator writes into one
preallocated float64 output, so it needs the output plus one row block
of memory; calibrating needs the calibration sets plus O(block * d + d^2).
Each calibration pass recomputes the intermediate rows it needs (the
first normalization, the anchored rows) one block at a time instead of
holding them for the whole set.  Covariances come from the centred
moment kernel in ``moments``, and drift means are ``RowSum`` sums, equal
bitwise to a whole-array mean of the same rows.  Blockwise is applied as
one composed d x d map, derived once from the stored per-block
transforms and bases; its square roots come from ``spectral.sym_apply``.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DataFormatError, DegenerateInputError
from .frame import ReferenceFrame
from .io import _ROW_BLOCK, EmbeddingSet, Payload, _check_int, _checked, as_matrix
from .moments import ModalityStats, MomentAccumulator, RowSum
from .spectral import sym_apply

_COLLAPSE = 1e-12


def _normalize_in_place(rows: np.ndarray, stage: str, first_row: int) -> np.ndarray:
    """Divide each row of a float64 matrix by its norm in place and return ``rows``.

    ``first_row`` is the index of ``rows[0]`` in the caller's input, so a
    collapse is reported at its row in the whole input.  A single row is
    normalized by the same row-wise reduction as the rows of a matrix, so
    batch and single-row paths agree bitwise.
    """
    norms = np.sqrt((rows * rows).sum(axis=1))
    if np.any(norms < _COLLAPSE):
        bad = first_row + int(np.argmax(norms < _COLLAPSE))
        raise DegenerateInputError(f"{stage}: norm collapsed below {_COLLAPSE} at row {bad}")
    rows /= norms[:, None]
    return rows


def _affine_into(rows, mu_src, scale, mu_tgt, out: np.ndarray) -> np.ndarray:
    """out = mu_tgt + scale * (rows - mu_src), widening ``rows`` to float64 on the fly."""
    np.subtract(rows, mu_src, out=out, dtype=np.float64)
    out *= scale
    out += mu_tgt
    return out


def _affine_unit_into(rows, mu_src, scale, mu_tgt, out: np.ndarray, stage: str,
                      first_row: int) -> np.ndarray:
    """The affine step into ``out``, then each row projected to the unit sphere."""
    return _normalize_in_place(_affine_into(rows, mu_src, scale, mu_tgt, out), stage, first_row)


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


def affine_align(rows, stats: AlignmentStats) -> np.ndarray:
    """Steps 1-2 only: mu_tgt + scale * (rows - mu_src), no normalization."""
    return _affine_into(rows, stats.mu_src, stats.scale, stats.mu_tgt, np.empty(np.shape(rows)))


def _realign_rows(rows: np.ndarray, stats: AlignmentStats) -> np.ndarray:
    out = np.empty(rows.shape, dtype=np.float64)
    for lo in range(0, rows.shape[0], _ROW_BLOCK):
        block = _affine_unit_into(rows[lo:lo + _ROW_BLOCK], stats.mu_src, stats.scale,
                                  stats.mu_tgt, out[lo:lo + _ROW_BLOCK],
                                  "affine-stage normalization", lo)
        block -= stats.mu_drift
        block += stats.mu_tgt
        _normalize_in_place(block, "centroid-stage normalization", lo)
    return out


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
    drift estimate to stabilize.
    """
    calib = as_matrix(calib_src)
    if calib.shape[0] == 0:
        raise DegenerateInputError("empty calibration set")
    if calib.shape[1] != stats_src.dims or stats_src.dims != stats_tgt.dims:
        raise DataFormatError("dimension mismatch between stats and calibration set")
    scale = float(np.sqrt(stats_tgt.trace / (stats_src.trace + eps)))
    n = calib.shape[0]
    unit1 = RowSum(calib.shape[1], min(n, _ROW_BLOCK))
    for lo in range(0, n, _ROW_BLOCK):
        chunk = calib[lo:lo + _ROW_BLOCK]
        _affine_unit_into(chunk, stats_src.mean, scale, stats_tgt.mean,
                          unit1.block(chunk.shape[0]), "calibration normalization", lo)
        unit1.add(chunk.shape[0])
    return AlignmentStats(
        mu_src=stats_src.mean,
        mu_tgt=stats_tgt.mean,
        trace_src=stats_src.trace,
        trace_tgt=stats_tgt.trace,
        scale=scale,
        eps=eps,
        mu_drift=unit1.total / n,
        calib_n=n,
    )


def apply_realign(e_src: np.ndarray, stats: AlignmentStats) -> np.ndarray:
    """Map a single source embedding through the calibrated pipeline.

    The output is unit-norm.  A norm collapse below 1e-12 at either
    normalization raises ``DegenerateInputError`` naming the stage.
    """
    e = np.asarray(e_src, dtype=np.float64)
    if e.ndim != 1 or e.shape[0] != stats.dims:
        raise DataFormatError(f"expected a vector of length {stats.dims}")
    return _realign_rows(e[None, :], stats)[0]


def substitution_operator(source_set, stats: AlignmentStats) -> EmbeddingSet:
    """Batch form of ``apply_realign``; row order is preserved.

    Accepts an EmbeddingSet or matrix and returns an EmbeddingSet in
    float64.  Per-row degeneracies propagate with the row index.
    """
    rows = as_matrix(source_set)
    tag = source_set.modality_tag if isinstance(source_set, EmbeddingSet) else ""
    if rows.shape[0] == 0:
        return EmbeddingSet(np.empty((0, stats.dims)), tag)
    if rows.shape[1] != stats.dims:
        raise DataFormatError(f"rows have {rows.shape[1]} dims, stats expect {stats.dims}")
    return EmbeddingSet(_realign_rows(rows, stats), tag)


def anchor_shift(rows, mu_src: np.ndarray, mu_tgt: np.ndarray) -> np.ndarray:
    """Mean shift plus re-normalization; the minimal alignment baseline."""
    rows = np.asarray(rows)
    out = apply_c3_baseline(rows, mu_src, mu_tgt, noise_sigma=0.0)
    return out[0] if rows.ndim == 1 else out


def apply_c3_baseline(
    rows,
    mu_src: np.ndarray,
    mu_tgt: np.ndarray,
    noise_sigma: float = 0.04,
    rng_seed: int = 0,
) -> np.ndarray:
    """Centroid alignment plus isotropic Gaussian noise, then normalization.

    Noise comes from a Philox counter-based generator keyed by
    ``rng_seed``, so outputs are reproducible across runs and platforms
    for a given numpy version.  ``noise_sigma=0`` makes the operator
    deterministic and equal to ``anchor_shift``.  Rows are shifted, noised
    and normalized in row blocks; blocked draws equal one whole draw.
    """
    if noise_sigma < 0:
        raise ValueError("noise_sigma must be non-negative")
    rows = np.atleast_2d(rows)
    rng = np.random.Generator(np.random.Philox(key=rng_seed))
    stage = "noise-stage normalization" if noise_sigma > 0 else "anchor normalization"
    out = np.empty(rows.shape)
    for lo in range(0, rows.shape[0], _ROW_BLOCK):
        block = _affine_into(rows[lo:lo + _ROW_BLOCK], mu_src, 1.0, mu_tgt, out[lo:lo + _ROW_BLOCK])
        if noise_sigma > 0:
            block += noise_sigma * rng.standard_normal(size=block.shape)
        _normalize_in_place(block, stage, lo)
    return out


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
        _check_int("calib_n", self.calib_n, 1)
        if not isinstance(self.floored, bool):
            raise DataFormatError(f"floored must be a bool, got {self.floored!r}")
        basis, comp = self.frame.basis, self.basis_out
        self.operator = basis @ self.t_in.T @ basis.T + comp @ self.t_out.T @ comp.T

    @property
    def dims(self) -> int:
        return self.frame.dims


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
    calib_src,
    calib_tgt,
    eig_floor: float = 1e-6,
) -> BlockwiseStats:
    """Calibrate per-block whitening-coloring transforms in a frozen frame.

    The source is anchor-aligned (mean shift plus normalization) first;
    one centred covariance of the anchored source and one of the raw
    target are projected onto the frame basis and its complement, and
    each block transform is the target square root times the floored
    source inverse square root.  The drift correction is then calibrated
    exactly as in the scalar operator.  Hitting the floor is reported via
    ``floored`` and a warning rather than an exception: the output stays
    finite.  The anchored rows are recomputed block by block in the
    covariance pass and in the drift pass, never held for the whole set.
    """
    src = as_matrix(calib_src)
    tgt = as_matrix(calib_tgt)
    if src.shape[0] == 0 or tgt.shape[0] == 0:
        raise DegenerateInputError("empty calibration set")
    if src.shape[1] != frame.dims or tgt.shape[1] != frame.dims:
        raise DataFormatError("calibration sets do not match the frame dimension")
    r, d = frame.rank, frame.dims
    n = src.shape[0]
    if n <= max(r, d - r):
        warnings.warn("calibration set smaller than block size; covariances will be singular")

    mu_src = src.mean(axis=0, dtype=np.float64)
    target = MomentAccumulator(d).accumulate(tgt).finalize()
    mu_tgt, cov_tgt = target.mean, target.covariance

    def anchor_into(lo, out):
        # the anchor step is the affine step with unit scale
        _affine_unit_into(src[lo:lo + out.shape[0]], mu_src, 1.0, mu_tgt, out,
                          "anchor normalization", lo)

    cov_src = MomentAccumulator(d).accumulate_from(n, anchor_into).finalize().covariance
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
    unit = np.empty((min(n, _ROW_BLOCK), d))
    shaped = RowSum(d, min(n, _ROW_BLOCK))
    for lo in range(0, n, _ROW_BLOCK):
        chunk = src[lo:lo + _ROW_BLOCK]
        _shaped_into(chunk, stats, unit, shaped.block(chunk.shape[0]), lo)
        shaped.add(chunk.shape[0])
    stats.mu_drift = shaped.total / n
    return stats


def sym_sqrt_of(cov: np.ndarray) -> np.ndarray:
    """Symmetric PSD square root (negative round-off eigenvalues clamped)."""
    return sym_apply(cov, lambda lam: np.sqrt(np.maximum(lam, 0.0)))


def _shaped_into(chunk, stats: BlockwiseStats, scratch: np.ndarray, out: np.ndarray,
                 first_row: int) -> np.ndarray:
    """Anchor step into ``scratch``, then the composed operator into ``out``, normalized."""
    unit = _affine_unit_into(chunk, stats.mu_src, 1.0, stats.mu_tgt, scratch[:chunk.shape[0]],
                             "anchor normalization", first_row)
    return _normalize_in_place(np.matmul(unit, stats.operator, out=out),
                               "block-transform normalization", first_row)


def _blockwise_rows(rows: np.ndarray, stats: BlockwiseStats) -> np.ndarray:
    n = rows.shape[0]
    out = np.empty((n, stats.dims))
    anchored = np.empty((min(n, _ROW_BLOCK), stats.dims))
    for lo in range(0, n, _ROW_BLOCK):
        block = _shaped_into(rows[lo:lo + _ROW_BLOCK], stats, anchored, out[lo:lo + _ROW_BLOCK], lo)
        block -= stats.mu_drift
        block += stats.mu_tgt
        _normalize_in_place(block, "centroid-stage normalization", lo)
    return out


def apply_blockwise(e_src: np.ndarray, stats: BlockwiseStats) -> np.ndarray:
    """Map one embedding (or a batch of rows) through the blockwise pipeline."""
    e = np.asarray(e_src)
    single = e.ndim == 1
    rows = e[None, :] if single else e
    if rows.shape[1] != stats.dims:
        raise DataFormatError(f"expected dimension {stats.dims}, got {rows.shape[1]}")
    out = _blockwise_rows(rows, stats)
    return out[0] if single else out
