"""Frozen reference frames and the bias/residual split of paired gaps.

A reference frame is an orthonormal basis for the dominant-energy
subspace of the summed covariances of two embedding distributions,
chosen at a reference time and then held fixed.  Paired differences
decompose exactly into a mean bias inside the subspace, a mean bias in
the orthogonal complement, and zero-mean residuals in each part.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, DegenerateInputError
from .io import Payload, _check_int, _checked, as_matrix, row_blocks
from .moments import _mean_of
from .spectral import _fix_signs, max_principal_sine, sym_eig


@dataclass
class ReferenceFrame(Payload, kind="reference_frame"):
    """Orthonormal basis (d x r) of the high-energy subspace, frozen after build."""

    basis: np.ndarray
    energy_threshold: float
    created_at_step: int | None = None

    def __post_init__(self):
        self.basis = _checked("basis", self.basis, (None, None))
        self.energy_threshold = float(_checked("energy_threshold", self.energy_threshold, ()))
        if self.created_at_step is not None:
            _check_int("created_at_step", self.created_at_step, 0)
        d, r = self.basis.shape
        if not 1 <= r <= d:
            raise DataFormatError(f"frame rank {r} outside [1, {d}]")
        gram = self.basis.T @ self.basis
        if np.linalg.norm(gram - np.eye(r)) > 1e-10:
            raise DataFormatError("frame basis columns are not orthonormal")

    @property
    def dims(self) -> int:
        return self.basis.shape[0]

    @property
    def rank(self) -> int:
        return self.basis.shape[1]

    def coords(self, v: np.ndarray) -> np.ndarray:
        """Coordinates of the in-subspace component, shape (..., r)."""
        return np.asarray(v, dtype=np.float64) @ self.basis

    def lift(self, coords: np.ndarray) -> np.ndarray:
        """Map subspace coordinates back to ambient d-vectors."""
        return np.asarray(coords, dtype=np.float64) @ self.basis.T

    def project_principal(self, v: np.ndarray) -> np.ndarray:
        return self.lift(self.coords(v))

    def project_complement(self, v: np.ndarray) -> np.ndarray:
        return np.asarray(v, dtype=np.float64) - self.project_principal(v)

    def complement_basis(self) -> np.ndarray:
        """Deterministic orthonormal basis (d x (d-r)) of the complement."""
        u, _, _ = np.linalg.svd(self.basis, full_matrices=True)
        return _fix_signs(u[:, self.rank :])


@dataclass
class GapDecomposition:
    """Exact orthogonal split of paired differences in a frozen frame.

    ``mean_gap`` is the sample mean difference; ``bias_in`` holds its
    subspace coordinates (length r) and ``bias_out`` its ambient
    component in the complement.  ``resid_in`` (N x r) and ``resid_out``
    (N x d) are the zero-mean per-sample residuals of each part, so for
    every row i:

        diff_i = lift(bias_in) + bias_out + lift(resid_in[i]) + resid_out[i]
    """

    bias_in: np.ndarray
    bias_out: np.ndarray
    resid_in: np.ndarray
    resid_out: np.ndarray
    mean_gap: np.ndarray


def build_frame(
    cov_a: np.ndarray,
    cov_b: np.ndarray,
    energy: float = 0.90,
    created_at_step: int | None = None,
) -> ReferenceFrame:
    """Construct the frame from two covariances and an energy threshold.

    The summed covariance is eigendecomposed and the rank is the
    smallest k whose leading eigenvalues capture at least ``energy`` of
    the total (ties resolve to the smaller rank).
    """
    if not 0.0 < energy <= 1.0:
        raise ValueError(f"energy threshold must be in (0, 1], got {energy}")
    a = np.asarray(cov_a, dtype=np.float64)
    b = np.asarray(cov_b, dtype=np.float64)
    if a.shape != b.shape:
        raise DataFormatError("covariances have mismatched shapes")
    decomp = sym_eig(a + b)
    lam = np.maximum(decomp.eigenvalues, 0.0)
    total = lam.sum()
    if total <= 0.0:
        raise DegenerateInputError("zero total variance; no frame exists")
    cumulative = np.cumsum(lam) / total
    rank = int(np.searchsorted(cumulative, energy - 1e-15) + 1)
    rank = min(rank, lam.size)
    return ReferenceFrame(
        basis=decomp.eigenvectors[:, :rank],
        energy_threshold=energy,
        created_at_step=created_at_step,
    )


def _paired_rows(paired_a, paired_b, frame: ReferenceFrame):
    x = as_matrix(paired_a)
    y = as_matrix(paired_b)
    if x.shape[0] != y.shape[0]:
        raise DataFormatError(f"paired sets have {x.shape[0]} vs {y.shape[0]} rows")
    if x.shape[1] != y.shape[1] or x.shape[1] != frame.dims:
        raise DataFormatError("dimension mismatch between paired sets and frame")
    if x.shape[0] < 2:
        raise DataFormatError("need at least 2 pairs to decompose")
    return x, y


def paired_mean_gap(paired_a, paired_b, frame: ReferenceFrame) -> np.ndarray:
    """Mean of the index-paired differences, formed one row block at a time.

    It is bitwise the ``mean_gap`` that ``decompose_gap`` computes from the
    whole arrays (both take ``moments._mean_of``), in one float64 row block
    of memory.
    """
    x, y = _paired_rows(paired_a, paired_b, frame)
    return _mean_of(x.shape[0], frame.dims, lambda block, out: np.subtract(
        x[block], y[block], out=out, dtype=np.float64))


def decompose_gap(paired_a, paired_b, frame: ReferenceFrame,
                  mean_gap: np.ndarray | None = None) -> GapDecomposition:
    """Split index-paired differences into biases and residuals.

    Rows of the two inputs must be paired by index; at least two pairs
    are required so residuals are meaningful.  The inputs are not
    widened: differences are formed in float64 straight from them, and
    that one buffer is split in place, row block by row block, and
    becomes ``resid_out``, the only N x d array the split allocates
    (``resid_in`` is N x r).

    ``mean_gap`` defaults to the mean of these differences.  Passing the
    mean of a larger set (``paired_mean_gap``) splits one block of it; for
    a block of ``row_blocks`` the values are those the whole-set split
    gives its rows, which it computes block by block in the same way.
    """
    x, y = _paired_rows(paired_a, paired_b, frame)
    resid_out = np.subtract(x, y, dtype=np.float64)
    if mean_gap is None:
        mean_gap = _mean_of(*resid_out.shape, lambda block, out: np.copyto(out, resid_out[block]))
    bias_in = frame.coords(mean_gap)
    bias_out = mean_gap - frame.lift(bias_in)
    resid_out -= mean_gap
    resid_in = np.empty((x.shape[0], frame.rank))
    for block in row_blocks(x.shape[0]):
        resid_in[block] = frame.coords(resid_out[block])
        resid_out[block] -= frame.lift(resid_in[block])
    return GapDecomposition(
        bias_in=bias_in,
        bias_out=bias_out,
        resid_in=resid_in,
        resid_out=resid_out,
        mean_gap=mean_gap,
    )


def leakage_ratio(g: np.ndarray, frame: ReferenceFrame) -> float:
    """Fraction of a vector's norm lying in the frame's complement."""
    g = np.asarray(g, dtype=np.float64)
    norm = np.linalg.norm(g)
    if norm == 0.0:
        raise DegenerateInputError("leakage of the zero vector is undefined")
    return float(np.linalg.norm(frame.project_complement(g)) / norm)


def geometric_baseline(frame: ReferenceFrame, basis_t: np.ndarray) -> float:
    """Largest-principal-angle sine between the frozen basis and a new one.

    This is the tight upper bound on ``leakage_ratio`` over all vectors
    drawn from the span of ``basis_t``.
    """
    basis_t = np.asarray(basis_t, dtype=np.float64)
    if basis_t.shape != frame.basis.shape:
        raise DataFormatError("instantaneous basis must match the frame's shape")
    return max_principal_sine(frame.basis, basis_t)


def relative_drift(current: np.ndarray, reference: np.ndarray, floor: float = 1e-12) -> float:
    """Norm of the change relative to the reference norm, floored."""
    current = np.asarray(current, dtype=np.float64)
    reference = np.asarray(reference, dtype=np.float64)
    if current.shape != reference.shape:
        raise DataFormatError("drift vectors have mismatched shapes")
    return float(np.linalg.norm(current - reference) / max(np.linalg.norm(reference), floor))


def cosine_stability(current: np.ndarray, previous: np.ndarray) -> float:
    """Cosine between consecutive bias vectors; 0 (with a warning) if either is zero."""
    a = np.asarray(current, dtype=np.float64)
    b = np.asarray(previous, dtype=np.float64)
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        warnings.warn("cosine stability of a zero vector is degenerate; returning 0")
        return 0.0
    return float(np.clip((a @ b) / (na * nb), -1.0, 1.0))


def spectrum_correlation(cov_resid: np.ndarray, cov_grad: np.ndarray) -> float:
    """Pearson correlation between two descending eigenvalue spectra.

    Both matrices are eigendecomposed and the sorted spectra compared,
    so the result measures how well the residual energy profile locks
    onto the gradient energy profile.  A constant spectrum on either
    side makes the correlation undefined; 0 is returned with a warning.
    """
    lam_a = sym_eig(cov_resid).eigenvalues
    lam_b = sym_eig(cov_grad).eigenvalues
    if lam_a.size != lam_b.size:
        raise DataFormatError("spectra have different lengths")
    sa, sb = lam_a.std(), lam_b.std()
    if sa == 0.0 or sb == 0.0:
        warnings.warn("constant spectrum; correlation degenerate, returning 0")
        return 0.0
    ca, cb = lam_a - lam_a.mean(), lam_b - lam_b.mean()
    return float((ca @ cb) / (np.linalg.norm(ca) * np.linalg.norm(cb)))


def noise_angle_degrees(bias_vec: np.ndarray, cov: np.ndarray) -> float:
    """Angle between a bias vector and the top noise direction, folded to [0, 90].

    The sign of an eigenvector is arbitrary, so the angle is measured
    against the eigenvector line rather than a signed direction.
    """
    v = np.asarray(bias_vec, dtype=np.float64)
    norm = np.linalg.norm(v)
    if norm == 0.0:
        raise DegenerateInputError("noise angle of the zero vector is undefined")
    top = sym_eig(cov).eigenvectors[:, 0]
    cos = abs(float(v @ top)) / norm
    return float(np.degrees(np.arccos(np.clip(cos, 0.0, 1.0))))
