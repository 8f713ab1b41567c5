"""Symmetric eigenanalysis, subspace angles, and spectrum summaries.

Everything here is a pure function of its inputs.  ``sym_eig`` is the
package's only eigendecomposition; matrix functions (``sym_apply``) and
the Tyler iteration go through it.  Eigenvalues are reported in
descending order throughout the package, and eigenvector signs follow a
fixed convention (largest-magnitude coordinate positive) so repeated
runs produce identical bases.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, DegenerateInputError


@dataclass
class EigenDecomposition:
    """Eigenvalues sorted descending with matching orthonormal columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass
class ShapeEstimate:
    """Trace-normalized elliptical shape matrix from the fixed-point iteration."""

    sigma_hat: np.ndarray
    iterations: int
    converged: bool
    regularized: bool = False


def _check_symmetric(mat: np.ndarray, rtol: float = 1e-8) -> np.ndarray:
    mat = np.asarray(mat, dtype=np.float64)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DataFormatError(f"expected a square matrix, got shape {mat.shape}")
    if not np.isfinite(mat).all():
        raise DataFormatError("matrix contains non-finite entries")
    # scaled by the power of two that brings the largest |entry| into [0.5, 1), so no
    # square overflows; exact but for entries 2^1022 below the largest, far under rtol
    scaled = np.ldexp(mat, -np.frexp(np.abs(mat).max(initial=0.0))[1])
    if np.linalg.norm(scaled - scaled.T) > rtol * np.linalg.norm(scaled):
        raise DataFormatError("matrix is not symmetric within tolerance")
    return 0.5 * (mat + mat.T)


def _fix_signs(vectors: np.ndarray) -> np.ndarray:
    """Force the largest-magnitude coordinate of each column positive."""
    idx = np.argmax(np.abs(vectors), axis=0)
    signs = np.sign(vectors[idx, np.arange(vectors.shape[1])])
    signs[signs == 0] = 1.0
    return vectors * signs


def sym_eig(mat: np.ndarray) -> EigenDecomposition:
    """Eigendecompose a symmetric matrix with descending eigenvalues.

    Raises ``DataFormatError`` for non-symmetric or non-finite input.
    The reconstruction Q diag(lam) Q^T matches the input to high
    relative accuracy and Q^T Q is the identity to round-off.
    """
    sym = _check_symmetric(mat)
    lam, vec = np.linalg.eigh(sym)
    order = np.argsort(lam)[::-1]
    return EigenDecomposition(eigenvalues=lam[order], eigenvectors=_fix_signs(vec[:, order]))


def sym_apply(mat: np.ndarray, fn) -> np.ndarray:
    """Q fn(lam) Q^T from ``sym_eig``; ``fn`` maps the descending eigenvalues to new ones."""
    eig = sym_eig(mat)
    return (eig.eigenvectors * fn(eig.eigenvalues)) @ eig.eigenvectors.T


def condition_number(eigenvalues: np.ndarray, floor: float = 1e-12) -> float:
    """Ratio of extreme eigenvalues with a relative floor on the smallest.

    ``eigenvalues`` must be sorted descending with a non-negative head.
    The smallest eigenvalue is floored at ``floor * eigenvalues[0]`` so
    rank-deficient spectra report a large finite number instead of
    infinity.  An all-zero spectrum is shapeless and returns 1.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if lam.size == 0:
        raise DegenerateInputError("empty spectrum")
    top, bottom = float(lam[0]), float(lam[-1])
    if top < 0:
        raise ValueError("leading eigenvalue must be non-negative")
    if top < bottom:
        raise ValueError("eigenvalues must be sorted descending")
    if top == 0.0:
        return 1.0
    return top / max(bottom, floor * top)


def effective_rank(eigenvalues: np.ndarray) -> float:
    """Entropy-based count of significant spectrum directions.

    exp(H(p)) with p the trace-normalized spectrum and H the Shannon
    entropy in nats.  Equals d exactly for a uniform spectrum and 1 for
    a rank-one spectrum.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64).copy()
    if lam.size == 0:
        raise DegenerateInputError("empty spectrum")
    top = float(np.max(lam))
    if np.any(lam < -1e-12 * max(top, 0.0)):
        raise ValueError("eigenvalues must be non-negative")
    lam[lam < 0] = 0.0
    total = lam.sum()
    if total <= 0.0:
        raise DegenerateInputError("all-zero spectrum has no effective rank")
    p = lam / total
    nz = p[p > 0]
    return float(np.exp(-np.sum(nz * np.log(nz))))


def power_law_alpha(eigenvalues: np.ndarray, k_min: int = 2, k_max: int | None = None) -> float:
    """Decay exponent of an eigenvalue spectrum.

    Fits log(lam_k) against log(k) by ordinary least squares over the
    1-indexed range [k_min, k_max] and returns the negated slope, so a
    spectrum lam_k proportional to k**(-a) yields a.  By default the
    head eigenvalue is skipped (k_min=2) and the fit stops at 128
    components.

    Raises
    ------
    ValueError
        Fewer than 3 points in the fit range.
    DegenerateInputError
        Non-positive eigenvalue inside the fit range.
    """
    lam = np.asarray(eigenvalues, dtype=np.float64)
    if k_max is None:
        k_max = min(128, lam.size)
    if not 1 <= k_min <= k_max <= lam.size:
        raise ValueError(f"invalid fit range [{k_min}, {k_max}] for {lam.size} eigenvalues")
    window = lam[k_min - 1 : k_max]
    if window.size < 3:
        raise ValueError("need at least 3 spectrum points for a power-law fit")
    if np.any(window <= 0):
        raise DegenerateInputError("non-positive eigenvalue in power-law fit range")
    x = np.log(np.arange(k_min, k_max + 1, dtype=np.float64))
    y = np.log(window)
    x = x - x.mean()
    slope = float((x @ (y - y.mean())) / (x @ x))
    return -slope


def _check_basis(basis: np.ndarray, tol: float = 1e-8) -> np.ndarray:
    basis = np.asarray(basis, dtype=np.float64)
    if basis.ndim != 2:
        raise DataFormatError(f"basis must be a d x r matrix, got shape {basis.shape}")
    gram = basis.T @ basis
    if np.linalg.norm(gram - np.eye(basis.shape[1])) > tol:
        raise ValueError("basis columns are not orthonormal within tolerance")
    return basis


def principal_angles(basis_a: np.ndarray, basis_b: np.ndarray) -> np.ndarray:
    """Canonical angles between two equal-rank subspaces, ascending.

    cos(theta_i) are the singular values of A^T B clamped to [0, 1]; the
    last entry is the largest principal angle.  Taking arccos of a
    singular value near 1 cannot resolve angles below about 1.5e-8 rad
    in float64: the result snaps to arccos(1 - k * 2**-53), that is 0.0,
    1.49e-8, 2.11e-8, ..., so a 1e-9 or 1e-12 rad rotation reads as one
    of those.  Use ``max_principal_sine`` when the subspaces nearly
    coincide.
    """
    a = _check_basis(basis_a)
    b = _check_basis(basis_b)
    if a.shape[0] != b.shape[0]:
        raise DataFormatError("bases live in different ambient dimensions")
    if a.shape[1] != b.shape[1]:
        raise DataFormatError("bases have different ranks")
    sigma = np.linalg.svd(a.T @ b, compute_uv=False)
    return np.arccos(np.clip(sigma, 0.0, 1.0))


def max_principal_sine(basis_a: np.ndarray, basis_b: np.ndarray) -> float:
    """Sine of the largest principal angle, computed without cancellation.

    Equals the spectral norm of the component of one basis orthogonal
    to the other, which stays accurate even when the subspaces nearly
    coincide (where arccos of a singular value near 1 loses digits).
    """
    a = _check_basis(basis_a)
    b = _check_basis(basis_b)
    if a.shape != b.shape:
        raise DataFormatError("bases must share ambient dimension and rank")
    residual = b - a @ (a.T @ b)
    return float(np.linalg.svd(residual, compute_uv=False)[0])


def tyler_shape(samples: np.ndarray, tol: float = 1e-8, max_iter: int = 500) -> ShapeEstimate:
    """Fixed-point estimate of the elliptical shape of centered samples.

    Iterates sigma <- (d/n) sum_i v_i v_i^T / (v_i^T sigma^{-1} v_i)
    from the identity, trace-normalizing to d after every update, until
    the relative Frobenius change drops below ``tol`` or ``max_iter``
    updates have run.  Samples are direction-normalized up front, which
    makes the estimate invariant to any positive rescaling of the data.

    A nearly singular iterate (minimum eigenvalue below 1e-12 * tr/d)
    is floored and reported through the ``regularized`` flag.
    """
    v = np.asarray(samples, dtype=np.float64)
    if v.ndim != 2:
        raise DataFormatError(f"samples must be an n x d matrix, got shape {v.shape}")
    n, d = v.shape
    if n < 1:
        raise DegenerateInputError("no samples")
    norms = np.linalg.norm(v, axis=1)
    if np.any(norms == 0):
        raise DegenerateInputError(f"zero-norm sample at row {int(np.argmin(norms != 0))}")
    v = v / norms[:, None]

    sigma = np.eye(d)
    converged = False
    regularized = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        eig = sym_eig(sigma)
        lam, q = eig.eigenvalues, eig.eigenvectors
        floor = 1e-12 * lam.sum() / d
        if lam[-1] < floor:
            regularized = True
            lam = np.maximum(lam, floor)
        w = v @ q
        quad = (w * w / lam).sum(axis=1)
        weights = d / (n * quad)
        nxt = (v * weights[:, None]).T @ v
        nxt *= d / np.trace(nxt)
        delta = np.linalg.norm(nxt - sigma) / np.linalg.norm(sigma)
        sigma = nxt
        if delta < tol:
            converged = True
            break
    sigma = 0.5 * (sigma + sigma.T)
    return ShapeEstimate(sigma_hat=sigma, iterations=iterations, converged=converged,
                         regularized=regularized)
