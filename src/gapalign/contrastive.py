"""Analytic gradients of the temperature-scaled contrastive loss, plus
coupling estimation between subspace residuals.

For a batch of B anchor/candidate pairs, the per-anchor loss is the
negative log softmax of the matched similarity over all candidate
similarities.  Its embedding-level gradients have closed forms: the
anchor gradient is a probability-weighted combination of the candidates
(so it lies in their span), and the candidate gradient is a scalar
multiple of the anchor.  These closed forms are the oracle the rest of
the package is verified against.  ``loss_and_grads`` is the one kernel
that computes them: the simulator's loss and the per-anchor gradients
here are calls or views of it.  The independent references
live in the tests: the textbook formulas there and finite differences.

The coupling estimator quantifies how much of the out-of-subspace
residual is linearly explained by the in-subspace residual; its
spectral norm extends the purely geometric leakage bound.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import DataFormatError, DegenerateInputError
from .frame import ReferenceFrame, geometric_baseline, leakage_ratio
from .io import _on_sphere, as_matrix


@dataclass
class ContrastiveBatch:
    """B anchor rows paired by index with B candidate rows, all unit-norm."""

    anchors: np.ndarray
    candidates: np.ndarray
    temperature: float

    def __post_init__(self):
        self.anchors = np.asarray(self.anchors, dtype=np.float64)
        self.candidates = np.asarray(self.candidates, dtype=np.float64)
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.anchors.shape != self.candidates.shape or self.anchors.ndim != 2:
            raise DataFormatError("anchors and candidates must be equal-shape row matrices")
        for name, arr in (("anchors", self.anchors), ("candidates", self.candidates)):
            _on_sphere(arr, name, 1e-9)

    @property
    def size(self) -> int:
        return self.anchors.shape[0]


ContrastiveTerms = namedtuple("ContrastiveTerms",
                              "loss grad_anchors grad_candidates losses weights")


def loss_and_grads(anchors, candidates, tau: float, head: str = "dot") -> ContrastiveTerms:
    """The contrastive kernel; anchor i matches candidate i, rows of any norm.  The
    ``dot`` head scores a pair by x.y / tau, the ``sqdist`` head by -|x - y|^2 / tau.
    Returns the mean loss, its gradients with respect to the anchors and the
    candidates, the per-anchor losses and the softmax rows."""
    b = anchors.shape[0]
    if head == "dot":
        logits = anchors @ candidates.T / tau
    else:
        logits = -(
            np.sum(anchors * anchors, axis=1)[:, None]
            + np.sum(candidates * candidates, axis=1)[None, :]
            - 2.0 * anchors @ candidates.T
        ) / tau
    shift = logits.max(axis=1, keepdims=True)
    weights = np.exp(logits - shift)
    total = weights.sum(axis=1, keepdims=True)
    losses = np.log(total[:, 0]) + shift[:, 0] - np.diag(logits)

    weights /= total
    coeff = weights - np.eye(b)  # d loss_i / d logit_ij
    if head == "dot":
        grad_x = coeff @ candidates / (tau * b)
        grad_y = coeff.T @ anchors / (tau * b)
    else:
        # d(-|x-y|^2/tau)/dx = -2(x-y)/tau
        row = coeff.sum(axis=1, keepdims=True)
        grad_x = (-2.0 / (tau * b)) * (row * anchors - coeff @ candidates)
        col = coeff.sum(axis=0)[:, None]
        grad_y = (-2.0 / (tau * b)) * (col * candidates - coeff.T @ anchors)
    return ContrastiveTerms(float(np.mean(losses)), grad_x, grad_y, losses, weights)


def _terms(batch: ContrastiveBatch) -> ContrastiveTerms:
    return loss_and_grads(batch.anchors, batch.candidates, batch.temperature)


def grad_anchor(batch: ContrastiveBatch, i: int) -> np.ndarray:
    """Exact gradient of anchor i's loss with respect to its own embedding."""
    return _terms(batch).grad_anchors[i] * batch.size


def grad_candidate(batch: ContrastiveBatch, i: int, j: int) -> np.ndarray:
    """Exact gradient of anchor i's loss with respect to candidate j.

    Always a scalar multiple of anchor i.
    """
    return (_terms(batch).weights[i, j] - (j == i)) / batch.temperature * batch.anchors[i]


@dataclass
class CouplingEstimate:
    """Ridge-regression map from in-subspace to out-of-subspace residuals."""

    matrix: np.ndarray
    spectral_norm: float
    r_squared: float
    ridge_lambda: float


def estimate_coupling(resid_in, resid_out, ridge: float = 1e-6) -> CouplingEstimate:
    """Fit out-residuals as a linear function of in-residuals.

    Solves the ridge problem L = Z D^T (D D^T + ridge I)^{-1} with D and
    Z holding the residuals as columns, and reports the explained
    variance 1 - |Z - L D|_F^2 / |Z|_F^2.  Columns are centered
    internally; a warning flags inputs whose means were not already
    negligible.
    """
    if ridge < 0:
        raise ValueError("ridge must be non-negative")
    din = as_matrix(resid_in).astype(np.float64, copy=False)
    dout = as_matrix(resid_out).astype(np.float64, copy=False)
    n, r = din.shape
    if dout.shape[0] != n:
        raise DataFormatError("residual sets have different sample counts")
    if n < r:
        raise DataFormatError(f"need at least r={r} samples, got {n}")
    mean_in = din.mean(axis=0)
    mean_out = dout.mean(axis=0)
    scale = max(np.linalg.norm(din) / np.sqrt(n), 1e-300)
    if np.linalg.norm(mean_in) > 1e-8 * scale or np.linalg.norm(mean_out) > 1e-8 * scale:
        warnings.warn("residuals were not zero-mean; centering before the fit")
    d_mat = (din - mean_in).T
    z_mat = (dout - mean_out).T

    gram = d_mat @ d_mat.T + ridge * np.eye(r)
    l_hat = np.linalg.solve(gram, d_mat @ z_mat.T).T
    z_norm_sq = float(np.sum(z_mat * z_mat))
    resid_sq = float(np.sum((z_mat - l_hat @ d_mat) ** 2))
    r_squared = 1.0 - resid_sq / z_norm_sq if z_norm_sq > 0 else 0.0
    spectral = float(np.linalg.svd(l_hat, compute_uv=False)[0]) if l_hat.size else 0.0
    return CouplingEstimate(matrix=l_hat, spectral_norm=spectral, r_squared=r_squared,
                            ridge_lambda=ridge)


@dataclass
class LeakageBoundReport:
    """Outcome of checking leakage ratios against the angle-plus-coupling bound."""

    bound: float
    violation_fraction: float
    max_excess: float
    n_checked: int


def leakage_bound_check(
    g_samples,
    frame: ReferenceFrame,
    basis_t: np.ndarray,
    coupling,
    slack: float = 1e-9,
) -> LeakageBoundReport:
    """Check |P_out g| / |g| <= sin(theta) + |L| for a batch of vectors.

    ``coupling`` may be a CouplingEstimate, a matrix, or a plain norm.
    Violations beyond ``slack`` are counted rather than hidden; the
    report carries their fraction and the worst excess.
    """
    if isinstance(coupling, CouplingEstimate):
        l_norm = coupling.spectral_norm
    else:
        arr = np.asarray(coupling, dtype=np.float64)
        l_norm = float(arr) if arr.ndim == 0 else float(np.linalg.svd(arr, compute_uv=False)[0])
    bound = geometric_baseline(frame, basis_t) + l_norm
    rows = as_matrix(g_samples)
    excesses = np.array([leakage_ratio(g, frame) - bound for g in rows])
    return LeakageBoundReport(
        bound=float(bound),
        violation_fraction=float(np.mean(excesses > slack)),
        max_excess=float(excesses.max()),
        n_checked=rows.shape[0],
    )


@dataclass
class MomentIdentityResiduals:
    """Empirical residuals of the coupling model's second-moment identities.

    ``cross_*`` compares the delta/zeta cross moment against
    Sigma_in L^T; ``cov_*`` compares the out-residual second moment
    against Sigma_out + L Sigma_in L^T.  Relative values are inf when
    the reference matrix is zero (use the absolute ones then).
    """

    cross_abs: float
    cross_rel: float
    cov_abs: float
    cov_rel: float


def moment_identity_check(resid_in, resid_out, coupling_matrix) -> MomentIdentityResiduals:
    """Measure how well samples satisfy the linear-coupling moment identities.

    Uses uncentered second moments so that exactly linear data
    (out = in @ L^T) satisfies both identities to round-off with the
    empirical in-covariance.
    """
    din = as_matrix(resid_in).astype(np.float64, copy=False)
    dout = as_matrix(resid_out).astype(np.float64, copy=False)
    l_mat = np.asarray(coupling_matrix, dtype=np.float64)
    n = din.shape[0]
    if dout.shape[0] != n:
        raise DataFormatError("residual sets have different sample counts")

    sigma_in = din.T @ din / n
    cross = din.T @ dout / n
    cross_ref = sigma_in @ l_mat.T
    cross_abs = float(np.linalg.norm(cross - cross_ref))
    cross_rel = cross_abs / np.linalg.norm(cross_ref) if np.linalg.norm(cross_ref) > 0 else np.inf

    base = dout - din @ l_mat.T
    sigma_out = base.T @ base / n
    cov_ref = sigma_out + l_mat @ sigma_in @ l_mat.T
    cov_emp = dout.T @ dout / n
    cov_abs = float(np.linalg.norm(cov_emp - cov_ref))
    cov_rel = cov_abs / np.linalg.norm(cov_emp) if np.linalg.norm(cov_emp) > 0 else np.inf
    return MomentIdentityResiduals(cross_abs=cross_abs, cross_rel=cross_rel,
                                   cov_abs=cov_abs, cov_rel=cov_rel)
