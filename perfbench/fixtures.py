"""Seeded paired-embedding fixtures for the benchmark workloads.

Every choice below is recorded with its reason, because the checks and
the per-layer predictions in ``BENCHMARK.json`` depend on them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class FixtureSpec:
    rows: int
    dims: int = 768
    # 768 is the width of the common text/image encoders the paper aligns,
    # and the d x d covariance at this width is what makes frame, spectral
    # and artifact costs visible.
    latent: int = 96
    # Power-law latent variances j^-decay give the decaying spectrum real
    # embeddings show; the frame's 90% energy rank then lands well inside
    # (1, d) instead of at either end.
    decay: float = 1.2
    # Each side's map is sqrt(shared) * common + sqrt(1 - shared) * own.
    # With independent maps (shared = 0) kNN mixing was measured at 0.0
    # both before and after alignment, which makes the "mixing rises"
    # check vacuous; at 0.9 the aligned clouds interleave.
    shared: float = 0.9
    # Norm of each side's constant offset, relative to the signal's unit
    # expected norm: the modality gap that the alignment operators remove.
    # At 0.4 and 4k rows per side, mixing was measured at 0.05 before and
    # 0.17 after realign: low but not zero, so both readings mean something.
    offset: float = 0.4
    # Isotropic noise of this total norm keeps every block covariance full
    # rank, so blockwise whitening does not hit its eigenvalue floor.
    noise: float = 0.2
    # Fraction of rows overwritten by an exact copy of an earlier row (on
    # both sides, so pairs stay paired).  Duplicates make kNN distances
    # tie, which exercises the "lower index wins ties" rule.
    duplicates: float = 0.0


def paired_fixture(seed: int, spec: FixtureSpec):
    """Return unit-norm float32 (src, tgt) row matrices paired by index."""
    rng = np.random.default_rng(seed)
    d, k = spec.dims, spec.latent
    common = rng.standard_normal((d, k)) / np.sqrt(d)
    scale = np.arange(1, k + 1, dtype=np.float64) ** (-spec.decay / 2.0)
    z = (rng.standard_normal((spec.rows, k)) * (scale / np.linalg.norm(scale))).astype(np.float32)
    sides = []
    for _ in range(2):
        own = rng.standard_normal((d, k)) / np.sqrt(d)
        mix = np.sqrt(spec.shared) * common + np.sqrt(1.0 - spec.shared) * own
        offset = rng.standard_normal(d)
        offset *= spec.offset / np.linalg.norm(offset)
        rows = z @ mix.T.astype(np.float32)
        rows += offset.astype(np.float32)
        # Centred uniform noise: isotropic covariance at a quarter of the
        # cost of Gaussian draws, which keeps set-up time small.
        noise = rng.random((spec.rows, d), dtype=np.float32)
        noise -= 0.5
        noise *= spec.noise * np.sqrt(12.0 / d)
        rows += noise
        rows /= np.linalg.norm(rows, axis=1, keepdims=True)
        sides.append(rows)
    n_dup = int(round(spec.duplicates * spec.rows))
    if n_dup:
        dst = rng.choice(np.arange(1, spec.rows), size=n_dup, replace=False)
        src = rng.integers(0, dst)  # copy an earlier row, so the copy has the higher index
        for rows in sides:
            rows[dst] = rows[src]
    return sides[0], sides[1]
