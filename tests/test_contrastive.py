import numpy as np
import numpy.testing as npt
import pytest

from gapalign import (
    ContrastiveBatch,
    DataFormatError,
    estimate_coupling,
    grad_anchor,
    grad_candidate,
    leakage_bound_check,
    moment_identity_check,
)
from gapalign.contrastive import loss_and_grads
from gapalign.frame import ReferenceFrame


def unit_rows(rows):
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def random_batch(rng, b=8, d=16, tau=0.5):
    return ContrastiveBatch(
        anchors=unit_rows(rng.normal(size=(b, d))),
        candidates=unit_rows(rng.normal(size=(b, d))),
        temperature=tau,
    )


def terms(batch):
    return loss_and_grads(batch.anchors, batch.candidates, batch.temperature)


def loss_oracle(anchor_vec, candidates, tau, i):
    """Direct textbook formula, used as the finite-difference reference."""
    sims = candidates @ anchor_vec / tau
    return float(np.log(np.exp(sims - sims.max()).sum()) + sims.max() - sims[i])


class TestLoss:
    def test_single_candidate_zero_loss(self):
        batch = ContrastiveBatch(
            anchors=np.array([[1.0, 0.0]]), candidates=np.array([[0.0, 1.0]]), temperature=0.3
        )
        assert float(terms(batch).losses[0]) == 0.0

    def test_indistinguishable_candidates(self):
        y = unit_rows(np.array([[1.0, 1.0]]))
        batch = ContrastiveBatch(
            anchors=np.array([[1.0, 0.0]]).repeat(2, 0) * np.array([[1], [1]]),
            candidates=np.vstack([y, y]),
            temperature=1.0,
        )
        npt.assert_allclose(float(terms(batch).losses[0]), np.log(2.0), rtol=1e-15)

    def test_analytic_two_candidate_value(self):
        batch = ContrastiveBatch(
            anchors=np.array([[1.0, 0.0], [0.0, 1.0]]),
            candidates=np.array([[1.0, 0.0], [0.0, 1.0]]),
            temperature=1.0,
        )
        # matched sim 1, mismatched 0: loss = -log(e / (e + 1))
        npt.assert_allclose(float(terms(batch).losses[0]), -np.log(np.e / (np.e + 1.0)), rtol=1e-14)

    def test_loss_matches_oracle(self):
        rng = np.random.default_rng(0)
        batch = random_batch(rng)
        for i in range(batch.size):
            npt.assert_allclose(
                float(terms(batch).losses[i]),
                loss_oracle(batch.anchors[i], batch.candidates, batch.temperature, i),
                rtol=1e-14,
            )

    def test_temperature_validation(self):
        with pytest.raises(ValueError):
            ContrastiveBatch(np.array([[1.0]]), np.array([[1.0]]), temperature=0.0)

    def test_unit_norm_validation(self):
        with pytest.raises(DataFormatError):
            ContrastiveBatch(np.array([[2.0, 0.0]]), np.array([[1.0, 0.0]]), temperature=1.0)


class TestGradients:
    def test_single_candidate_zero_gradient(self):
        batch = ContrastiveBatch(
            anchors=np.array([[1.0, 0.0]]), candidates=np.array([[0.0, 1.0]]), temperature=0.5
        )
        npt.assert_allclose(grad_anchor(batch, 0), np.zeros(2), atol=1e-15)

    @pytest.mark.parametrize("tau", [0.05, 0.5, 1.0])
    def test_anchor_gradient_finite_differences(self, tau):
        rng = np.random.default_rng(1)
        h = 1e-5
        for _ in range(10):
            batch = random_batch(rng, tau=tau)
            i = int(rng.integers(batch.size))
            g = grad_anchor(batch, i)
            fd = np.empty_like(g)
            for axis in range(batch.anchors.shape[1]):
                plus = batch.anchors[i].copy()
                minus = batch.anchors[i].copy()
                plus[axis] += h
                minus[axis] -= h
                fd[axis] = (
                    loss_oracle(plus, batch.candidates, tau, i)
                    - loss_oracle(minus, batch.candidates, tau, i)
                ) / (2 * h)
            assert np.linalg.norm(fd - g) / np.linalg.norm(g) < 1e-6

    @pytest.mark.parametrize("tau", [0.05, 0.5, 1.0])
    def test_candidate_gradient_finite_differences(self, tau):
        rng = np.random.default_rng(2)
        h = 1e-5

        def loss_in_candidate(cand_vec, batch, i, j):
            cands = batch.candidates.copy()
            cands[j] = cand_vec
            return loss_oracle(batch.anchors[i], cands, tau, i)

        for _ in range(5):
            batch = random_batch(rng, tau=tau)
            i, j = int(rng.integers(batch.size)), int(rng.integers(batch.size))
            g = grad_candidate(batch, i, j)
            fd = np.empty_like(g)
            for axis in range(batch.candidates.shape[1]):
                plus = batch.candidates[j].copy()
                minus = batch.candidates[j].copy()
                plus[axis] += h
                minus[axis] -= h
                fd[axis] = (
                    loss_in_candidate(plus, batch, i, j) - loss_in_candidate(minus, batch, i, j)
                ) / (2 * h)
            # saturated pairs have vanishing gradients; floor the scale so
            # the comparison stays meaningful instead of dividing by ~0
            denom = max(np.linalg.norm(g), np.linalg.norm(fd), 1.0)
            assert np.linalg.norm(fd - g) / denom < 1e-6

    def test_anchor_gradient_lies_in_candidate_span(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            batch = random_batch(rng)
            i = int(rng.integers(batch.size))
            g = grad_anchor(batch, i)
            coeffs, *_ = np.linalg.lstsq(batch.candidates.T, g, rcond=None)
            residual = g - batch.candidates.T @ coeffs
            assert np.linalg.norm(residual) / np.linalg.norm(g) < 1e-10

    def test_candidate_gradient_collinear_with_anchor(self):
        rng = np.random.default_rng(4)
        batch = random_batch(rng)
        for i in range(batch.size):
            for j in range(batch.size):
                g = grad_candidate(batch, i, j)
                x = batch.anchors[i]
                cross = g - (g @ x) * x
                assert np.linalg.norm(cross) <= 1e-12 * max(np.linalg.norm(g), 1.0)

    def test_saturated_softmax_kills_matched_candidate_gradient(self):
        anchors = np.eye(2)
        candidates = np.eye(2)
        batch = ContrastiveBatch(anchors, candidates, temperature=0.01)
        assert np.linalg.norm(grad_candidate(batch, 0, 0)) < 1e-12

    def test_softmax_simplex(self):
        rng = np.random.default_rng(5)
        batch = random_batch(rng, b=32)
        for i in range(batch.size):
            assert abs(terms(batch).weights[i].sum() - 1.0) < 1e-12
        npt.assert_allclose(terms(batch).weights.sum(axis=1), np.ones(32), atol=1e-12)

    def test_batched_gradients_match_scalar(self):
        rng = np.random.default_rng(6)
        batch = random_batch(rng)
        grads = terms(batch).grad_anchors * batch.size
        for i in range(batch.size):
            npt.assert_allclose(grads[i], grad_anchor(batch, i), atol=1e-14)
        totals = terms(batch).grad_candidates * batch.size
        for j in range(batch.size):
            expected = np.sum([grad_candidate(batch, i, j) for i in range(batch.size)], axis=0)
            npt.assert_allclose(totals[j], expected, atol=1e-13)


class TestCoupling:
    def test_independent_residuals(self):
        rng = np.random.default_rng(7)
        n, r, m = 10_000, 8, 24
        est = estimate_coupling(rng.normal(size=(n, r)), rng.normal(size=(n, m)), ridge=1e-6)
        assert est.spectral_norm < 3.0 * (np.sqrt(r) + np.sqrt(m)) / np.sqrt(n)
        assert est.r_squared < 0.02

    def test_exact_linear_recovery(self):
        rng = np.random.default_rng(8)
        n, r, m = 5_000, 6, 10
        planted = rng.normal(size=(m, r)) * 0.3
        delta = rng.normal(size=(n, r))
        zeta = delta @ planted.T
        est = estimate_coupling(delta, zeta, ridge=1e-10)
        assert np.linalg.norm(est.matrix - planted) / np.linalg.norm(planted) < 1e-6
        assert est.r_squared > 1.0 - 1e-9

    def test_noisy_recovery_at_snr_10(self):
        rng = np.random.default_rng(9)
        n, r, m = 10_000, 6, 10
        planted = rng.normal(size=(m, r)) * 0.5
        delta = rng.normal(size=(n, r))
        signal = delta @ planted.T
        noise_var = np.mean(signal**2) / 10.0
        zeta = signal + rng.normal(size=(n, m)) * np.sqrt(noise_var)
        est = estimate_coupling(delta, zeta, ridge=1e-8)
        assert np.linalg.norm(est.matrix - planted) / np.linalg.norm(planted) < 0.10

    def test_negative_ridge_rejected(self):
        with pytest.raises(ValueError):
            estimate_coupling(np.ones((5, 2)), np.ones((5, 3)), ridge=-1.0)

    def test_uncentered_input_warns(self):
        rng = np.random.default_rng(10)
        delta = rng.normal(size=(500, 3)) + 5.0
        zeta = rng.normal(size=(500, 4))
        with pytest.warns(UserWarning, match="zero-mean"):
            estimate_coupling(delta, zeta)


class TestLeakageBound:
    @staticmethod
    def tilted_frame(rng, d, r, angle):
        """A frozen frame plus a basis rotated by `angle` in one plane."""
        frame = ReferenceFrame(
            basis=np.eye(d)[:, :r].astype(np.float64), energy_threshold=0.9
        )
        basis_t = frame.basis.copy()
        basis_t[:, 0] = 0.0
        basis_t[0, 0] = np.cos(angle)
        basis_t[r, 0] = np.sin(angle)
        return frame, basis_t

    def test_in_span_vectors_never_violate(self):
        rng = np.random.default_rng(11)
        frame, basis_t = self.tilted_frame(rng, d=12, r=4, angle=0.3)
        g = rng.normal(size=(500, 4)) @ basis_t.T
        report = leakage_bound_check(g, frame, basis_t, coupling=0.0)
        assert report.violation_fraction == 0.0
        assert report.max_excess <= 0.0

    def test_constructed_coupled_vectors_satisfy_extended_bound(self):
        rng = np.random.default_rng(12)
        d, r = 16, 5
        frame, basis_t = self.tilted_frame(rng, d, r, angle=0.1)
        coupling = rng.normal(size=(d - r, r))
        coupling *= 0.05 / np.linalg.svd(coupling, compute_uv=False)[0]
        comp = frame.complement_basis()
        w = rng.normal(size=(2000, r)) @ basis_t.T
        g = w + (frame.coords(w) @ coupling.T) @ comp.T
        report = leakage_bound_check(g, frame, basis_t, coupling=coupling)
        assert report.violation_fraction == 0.0

    def test_adversarial_noise_is_reported(self):
        rng = np.random.default_rng(13)
        d, r = 10, 3
        frame, basis_t = self.tilted_frame(rng, d, r, angle=0.05)
        comp = frame.complement_basis()
        g = rng.normal(size=(200, r)) @ basis_t.T
        g = g + rng.normal(size=(200, d - r)) @ comp.T  # large out-of-model noise
        report = leakage_bound_check(g, frame, basis_t, coupling=0.0)
        assert report.violation_fraction > 0.5
        assert report.max_excess > 0.0


class TestMomentIdentities:
    def test_planted_model_small_residuals(self):
        rng = np.random.default_rng(14)
        n, r, m = 100_000, 5, 8
        planted = rng.normal(size=(m, r)) * 0.4
        delta = rng.normal(size=(n, r))
        zeta = delta @ planted.T + rng.normal(size=(n, m)) * 0.5
        res = moment_identity_check(delta, zeta, planted)
        assert res.cross_rel < 0.02
        assert res.cov_rel < 0.02

    def test_zero_coupling_cross_term_is_sampling_noise(self):
        rng = np.random.default_rng(15)
        n, r, m = 20_000, 4, 6
        res = moment_identity_check(
            rng.normal(size=(n, r)), rng.normal(size=(n, m)), np.zeros((m, r))
        )
        assert res.cross_abs < 3.0 * np.sqrt(r * m) / np.sqrt(n)

    def test_deterministic_coupling_exact(self):
        rng = np.random.default_rng(16)
        n, r, m = 2_000, 4, 7
        planted = rng.normal(size=(m, r))
        delta = rng.normal(size=(n, r))
        res = moment_identity_check(delta, delta @ planted.T, planted)
        assert res.cross_abs < 1e-10
        assert res.cov_abs < 1e-10
