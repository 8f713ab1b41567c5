import numpy as np
import numpy.testing as npt
import pytest

from gapalign import ContrastiveBatch, DegenerateInputError
from gapalign.contrastive import loss_and_grads
from gapalign import simulator
from gapalign.simulator import (
    PairedDataGenerator,
    SimulatorConfig,
    _batch_loss_and_grads,
    _Encoders,
    gap_necessity_ablation,
    run_toy_training,
)


def tiny_config(**overrides):
    base = dict(
        embed_dim=16,
        input_dim=48,
        latent_dim=6,
        batch_size=32,
        steps=100,
        probe_size=256,
        log_every=20,
        learning_rate=5e-4,
    )
    base.update(overrides)
    return SimulatorConfig(**base)


def batch_loss_and_grads_oracle(e_x, e_y, config):
    """The two-exp loss with a dense identity: the reference the fused loss must match."""
    b = e_x.shape[0]
    tau = config.temperature
    if config.similarity == "dot":
        logits = e_x @ e_y.T / tau
    else:
        logits = -(
            np.sum(e_x * e_x, axis=1)[:, None]
            + np.sum(e_y * e_y, axis=1)[None, :]
            - 2.0 * e_x @ e_y.T
        ) / tau
    shift = logits.max(axis=1, keepdims=True)
    logsumexp = np.log(np.exp(logits - shift).sum(axis=1)) + shift[:, 0]
    loss = float(np.mean(logsumexp - np.diag(logits)))
    p = np.exp(logits - shift)
    p /= p.sum(axis=1, keepdims=True)
    coeff = p - np.eye(b)
    if config.similarity == "dot":
        grad_x = coeff @ e_y / (tau * b)
        grad_y = coeff.T @ e_x / (tau * b)
    else:
        row = coeff.sum(axis=1, keepdims=True)
        grad_x = (-2.0 / (tau * b)) * (row * e_x - coeff @ e_y)
        col = coeff.sum(axis=0)[:, None]
        grad_y = (-2.0 / (tau * b)) * (col * e_y - coeff.T @ e_x)
    return loss, grad_x, grad_y


class TestBatchGradients:
    @pytest.mark.parametrize("similarity", ["dot", "sqdist"])
    def test_training_trace_bitwise_equal_to_oracle_loss(self, monkeypatch, similarity):
        got = run_toy_training(tiny_config(similarity=similarity))
        monkeypatch.setattr(simulator, "_batch_loss_and_grads", batch_loss_and_grads_oracle)
        want = run_toy_training(tiny_config(similarity=similarity))
        assert (got.freeze_step, got.rank) == (want.freeze_step, want.rank)
        for name in got._SERIES:
            assert np.array_equal(getattr(got, name), getattr(want, name)), name

    @pytest.mark.parametrize("similarity", ["dot", "sqdist"])
    def test_kernel_bitwise_equal_to_oracle(self, similarity):
        # the trace test above cannot see a last-ulp gradient change: the
        # learning rate shrinks it below one ulp of the weights
        rng = np.random.default_rng(4)
        for b, d, tau in ((2, 3, 1.0), (17, 5, 0.07), (32, 16, 0.5), (256, 64, 1.0)):
            e_x = rng.normal(size=(b, d))
            e_y = rng.normal(size=(b, d))
            if b == 256:
                e_x /= np.linalg.norm(e_x, axis=1, keepdims=True)
                e_y /= np.linalg.norm(e_y, axis=1, keepdims=True)
            cfg = tiny_config(temperature=tau, similarity=similarity)
            got = _batch_loss_and_grads(e_x, e_y, cfg)
            want = batch_loss_and_grads_oracle(e_x, e_y, cfg)
            assert got[0] == want[0]
            for g, w in zip(got[1:], want[1:]):
                assert np.array_equal(g, w)

    def test_matches_contrastive_oracle_on_unit_rows(self):
        rng = np.random.default_rng(0)
        b, d = 16, 8
        e_x = rng.normal(size=(b, d))
        e_x /= np.linalg.norm(e_x, axis=1, keepdims=True)
        e_y = rng.normal(size=(b, d))
        e_y /= np.linalg.norm(e_y, axis=1, keepdims=True)
        cfg = tiny_config(temperature=0.4)
        loss, grad_x, grad_y = _batch_loss_and_grads(e_x, e_y, cfg)
        batch = ContrastiveBatch(anchors=e_x, candidates=e_y, temperature=0.4)
        terms = loss_and_grads(batch.anchors, batch.candidates, batch.temperature)
        npt.assert_allclose(grad_x * b, terms.grad_anchors * batch.size, atol=1e-13)
        npt.assert_allclose(grad_y * b, terms.grad_candidates * batch.size, atol=1e-13)

    @pytest.mark.parametrize("similarity", ["dot", "sqdist"])
    def test_loss_gradient_finite_difference(self, similarity):
        rng = np.random.default_rng(1)
        b, d = 6, 5
        e_x = rng.normal(size=(b, d))
        e_y = rng.normal(size=(b, d))
        cfg = tiny_config(temperature=0.7, similarity=similarity)
        _, grad_x, grad_y = _batch_loss_and_grads(e_x, e_y, cfg)
        h = 1e-6
        for arr, grad in ((e_x, grad_x), (e_y, grad_y)):
            for _ in range(10):
                i = int(rng.integers(b))
                j = int(rng.integers(d))
                arr[i, j] += h
                up = _batch_loss_and_grads(e_x, e_y, cfg)[0]
                arr[i, j] -= 2 * h
                down = _batch_loss_and_grads(e_x, e_y, cfg)[0]
                arr[i, j] += h
                npt.assert_allclose((up - down) / (2 * h), grad[i, j], rtol=1e-5, atol=1e-9)

    def test_end_to_end_weight_gradient_finite_difference(self):
        """Full chain rule: loss -> normalization -> linear encoder weights."""
        cfg = tiny_config()
        gen = PairedDataGenerator(cfg)
        enc = _Encoders(cfg)
        u_x, u_y = gen.draw(cfg.batch_size)

        def total_loss():
            e_x, _, _ = enc.embed(u_x, enc.w_x)
            e_y, _, _ = enc.embed(u_y, enc.w_y)
            return _batch_loss_and_grads(e_x, e_y, cfg)[0]

        e_x, _, n_x = enc.embed(u_x, enc.w_x)
        e_y, _, n_y = enc.embed(u_y, enc.w_y)
        _, g_ex, g_ey = _batch_loss_and_grads(e_x, e_y, cfg)
        gw_x = enc.backprop_embedding(g_ex, e_x, n_x).T @ u_x
        gw_y = enc.backprop_embedding(g_ey, e_y, n_y).T @ u_y

        rng = np.random.default_rng(2)
        h = 1e-6
        for weights, grad in ((enc.w_x, gw_x), (enc.w_y, gw_y)):
            for _ in range(8):
                i = int(rng.integers(weights.shape[0]))
                j = int(rng.integers(weights.shape[1]))
                weights[i, j] += h
                up = total_loss()
                weights[i, j] -= 2 * h
                down = total_loss()
                weights[i, j] += h
                npt.assert_allclose((up - down) / (2 * h), grad[i, j], rtol=1e-4, atol=1e-9)


class TestRunToyTraining:
    def test_trace_series_aligned_and_finite(self):
        trace = run_toy_training(tiny_config())
        lengths = {len(getattr(trace, name)) for name in trace._SERIES}
        assert len(lengths) == 1
        assert trace.freeze_step >= 0.4 * 100
        assert trace.rank >= 1
        for name in trace._SERIES:
            assert np.isfinite(getattr(trace, name)).all()

    def test_deterministic_given_seeds(self):
        a = run_toy_training(tiny_config())
        b = run_toy_training(tiny_config())
        npt.assert_array_equal(a.gamma_norm, b.gamma_norm)
        npt.assert_array_equal(a.leak_ref, b.leak_ref)
        npt.assert_array_equal(a.kappa_u, b.kappa_u)

    def test_different_seed_differs(self):
        a = run_toy_training(tiny_config())
        b = run_toy_training(tiny_config(data_seed=9, init_seed=10))
        assert not np.array_equal(a.gamma_norm, b.gamma_norm)

    def test_zero_learning_rate_freezes_dynamics(self):
        trace = run_toy_training(tiny_config(learning_rate=0.0, steps=120))
        npt.assert_array_equal(trace.drift, np.zeros(len(trace.drift)))
        npt.assert_allclose(trace.cos_stability, np.ones(len(trace.cos_stability)), atol=1e-12)
        assert max(trace.sin_theta) < 1e-6

    def test_divergence_reports_step(self):
        cfg = tiny_config(normalize_outputs=False, learning_rate=50.0, steps=400)
        with pytest.raises(DegenerateInputError, match="step"):
            run_toy_training(cfg)

    def test_sqdist_head_runs(self):
        trace = run_toy_training(tiny_config(similarity="sqdist"))
        assert len(trace.steps) > 0

    def test_config_validation(self):
        with pytest.raises(ValueError):
            run_toy_training(tiny_config(similarity="cosine"))
        with pytest.raises(ValueError):
            run_toy_training(tiny_config(temperature=0.0))

    def test_config_from_mapping_round_trip(self):
        cfg = SimulatorConfig.from_mapping(
            {"steps": "50", "learning_rate": "1e-3", "shared_encoder": "true"}
        )
        assert cfg.steps == 50
        assert cfg.learning_rate == 1e-3
        assert cfg.shared_encoder is True
        with pytest.raises(ValueError):
            SimulatorConfig.from_mapping({"not_a_key": 1})

    @pytest.mark.parametrize("spelling", ["on", "flase", "", "2"])
    def test_config_from_mapping_rejects_unknown_boolean_spellings(self, spelling):
        # these once parsed as False: "on" turned normalisation off
        with pytest.raises(ValueError, match="normalize_outputs"):
            SimulatorConfig.from_mapping({"normalize_outputs": spelling})

    def test_config_from_mapping_booleans_ignore_case(self):
        for text, want in [("YES", True), ("True", True), ("1", True),
                           ("No", False), ("FALSE", False), ("0", False)]:
            assert SimulatorConfig.from_mapping({"shared_encoder": text}).shared_encoder is want


class TestAblation:
    def test_report_structure_and_shared_suppression(self):
        cfg = tiny_config(steps=80, offset_scale=1.5)
        report = gap_necessity_ablation(cfg, seeds=(0, 1))
        for name in ("baseline", "shared_encoder", "no_normalization", "sqdist_head"):
            assert name in report
            assert len(report[name]["terminal_gamma"]) == 2
        assert report["baseline_over_shared"] > 1.0
