"""Desk-scale dual-encoder contrastive training with live geometric tracing.

Two linear encoders with output normalization are trained on synthetic
paired data drawn from a shared latent variable, using the
temperature-scaled contrastive loss with dot-product similarities.  The
synthetic generator deliberately reproduces the three structural
conditions under which a persistent gap between the modalities
survives: separate encoders per modality, an explicit projection onto
the unit sphere, and a dot-product similarity head.  Each condition can
be ablated.

At a configurable reference step the frame of the dominant covariance
subspace is frozen; from then on every logging step records the frame
statistics (subspace rotation, gradient leakage, orthogonal-bias norm
and drift, residual condition numbers, spectrum correlation, coupling
strength) on a held-out probe set.

Gradients are closed-form throughout (two-layer chain rule through the
normalization), so a finite-difference oracle can check the entire
training step end to end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .contrastive import estimate_coupling, loss_and_grads
from .errors import DegenerateInputError
from .frame import (
    ReferenceFrame,
    build_frame,
    cosine_stability,
    decompose_gap,
    geometric_baseline,
    leakage_ratio,
    relative_drift,
    spectrum_correlation,
    noise_angle_degrees,
)
from .io import _row_norms
from .moments import stats_of
from .spectral import condition_number, sym_eig, tyler_shape


_BOOLEANS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}

# The fields that size each array a run allocates: draws of probe_size or batch_size
# rows, the fixed maps and encoder weights, batch logits, embedding covariances and the
# logged steps.  None may exceed _MAX_ELEMENTS, the cap of ``diagnose --pairs``.
_ARRAY_SHAPES = (*((rows, cols) for rows in ("probe_size", "batch_size")
                   for cols in ("input_dim", "latent_dim", "noise_rank", "embed_dim")),
                 ("input_dim", "latent_dim"), ("input_dim", "noise_rank"),
                 ("input_dim", "embed_dim"), ("batch_size", "batch_size"),
                 ("embed_dim", "embed_dim"), ("steps",))
_MAX_ELEMENTS = 10**8
# the least value of each field that has one and no other bound
_LEAST = dict(embed_dim=1, input_dim=1, latent_dim=1, batch_size=2, steps=1, probe_size=4,
              noise_rank=0, data_seed=0, init_seed=0, latent_decay=0.0, learning_rate=0.0,
              offset_scale=0.0, channel_noise=0.0, channel_noise_decay=0.0, noise_scale=0.0,
              white_noise=0.0, coupling_ridge=0.0)


@dataclass
class SimulatorConfig:
    """Knobs for the toy training run.

    The generator draws a shared latent z with power-law variances
    (j^-latent_decay), maps it through fixed per-modality linear maps,
    adds a modality-specific offset and small anisotropic noise, and the
    encoders see those raw vectors.  ``freeze_fraction`` places the
    reference step as a fraction of total steps, snapped to a logging
    step.
    """

    embed_dim: int = 64
    input_dim: int = 384
    latent_dim: int = 12
    latent_decay: float = 2.6
    batch_size: int = 256
    steps: int = 2000
    temperature: float = 1.0
    learning_rate: float = 5e-4
    probe_size: int = 2048
    log_every: int = 20
    freeze_fraction: float = 0.4
    energy: float = 0.9
    offset_scale: float = 1.0
    channel_noise: float = 0.1
    channel_noise_decay: float = 0.0
    noise_scale: float = 0.025
    noise_rank: int = 8
    noise_decay: float = 0.8
    white_noise: float = 0.02
    coupling_ridge: float = 1e-6
    data_seed: int = 0
    init_seed: int = 1
    # structural ablations
    shared_encoder: bool = False
    normalize_outputs: bool = True
    similarity: str = "dot"  # "dot" or "sqdist"

    def validate(self):
        """Refuse a field out of its range, naming it, before a run draws or allocates."""
        rules = {name: (f">= {least}", getattr(self, name) >= least)
                 for name, least in _LEAST.items()}
        rules.update({
            "log_every": (f"in [1, steps = {self.steps}]", 1 <= self.log_every <= self.steps),
            "temperature": ("> 0", self.temperature > 0),
            "noise_decay": ("> 0", self.noise_decay > 0),
            "freeze_fraction": ("in (0, 1)", 0 < self.freeze_fraction < 1),
            "energy": ("in (0, 1]", 0 < self.energy <= 1),
            "similarity": ("'dot' or 'sqdist'", self.similarity in ("dot", "sqdist")),
        })
        for name, (rule, ok) in rules.items():
            value = getattr(self, name)
            if isinstance(value, float):
                ok, rule = ok and math.isfinite(value), f"finite and {rule}"
            if not ok:
                raise ValueError(f"simulator config {name} must be {rule}, got {value!r}")
        for shape in _ARRAY_SHAPES:
            size = math.prod(getattr(self, name) for name in shape)
            if size > _MAX_ELEMENTS:
                raise ValueError(f"simulator config {' x '.join(shape)} = {size} exceeds "
                                 f"{_MAX_ELEMENTS} elements")

    @staticmethod
    def from_mapping(mapping: dict) -> "SimulatorConfig":
        """Parse each value as the type of its field's default; booleans in any case."""
        defaults = {f.name: f.default for f in fields(SimulatorConfig)}
        kwargs = {}
        for key, value in mapping.items():
            if key not in defaults:
                raise ValueError(f"unknown simulator config key {key!r}")
            kind = type(defaults[key])
            if kind is bool and str(value).lower() not in _BOOLEANS:
                raise ValueError(f"simulator config key {key!r} needs 1/true/yes or 0/false/no, "
                                 f"got {value!r}")
            try:
                kwargs[key] = _BOOLEANS[str(value).lower()] if kind is bool else kind(value)
            except ValueError:
                raise ValueError(f"simulator config key {key!r} must be of type {kind.__name__}, "
                                 f"got {value!r}") from None
        return SimulatorConfig(**kwargs)


@dataclass
class TrainingTrace:
    """Per-logging-step geometric statistics, recorded after the freeze."""

    steps: list = field(default_factory=list)
    sin_theta: list = field(default_factory=list)
    leak_ref: list = field(default_factory=list)
    gamma_norm: list = field(default_factory=list)
    drift: list = field(default_factory=list)
    cos_stability: list = field(default_factory=list)
    kappa_u: list = field(default_factory=list)
    kappa_v: list = field(default_factory=list)
    rho_align: list = field(default_factory=list)
    gamma_noise_angle: list = field(default_factory=list)
    coupling_norm: list = field(default_factory=list)
    loss: list = field(default_factory=list)
    freeze_step: int = 0
    rank: int = 0

    def check(self):
        lengths = {name: len(getattr(self, name)) for name in self._SERIES}
        if len(set(lengths.values())) != 1:
            raise AssertionError(f"ragged trace series: {lengths}")
        for name in self._SERIES:
            if not np.isfinite(getattr(self, name)).all():
                raise AssertionError(f"non-finite entries in trace series {name}")

    def header(self):
        return list(self._SERIES)

    def rows(self):
        return list(zip(*(getattr(self, name) for name in self._SERIES)))


# the list-valued fields, in declaration order: one column per logged series
TrainingTrace._SERIES = tuple(f.name for f in fields(TrainingTrace) if f.default_factory is list)


class PairedDataGenerator:
    """Synthetic paired samples from a shared anisotropic latent."""

    def __init__(self, config: SimulatorConfig):
        self.config = config
        structure = np.random.default_rng(config.data_seed)
        k, m = config.latent_dim, config.input_dim
        self.latent_std = np.arange(1, k + 1, dtype=np.float64) ** (-config.latent_decay / 2.0)
        self.channel_noise_std = config.channel_noise * np.arange(1, k + 1, dtype=np.float64) ** (
            -config.channel_noise_decay / 2.0
        )
        self.map_x = structure.normal(size=(m, k)) / np.sqrt(m)
        self.offset_x = structure.normal(size=m)
        self.offset_x *= config.offset_scale / np.linalg.norm(self.offset_x)
        # per-modality structured noise: a few strong directions with
        # decaying scales (survives the encoder's mixing, so the
        # complement subspace keeps a genuinely anisotropic shape) plus
        # a small white floor
        q = config.noise_rank
        scales = config.noise_scale * np.geomspace(1.0, config.noise_decay, q)

        def noise_mixer():
            mix = structure.normal(size=(m, q)) / np.sqrt(m)
            mix /= np.linalg.norm(mix, axis=0)
            return mix * scales

        self.noise_mix_x = noise_mixer()
        if config.shared_encoder:
            # the ablation removes every modality asymmetry: same map,
            # same offset, same noise law (draws stay independent)
            self.map_y = self.map_x
            self.offset_y = self.offset_x
            self.noise_mix_y = self.noise_mix_x
        else:
            self.map_y = structure.normal(size=(m, k)) / np.sqrt(m)
            self.offset_y = structure.normal(size=m)
            self.offset_y *= config.offset_scale / np.linalg.norm(self.offset_y)
            self.noise_mix_y = noise_mixer()
        self.white_std = config.white_noise
        self.stream = np.random.default_rng(config.data_seed + 1)

    def draw(self, n: int):
        cfg = self.config
        z = self.stream.normal(size=(n, cfg.latent_dim)) * self.latent_std
        # per-channel readout noise with its own decay profile: pair
        # alignment along each latent axis is noise-limited, so the
        # paired-difference spectrum follows this profile (as reshaped by
        # the encoder's learned gains) rather than flattening out
        eta_x = self.stream.normal(size=z.shape) * self.channel_noise_std
        eta_y = self.stream.normal(size=z.shape) * self.channel_noise_std
        u_x = (z + eta_x) @ self.map_x.T + self.offset_x
        u_x += self.stream.normal(size=(n, cfg.noise_rank)) @ self.noise_mix_x.T
        u_x += self.white_std * self.stream.normal(size=u_x.shape)
        u_y = (z + eta_y) @ self.map_y.T + self.offset_y
        u_y += self.stream.normal(size=(n, cfg.noise_rank)) @ self.noise_mix_y.T
        u_y += self.white_std * self.stream.normal(size=u_y.shape)
        return u_x, u_y


class _Encoders:
    """Two linear maps with optional output normalization and exact backprop."""

    def __init__(self, config: SimulatorConfig):
        self.config = config
        init = np.random.default_rng(config.init_seed)
        d, m = config.embed_dim, config.input_dim
        self.w_x = init.normal(size=(d, m)) / np.sqrt(m)
        if config.shared_encoder:
            self.w_y = self.w_x.copy()
        else:
            self.w_y = init.normal(size=(d, m)) / np.sqrt(m)

    def embed(self, inputs: np.ndarray, weights: np.ndarray):
        """Return (embeddings, raw outputs, raw norms)."""
        raw = inputs @ weights.T
        if not self.config.normalize_outputs:
            return raw, raw, None
        norms = _row_norms(raw, "encoder output")[:, None]
        return raw / norms, raw, norms

    @staticmethod
    def backprop_embedding(grad_e, embeddings, norms):
        """Pull a gradient in embedding space back through the normalization."""
        if norms is None:
            return grad_e
        radial = np.sum(grad_e * embeddings, axis=1, keepdims=True)
        return (grad_e - radial * embeddings) / norms

    def step(self, u_x, u_y, grad_hx, grad_hy, lr):
        gw_x = grad_hx.T @ u_x
        gw_y = grad_hy.T @ u_y
        if self.config.shared_encoder:
            shared = gw_x + gw_y
            self.w_x = self.w_x - lr * shared
            self.w_y = self.w_x
        else:
            self.w_x = self.w_x - lr * gw_x
            self.w_y = self.w_y - lr * gw_y


def _batch_loss_and_grads(e_x, e_y, config: SimulatorConfig):
    """Mean contrastive loss over the batch and its embedding gradients."""
    return loss_and_grads(e_x, e_y, config.temperature, config.similarity)[:3]


def _probe_anchor_gradients(e_x, e_y, config: SimulatorConfig):
    """Per-sample anchor gradients: each ``batch_size`` rows' mean-loss gradient times their count."""
    b = config.batch_size
    return np.vstack([_batch_loss_and_grads(e_x[lo:lo + b], e_y[lo:lo + b], config)[1]
                      * len(e_x[lo:lo + b]) for lo in range(0, len(e_x), b)])


def run_toy_training(config: SimulatorConfig) -> TrainingTrace:
    """Train the toy dual encoder and trace frame statistics after the freeze.

    Raises ``DegenerateInputError`` naming the step if the loss diverges.
    """
    config.validate()
    generator = PairedDataGenerator(config)
    encoders = _Encoders(config)
    probe_x, probe_y = generator.draw(config.probe_size)

    log_steps = [t for t in range(config.log_every, config.steps + 1, config.log_every)]
    freeze_at = next(
        (t for t in log_steps if t >= config.freeze_fraction * config.steps), log_steps[-1]
    )

    trace = TrainingTrace()
    frame: ReferenceFrame | None = None
    comp_basis = None
    gamma_ref = None
    gamma_prev = None
    last_loss = float("nan")

    for step in range(1, config.steps + 1):
        u_x, u_y = generator.draw(config.batch_size)
        e_x, raw_x, norms_x = encoders.embed(u_x, encoders.w_x)
        e_y, raw_y, norms_y = encoders.embed(u_y, encoders.w_y)
        loss, grad_ex, grad_ey = _batch_loss_and_grads(e_x, e_y, config)
        if not np.isfinite(loss):
            raise DegenerateInputError(f"training diverged at step {step} (loss={loss})")
        last_loss = loss
        grad_hx = encoders.backprop_embedding(grad_ex, e_x, norms_x)
        grad_hy = encoders.backprop_embedding(grad_ey, e_y, norms_y)
        encoders.step(u_x, u_y, grad_hx, grad_hy, config.learning_rate)

        if step not in log_steps or step < freeze_at:
            continue

        pe_x, _, _ = encoders.embed(probe_x, encoders.w_x)
        pe_y, _, _ = encoders.embed(probe_y, encoders.w_y)
        cov_x = stats_of(pe_x, track_cov=True).covariance
        cov_y = stats_of(pe_y, track_cov=True).covariance

        if frame is None:
            frame = build_frame(cov_x, cov_y, energy=config.energy, created_at_step=step)
            comp_basis = frame.complement_basis()
            trace.freeze_step = step
            trace.rank = frame.rank

        basis_t = sym_eig(cov_x + cov_y).eigenvectors[:, : frame.rank]
        sin_theta = geometric_baseline(frame, basis_t)

        probe_grads = _probe_anchor_gradients(pe_x, pe_y, config)
        leak = leakage_ratio(probe_grads.mean(axis=0), frame)

        dec = decompose_gap(pe_x, pe_y, frame)
        gamma = dec.bias_out
        gamma_norm = float(np.linalg.norm(gamma))
        if gamma_ref is None:
            gamma_ref = gamma
        drift = relative_drift(gamma, gamma_ref)
        stability = 1.0 if gamma_prev is None else cosine_stability(gamma, gamma_prev)
        gamma_prev = gamma

        sigma_u = stats_of(dec.resid_in, track_cov=True).covariance
        kappa_u = condition_number(sym_eig(sigma_u).eigenvalues)

        zeta_coords = dec.resid_out @ comp_basis
        shape_v = tyler_shape(zeta_coords, tol=1e-6, max_iter=200)
        kappa_v = condition_number(sym_eig(shape_v.sigma_hat).eigenvalues)
        angle = noise_angle_degrees(comp_basis.T @ gamma, shape_v.sigma_hat)

        grad_cov_u = stats_of(probe_grads @ frame.basis, track_cov=True).covariance
        rho = spectrum_correlation(sigma_u, grad_cov_u)

        coupling = estimate_coupling(dec.resid_in, zeta_coords, ridge=config.coupling_ridge)

        logged = dict(steps=step, sin_theta=sin_theta, leak_ref=leak, gamma_norm=gamma_norm,
                      drift=drift, cos_stability=stability, kappa_u=kappa_u, kappa_v=kappa_v,
                      rho_align=rho, gamma_noise_angle=angle,
                      coupling_norm=coupling.spectral_norm, loss=last_loss)
        for name, value in logged.items():
            getattr(trace, name).append(value)

    trace.check()
    return trace


_ABLATION_VARIANTS = {
    "baseline": {},
    "shared_encoder": {"shared_encoder": True},
    "no_normalization": {"normalize_outputs": False},
    "sqdist_head": {"similarity": "sqdist"},
}


def gap_necessity_ablation(
    config: SimulatorConfig, seeds=(0, 1, 2, 3, 4), variants=None
) -> dict:
    """Terminal orthogonal-bias norm under each structural ablation.

    Runs the baseline plus three single-condition ablations (shared
    encoder, no output normalization, squared-distance head) for every
    seed and reports per-variant mean terminal gamma norms together
    with the baseline-to-shared ratio, None when the shared mean is 0.
    ``variants`` may name a subset (the baseline is always included).
    """
    names = list(_ABLATION_VARIANTS) if variants is None else list(variants)
    if "baseline" not in names:
        names.insert(0, "baseline")
    unknown = set(names) - set(_ABLATION_VARIANTS)
    if unknown:
        raise ValueError(f"unknown ablation variants: {sorted(unknown)}")
    results = {name: [] for name in names}
    for seed in seeds:
        for name in names:
            cfg = replace(
                config, data_seed=seed, init_seed=seed + 1000, **_ABLATION_VARIANTS[name]
            )
            trace = run_toy_training(cfg)
            results[name].append(trace.gamma_norm[-1])
    report = {
        name: {"terminal_gamma": vals, "mean": float(np.mean(vals))}
        for name, vals in results.items()
    }
    if "shared_encoder" in report:
        shared = report["shared_encoder"]["mean"]
        report["baseline_over_shared"] = (
            None if shared == 0 else report["baseline"]["mean"] / shared
        )
    return report
