"""The switch block: latent mask, route predictor, and lightweight decoder.

The block sits at a chosen depth inside an autoencoder. The mask multiplies
each latent dimension by a learned weight (L1-penalized so unused dimensions
collapse to zero), the lightweight decoder is a shallow two-layer network
trained to imitate the remaining layers, and the switch is a tiny regressor
that predicts, per sample, how far the lightweight output will land from the
full one. At inference the predicted distance against a threshold decides
which of the two passes runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autograd as ag
from . import nn
from .autograd import Tensor
from .errors import ConfigError, ContractError, DimensionError

LIGHT = "light"
FULL = "full"

#: Light fraction a threshold is calibrated to when a run sets neither tau nor
#: a target light fraction.
DEFAULT_TARGET_LIGHT_FRACTION = 0.6


@dataclass
class SwitchConfig:
    """Weights and thresholds governing the block.

    alpha jointly weights the switch and imitation losses, beta weights the
    mask's L1 penalty, eps is the hard-zero cutoff for mask weights at
    inference, rho the width factor of the lightweight decoder, and placement
    the layer index where the block is inserted, checked against the network
    by model.check_placement. The routing threshold tau is not part of the
    block: it is calibrated or chosen per run (see config.RunConfig).
    """

    alpha: float = 1.0
    beta: float = 1e-3
    eps: float = 1e-3
    rho: float = 0.25
    placement: int = 1

    def __post_init__(self):
        if not (0 <= self.alpha < math.inf and 0 <= self.beta < math.inf):
            raise ConfigError(
                f"alpha and beta must be finite and >= 0, got {self.alpha}, {self.beta}")
        if not 0.0 < self.rho < 1.0:
            raise ConfigError(f"rho must be in (0, 1), got {self.rho}")
        if not 0 < self.eps < math.inf:
            raise ConfigError(f"eps must be finite and > 0, got {self.eps}")


class LatentMask:
    """Per-dimension multiplicative weights on the activation map."""

    def __init__(self, dim: int, eps: float = SwitchConfig.eps):
        self.w = Tensor(np.ones(dim), requires_grad=True)
        self.eps = float(eps)
        self._hard_key = self._hard = None

    @property
    def dim(self) -> int:
        return self.w.shape[0]

    def hard_weights(self) -> np.ndarray:
        """Weights with |w| < eps snapped to exactly 0 (inference view), as a
        read-only array.

        Computed once per weight state: the result is kept under the bytes and
        shape of `w.data` and `eps`, so a write in place, a rebound `.data`, a
        loaded checkpoint or an Adam step (which writes through `AdamState`'s
        views) is seen at the next call."""
        w = self.w.data
        key = (w.tobytes(), w.shape, self.eps)
        if key != self._hard_key:
            hard = np.where(np.abs(w) >= self.eps, w, 0.0)
            hard.flags.writeable = False
            self._hard_key, self._hard = key, hard
        return self._hard

    def apply(self, h: Tensor) -> Tensor:
        """Soft-masked activation as a graph node (the gate's reference path;
        training computes it on plain arrays in total_loss)."""
        if h.data.ndim != 2 or h.shape[1] != self.dim:
            raise DimensionError(f"mask: input shape {h.shape} does not match dim {self.dim}")
        return ag.mul(h, self.w)


def compression_loss(mask: LatentMask) -> Tensor:
    return ag.reduce(mask.w, "l1")


def activation_sparsity(mask: LatentMask) -> float:
    """Fraction of latent dimensions hard-zeroed at inference."""
    return float(np.mean(np.abs(mask.w.data) < mask.eps))


class Switch:
    """Small regressor over the masked latent; softplus keeps output >= 0.

    Every route reads one rule: a row routes light when `infer` predicts a
    distance strictly below tau. Ties and NaN route full."""

    def __init__(self, net: nn.Network):
        if net.output_dim != 1:
            raise ConfigError(f"switch net must map to a single output, got {net.output_dim}")
        self.net = net

    def predict(self, h: Tensor) -> Tensor:
        out = ag.softplus(self.net.forward(h))
        return ag.reshape(out, (h.shape[0],))

    def infer(self, h: np.ndarray) -> np.ndarray:
        return ag.softplus_array(self.net.infer(h))[:, 0]


def infer_latent(prefix: nn.Network, mask: LatentMask, x: np.ndarray) -> np.ndarray:
    """Hard-masked activation at the block, on plain arrays; every inference
    pass starts here. A NaN row would route full (NaN < tau is false). The
    prefix has at least one layer, so its output is a fresh array and the
    mask multiplies it in place."""
    if x.ndim != 2 or x.shape[1] != prefix.input_dim:
        raise DimensionError(f"inference: input shape {x.shape}, want (n, {prefix.input_dim})")
    if not np.isfinite(x).all():
        row = int(np.argmin(np.isfinite(x).all(axis=1)))
        raise ContractError(f"inference: input row {row} is not finite")
    h = prefix.infer(x)
    h *= mask.hard_weights()
    return h


def build_switch(dim: int, seed: int) -> Switch:
    hidden = max(4, dim // 4)
    net = nn.init_network([dim, hidden, 1], ["relu", "none"], seed)
    return Switch(net)


def build_light_decoder(suffix: nn.Network, rho: float, seed: int) -> nn.Network:
    """Shallow stand-in for the suffix: the same input and output dims with
    one hidden layer of ceil(rho * widest suffix hidden width), using the
    suffix's first and last activations. A one-layer suffix gives one layer
    [in, out].

    Under the per-row kernel a pass costs about one BLAS call per row and
    layer, whatever its width, so depth, not width, sets the light route's
    time."""
    if not suffix.layers:
        raise ConfigError("light decoder: suffix has no layers to imitate")
    if not 0.0 < rho < 1.0:
        raise ConfigError(f"light decoder: rho must be in (0, 1), got {rho}")
    last = suffix.layers[-1]
    if len(suffix.layers) == 1:
        return nn.init_network([suffix.input_dim, suffix.output_dim], [last.activation], seed)
    hidden = math.ceil(rho * max(layer.out_dim for layer in suffix.layers[:-1]))
    return nn.init_network([suffix.input_dim, hidden, suffix.output_dim],
                           [suffix.layers[0].activation, last.activation], seed)


def pass_gap_array(d_out: np.ndarray, full_out: np.ndarray) -> np.ndarray:
    """Per-sample absolute distance between the two passes.

    This is the switch's regression target. It is deliberately not
    normalized by the full pass's output norm: that norm is tiny for
    near-silent frames, so a relative distance would blow their scores up and
    invert the easy/hard ordering. The threshold on it is chosen by quantile,
    so no fixed scale is needed.
    """
    if d_out.shape != full_out.shape:
        raise DimensionError(f"pass_gap: shape mismatch {d_out.shape} vs {full_out.shape}")
    return np.linalg.norm(d_out - full_out, axis=1)


def pass_gap(d_out: Tensor, full_out: Tensor) -> Tensor:
    """pass_gap_array as an untracked Tensor, kept because the acceptance gate calls it."""
    return Tensor(pass_gap_array(d_out.data, full_out.data))


def block_loss(l_switch: Tensor, l_lwd: Tensor, l_comp: Tensor, cfg: SwitchConfig) -> Tensor:
    """alpha * (switch + imitation) + beta * compression."""
    return ag.add(
        ag.add(ag.scale(l_switch, cfg.alpha), ag.scale(l_lwd, cfg.alpha)),
        ag.scale(l_comp, cfg.beta),
    )


@dataclass(frozen=True)
class RouteDecision:
    kind: str  # LIGHT or FULL


LIGHT_ROUTE = RouteDecision(LIGHT)
FULL_ROUTE = RouteDecision(FULL)


def calibrate_threshold(predictions, target_light_fraction: float) -> float:
    """Threshold at which roughly `target_light_fraction` of the calibration
    predictions would route light.

    Returns the linear-interpolation quantile of the predictions. With a
    degenerate (constant) distribution the strict `< tau` rule then routes
    nothing light; callers wanting a different tie policy must nudge tau. A
    prediction that is not finite (from a diverged switch) raises
    ContractError naming how many were not finite, even where the quantile
    itself would be finite.
    """
    preds = np.asarray(list(predictions), dtype=np.float64)
    if preds.size == 0:
        raise ContractError("calibrate_threshold: no predictions given")
    if not 0.0 <= target_light_fraction <= 1.0:
        raise ContractError(
            f"calibrate_threshold: fraction must be in [0, 1], got {target_light_fraction}"
        )
    bad = preds.size - int(np.count_nonzero(np.isfinite(preds)))
    if bad:
        raise ContractError(
            f"calibrate_threshold: {bad} of {preds.size} predictions are not finite")
    return float(np.quantile(preds, target_light_fraction, method="linear"))


def mixed_forward(
    prefix: nn.Network,
    mask: LatentMask,
    switch: Switch,
    lwd: nn.Network,
    suffix: nn.Network,
    x: Tensor,
    tau: float,
) -> tuple[Tensor, list[RouteDecision]]:
    """Routes each sample of the batch through exactly one decoder.

    Computes the hard-masked activation once, routes light the rows whose
    switch prediction is strictly below tau (`switch.infer(h) < tau`), and
    runs the lightweight decoder on those rows and the full suffix on the
    rest, on plain arrays. Ties and NaN go full, the safe direction. A batch
    whose rows all route one way runs that decoder on the whole latent with
    no gather or scatter; row invariance makes its bits those of the general
    path.
    """
    h = infer_latent(prefix, mask, x.data)
    light = switch.infer(h) < tau
    n, n_light = h.shape[0], int(np.count_nonzero(light))
    if n_light == n:
        return Tensor(lwd.infer(h)), [LIGHT_ROUTE] * n
    if n_light == 0:
        return Tensor(suffix.infer(h)), [FULL_ROUTE] * n
    out = np.empty((n, suffix.output_dim))
    for net, rows in ((lwd, np.flatnonzero(light)), (suffix, np.flatnonzero(~light))):
        out[rows] = net.infer(h.take(rows, axis=0))
    return Tensor(out), [LIGHT_ROUTE if is_light else FULL_ROUTE for is_light in light.tolist()]
