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

#: A mask weight with |w| below this is snapped to exactly 0 at inference.
HARD_ZERO_EPS = 1e-3


@dataclass
class SwitchConfig:
    """Weights and thresholds governing the block.

    alpha jointly weights the switch and imitation losses, beta weights the
    mask's L1 penalty, rho is the width factor of the lightweight decoder,
    and placement the layer index where the block is inserted, checked
    against the network by model.check_placement. The routing threshold tau
    is not part of the block: it is calibrated or chosen per run (see
    config.RunConfig), and the mask's hard-zero cutoff is HARD_ZERO_EPS.
    """

    alpha: float = 1.0
    beta: float = 1e-3
    rho: float = 0.25
    placement: int = 1

    def __post_init__(self):
        if not (0 <= self.alpha < math.inf and 0 <= self.beta < math.inf):
            raise ConfigError(
                f"alpha and beta must be finite and >= 0, got {self.alpha}, {self.beta}")
        if not 0.0 < self.rho < 1.0:
            raise ConfigError(f"rho must be in (0, 1), got {self.rho}")


class LatentMask:
    """Per-dimension multiplicative weights on the activation map."""

    def __init__(self, dim: int):
        self.w = Tensor(np.ones(dim), requires_grad=True)
        self._hard_key = self._hard = None

    @property
    def dim(self) -> int:
        return self.w.shape[0]

    def hard_weights(self) -> np.ndarray:
        """Weights with |w| < HARD_ZERO_EPS snapped to exactly 0 (inference
        view), as a read-only array.

        Computed once per weight state: the result is kept under the bytes and
        shape of `w.data`, so a write in place, a rebound `.data`, a
        loaded checkpoint or an Adam step (which writes through `AdamState`'s
        views) is seen at the next call."""
        w = self.w.data
        key = (w.tobytes(), w.shape)
        if key != self._hard_key:
            hard = np.where(np.abs(w) >= HARD_ZERO_EPS, w, 0.0)
            hard.flags.writeable = False
            self._hard_key, self._hard = key, hard
        return self._hard

    def apply(self, h: Tensor) -> Tensor:
        """Soft-masked activation as a graph node (the gate's reference path;
        training computes it on plain arrays in total_loss)."""
        if h.data.ndim != 2 or h.shape[1] != self.dim:
            raise DimensionError(f"mask: input shape {h.shape} does not match dim {self.dim}")
        return ag.mul(h, self.w)


def activation_sparsity(mask: LatentMask) -> float:
    """Fraction of latent dimensions hard-zeroed at inference."""
    return float(np.mean(mask.hard_weights() == 0.0))


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

    def infer(self, h: np.ndarray, n: int) -> np.ndarray:
        """predict's values on a latent whose first n rows are real (see
        nn.Network.infer), one per row."""
        return ag.softplus_array(self.net.infer(h, n))[:, 0]


def padded_latent(prefix: nn.Network, mask: LatentMask, x: np.ndarray) -> tuple[np.ndarray, int]:
    """Hard-masked activation at the block, on plain arrays, for x padded
    once by ag.pad_rows, and x's row count n: every inference pass starts
    here, runs its networks on the padded rows and returns the first n. x is
    checked before it is padded. A NaN row would route full (NaN < tau is
    false). The prefix has at least one layer, so its output is a fresh array
    and the mask multiplies it in place."""
    if x.ndim != 2 or x.shape[1] != prefix.input_dim:
        raise DimensionError(f"inference: input shape {x.shape}, want (n, {prefix.input_dim})")
    if not np.isfinite(x).all():
        row = int(np.argmin(np.isfinite(x).all(axis=1)))
        raise ContractError(f"inference: input row {row} is not finite")
    n = x.shape[0]
    h = prefix.infer(ag.pad_rows(x), n)
    h *= mask.hard_weights()
    return h, n


def build_switch(dim: int, seed: int) -> Switch:
    hidden = max(4, dim // 4)
    net = nn.init_network([dim, hidden, 1], ["relu", "none"], seed)
    return Switch(net)


def build_light_decoder(suffix: nn.Network, rho: float, seed: int) -> nn.Network:
    """Shallow stand-in for the suffix: the same input and output dims with
    one hidden layer of ceil(rho * widest suffix hidden width), using the
    suffix's first and last activations. A one-layer suffix gives one layer
    [in, out].

    At batch 1 a pass costs one 2-row gemm and a fixed per-call overhead per
    layer, about the same whatever its width at these sizes, so depth, not
    width, sets the light route's time."""
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


def check_finite(pred: np.ndarray, caller: str, what: str) -> np.ndarray:
    """pred, unless a value in it is not finite (a diverged switch's
    prediction): then ContractError naming the caller, the count and what
    pred holds."""
    bad = pred.size - int(np.count_nonzero(np.isfinite(pred)))
    if bad:
        raise ContractError(f"{caller}: {bad} of {pred.size} {what} are not finite")
    return pred


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
    check_finite(preds, "calibrate_threshold", "predictions")
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
    switch prediction is strictly below tau (`switch.infer(h, n) < tau`), and
    runs the lightweight decoder on those rows and the full suffix on the
    rest, on plain arrays. Ties and NaN go full, the safe direction. The
    batch is padded once (padded_latent) and each routed subset is gathered
    to an even row count (ag.pad_rows on its row indices), so no layer pads
    again. A batch whose rows all route one way runs that decoder on the
    whole latent with no gather or scatter; row invariance makes its bits
    those of the general path.
    """
    h, n = padded_latent(prefix, mask, x.data)
    light = switch.infer(h, n)[:n] < tau
    n_light = int(np.count_nonzero(light))
    if n_light == n:
        return Tensor(lwd.infer(h, n)[:n]), [LIGHT_ROUTE] * n
    if n_light == 0:
        return Tensor(suffix.infer(h, n)[:n]), [FULL_ROUTE] * n
    out = np.empty((n, suffix.output_dim))
    for net, rows in ((lwd, np.flatnonzero(light)), (suffix, np.flatnonzero(~light))):
        out[rows] = net.infer(h.take(ag.pad_rows(rows), axis=0), rows.size)[:rows.size]
    return Tensor(out), [LIGHT_ROUTE if is_light else FULL_ROUTE for is_light in light.tolist()]
