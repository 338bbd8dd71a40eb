"""Joint optimization of the autoencoder and the switch block.

Gradient responsibilities are kept disjoint: reconstruction trains prefix,
mask, and suffix; the imitation loss trains the light decoder only; the
switch loss trains the switch only; the L1 penalty trains the mask weights
only. total_loss is one node, and its hand-written VJP enforces each of
these: only the reconstruction adjoint is pushed back through the suffix,
and through the mask's input into the prefix; the light decoder's and
switch's backward passes stop at their input, and their targets (the full
output and the pass gap) are constants; the L1 adjoint is added to the mask
weights' gradient alone. One backward pass per batch covers everything.
Adam keeps the parameters, grads and moments in flat buffers
(AdamState); each parameter's `.data` and `.grad` are views into them, so a
step zeroes every grad with one fill and updates every parameter in place.
"""

from __future__ import annotations

import binascii
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import autograd as ag
from . import data as dat
from . import nn, routing
from .autograd import Tensor
from .errors import ConfigError, ContractError, FormatError, TrainingError
from .model import SwitchedAutoencoder, check_placement, derive_seed, _SHUFFLE
from .output import write_atomic, write_csv

CHECKPOINT_FORMAT_VERSION = 4

#: Columns of metrics.csv. l_total is left out: it is the weighted sum of the
#: other loss terms, and the final epoch's value is kept in summary.json.
METRICS_CSV_COLUMNS = ("epoch", "l_recon", "l_switch", "l_lwd", "l_comp", "sparsity", "switch_mae")


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class AdamState:
    """Adam (Kingma & Ba, 2015) over one flat float64 buffer per quantity.

    Parameters, grads and the moments m and v are flat arrays laid out in
    parameter order. Construction copies each parameter into
    `params` and makes its `.data` and `.grad` C-contiguous views of `params`
    and `grads`, so the backward walk accumulates into `grads` and
    `grads.fill(0.0)` zeroes every grad. A `.data` or `.grad` rebound since
    (a loaded checkpoint, a grad assigned by hand, None read as zeros) is
    copied back into its view at the next step.
    """

    def __init__(self, named_params, lr: float = 1e-3):
        self.lr = float(lr)
        self.t = 0
        self.params = np.empty(sum(p.data.size for _, p in named_params))
        self.grads = np.zeros_like(self.params)
        self.m = np.zeros_like(self.params)
        self.v = np.zeros_like(self.params)
        self._scratch = (np.empty_like(self.params), np.empty_like(self.params))
        self._views = []
        start = 0
        for _, p in named_params:
            stop = start + p.data.size
            self._views.append((self.params[start:stop].reshape(p.data.shape),
                                self.grads[start:stop].reshape(p.data.shape)))
            start = stop
        self.sync(named_params)

    def sync(self, named_params) -> None:
        """Copies any rebound `.data` or `.grad` into its view and rebinds it."""
        for (_, p), (data, grad) in zip(named_params, self._views):
            if p.data is not data:
                np.copyto(data, p.data)
                p.data = data
            if p.grad is not grad:
                if p.grad is None:
                    grad.fill(0.0)
                else:
                    np.copyto(grad, p.grad)
                p.grad = grad


def adam_step(named_params, state: AdamState) -> None:
    """One update from the accumulated grads; a non-finite grad raises before
    any change. In-place ufuncs in the order of the textbook expression
    p - lr * (m / c1) / (sqrt(v / c2) + eps), so the bits are its bits."""
    state.sync(named_params)
    g = state.grads
    if not np.isfinite(g).all():
        raise TrainingError("non-finite gradient for parameter " + next(
            n for (n, _), (_, grad) in zip(named_params, state._views)
            if not np.isfinite(grad).all()))
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1, c2 = 1.0 - b1 ** state.t, 1.0 - b2 ** state.t
    step, denom = state._scratch
    state.m *= b1
    state.m += np.multiply(1.0 - b1, g, out=step)
    state.v *= b2
    state.v += np.multiply(1.0 - b2, np.multiply(g, g, out=step), out=step)
    np.multiply(state.lr, np.divide(state.m, c1, out=step), out=step)
    step /= np.add(np.sqrt(np.divide(state.v, c2, out=denom), out=denom), ADAM_EPS, out=denom)
    state.params -= step


@dataclass
class DataConfig:
    spec: dat.SignalSpec = field(default_factory=dat.SignalSpec)
    n_easy: int = 1500
    n_hard: int = 1000
    ratios: tuple[float, float, float] = (0.7, 0.15, 0.15)
    wav_paths: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.n_easy < 0 or self.n_hard < 0:
            raise ConfigError(f"n_easy and n_hard must be >= 0, got {self.n_easy}, {self.n_hard}")
        dat.check_size("n_easy", self.n_easy)
        dat.check_size("n_hard", self.n_hard)


@dataclass
class TrainConfig:
    dims: list[int] = field(default_factory=lambda: [64, 32, 32, 48, 48, 48, 64])
    activations: list[str] = field(
        default_factory=lambda: ["tanh", "tanh", "tanh", "tanh", "tanh", "none"]
    )
    dsl: routing.SwitchConfig = field(default_factory=routing.SwitchConfig)
    data: DataConfig = field(default_factory=DataConfig)
    epochs: int = 400
    batch_size: int = 32
    lr: float = 1e-3
    seed: int = 7
    checkpoint_every: int = 0  # 0 means every 10% of epochs

    def __post_init__(self):
        if (self.epochs < 0 or self.batch_size <= 0 or not 0 < self.lr < math.inf
                or self.checkpoint_every < 0):
            raise ConfigError(
                f"epochs >= 0, batch_size > 0, finite lr > 0, checkpoint_every >= 0 "
                f"required, got {self.epochs}, {self.batch_size}, {self.lr}, "
                f"{self.checkpoint_every}"
            )
        if self.seed < 0:
            raise ConfigError(f"train seed must be >= 0, got {self.seed}")
        for i, d in enumerate(self.dims):
            dat.check_size(f"dims[{i}]", d)
        dat.check_size("the dense weight count of dims",
                       sum(a * b for a, b in zip(self.dims, self.dims[1:])))
        nn.check_architecture(self.dims, self.activations)
        check_placement(self.dsl.placement, self.dims)

    def check_frame_len(self) -> None:
        """The network reconstructs a frame, so it must read and write
        frame_len samples. Checked where a config is parsed and where training
        starts, not at construction: callers may set `data` afterwards."""
        ends = (self.dims[0], self.dims[-1])
        if not ends[0] == ends[1] == self.data.spec.frame_len:
            raise ConfigError(
                f"dims must start and end at data.frame_len, got dims[0] {ends[0]}, "
                f"dims[-1] {ends[1]}, frame_len {self.data.spec.frame_len}"
            )

    def cadence(self) -> int:
        if self.checkpoint_every > 0:
            return self.checkpoint_every
        return max(1, self.epochs // 10)


def build_dataset(cfg: DataConfig) -> dat.Dataset:
    frames = dat.gen_easy(cfg.spec, cfg.n_easy) + dat.gen_hard(cfg.spec, cfg.n_hard)
    for path in cfg.wav_paths:
        frames.extend(dat.load_wav(path, cfg.spec.frame_len))
    return dat.split(frames, cfg.ratios, cfg.spec.seed)


def _forward(net: nn.Network, x: np.ndarray) -> list[tuple]:
    """Runs x through net's layers with ag.dense_array and keeps, per layer,
    its input, weights, output and activation: what ag.dense_vjp reads."""
    layers = []
    for layer in net.layers:
        w = layer.weights.data
        out = ag.dense_array(x, w, layer.bias.data, layer.activation)
        layers.append((x, w, out, layer.activation))
        x = out
    return layers


def _backprop(layers: list[tuple], g: np.ndarray, need_gx: bool):
    """Pushes the adjoint g of the last layer's output back through layers
    (from _forward), last first. Returns the adjoint of the first layer's
    input (None unless need_gx) and the weights and bias gradients in layer
    order."""
    grads = []
    for k in range(len(layers) - 1, -1, -1):
        x, w, out, act = layers[k]
        g, gw, gb = ag.dense_vjp(g, x, w, out, act, need_gx or k > 0)
        grads += (gb, gw)
    grads.reverse()
    return g, grads


def total_loss(x: Tensor, model: SwitchedAutoencoder):
    """Composite loss and its term breakdown for one batch, as one node whose
    parents are the model's named parameters.

    The forward runs every network on plain arrays. The VJP is the backward
    of the per-layer graph (dense layers, the mask's multiply, the switch's
    softplus and reshape, the MSE, L1 and weighting nodes), written out with
    the ops' own VJP helpers in that graph's order, so every gradient has
    that graph's bits. The batch is never a gradient path: one that requires
    grad raises ContractError.
    """
    if x.requires_grad:
        raise ContractError("total_loss: the batch must not require grad; "
                            "the loss passes no gradient to it")
    cfg = model.cfg
    alpha, beta = float(cfg.alpha), float(cfg.beta)
    xd = x.data
    prefix = _forward(model.prefix, xd)
    pre = prefix[-1][2]
    w_mask = model.mask.w.data
    h = pre * w_mask  # the train-mode masked latent
    suffix = _forward(model.suffix, h)
    full = suffix[-1][2]
    l_recon, d_recon = ag.mse_array(full, xd)

    light = _forward(model.light, h)
    d_out = light[-1][2]
    l_lwd, d_lwd = ag.mse_array(d_out, full)

    switch = _forward(model.switch.net, h)
    z = switch[-1][2]
    predicted = ag.softplus_array(z).reshape((h.shape[0],))
    l_switch, d_switch = ag.mse_array(predicted, routing.pass_gap_array(d_out, full))

    l_comp = ag._seq_sum(np.abs(w_mask))
    l_total = l_recon + ((l_switch * alpha + l_lwd * alpha) + l_comp * beta)

    def vjp(g):
        # Reconstruction alone reaches the suffix, the mask's input and so the prefix.
        gh, suffix_grads = _backprop(suffix, ag.mse_vjp(g, d_recon), True)
        _, prefix_grads = _backprop(prefix, gh * w_mask, False)
        g_mask = (g * beta) * np.sign(w_mask) + (gh * pre).sum(axis=0)
        # The light decoder and switch stop at their input, and their targets
        # are constants, so imitation trains the light decoder only and the
        # switch loss the switch only.
        _, light_grads = _backprop(light, ag.mse_vjp(g * alpha, d_lwd), False)
        g_pred = ag.mse_vjp(g * alpha, d_switch).reshape(z.shape)
        _, switch_grads = _backprop(switch, g_pred * ag.sigmoid_array(z), False)
        return (*prefix_grads, *suffix_grads, g_mask, *switch_grads, *light_grads)

    loss = ag._track(np.asarray(l_total), [p for _, p in model.named_parameters()], vjp)
    breakdown = {
        "l_recon": float(l_recon),
        "l_switch": float(l_switch),
        "l_lwd": float(l_lwd),
        "l_comp": float(l_comp),
        "l_total": float(l_total),
    }
    return loss, breakdown


def switch_mae(model: SwitchedAutoencoder, x: np.ndarray) -> float:
    """Mean absolute error of switch predictions against measured distances on x."""
    predicted, light, full = model.passes(x)
    return float(np.mean(np.abs(predicted - routing.pass_gap_array(light, full))))


@dataclass
class Checkpoint:
    epoch: int
    params: dict[str, np.ndarray]


@dataclass
class TrainResult:
    model: SwitchedAutoencoder
    dataset: dat.Dataset
    checkpoints: list[Checkpoint]
    metrics: list[dict]


def train(cfg: TrainConfig, dataset: dat.Dataset | None = None) -> TrainResult:
    """Runs the full loop; deterministic under cfg.seed, labels never read.

    Emits a checkpoint at epoch 0, at the configured cadence, and after the
    final epoch. Raises TrainingError naming the epoch if the loss goes
    non-finite. Rebuilding cfg first checks fields assigned after construction.
    """
    cfg = replace(cfg, dsl=replace(cfg.dsl),
                  data=replace(cfg.data, spec=replace(cfg.data.spec)))
    cfg.check_frame_len()
    if dataset is None:
        dataset = build_dataset(cfg.data)
    if not dataset.train:
        raise ConfigError(
            f"training: the train split is empty (train/calibrate/test sizes "
            f"{dataset.split_sizes()}, ratios {cfg.data.ratios})"
        )
    model = SwitchedAutoencoder(cfg.dims, cfg.activations, cfg.dsl, cfg.seed)
    named = model.named_parameters()
    state = AdamState(named, lr=cfg.lr)
    shuffle_rng = np.random.Generator(np.random.PCG64(derive_seed(cfg.seed, _SHUFFLE)))

    train_mat = dat.frames_to_matrix(dataset.train)
    cal_mat = dat.frames_to_matrix(dataset.calibrate) if dataset.calibrate else None
    n = train_mat.shape[0]
    metrics: list[dict] = []
    checkpoints = [Checkpoint(0, model.state_arrays())]
    cadence = cfg.cadence()

    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(n)
        sums = {k: 0.0 for k in ("l_recon", "l_switch", "l_lwd", "l_comp", "l_total")}
        for start in range(0, n, cfg.batch_size):
            rows = order[start:start + cfg.batch_size]
            x = Tensor(train_mat[rows])
            state.grads.fill(0.0)
            loss, breakdown = total_loss(x, model)
            if not np.isfinite(breakdown["l_total"]):
                raise TrainingError(f"training diverged at epoch {epoch}")
            ag.backward(loss)
            try:
                adam_step(named, state)
            except TrainingError as exc:
                raise TrainingError(f"epoch {epoch}: {exc}") from exc
            for k in sums:
                sums[k] += breakdown[k] * len(rows)
        row = {"epoch": epoch}
        row.update({k: sums[k] / n for k in sums})
        row["sparsity"] = routing.activation_sparsity(model.mask)
        row["switch_mae"] = 0.0 if cal_mat is None else switch_mae(model, cal_mat)
        metrics.append(row)
        if epoch % cadence == 0 and epoch != cfg.epochs:
            checkpoints.append(Checkpoint(epoch, model.state_arrays()))
    if cfg.epochs > 0:
        checkpoints.append(Checkpoint(cfg.epochs, model.state_arrays()))
    return TrainResult(model=model, dataset=dataset, checkpoints=checkpoints, metrics=metrics)


def restore_model(cfg: TrainConfig, ckpt: Checkpoint) -> SwitchedAutoencoder:
    model = SwitchedAutoencoder(cfg.dims, cfg.activations, cfg.dsl, cfg.seed)
    model.load_state_arrays(ckpt.params)
    return model


# --- persistence -------------------------------------------------------------


def _array_doc(arr: np.ndarray) -> dict:
    return {"shape": list(arr.shape),
            "float64le": np.ascontiguousarray(arr, "<f8").tobytes().hex()}


def _doc_array(doc, path: str) -> np.ndarray:
    if not isinstance(doc, dict) or set(doc) != {"shape", "float64le"}:
        raise FormatError(f"checkpoint field {path}: expected an array document")
    shape, text = doc["shape"], doc["float64le"]
    if not isinstance(shape, list) or not all(type(s) is int and s >= 0 for s in shape):
        raise FormatError(f"checkpoint field {path}.shape: invalid shape {shape!r}")
    try:
        # Unlike bytes.fromhex, this takes no whitespace. Non-text raises TypeError.
        raw = binascii.a2b_hex(text)
    except (TypeError, ValueError) as exc:
        raise FormatError(f"checkpoint field {path}.float64le: expected hex text: {exc}") from exc
    expected = 8 * math.prod(shape)
    if len(raw) != expected:
        raise FormatError(
            f"checkpoint field {path}.float64le: expected {expected} bytes, got {len(raw)}")
    arr = np.frombuffer(raw, "<f8").astype(np.float64).reshape(shape)
    if not np.isfinite(arr).all():
        raise FormatError(f"checkpoint field {path}.float64le: expected finite numbers")
    return arr


def checkpoint_json(ckpt: Checkpoint) -> str:
    """The checkpoint document as the JSON text save_checkpoint writes."""
    doc = {
        "format_version": CHECKPOINT_FORMAT_VERSION,
        "epoch": ckpt.epoch,
        "params": {k: _array_doc(v) for k, v in ckpt.params.items()},
    }
    return json.dumps(doc, indent=1) + "\n"


def save_checkpoint(ckpt: Checkpoint, path) -> str:
    """Writes the checkpoint atomically (output.write_atomic); returns the text."""
    text = checkpoint_json(ckpt)
    write_atomic(path, text)
    return text


def load_checkpoint(path) -> Checkpoint:
    """Reads a checkpoint document; any structural defect raises FormatError
    naming the field, and nothing is returned partially restored."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError, or too many digits
        raise FormatError(f"checkpoint {path}: invalid document: {exc}") from exc
    if not isinstance(doc, dict):
        raise FormatError(f"checkpoint {path}: top level must be an object")
    version = doc.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise FormatError(
            f"checkpoint field format_version: got {version!r}, "
            f"expected {CHECKPOINT_FORMAT_VERSION}"
        )
    for key in ("epoch", "params"):
        if key not in doc:
            raise FormatError(f"checkpoint field {key}: missing")
    if type(doc["epoch"]) is not int:
        raise FormatError(f"checkpoint field epoch: expected integer, got {doc['epoch']!r}")
    if not isinstance(doc["params"], dict):
        raise FormatError("checkpoint field params: expected an object")
    params = {k: _doc_array(v, f"params.{k}") for k, v in doc["params"].items()}
    return Checkpoint(epoch=doc["epoch"], params=params)


def write_metrics_csv(metrics: list[dict], path) -> None:
    write_csv(path, METRICS_CSV_COLUMNS, ([r[k] for k in METRICS_CSV_COLUMNS] for r in metrics))
