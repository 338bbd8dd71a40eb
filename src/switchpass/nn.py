"""Dense layers and splittable sequential networks.

A Network is an ordered list of dense layers that can be cut at any index
into a prefix and a suffix whose composition reproduces the original forward
bitwise. Parameter and MAC counting follow the multiply-accumulate
convention: a layer from in to out features costs in*out MACs per sample,
bias add and activation excluded.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autograd as ag
from .autograd import Tensor
from .errors import ConfigError, ContractError, DimensionError


@dataclass
class DenseLayer:
    weights: Tensor  # in x out, C-contiguous: the layer's bits depend on it
    bias: Tensor  # out
    activation: str = "none"

    def __post_init__(self):
        if self.activation not in ag._ACT:
            raise ContractError(f"DenseLayer: unknown activation {self.activation!r}")
        w, b = self.weights.shape, self.bias.shape
        if len(w) != 2 or b != w[1:]:
            raise DimensionError(f"DenseLayer: weights {w} and bias {b} do not fit")

    def __call__(self, x: np.ndarray) -> np.ndarray:
        """act(x @ w + b) on a plain (m, in) array, the kernel of every pass:
        no check (the layer was checked when built) and no MAC count (a pass
        counts its real rows). The bias add and activation overwrite the product."""
        f = ag._ACT[self.activation][0]
        z = ag._mm(x, self.weights.data)
        z += self.bias.data
        return z if f is None else f(z)

    @property
    def in_dim(self) -> int:
        return self.weights.shape[0]

    @property
    def out_dim(self) -> int:
        return self.weights.shape[1]


@dataclass
class Network:
    layers: list[DenseLayer] = field(default_factory=list)
    input_dim: int = 0

    @property
    def output_dim(self) -> int:
        return self.layers[-1].out_dim if self.layers else self.input_dim

    def forward(self, x: Tensor) -> Tensor:
        """The pass as one graph node whose parents are x and every layer's
        weights and bias: its value is `trace`'s last output and its VJP is
        `backprop`, the backward training runs. An empty network returns x."""
        trace = self.trace(x.data)
        if not trace:
            return x
        parents = [x]
        for layer in self.layers:
            parents += (layer.weights, layer.bias)

        def vjp(g):
            gx, grads = backprop(trace, g, x.requires_grad)
            return (gx, *grads)

        return ag._track(trace[-1][2], parents, vjp)

    def trace(self, x: np.ndarray) -> list[tuple]:
        """The recorded pass on plain arrays: checks x's shape, runs x through
        the layers and keeps, per layer, its input, weights, output and
        activation, what `backprop` reads. Counts rows * mac_count MACs."""
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise DimensionError(f"forward: input shape {x.shape} does not match "
                                 f"input_dim {self.input_dim}")
        count_macs(self, x.shape[0])
        trace = []
        for layer in self.layers:
            out = layer(x)
            trace.append((x, layer.weights.data, out, layer.activation))
            x = out
        return trace

    def infer(self, x: np.ndarray, n: int) -> np.ndarray:
        """forward's values on plain arrays, bit for bit, with no graph, for a
        batch whose first n rows are real (the rest pad it to whole row
        blocks). Returns every row; MACs are counted for the n real rows
        only. Unlike `trace` it keeps no record of the pass, which serving
        does not need and which slows a batch-1 request. It checks nothing:
        its input is routing.padded_latent's checked latent or rows of it."""
        count_macs(self, n)
        for layer in self.layers:
            x = layer(x)
        return x

    def split_at(self, i: int) -> tuple["Network", "Network"]:
        """Cut into ([0, i), [i, end)); layer objects are shared, not copied."""
        if not 0 <= i <= len(self.layers):
            raise IndexError(f"split_at: index {i} out of range for {len(self.layers)} layers")
        suffix_in = self.input_dim if i == 0 else self.layers[i - 1].out_dim
        return (
            Network(self.layers[:i], self.input_dim),
            Network(self.layers[i:], suffix_in),
        )


def backprop(trace: list[tuple], g: np.ndarray, need_gx: bool):
    """Pushes the adjoint g of a pass's output back through its trace (from
    Network.trace), last layer first, with each dense layer's VJP: gz = g
    times the activation's derivative, then gz @ w.T, x.T @ gz (each one
    whole-batch `ag._grad_mm`) and gz summed over the rows. Returns the
    adjoint of the pass's input (None unless need_gx) and the weight and bias
    gradients in layer order."""
    grads = []
    for k in range(len(trace) - 1, -1, -1):
        x, w, out, act = trace[k]
        df = ag._ACT[act][1]
        gz = g if df is None else g * df(out)
        g = ag._grad_mm(gz, w.T) if need_gx or k > 0 else None
        grads += (gz.sum(axis=0), ag._grad_mm(x.T, gz))
    grads.reverse()
    return g, grads


def count_macs(net: Network, rows: int) -> None:
    """Adds rows passes of net (rows * mac_count(net)) to the active
    ag.MacCounter, if any."""
    if ag._mac_counter is not None:
        ag._mac_counter.total += rows * mac_count(net)


def param_count(net: Network) -> int:
    return sum(layer.in_dim * layer.out_dim + layer.out_dim for layer in net.layers)


def mac_count(net: Network) -> int:
    return sum(layer.in_dim * layer.out_dim for layer in net.layers)


def check_architecture(dims, activations) -> None:
    """At least one width, all positive, and one known activation per layer."""
    if len(dims) < 1 or any(d <= 0 for d in dims):
        raise ConfigError(f"init: dims must be positive, got {dims}")
    if len(activations) != len(dims) - 1:
        raise ConfigError(f"init: need {len(dims) - 1} activations for {len(dims)} dims, "
                          f"got {len(activations)}")
    for act in activations:
        if act not in ag._ACT:
            raise ConfigError(f"init: unknown activation {act!r}")


def init_network(dims, activations, seed: int) -> Network:
    """Builds a network with uniform-Xavier weights and zero biases.

    dims is the full width chain (len >= 1); activations has one entry per
    layer. Identical (seed, dims, activations) give bitwise-identical
    parameters. Each weight matrix is drawn as (out, in) and stored as its
    C-contiguous (in, out) transpose.
    """
    dims = [int(d) for d in dims]
    check_architecture(dims, activations)
    rng = np.random.Generator(np.random.PCG64(seed))
    layers = []
    for fan_in, fan_out, act in zip(dims[:-1], dims[1:], activations):
        limit = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        layers.append(
            DenseLayer(
                weights=Tensor(np.ascontiguousarray(w.T), requires_grad=True),
                bias=Tensor(np.zeros(fan_out), requires_grad=True),
                activation=act,
            )
        )
    return Network(layers, dims[0])
