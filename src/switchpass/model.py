"""Assembly of a dense autoencoder with the switch block inserted."""

from __future__ import annotations

import numpy as np

from . import nn, routing
from .autograd import Tensor
from .errors import ConfigError, ContractError

# Component streams for deriving independent init seeds from one run seed.
_NET, _SWITCH, _LIGHT, _SHUFFLE = 0, 1, 2, 3


def derive_seed(seed: int, stream: int) -> int:
    return int(np.random.SeedSequence((seed, stream)).generate_state(1, dtype=np.uint64)[0])


def check_placement(placement: int, dims) -> None:
    """The block needs at least one layer of the dims network on each side."""
    n_layers = len(dims) - 1
    if not 1 <= placement <= n_layers - 1:
        raise ConfigError(
            f"placement {placement} is out of range [1, {n_layers - 1}]: the block needs "
            f"at least one layer on each side of a {n_layers}-layer network"
        )


class SwitchedAutoencoder:
    """A splittable dense autoencoder plus mask, switch, and light decoder.

    The prefix and suffix share the layers of one underlying network; the
    block sits at cfg.placement. All parameters are reachable through
    named_parameters(), with names stable across runs for checkpointing.
    """

    def __init__(self, dims, activations, cfg: routing.SwitchConfig, seed: int):
        check_placement(cfg.placement, dims)
        self.cfg = cfg
        net = nn.init_network(dims, activations, derive_seed(seed, _NET))
        self.prefix, self.suffix = net.split_at(cfg.placement)
        d = self.suffix.input_dim
        self.mask = routing.LatentMask(d)
        self.switch = routing.build_switch(d, seed=derive_seed(seed, _SWITCH))
        self.light = routing.build_light_decoder(
            self.suffix, cfg.rho, seed=derive_seed(seed, _LIGHT)
        )

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        params = []
        for group, net in (("prefix", self.prefix), ("suffix", self.suffix)):
            for k, layer in enumerate(net.layers):
                params.append((f"{group}.{k}.weights", layer.weights))
                params.append((f"{group}.{k}.bias", layer.bias))
        params.append(("mask.w", self.mask.w))
        for group, net in (("switch", self.switch.net), ("light", self.light)):
            for k, layer in enumerate(net.layers):
                params.append((f"{group}.{k}.weights", layer.weights))
                params.append((f"{group}.{k}.bias", layer.bias))
        return params

    def infer_latent(self, x: np.ndarray) -> np.ndarray:
        h, n = routing.padded_latent(self.prefix, self.mask, x)
        return h[:n]

    def masked_latent(self, x: Tensor, mode: str) -> Tensor:
        """The train-mode masked latent; mode, always "train", is kept for the acceptance gate."""
        if mode != "train":
            raise ContractError(f"masked_latent: unknown mode {mode!r}")
        return self.mask.apply(self.prefix.forward(x))

    def full_output(self, x: Tensor) -> Tensor:
        h, n = routing.padded_latent(self.prefix, self.mask, x.data)
        return Tensor(self.suffix.infer(h, n)[:n])

    def light_output(self, x: Tensor) -> Tensor:
        h, n = routing.padded_latent(self.prefix, self.mask, x.data)
        return Tensor(self.light.infer(h, n)[:n])

    def mixed_output(self, x: Tensor, tau: float):
        return routing.mixed_forward(
            self.prefix, self.mask, self.switch, self.light, self.suffix, x, tau
        )

    def switch_predictions(self, x: Tensor) -> np.ndarray:
        h, n = routing.padded_latent(self.prefix, self.mask, x.data)
        return self.switch.infer(h, n)[:n]

    def passes(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Switch predictions, light and full outputs of x from one latent. By
        row invariance, light's rows where the prediction is below tau and full's
        rows elsewhere are bitwise mixed_output(Tensor(x), tau)'s output."""
        h, n = routing.padded_latent(self.prefix, self.mask, x)
        return (self.switch.infer(h, n)[:n], self.light.infer(h, n)[:n],
                self.suffix.infer(h, n)[:n])

    # Per-sample MAC cost of each strategy, by the in*out counting rule.
    def macs_prefix(self) -> int:
        return nn.mac_count(self.prefix)

    def macs_suffix(self) -> int:
        return nn.mac_count(self.suffix)

    def macs_light(self) -> int:
        return nn.mac_count(self.light)

    def macs_switch(self) -> int:
        return nn.mac_count(self.switch.net)

    def state_arrays(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_arrays(self, state: dict[str, np.ndarray]) -> None:
        params = dict(self.named_parameters())
        if set(state) != set(params):
            missing = sorted(set(params) - set(state))
            extra = sorted(set(state) - set(params))
            raise ConfigError(f"state mismatch: missing {missing}, unexpected {extra}")
        for name, arr in state.items():
            p = params[name]
            if p.data.shape != arr.shape:
                raise ConfigError(
                    f"state {name}: shape {arr.shape} does not match model {p.data.shape}"
                )
            p.data = np.array(arr, dtype=np.float64, order="C")
