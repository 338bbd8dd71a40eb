"""Run configuration files: a single JSON document, schema-checked up front.

Sections: arch (dims, activations, placement, rho), dsl (alpha, beta, eps,
and either tau or target_light_fraction), data (synthetic signal parameters,
counts, split ratios, optional wav paths), train (epochs, batch_size, lr,
seed, checkpoint_every), and output_dir. Unknown keys anywhere are rejected;
missing keys fall back to defaults.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

from . import data as dat
from . import routing
from .errors import ConfigError
from .training import DataConfig, TrainConfig

#: Data seed of a config that does not set one, the only default that differs
#: from the dataclasses'. The acceptance gate trains TrainConfig(), so data
#: seed 0, and the benchmark trains `{}` through the CLI, so this seed:
#: changing either would re-seed that suite's corpus.
CLI_DATA_SEED = 11


def _defaults() -> dict:
    train, dsl, data = TrainConfig(), routing.SwitchConfig(), DataConfig()
    return {
        "arch": {"dims": train.dims, "activations": train.activations,
                 "placement": dsl.placement, "rho": dsl.rho},
        "dsl": {"alpha": dsl.alpha, "beta": dsl.beta, "eps": dsl.eps},
        "data": {**asdict(data.spec), "seed": CLI_DATA_SEED, "n_easy": data.n_easy,
                 "n_hard": data.n_hard, "ratios": data.ratios, "wav_paths": data.wav_paths},
        "train": {"epochs": train.epochs, "batch_size": train.batch_size, "lr": train.lr,
                  "seed": train.seed, "checkpoint_every": train.checkpoint_every},
        "output_dir": "switchpass_out",
    }


DEFAULTS = _defaults()

# dsl.tau and dsl.target_light_fraction are optional and mutually exclusive.
_OPTIONAL_KEYS = {"dsl": {"tau", "target_light_fraction"}}


@dataclass
class RunConfig:
    train_cfg: TrainConfig
    output_dir: str
    tau: float | None = None
    target_light_fraction: float | None = None


def check_routing_inputs(tau: float | None, fraction: float | None) -> None:
    """Rejects a routing threshold that is not finite and >= 0, and a target
    light fraction outside [0, 1]; None skips the check."""
    if tau is not None and not (math.isfinite(tau) and tau >= 0.0):
        raise ConfigError(f"tau must be finite and >= 0, got {tau}")
    if fraction is not None and not 0.0 <= fraction <= 1.0:
        raise ConfigError(f"target_light_fraction must be in [0, 1], got {fraction}")


def _merge_section(name: str, user: dict) -> dict:
    defaults = DEFAULTS[name]
    allowed = set(defaults) | _OPTIONAL_KEYS.get(name, set())
    unknown = set(user) - allowed
    if unknown:
        raise ConfigError(f"config section {name}: unknown keys {sorted(unknown)}")
    merged = dict(defaults)
    merged.update(user)
    return merged


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config: top level must be an object")
    unknown = set(doc) - set(DEFAULTS)
    if unknown:
        raise ConfigError(f"config: unknown top-level keys {sorted(unknown)}")
    sections = {
        name: _merge_section(name, doc.get(name, {}))
        for name in ("arch", "dsl", "data", "train")
    }
    arch, dsl, datasec, train = (sections[k] for k in ("arch", "dsl", "data", "train"))

    if "tau" in dsl and "target_light_fraction" in dsl:
        raise ConfigError("config section dsl: tau and target_light_fraction are mutually exclusive")

    switch_cfg = routing.SwitchConfig(
        alpha=float(dsl["alpha"]),
        beta=float(dsl["beta"]),
        eps=float(dsl["eps"]),
        rho=float(arch["rho"]),
        placement=int(arch["placement"]),
    )
    spec = dat.SignalSpec(
        frame_len=int(datasec["frame_len"]),
        easy_noise_amp=float(datasec["easy_noise_amp"]),
        hard_components=int(datasec["hard_components"]),
        hard_freq_range=tuple(float(v) for v in datasec["hard_freq_range"]),
        hard_amp_range=tuple(float(v) for v in datasec["hard_amp_range"]),
        seed=int(datasec["seed"]),
    )
    data_cfg = DataConfig(
        spec=spec,
        n_easy=int(datasec["n_easy"]),
        n_hard=int(datasec["n_hard"]),
        ratios=tuple(float(v) for v in datasec["ratios"]),
        wav_paths=list(datasec["wav_paths"]),
    )
    train_cfg = TrainConfig(
        dims=[int(d) for d in arch["dims"]],
        activations=list(arch["activations"]),
        dsl=switch_cfg,
        data=data_cfg,
        epochs=int(train["epochs"]),
        batch_size=int(train["batch_size"]),
        lr=float(train["lr"]),
        seed=int(train["seed"]),
        checkpoint_every=int(train["checkpoint_every"]),
    )
    train_cfg.check_frame_len()
    output_dir = doc.get("output_dir", DEFAULTS["output_dir"])
    if not isinstance(output_dir, str):
        raise ConfigError(f"config: output_dir must be a string, got {output_dir!r}")
    tau = float(dsl["tau"]) if "tau" in dsl else None
    tlf = dsl.get("target_light_fraction")
    tlf = None if tlf is None else float(tlf)
    check_routing_inputs(tau, tlf)
    return RunConfig(train_cfg=train_cfg, output_dir=output_dir, tau=tau,
                     target_light_fraction=tlf)


def load_run_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path}: invalid JSON: {exc}")
    try:
        return parse_config(doc)
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"config {path}: {exc}")
