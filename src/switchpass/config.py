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

# The JSON type of each key: float takes any number and reads it as a float,
# [t] a list of t, and a bool is none of them. dsl.tau and
# dsl.target_light_fraction have no default: they are optional and mutually exclusive.
_KEY_TYPES = {
    "arch": {"dims": [int], "activations": [str], "placement": int, "rho": float},
    "dsl": {"alpha": float, "beta": float, "eps": float, "tau": float,
            "target_light_fraction": float},
    "data": {"frame_len": int, "easy_noise_amp": float, "hard_components": int,
             "hard_freq_range": [float], "hard_amp_range": [float], "seed": int,
             "n_easy": int, "n_hard": int, "ratios": [float], "wav_paths": [str]},
    "train": {"epochs": int, "batch_size": int, "lr": float, "seed": int,
              "checkpoint_every": int},
}


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


def _typed(value, kind, where: str):
    """value if it has the JSON type `kind` (see _KEY_TYPES), else ConfigError naming where."""
    if isinstance(kind, list):
        if type(value) is not list:
            raise ConfigError(f"config {where}: expected a list, got {value!r}")
        return [_typed(v, kind[0], f"{where}[{i}]") for i, v in enumerate(value)]
    if type(value) is kind or (kind is float and type(value) is int):
        if kind is not float:
            return value
        try:
            return float(value)
        except OverflowError:
            raise ConfigError(f"config {where}: integer too large for a float") from None
    raise ConfigError(f"config {where}: expected {kind.__name__}, got {value!r}")


def _merge_section(name: str, user: dict) -> dict:
    types = _KEY_TYPES[name]
    unknown = set(user) - set(types)
    if unknown:
        raise ConfigError(f"config section {name}: unknown keys {sorted(unknown)}")
    merged = dict(DEFAULTS[name])
    merged.update({k: _typed(v, types[k], f"{name}.{k}") for k, v in user.items()})
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
        alpha=dsl["alpha"],
        beta=dsl["beta"],
        eps=dsl["eps"],
        rho=arch["rho"],
        placement=arch["placement"],
    )
    spec = dat.SignalSpec(
        frame_len=datasec["frame_len"],
        easy_noise_amp=datasec["easy_noise_amp"],
        hard_components=datasec["hard_components"],
        hard_freq_range=tuple(datasec["hard_freq_range"]),
        hard_amp_range=tuple(datasec["hard_amp_range"]),
        seed=datasec["seed"],
    )
    data_cfg = DataConfig(
        spec=spec,
        n_easy=datasec["n_easy"],
        n_hard=datasec["n_hard"],
        ratios=tuple(datasec["ratios"]),
        wav_paths=list(datasec["wav_paths"]),
    )
    train_cfg = TrainConfig(
        dims=list(arch["dims"]),
        activations=list(arch["activations"]),
        dsl=switch_cfg,
        data=data_cfg,
        epochs=train["epochs"],
        batch_size=train["batch_size"],
        lr=train["lr"],
        seed=train["seed"],
        checkpoint_every=train["checkpoint_every"],
    )
    train_cfg.check_frame_len()
    output_dir = doc.get("output_dir", DEFAULTS["output_dir"])
    if not isinstance(output_dir, str):
        raise ConfigError(f"config: output_dir must be a string, got {output_dir!r}")
    tau, tlf = dsl.get("tau"), dsl.get("target_light_fraction")
    check_routing_inputs(tau, tlf)
    return RunConfig(train_cfg=train_cfg, output_dir=output_dir, tau=tau,
                     target_light_fraction=tlf)


def load_run_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config {path}: invalid JSON: {exc}")
    try:
        return parse_config(doc)
    except (TypeError, ValueError, OverflowError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(f"config {path}: {exc}")
