"""Bitwise oracle: run a fixed set of CLI commands and hash every output file.

    python3 tools/bitwise_oracle.py OUT_DIR

Runs, through `switchpass.cli.main` and the `src` tree beside this script:

- the default run's corpus: its train, calibrate and test splits, each as
  `data.frames_to_matrix(split).tobytes()`, in that order, into
  OUT_DIR/runs/default/corpus.bin, so a change to generation or splitting
  shows at the corpus, not only through 20 epochs of training;
- a default-config `train` for 20 epochs with a checkpoint every 5, into
  OUT_DIR/runs/default;
- `eval --target-light-fraction 0.6` on that run's final checkpoint, into
  the same directory;
- one more eval of that checkpoint for each other way τ can be set:
  `--tau`, the config's `dsl.tau`, the config's `dsl.target_light_fraction`,
  and no τ input (the default fraction), each into its own
  OUT_DIR/runs/eval-<source>;
- the raw inference outputs of that checkpoint on the test split at the
  eval's τ: `full_output`, `light_output`, `mixed_output` and
  `switch_predictions`, each written as its array's `.tobytes()` into
  OUT_DIR/runs/default/inference/<pass>.bin (raw bytes, not `.npz`, whose
  zip timestamps vary), and that mixed pass's decisions (1 light, 0 full,
  one byte per row) into inference/decisions.bin;
- the same passes at batch 1, one request per row for 64 test rows spread
  evenly over the split (the split lists easy rows before hard ones, so
  its first 64 would all route light): `full_output`, `light_output` and
  `mixed_output` rows concatenated into inference/<pass>_b1.bin, and the
  mixed decisions, in the same byte form, into inference/decisions_b1.bin,
  so the one-row kernel and the switch's routing of single rows are pinned
  too;
- one backward pass at that checkpoint: `training.total_loss` and
  `autograd.backward` on the first 32 rows of the default run's train split,
  every parameter's `.grad.tobytes()` in `named_parameters()` order written
  into OUT_DIR/runs/default/gradients.bin, so a change to the backward walk
  or a VJP shows at the gradient, not only through 20 epochs of Adam; and
  that call's loss breakdown, `l_recon`, `l_switch`, `l_lwd`, `l_comp` and
  `l_total` as five float64, into OUT_DIR/runs/default/losses.bin, so the
  forward value of each loss term is pinned directly too;
- `sweep-beta --betas 1e-5 1e-3 1e-1` and `ablate-placement --placements 1 2`
  on the TINY_CONFIG of tests/test_cli.py, each at `--jobs 1` and `--jobs 2`,
  into OUT_DIR/runs/<command>-jobs<N>;
- `config.parse_config` on each of those configs, as written before its
  `output_dir` is pointed into OUT_DIR, and on `{}`: the parsed RunConfig as
  `json.dumps(dataclasses.asdict(...), sort_keys=True)` into
  OUT_DIR/runs/parsed/<name>.json, so the manifest pins what each config
  parses to, not only what it trains into.

Then writes OUT_DIR/sha256.txt: one leading `#` line naming the build that
made the bits (numpy version, BLAS name and version, BLAS thread count and
machine), then one `digest  relative/path` line per file under OUT_DIR/runs
and one `digest  relative/path#params` line per `checkpoint_*.json`, sorted
by path. A `#params` digest covers the checkpoint's epoch and each
parameter's name, shape and `.tobytes()` in name order, read through this
tree's `training.load_checkpoint`: it compares parameter bits across
checkpoint formats, where the file digests differ. To compare with an
older commit, copy this script into that commit's `tools/`.

A refactoring that must not move any bit is checked by running this on the
parent commit and on the change, on the same build, and comparing the two
manifests; manifests whose `#` lines differ come from different builds and
are not comparable. OUT_DIR must not exist yet.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "tests"),
                os.path.join(ROOT, "perfbench")]

from switchpass import autograd as ag  # noqa: E402
from switchpass import cli, routing, training  # noqa: E402
from switchpass import data as dat  # noqa: E402
from switchpass.autograd import Tensor  # noqa: E402
from switchpass.config import parse_config  # noqa: E402
from run import machine_facts  # noqa: E402  (perfbench/run.py)


def _write_parsed(out_dir: str, name: str, doc: dict) -> None:
    path = os.path.join(out_dir, "runs", "parsed", f"{name}.json")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        fh.write(json.dumps(dataclasses.asdict(parse_config(doc)), sort_keys=True))


DEFAULT_DOC = {"train": {"epochs": 20, "checkpoint_every": 5}}
GRADIENT_ROWS = 32
LOSS_TERMS = ("l_recon", "l_switch", "l_lwd", "l_comp", "l_total")
BATCH1_ROWS = 64

# (run name, dsl section, eval flags): the τ sources besides the default run's flag.
TAU_EVALS = [
    ("eval-flag-tau", {}, ["--tau", "0.78"]),
    ("eval-config-tau", {"tau": 0.8}, []),
    ("eval-config-fraction", {"target_light_fraction": 0.3}, []),
    ("eval-no-tau", {}, []),
]


def _config(out_dir: str, name: str, doc: dict) -> str:
    _write_parsed(out_dir, name, doc)
    path = os.path.join(out_dir, "configs", f"{name}.json")
    with open(path, "w") as fh:
        json.dump({**doc, "output_dir": os.path.join(out_dir, "runs", name)}, fh)
    return path


def _run(argv: list[str]) -> None:
    code = cli.main(argv)
    if code != 0:
        raise SystemExit(f"switchpass {' '.join(argv)} exited {code}")


def _decision_bytes(decisions) -> np.ndarray:
    """One byte per routing decision: 1 light, 0 full."""
    return np.array([d.kind == routing.LIGHT for d in decisions], dtype=np.uint8)


def _write_raw_bits(config: str, checkpoint: str) -> None:
    """Hashes inference outputs, gradients and loss terms directly, not only
    through eval's MSE floats and the checkpoints Adam writes."""
    run_dir = os.path.dirname(checkpoint)
    run = cli._load(config, None)
    model = training.restore_model(run.train_cfg, training.load_checkpoint(checkpoint))
    dataset = training.build_dataset(run.train_cfg.data)
    with open(os.path.join(run_dir, "corpus.bin"), "wb") as fh:
        for split in (dataset.train, dataset.calibrate, dataset.test):
            fh.write(dat.frames_to_matrix(split).tobytes())
    x = Tensor(dat.frames_to_matrix(dataset.test))
    with open(os.path.join(run_dir, "eval_summary.json")) as fh:
        tau = json.load(fh)["tau"]
    mixed, decisions = model.mixed_output(x, tau)
    outputs = {
        "full": model.full_output(x).data,
        "light": model.light_output(x).data,
        "mixed": mixed.data,
        "decisions": _decision_bytes(decisions),
        "switch": model.switch_predictions(x),
    }
    step = max(1, x.shape[0] // BATCH1_ROWS)
    rows = [Tensor(row[None, :]) for row in x.data[::step][:BATCH1_ROWS]]
    mixed = [model.mixed_output(row, tau) for row in rows]
    outputs.update({
        "full_b1": np.concatenate([model.full_output(row).data for row in rows]),
        "light_b1": np.concatenate([model.light_output(row).data for row in rows]),
        "mixed_b1": np.concatenate([out.data for out, _ in mixed]),
        "decisions_b1": _decision_bytes([d for _, (d,) in mixed]),
    })
    os.makedirs(os.path.join(run_dir, "inference"))
    for name, arr in outputs.items():
        with open(os.path.join(run_dir, "inference", f"{name}.bin"), "wb") as fh:
            fh.write(arr.tobytes())

    batch = Tensor(dat.frames_to_matrix(dataset.train[:GRADIENT_ROWS]))
    loss, breakdown = training.total_loss(batch, model)
    ag.backward(loss)
    with open(os.path.join(run_dir, "gradients.bin"), "wb") as fh:
        for _, param in model.named_parameters():
            fh.write(param.grad.tobytes())
    with open(os.path.join(run_dir, "losses.bin"), "wb") as fh:
        fh.write(np.array([breakdown[k] for k in LOSS_TERMS], dtype=np.float64).tobytes())


def params_digest(path: str) -> str:
    """Digest of a checkpoint's epoch and parameters, independent of its file format."""
    ckpt = training.load_checkpoint(path)
    h = hashlib.sha256(f"epoch {ckpt.epoch}\n".encode())
    for name in sorted(ckpt.params):
        arr = ckpt.params[name]
        h.update(f"{name} {arr.shape}\n".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def build_line() -> str:
    """The manifest's leading line: the build the contract pins the bits to."""
    facts = machine_facts()
    return (f"# numpy {facts['numpy']}  blas {facts['blas']}  "
            f"blas_threads {facts['blas_threads']}  machine {facts['machine']}")


def run_oracle(out_dir: str) -> list[str]:
    """Runs every command into out_dir and returns the manifest lines."""
    from test_cli import TINY_CONFIG

    os.makedirs(os.path.join(out_dir, "configs"))
    _write_parsed(out_dir, "empty", {})
    default = _config(out_dir, "default", DEFAULT_DOC)
    _run(["train", default])
    final = os.path.join(out_dir, "runs", "default", "checkpoint_final.json")
    _run(["eval", default, final, "--target-light-fraction", "0.6"])
    _write_raw_bits(default, final)
    for name, dsl, flags in TAU_EVALS:
        _run(["eval", _config(out_dir, name, {**DEFAULT_DOC, "dsl": dsl}), final, *flags])
    for jobs in ("1", "2"):
        config = _config(out_dir, f"sweep-beta-jobs{jobs}", TINY_CONFIG)
        _run(["--jobs", jobs, "sweep-beta", config, "--betas", "1e-5", "1e-3", "1e-1"])
        config = _config(out_dir, f"ablate-placement-jobs{jobs}", TINY_CONFIG)
        _run(["--jobs", jobs, "ablate-placement", config, "--placements", "1", "2"])

    runs = os.path.join(out_dir, "runs")
    lines = []
    for dirpath, _, names in os.walk(runs):
        for name in names:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append(f"{digest}  {os.path.relpath(path, runs)}")
            if name.startswith("checkpoint_") and name.endswith(".json"):
                lines.append(f"{params_digest(path)}  {os.path.relpath(path, runs)}#params")
    return sorted(lines, key=lambda line: line.split("  ", 1)[1])


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print("usage: python3 tools/bitwise_oracle.py OUT_DIR", file=sys.stderr)
        return 2
    out_dir = argv[0]
    lines = run_oracle(out_dir)
    with open(os.path.join(out_dir, "sha256.txt"), "w") as fh:
        fh.write("\n".join([build_line(), *lines]) + "\n")
    print(f"{len(lines)} files hashed into {os.path.join(out_dir, 'sha256.txt')}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
