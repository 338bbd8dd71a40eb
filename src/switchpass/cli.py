"""Command-line entry point.

Commands: train, eval, sweep-beta, ablate-placement, gen-data. All outputs
land under the config's output_dir with stable filenames, each written
through output.write_atomic. Exit codes: 0 success, 2 usage or config
error, 3 training divergence, 4 file format error, 5 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import data as dat
from . import evaluation as ev
from . import routing, training
from .autograd import Tensor
from .config import RunConfig, load_run_config
from .errors import ConfigError, ContractError, FormatError, TrainingError
from .output import write_atomic

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGED = 3
EXIT_FORMAT = 4
EXIT_IO = 5


def _load(config_path: str, seed_override: int | None) -> RunConfig:
    run = load_run_config(config_path)
    if seed_override is not None:
        run.train_cfg = replace(run.train_cfg, seed=seed_override)
        run.train_cfg.data.spec = replace(run.train_cfg.data.spec, seed=seed_override)
    return run


def cmd_train(args) -> int:
    run = _load(args.config, args.seed)
    out = run.output_dir
    result = training.train(run.train_cfg)
    points = None
    if len(result.checkpoints) >= 2 and result.dataset.calibrate:
        points = ev.calibration_progress(run.train_cfg, result.checkpoints,
                                         result.dataset.calibrate)
    os.makedirs(out, exist_ok=True)

    training.write_metrics_csv(result.metrics, os.path.join(out, "metrics.csv"))
    # The last checkpoint is the final one: its text is written again, not re-serialized.
    for ckpt in result.checkpoints:
        text = training.save_checkpoint(
            ckpt, os.path.join(out, f"checkpoint_epoch_{ckpt.epoch:04d}.json"))
    write_atomic(os.path.join(out, "checkpoint_final.json"), text)
    if points is not None:
        ev.write_calibration_csv(points, os.path.join(out, "calibration.csv"),
                                 os.path.join(out, "calibration_scatter.csv"))

    final = result.metrics[-1] if result.metrics else {}
    write_atomic(os.path.join(out, "summary.json"), json.dumps({
        "command": "train",
        "epochs": run.train_cfg.epochs,
        "seed": run.train_cfg.seed,
        "checkpoints": len(result.checkpoints),
        "final_metrics": final,
    }, indent=1, sort_keys=True) + "\n")
    return EXIT_OK


def _resolve_tau(run: RunConfig, model, dataset) -> float:
    if run.tau is not None:
        return run.tau
    fraction = run.target_light_fraction
    if fraction is None:
        fraction = routing.DEFAULT_TARGET_LIGHT_FRACTION
    preds = model.switch_predictions(Tensor(dat.frames_to_matrix(dataset.calibrate)))
    return routing.calibrate_threshold(preds, fraction)


def cmd_eval(args) -> int:
    run = _load(args.config, args.seed)
    if args.tau is not None or args.target_light_fraction is not None:
        # A flag replaces both routing keys; RunConfig checks it before the checkpoint is read.
        run = replace(run, tau=args.tau, target_light_fraction=args.target_light_fraction)
    out = run.output_dir
    ckpt = training.load_checkpoint(args.checkpoint)
    model = training.restore_model(run.train_cfg, ckpt)
    dataset = training.build_dataset(run.train_cfg.data)
    sizes = (f"train/calibrate/test sizes {dataset.split_sizes()}, "
             f"ratios {run.train_cfg.data.ratios}")
    if not dataset.test:
        raise ConfigError(f"eval: the test split is empty ({sizes})")
    if not dataset.train:
        raise ConfigError(
            f"eval: the train split is empty, so the probe cannot be fitted ({sizes})")
    if run.tau is None and not dataset.calibrate:
        raise ConfigError(f"eval: the calibration split is empty, so tau cannot be "
                          f"calibrated; set --tau or dsl.tau ({sizes})")

    tau = _resolve_tau(run, model, dataset)
    report, parity, probe = ev.eval_reports(model, dataset, tau)

    os.makedirs(out, exist_ok=True)
    ev.write_routing_csv(report, os.path.join(out, "routing.csv"))
    ev.write_parity_csv(parity, os.path.join(out, "parity.csv"))
    ev.write_probe_csv(probe, os.path.join(out, "probe.csv"))
    write_atomic(os.path.join(out, "eval_summary.json"), json.dumps({
        "command": "eval",
        "checkpoint_epoch": ckpt.epoch,
        "tau": tau,
        "light_fraction": report.light_fraction,
        "mse": {k: {"full": v.mse_full, "light": v.mse_light, "mixed": v.mse_mixed}
                for k, v in parity.items()},
        "probe": {"full": probe.acc_full, "light": probe.acc_light, "mixed": probe.acc_mixed},
    }, indent=1, sort_keys=True) + "\n")
    return EXIT_OK


def cmd_sweep_beta(args) -> int:
    run = _load(args.config, args.seed)
    points = ev.sparsity_sweep(run.train_cfg, set(args.betas), jobs=args.jobs)
    os.makedirs(run.output_dir, exist_ok=True)
    ev.write_sparsity_csv(points, os.path.join(run.output_dir, "sparsity.csv"))
    return EXIT_OK


def cmd_ablate_placement(args) -> int:
    run = _load(args.config, args.seed)
    rows = ev.placement_ablation(run.train_cfg, set(args.placements), jobs=args.jobs)
    os.makedirs(run.output_dir, exist_ok=True)
    ev.write_ablation_csv(rows, os.path.join(run.output_dir, "ablation.csv"))
    return EXIT_OK


def cmd_gen_data(args) -> int:
    run = _load(args.config, args.seed)
    data_cfg = run.train_cfg.data
    for tag, frames in (
        (dat.EASY, dat.gen_easy(data_cfg.spec, data_cfg.n_easy)),
        (dat.HARD, dat.gen_hard(data_cfg.spec, data_cfg.n_hard)),
    ):
        subdir = os.path.join(args.out, tag)
        os.makedirs(subdir, exist_ok=True)
        if frames:
            samples = np.concatenate([f.samples for f in frames])
            dat.write_wav(os.path.join(subdir, "frames.wav"), samples)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="switchpass")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config's train and data seeds")
    parser.add_argument("--jobs", type=int, default=1,
                        help="parallel runs for sweeps and ablations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model from a config file")
    p.add_argument("config")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint: routing, parity, probe")
    p.add_argument("config")
    p.add_argument("checkpoint")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--tau", type=float, default=None)
    group.add_argument("--target-light-fraction", type=float, default=None,
                       dest="target_light_fraction")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep-beta", help="train once per compression weight")
    p.add_argument("config")
    p.add_argument("--betas", type=float, nargs="+", required=True)
    p.set_defaults(func=cmd_sweep_beta)

    p = sub.add_parser("ablate-placement", help="train once per block position")
    p.add_argument("config")
    p.add_argument("--placements", type=int, nargs="+", required=True)
    p.set_defaults(func=cmd_ablate_placement)

    p = sub.add_parser("gen-data", help="write the synthetic corpus as WAV files")
    p.add_argument("config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen_data)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    try:
        return args.func(args)
    except (ConfigError, ContractError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except TrainingError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DIVERGED
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


def entry() -> None:
    sys.exit(main())
