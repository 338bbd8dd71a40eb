"""Experiment harness: routing statistics, quality parity, compute accounting,
sparsity sweeps, switch calibration progress, placement ablation, and a
difficulty probe on the pass outputs."""

from __future__ import annotations

import multiprocessing
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import data as dat
from . import nn, routing, training
from .autograd import Tensor, sigmoid_array
from .errors import ContractError
from .model import SwitchedAutoencoder
from .output import write_csv
from .training import TrainConfig


def pearson(x: np.ndarray, y: np.ndarray) -> tuple[float, bool]:
    """Correlation coefficient, with degenerate (zero-variance) inputs
    reported as (0.0, True) instead of NaN."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    sx = x.std()
    sy = y.std()
    if sx == 0.0 or sy == 0.0:
        return 0.0, True
    return float(np.mean((x - x.mean()) * (y - y.mean())) / (sx * sy)), False


@dataclass
class RoutingReport:
    """Routing outcomes plus per-frame MAC cost of each strategy.

    All three strategy costs describe the deployed pipeline, where the switch
    runs regardless of the threshold: full-only is the tau=0 limit and
    light-only the tau=inf limit of the mixed pass. Comparisons of the bare
    light decoder against the bare suffix go through nn.mac_count directly.
    """
    tau: float
    n: int
    light_fraction: dict[str, float]  # per difficulty
    counts: dict[str, dict[str, int]]  # difficulty -> {light, full}
    expected_macs_mixed: float  # per frame
    macs_full_only: int  # per frame
    macs_light_only: int  # per frame


def routing_stats(model: SwitchedAutoencoder, frames, tau: float) -> RoutingReport:
    """Routing of frames at tau by the mixed pass's rule,
    `switch_predictions < tau`; only the prefix and switch run. A prediction
    that is not finite raises ContractError."""
    if not frames:
        raise ContractError("routing_stats: empty dataset")
    pred = model.switch_predictions(Tensor(dat.frames_to_matrix(frames)))
    routes_light = routing.check_finite(
        pred, "routing_stats", "switch predictions on the frames") < tau
    return _routing_report(model, _tags(frames), routes_light, tau)


def _tags(frames) -> np.ndarray:
    return np.array([f.difficulty for f in frames], dtype=str)


def _routing_report(model: SwitchedAutoencoder, tags, routes_light, tau: float) -> RoutingReport:
    per_tag, light = Counter(tags.tolist()), Counter(tags[routes_light].tolist())
    counts = {tag: {routing.LIGHT: light[tag], routing.FULL: m - light[tag]}
              for tag, m in per_tag.items()}
    light_fraction = {tag: light[tag] / m for tag, m in per_tag.items()}
    n, n_light = len(tags), sum(light.values())
    base = model.macs_prefix() + model.macs_switch()
    # Integer total first so the mean matches per-sample counters exactly.
    total = n * base + n_light * model.macs_light() + (n - n_light) * model.macs_suffix()
    return RoutingReport(
        tau=float(tau),
        n=n,
        light_fraction=light_fraction,
        counts=counts,
        expected_macs_mixed=total / n,
        macs_full_only=base + model.macs_suffix(),
        macs_light_only=base + model.macs_light(),
    )


def reconstruction_loss(model: SwitchedAutoencoder, frames) -> float:
    """Mean squared reconstruction error of the full path on `frames`."""
    x = Tensor(dat.frames_to_matrix(frames))
    out = model.full_output(x)
    return float(np.mean((out.data - x.data) ** 2))


@dataclass
class ParityReport:
    mse_full: float
    mse_light: float
    mse_mixed: float


def _outputs(model: SwitchedAutoencoder, frames, tau: float, caller: str, split: str):
    """The frames' input matrix, their full, light and mixed outputs from one
    model.passes, and their switch predictions, which must be finite
    (routing.check_finite, naming the caller and the split)."""
    x = dat.frames_to_matrix(frames)
    pred, light, full = model.passes(x)
    routing.check_finite(pred, caller, f"switch predictions on {split}")
    return x, {"full": full, "light": light,
               "mixed": np.where((pred < tau)[:, None], light, full)}, pred


def _parity(x: np.ndarray, outs: dict, rows=slice(None)) -> ParityReport:
    """quality_parity of the given rows of one _outputs: by row invariance,
    bitwise quality_parity of those rows' frames alone."""
    return ParityReport(**{f"mse_{source}": float(np.mean((out[rows] - x[rows]) ** 2))
                           for source, out in outs.items()})


def quality_parity(model: SwitchedAutoencoder, frames, tau: float) -> ParityReport:
    """Reconstruction MSE against the input under each routing strategy. A
    switch prediction that is not finite raises ContractError."""
    x, outs, _ = _outputs(model, frames, tau, "quality_parity", "the frames")
    return _parity(x, outs)


@dataclass
class SparsityCurvePoint:
    beta: float
    sparsity: float
    l_recon: float


def _run_each(run_one, base_cfg: TrainConfig, field: str, values: list, jobs: int) -> list:
    """run_one(cfg, dataset) for base_cfg with its dsl field set to each value.

    Every config is built, and so checked, before the dataset, as is the
    frame length; a repeated value raises, and no values build no dataset.
    With jobs > 1 the runs go to up to that many worker processes. Every run
    gets the same dataset, built once here, and training is deterministic,
    so the results do not depend on jobs.
    """
    if jobs < 1:
        raise ContractError(f"jobs must be >= 1, got {jobs}")
    configs = [replace(base_cfg, dsl=replace(base_cfg.dsl, **{field: v})) for v in values]
    if len(set(values)) != len(values):
        raise ContractError(f"{field} values must be distinct, got {values}")
    base_cfg.check_frame_len()
    if not configs:
        return []
    dataset = training.build_dataset(base_cfg.data)
    args = (configs, [dataset] * len(configs))
    workers = min(jobs, len(configs))
    if workers <= 1:
        return list(map(run_one, *args))
    ctx = multiprocessing.get_context("spawn")
    with ProcessPoolExecutor(max_workers=workers, mp_context=ctx) as pool:
        return list(pool.map(run_one, *args))


def _sweep_point(cfg: TrainConfig, dataset: dat.Dataset) -> SparsityCurvePoint:
    result = training.train(cfg, dataset=dataset)
    l_recon = result.metrics[-1]["l_recon"] if result.metrics else float("nan")
    sparsity = routing.activation_sparsity(result.model.mask)
    return SparsityCurvePoint(beta=cfg.dsl.beta, sparsity=sparsity, l_recon=l_recon)


def sparsity_sweep(base_cfg: TrainConfig, betas, jobs: int = 1) -> list[SparsityCurvePoint]:
    """One full training run per beta, ascending, identical seeds otherwise.
    jobs > 1 spawns worker processes (identical results), so the calling
    script must guard its top level with `if __name__ == "__main__":`."""
    return _run_each(_sweep_point, base_cfg, "beta", sorted(map(float, betas)), jobs)


@dataclass
class CalibrationPoint:
    epoch: int
    mae: float
    pearson_r: float
    degenerate: bool
    predicted: np.ndarray
    actual: np.ndarray


def _calibration_point(model: SwitchedAutoencoder, x: np.ndarray, epoch: int) -> CalibrationPoint:
    """The switch's predictions against the measured distances on x, with
    their MAE and Pearson r."""
    predicted, light, full = model.passes(x)
    actual = routing.pass_gap_array(light, full)
    r, degenerate = pearson(predicted, actual)
    return CalibrationPoint(
        epoch=epoch,
        mae=float(np.mean(np.abs(predicted - actual))),
        pearson_r=r,
        degenerate=degenerate,
        predicted=predicted,
        actual=actual,
    )


def calibration_progress(cfg: TrainConfig, checkpoints, frames) -> list[CalibrationPoint]:
    """Evaluates each checkpoint's switch on the same held-out frames."""
    if len(checkpoints) < 2:
        raise ContractError(f"calibration_progress: need >= 2 checkpoints, got {len(checkpoints)}")
    x = dat.frames_to_matrix(frames)
    return [_calibration_point(training.restore_model(cfg, ckpt), x, ckpt.epoch)
            for ckpt in checkpoints]


@dataclass
class AblationRow:
    placement: int
    pearson_r: float
    mae: float
    prefix_mac_share: float


def _ablation_row(cfg: TrainConfig, dataset: dat.Dataset) -> AblationRow:
    model = training.train(cfg, dataset=dataset).model
    point = _calibration_point(model, dat.frames_to_matrix(dataset.calibrate), cfg.epochs)
    total_macs = model.macs_prefix() + model.macs_suffix()
    return AblationRow(
        placement=cfg.dsl.placement,
        pearson_r=point.pearson_r,
        mae=point.mae,
        prefix_mac_share=model.macs_prefix() / total_macs,
    )


def placement_ablation(base_cfg: TrainConfig, placements, jobs: int = 1) -> list[AblationRow]:
    """One training run per block position, ascending, shared seed and data.
    jobs > 1 spawns worker processes (identical results), so the calling
    script must guard its top level with `if __name__ == "__main__":`."""
    return _run_each(_ablation_row, base_cfg, "placement", sorted(map(int, placements)), jobs)


# --- difficulty probe --------------------------------------------------------


PROBE_EPOCHS = 300
PROBE_LR = 0.05


def fit_probe(x: np.ndarray, y: np.ndarray) -> nn.DenseLayer:
    """Logistic regression, a zero-initialised dense layer (d -> 1) and a
    sigmoid, trained full-batch with the training loop's Adam for a fixed
    budget of PROBE_EPOCHS steps at PROBE_LR. Each step calls the layer on x
    and takes its gradients from nn.backprop over the call's one-record
    trace. Deterministic: zero init, convex loss."""
    n, d = x.shape
    layer = nn.DenseLayer(Tensor(np.zeros((d, 1))), Tensor(np.zeros(1)))
    params = [("w", layer.weights), ("b", layer.bias)]
    state = training.AdamState(params, lr=PROBE_LR)
    for _ in range(PROBE_EPOCHS):
        z = layer(x)
        err = (sigmoid_array(z) - y[:, None]) / n
        trace = [(x, layer.weights.data, z, layer.activation)]
        _, (layer.weights.grad, layer.bias.grad) = nn.backprop(trace, err, False)
        training.adam_step(params, state)
    return layer


def probe_accuracy(probe: nn.DenseLayer, x: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean((sigmoid_array(probe(x)[:, 0]) > 0.5).astype(np.float64) == y))


@dataclass
class DownstreamReport:
    acc_full: float
    acc_light: float
    acc_mixed: float


def _labels(tags: np.ndarray) -> np.ndarray:
    return (tags == dat.HARD).astype(np.float64)


def downstream_probe(model: SwitchedAutoencoder, dataset: dat.Dataset,
                     tau: float) -> DownstreamReport:
    """Difficulty probe over the masked latent of each strategy's output.

    A downstream consumer sees the signal each strategy emits, so the probe
    embeds that signal the way the pipeline itself would (masked latent of
    the re-encoded output) and classifies easy vs hard from there. One probe
    per source, fit on the train split, scored on the test split.
    """
    return _probe(model, dataset, tau,
                  _outputs(model, dataset.test, tau, "downstream_probe", "the test split")[1],
                  _tags(dataset.test))


def _probe(model: SwitchedAutoencoder, dataset: dat.Dataset, tau: float,
           test: dict, test_tags: np.ndarray) -> DownstreamReport:
    """downstream_probe, given the test split's outputs from _outputs and its tags."""
    _, train, _ = _outputs(model, dataset.train, tau, "downstream_probe", "the train split")
    y_train, y_test = _labels(_tags(dataset.train)), _labels(test_tags)
    accs = {}
    for source in train:
        probe = fit_probe(model.infer_latent(train[source]), y_train)
        accs[f"acc_{source}"] = probe_accuracy(probe, model.infer_latent(test[source]), y_test)
    return DownstreamReport(**accs)


def eval_reports(model: SwitchedAutoencoder, dataset: dat.Dataset, tau: float):
    """routing_stats and quality_parity of the test split, quality_parity of
    each difficulty in it, keyed "overall", "easy" and "hard", and
    downstream_probe, bit for bit, from one model.passes over the test split.
    The split must not be empty, and a switch prediction on it that is not
    finite (from a diverged switch) raises ContractError naming the count."""
    frames = dataset.test
    x, outs, pred = _outputs(model, frames, tau, "eval_reports", "the test split")
    parity = {"overall": _parity(x, outs)}
    tags = _tags(frames)
    for tag in (dat.EASY, dat.HARD):
        rows = np.flatnonzero(tags == tag)
        if rows.size:
            parity[tag] = _parity(x, outs, rows)
    return (_routing_report(model, tags, pred < tau, tau), parity,
            _probe(model, dataset, tau, outs, tags))


# --- CSV writers -------------------------------------------------------------


def write_routing_csv(report: RoutingReport, path) -> None:
    write_csv(path, ("difficulty", "n", "light", "full", "light_fraction", "tau",
                     "expected_macs_mixed", "macs_full_only", "macs_light_only"), (
        (tag, slot[routing.LIGHT] + slot[routing.FULL], slot[routing.LIGHT],
         slot[routing.FULL], report.light_fraction[tag], report.tau,
         report.expected_macs_mixed, report.macs_full_only, report.macs_light_only)
        for tag, slot in sorted(report.counts.items())
    ))


def write_parity_csv(reports: dict[str, ParityReport], path) -> None:
    write_csv(path, ("scope", "mse_full", "mse_light", "mse_mixed"), (
        (scope, r.mse_full, r.mse_light, r.mse_mixed) for scope, r in sorted(reports.items())
    ))


def write_sparsity_csv(points: list[SparsityCurvePoint], path) -> None:
    write_csv(path, ("beta", "sparsity", "l_recon"),
              ((p.beta, p.sparsity, p.l_recon) for p in points))


def write_calibration_csv(points: list[CalibrationPoint], path, scatter_path) -> None:
    write_csv(path, ("epoch", "switch_mae", "pearson_r", "degenerate"),
              ((p.epoch, p.mae, p.pearson_r, int(p.degenerate)) for p in points))
    write_csv(scatter_path, ("epoch", "predicted", "actual"), (
        (p.epoch, pred, act) for p in points for pred, act in zip(p.predicted, p.actual)
    ))


def write_ablation_csv(rows: list[AblationRow], path) -> None:
    write_csv(path, ("placement", "pearson_r", "switch_mae", "prefix_mac_share"),
              ((r.placement, r.pearson_r, r.mae, r.prefix_mac_share) for r in rows))


def write_probe_csv(report: DownstreamReport, path) -> None:
    write_csv(path, ("source", "accuracy"), (
        ("full", report.acc_full), ("light", report.acc_light), ("mixed", report.acc_mixed)
    ))
