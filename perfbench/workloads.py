"""The three workloads, their set-up, correctness checks and metrics.

Each workload runs in one process with one closed-loop caller: the next
operation starts only after the previous one returned.

- train: repeated `switchpass train` commands through `cli.main` on the
  default config, shortened to TRAIN_EPOCHS epochs.
- stream_b1: one fresh frame per request, 60% easy / 40% hard.
- batch_hardmix: BATCH_ROWS fresh rows per request, 3 hard to 1 easy.

Set-up, shared by all three and repeated SETUP_REPEATS times, trains the
served model with the code under test, saves and reloads it, calibrates the
routing threshold on the calibration split and generates the request pool.

Every end-to-end time is scaled to nominal machine speed by the reference
kernel (reference.py); the unscaled figures go to the run's details.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import shutil
import statistics
import time
from dataclasses import dataclass

import numpy as np

from switchpass import autograd as ag
from switchpass import cli
from switchpass import config as cfgmod
from switchpass import data as dat
from switchpass import routing, training
from switchpass.autograd import Tensor
from switchpass.model import SwitchedAutoencoder

import spans
from reference import Reference

SETUP_REPEATS = 5
SETUP_EPOCHS = 5
# The default run is 400 epochs with a checkpoint every 10%, i.e. one per 40.
TRAIN_EPOCHS = 40
CHECKPOINT_EVERY = 40
TRAIN_BATCH = 32  # the default batch size, the row count of its reference kernel
TARGET_LIGHT_FRACTION = 0.6
# Request frames come from a data seed far from any config seed, so they are
# never frames of the training corpus.
POOL_SEED_BASE = 1 << 32
B1_POOL = (600, 400)  # easy, hard: the corpus mix
BATCH_POOL = (512, 1536)
BATCH_ROWS = (64, 192)  # easy, hard rows per request
# p99 is the median of the p99s of consecutive blocks of at least this many
# requests, each with ten samples beyond it, so that one disturbed stretch
# moves it less. Serving loops run past their seconds until there are two.
P99_BLOCK = 1000
MIN_REQUESTS = 2 * P99_BLOCK
# The train workload serves batch-1 requests this long after its training.
PROBE_SECONDS = 8.0
ROUTES = ("mixed", "full", "light")
WORKLOADS = ("train", "stream_b1", "batch_hardmix")


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")


def _read_metrics_csv(path: str) -> list[dict[str, float]]:
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        return [dict(zip(header, map(float, line.split(",")))) for line in fh if line.strip()]


def metrics_csv_ok(rows: list[dict[str, float]]) -> bool:
    """Finite everywhere, and the last epoch reconstructs better than the first."""
    if not rows or not all(np.isfinite(v) for row in rows for v in row.values()):
        return False
    return rows[-1]["l_recon"] < rows[0]["l_recon"]


@dataclass
class TrainCommand:
    wall_s: float  # unscaled
    scaled_s: float  # at nominal machine speed
    metrics: list[dict[str, float]]  # metrics.csv rows
    ok: bool


def run_train_command(work_dir: str, epochs: int, ref: Reference | None) -> TrainCommand:
    """One `switchpass train` on the default config with `epochs` epochs and
    a checkpoint every CHECKPOINT_EVERY. Without ref its time is unscaled."""
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    cfg_path = os.path.join(work_dir, "config.json")
    _write_json(cfg_path, {
        "train": {"epochs": epochs, "checkpoint_every": CHECKPOINT_EVERY},
        "output_dir": os.path.join(work_dir, "run"),
    })
    argv = ["train", cfg_path]
    if ref is None:
        start = time.perf_counter()
        code = cli.main(argv)
        wall = scaled = time.perf_counter() - start
    else:
        wall, scaled, code = ref.timed(lambda: cli.main(argv))
    if code != 0:
        return TrainCommand(wall, scaled, [], False)
    rows = _read_metrics_csv(os.path.join(work_dir, "run", "metrics.csv"))
    return TrainCommand(wall, scaled, rows, metrics_csv_ok(rows))


@dataclass
class Served:
    model: SwitchedAutoencoder
    tau: float
    train_rows: int
    training: TrainCommand
    pool: np.ndarray  # request rows
    pool_hard: np.ndarray  # bool per pool row
    fingerprint: bytes  # parameters, tau and pool, to check set-up determinism


def _gen_pool(seed: int, n_easy: int, n_hard: int) -> tuple[np.ndarray, np.ndarray]:
    spec = dat.SignalSpec(seed=POOL_SEED_BASE + seed)
    frames = dat.gen_easy(spec, n_easy) + dat.gen_hard(spec, n_hard)
    hard = np.array([f.difficulty == dat.HARD for f in frames])
    return dat.frames_to_matrix(frames), hard


def set_up(work_dir: str, seed: int, pool_sizes: tuple[int, int]) -> Served:
    trained = run_train_command(work_dir, SETUP_EPOCHS, None)
    if not trained.ok:
        raise RuntimeError("set-up training failed or produced a bad metrics.csv")
    run_cfg = cfgmod.load_run_config(os.path.join(work_dir, "config.json"))
    ckpt = training.load_checkpoint(os.path.join(work_dir, "run", "checkpoint_final.json"))
    model = training.restore_model(run_cfg.train_cfg, ckpt)
    dataset = training.build_dataset(run_cfg.train_cfg.data)
    preds = model.switch_predictions(Tensor(dat.frames_to_matrix(dataset.calibrate)))
    tau = routing.calibrate_threshold(preds, TARGET_LIGHT_FRACTION)
    pool, hard = _gen_pool(seed, *pool_sizes)
    params = b"".join(a.tobytes() for a in model.state_arrays().values())
    return Served(
        model=model, tau=tau, train_rows=len(dataset.train), training=trained,
        pool=pool, pool_hard=hard,
        fingerprint=params + np.float64(tau).tobytes() + pool.tobytes(),
    )


# --- requests ----------------------------------------------------------------


def run_route(served: Served, route: str, x: Tensor):
    """Output Tensor of one pass, plus the routing decisions for "mixed"."""
    if route == "mixed":
        return served.model.mixed_output(x, served.tau)
    if route == "full":
        return served.model.full_output(x), None
    return served.model.light_output(x), None


def request(served: Served, x: np.ndarray, k: int, times: dict[str, list[float]],
            ref: Reference) -> bool:
    """Runs the three passes on one batch, rotating their order by k, with
    the reference kernel timed before, between and after them. Checks the
    mixed output against the passes it routed to."""
    t = Tensor(x)
    outs = {}
    times["ref"].append(ref.time())
    for i in range(len(ROUTES)):
        route = ROUTES[(k + i) % len(ROUTES)]
        start = time.perf_counter()
        out, routed = run_route(served, route, t)
        times[route].append(time.perf_counter() - start)
        times["ref"].append(ref.time())
        outs[route] = out.data
        if route == "mixed":
            decisions = routed
    light = np.array([d.kind == routing.LIGHT for d in decisions], dtype=bool)
    mixed = outs["mixed"]
    expected = np.where(light[:, None], outs["light"], outs["full"])
    return bool(
        np.isfinite(mixed).all()
        and mixed.tobytes() == expected.tobytes()
        and light.sum() == np.count_nonzero(served.model.switch_predictions(t) < served.tau)
    )


def batches(served: Served, workload: str, seed: int):
    """Endless request batches drawn from the pool, reproducible from seed."""
    rng = np.random.Generator(np.random.PCG64(seed))
    pool = served.pool
    if workload == "batch_hardmix":
        easy = np.flatnonzero(~served.pool_hard)
        hard = np.flatnonzero(served.pool_hard)
        while True:
            rows = np.concatenate([rng.choice(easy, BATCH_ROWS[0], replace=False),
                                   rng.choice(hard, BATCH_ROWS[1], replace=False)])
            yield pool[rng.permutation(rows)]
    while True:
        for i in rng.permutation(len(pool)):
            yield pool[i:i + 1]


def pool_mse(served: Served) -> tuple[float, float]:
    """Mixed and full reconstruction MSE over the whole request pool."""
    x = Tensor(served.pool)
    mixed, _ = run_route(served, "mixed", x)
    full, _ = run_route(served, "full", x)
    return (float(np.mean((mixed.data - x.data) ** 2)),
            float(np.mean((full.data - x.data) ** 2)))


def macs_per_row(served: Served) -> dict[str, float]:
    x = Tensor(served.pool)
    out = {}
    for route in ROUTES:
        with ag.MacCounter() as counter:
            run_route(served, route, x)
        out[route] = counter.total / x.shape[0]
    return out


# --- measurement ---------------------------------------------------------------


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64), q))


def block_p99(values: np.ndarray) -> float:
    blocks = np.array_split(values, max(1, len(values) // P99_BLOCK))
    return float(np.median([_pct(b, 99) for b in blocks]))


def scaled_passes(times: dict[str, list[float]], ref: Reference) -> dict[str, np.ndarray]:
    """Each pass's time divided by the mean slowdown of the reference kernel
    timed just before and just after it."""
    slow = ref.slowdowns(times["ref"]).reshape(-1, len(ROUTES) + 1)
    around = (slow[:, :-1] + slow[:, 1:]) / 2.0  # request x position in its order
    k = np.arange(len(slow))
    return {r: np.asarray(times[r]) / around[k, (j - k) % len(ROUTES)]
            for j, r in enumerate(ROUTES)}


def serving_metrics(times: dict[str, list[float]], rows_per_request: int,
                    ref: Reference) -> tuple[dict[str, float], dict[str, float]]:
    """Serving metrics at nominal machine speed, and unscaled p50s."""
    raw = {r: np.asarray(times[r]) for r in ROUTES}
    scaled = scaled_passes(times, ref)
    p50 = {r: _pct(scaled[r], 50) * 1e3 for r in ROUTES}
    metrics = {
        "mixed_ms.p50": p50["mixed"],
        "mixed_ms.p99": block_p99(scaled["mixed"]) * 1e3,
        "full_ms.p50": p50["full"],
        "light_ms.p50": p50["light"],
        "mixed_rows_per_s": rows_per_request / float(np.mean(scaled["mixed"])),
        "full_rows_per_s": rows_per_request / float(np.mean(scaled["full"])),
        "mixed_vs_full_speedup": p50["full"] / p50["mixed"],
    }
    unscaled = {f"{r}_ms.p50": _pct(raw[r], 50) * 1e3 for r in ROUTES}
    unscaled["slowdown.p50"] = float(np.median(ref.slowdowns(times["ref"])))
    return metrics, unscaled


def settle() -> None:
    """Collects the garbage of what ran before and exempts the survivors from
    later collections, so that the collector's pauses in a measured loop do
    not depend on how much set-up left on the heap."""
    gc.collect()
    gc.freeze()


class Run:
    """One benchmark run: set-up, the closed loop, checks and metrics."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, out_dir: str):
        if workload not in WORKLOADS:
            raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.details: dict = {}
        # Kernel row counts: 1 for batch-1 requests; the training batch for
        # everything else, which also keeps the kernel short next to a
        # batch_hardmix pass.
        refs = {rows: Reference(rows) for rows in (1, TRAIN_BATCH)}
        self.refs = {1: refs[1], TRAIN_BATCH: refs[TRAIN_BATCH],
                     sum(BATCH_ROWS): refs[TRAIN_BATCH]}
        self.setup_tracers: list[spans.Tracer] = []
        self.traced_models: tuple = ()

    # Set-up ------------------------------------------------------------------

    def set_up(self) -> Served:
        """Sets up SETUP_REPEATS times; traced when tracing, else scaled."""
        pool_sizes = BATCH_POOL if self.workload == "batch_hardmix" else B1_POOL
        work = os.path.join(self.out_dir, "setup")
        runs, walls, scaled = [], [], []
        for _ in range(SETUP_REPEATS):
            if self.trace:
                tracer = spans.Tracer()
                tracer.install()
                try:
                    runs.append(set_up(work, self.seed, pool_sizes))
                finally:
                    tracer.uninstall()
                self.setup_tracers.append(tracer)
                continue
            wall, nominal, served = self.refs[TRAIN_BATCH].timed(
                lambda: set_up(work, self.seed, pool_sizes))
            runs.append(served)
            walls.append(wall)
            scaled.append(nominal)
        self.attempted += SETUP_REPEATS
        self.failed += sum(r.fingerprint != runs[0].fingerprint for r in runs)
        served = runs[-1]
        self.details["setup"] = {"seconds": walls, "scaled_seconds": scaled,
                                 "tau": served.tau, "train_rows": served.train_rows}
        if not self.trace:
            self.setup_s = statistics.median(scaled)
            # The set-up's own training ran inside the scaled span; scale it alike.
            self.setup_train_fps = statistics.median(
                SETUP_EPOCHS * r.train_rows * w / (r.training.wall_s * s)
                for r, w, s in zip(runs, walls, scaled))
        return served

    # Closed loops ---------------------------------------------------------------

    def _loop(self, op, seconds: float, min_ops: int, trace: bool):
        """Calls op(k, tracer) until `seconds` are spent and at least min_ops
        calls are made. When tracing, odd operations are traced and even ones
        not, so that machine drift hits both alike. Returns which operations
        were traced, and the tracer."""
        traced_ops = []
        tracer = spans.Tracer() if trace else None
        deadline = time.perf_counter() + seconds
        k = 0
        while k < min_ops or time.perf_counter() < deadline:
            traced = tracer is not None and k % 2 == 1
            if traced:
                tracer.install(self.traced_models)
            try:
                ok = op(k, tracer if traced else None)
            finally:
                if traced:
                    tracer.uninstall()
            traced_ops.append(traced)
            self.attempted += 1
            self.failed += not ok
            k += 1
        return traced_ops, tracer

    def serve(self, served: Served, workload: str, seconds: float, trace: bool):
        settle()
        times = {r: [] for r in ROUTES + ("ref",)}
        source = batches(served, workload, self.seed)
        rows = sum(BATCH_ROWS) if workload == "batch_hardmix" else 1
        ref = self.refs[rows]
        self.traced_models = (served.model,)
        traced, tracer = self._loop(lambda k, _: request(served, next(source), k, times, ref),
                                    seconds, 2 if trace else MIN_REQUESTS, trace)
        scaled_ops = sum(scaled_passes(times, ref).values())
        return times, rows, list(zip(traced, scaled_ops)), tracer

    def train_loop(self):
        settle()
        work = os.path.join(self.out_dir, "train")
        commands = []
        self.traced_models = ()

        def op(k, tracer):
            if tracer is not None:
                tracer.step_marks.append([])
            command = run_train_command(work, TRAIN_EPOCHS, self.refs[TRAIN_BATCH])
            commands.append(command)
            if command.metrics:
                self.details["train_l_recon_epoch1"] = command.metrics[0]["l_recon"]
            return command.ok

        traced, tracer = self._loop(op, self.seconds, 2, self.trace)
        finals = {c.metrics[-1]["l_recon"] for c in commands if c.metrics}
        self.failed += len(finals) > 1  # repeated commands must learn the same bits
        return commands, list(zip(traced, (c.scaled_s for c in commands))), tracer

    # Entry -------------------------------------------------------------------------

    def execute(self) -> dict[str, tuple[float, str]]:
        served = self.set_up()
        if self.workload == "train":
            commands, ops, tracer = self.train_loop()
            good = [c for c in commands if c.ok]
            train_fps = statistics.median(TRAIN_EPOCHS * served.train_rows / c.scaled_s
                                          for c in good) if good else 0.0
            l_recon_final = good[-1].metrics[-1]["l_recon"] if good else 0.0
            self.details["train_commands"] = [
                {"seconds": c.wall_s, "scaled_seconds": c.scaled_s} for c in commands]
            if not self.trace:
                times, rows_per_request, _, _ = self.serve(served, "stream_b1", PROBE_SECONDS,
                                                           False)
        else:
            times, rows_per_request, ops, tracer = self.serve(served, self.workload,
                                                               self.seconds, self.trace)
            train_fps = None if self.trace else self.setup_train_fps
            l_recon_final = served.training.metrics[-1]["l_recon"]

        mse_mixed, mse_full = pool_mse(served)
        self.attempted += 1
        self.failed += not (np.isfinite(mse_mixed) and np.isfinite(mse_full) and mse_full > 0)
        self.details["mse"] = {"mixed": mse_mixed, "full": mse_full,
                               "pool_rows": int(served.pool.shape[0])}
        if self.trace:
            return self.layer_metrics(served, ops, tracer)

        serving, unscaled = serving_metrics(times, rows_per_request, self.refs[rows_per_request])
        units = {"mixed_rows_per_s": "1/s", "full_rows_per_s": "1/s",
                 "mixed_vs_full_speedup": "ratio"}
        metrics = {
            "setup_s": (self.setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "train_frames_per_s": (train_fps, "1/s"),
            "train_l_recon_final": (l_recon_final, "mse"),
        }
        metrics.update({name: (value, units.get(name, "ms")) for name, value in serving.items()})
        metrics["mixed_mse_ratio"] = (mse_mixed / mse_full, "ratio")
        self.details["unscaled"] = unscaled
        self.details["ratio_bases"] = {
            "mixed_vs_full_speedup": {"full_ms.p50": serving["full_ms.p50"],
                                      "mixed_ms.p50": serving["mixed_ms.p50"]},
            "mixed_mse_ratio": {"mse_mixed": mse_mixed, "mse_full": mse_full},
        }
        self.details["requests_per_route"] = len(times["mixed"])
        return metrics

    # Per-layer metrics -----------------------------------------------------------

    def layer_metrics(self, served: Served, ops, tracer) -> dict[str, tuple[float, str]]:
        """Per traced operation (request, or train command) unless named
        otherwise. Span times are unscaled; the overhead compares scaled
        operation times, traced against untraced."""
        out: dict[str, tuple[float, str]] = {}
        traced_ops = sum(traced for traced, _ in ops)
        totals = tracer.totals()

        def per_op(name: str, field: str) -> float:
            return totals.get(name, {}).get(field, 0.0) / traced_ops

        out["autograd.matmul.calls"] = (per_op("autograd.matmul", "calls"), "count/op")
        out["autograd.matmul.self_s"] = (per_op("autograd.matmul", "self_s"), "s/op")
        out["autograd.backward.calls"] = (per_op("autograd.backward", "calls"), "count/op")
        out["autograd.backward.self_s"] = (per_op("autograd.backward", "self_s"), "s/op")

        intervals = [(b[0] - a[0] - 1, (b[1] - a[1]) * 1e3)
                     for op in tracer.step_marks for a, b in zip(op, op[1:])]
        step_tensors = [n for n, _ in intervals]
        step_ms = [ms for _, ms in intervals]
        out["autograd.tensors_per_step"] = (
            float(statistics.median(step_tensors)) if step_tensors else 0.0, "count")
        out["autograd.tensors_per_call"] = (
            float(statistics.median(tracer.tensors_per_call)) if tracer.tensors_per_call
            else 0.0, "count")
        for route, macs in macs_per_row(served).items():
            out[f"autograd.macs_per_row.{route}"] = (macs, "count")

        for label in ("prefix", "suffix", "light", "switch"):
            name = f"nn.{label}.forward"
            out[f"nn.{label}.forward_s"] = (per_op(name, "s"), "s/op")
            out[f"nn.{label}.calls"] = (per_op(name, "calls"), "count/op")
            out[f"nn.{label}.rows"] = (per_op(name, "rows"), "count/op")

        out["routing.mixed_forward.self_s"] = (per_op("routing.mixed_forward", "self_s"), "s/op")
        routed = totals.get("routing.mixed_forward", {}).get("rows", 0)
        light = sum(tracer.rows[i] for i, name in enumerate(tracer.names)
                    if name == "nn.light.forward" and tracer.parents[i] >= 0
                    and tracer.names[tracer.parents[i]] == "routing.mixed_forward")
        fraction = light / routed if routed else 0.0
        out["routing.light_fraction"] = (fraction, "ratio")
        out["routing.light_fraction.base"] = (float(routed), "rows")
        m = served.model
        full_macs = m.macs_prefix() + m.macs_suffix()
        mixed_macs = (m.macs_prefix() + m.macs_switch() + fraction * m.macs_light()
                      + (1.0 - fraction) * m.macs_suffix())
        out["routing.mac_speedup_expected"] = (full_macs / mixed_macs if routed else 0.0,
                                               "ratio")

        out["training.total_loss.self_s"] = (per_op("training.total_loss", "self_s"), "s/op")
        out["training.adam_step.self_s"] = (per_op("training.adam_step", "self_s"), "s/op")
        out["training.step_ms.p50"] = (_pct(step_ms, 50) if step_ms else 0.0, "ms")
        out["training.step_ms.p99"] = (_pct(step_ms, 99) if step_ms else 0.0, "ms")
        out["training.switch_mae_s"] = (per_op("training.switch_mae", "s"), "s/op")
        out["training.save_checkpoint_s"] = (per_op("training.save_checkpoint", "s"), "s/op")
        ckpt = os.path.join(self.out_dir, "train", "run", "checkpoint_final.json")
        out["training.checkpoint_bytes"] = (
            float(os.path.getsize(ckpt)) if os.path.exists(ckpt) else 0.0, "bytes")
        out["evaluation.calibration_progress_s"] = (
            per_op("evaluation.calibration_progress", "s"), "s/op")

        # Set-up layers: median over the set-up repetitions.
        def per_setup(name: str) -> float:
            return statistics.median(t.totals().get(name, {}).get("s", 0.0)
                                     for t in self.setup_tracers)

        out["training.load_checkpoint_s"] = (per_setup("training.load_checkpoint"), "s")
        out["data.generate_s"] = (per_setup("data.generate"), "s")
        out["routing.calibrate_threshold_s"] = (per_setup("routing.calibrate_threshold"), "s")

        untraced = statistics.median(s for traced, s in ops if not traced)
        traced = statistics.median(s for traced, s in ops if traced)
        out["trace.overhead_ms"] = ((traced - untraced) * 1e3, "ms/op")
        out["trace.overhead_pct"] = ((traced - untraced) / untraced * 100.0, "%")
        out["trace.ops"] = (float(traced_ops), "count")
        self.details["trace_overhead_base_ms"] = untraced * 1e3
        self.details["spans"] = len(tracer.names)
        _write_json(os.path.join(self.out_dir, "trace.json"),
                    {"traceEvents": tracer.chrome_events(20000)})
        return out
