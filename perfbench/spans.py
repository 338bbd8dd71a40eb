"""In-memory span recorder that times calls into switchpass's public functions.

The benchmark never edits the package. While a `Tracer` is installed it
replaces selected module attributes and methods with timing wrappers, and
uninstall puts the originals back, so untraced work runs the unmodified code.
Callers inside the package look these names up through their module at call
time (`ag.matmul`, `training.adam_step`, ...), which is what makes the
wrappers see them.

A span is (name, start, end, parent, rows). Self time is a span's duration
minus the durations of its direct children; calls are single-threaded, so
children never overlap.
"""

from __future__ import annotations

import time

from switchpass import autograd as ag
from switchpass import cli
from switchpass import data as dat
from switchpass import evaluation as ev
from switchpass import model as mdl
from switchpass import nn, routing, training

# (owner, attribute, span name). Owners are modules or classes.
WRAPPED = (
    (ag, "matmul", "autograd.matmul"),
    (ag, "backward", "autograd.backward"),
    (nn.Network, "forward", "nn.forward"),
    (routing, "mixed_forward", "routing.mixed_forward"),
    (routing, "calibrate_threshold", "routing.calibrate_threshold"),
    (training, "total_loss", "training.total_loss"),
    (training, "adam_step", "training.adam_step"),
    (training, "switch_mae", "training.switch_mae"),
    (training, "save_checkpoint", "training.save_checkpoint"),
    (training, "load_checkpoint", "training.load_checkpoint"),
    (ev, "calibration_progress", "evaluation.calibration_progress"),
    (dat, "gen_easy", "data.generate"),
    (dat, "gen_hard", "data.generate"),
    (cli, "main", "cli.main"),
)


def tensor_mark() -> int:
    """Node id of a fresh probe Tensor; the difference of two marks minus one
    is the number of Tensors created between them."""
    return ag.Tensor(0.0).node_id


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.rows: list[int] = []
        self.stack: list[int] = []
        # Networks are unhashable dataclasses, so their names key on id().
        self.net_names: dict[int, str] = {}
        # Tensors created per mixed_forward call, and node-id marks plus end
        # times at each adam_step end, one list per traced operation.
        self.tensors_per_call: list[int] = []
        self.step_marks: list[list[tuple[int, float]]] = []
        self._saved: list = []

    # --- recording --------------------------------------------------------

    def _open(self, name: str, rows: int = 0) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.rows.append(rows)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def _wrap(self, fn, name: str):
        tracer = self

        if name == "nn.forward":
            def wrapper(net, x):
                idx = tracer._open(tracer.net_names.get(id(net), "nn.network"), x.shape[0])
                try:
                    return fn(net, x)
                finally:
                    tracer._close(idx)
        elif name == "routing.mixed_forward":
            def wrapper(*args, **kwargs):
                before = tensor_mark()
                idx = tracer._open(name, args[5].shape[0])
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                    tracer.tensors_per_call.append(tensor_mark() - before - 1)
        elif name == "training.adam_step":
            def wrapper(*args, **kwargs):
                idx = tracer._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx)
                    if tracer.step_marks:
                        tracer.step_marks[-1].append((tensor_mark(), tracer.ends[idx]))
        else:
            def wrapper(*args, **kwargs):
                idx = tracer._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    tracer._close(idx)

        wrapper.__wrapped__ = fn
        return wrapper

    def name_model(self, model) -> None:
        for label, net in (("prefix", model.prefix), ("suffix", model.suffix),
                           ("light", model.light), ("switch", model.switch.net)):
            self.net_names[id(net)] = f"nn.{label}.forward"

    def install(self, served_models=()) -> None:
        """Swaps the wrappers in; every model built while installed is named."""
        for owner, attr, name in WRAPPED:
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name))
        init = mdl.SwitchedAutoencoder.__init__
        tracer = self

        def named_init(model, *args, **kwargs):
            init(model, *args, **kwargs)
            tracer.name_model(model)

        self._saved.append((mdl.SwitchedAutoencoder, "__init__", init))
        mdl.SwitchedAutoencoder.__init__ = named_init
        for model in served_models:
            self.name_model(model)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # --- analysis ---------------------------------------------------------

    def totals(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, rows, inclusive seconds and self seconds."""
        child = [0.0] * len(self.names)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                child[parent] += self.ends[i] - self.starts[i]
        out: dict[str, dict[str, float]] = {}
        for i, name in enumerate(self.names):
            dur = self.ends[i] - self.starts[i]
            slot = out.setdefault(name, {"calls": 0, "rows": 0, "s": 0.0, "self_s": 0.0})
            slot["calls"] += 1
            slot["rows"] += self.rows[i]
            slot["s"] += dur
            slot["self_s"] += dur - child[i]
        return out

    def chrome_events(self, limit: int) -> list[dict]:
        """The first `limit` spans in the Chrome trace-event format."""
        t0 = self.starts[0] if self.starts else 0.0
        return [
            {"name": self.names[i], "ph": "X", "pid": 0, "tid": 0,
             "ts": (self.starts[i] - t0) * 1e6, "dur": (self.ends[i] - self.starts[i]) * 1e6,
             "args": {"parent": self.parents[i], "rows": self.rows[i]}}
            for i in range(min(limit, len(self.names)))
        ]
