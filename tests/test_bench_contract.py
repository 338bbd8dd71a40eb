"""The benchmark under perfbench/ may not be edited, and it reaches into the
package: `--trace 1` swaps timing wrappers onto the names in spans.WRAPPED,
and every request checks the mixed pass against the routing decisions. These
tests fail when a change to the package removes or moves what it relies on."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from switchpass import autograd as ag
from switchpass import data as dat
from switchpass import evaluation as ev
from switchpass import nn, routing
from switchpass.autograd import Tensor
from switchpass.model import SwitchedAutoencoder

_SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
_spec = importlib.util.spec_from_file_location("perfbench_spans", _SPANS_PATH)
spans = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(spans)


@pytest.mark.parametrize(
    "owner, attr", [(owner, attr) for owner, attr, _ in spans.WRAPPED],
    ids=[f"{owner.__name__}.{attr}" for owner, attr, _ in spans.WRAPPED],
)
def test_wrapped_name_is_defined_on_its_owner(owner, attr):
    # The tracer reads and restores owner.__dict__[attr]; an inherited or
    # re-exported name would break install().
    assert callable(owner.__dict__.get(attr))


def test_mixed_output_decisions_have_kind():
    model = SwitchedAutoencoder([8, 6, 8], ["tanh", "none"], routing.SwitchConfig(), seed=0)
    x = Tensor(np.random.default_rng(0).uniform(-1, 1, (6, 8)))
    tau = float(np.median(model.switch_predictions(x)))
    out, decisions = model.mixed_output(x, tau)
    assert out.shape == (6, 8)
    kinds = [d.kind for d in decisions]
    assert len(kinds) == 6
    assert set(kinds) == {routing.LIGHT, routing.FULL}


def test_route_macs_per_row_match_the_analytic_counts():
    # The benchmark's macs_per_row counts each route under ag.MacCounter.
    spec = dat.SignalSpec(frame_len=16, seed=3)
    frames = dat.gen_easy(spec, 20) + dat.gen_hard(spec, 12)
    model = SwitchedAutoencoder([16, 8, 12, 16], ["tanh", "tanh", "none"],
                                routing.SwitchConfig(rho=0.5), seed=4)
    x = Tensor(dat.frames_to_matrix(frames))
    tau = float(np.median(model.switch_predictions(x)))
    n = x.shape[0]
    expected = {
        "full": nn.mac_count(model.prefix) + nn.mac_count(model.suffix),
        "light": nn.mac_count(model.prefix) + nn.mac_count(model.light),
        "mixed": ev.routing_stats(model, frames, tau).expected_macs_mixed,
    }
    passes = {
        "full": lambda: model.full_output(x),
        "light": lambda: model.light_output(x),
        "mixed": lambda: model.mixed_output(x, tau),
    }
    for route, run in passes.items():
        with ag.MacCounter() as counter:
            run()
        assert counter.total / n == expected[route], route


def test_serving_runs_each_network_through_one_network_infer_call(monkeypatch):
    # A span on nn.Network.infer is to time serving: every network a pass
    # runs, the switch's included, goes through that one method once.
    model = SwitchedAutoencoder([8, 6, 8], ["tanh", "none"], routing.SwitchConfig(), seed=0)
    batch = Tensor(np.random.default_rng(2).uniform(-1, 1, (6, 8)))
    tau = float(np.median(model.switch_predictions(batch)))
    assert {d.kind for d in model.mixed_output(batch, tau)[1]} == {routing.LIGHT, routing.FULL}
    row = Tensor(batch.data[:1])
    infer, calls = nn.Network.infer, []

    def counted(net, x, n):
        calls.append(net)
        return infer(net, x, n)

    monkeypatch.setattr(nn.Network, "infer", counted)
    passes = {
        "full_output": (lambda: model.full_output(row), 2),
        "light_output": (lambda: model.light_output(row), 2),
        "switch_predictions": (lambda: model.switch_predictions(row), 2),
        "passes": (lambda: model.passes(row.data), 4),
        "mixed_output": (lambda: model.mixed_output(row, tau), 3),
        "mixed_output routing both ways": (lambda: model.mixed_output(batch, tau), 4),
    }
    for name, (run, want) in passes.items():
        calls.clear()
        run()
        assert len(calls) == want, name


def test_tracer_records_one_mixed_forward_span_and_uninstall_restores_every_name():
    # `--trace 1` reads the batch size from mixed_forward's sixth positional
    # argument, and untraced work must run the unwrapped code again.
    model = SwitchedAutoencoder([8, 6, 8], ["tanh", "none"], routing.SwitchConfig(), seed=0)
    x = Tensor(np.random.default_rng(1).uniform(-1, 1, (5, 8)))
    tau = float(np.median(model.switch_predictions(x)))
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in spans.WRAPPED]
    init = SwitchedAutoencoder.__dict__["__init__"]
    tracer = spans.Tracer()
    tracer.install(served_models=[model])
    try:
        model.mixed_output(x, tau)
    finally:
        tracer.uninstall()
    assert tracer.names.count("routing.mixed_forward") == 1
    span = tracer.totals()["routing.mixed_forward"]
    assert (span["calls"], span["rows"]) == (1, 5)
    for owner, attr, original in originals:
        assert owner.__dict__[attr] is original, f"{owner.__name__}.{attr}"
    assert SwitchedAutoencoder.__dict__["__init__"] is init
