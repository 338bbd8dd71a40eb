"""The benchmark under perfbench/ may not be edited, and it reaches into the
package: `--trace 1` swaps timing wrappers onto the names in spans.WRAPPED,
and every request checks the mixed pass against the routing decisions. These
tests fail when a change to the package removes or moves what it relies on."""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from switchpass import routing
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
