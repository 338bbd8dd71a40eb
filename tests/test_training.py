import copy
import dataclasses
import functools
import json
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchpass import autograd as ag
from switchpass import data as dat
from switchpass import nn, routing, training
from switchpass.autograd import Tensor
from switchpass.errors import (ConfigError, ContractError, DimensionError, FormatError,
                               TrainingError)
from switchpass.model import _SHUFFLE, SwitchedAutoencoder, derive_seed

from reference_ops import detach, mse


def tiny_config(**kw):
    """A config small enough for second-scale unit tests."""
    cfg = training.TrainConfig(
        dims=[16, 8, 12, 16],
        activations=["tanh", "tanh", "none"],
        dsl=routing.SwitchConfig(placement=1, rho=0.5),
        epochs=kw.pop("epochs", 3),
        batch_size=16,
        seed=kw.pop("seed", 5),
    )
    cfg.data = training.DataConfig(
        spec=dat.SignalSpec(frame_len=16, seed=kw.pop("data_seed", 9)),
        n_easy=kw.pop("n_easy", 60),
        n_hard=kw.pop("n_hard", 60),
        ratios=(0.6, 0.2, 0.2),
    )
    assert not kw
    return cfg


class TestAdam:
    def test_zero_gradient_keeps_parameters(self):
        p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        p.grad = np.zeros(2)
        named = [("p", p)]
        state = training.AdamState(named, lr=0.1)
        training.adam_step(named, state)
        assert np.array_equal(p.data, [1.0, -2.0])

    def test_first_step_is_about_lr(self):
        # m-hat = 1, v-hat = 1 at t=1, so the step is lr/(1 + eps) under unit gradient.
        p = Tensor(np.array([3.0]), requires_grad=True)
        p.grad = np.ones(1)
        named = [("p", p)]
        training.adam_step(named, training.AdamState(named, lr=0.1))
        expected = 3.0 - 0.1 * 1.0 / (1.0 + 1e-8)
        assert abs(p.data[0] - expected) < 1e-15

    def test_parameters_update_independently(self):
        a = Tensor(np.array([1.0]), requires_grad=True)
        b = Tensor(np.array([1.0]), requires_grad=True)
        a.grad = np.array([0.5])
        b.grad = np.array([0.0])
        named = [("a", a), ("b", b)]
        training.adam_step(named, training.AdamState(named, lr=0.1))
        assert a.data[0] != 1.0
        assert b.data[0] == 1.0

    def test_non_finite_gradient_names_parameter(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.array([np.nan])
        named = [("mask.w", p)]
        with pytest.raises(TrainingError, match="mask.w"):
            training.adam_step(named, training.AdamState(named))

    def test_non_finite_gradient_changes_nothing(self):
        a = Tensor(np.array([1.0, -2.0]), requires_grad=True)
        b = Tensor(np.array([[3.0]]), requires_grad=True)
        named = [("a", a), ("b", b)]
        state = training.AdamState(named, lr=0.1)
        a.grad, b.grad = np.array([0.5, -0.25]), np.array([[1.0]])
        training.adam_step(named, state)
        before = [a.data.tobytes(), b.data.tobytes(), state.m.tobytes(), state.v.tobytes()]
        a.grad, b.grad = np.array([0.125, 4.0]), np.array([[np.nan]])
        with pytest.raises(TrainingError, match="parameter b"):
            training.adam_step(named, state)
        assert [a.data.tobytes(), b.data.tobytes(), state.m.tobytes(),
                state.v.tobytes()] == before
        assert state.t == 1

    def test_step_counter_monotone(self):
        p = Tensor(np.array([1.0]), requires_grad=True)
        p.grad = np.ones(1)
        named = [("p", p)]
        state = training.AdamState(named)
        for t in (1, 2, 3):
            training.adam_step(named, state)
            assert state.t == t


class ReferenceAdam:
    """The per-parameter Adam loop that the flat adam_step replaced: one pair
    of moment arrays per parameter. Kept as the bitwise reference."""

    def __init__(self, named_params, lr):
        self.lr = lr
        self.t = 0
        self.m = {name: np.zeros_like(p.data) for name, p in named_params}
        self.v = {name: np.zeros_like(p.data) for name, p in named_params}

    def step(self, named_params):
        self.t += 1
        b1, b2 = training.ADAM_BETA1, training.ADAM_BETA2
        c1 = 1.0 - b1 ** self.t
        c2 = 1.0 - b2 ** self.t
        for name, p in named_params:
            g = np.zeros_like(p.data) if p.grad is None else p.grad
            m, v = self.m[name], self.v[name]
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * (g * g)
            p.data = p.data - self.lr * (m / c1) / (np.sqrt(v / c2) + training.ADAM_EPS)


SHAPES = st.one_of(st.just(()), st.tuples(st.integers(1, 5)),
                   st.tuples(st.integers(1, 4), st.integers(1, 4)))


class TestFlatAdamMatchesReference:
    @settings(max_examples=40, deadline=None)
    @given(st.lists(SHAPES, min_size=0, max_size=5), st.integers(0, 5),
           st.integers(1, 5), st.integers(0, 2**32 - 1), st.data())
    def test_every_step_bitwise_equal(self, shapes, scalar_at, n_steps, seed, data):
        # Between steps each grad is written into its view, rebound to a new
        # array or rebound to None, and each .data may be rebound, as
        # load_state_arrays does. The step copies what was rebound into the
        # flat buffers and binds the same views again. One 0-d parameter
        # always takes its gradient as a numpy scalar.
        shapes.insert(min(scalar_at, len(shapes)), ())
        n = len(shapes)
        rng = np.random.default_rng(seed)
        init = [rng.normal(size=shape) for shape in shapes]
        flat = [(f"p{i}", Tensor(x.copy())) for i, x in enumerate(init)]
        ref = [(f"p{i}", Tensor(x.copy())) for i, x in enumerate(init)]
        state = training.AdamState(flat, lr=0.01)
        reference = ReferenceAdam(ref, lr=0.01)
        views = [(p.data, p.grad) for _, p in flat]
        for _ in range(n_steps):
            modes = data.draw(st.lists(st.sampled_from(["view", "rebind", "none"]),
                                       min_size=n, max_size=n))
            rebind_data = data.draw(st.lists(st.booleans(), min_size=n, max_size=n))
            for (_, p), (_, q), shape, mode, rebind in zip(flat, ref, shapes, modes,
                                                           rebind_data):
                if rebind:
                    p.data = rng.normal(size=shape)
                    q.data = p.data.copy()
                g = rng.normal(size=shape) * 10.0 ** rng.integers(-4, 4)
                if shape == ():
                    g = np.float64(g)
                q.grad = None if mode == "none" else g
                if mode == "view":
                    p.grad[...] = g
                else:
                    p.grad = q.grad
            training.adam_step(flat, state)
            reference.step(ref)
            assert_views_kept(flat, views, state)
            assert_flat_equals_reference(flat, state, ref, reference)

    def test_grads_from_backward_into_the_views(self):
        # The training loop's path: one fill zeroes every grad and backward
        # adds each leaf's adjoint into its view. The reference zeroes each
        # parameter and backward copies the adjoint. Several backward calls in
        # one step accumulate. Grads compare by value: a -0.0 adjoint lands as
        # +0.0 in a zeroed view, and Adam's update is the same for both.
        cfg = tiny_config()
        models = [SwitchedAutoencoder(cfg.dims, cfg.activations, cfg.dsl, cfg.seed)
                  for _ in range(2)]
        flat, ref = (model.named_parameters() for model in models)
        state = training.AdamState(flat, lr=cfg.lr)
        reference = ReferenceAdam(ref, lr=cfg.lr)
        views = [(p.data, p.grad) for _, p in flat]
        rng = np.random.default_rng(3)
        for calls in (1, 2, 1, 3):
            state.grads.fill(0.0)
            for _, q in ref:
                q.zero_grad()
            for _ in range(calls):
                x = rng.uniform(-1, 1, (8, 16))
                for model in models:
                    ag.backward(training.total_loss(Tensor(x), model)[0])
            for (name, p), (_, q), (_, grad) in zip(flat, ref, views):
                assert p.grad is grad and np.array_equal(p.grad, q.grad), name
            training.adam_step(flat, state)
            reference.step(ref)
            assert_views_kept(flat, views, state)
            assert_flat_equals_reference(flat, state, ref, reference)


def assert_views_kept(flat, views, state):
    """Each parameter's .data and .grad are still its C-contiguous views of
    the state's flat buffers."""
    for (name, p), (data, grad) in zip(flat, views):
        assert p.data is data and p.grad is grad, name
        assert data.flags.c_contiguous and grad.flags.c_contiguous
        assert np.shares_memory(data, state.params) and np.shares_memory(grad, state.grads)


def assert_flat_equals_reference(flat, state, ref, reference):
    for (_, p), (_, q) in zip(flat, ref):
        assert np.asarray(p.data).tobytes() == np.asarray(q.data).tobytes()
    for flat_moment, moments in ((state.m, reference.m), (state.v, reference.v)):
        laid = np.concatenate([np.ravel(moments[name]) for name, _ in ref])
        assert flat_moment.tobytes() == laid.tobytes()
    assert state.t == reference.t


def reference_train_checkpoints(cfg):
    """train's loop with a zero_grad per parameter and ReferenceAdam: the
    parameters at epoch 0 and after every epoch."""
    dataset = training.build_dataset(cfg.data)
    model = SwitchedAutoencoder(cfg.dims, cfg.activations, cfg.dsl, cfg.seed)
    named = model.named_parameters()
    adam = ReferenceAdam(named, lr=cfg.lr)
    shuffle_rng = np.random.Generator(np.random.PCG64(derive_seed(cfg.seed, _SHUFFLE)))
    train_mat = dat.frames_to_matrix(dataset.train)
    n = train_mat.shape[0]
    checkpoints = [training.Checkpoint(0, model.state_arrays())]
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            for _, p in named:
                p.zero_grad()
            x = Tensor(train_mat[order[start:start + cfg.batch_size]])
            ag.backward(training.total_loss(x, model)[0])
            adam.step(named)
        checkpoints.append(training.Checkpoint(epoch, model.state_arrays()))
    return checkpoints


def layer_chain(net: nn.Network, x: Tensor) -> Tensor:
    """net's pass as a matmul, bias-add and activation node per layer: a
    graph that shares no code with nn.backprop, the backward under test."""
    for layer in net.layers:
        z = ag.add(ag.matmul(x, layer.weights), layer.bias)
        x = {"none": lambda t: t, "relu": ag.relu, "tanh": ag.tanh}[layer.activation](z)
    return x


def chain_passes(x: Tensor, model: SwitchedAutoencoder):
    """The train-mode masked latent, the full output, a detached latent and
    the light output, each network run by layer_chain."""
    h = model.mask.apply(layer_chain(model.prefix, x))
    h_frozen = detach(h)
    return h, layer_chain(model.suffix, h), h_frozen, layer_chain(model.light, h_frozen)


def chain_predict(model: SwitchedAutoencoder, h: Tensor) -> Tensor:
    """switch.predict with the switch's network run by layer_chain."""
    return ag.reshape(ag.softplus(layer_chain(model.switch.net, h)), (h.shape[0],))


def reference_total_loss(x: Tensor, model: SwitchedAutoencoder):
    """total_loss as a graph of per-op nodes: a matmul, bias-add and
    activation per layer, the mask's multiply, a detached latent, three MSE
    nodes, the L1 node and the weighting nodes. Kept as the bitwise reference
    for the one-node loss."""
    cfg = model.cfg
    h, full_out, h_frozen, d_out = chain_passes(x, model)
    l_recon = mse(full_out, x.data)
    l_lwd = mse(d_out, full_out.data)
    predicted = chain_predict(model, h_frozen)
    l_switch = mse(predicted, routing.pass_gap_array(d_out.data, full_out.data))
    l_comp = ag.reduce(model.mask.w, "l1")
    l_total = ag.add(l_recon, routing.block_loss(l_switch, l_lwd, l_comp, cfg))
    terms = {"l_recon": l_recon, "l_switch": l_switch, "l_lwd": l_lwd, "l_comp": l_comp,
             "l_total": l_total}
    return l_total, {k: t.item() for k, t in terms.items()}


TRUNK_ACTS = st.sampled_from(["tanh", "relu", "none"])


class TestOneNodeLossMatchesTheGraph:
    """training.total_loss against reference_total_loss, bit for bit: the
    breakdown and every parameter's gradient, over placements, trunk
    activations, alpha and beta (0 included) and batch heights."""

    @staticmethod
    def models(draw):
        dims = draw(st.sampled_from([[16, 8, 12, 16], [16, 12, 6, 10, 16]]))
        acts = draw(st.lists(TRUNK_ACTS, min_size=len(dims) - 1, max_size=len(dims) - 1))
        dsl = routing.SwitchConfig(
            placement=draw(st.integers(1, len(dims) - 2)), rho=0.5,
            alpha=draw(st.sampled_from([0.0, 0.7, 1.0])),
            beta=draw(st.sampled_from([0.0, 1e-3, 0.3])))
        seed = draw(st.integers(0, 2**16))
        pair = [SwitchedAutoencoder(dims, acts, dsl, seed) for _ in range(2)]
        # Mask weights spread around 0, some exactly 0, so sign() takes every
        # value. Biases are drawn too: the model's own start at zero, which
        # would hide a wrong bias add.
        rng = np.random.default_rng(seed)
        w = rng.uniform(-1.5, 1.5, pair[0].mask.dim)
        w[::3] = 0.0
        biases = {name: rng.uniform(-0.5, 0.5, p.shape)
                  for name, p in pair[0].named_parameters() if name.endswith(".bias")}
        for model in pair:
            model.mask.w.data = w.copy()
            for name, p in model.named_parameters():
                if name in biases:
                    p.data = biases[name].copy()
        return pair, dims[0]

    @staticmethod
    def batch(draw, width):
        rows = draw(st.sampled_from([1, 7, 32]))
        seed = draw(st.integers(0, 2**16))
        return Tensor(np.random.default_rng(seed).uniform(-1, 1, (rows, width)))

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_grads_from_none(self, data):
        # zero_grad, as criterion 1 and the bitwise oracle leave the grads.
        (model, ref), width = self.models(data.draw)
        x = self.batch(data.draw, width)
        loss, breakdown = training.total_loss(x, model)
        ref_loss, ref_breakdown = reference_total_loss(x, ref)
        assert breakdown == ref_breakdown
        assert loss.data.tobytes() == ref_loss.data.tobytes()
        ag.backward(loss)
        ag.backward(ref_loss)
        for (name, p), (_, q) in zip(model.named_parameters(), ref.named_parameters()):
            assert p.grad.tobytes() == q.grad.tobytes(), name

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_grads_accumulated_into_adam_views(self, data):
        # The training loop's path: one fill zeroes every view, and several
        # backward calls in one step add into them.
        (model, ref), width = self.models(data.draw)
        named, ref_named = model.named_parameters(), ref.named_parameters()
        state, ref_state = training.AdamState(named), training.AdamState(ref_named)
        for calls in data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3)):
            state.grads.fill(0.0)
            ref_state.grads.fill(0.0)
            for _ in range(calls):
                x = self.batch(data.draw, width)
                ag.backward(training.total_loss(x, model)[0])
                ag.backward(reference_total_loss(x, ref)[0])
            assert state.grads.tobytes() == ref_state.grads.tobytes()
            training.adam_step(named, state)
            training.adam_step(ref_named, ref_state)
            assert state.params.tobytes() == ref_state.params.tobytes()

    def test_zero_weights_leave_switch_and_light_untouched(self):
        # With alpha = beta = 0 the switch and imitation losses add exact
        # zeros, so Adam never moves the switch or light decoder.
        cfg = tiny_config(epochs=2)
        cfg.dsl = routing.SwitchConfig(placement=1, rho=0.5, alpha=0.0, beta=0.0)
        result = training.train(cfg)
        first, last = result.checkpoints[0].params, result.checkpoints[-1].params
        for name in first:
            moved = first[name].tobytes() != last[name].tobytes()
            assert moved != name.startswith(("switch.", "light.")), name


ROOT = pathlib.Path(__file__).resolve().parents[1]

# Hashes every parameter's gradient after total_loss and backward, at the
# default and the x8 widths and at both batch heights a default training run
# uses (32, and 22 for the last batch of 1750 rows), then prints the BLAS
# thread count in use and the digest.
GRADIENT_HASH = """
import hashlib
import sys

import numpy as np

sys.path.insert(0, sys.argv[1])
from run import blas_threads
from switchpass import autograd as ag
from switchpass import training
from switchpass.autograd import Tensor
from switchpass.model import SwitchedAutoencoder

cfg = training.TrainConfig()
digest = hashlib.sha256()
for dims in (cfg.dims, [64, 256, 256, 384, 384, 384, 64]):
    model = SwitchedAutoencoder(dims, cfg.activations, cfg.dsl, cfg.seed)
    for rows in (32, 22):
        x = Tensor(np.random.default_rng(rows).uniform(-1, 1, (rows, dims[0])))
        for _, p in model.named_parameters():
            p.zero_grad()
        ag.backward(training.total_loss(x, model)[0])
        for _, p in model.named_parameters():
            digest.update(p.grad.tobytes())
print(blas_threads(), digest.hexdigest())
"""


def test_gradient_bits_do_not_depend_on_the_blas_thread_count():
    # A gradient product is one gemm over the whole batch, the size at which
    # OpenBLAS may split a product across threads. Each count is set before
    # numpy loads, in its own process.
    runs = {}
    for threads in ("1", "2"):
        path = [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(path)}
        done = subprocess.run([sys.executable, "-c", GRADIENT_HASH, str(ROOT / "perfbench")],
                              env=env, capture_output=True, text=True, check=True)
        runs[threads] = done.stdout.split()
    if runs["2"][0] not in ("2", "None"):
        pytest.skip(f"BLAS runs {runs['2'][0]} thread(s) when asked for 2")
    assert runs["1"][1] == runs["2"][1]


class TestTotalLoss:
    def test_zero_weights_reduce_to_reconstruction(self):
        cfg = tiny_config()
        cfg.dsl = routing.SwitchConfig(placement=1, rho=0.5, alpha=0.0, beta=0.0)
        model = SwitchedAutoencoder(cfg.dims, cfg.activations, cfg.dsl, cfg.seed)
        x = Tensor(np.random.default_rng(0).uniform(-1, 1, (8, 16)))
        total, breakdown = training.total_loss(x, model)
        assert breakdown["l_total"] == breakdown["l_recon"]

    def test_zero_frames_loss_is_output_energy(self):
        cfg = tiny_config()
        model = SwitchedAutoencoder(cfg.dims, cfg.activations, cfg.dsl, cfg.seed)
        x = Tensor(np.zeros((4, 16)))
        _, breakdown = training.total_loss(x, model)
        out = model.suffix.forward(model.masked_latent(x, "train"))
        assert abs(breakdown["l_recon"] - float(np.mean(out.data ** 2))) < 1e-15

    def test_breakdown_resums_within_tolerance(self):
        cfg = tiny_config()
        cfg.dsl = routing.SwitchConfig(placement=1, rho=0.5, alpha=0.7, beta=0.013)
        model = SwitchedAutoencoder(cfg.dims, cfg.activations, cfg.dsl, cfg.seed)
        x = Tensor(np.random.default_rng(1).uniform(-1, 1, (8, 16)))
        _, bd = training.total_loss(x, model)
        resum = bd["l_recon"] + 0.7 * bd["l_switch"] + 0.7 * bd["l_lwd"] + 0.013 * bd["l_comp"]
        assert abs(resum - bd["l_total"]) < 1e-12

    def test_gradient_responsibilities_are_disjoint(self):
        cfg = tiny_config()
        model = SwitchedAutoencoder(cfg.dims, cfg.activations, cfg.dsl, cfg.seed)
        x = Tensor(np.random.default_rng(2).uniform(-1, 1, (8, 16)))

        def grads_for(term):
            for _, p in model.named_parameters():
                p.zero_grad()
            _, full_out, h_frozen, d_out = chain_passes(x, model)
            if term == "lwd":
                ag.backward(mse(d_out, full_out.data))
            elif term == "switch":
                predicted = chain_predict(model, h_frozen)
                ag.backward(mse(predicted, routing.pass_gap_array(d_out.data, full_out.data)))
            elif term == "comp":
                ag.backward(ag.reduce(model.mask.w, "l1"))
            return {
                name: (p.grad is not None and np.any(p.grad != 0.0))
                for name, p in model.named_parameters()
            }

        touched = grads_for("lwd")
        assert any(v for k, v in touched.items() if k.startswith("light."))
        assert not any(v for k, v in touched.items() if not k.startswith("light."))
        touched = grads_for("switch")
        assert any(v for k, v in touched.items() if k.startswith("switch."))
        assert not any(v for k, v in touched.items() if not k.startswith("switch."))
        touched = grads_for("comp")
        assert touched["mask.w"]
        assert not any(v for k, v in touched.items() if k != "mask.w")

    @pytest.mark.parametrize("shape", [(4, 15), (4, 17), (16,)])
    def test_batch_of_the_wrong_shape_is_an_error_that_moves_no_grad(self, shape):
        # The prefix pass checks the batch at its entry, before any node exists.
        cfg = tiny_config()
        model = SwitchedAutoencoder(cfg.dims, cfg.activations, cfg.dsl, cfg.seed)
        x = Tensor(np.random.default_rng(3).uniform(-1, 1, (4, 16)))
        ag.backward(training.total_loss(x, model)[0])
        before = {name: p.grad.tobytes() for name, p in model.named_parameters()}
        with pytest.raises(DimensionError, match="forward: input shape"):
            training.total_loss(Tensor(np.ones(shape)), model)
        assert {name: p.grad.tobytes() for name, p in model.named_parameters()} == before


class TestTrainLoop:
    def test_zero_epochs_initial_checkpoint_only(self):
        result = training.train(tiny_config(epochs=0))
        assert len(result.checkpoints) == 1
        assert result.checkpoints[0].epoch == 0
        assert result.metrics == []

    @pytest.mark.parametrize("case", [
        ("lr", -1e-3, r"got 3, 16, -0\.001, 0$"),
        ("dsl.beta", -1.0, r"got 1\.0, -1\.0$"),
        ("epochs", -3, r"got -3, 16, "),
        ("batch_size", 0, r"got 3, 0, "),
        ("data.n_easy", -5, r"got -5, 60$"),
        ("data.n_hard", -5, r"got 60, -5$"),
        ("data.spec.seed", -1, r"got -1$"),
    ], ids=lambda case: case[0])
    def test_field_assigned_after_construction_is_rejected(self, monkeypatch, case):
        # The assignment skips __post_init__; train rebuilds the config, so each
        # value is rejected before the data is built. Unchecked, a negative lr
        # or beta trained silently, negative epochs trained none and a zero
        # batch size died in range().
        path, value, match = case
        cfg = tiny_config()
        *owners, name = path.split(".")
        setattr(functools.reduce(getattr, owners, cfg), name, value)
        monkeypatch.setattr(training, "build_dataset",
                            lambda _: pytest.fail("training ran past the config check"))
        with pytest.raises(ConfigError, match=match):
            training.train(cfg)

    @pytest.mark.parametrize("field, value, match", [
        ("dims", [16, 0, 12, 16], r"dims must be positive, got \[16, 0, 12, 16\]"),
        ("activations", ["tanh", "gelu", "none"], "unknown activation 'gelu'"),
        ("activations", ["tanh", "none"], "need 3 activations for 4 dims, got 2"),
        ("placement", 0, r"placement 0 is out of range \[1, 2\]"),
        ("placement", 3, r"placement 3 is out of range \[1, 2\]"),
        ("placement", -1, r"placement -1 is out of range \[1, 2\]"),
    ], ids=["zero-width", "unknown-activation", "activation-count", "placement-0",
            "placement-3", "placement-negative"])
    def test_architecture_is_checked_when_the_config_is_built(self, monkeypatch, field, value,
                                                              match):
        # Construction, dataclasses.replace and train's rebuild of a field
        # assigned after construction all reject it before any data exists.
        cfg = tiny_config()
        if field == "placement":
            field, value = "dsl", routing.SwitchConfig(placement=value, rho=0.5)
        with pytest.raises(ConfigError, match=match):
            dataclasses.replace(cfg, **{field: value})
        setattr(cfg, field, value)
        monkeypatch.setattr(training, "build_dataset",
                            lambda _: pytest.fail("training ran past the config check"))
        with pytest.raises(ConfigError, match=match):
            training.train(cfg)

    def test_bitwise_deterministic(self):
        a = training.train(tiny_config())
        b = training.train(tiny_config())
        assert a.metrics == b.metrics
        for name in a.checkpoints[-1].params:
            assert np.array_equal(a.checkpoints[-1].params[name],
                                  b.checkpoints[-1].params[name])

    def test_loss_decreases_over_short_run(self):
        result = training.train(tiny_config(epochs=20))
        assert result.metrics[-1]["l_recon"] < result.metrics[0]["l_recon"]

    def test_labels_never_influence_training(self):
        cfg = tiny_config()
        dataset = training.build_dataset(cfg.data)
        stripped = copy.deepcopy(dataset)
        for frame in stripped.train + stripped.calibrate + stripped.test:
            frame.difficulty = None
        a = training.train(cfg, dataset=dataset)
        b = training.train(cfg, dataset=stripped)
        assert a.metrics == b.metrics
        for name in a.checkpoints[-1].params:
            assert np.array_equal(a.checkpoints[-1].params[name],
                                  b.checkpoints[-1].params[name])

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_raises_with_epoch(self):
        # Unbounded relu activations compound an absurd learning rate into
        # overflow within a few steps.
        base = tiny_config()
        cfg = training.TrainConfig(
            dims=base.dims, activations=["relu", "relu", "none"], dsl=base.dsl,
            data=base.data, epochs=30, batch_size=16, lr=1e120, seed=5,
        )
        with pytest.raises(TrainingError, match="epoch"):
            training.train(cfg)

    def test_checkpoints_equal_the_reference_loop(self):
        cfg = tiny_config()
        assert cfg.cadence() == 1
        result = training.train(cfg)
        assert ([training.checkpoint_json(c) for c in result.checkpoints]
                == [training.checkpoint_json(c) for c in reference_train_checkpoints(cfg)])

    def test_default_step_creates_2_tensors(self, monkeypatch):
        # The batch Tensor and the one loss node of a default-config step on
        # 32 rows, counted by node ids between the ends of consecutive steps.
        marks = []
        step = training.adam_step

        def marked(named, state):
            step(named, state)
            marks.append(Tensor(0.0).node_id)

        monkeypatch.setattr(training, "adam_step", marked)
        cfg = training.TrainConfig(epochs=1)
        cfg.data = training.DataConfig(n_easy=80, n_hard=57)  # 96 train rows
        training.train(cfg)
        assert [b - a - 1 for a, b in zip(marks, marks[1:])] == [2, 2]

    def test_batch_that_requires_grad_is_an_error(self):
        # The loss node passes no gradient to the batch, so a batch that asks
        # for one is refused rather than left without it.
        cfg = tiny_config()
        model = SwitchedAutoencoder(cfg.dims, cfg.activations, cfg.dsl, cfg.seed)
        x = Tensor(np.zeros((4, 16)), requires_grad=True)
        with pytest.raises(ContractError, match="total_loss: the batch must not require grad"):
            training.total_loss(x, model)

    def test_checkpoint_cadence_includes_initial_and_final(self):
        cfg = tiny_config(epochs=10)
        cfg.checkpoint_every = 4
        result = training.train(cfg)
        assert [c.epoch for c in result.checkpoints] == [0, 4, 8, 10]


def float64le(*values) -> str:
    return np.array(values, "<f8").tobytes().hex()


class TestCheckpointPersistence:
    @pytest.fixture()
    def saved(self, tmp_path):
        """A one-epoch checkpoint on disk and its parsed document."""
        path = tmp_path / "ckpt.json"
        training.save_checkpoint(training.train(tiny_config(epochs=1)).checkpoints[-1], path)
        return path, json.loads(path.read_text())

    def test_save_load_roundtrip_equal(self, tmp_path):
        result = training.train(tiny_config())
        ckpt = result.checkpoints[-1]
        path = tmp_path / "ckpt.json"
        training.save_checkpoint(ckpt, path)
        loaded = training.load_checkpoint(path)
        assert loaded.epoch == ckpt.epoch
        assert list(loaded.params) == list(ckpt.params)
        for name, want in ckpt.params.items():
            got = loaded.params[name]
            assert (got.dtype, got.shape) == (np.float64, want.shape)
            assert got.tobytes() == want.tobytes()

    def test_save_load_save_byte_identical(self, tmp_path):
        result = training.train(tiny_config())
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        training.save_checkpoint(result.checkpoints[-1], p1)
        training.save_checkpoint(training.load_checkpoint(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_extreme_values_round_trip_bitwise(self, tmp_path):
        tiny, huge = 5e-324, 1.7976931348623157e308
        params = {"a": np.array([[-0.0, tiny], [huge, -huge]]), "b": np.array(-tiny),
                  "c": np.zeros((0, 3)), "d": np.array([0.1, 1 / 3])}
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        training.save_checkpoint(training.Checkpoint(epoch=7, params=params), p1)
        loaded = training.load_checkpoint(p1)
        training.save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        for name, want in params.items():
            assert loaded.params[name].shape == want.shape
            assert loaded.params[name].tobytes() == want.tobytes()
        assert np.signbit(loaded.params["a"][0, 0])

    def test_truncated_file_rejected(self, saved):
        path, _ = saved
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) // 2])
        with pytest.raises(FormatError):
            training.load_checkpoint(path)

    def test_corrupt_field_names_path(self, saved):
        path, doc = saved
        doc["params"]["mask.w"]["float64le"] = doc["params"]["mask.w"]["float64le"][:-16]
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError,
                           match=r"params\.mask\.w\.float64le: expected 64 bytes, got 56"):
            training.load_checkpoint(path)

    def test_version_mismatch(self, saved):
        path, doc = saved
        doc["format_version"] = 99
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="format_version"):
            training.load_checkpoint(path)

    def test_document_holds_only_what_is_read_back(self, saved):
        _, doc = saved
        assert set(doc) == {"format_version", "epoch", "params"}
        assert doc["format_version"] == 4
        for array in doc["params"].values():
            assert set(array) == {"shape", "float64le"}
            assert len(array["float64le"]) == 16 * math.prod(array["shape"])

    def test_version_1_with_adam_block_rejected(self, saved):
        path, doc = saved
        zeros = {k: {"shape": v["shape"], "values": [0.0] * math.prod(v["shape"])}
                 for k, v in doc["params"].items()}
        doc["format_version"] = 1
        doc["params"] = zeros
        doc["adam"] = {"lr": 1e-3, "beta1": 0.9, "beta2": 0.999, "eps": 1e-8, "t": 0,
                       "m": zeros, "v": zeros}
        path.write_text(json.dumps(doc, indent=1) + "\n")
        with pytest.raises(FormatError, match="format_version"):
            training.load_checkpoint(path)

    def test_params_not_an_object_rejected(self, saved):
        path, doc = saved
        doc["params"] = []
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match="field params: expected an object"):
            training.load_checkpoint(path)

    # Each case rewrites mask.w's hex text h (8 values, 128 hex digits).
    @pytest.mark.parametrize("corrupt", [
        lambda h: "xy" + h[2:],
        lambda h: None,
        lambda h: True,
        lambda h: float64le(np.inf) + h[16:],
        lambda h: 10 ** 400,
        lambda h: h[:16] + float64le(np.nan) + h[32:],
        lambda h: h[:-16] + float64le(-np.inf),
        lambda h: h[:-1],
        lambda h: "\u00e9" + h[1:],
        lambda h: h[:16] + " " + h[17:],
        lambda h: h + float64le(1.0),
        lambda h: [h],
    ], ids=["string", "null", "true", "infinity", "huge-int", "nan", "negative-infinity",
            "odd-length", "non-ascii", "whitespace", "extra-value", "list"])
    def test_non_finite_number_names_field(self, saved, corrupt):
        path, doc = saved
        doc["params"]["mask.w"]["float64le"] = corrupt(doc["params"]["mask.w"]["float64le"])
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=r"params\.mask\.w\.float64le"):
            training.load_checkpoint(path)

    @pytest.mark.parametrize("shape", [[-1, 8], [8.0], None, [True] * 8],
                             ids=["negative", "float", "null", "bool"])
    def test_invalid_shape_names_field(self, saved, shape):
        path, doc = saved
        doc["params"]["mask.w"]["shape"] = shape
        path.write_text(json.dumps(doc))
        with pytest.raises(FormatError, match=r"params\.mask\.w\.shape"):
            training.load_checkpoint(path)

    def test_failed_save_keeps_previous_file(self, saved):
        path, _ = saved
        before = path.read_bytes()
        # The last array cannot be converted to float64: the save fails after
        # the other arrays are encoded, before anything is written.
        params = training.load_checkpoint(path).params
        params[list(params)[-1]] = np.array([object()], dtype=object)
        with pytest.raises(TypeError):
            training.save_checkpoint(training.Checkpoint(epoch=1, params=params), path)
        assert path.read_bytes() == before
        assert [p.name for p in path.parent.iterdir()] == ["ckpt.json"]

    def test_forward_pass_preserved_bitwise(self, tmp_path):
        cfg = tiny_config()
        result = training.train(cfg)
        x = Tensor(dat.frames_to_matrix(result.dataset.test))
        want = result.model.full_output(x).data
        path = tmp_path / "ckpt.json"
        training.save_checkpoint(result.checkpoints[-1], path)
        restored = training.restore_model(cfg, training.load_checkpoint(path))
        assert np.array_equal(restored.full_output(x).data, want)


def assert_dense_layout(model: SwitchedAutoencoder, dims) -> None:
    """Every dense weight matrix is C-contiguous (in, out): the dense kernel's
    bits and speed both depend on that layout."""
    trunk = nn.Network(model.prefix.layers + model.suffix.layers, model.prefix.input_dim)
    for net in (trunk, model.switch.net, model.light):
        widths = [net.input_dim] + [layer.bias.shape[0] for layer in net.layers]
        for k, layer in enumerate(net.layers):
            w = layer.weights.data
            assert w.flags.c_contiguous
            assert w.shape == (widths[k], widths[k + 1])
        if net is trunk:
            assert widths == dims


def test_dense_weights_stay_c_contiguous_in_out(tmp_path):
    cfg = tiny_config()
    model = SwitchedAutoencoder(cfg.dims, cfg.activations, cfg.dsl, cfg.seed)
    assert_dense_layout(model, cfg.dims)

    named = model.named_parameters()
    x = Tensor(dat.frames_to_matrix(training.build_dataset(cfg.data).train[:16]))
    ag.backward(training.total_loss(x, model)[0])
    training.adam_step(named, training.AdamState(named))
    assert_dense_layout(model, cfg.dims)

    path = tmp_path / "ckpt.json"
    training.save_checkpoint(training.Checkpoint(1, model.state_arrays()), path)
    assert_dense_layout(training.restore_model(cfg, training.load_checkpoint(path)), cfg.dims)


class TestMetricsCsv:
    def test_header_and_row_count(self, tmp_path):
        cfg = tiny_config(epochs=4)
        result = training.train(cfg)
        path = tmp_path / "metrics.csv"
        training.write_metrics_csv(result.metrics, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "epoch,l_recon,l_switch,l_lwd,l_comp,sparsity,switch_mae"
        assert len(lines) == 4 + 1

    def test_values_roundtrip_exactly(self, tmp_path):
        cfg = tiny_config(epochs=2)
        result = training.train(cfg)
        path = tmp_path / "metrics.csv"
        training.write_metrics_csv(result.metrics, path)
        row = path.read_text().splitlines()[1].split(",")
        assert float(row[1]) == result.metrics[0]["l_recon"]
        assert float(row[6]) == result.metrics[0]["switch_mae"]

    def test_accounting_identity_each_epoch(self):
        cfg = tiny_config(epochs=5)
        cfg.dsl = routing.SwitchConfig(placement=1, rho=0.5, alpha=0.9, beta=0.02)
        result = training.train(cfg)
        for row in result.metrics:
            resum = (row["l_recon"] + 0.9 * row["l_switch"] + 0.9 * row["l_lwd"]
                     + 0.02 * row["l_comp"])
            assert abs(resum - row["l_total"]) < 1e-12
