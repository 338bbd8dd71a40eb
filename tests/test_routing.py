import dataclasses

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from switchpass import autograd as ag
from switchpass import nn, routing, training
from switchpass.autograd import MacCounter, Tensor
from switchpass.errors import ConfigError, ContractError, DimensionError
from switchpass.model import SwitchedAutoencoder
from switchpass.training import TrainConfig

from reference_ops import mse

RNG = np.random.default_rng(41)


def make_suffix(dims=(6, 8, 8, 4), seed=2):
    acts = ["tanh"] * (len(dims) - 2) + ["none"]
    return nn.init_network(list(dims), acts, seed)


class TestMask:
    def test_ones_leave_input_unchanged(self):
        mask = routing.LatentMask(4)
        h = Tensor(RNG.uniform(-1, 1, (3, 4)))
        assert np.array_equal(mask.apply(h).data, h.data)
        assert np.array_equal(h.data * mask.hard_weights(), h.data)

    def test_infer_hard_zeroes_small_weights(self):
        mask = routing.LatentMask(3)
        mask.w.data = np.array([0.5, 1e-6, -0.2])
        assert np.array_equal(mask.hard_weights(), [0.5, 0.0, -0.2])

    @pytest.mark.parametrize("change", [
        "write-in-place", "rebind", "load-state-arrays", "adam-step"])
    def test_hard_weights_follow_every_change_of_the_weights(self, change):
        model = SwitchedAutoencoder([8, 6, 5, 8], ["tanh", "relu", "none"],
                                    routing.SwitchConfig(), seed=0)
        params = model.named_parameters()
        state = training.AdamState(params, lr=0.01)
        mask = model.mask
        before = mask.hard_weights().copy()
        if change == "write-in-place":
            mask.w.data[1] = 1e-6
        elif change == "rebind":
            mask.w.data = np.array([0.5, 1e-6, -0.2, 0.3, 2.0, -1e-4])
        elif change == "load-state-arrays":
            arrays = model.state_arrays()
            arrays["mask.w"] = np.array([0.5, 1e-6, -0.2, 0.3, 2.0, -1e-4])
            model.load_state_arrays(arrays)
        else:
            mask.w.grad += np.arange(6.0) - 2.0
            training.adam_step(params, state)
        w = mask.w.data
        want = np.where(np.abs(w) >= routing.HARD_ZERO_EPS, w, 0.0)
        assert want.tobytes() != before.tobytes()
        assert mask.hard_weights().tobytes() == want.tobytes()

    def test_hard_weights_computed_once_per_weight_state(self):
        mask = routing.LatentMask(3)
        first = mask.hard_weights()
        assert mask.hard_weights() is first
        with pytest.raises(ValueError):
            first[0] = 0.0

    def test_train_mode_gradient_wrt_weights_is_input(self):
        mask = routing.LatentMask(4)
        h = Tensor(RNG.uniform(-2, 2, (1, 4)))
        ag.backward(ag.reduce(mask.apply(h), "sum"))
        assert np.allclose(mask.w.grad, h.data[0], rtol=0, atol=0)

    def test_train_mode_gradient_matches_finite_difference(self):
        mask = routing.LatentMask(4)
        mask.w.data = RNG.uniform(0.5, 1.5, 4)
        h = Tensor(RNG.uniform(-2, 2, (6, 4)))

        def loss():
            return float(np.sum((h.data * mask.w.data) ** 2))

        ag.backward(ag.reduce(mask.apply(h), "sq_l2"))
        fd = np.zeros(4)
        eps = 1e-6
        for i in range(4):
            orig = mask.w.data[i]
            mask.w.data[i] = orig + eps
            fp = loss()
            mask.w.data[i] = orig - eps
            fm = loss()
            mask.w.data[i] = orig
            fd[i] = (fp - fm) / (2 * eps)
        assert np.max(np.abs(mask.w.grad - fd) / np.maximum(np.abs(fd), 1e-6)) < 1e-5

    def test_infer_output_invariant_to_zeroed_dims(self):
        # The inference latent hard-masks the prefix output: with an identity
        # prefix, whatever sits in a zeroed dimension cannot reach the output.
        prefix = nn.init_network([3, 3], ["none"], seed=0)
        prefix.layers[0].weights.data = np.eye(3)
        mask = routing.LatentMask(3)
        mask.w.data = np.array([0.5, 1e-6, -0.2])
        out1 = routing.padded_latent(prefix, mask, np.array([[2.0, 123.0, 2.0]]))[0][:1]
        out2 = routing.padded_latent(prefix, mask, np.array([[2.0, -999.0, 2.0]]))[0][:1]
        assert np.array_equal(out1, [[1.0, 0.0, -0.4]])
        assert np.array_equal(out1, out2)

    def test_errors(self):
        mask = routing.LatentMask(3)
        with pytest.raises(DimensionError):
            mask.apply(Tensor(np.zeros((2, 4))))
        with pytest.raises(ContractError):
            TestMixedOutputProperties.MODEL.masked_latent(Tensor(np.zeros((2, 8))), "test")


class TestPassGap:
    def test_values_are_row_norms(self):
        d = Tensor(RNG.uniform(-2, 2, (5, 7)))
        f = Tensor(RNG.uniform(-2, 2, (5, 7)))
        got = routing.pass_gap(d, f).data
        want = np.linalg.norm(d.data - f.data, axis=1)
        assert np.array_equal(got, want)

    def test_untracked(self):
        d = Tensor(np.zeros((2, 3)), requires_grad=True)
        assert not routing.pass_gap(d, Tensor(np.ones((2, 3)))).requires_grad


class TestSwitchAndLwdLosses:
    # Both students' losses are an MSE against a plain-array target, here as
    # the reference graphs' one node, reference_ops.mse.
    def test_switch_loss_zero_when_equal(self):
        p = Tensor(RNG.uniform(0, 1, 5), requires_grad=True)
        assert mse(p, p.data).item() == 0.0

    def test_switch_loss_simple_value(self):
        assert mse(Tensor([0.0], requires_grad=True), np.array([2.0])).item() == 4.0

    def test_switch_loss_batch_matches_hand_average(self):
        p = Tensor(RNG.uniform(0, 2, 5), requires_grad=True)
        a = RNG.uniform(0, 2, 5)
        want = sum((pi - ai) ** 2 for pi, ai in zip(p.data, a)) / 5
        assert mse(p, a).item() == want

    def test_rejects_a_tensor_target(self):
        p = Tensor(np.zeros(3), requires_grad=True)
        for target in (Tensor(np.zeros(3), requires_grad=True), Tensor(np.zeros(3))):
            with pytest.raises(ContractError):
                mse(p, target)

    def test_lwd_loss_values(self):
        d = Tensor(RNG.uniform(-1, 1, (3, 4)), requires_grad=True)
        assert mse(d, d.data).item() == 0.0
        assert abs(mse(d, d.data - 1.0).item() - 1.0) < 1e-12

    def test_lwd_loss_gradient_reaches_student_only(self):
        suffix = make_suffix()
        light = routing.build_light_decoder(suffix, 0.5, seed=3)
        h = Tensor(RNG.uniform(-1, 1, (4, 6)))
        full_out = suffix.forward(h)
        d_out = light.forward(h)
        ag.backward(mse(d_out, full_out.data))
        assert all(layer.weights.grad is not None for layer in light.layers)
        assert all(layer.weights.grad is None for layer in suffix.layers)

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            mse(Tensor(np.zeros((2, 3))), np.zeros((3, 2)))
        with pytest.raises(DimensionError):
            mse(Tensor(np.zeros(2)), np.zeros(3))


class TestBlockLoss:
    def test_arithmetic(self):
        cfg = routing.SwitchConfig(alpha=1.0, beta=0.01)
        out = routing.block_loss(Tensor(0.2), Tensor(0.3), Tensor(3.0), cfg)
        assert abs(out.item() - 0.53) < 1e-12

    def test_zero_weights(self):
        cfg = routing.SwitchConfig(alpha=0.0, beta=0.0)
        out = routing.block_loss(Tensor(123.0), Tensor(4.0), Tensor(9.0), cfg)
        assert out.item() == 0.0

    def test_linearity_in_alpha(self):
        ls, ll, lc = Tensor(0.37), Tensor(0.21), Tensor(5.5)
        one = routing.block_loss(ls, ll, lc, routing.SwitchConfig(alpha=1.0, beta=0.0))
        two = routing.block_loss(ls, ll, lc, routing.SwitchConfig(alpha=2.0, beta=0.0))
        assert abs(two.item() - 2 * one.item()) < 1e-12

    def test_paper_style_small_beta_accepted(self):
        cfg = routing.SwitchConfig(alpha=1.0, beta=1e-5)
        out = routing.block_loss(Tensor(0.0), Tensor(0.0), Tensor(2.0), cfg)
        assert abs(out.item() - 2e-5) < 1e-18


def constant_switch_model(bias: float) -> SwitchedAutoencoder:
    """A small model whose switch predicts softplus(bias) for every row."""
    model = SwitchedAutoencoder([8, 6, 5, 8], ["tanh", "relu", "none"],
                                routing.SwitchConfig(rho=0.5), seed=17)
    last = model.switch.net.layers[-1]
    last.weights.data = np.zeros_like(last.weights.data)
    last.bias.data = np.full_like(last.bias.data, bias)
    return model


ROUTE_X = Tensor(np.random.default_rng(7).uniform(-1, 1, (5, 8)))


class TestRoute:
    def test_zero_prediction_routes_light(self):
        model = constant_switch_model(-1000.0)  # softplus underflows to exactly 0
        assert np.all(model.switch_predictions(ROUTE_X) == 0.0)
        _, decisions = model.mixed_output(ROUTE_X, 0.5)
        assert all(d.kind == routing.LIGHT for d in decisions)

    def test_tie_routes_full(self):
        model = constant_switch_model(0.0)
        tau = float(model.switch_predictions(ROUTE_X)[0])
        _, decisions = model.mixed_output(ROUTE_X, tau)
        assert all(d.kind == routing.FULL for d in decisions)
        _, decisions = model.mixed_output(ROUTE_X, float(np.nextafter(tau, np.inf)))
        assert all(d.kind == routing.LIGHT for d in decisions)

    def test_decisions_are_two_frozen_shared_values(self):
        assert [f.name for f in dataclasses.fields(routing.RouteDecision)] == ["kind"]
        model = TestMixedOutputProperties.MODEL
        preds = model.switch_predictions(ROUTE_X)
        tau = float(np.median(preds))
        _, decisions = model.mixed_output(ROUTE_X, tau)
        assert {id(d) for d in decisions} == {id(routing.LIGHT_ROUTE), id(routing.FULL_ROUTE)}
        for d, p in zip(decisions, preds):
            assert d is (routing.LIGHT_ROUTE if p < tau else routing.FULL_ROUTE)
        with pytest.raises(dataclasses.FrozenInstanceError):
            routing.LIGHT_ROUTE.kind = routing.FULL


class TestCalibration:
    def test_degenerate_distribution(self):
        tau = routing.calibrate_threshold([2.5] * 10, 0.5)
        assert tau == 2.5
        model = constant_switch_model(0.0)
        tau = routing.calibrate_threshold(model.switch_predictions(ROUTE_X), 0.5)
        assert tau == model.switch_predictions(ROUTE_X)[0]
        _, decisions = model.mixed_output(ROUTE_X, tau)
        assert all(d.kind == routing.FULL for d in decisions)

    def test_full_fraction(self):
        assert routing.calibrate_threshold([1.0, 2.0, 3.0, 4.0], 1.0) == 4.0

    def test_uniform_draws_match_sort_oracle(self):
        preds = np.random.default_rng(5).uniform(0, 1, 1000)
        tau = routing.calibrate_threshold(preds, 0.8)
        assert abs(tau - 0.8) < 0.05
        s = np.sort(preds)
        k = 0.8 * (len(s) - 1)
        lo, hi = int(np.floor(k)), int(np.ceil(k))
        oracle = s[lo] + (k - lo) * (s[hi] - s[lo])
        assert abs(tau - oracle) < 1e-12

    def test_realized_fraction_tracks_target(self):
        preds = np.random.default_rng(9).normal(1.0, 0.3, 500)
        for frac in (0.25, 0.6, 0.9):
            tau = routing.calibrate_threshold(preds, frac)
            realized = np.mean(preds < tau)
            assert abs(realized - frac) <= 0.01

    def test_errors(self):
        with pytest.raises(ContractError):
            routing.calibrate_threshold([], 0.5)
        with pytest.raises(ContractError):
            routing.calibrate_threshold([1.0], 1.5)

    @pytest.mark.parametrize("preds, bad", [([np.inf, np.inf], 2), ([1.0, np.nan, 3.0], 1),
                                            ([0.0, 0.0, 0.0, np.inf], 1)])
    def test_prediction_that_is_not_finite_is_an_error(self, preds, bad):
        with np.errstate(invalid="ignore"), pytest.raises(
                ContractError, match=f"{bad} of {len(preds)} predictions are not finite"):
            routing.calibrate_threshold(preds, 0.5)


class TestSparsity:
    def test_all_zero(self):
        mask = routing.LatentMask(4)
        mask.w.data = np.zeros(4)
        assert routing.activation_sparsity(mask) == 1.0

    def test_half(self):
        mask = routing.LatentMask(4)
        mask.w.data = np.array([0.5, 1e-6, -0.2, 0.0])
        assert routing.activation_sparsity(mask) == 0.5


class TestSwitch:
    def test_output_nonnegative_everywhere(self):
        switch = routing.build_switch(8, seed=1)
        for scale in (0.1, 1.0, 10.0, 100.0):
            h = Tensor(scale * np.random.default_rng(2).uniform(-1, 1, (50, 8)))
            assert np.all(switch.predict(h).data >= 0.0)

    def test_hidden_width_rule(self):
        assert routing.build_switch(32, seed=0).net.layers[0].out_dim == 8
        assert routing.build_switch(8, seed=0).net.layers[0].out_dim == 4

    def test_per_sample_scalar(self):
        switch = routing.build_switch(6, seed=0)
        out = switch.predict(Tensor(np.zeros((7, 6))))
        assert out.shape == (7,)


class TestLightDecoder:
    def test_mirrors_shapes_with_scaled_hidden(self):
        suffix = make_suffix((6, 8, 8, 4))
        light = routing.build_light_decoder(suffix, 0.25, seed=1)
        assert light.input_dim == 6
        assert light.output_dim == 4
        assert [l.out_dim for l in light.layers] == [2, 4]
        assert [l.activation for l in light.layers] == ["tanh", "none"]

    def test_widest_hidden_layer_sets_the_width_wherever_it_sits(self):
        suffix = nn.init_network([6, 4, 12, 8, 5], ["relu", "tanh", "tanh", "none"], seed=2)
        light = routing.build_light_decoder(suffix, 0.5, seed=1)
        assert light.input_dim == 6
        assert [l.out_dim for l in light.layers] == [6, 5]
        assert [l.activation for l in light.layers] == ["relu", "none"]

    def test_one_layer_suffix_keeps_in_out(self):
        suffix = nn.init_network([6, 4], ["tanh"], seed=2)
        light = routing.build_light_decoder(suffix, 0.25, seed=1)
        assert light.input_dim == 6
        assert [l.out_dim for l in light.layers] == [4]
        assert [l.activation for l in light.layers] == ["tanh"]

    def test_fewer_parameters_than_suffix(self):
        suffix = make_suffix((16, 32, 32, 16))
        light = routing.build_light_decoder(suffix, 0.25, seed=1)
        assert nn.param_count(light) < nn.param_count(suffix)

    def test_invalid_inputs(self):
        with pytest.raises(ConfigError):
            routing.build_light_decoder(nn.Network([], 4), 0.25, seed=0)
        with pytest.raises(ConfigError):
            routing.build_light_decoder(make_suffix(), 1.5, seed=0)


class TestSwitchConfig:
    def test_validation(self):
        with pytest.raises(ConfigError):
            routing.SwitchConfig(alpha=-1.0)
        with pytest.raises(ConfigError):
            routing.SwitchConfig(rho=1.0)


class TestMixedForward:
    @staticmethod
    def build(seed=3):
        net = nn.init_network([6, 5, 4, 6], ["tanh", "tanh", "none"], seed)
        prefix, suffix = net.split_at(1)
        mask = routing.LatentMask(5)
        switch = routing.build_switch(5, seed=seed + 1)
        light = routing.build_light_decoder(suffix, 0.5, seed=seed + 2)
        return prefix, mask, switch, light, suffix

    def test_tau_zero_is_full_pass_bitwise(self):
        prefix, mask, switch, light, suffix = self.build()
        x = Tensor(RNG.uniform(-1, 1, (9, 6)))
        out, decisions = routing.mixed_forward(prefix, mask, switch, light, suffix, x, 0.0)
        assert all(d.kind == routing.FULL for d in decisions)
        h = prefix.infer(x.data, 9) * mask.hard_weights()
        assert out.data.tobytes() == suffix.infer(h, 9).tobytes()

    def test_huge_tau_is_light_pass_bitwise(self):
        prefix, mask, switch, light, suffix = self.build()
        x = Tensor(RNG.uniform(-1, 1, (9, 6)))
        out, decisions = routing.mixed_forward(prefix, mask, switch, light, suffix, x, 1e18)
        assert all(d.kind == routing.LIGHT for d in decisions)
        h = prefix.infer(x.data, 9) * mask.hard_weights()
        assert out.data.tobytes() == light.infer(h, 9).tobytes()

    def test_per_sample_macs_match_analytic_expectation(self):
        prefix, mask, switch, light, suffix = self.build()
        x = RNG.uniform(-1, 1, (12, 6))
        tau = 0.7
        base = nn.mac_count(prefix) + nn.mac_count(switch.net)
        for i in range(12):
            xi = Tensor(x[i:i + 1])
            with MacCounter() as counter:
                _, decisions = routing.mixed_forward(prefix, mask, switch, light, suffix, xi, tau)
            chosen = nn.mac_count(light if decisions[0].kind == routing.LIGHT else suffix)
            assert counter.total == base + chosen

    def test_routing_monotone_in_tau(self):
        prefix, mask, switch, light, suffix = self.build()
        x = Tensor(RNG.uniform(-1, 1, (40, 6)))
        previous: set = set()
        for tau in (0.0, 0.3, 0.6, 0.9, 2.0, 1e9):
            _, decisions = routing.mixed_forward(prefix, mask, switch, light, suffix, x, tau)
            light_set = {i for i, d in enumerate(decisions) if d.kind == routing.LIGHT}
            assert previous <= light_set
            previous = light_set


def identity_net() -> nn.Network:
    """A 1-wide layer with no activation that passes its input through."""
    net = nn.init_network([1, 1], ["none"], seed=0)
    net.layers[0].weights.data = np.ones((1, 1))
    return net


def ulps_around(center: float, n: int = 64) -> list[float]:
    """center and the n doubles on each side of it."""
    points = [center]
    for direction in (-np.inf, np.inf):
        z = center
        for _ in range(n):
            z = float(np.nextafter(z, direction))
            points.append(z)
    return points


class TestOneRoutingRule:
    """mixed_forward routes a row light exactly when `switch.infer(h, n) < tau`.

    With a 1-wide identity prefix and switch, the switch's pre-softplus
    output z is the input, so the grid walks z across softplus's inverse at
    tau, where the rounding of softplus decides the route."""

    TAUS = [0.0, 5e-324, 2.0 ** -1022, 1e-300, 1e-3, float(np.log(2.0)),
            routing.calibrate_threshold(
                ag.softplus_array(np.random.default_rng(3).normal(-1.0, 2.0, 500)), 0.6),
            50.0, 800.0]

    @staticmethod
    def build(mask_weight: float):
        mask = routing.LatentMask(1)
        mask.w.data = np.array([mask_weight])
        return (identity_net(), mask, routing.Switch(identity_net()),
                nn.init_network([1, 2], ["none"], seed=1), nn.init_network([1, 2], ["tanh"], seed=2))

    @pytest.mark.parametrize("tau", TAUS)
    def test_decision_is_the_switch_prediction_below_tau(self, tau):
        center = tau + np.log(-np.expm1(-tau)) if tau > 0 else -np.inf  # softplus's inverse
        finite = np.array((ulps_around(center) if np.isfinite(center) else [])
                          + list(np.random.default_rng(4).normal(0.0, 5.0, 200))
                          + [0.0, -0.0, 5e-324, -745.2, -708.4])
        # Inference rejects a non-finite input, so z = inf, -inf and NaN come
        # from inputs 1, -1 and 0 under a mask weight of inf.
        for x, mask_weight, z in ((finite, 1.0, finite),
                                  (np.array([1.0, -1.0, 0.0]), np.inf,
                                   np.array([np.inf, -np.inf, np.nan]))):
            prefix, mask, switch, lwd, suffix = pieces = self.build(mask_weight)
            x = x[:, None]
            with np.errstate(invalid="ignore"):
                h, n = routing.padded_latent(prefix, mask, x)
                assert np.array_equal(switch.net.infer(h, n)[:n, 0], z, equal_nan=True)
                expected = switch.infer(h, n)[:n] < tau
                out, decisions = routing.mixed_forward(*pieces, Tensor(x), tau)
                assert [d.kind == routing.LIGHT for d in decisions] == expected.tolist()
                assert np.array_equal(out.data, np.where(expected[:, None], lwd.infer(h, n)[:n],
                                                         suffix.infer(h, n)[:n]), equal_nan=True)
                for i in range(x.shape[0]):
                    _, (decision,) = routing.mixed_forward(*pieces, Tensor(x[i:i + 1]), tau)
                    assert (decision.kind == routing.LIGHT) == expected[i]

    @pytest.mark.parametrize("tau", [-1.0, 0.0, -0.0, np.nan, np.inf])
    def test_tau_no_prediction_can_cross_routes_the_whole_batch_one_way(self, tau):
        # softplus is never negative and NaN compares false, so tau <= 0 and
        # NaN route every row full; tau = inf routes every finite prediction light.
        x = np.array(list(np.random.default_rng(5).normal(0.0, 5.0, 50))
                     + [0.0, -0.0, 5e-324, -745.2, 40.0])[:, None]
        prefix, mask, switch, lwd, suffix = pieces = self.build(1.0)
        h, n = routing.padded_latent(prefix, mask, x)
        light = tau == np.inf
        out, decisions = routing.mixed_forward(*pieces, Tensor(x), tau)
        assert decisions == [routing.LIGHT_ROUTE if light else routing.FULL_ROUTE] * n
        assert out.data.tobytes() == (lwd if light else suffix).infer(h, n)[:n].tobytes()


# A routing threshold drawn as a quantile of the batch's predictions, or None
# for the next float above the largest one, which routes the whole batch light
# (a quantile never does: the largest prediction is not below itself).
TAU_DRAWS = st.one_of(st.floats(0.0, 1.0), st.none())


def check_each_row_equals_its_single_row_pass(model, pool, rows, fraction):
    x = Tensor(pool[rows])
    preds = model.switch_predictions(x)
    tau = float(np.nextafter(preds.max(), np.inf) if fraction is None
                else np.quantile(preds, fraction))
    out, decisions = model.mixed_output(x, tau)
    assert len(decisions) == len(rows)
    for i, decision in enumerate(decisions):
        xi = Tensor(x.data[i:i + 1])
        routes_light = model.switch_predictions(xi)[0] < tau
        assert decision is (routing.LIGHT_ROUTE if routes_light else routing.FULL_ROUTE)
        single = model.light_output(xi) if decision.kind == routing.LIGHT \
            else model.full_output(xi)
        assert out.data[i].tobytes() == single.data[0].tobytes()
    # Eval's parity and probe read the mixed output as this select over one inference.
    pred, light, full = model.passes(x.data)
    assert np.where((pred < tau)[:, None], light, full).tobytes() == out.data.tobytes()


DEFAULT_CFG = TrainConfig()


def uniform_batch_examples(test):
    """All-light (None) and all-full (fraction 0: nothing is below the
    smallest prediction) batches of one row and of several, which take
    mixed_forward's no-gather path."""
    for rows in ([5], [0, 9, 9, 31]):
        for fraction in (None, 0.0):
            test = example(rows=rows, fraction=fraction)(test)
    return test


class TestMixedOutputProperties:
    MODEL = SwitchedAutoencoder([8, 6, 5, 8], ["tanh", "relu", "none"],
                                routing.SwitchConfig(rho=0.5), seed=17)
    POOL = np.random.default_rng(5).uniform(-1, 1, (64, 8))
    # The default architecture: the kernel's bits depend on where a column
    # falls in BLAS's blocks, so row invariance is checked at real widths too.
    DEFAULT_MODEL = SwitchedAutoencoder(DEFAULT_CFG.dims, DEFAULT_CFG.activations,
                                        DEFAULT_CFG.dsl, seed=17)
    DEFAULT_POOL = np.random.default_rng(6).uniform(-1, 1, (64, DEFAULT_CFG.dims[0]))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 63), min_size=1, max_size=40), TAU_DRAWS)
    @uniform_batch_examples
    def test_each_row_equals_its_single_row_pass(self, rows, fraction):
        check_each_row_equals_its_single_row_pass(self.MODEL, self.POOL, rows, fraction)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(0, 63), min_size=1, max_size=40), TAU_DRAWS)
    @uniform_batch_examples
    def test_each_row_equals_its_single_row_pass_at_default_dims(self, rows, fraction):
        check_each_row_equals_its_single_row_pass(self.DEFAULT_MODEL, self.DEFAULT_POOL,
                                                  rows, fraction)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(["prefix", "suffix", "light", "switch"]),
           st.lists(st.integers(0, 63), min_size=1, max_size=40))
    def test_array_forward_equals_tensor_forward_and_is_row_invariant(self, name, rows):
        model = self.MODEL
        net = model.switch.net if name == "switch" else getattr(model, name)
        pool = self.POOL if name == "prefix" else model.infer_latent(self.POOL)
        x = pool[rows]
        out = net.infer(x, len(rows))
        assert out.tobytes() == net.forward(Tensor(x)).data.tobytes()
        for i, row in enumerate(rows):
            assert out[i].tobytes() == net.infer(pool[row:row + 1], 1)[0].tobytes()
        if name == "switch":
            tracked = model.switch.predict(Tensor(x)).data
            assert model.switch.infer(x, len(rows)).tobytes() == tracked.tobytes()

    @settings(max_examples=40, deadline=None)
    @given(st.sampled_from(["prefix", "suffix", "light", "switch"]), st.integers(1, 9),
           st.integers(0, 55), st.booleans())
    def test_infer_padded_once_equals_infer_unpadded(self, name, m, start, default_dims):
        # Serving pads a batch once (ag.pad_rows) and passes its real
        # row count; unpadded, the kernel pads an odd height itself. Both give
        # the real rows the same bits and count MACs for those m rows only.
        model = self.DEFAULT_MODEL if default_dims else self.MODEL
        pool = self.DEFAULT_POOL if default_dims else self.POOL
        if name != "prefix":
            pool = model.infer_latent(pool)
        net = model.switch.net if name == "switch" else getattr(model, name)
        run = model.switch.infer if name == "switch" else net.infer
        x = pool[start:start + m]
        outs = []
        for batch in (ag.pad_rows(x), x):
            with MacCounter() as counter:
                outs.append(run(batch, m)[:m])
            assert counter.total == m * nn.mac_count(net)
        assert outs[0].tobytes() == outs[1].tobytes()

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_macs_count_real_rows_only(self, n):
        # A pass pads an odd batch, and the mixed pass each odd routed subset,
        # to whole 2-row blocks; MacCounter counts the n real rows only.
        model = self.MODEL
        x = Tensor(self.POOL[:n])
        h = model.infer_latent(x.data)
        prefix, switch = model.macs_prefix(), model.macs_switch()
        light, suffix = model.macs_light(), model.macs_suffix()
        expected = {
            "full": (lambda: model.full_output(x), prefix + suffix),
            "light": (lambda: model.light_output(x), prefix + light),
            "switch": (lambda: model.switch_predictions(x), prefix + switch),
            "passes": (lambda: model.passes(x.data), prefix + switch + light + suffix),
            "latent": (lambda: model.infer_latent(x.data), prefix),
            "prefix.infer": (lambda: model.prefix.infer(x.data, n), prefix),
            "suffix.infer": (lambda: model.suffix.infer(h, n), suffix),
            "light.infer": (lambda: model.light.infer(h, n), light),
            "switch.infer": (lambda: model.switch.infer(h, n), switch),
        }
        for name, (run, per_row) in expected.items():
            with MacCounter() as counter:
                run()
            assert counter.total == n * per_row, name
        # Every split of the batch into j light and n - j full rows, j = 0..n.
        preds = np.sort(model.switch_predictions(x))
        assert np.unique(preds).size == n
        taus = [-np.inf, *((preds[1:] + preds[:-1]) / 2), np.inf]
        for j, tau in enumerate(taus):
            with MacCounter() as counter:
                _, decisions = model.mixed_output(x, float(tau))
            assert sum(d.kind == routing.LIGHT for d in decisions) == j
            assert counter.total == n * (prefix + switch) + j * light + (n - j) * suffix, j

    @settings(max_examples=10, deadline=None)
    @given(st.integers(1, 64))
    def test_inference_outputs_build_no_graph(self, n):
        # Counted by node ids, as perfbench's tensor_mark counts: a pass that
        # returns a Tensor creates exactly that one, untracked; a pass that
        # returns arrays creates none.
        model = self.MODEL
        x = Tensor(self.POOL[:n])
        tau = float(np.median(model.switch_predictions(x)))
        passes = {
            "full": lambda: model.full_output(x),
            "light": lambda: model.light_output(x),
            "mixed": lambda: model.mixed_output(x, tau)[0],
            "latent": lambda: model.infer_latent(x.data),
            "switch": lambda: model.switch_predictions(x),
            "passes": lambda: model.passes(x.data),
        }
        for name, run in passes.items():
            before = Tensor(0.0).node_id
            out = run()
            created = Tensor(0.0).node_id - before - 1
            if isinstance(out, Tensor):
                assert (created, out.node_id) == (1, before + 1), name
                assert out.requires_grad is False
                assert out._parents == ()
            else:
                assert created == 0, name
        # Training-mode forwards still build the graph.
        assert model.masked_latent(x, "train").requires_grad


class TestInferenceInput:
    MODEL = SwitchedAutoencoder([64, 16, 64], ["tanh", "none"], routing.SwitchConfig(), seed=3)
    PASSES = {
        "full": lambda model, x: model.full_output(x),
        "light": lambda model, x: model.light_output(x),
        "mixed": lambda model, x: model.mixed_output(x, 0.5),
        "switch": lambda model, x: model.switch_predictions(x),
        "passes": lambda model, x: model.passes(x.data),
    }

    @pytest.mark.parametrize("shape", [(2, 63), (64,)])
    @pytest.mark.parametrize("name", PASSES)
    def test_wrong_shape_is_a_dimension_error(self, name, shape):
        with pytest.raises(DimensionError, match=r"inference: input shape .*\(n, 64\)"):
            self.PASSES[name](self.MODEL, Tensor(np.zeros(shape)))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", PASSES)
    def test_non_finite_row_is_named(self, name, value):
        x = np.zeros((3, 64))
        x[1, 7] = value
        with pytest.raises(ContractError, match="input row 1 is not finite"):
            self.PASSES[name](self.MODEL, Tensor(x))
