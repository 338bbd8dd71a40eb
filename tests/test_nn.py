import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchpass import autograd as ag
from switchpass import nn
from switchpass.autograd import MacCounter, Tensor
from switchpass.errors import ConfigError, DimensionError

RNG = np.random.default_rng(7)


def random_net(dims, seed=0, activation="tanh"):
    acts = [activation] * (len(dims) - 2) + ["none"]
    return nn.init_network(dims, acts, seed)


class TestForward:
    def test_empty_network_is_identity(self):
        net = nn.Network([], input_dim=5)
        x = Tensor(RNG.uniform(-1, 1, (3, 5)))
        assert np.array_equal(net.forward(x).data, x.data)

    def test_identity_layer(self):
        layer = nn.DenseLayer(Tensor(np.eye(4), requires_grad=True),
                              Tensor(np.zeros(4), requires_grad=True), "none")
        net = nn.Network([layer], input_dim=4)
        x = Tensor(RNG.uniform(-1, 1, (2, 4)))
        assert np.array_equal(net.forward(x).data, x.data)

    def test_two_layer_matches_hand_composition(self):
        net = random_net([5, 4, 3], seed=3)
        x = Tensor(RNG.uniform(-1, 1, (6, 5)))
        l0, l1 = net.layers
        # init_network's biases are zero, which would hide a wrong bias add.
        for layer in net.layers:
            layer.bias.data = RNG.uniform(-1, 1, layer.out_dim)
        h = ag.tanh(ag.add(ag.matmul(x, l0.weights), l0.bias))
        expected = ag.add(ag.matmul(h, l1.weights), l1.bias)
        assert np.array_equal(net.forward(x).data, expected.data)

    def test_width_mismatch(self):
        net = random_net([5, 4], seed=0)
        with pytest.raises(DimensionError):
            net.forward(Tensor(np.zeros((2, 6))))

    def test_batch_consistency_bitwise(self):
        # Row results must not depend on what else is in the batch.
        net = random_net([8, 16, 8], seed=5)
        x = RNG.uniform(-1, 1, (32, 8))
        full = net.forward(Tensor(x)).data
        for rows in ([0], [3, 17], list(range(0, 32, 2)), [31]):
            part = net.forward(Tensor(np.ascontiguousarray(x[rows]))).data
            assert np.array_equal(full[rows], part)

    @pytest.mark.parametrize("depth", [1, 2, 5])
    def test_creates_1_tensor_per_call(self, depth):
        # One node per pass at any depth, counted by node ids between marks.
        net = random_net([6] * (depth + 1), seed=depth)
        x = Tensor(RNG.uniform(-1, 1, (4, 6)), requires_grad=True)
        before = Tensor(0.0).node_id
        out = net.forward(x)
        after = Tensor(0.0).node_id
        assert after - before - 1 == 1
        params = [p for layer in net.layers for p in (layer.weights, layer.bias)]
        assert out._parents == (x, *params)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 9), st.sampled_from(["none", "relu", "tanh"])),
                    min_size=1, max_size=4),
           st.integers(1, 9), st.integers(1, 64), st.integers(0, 2 ** 32 - 1))
    def test_infer_trace_and_forward_agree_bitwise(self, layers, k, m, seed):
        # Serving's infer, training's trace and the graph node forward run one
        # kernel: the same bits, and m * mac_count MACs each.
        rng = np.random.default_rng(seed)
        widths = [k] + [n for n, _ in layers]
        net = nn.Network([nn.DenseLayer(Tensor(rng.uniform(-2, 2, (i, o))),
                                        Tensor(rng.uniform(-1, 1, o)), act)
                          for i, o, (_, act) in zip(widths, widths[1:], layers)], k)
        x = rng.uniform(-2, 2, (m, k))
        passes = {"infer": lambda: net.infer(x, m),
                  "trace": lambda: net.trace(x)[-1][2],
                  "forward": lambda: net.forward(Tensor(x)).data}
        outs = {}
        for name, run in passes.items():
            with MacCounter() as counter:
                out = run()
            assert out.shape == (m, widths[-1]), name
            assert counter.total == m * nn.mac_count(net), name
            outs[name] = out.tobytes()
        assert outs["infer"] == outs["trace"] == outs["forward"]


class TestSplit:
    def test_split_at_zero(self):
        net = random_net([6, 5, 4], seed=1)
        prefix, suffix = net.split_at(0)
        assert prefix.layers == []
        assert len(suffix.layers) == 2
        assert suffix.input_dim == 6

    def test_split_at_end(self):
        net = random_net([6, 5, 4], seed=1)
        prefix, suffix = net.split_at(2)
        assert len(prefix.layers) == 2
        assert suffix.layers == []
        assert suffix.input_dim == 4

    def test_recomposition_bitwise_on_random_frames(self):
        net = random_net([8, 7, 6, 5, 4], seed=2)
        x = Tensor(RNG.uniform(-1, 1, (16, 8)))
        want = net.forward(x).data
        prefix, suffix = net.split_at(2)
        got = suffix.forward(prefix.forward(x)).data
        assert np.array_equal(want, got)

    def test_every_split_recomposes(self):
        net = random_net([8, 7, 6, 5], seed=4)
        x = Tensor(RNG.uniform(-1, 1, (5, 8)))
        want = net.forward(x).data
        for i in range(len(net.layers) + 1):
            prefix, suffix = net.split_at(i)
            assert np.array_equal(suffix.forward(prefix.forward(x)).data, want)

    def test_out_of_range(self):
        net = random_net([6, 5], seed=1)
        with pytest.raises(IndexError):
            net.split_at(2)
        with pytest.raises(IndexError):
            net.split_at(-1)


class TestCounts:
    def test_dense_4_to_3(self):
        net = random_net([4, 3], seed=0)
        assert nn.param_count(net) == 15
        assert nn.mac_count(net) == 12

    def test_empty(self):
        net = nn.Network([], input_dim=4)
        assert nn.param_count(net) == 0
        assert nn.mac_count(net) == 0

    def test_three_layer_hand_sum(self):
        net = random_net([8, 16, 16, 8], seed=0)
        assert nn.param_count(net) == 552  # 144 + 272 + 136
        assert nn.mac_count(net) == 512  # 128 + 256 + 128

    def test_additive_under_concatenation(self):
        a = random_net([8, 6, 4], seed=1)
        b = random_net([4, 3], seed=2)
        joined = nn.Network(a.layers + b.layers, a.input_dim)
        assert nn.param_count(joined) == nn.param_count(a) + nn.param_count(b)
        assert nn.mac_count(joined) == nn.mac_count(a) + nn.mac_count(b)

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_forward_counts_mac_count_per_row(self, n):
        # The one counting rule of every network pass: n rows cost n * mac_count.
        net = random_net([8, 6, 5, 3], seed=3)
        with MacCounter() as counter:
            net.forward(Tensor(RNG.uniform(-1, 1, (n, 8))))
        assert counter.total == n * nn.mac_count(net)


class TestInit:
    def test_same_seed_bitwise_identical(self):
        a = random_net([10, 8, 10], seed=99)
        b = random_net([10, 8, 10], seed=99)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.weights.data, lb.weights.data)
            assert np.array_equal(la.bias.data, lb.bias.data)

    def test_weights_drawn_out_in_and_stored_in_out(self):
        # Storing the transpose keeps the initial values of the (out, in) draw.
        rng = np.random.Generator(np.random.PCG64(99))
        net = random_net([10, 8, 6], seed=99)
        for layer, (fan_in, fan_out) in zip(net.layers, [(10, 8), (8, 6)]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            drawn = rng.uniform(-limit, limit, size=(fan_out, fan_in))
            assert layer.weights.data.flags.c_contiguous
            assert layer.weights.data.tobytes() == np.ascontiguousarray(drawn.T).tobytes()
            assert (layer.in_dim, layer.out_dim) == (fan_in, fan_out)

    def test_biases_zero(self):
        net = random_net([10, 8, 10], seed=1)
        for layer in net.layers:
            assert np.array_equal(layer.bias.data, np.zeros(layer.out_dim))

    def test_xavier_bound_over_10k_draws(self):
        bound = np.sqrt(6.0 / 20.0)
        draws = []
        for seed in range(100):
            net = random_net([10, 10], seed=seed)
            draws.append(net.layers[0].weights.data.ravel())
        draws = np.concatenate(draws)
        assert draws.size == 10_000
        assert np.all(np.abs(draws) <= bound)

    def test_requires_grad_set(self):
        net = random_net([4, 3], seed=0)
        assert net.layers[0].weights.requires_grad
        assert net.layers[0].bias.requires_grad

    def test_invalid_configs(self):
        with pytest.raises(ConfigError):
            nn.init_network([4, 0], ["none"], 0)
        with pytest.raises(ConfigError):
            nn.init_network([4, 3], ["none", "none"], 0)
        with pytest.raises(ConfigError):
            nn.init_network([4, 3], ["gelu"], 0)
