import ast
import importlib.util
import pathlib
import re
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from switchpass import autograd as ag
from switchpass import nn
from switchpass.autograd import MacCounter, Tensor
from switchpass.errors import ContractError, DimensionError

from reference_ops import detach, mse

RNG = np.random.default_rng(20240817)
TOOLS = pathlib.Path(__file__).resolve().parents[1] / "tools"


def finite_diff(f, x: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function, elementwise."""
    g = np.zeros_like(x)
    flat = x.ravel()
    gflat = g.ravel()
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2 * h)
    return g


def rel_err(a: np.ndarray, b: np.ndarray) -> float:
    scale = np.maximum(np.maximum(np.abs(a), np.abs(b)), 1e-6)
    return float(np.max(np.abs(a - b) / scale))


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        out = ag.matmul(a, Tensor(np.eye(2)))
        assert np.array_equal(out.data, a.data)

    def test_annihilating_product(self):
        a = Tensor([[1.0, 0.0], [0.0, 0.0]])
        b = Tensor([[0.0, 0.0], [5.0, 0.0]])
        assert np.array_equal(ag.matmul(a, b).data, np.zeros((2, 2)))

    def test_against_triple_loop_oracle(self):
        # BLAS may fuse multiply-adds and block the k loop, so each element
        # agrees with the sequential loop within the dot-product error bound
        # k * eps * sum_k |a_ik * b_kj|, not bit for bit.
        m, k, n = 5, 67, 3
        a = RNG.uniform(-2, 2, (m, k))
        b = RNG.uniform(-2, 2, (k, n))
        expected = np.zeros((m, n))
        magnitude = np.zeros((m, n))
        for i in range(m):
            for j in range(n):
                acc = 0.0
                for p in range(k):
                    acc += a[i, p] * b[p, j]
                    magnitude[i, j] += abs(a[i, p] * b[p, j])
                expected[i, j] = acc
        out = ag.matmul(Tensor(a), Tensor(b))
        assert np.all(np.abs(out.data - expected) <= k * np.finfo(np.float64).eps * magnitude)

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError) as exc:
            ag.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 3))))
        assert "(2, 3)" in str(exc.value)

    def test_gradients_accumulate_into_both_inputs(self):
        a = Tensor(RNG.uniform(-2, 2, (3, 4)), requires_grad=True)
        b = Tensor(RNG.uniform(-2, 2, (4, 2)), requires_grad=True)
        loss = ag.reduce(ag.matmul(a, b), "sum")
        ag.backward(loss)
        fa = finite_diff(lambda: np.sum(a.data @ b.data), a.data)
        fb = finite_diff(lambda: np.sum(a.data @ b.data), b.data)
        assert rel_err(a.grad, fa) < 1e-5
        assert rel_err(b.grad, fb) < 1e-5

    def test_mac_counter(self):
        a, b = Tensor(np.ones((3, 4))), Tensor(np.ones((4, 2)))
        with MacCounter() as counter:
            ag.matmul(a, b)
            ag.matmul(a, b)
        assert counter.total == 2 * 3 * 4 * 2


class TestElementwise:
    def test_add_zeros(self):
        x = Tensor(RNG.uniform(-2, 2, (4, 3)))
        assert np.array_equal(ag.add(x, Tensor(np.zeros((4, 3)))).data, x.data)

    def test_mul_ones(self):
        x = Tensor(RNG.uniform(-2, 2, (4, 3)))
        assert np.array_equal(ag.mul(x, Tensor(np.ones((4, 3)))).data, x.data)

    def test_sub_self_cancels_values_and_grads(self):
        x = Tensor(RNG.uniform(-2, 2, 5), requires_grad=True)
        out = ag.sub(x, x)
        assert np.array_equal(out.data, np.zeros(5))
        ag.backward(ag.reduce(out, "sum"))
        assert np.array_equal(x.grad, np.zeros(5))

    def test_shape_mismatch(self):
        with pytest.raises(DimensionError):
            ag.add(Tensor(np.zeros(3)), Tensor(np.zeros(4)))

    def test_row_vector_broadcast_is_bias_add_only(self):
        x = Tensor(RNG.uniform(-1, 1, (4, 3)), requires_grad=True)
        b = Tensor(RNG.uniform(-1, 1, 3), requires_grad=True)
        out = ag.add(x, b)
        assert np.array_equal(out.data, x.data + b.data)
        ag.backward(ag.reduce(out, "sum"))
        assert np.array_equal(b.grad, np.full(3, 4.0))
        with pytest.raises(DimensionError):
            ag.add(Tensor(np.zeros((4, 3))), Tensor(np.zeros((4, 1))))


class TestActivations:
    def test_relu_values(self):
        out = ag.relu(Tensor([-1.0, 0.0, 2.0]))
        assert np.array_equal(out.data, [0.0, 0.0, 2.0])

    def test_relu_gradient_zero_at_zero(self):
        x = Tensor([-1.0, 0.0, 2.0], requires_grad=True)
        ag.backward(ag.reduce(ag.relu(x), "sum"))
        assert np.array_equal(x.grad, [0.0, 0.0, 1.0])

    @pytest.mark.parametrize("value", [np.nan, -np.nan, -0.0])
    def test_relu_maps_nan_and_negative_zero_to_positive_zero(self, value):
        # Lengths 1 to 17 put the value in numpy's vector loop and in its
        # scalar tail, which treat a -0.0 input differently.
        for n in range(1, 18):
            out = ag.relu(Tensor(np.full(n, value))).data
            assert out.tobytes() == np.zeros(n).tobytes()

    def test_tanh_at_zero(self):
        assert ag.tanh(Tensor([0.0])).data[0] == 0.0

    def test_tanh_gradient_matches_finite_difference(self):
        x = Tensor([0.5], requires_grad=True)
        ag.backward(ag.reduce(ag.tanh(x), "sum"))
        fd = finite_diff(lambda: np.sum(np.tanh(x.data)), x.data)
        assert rel_err(x.grad, fd) < 1e-6

    def test_softplus_nonnegative_over_wide_range(self):
        x = Tensor(RNG.uniform(-40, 40, 200))
        assert np.all(ag.softplus(x).data >= 0.0)

    def test_softplus_gradient(self):
        # FD range per the gradient-check contract; wider inputs lose the
        # difference to cancellation.
        x = Tensor(RNG.uniform(-2, 2, 64), requires_grad=True)
        ag.backward(ag.reduce(ag.softplus(x), "sum"))
        fd = finite_diff(
            lambda: float(np.sum(np.maximum(x.data, 0) + np.log1p(np.exp(-np.abs(x.data))))),
            x.data,
        )
        assert rel_err(x.grad, fd) < 1e-5

    def test_unknown_kind(self):
        # A layer's activation name is checked once, when the layer is built.
        w, b = Tensor(np.ones((1, 1))), Tensor(np.zeros(1))
        with pytest.raises(ContractError, match="gelu"):
            nn.DenseLayer(w, b, "gelu")


def three_node_dense(x: Tensor, w: Tensor, b: Tensor, act: str) -> Tensor:
    """A dense layer as the chain matmul, bias add, activation."""
    z = ag.add(ag.matmul(x, w), b)
    return {"none": lambda t: t, "relu": ag.relu, "tanh": ag.tanh}[act](z)


def one_layer(w: Tensor, b: Tensor, act: str) -> nn.Network:
    return nn.Network([nn.DenseLayer(w, b, act)], w.shape[0])


class TestDense:
    """Network.forward, one node per pass, against a chain of
    three_node_dense layers: values and every gradient bit for bit."""

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 9), st.sampled_from(["none", "relu", "tanh"])),
                    min_size=1, max_size=3),
           st.integers(1, 64), st.integers(1, 9), st.booleans(), st.integers(0, 2 ** 32 - 1))
    def test_bitwise_equal_to_three_node_chain(self, layers, m, k, track_x, seed):
        rng = np.random.default_rng(seed)
        widths = [k] + [n for n, _ in layers]
        arrays = [(rng.uniform(-2, 2, (i, o)), rng.uniform(-1, 1, o))
                  for i, o in zip(widths, widths[1:])]
        x0 = rng.uniform(-2, 2, (m, k))
        c = Tensor(rng.uniform(-1, 1, (m, widths[-1])))
        results = []
        for one_node in (True, False):
            x = Tensor(x0.copy(), requires_grad=track_x)
            params = [(Tensor(w.copy(), requires_grad=True), Tensor(b.copy(), requires_grad=True))
                      for w, b in arrays]
            if one_node:
                net = nn.Network([nn.DenseLayer(w, b, act)
                                  for (w, b), (_, act) in zip(params, layers)], k)
                out = net.forward(x)
            else:
                out = x
                for (w, b), (_, act) in zip(params, layers):
                    out = three_node_dense(out, w, b, act)
            ag.backward(ag.reduce(ag.mul(out, c), "sum"))
            got = [out.data, x.grad] + [t.grad for pair in params for t in pair]
            results.append([None if a is None else a.tobytes() for a in got])
        assert results[0] == results[1]
        assert (results[0][1] is not None) == track_x

    def test_untracked_input_gets_no_gradient(self):
        x = Tensor(RNG.uniform(-1, 1, (3, 4)))
        w = Tensor(RNG.uniform(-1, 1, (4, 2)), requires_grad=True)
        b = Tensor(np.zeros(2), requires_grad=True)
        ag.backward(ag.reduce(one_layer(w, b, "tanh").forward(x), "sum"))
        assert x.grad is None
        assert w.grad.shape == (4, 2) and b.grad.shape == (2,)

    def test_relu_gradient_zero_at_zero(self):
        x = Tensor([[-1.0, 0.0, 2.0]], requires_grad=True)
        w = Tensor(np.eye(3), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        out = one_layer(w, b, "relu").forward(x)
        assert np.array_equal(out.data, [[0.0, 0.0, 2.0]])
        ag.backward(ag.reduce(out, "sum"))
        assert np.array_equal(x.grad, [[0.0, 0.0, 1.0]])
        assert np.array_equal(b.grad, [0.0, 0.0, 1.0])

    def test_tanh_at_zero(self):
        out = one_layer(Tensor(np.ones((3, 4))), Tensor(np.zeros(4)), "tanh").forward(
            Tensor(np.zeros((2, 3))))
        assert np.array_equal(out.data, np.zeros((2, 4)))

    def test_shape_mismatch(self):
        x = Tensor(np.zeros((2, 3)))
        net = one_layer(Tensor(np.zeros((2, 4))), Tensor(np.zeros(4)), "none")
        with pytest.raises(DimensionError, match="forward"):
            net.forward(x)
        # Weights that are not 2-D, or a bias that does not match them, raise
        # when the layer is built.
        for w, b in ((np.zeros((3, 4)), np.zeros(3)), (np.zeros(4), np.zeros(4)),
                     (np.zeros((3, 4, 1)), np.zeros((4, 1)))):
            w, b = Tensor(w), Tensor(b)
            with pytest.raises(DimensionError, match="DenseLayer"):
                nn.DenseLayer(w, b, "none")


def misaligned_row(row: np.ndarray) -> np.ndarray:
    """A (1, k) copy of row that starts one float into its buffer."""
    buf = np.empty(row.size + 1)
    buf[1:] = row
    return buf[1:][None, :]


class TestRowInvariance:
    # The kernel's bits depend on where a column falls in BLAS's blocks, so
    # widths run past the small ones the model tests use, odd ones included.
    # Forward products are row invariant bit for bit. An input gradient is
    # one gemm over the batch (`ag._grad_mm`): the same batch gives the same
    # bits, and a row agrees with its single-row gradient to within twice
    # the dot-product error bound, 2 n eps sum_j |gz_ij w_kj|.
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 70), st.integers(1, 70), st.integers(1, 300),
           st.sampled_from(["none", "relu", "tanh"]), st.integers(0, 2 ** 32 - 1))
    def test_each_row_equals_its_single_row_call(self, k, n, m, act, seed):
        rng = np.random.default_rng(seed)
        x, w = rng.uniform(-2, 2, (m, k)), rng.uniform(-2, 2, (k, n))
        b, c = rng.uniform(-1, 1, n), rng.uniform(-1, 1, (m, n))

        layer = nn.DenseLayer(Tensor(w, requires_grad=True), Tensor(b), act)

        def value_and_input_grad(rows, xs, node=lambda xt: nn.Network([layer], k).forward(xt)):
            xt = Tensor(xs, requires_grad=True)
            out = node(xt)
            ag.backward(ag.reduce(ag.mul(out, Tensor(c[rows])), "sum"))
            assert out.data.tobytes() == layer(xs).tobytes()
            return out.data, xt.grad

        def assert_rows_close(gx, rows):
            df = ag._ACT[act][1]
            gz = c[rows] if df is None else c[rows] * df(full_out[rows])
            bound = 2 * n * np.finfo(np.float64).eps * (np.abs(gz) @ np.abs(w.T))
            assert np.all(np.abs(gx - full_gx[rows]) <= bound)

        every = np.arange(m)
        full_out, full_gx = value_and_input_grad(every, x)
        assert value_and_input_grad(every, x)[1].tobytes() == full_gx.tobytes()
        chain = lambda xt: three_node_dense(xt, layer.weights, layer.bias, act)
        assert value_and_input_grad(every, x, chain)[1].tobytes() == full_gx.tobytes()
        rows = rng.choice(m, size=int(rng.integers(1, m + 1)), replace=True)
        out, gx = value_and_input_grad(rows, x[rows])
        assert out.tobytes() == full_out[rows].tobytes()
        assert_rows_close(gx, rows)
        i = int(rng.integers(m))
        out, gx = value_and_input_grad([i], misaligned_row(x[i]))
        assert out[0].tobytes() == full_out[i].tobytes()
        assert_rows_close(gx, [i])


@pytest.mark.parametrize("k, n", [(1, 1), (7, 1), (64, 1), (33, 2), (12, 3), (64, 32), (12, 64),
                                  (199, 97)])
@pytest.mark.parametrize("right", ["contiguous", "transposed-view", "strided", "column-view"])
@pytest.mark.parametrize("left", ["row", "misaligned-row", "column-view"])
@pytest.mark.parametrize("zeros", [False, True], ids=["uniform", "signed-zeros"])
def test_one_row_product_equals_row_0_of_a_two_row_product(k, n, right, left, zeros):
    # A one-row _mm is padded to one 2-row block by repeating the row, and
    # a two-row one is that block with another real second row. A block is `x.dot(y)` when y is C-
    # or F-contiguous, and a blocked matmul otherwise: a strided y (no unit
    # stride) or a column view of a wider y (unit stride, not contiguous),
    # where matmul may run numpy's own loop instead of BLAS. The signed-zero
    # draw makes about half of each operand +-0.0, which shows a kernel that
    # keeps a -0.0 where BLAS, summing from +0.0, makes +0.0 (at k = 1 a
    # one-row `dot` does). A column-view row is the left operand of the
    # weight gradient of a one-input layer. tools/row_block_check.py sweeps
    # every block position (test_row_block_check below runs a slice).
    rng = np.random.default_rng(1000 * k + n)

    def draw(shape):
        a = rng.uniform(-2, 2, shape)
        if zeros:
            a[rng.random(shape) < 0.5] *= 0.0
        return a

    x = draw((2, k))
    y = {"contiguous": lambda: draw((k, n)),
         "transposed-view": lambda: draw((n, k)).T,
         "strided": lambda: draw((2 * k, 2 * n))[::2, ::2],
         "column-view": lambda: draw((k, n + 2))[:, 1:n + 1]}[right]()
    row = {"row": x[:1].copy(), "misaligned-row": misaligned_row(x[0]),
           "column-view": np.ascontiguousarray(x[:1].T).T}[left]
    assert ag._mm(row, y).tobytes() == ag._mm(x, y)[0].tobytes()


class TestReduce:
    def test_l1(self):
        assert ag.reduce(Tensor([1.0, -2.0, 0.0]), "l1").item() == 3.0

    def test_sq_l2(self):
        assert ag.reduce(Tensor([3.0, 4.0]), "sq_l2").item() == 25.0

    def test_mean_matches_streaming_oracle_exactly(self):
        x = RNG.uniform(0, 1, 100)
        acc = 0.0
        for v in x:
            acc += v
        assert ag.reduce(Tensor(x), "mean").item() == acc / 100

    def test_sum_matches_streaming_oracle_exactly(self):
        x = RNG.uniform(-1, 1, 777)
        acc = 0.0
        for v in x:
            acc += v
        assert ag.reduce(Tensor(x), "sum").item() == acc

    def test_l1_subgradient_zero_at_zero(self):
        x = Tensor([1.0, -2.0, 0.0], requires_grad=True)
        ag.backward(ag.reduce(x, "l1"))
        assert np.array_equal(x.grad, [1.0, -1.0, 0.0])

    def test_unknown_kind(self):
        with pytest.raises(ContractError):
            ag.reduce(Tensor([1.0]), "max")


class TestBackward:
    def test_sum_gradient_is_ones(self):
        x = Tensor(RNG.uniform(-2, 2, (3, 2)), requires_grad=True)
        ag.backward(ag.reduce(x, "sum"))
        assert np.array_equal(x.grad, np.ones((3, 2)))

    def test_sq_l2_analytic(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        ag.backward(ag.reduce(x, "sq_l2"))
        assert np.array_equal(x.grad, [2.0, 4.0])

    def test_non_scalar_loss_rejected(self):
        with pytest.raises(ContractError):
            ag.backward(Tensor([1.0, 2.0]))

    def test_repeated_backward_accumulates(self):
        x = Tensor([1.0, -3.0], requires_grad=True)
        loss = ag.reduce(x, "sq_l2")
        ag.backward(loss)
        once = x.grad.copy()
        ag.backward(loss)
        assert np.array_equal(x.grad, 2 * once)

    def test_untracked_loss_is_a_no_op(self):
        loss = ag.reduce(Tensor([1.0, -3.0]), "sq_l2")
        ag.backward(loss)
        assert loss.grad is None

    def test_leaf_loss_gets_its_own_gradient(self):
        # A loss that is itself a leaf never enters the walk's heap.
        loss = Tensor(2.5, requires_grad=True)
        ag.backward(loss)
        assert loss.grad.tobytes() == np.float64(1.0).tobytes()
        ag.backward(loss)
        assert loss.grad.tobytes() == np.float64(2.0).tobytes()

    def test_three_layer_composite_matches_finite_difference(self):
        # w1 x -> tanh -> w2 -> relu -> w3 -> squared length
        x = Tensor(RNG.uniform(-2, 2, (4, 5)))
        w1 = Tensor(RNG.uniform(-0.8, 0.8, (5, 6)), requires_grad=True)
        w2 = Tensor(RNG.uniform(-0.8, 0.8, (6, 6)), requires_grad=True)
        w3 = Tensor(RNG.uniform(-0.8, 0.8, (6, 3)), requires_grad=True)

        def forward():
            h1 = ag.tanh(ag.matmul(x, w1))
            h2 = ag.relu(ag.matmul(h1, w2))
            return ag.reduce(ag.matmul(h2, w3), "sq_l2")

        def numpy_loss():
            h1 = np.tanh(np.einsum("ik,kj->ij", x.data, w1.data))
            h2 = np.maximum(np.einsum("ik,kj->ij", h1, w2.data), 0.0)
            out = np.einsum("ik,kj->ij", h2, w3.data)
            return float(np.sum(out * out))

        ag.backward(forward())
        for w in (w1, w2, w3):
            assert rel_err(w.grad, finite_diff(numpy_loss, w.data)) < 1e-5


def three_node_mse(a: Tensor, target: np.ndarray) -> Tensor:
    """A squared-error mean as the chain sub, mul, reduce."""
    d = ag.sub(a, Tensor(target))
    return ag.reduce(ag.mul(d, d), "mean")


class TestMse:
    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from(["vector", "matrix", "one"]), st.integers(1, 40),
           st.integers(1, 9), st.integers(0, 2 ** 32 - 1))
    def test_bitwise_equal_to_three_node_chain(self, kind, n, d, seed):
        shape = {"vector": (n,), "matrix": (n, d), "one": (1, 1)}[kind]
        rng = np.random.default_rng(seed)
        value, target = rng.uniform(-2, 2, shape), rng.uniform(-2, 2, shape)
        results = []
        for loss_of in (mse, three_node_mse):
            a = Tensor(value.copy(), requires_grad=True)
            # The scale makes the upstream gradient differ from 1.
            loss = ag.scale(loss_of(a, target), 0.7)
            ag.backward(loss)
            results.append((loss.data, a.grad))
        for one, chain in zip(*results):
            assert one.tobytes() == chain.tobytes()

    def test_is_one_node_over_its_input(self):
        a = Tensor(RNG.uniform(-1, 1, (3, 2)), requires_grad=True)
        assert mse(a, np.zeros((3, 2)))._parents == (a,)

    def test_tensor_target_is_rejected(self):
        with pytest.raises(ContractError, match="plain array"):
            mse(Tensor(np.zeros(3), requires_grad=True), Tensor(np.zeros(3)))

    def test_shape_mismatch_names_both_shapes(self):
        # (4, 3) - (3,) would broadcast; the loss must not.
        for target in (np.zeros(3), np.zeros((3, 4))):
            with pytest.raises(DimensionError, match=re.escape(f"(4, 3) vs {target.shape}")):
                mse(Tensor(np.zeros((4, 3))), target)


class ReferenceBackward:
    """The walk that ag.backward's single heap walk replaced: a reachability
    DFS over every node, untracked ones included, a sort into decreasing node
    id, then the adjoint sweep. Kept as the bitwise reference."""

    @staticmethod
    def run(loss: Tensor) -> None:
        reachable = []
        seen = set()
        stack = [loss]
        while stack:
            node = stack.pop()
            if id(node) in seen:
                continue
            seen.add(id(node))
            reachable.append(node)
            stack.extend(node._parents)

        reachable.sort(key=lambda t: t.node_id, reverse=True)
        adjoint = {id(loss): np.ones_like(loss.data)}
        for node in reachable:
            g = adjoint.pop(id(node), None)
            if g is None or not node.requires_grad:
                continue
            if node._vjp is None:
                node.grad = g.copy() if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(node._parents, node._vjp(g)):
                if not parent.requires_grad:
                    continue
                key = id(parent)
                if key in adjoint:
                    adjoint[key] = adjoint[key] + pg
                else:
                    adjoint[key] = pg


GRAPH_OPS = ("add", "sub", "mul", "add-row", "sub-row", "mul-row", "dense", "matmul",
             "softplus", "scale", "reshape", "detach")
GRAPH_STEPS = st.lists(st.tuples(st.sampled_from(GRAPH_OPS), st.integers(0, 63),
                                 st.integers(0, 63), st.sampled_from(["none", "relu", "tanh"])),
                       max_size=8)


def random_graph(seed: int, steps) -> tuple[list[Tensor], Tensor]:
    """The tracked leaves and a scalar loss of a graph over (4, 3) nodes.

    Each step (op, i, j, act) appends op applied to pool nodes i and j
    (modulo the pool's size; i == j gives mul(d, d)), or to node i and one of
    two row vectors, one tracked and one not. A fixed tail then uses the
    last node in several ops, a detached branch, an untracked product, all
    four reductions and an mse against a plain array.
    """
    rng = np.random.default_rng(seed)
    leaves = [Tensor(rng.uniform(-1, 1, shape), requires_grad=True)
              for shape in ((4, 3), (4, 3), (3,), (3, 3), (3,))]
    a, b, row, w, bias = leaves
    frozen = Tensor(rng.uniform(-1, 1, (4, 3)))
    rows = (row, Tensor(rng.uniform(-1, 1, 3)))
    pool = [a, b, frozen]
    binary = {"add": ag.add, "sub": ag.sub, "mul": ag.mul}
    for op, i, j, act in steps:
        x, y = pool[i % len(pool)], pool[j % len(pool)]
        if op in binary:
            out = binary[op](x, y)
        elif op.endswith("-row"):
            out = binary[op[:3]](x, rows[j % 2])
        elif op == "dense":
            out = one_layer(w, bias, act).forward(x)
        elif op == "matmul":
            out = ag.matmul(x, w)
        elif op == "softplus":
            out = ag.softplus(x)
        elif op == "scale":
            out = ag.scale(x, (j - 31.5) / 16)
        elif op == "reshape":
            out = ag.reshape(ag.reshape(x, (12,)), (4, 3))
        else:
            out = detach(x)
        pool.append(out)
    d = pool[-1]
    square = ag.add(ag.mul(d, d), ag.mul(frozen, rows[1]))
    terms = [ag.reduce(square, "sum"), ag.reduce(d, "mean"), ag.reduce(pool[-2], "l1"),
             ag.reduce(ag.sub(d, detach(pool[len(pool) // 2])), "sq_l2"),
             mse(d, frozen.data)]
    loss = terms[0]
    for term in terms[1:]:
        loss = ag.add(loss, term)
    return leaves, loss


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), GRAPH_STEPS)
def test_backward_matches_reference_walk_bitwise(seed, steps):
    results = []
    for walk in (ag.backward, ReferenceBackward.run):
        leaves, loss = random_graph(seed, steps)
        grads = []
        for _ in range(2):  # the second call accumulates without zeroing
            walk(loss)
            grads.append([None if t.grad is None else t.grad.tobytes() for t in leaves])
        results.append(grads)
    assert results[0] == results[1]


class TestDetach:
    def test_self_difference_is_zero_with_zero_grad(self):
        x = Tensor(RNG.uniform(-2, 2, 6), requires_grad=True)
        loss = ag.reduce(ag.sub(x, detach(x)), "sq_l2")
        assert loss.item() == 0.0
        ag.backward(loss)
        assert np.array_equal(x.grad, np.zeros(6))

    def test_values_preserved_bitwise(self):
        x = Tensor(RNG.uniform(-2, 2, 100))
        assert np.array_equal(detach(x).data, x.data)

    def test_product_rule_with_frozen_factor(self):
        y = Tensor(RNG.uniform(-2, 2, 5), requires_grad=True)
        ag.backward(ag.reduce(ag.mul(y, detach(y)), "sum"))
        assert np.array_equal(y.grad, y.data)


class TestOtherOps:
    def test_reshape_grad_passthrough(self):
        x = Tensor(RNG.uniform(-2, 2, (2, 6)), requires_grad=True)
        ag.backward(ag.reduce(ag.reshape(x, (12,)), "sq_l2"))
        assert np.array_equal(x.grad, 2 * x.data)

    def test_scale(self):
        x = Tensor([1.0, 2.0], requires_grad=True)
        out = ag.scale(x, 2.5)
        assert np.array_equal(out.data, [2.5, 5.0])
        ag.backward(ag.reduce(out, "sum"))
        assert np.array_equal(x.grad, [2.5, 2.5])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_every_op_gradient_matches_finite_difference(seed):
    # Losses are kept O(1) via a fixed linear functional, and the relative
    # error uses a 1e-4 scale floor: below that, central differences are
    # dominated by cancellation noise rather than the true derivative.
    rng = np.random.default_rng(seed)
    a = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
    b = Tensor(rng.uniform(-2, 2, (3, 4)), requires_grad=True)
    m = Tensor(rng.uniform(-2, 2, (4, 2)), requires_grad=True)
    r = Tensor(rng.uniform(-2, 2, 4), requires_grad=True)
    c_ab = rng.uniform(-1, 1, (3, 4))
    c_am = rng.uniform(-1, 1, (3, 2))

    def functional(out: Tensor, c: np.ndarray) -> Tensor:
        return ag.reduce(ag.mul(out, Tensor(c)), "mean")

    cases = {
        "add": (lambda: functional(ag.add(a, b), c_ab),
                lambda: float(np.mean((a.data + b.data) * c_ab))),
        "sub": (lambda: functional(ag.sub(a, b), c_ab),
                lambda: float(np.mean((a.data - b.data) * c_ab))),
        "mul": (lambda: functional(ag.mul(a, b), c_ab),
                lambda: float(np.mean(a.data * b.data * c_ab))),
        "add-row": (lambda: functional(ag.add(a, r), c_ab),
                    lambda: float(np.mean((a.data + r.data) * c_ab))),
        "sub-row": (lambda: functional(ag.sub(a, r), c_ab),
                    lambda: float(np.mean((a.data - r.data) * c_ab))),
        "mul-row": (lambda: functional(ag.mul(a, r), c_ab),
                    lambda: float(np.mean(a.data * r.data * c_ab))),
        "matmul": (lambda: functional(ag.matmul(a, m), c_am),
                   lambda: float(np.mean(np.einsum("ik,kj->ij", a.data, m.data) * c_am))),
        "relu": (lambda: functional(ag.relu(a), c_ab),
                 lambda: float(np.mean(np.maximum(a.data, 0.0) * c_ab))),
        "tanh": (lambda: functional(ag.tanh(a), c_ab),
                 lambda: float(np.mean(np.tanh(a.data) * c_ab))),
        "softplus": (lambda: functional(ag.softplus(a), c_ab),
                     lambda: float(np.mean((np.maximum(a.data, 0)
                                            + np.log1p(np.exp(-np.abs(a.data)))) * c_ab))),
        "sum": (lambda: ag.reduce(ag.mul(a, Tensor(c_ab)), "sum"),
                lambda: float(np.einsum("ij->", a.data * c_ab))),
        "mean": (lambda: ag.reduce(a, "mean"), lambda: float(np.mean(a.data))),
        "l1": (lambda: ag.reduce(a, "l1"), lambda: float(np.sum(np.abs(a.data)))),
        "sq_l2": (lambda: ag.reduce(ag.scale(a, 0.1), "sq_l2"),
                  lambda: float(np.sum((0.1 * a.data) ** 2))),
        "mse": (lambda: ag.scale(mse(a, c_ab), 0.7),
                lambda: 0.7 * float(np.mean((a.data - c_ab) ** 2))),
    }
    for name, (graph, oracle) in cases.items():
        for t in (a, b, m, r):
            t.zero_grad()
        ag.backward(graph())
        for t in (a, b, m, r):
            if t.grad is None:
                continue
            fd = finite_diff(oracle, t.data)
            scale = np.maximum(np.maximum(np.abs(t.grad), np.abs(fd)), 1e-4)
            assert float(np.max(np.abs(t.grad - fd) / scale)) < 1e-5, name


def test_backward_linearity():
    rng = np.random.default_rng(3)
    x = Tensor(rng.uniform(-2, 2, 8), requires_grad=True)

    def l1():
        return ag.reduce(ag.tanh(x), "sq_l2")

    def l2():
        return ag.reduce(x, "l1")

    a_w, b_w = 0.7, -1.3
    ag.backward(ag.add(ag.scale(l1(), a_w), ag.scale(l2(), b_w)))
    combined = x.grad.copy()
    x.zero_grad()
    ag.backward(l1())
    g1 = x.grad.copy()
    x.zero_grad()
    ag.backward(l2())
    g2 = x.grad.copy()
    assert np.max(np.abs(combined - (a_w * g1 + b_w * g2))) < 1e-12


def test_determinism_bitwise():
    def build():
        rng = np.random.default_rng(11)
        x = Tensor(rng.uniform(-2, 2, (4, 3)), requires_grad=True)
        w = Tensor(rng.uniform(-2, 2, (3, 3)), requires_grad=True)
        loss = ag.reduce(ag.tanh(ag.matmul(x, w)), "sq_l2")
        ag.backward(loss)
        return loss.item(), x.grad.copy(), w.grad.copy()

    la, xa, wa = build()
    lb, xb, wb = build()
    assert la == lb
    assert np.array_equal(xa, xb)
    assert np.array_equal(wa, wb)


def load_row_block_check(monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))  # the tool prepends to it
    spec = importlib.util.spec_from_file_location("row_block_check",
                                                  TOOLS / "row_block_check.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_row_block_check(monkeypatch):
    # A slice of tools/row_block_check.py's sweep, on other draws than its
    # own: every k and n up to 48 and 40 larger shapes, both weight layouts.
    tool = load_row_block_check(monkeypatch)
    assert tool.sweep(small=48, larger=40, seed=1) == []


def test_row_block_check_reports_a_row_that_depends_on_its_position(monkeypatch):
    tool = load_row_block_check(monkeypatch)
    monkeypatch.setattr(ag, "_mm", lambda x, y: x @ y + np.arange(x.shape[0])[:, None])
    failed = tool.sweep(small=2, larger=1)
    assert len(failed) == 2 * (2 * 2 + 1)
    assert failed[:2] == ["1 x 1 contiguous", "1 x 1 transposed-view signed-zeros"]


def test_mm_is_the_only_matrix_product_in_src():
    # Any other product (a gemm through `@` over the whole batch, dot or
    # einsum) would silently break the row invariance that the mixed pass
    # relies on; `_mm` keeps it with gemm over fixed 2-row blocks. The one
    # exception is `_grad_mm`, the gradient products' whole-batch gemm.
    src = pathlib.Path(ag.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        exempt = set()
        if path.name == "autograd.py":
            for node in tree.body:
                if isinstance(node, ast.FunctionDef) and node.name in ("_mm", "_grad_mm"):
                    exempt |= {id(inner) for inner in ast.walk(node)}
        for node in ast.walk(tree):
            if id(node) in exempt:
                continue
            infix = (isinstance(node, (ast.BinOp, ast.AugAssign))
                     and isinstance(node.op, ast.MatMult))
            call = (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("einsum", "dot", "matmul", "tensordot"))
            if infix or call:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def uses_in_src(name: str) -> list[tuple[str, str]]:
    """Each use of `name` in src, as a bare name or an attribute, with its
    file and the classes and functions that enclose it, outside the
    module-level function of that name itself."""
    src = pathlib.Path(ag.__file__).parent
    uses = []

    def visit(node, path, scope):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Lambda)):
            scope = scope + (getattr(node, "name", "<lambda>"),)
        named = ((isinstance(node, ast.Name) and node.id == name)
                 or (isinstance(node, ast.Attribute) and node.attr == name))
        if named:
            uses.append((path.name, ".".join(scope)))
        for child in ast.iter_child_nodes(node):
            visit(child, path, scope)

    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for node in tree.body:
            if not (isinstance(node, ast.FunctionDef) and node.name == name):
                visit(node, path, ())
    return uses


def test_grad_mm_is_called_only_by_the_gradient_products():
    # `_grad_mm` is not row invariant, so no forward may reach it: its only
    # callers are nn.backprop and the VJP inside ag.matmul.
    uses = uses_in_src("_grad_mm")
    assert sorted(set(uses)) == [("autograd.py", "matmul.vjp"), ("nn.py", "backprop")]
    assert len(uses) == 4


def test_mm_is_called_only_by_the_forward_products():
    # The forward twin: every forward product is a dense layer's call or
    # ag.matmul, so no gradient product and no hand-written layer reaches
    # `_mm`'s row blocks.
    uses = uses_in_src("_mm")
    assert sorted(uses) == [("autograd.py", "matmul"), ("nn.py", "DenseLayer.__call__")]
