"""Reverse-mode automatic differentiation over dense float64 arrays.

Every arithmetic primitive here is bitwise deterministic. Matrix products go
through `_mm`, which makes one identical BLAS call per row of its left
operand, so row i of a product never depends on the other rows: every forward
is row and batch invariant, and a weight-gradient reduction over the batch is
deterministic for a fixed batch shape. Reductions accumulate left to right.
One BLAS call for the whole batch (gemm) would reorder the accumulation with
the operand sizes and break this. The bits themselves are those of the
numpy/BLAS build in use.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from .errors import ContractError, DimensionError

_node_ids = itertools.count()

# Active MAC counter, if any. Single-threaded by contract.
_mac_counter = None


class MacCounter:
    """Counts multiply-accumulates of every matmul executed inside a `with` block."""

    def __init__(self):
        self.total = 0

    def __enter__(self):
        global _mac_counter
        self._outer = _mac_counter
        _mac_counter = self
        return self

    def __exit__(self, *exc):
        global _mac_counter
        _mac_counter = self._outer
        return False


def _mm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # One identical (1, k) x (k, n) BLAS call per row of x, so row i's bits
    # depend only on x[i] and y. They also depend on y's memory layout (a
    # transposed view and a contiguous copy differ), so every call site keeps
    # the layout it passes. A one-row x is `x.dot(y)`, the same single BLAS
    # call without matmul's dispatch, when two conditions keep its bits: k > 1
    # (at k = 1 dot multiplies one term and keeps a -0.0 that BLAS, summing
    # from +0.0, makes +0.0) and y C- or F-contiguous (otherwise dot may copy
    # y and call BLAS where matmul runs numpy's own loop). The only matrix
    # product in the package.
    if x.shape[0] == 1 and x.shape[1] > 1 and (y.flags.c_contiguous or y.flags.f_contiguous):
        return x.dot(y)
    return np.matmul(x[:, None, :], y)[:, 0, :]


def _seq_sum(x: np.ndarray) -> np.float64:
    # Left-to-right accumulation, bitwise equal to a streaming loop.
    flat = x.ravel()
    if flat.size == 0:
        return np.float64(0.0)
    return flat.cumsum()[-1]


class Tensor:
    """Dense float64 value, optionally tracked in the differentiation graph.

    Node ids increase monotonically with creation order and inputs are always
    created before outputs, so descending id order is a valid topological
    order for the backward sweep. The graph lives only as parent references
    on output tensors and is discarded with them.
    """

    __slots__ = ("data", "grad", "requires_grad", "node_id", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None
        self.requires_grad = requires_grad
        self.node_id = next(_node_ids)
        self._parents = ()
        self._vjp = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a scalar tensor, got shape {self.shape}")
        return float(self.data.reshape(-1)[0])

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def _track(out_data, parents, vjp) -> Tensor:
    out = Tensor(out_data)
    if any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._vjp = vjp
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.shape[1] != b.shape[0]:
        raise DimensionError(f"matmul: incompatible shapes {a.shape} x {b.shape}")
    if _mac_counter is not None:
        m, k = a.shape
        _mac_counter.total += m * k * b.shape[1]

    def vjp(g):
        return _mm(g, b.data.T), _mm(a.data.T, g)

    return _track(_mm(a.data, b.data), (a, b), vjp)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.shape
    return _track(a.data.reshape(shape), (a,), lambda g: (g.reshape(old),))


def _binary(a: Tensor, b: Tensor, kind: str, op, ga, gb) -> Tensor:
    """op(a, b) with VJP g -> (ga(g), gb(g)), for equal shapes or the bias-add
    pattern (n, d) op (d,), where b's gradient sums gb(g) over the rows. Any
    other pair of shapes is a dimension error, raised before op runs."""
    if a.shape == b.shape:
        vjp = lambda g: (ga(g), gb(g))
    elif a.data.ndim == 2 and b.data.ndim == 1 and a.shape[1] == b.shape[0]:
        vjp = lambda g: (ga(g), gb(g).sum(axis=0))
    else:
        raise DimensionError(f"{kind}: shape mismatch {a.shape} vs {b.shape}")
    return _track(op(a.data, b.data), (a, b), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, "add", np.add, lambda g: g, lambda g: g)


def sub(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, "sub", np.subtract, lambda g: g, np.negative)


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _binary(a, b, "mul", np.multiply, lambda g: g * b.data, lambda g: g * a.data)


def scale(a: Tensor, c: float) -> Tensor:
    """Multiply by a plain (untracked) constant."""
    c = float(c)
    return _track(a.data * c, (a,), lambda g: (g * c,))


# Activation formulas: kind -> (value, derivative), None for the identity.
# The value overwrites its argument and returns it; the derivative takes the
# activation's output. relu maps everything not above 0 (NaN included) to
# +0.0, and its derivative is 0 at 0. fmax drops NaN, and the absolute value
# turns the -0.0 that fmax keeps for a -0.0 input into +0.0.
_ACT = {
    "none": (None, None),
    "relu": (lambda z: np.absolute(np.fmax(z, 0.0, out=z), out=z), lambda out: out > 0.0),
    "tanh": (lambda z: np.tanh(z, out=z), lambda out: 1.0 - out * out),
}


def _pointwise(a: Tensor, kind: str) -> Tensor:
    f, df = _ACT[kind]
    out = f(a.data.copy())
    return _track(out, (a,), lambda g: (g * df(out),))


def relu(a: Tensor) -> Tensor:
    return _pointwise(a, "relu")


def tanh(a: Tensor) -> Tensor:
    return _pointwise(a, "tanh")


def softplus_array(x: np.ndarray) -> np.ndarray:
    """log(1 + exp(x)), stable for large |x|."""
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)), stable for large |x|: softplus's derivative."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0.0, 1.0 / (1.0 + e), e / (1.0 + e))


def softplus(a: Tensor) -> Tensor:
    x = a.data
    return _track(softplus_array(x), (a,), lambda g: (g * sigmoid_array(x),))


def dense_array(x: np.ndarray, w: np.ndarray, b: np.ndarray, act: str = "none") -> np.ndarray:
    """act(x @ w + b) on plain arrays, for x (m, k), w (k, n) and b (n,):
    the value of `dense`, and the inference kernel. Counts m*k*n MACs.

    w is C-contiguous (in, out), so each row's BLAS call reads it in order.
    The bias add and activation overwrite the product, bitwise equal to
    act(_mm(x, w) + b) with no temporaries."""
    if act not in _ACT:
        raise ContractError(f"dense: unknown activation {act!r}")
    if x.ndim != 2 or w.ndim != 2 or x.shape[1] != w.shape[0] or b.shape != w.shape[1:]:
        raise DimensionError(f"dense: incompatible shapes {x.shape}, {w.shape}, {b.shape}")
    if _mac_counter is not None:
        _mac_counter.total += x.size * w.shape[1]
    f = _ACT[act][0]
    z = _mm(x, w)
    z += b
    return z if f is None else f(z)


def dense_vjp(g: np.ndarray, x: np.ndarray, w: np.ndarray, out: np.ndarray, act: str,
              need_gx: bool):
    """The gradients (gx, gw, gb) of out = dense_array(x, w, b, act) for an
    output adjoint g: the arrays the matmul, bias-add and activation ops'
    VJPs return, in their order. gx is None when not needed."""
    df = _ACT[act][1]
    gz = g if df is None else g * df(out)
    gx = _mm(gz, w.T) if need_gx else None
    return gx, _mm(x.T, gz), gz.sum(axis=0)


def dense(x: Tensor, w: Tensor, b: Tensor, act: str = "none") -> Tensor:
    """act(x @ w + b) as one node, for x (m, k), w (k, n) and b (n,).

    It runs the kernels of the matmul, bias-add and activation ops in their
    order, and its VJP returns the arrays that chain of ops would, so values
    and gradients are bitwise equal to it.
    """
    xd, wd = x.data, w.data
    out = dense_array(xd, wd, b.data, act)
    return _track(out, (x, w, b), lambda g: dense_vjp(g, xd, wd, out, act, x.requires_grad))


def reduce(a: Tensor, kind: str) -> Tensor:
    """Full reduction to a scalar tensor.

    sum and mean accumulate left to right; l1 is sum(|a_i|) with subgradient
    0 at 0; sq_l2 is sum(a_i^2).
    """
    n = a.data.size
    if kind == "sum":
        out, vjp = _seq_sum(a.data), lambda g: (np.full(a.shape, g),)
    elif kind == "mean":
        out, vjp = _seq_sum(a.data) / n, lambda g: (np.full(a.shape, g / n),)
    elif kind == "l1":
        out, vjp = _seq_sum(np.abs(a.data)), lambda g: (g * np.sign(a.data),)
    elif kind == "sq_l2":
        out, vjp = _seq_sum(a.data * a.data), lambda g: (g * 2.0 * a.data,)
    else:
        raise ContractError(f"reduce: unknown kind {kind!r}")
    return _track(np.asarray(out), (a,), vjp)


def mse_array(a: np.ndarray, target: np.ndarray):
    """The value of `mse` on plain arrays, and the difference d = a - target
    that `mse_vjp` takes."""
    if a.shape != np.shape(target):
        raise DimensionError(f"mse: shape mismatch {a.shape} vs {np.shape(target)}")
    d = a - target
    return _seq_sum(d * d) / d.size, d


def mse_vjp(g, d: np.ndarray) -> np.ndarray:
    """The gradient of mse with respect to a for an output adjoint g: the sum
    of the two equal contributions that reduce(mul(d, d), "mean")'s backward
    would add."""
    gd = (g / d.size) * d
    return gd + gd


def mse(a: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared difference from a plain-array target (never a gradient
    path), as one node. Bitwise equal to reduce(mul(d, d), "mean") with
    d = a - target."""
    if isinstance(target, Tensor):
        raise ContractError("mse: the target must be a plain array, got a Tensor")
    value, d = mse_array(a.data, target)
    return _track(np.asarray(value), (a,), lambda g: (mse_vjp(g, d),))


def detach(a: Tensor) -> Tensor:
    """Same values, no graph linkage; backward never reaches a's ancestors."""
    return Tensor(a.data.copy())


def backward(loss: Tensor) -> None:
    """Accumulates d(loss)/d(leaf) into `.grad` of every tracked leaf.

    One heap walk in decreasing node_id, each tracked node entering at its
    first adjoint; a transient adjoint table makes repeated calls (without
    zeroing) add their contributions instead of compounding them. A leaf's
    adjoint is added into its existing `.grad` in place (a view into
    AdamState's flat grads in training), or copied when `.grad` is None.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    adjoint = {loss.node_id: np.ones_like(loss.data)}
    heap = [(-loss.node_id, loss)]
    while heap:
        _, node = heapq.heappop(heap)
        g = adjoint.pop(node.node_id)
        if node._vjp is None:
            if node.grad is None:
                node.grad = g.copy()
            else:
                node.grad += g
            continue
        for parent, pg in zip(node._parents, node._vjp(g)):
            if not parent.requires_grad:
                continue
            key = parent.node_id
            if key in adjoint:
                adjoint[key] = adjoint[key] + pg
            else:
                adjoint[key] = pg
                heapq.heappush(heap, (-key, parent))
