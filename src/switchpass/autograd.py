"""Reverse-mode automatic differentiation over dense float64 arrays.

Every arithmetic primitive here is bitwise deterministic. There are two kinds
of matrix product. A forward product goes through `_mm`, which runs one gemm
per fixed block of ROW_BLOCK (2) rows of its left operand. On the BLAS build
in use a row's bits depend only on that row and the right operand, not on
the other row of its block nor on where it sits (tools/row_block_check.py
checks this), so every forward is row and batch invariant. One gemm over the
whole batch would reorder the accumulation with the operand sizes and break
this. A gradient product (a dense layer's input and weight gradients) goes
through `_grad_mm`, one gemm over the whole batch: it need only be
deterministic for a fixed batch shape. Reductions accumulate left to right.
The bits themselves are those of the numpy/BLAS build in use.
"""

from __future__ import annotations

import heapq
import itertools

import numpy as np

from .errors import ContractError, DimensionError

_node_ids = itertools.count()

# Active MAC counter, if any. Single-threaded by contract.
_mac_counter = None

#: Height of the row blocks every forward product is computed in (see _mm).
ROW_BLOCK = 2


class MacCounter:
    """Counts the multiply-accumulates of every matmul and network pass run
    inside a `with` block, for real rows only: the rows a pass or `_mm` pads
    are not counted."""

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


def pad_rows(a: np.ndarray) -> np.ndarray:
    """a with its last row repeated up to a multiple of ROW_BLOCK rows. A
    repeated real row is the cheapest fill, and by row invariance it moves no
    other row's bits; a single row is copied by `repeat`, which costs less
    than a concatenate at batch 1. A height already a multiple (or an empty
    batch) is returned as it is. Serving pads a batch once with it, so no
    layer of a pass pads again, and `_mm` pads an odd left operand with it."""
    n = a.shape[0]
    extra = -n % ROW_BLOCK
    if not extra:
        return a
    return a.repeat(ROW_BLOCK, axis=0) if n == 1 else np.concatenate([a] + [a[-1:]] * extra)


def _mm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # x @ y as one gemm per fixed block of ROW_BLOCK rows of x: the forward
    # product. A height that is not a multiple of ROW_BLOCK is padded by
    # `pad_rows`, and an x that is not C-contiguous (a transposed or strided
    # view) is copied, so every block reaches BLAS in one layout. On the BLAS
    # build in use a row's bits then depend only on that row and y, not on
    # the other row of its block nor on where it sits
    # (tools/row_block_check.py checks it), so every product is row and
    # batch invariant. They also depend on y's memory layout (a transposed
    # view and a contiguous copy differ), so every call site keeps the layout
    # it passes. A single block is `x.dot(y)`, the same gemm without
    # matmul's dispatch, when y is C- or F-contiguous (otherwise dot may copy
    # y and call BLAS where matmul runs numpy's own loop). With `_grad_mm`,
    # the only matrix products in the package. The height is never chosen by
    # batch size: a row's bits would then depend on its batch.
    m, k = x.shape
    if m == ROW_BLOCK and x.flags.c_contiguous and y.flags.forc:
        return x.dot(y)
    pad = -m % ROW_BLOCK
    if pad or not x.flags.c_contiguous:
        x = np.ascontiguousarray(pad_rows(x))
    out = np.matmul(x.reshape(-1, ROW_BLOCK, k), y).reshape(-1, y.shape[1])
    return out[:m] if pad else out


def _grad_mm(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # x @ y as one gemm over the whole batch: a gradient product, a dense
    # layer's input gradient (g @ w.T) or weight gradient (x.T @ g). Row
    # invariance is what forwards and the mixed pass need; a gradient only
    # has to be deterministic for a fixed batch shape, and the seed fixes
    # training's batch shapes. So it skips `_mm`'s row blocks, padding and
    # copy of a transposed x. Its bits depend on the operands' layouts, and
    # on the BLAS thread count for large enough operands
    # (tests/test_training.py checks the model's widths at 1 and 2 threads).
    # Only nn.backprop and matmul's VJP call it, so no forward reaches it.
    return x.dot(y)


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
        return _grad_mm(g, b.data.T), _grad_mm(a.data.T, g)

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
    """The mean squared difference of a from a plain-array target, bitwise
    equal to reduce(mul(d, d), "mean"), and the difference d = a - target
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


def backward(loss: Tensor) -> None:
    """Accumulates d(loss)/d(leaf) into `.grad` of every tracked leaf.

    One heap walk in decreasing node_id over the nodes that have a VJP, each
    entering at its first adjoint; a transient adjoint table makes repeated
    calls (without zeroing) add their contributions instead of compounding
    them. A leaf (a tracked node with no VJP) never enters the heap: it is
    recorded at its first adjoint, and after the walk each leaf's adjoint is
    added into its `.grad`, in decreasing node_id. Ids are topological, so a
    leaf's adjoint is complete by then and every sum keeps the order a walk
    that popped the leaves would give it. The add is in place into an
    existing `.grad` (a view into AdamState's flat grads in training), or a
    copy when `.grad` is None.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward: loss must be scalar, got shape {loss.shape}")
    if not loss.requires_grad:
        return
    adjoint = {loss.node_id: np.ones_like(loss.data)}
    heap = [] if loss._vjp is None else [(-loss.node_id, loss)]
    leaves = [loss] if loss._vjp is None else []
    while heap:
        _, node = heapq.heappop(heap)
        g = adjoint.pop(node.node_id)
        for parent, pg in zip(node._parents, node._vjp(g)):
            if not parent.requires_grad:
                continue
            key = parent.node_id
            if key in adjoint:
                adjoint[key] = adjoint[key] + pg
                continue
            adjoint[key] = pg
            if parent._vjp is None:
                leaves.append(parent)
            else:
                heapq.heappush(heap, (-key, parent))
    for leaf in sorted(leaves, key=lambda t: t.node_id, reverse=True):
        g = adjoint[leaf.node_id]
        if leaf.grad is None:
            leaf.grad = g.copy()
        else:
            leaf.grad += g
