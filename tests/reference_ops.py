"""Graph ops that only the tests' reference graphs use.

The package's training loss is one node that calls `autograd.mse_array` and
`autograd.mse_vjp` directly, and it never detaches a tensor. The reference
graphs it is checked against are built from per-op nodes, these two among
them.
"""

import numpy as np

from switchpass import autograd as ag
from switchpass.autograd import Tensor
from switchpass.errors import ContractError


def mse(a: Tensor, target: np.ndarray) -> Tensor:
    """Mean squared difference from a plain-array target (never a gradient
    path), as one node. Bitwise equal to reduce(mul(d, d), "mean") with
    d = a - target."""
    if isinstance(target, Tensor):
        raise ContractError("mse: the target must be a plain array, got a Tensor")
    value, d = ag.mse_array(a.data, target)
    return ag._track(np.asarray(value), (a,), lambda g: (ag.mse_vjp(g, d),))


def detach(a: Tensor) -> Tensor:
    """Same values, no graph linkage; backward never reaches a's ancestors."""
    return Tensor(a.data.copy())
