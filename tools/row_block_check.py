"""Row-block check: does each row of `autograd._mm` keep its bits in any batch?

    python3 tools/row_block_check.py

`_mm` computes every forward product as one gemm per block of
`autograd.ROW_BLOCK` rows (gradient products run through `_grad_mm`, one
gemm over the batch, and need no row invariance). The mixed pass's bitwise
equality with the full and light passes rests on a row's bits depending
only on that row and the right operand, never on the rows around it. That is a property of the
numpy/BLAS build's kernels, not of the code, so this sweep checks it on the
build it runs on. Set `OPENBLAS_NUM_THREADS` to check another thread count.

For every k and n up to 70, and for 220 larger shapes (k up to 600, n up to
513), each in both weight layouts (a C-contiguous `(k, n)` array and the
transposed view of an `(n, k)` one) and with and without signed zeros
(about half of each operand drawn as +-0.0), one random row is computed:

- alone, as a one-row product;
- at every position of a block of other random rows;
- at a random position inside an odd and an even batch of random rows;
- inside an odd and an even batch given as a transposed view, which
  stands for any forward input that is not C-contiguous (`_mm` copies it
  into its blocks).

Every result must equal the one-row product bit for bit. Prints each shape
that differs and exits 1 if there is any, 0 otherwise.
"""

from __future__ import annotations

import os
import sys

import numpy as np

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))

from switchpass import autograd as ag  # noqa: E402

SMALL = 70
LARGER = 220
LARGER_K, LARGER_N = 600, 513
LAYOUTS = ("contiguous", "transposed-view")


def larger_shapes(count: int = LARGER, seed: int = 0) -> list[tuple[int, int]]:
    """`count` (k, n) pairs past the small grid, reproducible from seed."""
    rng = np.random.default_rng(seed)
    return [(int(rng.integers(SMALL + 1, LARGER_K + 1)), int(rng.integers(1, LARGER_N + 1)))
            for _ in range(count)]


def _draw(rng, shape, zeros: bool) -> np.ndarray:
    a = rng.uniform(-2, 2, shape)
    if zeros:
        a[rng.random(shape) < 0.5] *= 0.0
    return a


def check_shape(k: int, n: int, layout: str, zeros: bool, seed: int) -> bool:
    """Whether one random row keeps its one-row bits in every placement."""
    rng = np.random.default_rng(seed)
    y = _draw(rng, (k, n), zeros) if layout == "contiguous" else _draw(rng, (n, k), zeros).T
    row = _draw(rng, (1, k), zeros)
    alone = ag._mm(row, y)[0].tobytes()
    for pos in range(ag.ROW_BLOCK):
        block = _draw(rng, (ag.ROW_BLOCK, k), zeros)
        block[pos] = row[0]
        if ag._mm(block, y)[pos].tobytes() != alone:
            return False
    for m in (2 * int(rng.integers(1, 8)) + 1, 2 * int(rng.integers(1, 8))):
        batch = _draw(rng, (m, k), zeros)
        i = int(rng.integers(m))
        batch[i] = row[0]
        if ag._mm(batch, y)[i].tobytes() != alone:
            return False
        if ag._mm(np.ascontiguousarray(batch.T).T, y)[i].tobytes() != alone:
            return False
    return True


def sweep(small: int = SMALL, larger: int = LARGER, seed: int = 0) -> list[str]:
    """The cases that differ, as `k x n layout zeros` strings: every k and n
    up to `small`, then `larger` larger shapes, each in both layouts, with
    signed zeros in every other case."""
    shapes = [(k, n) for k in range(1, small + 1) for n in range(1, small + 1)]
    shapes += larger_shapes(larger, seed)
    failed = []
    for idx, (k, n) in enumerate(shapes):
        for j, layout in enumerate(LAYOUTS):
            zeros = (idx + j) % 2 == 1
            if not check_shape(k, n, layout, zeros, seed * 1_000_003 + 2 * idx + j):
                failed.append(f"{k} x {n} {layout}{' signed-zeros' if zeros else ''}")
    return failed


def main(argv: list[str]) -> int:
    if argv:
        print("usage: python3 tools/row_block_check.py", file=sys.stderr)
        return 2
    cases = 2 * (SMALL * SMALL + LARGER)
    failed = sweep()
    for case in failed:
        print(f"differs: {case}")
    print(f"{len(failed)} of {cases} cases differ (ROW_BLOCK {ag.ROW_BLOCK})")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
