"""Mixed-radix encoding of joint states/actions.

Tuples are encoded in ascending agent order with the first (lowest-index)
agent most significant, i.e. the same convention as numpy's C-order
ravel_multi_index. This encoding is part of the on-disk checkpoint format.

Encoding is one dot product with ``radix_weights``: integer arrays of cells
``(..., k) @ radix_weights(sizes)``. That product is the row lookup of kernels
and rewards (``model.DependencyRows.row_indices``), of policy tables
(``KHopPolicy.nbhd_rows``) and of truncated-Q tables
(``TruncatedQTable.cells``); ``sampling.Simulator`` stacks the same
weights as columns of n x n matrices to look up every agent's row in one
product. ``encode`` is its scalar, range-checked form.
``decode_table`` is the inverse over a whole space; the exact oracles build
P_pi, pi(a|s) and the lifted rewards by broadcasting over it, and
``row_kron`` multiplies per-agent factors in the same digit order.
"""

from __future__ import annotations

import math

import numpy as np


def radix_weights(sizes) -> np.ndarray:
    """Per-position multipliers such that encode(v) = v . weights."""
    sizes = np.asarray(sizes, dtype=np.int64)
    w = np.ones(len(sizes), dtype=np.int64)
    for k in range(len(sizes) - 2, -1, -1):
        w[k] = w[k + 1] * sizes[k + 1]
    return w


def encode(values, sizes) -> int:
    idx = 0
    for v, m in zip(values, sizes):
        if not (0 <= v < m):
            raise ValueError(f"value {v} out of range [0, {m})")
        idx = idx * m + v
    return idx


def space_size(sizes) -> int:
    return math.prod(sizes)


def decode_table(sizes) -> np.ndarray:
    """Array of shape (space_size, len(sizes)) listing all decoded tuples."""
    return np.indices(sizes).reshape(len(sizes), space_size(sizes)).T


def row_kron(factors) -> np.ndarray:
    """Kronecker product of per-agent factors along their last axis.

    ``factors[i]`` has shape (..., m_i); entry (..., c) of the result is the
    product of ``factors[i][..., c_i]`` over the digits c_i of c, multiplied
    left to right, agent 0 first (the digit order of ``encode``).
    """
    out = factors[0]
    for f in factors[1:]:
        out = (out[..., :, None] * f[..., None, :]).reshape(
            out.shape[:-1] + (-1,))
    return out


def max_pairwise_l1(table, sizes, vary) -> float:
    """Largest L1 distance between two rows of ``table`` whose cells differ
    only at the positions ``vary``.

    Rows are indexed by the encoding of cells of ``sizes``; 0.0 if no two
    such rows exist.
    """
    k = len(sizes)
    t = np.moveaxis(table.reshape(tuple(sizes) + (-1,)), list(vary),
                    list(range(k - len(vary), k)))
    rows = t.reshape(-1, space_size(sizes[p] for p in vary), t.shape[-1])
    return float(np.abs(rows[:, :, None] - rows[:, None, :]).sum(axis=-1).max())
