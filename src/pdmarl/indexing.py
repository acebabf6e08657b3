"""Mixed-radix encoding of joint states/actions.

Tuples are encoded in ascending agent order with the first (lowest-index)
agent most significant, i.e. the same convention as numpy's C-order
ravel_multi_index. This encoding is part of the on-disk checkpoint format.

``weight_matrix`` is the one encoder: its column i holds ``radix_weights``
at the positions of one table's cells, so that ``X @ W`` is every table's
row at the integer arrays X at once. It builds the policy rows
(``KHopPolicy.row_weights``), the kernel rows
(``FactoredCMDP.kernel_weights``) and the truncated-Q cells
(``layout.RunLayout``), which ``sampling.Simulator`` and
``occupancy.ExactSolve`` read; ``offsets`` places per-agent tables end to
end in one array. ``decode_table`` is the inverse over a whole space; the
exact oracles build every agent's policy and kernel rows at every state and
each reward's action cells by broadcasting over it, and ``row_kron``
multiplies per-agent factors (the state chain, a reward's policy weights)
in the same digit order.
"""

from __future__ import annotations

import math

import numpy as np


def radix_weights(sizes) -> np.ndarray:
    """Per-position multipliers: the row of cell v is v . weights."""
    sizes = np.asarray(sizes, dtype=np.int64)
    w = np.ones(len(sizes), dtype=np.int64)
    for k in range(len(sizes) - 2, -1, -1):
        w[k] = w[k + 1] * sizes[k + 1]
    return w


def weight_matrix(width, columns) -> np.ndarray:
    """(width, m) int64 weights whose column i holds ``radix_weights(sizes)``
    at the rows ``positions``, for ``columns[i] = (positions, sizes)``: entry
    i of ``X @ W`` is the row of the cell ``X[..., positions]`` of integer
    arrays X (..., width)."""
    w = np.zeros((width, len(columns)), dtype=np.int64)
    for i, (positions, sizes) in enumerate(columns):
        w[list(positions), i] = radix_weights(sizes)
    return w


def space_size(sizes) -> int:
    return math.prod(sizes)


def offsets(sizes) -> np.ndarray:
    """Start of each block, then the total, when blocks of ``sizes`` are
    stacked end to end: shape (len(sizes) + 1,)."""
    return np.concatenate(([0], np.cumsum(sizes, dtype=np.int64)))


def split(flat, shapes) -> list:
    """Views of the blocks of ``shapes`` stacked end to end in ``flat``."""
    off = offsets([math.prod(shape) for shape in shapes])
    return [flat[a:b].reshape(shape)
            for a, b, shape in zip(off, off[1:], shapes)]


def decode_table(sizes) -> np.ndarray:
    """Array of shape (space_size, len(sizes)) listing all decoded tuples."""
    return np.indices(sizes).reshape(len(sizes), space_size(sizes)).T


def row_kron(factors) -> np.ndarray:
    """Kronecker product of per-agent factors along their last axis.

    ``factors[i]`` has shape (..., m_i); entry (..., c) of the result is the
    product of ``factors[i][..., c_i]`` over the digits c_i of c, multiplied
    left to right, agent 0 first (the digit order of ``weight_matrix``).
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
