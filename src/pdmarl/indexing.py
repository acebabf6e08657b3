"""Mixed-radix encoding of joint states/actions.

Tuples are encoded in ascending agent order with the first (lowest-index)
agent most significant, i.e. the same convention as numpy's C-order
ravel_multi_index. This encoding is part of the on-disk checkpoint format.

``weight_matrix`` is the one encoder: its column i holds ``radix_weights``
at the positions of one table's cells, as float64, so that ``X @ W`` is
every table's row at the integer arrays X at once. It builds the policy rows
(``KHopPolicy.row_weights``), the kernel rows
(``FactoredCMDP.kernel_weights``) and the truncated-Q cells
(``layout.RunLayout``). ``table_rows`` is the one read of them: every
reader (``sampling.Simulator``, ``layout.RunLayout`` and ``ThetaLayout``,
``occupancy.ExactSolve``) stores its W once and takes the exact float64
product; ``offsets`` places per-agent tables end to end in one
array. ``decode_table`` is the inverse over a whole space; the
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
    """(width, m) float64 weights whose column i holds
    ``radix_weights(sizes)`` at the rows ``positions``, for ``columns[i] =
    (positions, sizes)``: entry i of ``table_rows(X, W)`` is the row of the
    cell ``X[..., positions]`` of integer arrays X (..., width)."""
    w = np.zeros((width, len(columns)))
    for i, (positions, sizes) in enumerate(columns):
        w[list(positions), i] = radix_weights(sizes)
    return w


# Row ids below this are exact in float64 (``table_rows``).
EXACT_ROWS = 2 ** 53


def table_rows(X, W) -> np.ndarray:
    """Every table's row ``X @ W`` at integer arrays X (..., width), for a
    float64 ``weight_matrix`` W: one BLAS product over X's rows flattened,
    cast back to int64, shape (..., m).

    Exact below ``EXACT_ROWS``: X and W hold nonnegative integers, so every
    term and partial sum of a row's product is a nonnegative integer no
    larger than the row id, and float64 holds every integer below 2^53.
    Every reader's ids stay below it: policy and kernel rows, stacked over
    agents, through ``policy.MAX_TABLE_ENTRIES`` and ``model.DEP_TABLE_CAP``
    (at most 10^9 and 2 * 10^8 rows at ``envs.MAX_AGENTS``), and
    truncated-Q cells, stacked too, through ``layout.q_table_layouts``.
    """
    flat = X.reshape(-1, X.shape[-1])
    return (flat @ W).astype(np.int64).reshape(X.shape[:-1] + W.shape[1:])


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
