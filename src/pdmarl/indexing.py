"""Mixed-radix encoding of joint states/actions.

Tuples are encoded in ascending agent order with the first (lowest-index)
agent most significant, i.e. the same convention as numpy's C-order
ravel_multi_index. This encoding is part of the on-disk checkpoint format.

``encode`` is the one encoder: it maps integer arrays of global states or
actions ``(..., n)`` to the rows of the cells read at ``positions``, as one
product with ``radix_weights``. It is the row lookup of kernel tables
(``model.TransitionKernel.row_indices``) and of policy tables
(``KHopPolicy.nbhd_rows``); ``sampling.Simulator``,
``KHopPolicy.row_weights`` and ``layout.RunLayout`` (truncated-Q cells)
stack the same weights as matrix columns to look up every agent's row in
one product, and ``offsets`` places per-agent tables end to end in one
array. ``decode_table`` is the inverse over a whole space; the exact
oracles build every agent's policy and kernel rows at every state and each
reward's action cells by broadcasting over it, and ``row_kron`` multiplies
per-agent factors (the state chain, a reward's policy weights) in the same
digit order.
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


def encode(X, positions, sizes) -> np.ndarray:
    """Rows of the cells ``X[..., positions]`` of integer arrays (..., n),
    with ``sizes`` the radices of those positions."""
    return np.asarray(X)[..., list(positions)] @ radix_weights(sizes)


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
