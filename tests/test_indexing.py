"""The mixed-radix encoding that the checkpoint format depends on."""

import numpy as np
import pytest

from pdmarl import indexing
from pdmarl.envs import (SyntheticLineSpec, WirelessGridSpec, synthetic_line,
                         wireless_grid)

from oracles import encode


@pytest.mark.parametrize("seed", range(5))
def test_encode_matches_ravel_multi_index(seed):
    """Each column of one ``weight_matrix``, and the tests' one-table
    ``encode``, against C-order raveling of the cells."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n = int(rng.integers(1, 7))
    radices = rng.integers(1, 5, size=n)
    X = rng.integers(0, radices, size=(3, 4, n))
    columns = []
    for _ in range(10):
        k = int(rng.integers(0, n + 1))
        positions = rng.choice(n, size=k, replace=False)  # any order
        columns.append((positions, radices[positions]))
    got = X @ indexing.weight_matrix(n, columns).astype(np.int64)
    assert got.shape == (3, 4, len(columns))
    for i, (positions, sizes) in enumerate(columns):
        want = np.ravel_multi_index(tuple(X[..., p] for p in positions),
                                    sizes) if len(sizes) else np.zeros((3, 4))
        np.testing.assert_array_equal(got[..., i], want)
        np.testing.assert_array_equal(encode(X, positions, sizes), want)


def test_table_rows_are_exact_below_2_53():
    """One table of 2^26 x 2^27 cells, whose last row is 2^53 - 1, and
    one of 2 x 2^53 cells, whose row 2^53 + 1 float64 cannot hold."""
    W = indexing.weight_matrix(3, [((0, 1), (2**26, 2**27)),
                                   ((2, 1), (2, 2**53))])
    assert W.dtype == np.float64
    W64 = W.astype(np.int64)  # the int64 products are the reference
    rng = np.random.default_rng(np.random.SeedSequence(7))
    X = rng.integers(0, [2**26, 2**27, 1], size=(4, 5, 3))
    X[0, 0] = [2**26 - 1, 2**27 - 1, 0]
    got = indexing.table_rows(X, W)
    assert got.dtype == np.int64 and got.shape == (4, 5, 2)
    assert np.array_equal(got, X @ W64)
    assert got[0, 0, 0] == 2**53 - 1 == indexing.EXACT_ROWS - 1
    past = np.array([[0, 1, 1]])
    assert (past @ W64)[0, 1] == 2**53 + 1
    assert indexing.table_rows(past, W)[0, 1] == 2**53


@pytest.mark.parametrize("env", ["line4", "grid2"])
def test_dependency_rows_on_broadcast_grids(env):
    """Kernel rows ``[S | A] @ kernel_weights()`` at every state with every
    action, against C-order raveling of the cells."""
    if env == "line4":
        cmdp = synthetic_line(SyntheticLineSpec(n=4, gamma=0.9))
    else:
        cmdp = wireless_grid(WirelessGridSpec(side=2, deadline=2, gamma=0.9))
    S, A = np.broadcast_arrays(
        indexing.decode_table(cmdp.local_state_sizes)[:, None, :],
        indexing.decode_table(cmdp.local_action_sizes)[None, :, :])
    rows = (np.concatenate([S, A], axis=-1)
            @ cmdp.kernel_weights().astype(np.int64))
    for i, f in enumerate(cmdp.kernels):
        cells = ([S[..., j] for j in f.state_deps]
                 + [A[..., j] for j in f.action_deps])
        want = np.ravel_multi_index(tuple(cells), f.dep_sizes)
        np.testing.assert_array_equal(rows[..., i], want)
