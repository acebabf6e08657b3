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
    got = X @ indexing.weight_matrix(n, columns)
    assert got.shape == (3, 4, len(columns))
    for i, (positions, sizes) in enumerate(columns):
        want = np.ravel_multi_index(tuple(X[..., p] for p in positions),
                                    sizes) if len(sizes) else np.zeros((3, 4))
        np.testing.assert_array_equal(got[..., i], want)
        np.testing.assert_array_equal(encode(X, positions, sizes), want)


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
    rows = np.concatenate([S, A], axis=-1) @ cmdp.kernel_weights()
    for i, f in enumerate(cmdp.kernels):
        cells = ([S[..., j] for j in f.state_deps]
                 + [A[..., j] for j in f.action_deps])
        want = np.ravel_multi_index(tuple(cells), f.dep_sizes)
        np.testing.assert_array_equal(rows[..., i], want)
