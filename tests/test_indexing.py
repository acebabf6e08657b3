"""The mixed-radix encoding that the checkpoint format depends on."""

import numpy as np
import pytest

from pdmarl import indexing
from pdmarl.envs import (SyntheticLineSpec, WirelessGridSpec, synthetic_line,
                         wireless_grid)


@pytest.mark.parametrize("seed", range(5))
def test_encode_matches_ravel_multi_index(seed):
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n = int(rng.integers(1, 7))
    radices = rng.integers(1, 5, size=n)
    X = rng.integers(0, radices, size=(3, 4, n))
    for _ in range(10):
        k = int(rng.integers(0, n + 1))
        positions = rng.choice(n, size=k, replace=False)  # any order
        sizes = radices[positions]
        want = np.ravel_multi_index(tuple(X[..., p] for p in positions),
                                    sizes) if k else np.zeros((3, 4))
        got = indexing.encode(X, positions, sizes)
        assert got.shape == (3, 4)
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("env", ["line4", "grid2"])
def test_dependency_rows_on_broadcast_grids(env):
    """Kernel rows at (S, 1, n) states and (1, A, n) actions, the shapes the
    exact oracles use, against C-order raveling of the cells."""
    if env == "line4":
        cmdp = synthetic_line(SyntheticLineSpec(n=4, gamma=0.9))
    else:
        cmdp = wireless_grid(WirelessGridSpec(side=2, deadline=2, gamma=0.9))
    S = indexing.decode_table(cmdp.local_state_sizes)[:, None, :]
    A = indexing.decode_table(cmdp.local_action_sizes)[None, :, :]
    for f in cmdp.kernels:
        cells = ([np.broadcast_to(S[..., j], (len(S), A.shape[1]))
                  for j in f.state_deps]
                 + [np.broadcast_to(A[..., j], (len(S), A.shape[1]))
                    for j in f.action_deps])
        want = np.ravel_multi_index(tuple(cells), f.dep_sizes)
        np.testing.assert_array_equal(f.row_indices(S, A), want)
