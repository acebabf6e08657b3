"""The stacked array ops of a training iteration against plain per-agent
references, byte for byte, and the run layout built once per run."""

import tracemalloc

import numpy as np
import pytest

import pdmarl
from pdmarl import indexing, sampling
from pdmarl.critic import TDConfig
from pdmarl.envs import (SyntheticLineSpec, WirelessGridSpec, synthetic_line,
                         wireless_grid)
from pdmarl.graph import khop_neighborhood
from pdmarl.layout import RunLayout, ThetaLayout
from pdmarl.occupancy import estimate_local_occupancies
from pdmarl.policy import KHopPolicy
from pdmarl.primal_dual import StepSizes, TrainConfig, train
from pdmarl.utilities import ENTROPY, GeneralUtility

from helpers import PairLayout, rng_for
from oracles import as_constraint, encode


def random_batch(rng, B, H, state_sizes, action_sizes):
    S = rng.integers(0, state_sizes, size=(B, H, len(state_sizes)))
    A = rng.integers(0, action_sizes, size=(B, H, len(action_sizes)))
    return S, A


def model(env):
    """The 5-agent line, or the side-3 grid, whose local action sizes are
    (2, 3, 2, 3, 5, 3, 2, 3, 2)."""
    if env == "line5":
        return synthetic_line(SyntheticLineSpec(n=5, gamma=0.9))
    return wireless_grid(WirelessGridSpec(side=3, deadline=1, gamma=0.9))


def random_policy(cmdp, kappa, seed):
    return KHopPolicy.random(cmdp.graph, cmdp.local_state_sizes,
                             cmdp.local_action_sizes, kappa, rng_for(seed))


# -- occupancy ----------------------------------------------------------------

def reference_occupancy(S, A, agent, gamma, state_size, action_size):
    """One agent's estimate folded one trajectory at a time."""
    discounts = gamma ** np.arange(S.shape[1])
    flat = S[:, :, agent] * action_size + A[:, :, agent]
    table = np.zeros(state_size * action_size)
    for b in range(len(S)):
        np.add.at(table, flat[b], discounts)
    table /= len(S)
    return table.reshape(state_size, action_size)


@pytest.mark.parametrize("B,H", [(1, 1), (1, 17), (6, 1), (5, 40)])
@pytest.mark.parametrize("sizes", [((2, 2, 2), (2, 2, 2)),
                                   ((3, 1, 2, 5), (2, 4, 1, 3))],
                         ids=["binary", "mixed"])
def test_occupancy_bincount_is_the_add_at_loop(B, H, sizes):
    state_sizes, action_sizes = sizes
    S, A = random_batch(rng_for(B * 100 + H), B, H, state_sizes,
                        action_sizes)
    layout = PairLayout(0.93, state_sizes, action_sizes)
    got = indexing.split(estimate_local_occupancies(layout, S, A),
                         layout.sa_shapes)
    assert len(got) == len(state_sizes)
    for i, occ in enumerate(got):
        want = reference_occupancy(S, A, i, 0.93, state_sizes[i],
                                   action_sizes[i])
        assert occ.shape == want.shape
        assert occ.tobytes() == want.tobytes()


def test_occupancy_on_the_grid_mixed_sizes():
    cmdp = model("grid3")
    S, A = random_batch(rng_for(4), 3, 25, cmdp.local_state_sizes,
                        cmdp.local_action_sizes)
    layout = RunLayout(cmdp, random_policy(cmdp, 0, 0), 0)
    got = indexing.split(estimate_local_occupancies(layout, S, A),
                         layout.sa_shapes)
    for i, occ in enumerate(got):
        want = reference_occupancy(S, A, i, cmdp.gamma,
                                   cmdp.local_state_sizes[i],
                                   cmdp.local_action_sizes[i])
        assert occ.tobytes() == want.tobytes()


# -- truncated-Q cells and local pair cells ------------------------------------

@pytest.mark.parametrize("env,kappa", [("line5", 0), ("line5", 1),
                                       ("line5", 2), ("grid3", 1)])
def test_stacked_q_cells_are_ravel_multi_index(env, kappa):
    cmdp = model(env)
    layout = RunLayout(cmdp, random_policy(cmdp, kappa, 0), kappa)
    S, A = random_batch(rng_for(1), 4, 9, cmdp.local_state_sizes,
                        cmdp.local_action_sizes)
    cells = layout.q_cells(S, A)
    assert cells.shape == S.shape and cells.dtype == np.int64
    for i in range(cmdp.n_agents):
        nbhd = khop_neighborhood(cmdp.graph, i, kappa)
        assert layout.q_layouts[i][0] == nbhd
        sizes = ([cmdp.local_state_sizes[j] for j in nbhd]
                 + [cmdp.local_action_sizes[j] for j in nbhd])
        want = np.ravel_multi_index(
            tuple(S[..., j] for j in nbhd) + tuple(A[..., j] for j in nbhd),
            sizes)
        assert cells[..., i].tobytes() == want.tobytes()
    # broadcast state and action grids give the same cells
    grid = layout.q_cells(S[:, :1, None], A[:, None, :1])
    assert grid.shape == (4, 1, 1, cmdp.n_agents)
    assert np.array_equal(grid[:, 0, 0], cells[:, 0])
    # and every agent's local pair indexes its slice of the stacked tables
    pairs = layout.sa_cells(S, A)
    for i, (s, a) in enumerate(layout.sa_shapes):
        local = np.ravel_multi_index((S[..., i], A[..., i]), (s, a))
        assert np.array_equal(pairs[..., i] - layout.sa_off[i], local)


# -- score sums ---------------------------------------------------------------

def reference_score_sum(policy, i, rows, acts, weights):
    """One agent's score sum with one bincount pair of its own."""
    A_i = policy.action_sizes[i]
    n_rows = len(policy.theta[i])
    flat = np.bincount(rows * A_i + acts, weights=weights,
                       minlength=n_rows * A_i)
    row_tot = np.bincount(rows, weights=weights, minlength=n_rows)
    return flat.reshape(n_rows, A_i) - policy.prob_tables[i] * row_tot[:, None]


@pytest.mark.parametrize("env,kappa", [("line5", 0), ("line5", 2),
                                       ("grid3", 1)])
def test_stacked_score_sums_are_per_agent_bincounts(env, kappa):
    cmdp = model(env)
    policy = random_policy(cmdp, kappa, 2)
    rng = rng_for(3)
    S, A = random_batch(rng, 5, 30, cmdp.local_state_sizes,
                        cmdp.local_action_sizes)
    weights = rng.normal(size=S.shape)
    theta = ThetaLayout(policy)
    rows = theta.rows(S)
    got = policy.stack.split(theta.score_sums(policy, rows, A, weights))
    for i, g in enumerate(got):
        assert np.array_equal(rows[..., i], encode(
            S, policy.neighborhood(i), policy.nbhd_state_sizes(i)))
        want = reference_score_sum(policy, i, rows[..., i].ravel(),
                                   A[..., i].ravel(), weights[..., i].ravel())
        assert g.shape == policy.theta[i].shape
        assert g.tobytes() == want.tobytes()


# -- exact float64 row reads --------------------------------------------------

@pytest.mark.parametrize("env,kappa", [("line5", 2), ("grid3", 1)])
def test_row_reads_are_the_int64_products(env, kappa):
    """``q_cells`` and ``ThetaLayout.rows``, each an ``indexing.table_rows``
    of float64 weights, against the int64 products with the encoder's
    weights, at random cells and at the last cell of every table."""
    cmdp = model(env)
    policy = random_policy(cmdp, kappa, 4)
    layout = RunLayout(cmdp, policy, kappa)
    n = cmdp.n_agents
    S, A = random_batch(rng_for(5), 3, 11, cmdp.local_state_sizes,
                        cmdp.local_action_sizes)
    S[0, 0] = np.array(cmdp.local_state_sizes) - 1
    A[0, 0] = np.array(cmdp.local_action_sizes) - 1
    q_w = indexing.weight_matrix(2 * n, [
        (nbhd + tuple(n + j for j in nbhd), s + a)
        for nbhd, s, a in layout.q_layouts]).astype(np.int64)
    cells, rows = layout.q_cells(S, A), layout.theta.rows(S)
    for got, want in ((cells, np.concatenate([S, A], axis=-1) @ q_w),
                      (rows, S @ policy.row_weights().astype(np.int64))):
        assert got.dtype == np.int64 and got.shape == S.shape
        assert np.array_equal(got, want)
    assert np.array_equal(cells[0, 0] + 1, np.diff(layout.q_off))
    assert np.array_equal(rows[0, 0] + 1, [len(t) for t in policy.theta])


# What building ``RunLayout`` for the 1000-agent line at kappa 1 may hold,
# and its peak: its float64 weight matrices, the simulator's two (2n+1, n),
# the Q cells' (2n, n) and the policy rows' (n, n), take 53.4 MiB of it. The
# encoder writes float64, so no int64 copy of one is alive beside it.
LAYOUT_1000_BYTES = 60 * 2**20


def test_layout_of_the_1000_agent_line_holds_its_weights_once():
    cmdp = synthetic_line(SyntheticLineSpec(n=1000, gamma=0.99))
    policy = KHopPolicy.zeros(cmdp.graph, cmdp.local_state_sizes,
                              cmdp.local_action_sizes, 1)
    tracemalloc.start()
    try:
        layout = RunLayout(cmdp, policy, 1)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert layout.q_w.dtype == layout.theta.row_w.dtype == np.float64
    assert held <= LAYOUT_1000_BYTES
    assert peak <= LAYOUT_1000_BYTES


# -- TD step sizes ------------------------------------------------------------

@pytest.mark.parametrize("td", [TDConfig(steps=500, h=200.0, k1=400.0),
                                TDConfig(steps=37, h=3.3, k1=1.7),
                                TDConfig(steps=1, h=1e-3, k1=1.0)])
def test_step_size_list_is_step_size(td):
    cmdp = model("line5")
    layout = RunLayout(cmdp, random_policy(cmdp, 1, 0), 1, td)
    assert isinstance(layout.etas, list) and len(layout.etas) == td.steps
    want = np.array([td.h / (k + td.k1) for k in range(td.steps)])
    assert np.array(layout.etas).tobytes() == want.tobytes()
    assert layout.etas == [td.step_size(k) for k in range(td.steps)]


# -- the layout is built once per run -----------------------------------------

def counted_train(monkeypatch, iterations):
    """Calls of radix_weights, khop_neighborhood and kernel InverseCdf
    builds during one training of the 6-agent line."""
    cmdp = synthetic_line(SyntheticLineSpec(n=6, gamma=0.95))
    counts = {"radix_weights": 0, "khop_neighborhood": 0, "kernel_cdf": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    radix = counted("radix_weights", indexing.radix_weights)
    khop = counted("khop_neighborhood", khop_neighborhood)
    monkeypatch.setattr(indexing, "radix_weights", radix)
    # every module that imported the name looks it up in its own namespace
    for module in vars(pdmarl).values():
        if getattr(module, "khop_neighborhood", None) is khop_neighborhood:
            monkeypatch.setattr(module, "khop_neighborhood", khop)
    of_tables = sampling.InverseCdf.of_tables

    def counted_of_tables(tables):
        tables = list(tables)
        if tables[0] is cmdp.kernels[0].table:
            counts["kernel_cdf"] += 1
        return of_tables(tables)

    monkeypatch.setattr(sampling.InverseCdf, "of_tables", counted_of_tables)
    base = GeneralUtility(kind=ENTROPY, gamma=cmdp.gamma)
    cfg = TrainConfig(kappa=1, iterations=iterations, horizon=20,
                      batch_size=3, steps=StepSizes(eta_theta=0.05,
                                                    eta_mu=10.0),
                      td=TDConfig(steps=40, h=20.0, k1=40.0))
    train(cmdp, None, [as_constraint(base, 0.25)] * 6, cfg, seed=1)
    monkeypatch.undo()
    return counts


def test_layout_is_built_once_per_run(monkeypatch):
    two, four = counted_train(monkeypatch, 2), counted_train(monkeypatch, 4)
    assert two == four
    assert two["kernel_cdf"] == 1
    assert two["radix_weights"] > 0 and two["khop_neighborhood"] > 0
