"""The stacked layout of a training run's agents.

Each phase of a ``primal_dual.train`` iteration works on one local object
per agent: occupancies, shadow rewards, truncated Q tables and score
tables. ``RunLayout`` places every agent's object in one stacked array and
holds what that placement needs, which stays fixed for a run, so that each
phase is one array op across all agents:

- agent i's (S_i, A_i) table (occupancy, shadow reward) is the slice
  ``sa_off[i]:sa_off[i + 1]`` of one flat array, at cell s * A_i + a;
- ``[S | A] @ q_w``, ``q_w`` a float64 ``indexing.weight_matrix``, is every
  agent's truncated-Q cell (``q_cells``), and agent i's dense cell ids
  start at ``q_off[i]`` of one stacked id space;
- ``S @ theta.row_w`` is every agent's policy-table row (``ThetaLayout``),
  and agent i's theta table is a slice of one flat array
  (``KHopPolicy.stack``), so that one pair of ``bincount``s gives every
  agent's score sums.

``RunLayout`` also holds the run's ``Simulator`` and the TD step sizes, so
one TD evaluation is ``critic.td_fit`` of the layout along a rollout of
``critic.td_draws``. Both products are ``indexing.table_rows``.
``q_table_layout`` is the one truncated-Q shape rule, and
``q_table_layouts`` applies it to every agent and stacks their ids below
2^53, where that read is exact; ``config`` checks it at parse time.
"""

from __future__ import annotations

import numpy as np

from .graph import khop_neighborhood
from .model import FactoredCMDP
from .policy import KHopPolicy
from .sampling import Simulator
from . import indexing

# Most cells one truncated-Q table may store (an 8-byte key and value each).
MAX_Q_CELLS = 10**7


def q_table_layout(cmdp: FactoredCMDP, agent: int, kappa: int, steps=None):
    """Neighborhood and its state and action sizes of one agent's truncated-Q
    table at radius kappa.

    A TD fit of ``steps`` steps stores at most min(dense cells, steps + 1)
    cells; ``steps=None`` is a table that stores every cell. Raises
    ValueError above MAX_Q_CELLS stored cells, or when a flat cell id would
    reach ``indexing.EXACT_ROWS`` (2^53).
    """
    nbhd = khop_neighborhood(cmdp.graph, agent, kappa)
    s_sizes = tuple(cmdp.local_state_sizes[j] for j in nbhd)
    a_sizes = tuple(cmdp.local_action_sizes[j] for j in nbhd)
    dense = indexing.space_size(s_sizes + a_sizes)
    if dense > indexing.EXACT_ROWS:
        raise ValueError(
            f"truncated Q table of agent {agent} has {dense} cells, whose "
            f"flat ids reach 2^53, the float64-exact bound")
    stored = dense if steps is None else min(dense, steps + 1)
    if stored > MAX_Q_CELLS:
        raise ValueError(
            f"truncated Q table of agent {agent} would store up to {stored} "
            f"cells, above the cap of {MAX_Q_CELLS}")
    return nbhd, s_sizes, a_sizes


def q_table_layouts(cmdp: FactoredCMDP, kappa: int, steps=None):
    """Every agent's ``q_table_layout`` and the offsets of their dense cell
    ids in one stacked id space: agent i's ids start at ``off[i]``.

    Raises ValueError as ``q_table_layout`` does, or when the stacked ids
    would reach ``indexing.EXACT_ROWS``.
    """
    layouts = tuple(q_table_layout(cmdp, i, kappa, steps)
                    for i in range(cmdp.n_agents))
    sizes = [indexing.space_size(s + a) for _, s, a in layouts]
    if sum(sizes) > indexing.EXACT_ROWS:
        raise ValueError(
            f"the truncated Q tables of all {cmdp.n_agents} agents have "
            f"{sum(sizes)} cells together, whose stacked ids reach 2^53, the "
            f"float64-exact bound")
    return layouts, indexing.offsets(sizes)


class ThetaLayout:
    """The rows of every agent's theta table, for policies shaped like
    ``policy``: the tables sit in one flat array as ``policy.stack`` places
    them, and agent i's rows, stacked, start at ``row_off[i]``;
    ``rows(S)`` is every agent's table row at global states S, one
    product."""

    def __init__(self, policy: KHopPolicy):
        n_rows = [r for r, _ in policy.stack.shapes]
        self.row_off = indexing.offsets(n_rows)
        self.action_sizes = np.array(policy.action_sizes, dtype=np.int64)
        # the column count of each stacked row
        self.row_actions = np.repeat(policy.action_sizes, n_rows)
        self.row_w = policy.row_weights()

    def rows(self, S) -> np.ndarray:
        """Every agent's table row at integer global states (..., n)."""
        return indexing.table_rows(S, self.row_w)

    def score_sums(self, policy: KHopPolicy, rows, acts,
                   weights) -> np.ndarray:
        """Theta-shaped sums over samples of weight times score, stacked as
        ``policy.theta_flat``.

        ``rows``, ``acts`` and ``weights`` are (..., n): column i holds agent
        i's table rows, actions and weights. Entry [e, b] of agent i's table
        is the weight on row e with action b minus the softmax share
        pi_i(b | e) of row e's total weight. Each sum is one ``bincount``,
        which adds a bin's samples in their order, as one ``bincount`` per
        agent would.
        """
        w, off = weights.ravel(), policy.stack.off
        flat = np.bincount(
            (off[:-1] + rows * self.action_sizes + acts).ravel(),
            weights=w, minlength=off[-1])
        row_tot = np.bincount((self.row_off[:-1] + rows).ravel(), weights=w,
                              minlength=self.row_off[-1])
        return flat - policy.probs * np.repeat(row_tot, self.row_actions)


class RunLayout:
    """Stacked layout of the agents of ``cmdp`` under policies shaped like
    ``policy``, with truncated Q tables at radius ``kappa`` and, given a
    ``TDConfig`` ``td``, its step sizes ``etas`` (``td.step_size(k)`` for
    k < td.steps). ``simulator`` is the run's ``Simulator``: its kernel half
    is built once, and each policy swaps in its own CDF (``with_policy``).
    """

    def __init__(self, cmdp: FactoredCMDP, policy: KHopPolicy, kappa: int,
                 td=None):
        n = self.n = cmdp.n_agents
        self.kappa, self.gamma = kappa, cmdp.gamma
        self.simulator = Simulator(cmdp, policy)
        self.sa_shapes = list(zip(cmdp.local_state_sizes,
                                  cmdp.local_action_sizes))
        self.action_sizes = np.array(cmdp.local_action_sizes, dtype=np.int64)
        self.sa_off = indexing.offsets([s * a for s, a in self.sa_shapes])
        self.theta = ThetaLayout(policy)
        self.q_layouts, self.q_off = q_table_layouts(
            cmdp, kappa, None if td is None else td.steps)
        # neighborhoods padded to one width with n, a zero row of addends
        width = max(len(nbhd) for nbhd, _, _ in self.q_layouts)
        self.hoods = np.array([list(nbhd) + [n] * (width - len(nbhd))
                               for nbhd, _, _ in self.q_layouts])
        self.q_w = indexing.weight_matrix(2 * n, [
            (nbhd + tuple(n + j for j in nbhd), s_sizes + a_sizes)
            for nbhd, s_sizes, a_sizes in self.q_layouts])
        self.etas = (None if td is None else
                     td.step_size(np.arange(td.steps)).tolist())

    def q_cells(self, S, A) -> np.ndarray:
        """Every agent's truncated-Q cell id at integer global state/action
        arrays (..., n), which broadcast: column i is agent i's cell (s_N,
        a_N) of its neighborhood N's states then actions, encoded."""
        S, A = np.broadcast_arrays(S, A)
        return indexing.table_rows(np.concatenate([S, A], axis=-1), self.q_w)

    def sa_cells(self, S, A) -> np.ndarray:
        """Every agent's local pair (S_i, A_i) as a cell of the stacked
        (S_i, A_i) tables, at integer arrays (..., n)."""
        return S * self.action_sizes + A + self.sa_off[:-1]
