"""Truncated shadow Q-functions: the TD critic.

One TD evaluation is the asynchronous single-trajectory subroutine: the
uniforms of ``td_draws``, rolled out by the run's ``Simulator`` (``train``
stacks both critics' trajectories into its one rollout per iteration), then
``td_fit`` of every agent's table along the trajectory, with the run's
``layout.RunLayout``. A critic stores the visited cells only, every
agent's in one sorted table over the stacked id space (``QTables``), and
is read with ``read_critics``.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .layout import RunLayout
from .model import FactoredCMDP


@dataclass(frozen=True)
class TDConfig:
    """Step count and step-size schedule eta_k = h / (k + k1)."""

    steps: int
    h: float
    k1: float

    def __post_init__(self):
        if self.steps < 1 or self.h <= 0 or self.k1 < 1:
            raise ValueError(f"need steps >= 1, h > 0, k1 >= 1; got steps "
                             f"{self.steps}, h {self.h}, k1 {self.k1}")

    def step_size(self, k):
        return self.h / (k + self.k1)


TD_STEPS = 500  # TD steps of a run whose config sets none
TD_SIGMA = 0.1  # the minimum-visit probability of ``default_td_config``


def default_td_config(gamma: float, steps: int = TD_STEPS) -> TDConfig:
    """Schedule constants from the minimum-visit probability ``TD_SIGMA``:
    h = (1/sigma) * max(2, 1/(1 - sqrt(gamma))), k1 = 2h."""
    h = round(max(2.0, 1.0 / (1.0 - np.sqrt(gamma))) / TD_SIGMA)
    return TDConfig(steps=steps, h=float(h), k1=float(2 * h))


@dataclass(frozen=True)
class TruncatedQTable:
    """Q values on the k-hop neighborhood cells (s_nbhd, a_nbhd) of one
    agent, stored sparsely: the sorted flat cell ids ``keys`` (see
    ``RunLayout.q_cells``) and their ``values``. A cell not stored reads
    0.0, as in a zero-initialized table."""

    agent: int
    kappa: int
    nbhd: tuple
    state_sizes: tuple  # sizes of the neighborhood agents' state spaces
    action_sizes: tuple
    keys: np.ndarray  # (m,) int64 cell ids, m >= 1, strictly increasing
    values: np.ndarray  # (m,) float64

    def read(self, cells):
        """Values at flat cell ids; 0.0 where a cell is not stored."""
        pos = np.searchsorted(self.keys, cells)
        return np.where(self.keys.take(pos, mode="clip") == cells,
                        self.values.take(pos, mode="clip"), 0.0)


class QTables(Sequence):
    """Every agent's truncated Q table of one critic as one sorted sparse
    table over the stacked id space of ``layout.q_off``: agent i's cell c
    has id c + q_off[i]. ``keys`` are the sorted stored ids, ``values``
    their values. Item i is agent i's ``TruncatedQTable``, a view of its
    slice, for tests and checks; ``read_critics`` reads the stacked form."""

    def __init__(self, layout: RunLayout, keys, values):
        self.layout, self.keys, self.values = layout, keys, values

    def __len__(self):
        return self.layout.n

    def __getitem__(self, i):
        return self.tables[i]

    @cached_property
    def tables(self) -> tuple:
        layout = self.layout
        bounds = self.keys.searchsorted(layout.q_off)
        return tuple(TruncatedQTable(i, layout.kappa, *layout.q_layouts[i],
                                     keys=self.keys[a:b] - layout.q_off[i],
                                     values=self.values[a:b])
                     for i, (a, b) in enumerate(zip(bounds, bounds[1:])))


def read_critics(critics, ids) -> list:
    """Each ``QTables``' values at stacked cell ids ``ids``; 0.0 where a
    cell is not stored. The critics share one ``np.unique`` of the ids and
    take one ``searchsorted`` of those sorted distinct ids each: half the
    time of a ``searchsorted`` of the raw ids on the side-3 grid."""
    distinct, inverse = np.unique(ids, return_inverse=True)
    out = []
    for q in critics:
        pos = q.keys.searchsorted(distinct)
        out.append(np.where(q.keys.take(pos, mode="clip") == distinct,
                            q.values.take(pos, mode="clip"), 0.0)[inverse])
    return out


def td_draws(cmdp: FactoredCMDP, cfg: TDConfig, rng):
    """Initial state and uniforms of one TD trajectory, as a one-row
    ``Simulator.rollout`` group: the per-agent uniforms of a uniform global
    initial state, then cfg.steps + 1 action and cfg.steps transition
    uniforms."""
    n, K = cmdp.n_agents, cfg.steps
    u_init = rng.random(n)
    u_act = rng.random((K + 1, n))
    u_trans = rng.random((K, n))
    # uniform global initial state (product of per-agent uniforms)
    sizes = np.array(cmdp.local_state_sizes)
    s0 = np.minimum((u_init * sizes).astype(np.int64), sizes - 1)
    return s0[None], u_act[:, None], u_trans[:, None]


def _sorted_slots(ids):
    """The sorted distinct values ``keys`` of an int64 array, each entry's
    index among them (``slots``), its argsort, and where along the argsort
    each run of one value starts. The sort's other arrays are freed on
    return, before the TD recursion allocates floats."""
    # the sort need not be stable: tied ids get the same slot either way
    order = ids.argsort()
    srt = ids.take(order)
    new = np.empty(len(ids), dtype=bool)
    new[0] = True
    np.not_equal(srt[1:], srt[:-1], out=new[1:])
    starts = np.flatnonzero(new)
    slots = np.empty(len(ids), dtype=np.int64)
    slots[order] = np.cumsum(new) - 1
    return srt.take(starts), slots, order, starts


def td_fit(layout: RunLayout, rewards, S, A) -> QTables:
    """Asynchronous TD evaluation of every agent's truncated Q-function
    along one trajectory of K + 1 global states S and actions A, (K+1, n),
    K = len(layout.etas), given every agent's reward at steps 0..K-1,
    ``rewards`` (n, K): env or shadow rewards, read by the caller.

    At step k only the cell visited at step k-1 is updated, with step size
    h/(k-1+k1); tables are zero-initialized. The Q cells of all agents
    along the trajectory are encoded with one array op, as ids of the
    stacked id space (``layout.q_off``). One sort of the written ids gives
    the sorted keys of all tables and each update's slot among them. The
    sorted keys and their values are returned as one ``QTables``: the
    visited cells only, nothing of the dense tables' size allocated.

    A lone update, a cell's first visit whose next read is still unwritten,
    reads 0.0 twice, so all of them are one vector op; the scalar
    recursion runs over the other updates only, agent after agent. On the
    wireless grids most updates are lone, on the lines' dense tables few.
    """
    n, K, gamma = layout.n, len(layout.etas), layout.gamma
    if np.shape(rewards) != (n, K):
        raise ValueError(f"rewards must be ({n}, {K}), not {np.shape(rewards)}")
    cells = layout.q_cells(S, A) + layout.q_off[:-1]
    keys, slots, order, starts = _sorted_slots(cells[:K].T.ravel())
    m = len(keys)
    # each slot's first visit: the smallest update in its run of the sort
    first = np.minimum.reduceat(order, starts)
    # the slot update j reads: update j+1's, but the sentinel m (0.0) where
    # update j+1 is a first visit, as that slot is 0.0 until then; after an
    # agent's last update its last cell's slot if that was written, else m
    # (first == 0 marks index -1, which the last-update line sets)
    slots_next = np.empty(n * K, dtype=np.int64)
    slots_next[:-1] = slots[1:]
    slots_next[first - 1] = m
    pos = keys.searchsorted(cells[K])
    slots_next[K - 1::K] = np.where(keys.take(pos, mode="clip") == cells[K],
                                    pos, m)
    lone = np.zeros(n * K, dtype=bool)
    lone[first] = True
    lone &= slots_next == m
    r = np.asarray(rewards, dtype=np.float64).ravel()  # agent-major, as slots
    etas = np.tile(layout.etas, n)
    q = np.zeros(m + 1)
    # the recursion's own order of operations, at qc = q[c_next] = 0.0
    q[slots[lone]] = 0.0 + etas[lone] * (r[lone] + gamma * 0.0 - 0.0)
    # the recursion runs over the other updates, on a list of just the
    # slots they write or read, renumbered: on the side-3 grid faster than
    # a list of every slot's value
    rest = np.flatnonzero(~lone)
    c_rest, next_rest = slots.take(rest), slots_next.take(rest)
    used = np.zeros(m + 1, dtype=bool)
    used[c_rest] = True
    used[next_rest] = True
    renum = np.cumsum(used) - 1
    used = np.flatnonzero(used)
    q_used = q.take(used).tolist()
    for c, c_next, rk, eta in zip(renum.take(c_rest).tolist(),
                                  renum.take(next_rest).tolist(),
                                  r.take(rest).tolist(),
                                  etas.take(rest).tolist()):
        qc = q_used[c]
        q_used[c] = qc + eta * (rk + gamma * q_used[c_next] - qc)
    q[used] = q_used
    return QTables(layout, keys, q[:m])
