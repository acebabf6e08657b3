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

import itertools
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
    """The sorted distinct values of an int64 array, and each entry's index
    among them as a list. The sort's arrays are freed on return, before the
    TD recursion allocates floats."""
    # the sort need not be stable: tied ids get the same slot either way
    order = ids.argsort()
    srt = ids.take(order)
    first = np.empty(len(ids), dtype=bool)
    first[0] = True
    np.not_equal(srt[1:], srt[:-1], out=first[1:])
    slots = np.empty(len(ids), dtype=np.int64)
    slots[order] = np.cumsum(first) - 1
    return srt[first], slots.tolist()


def td_fit(layout: RunLayout, rewards, S, A) -> QTables:
    """Asynchronous TD evaluation of every agent's truncated Q-function
    along one trajectory of K + 1 global states S and actions A, (K+1, n),
    K = len(layout.etas), given every agent's reward at steps 0..K-1,
    ``rewards`` (n, K): env or shadow rewards, read by the caller.

    At step k only the cell visited at step k-1 is updated, with step size
    h/(k-1+k1); tables are zero-initialized. The Q cells of all agents
    along the trajectory are encoded with one array op. One sort of every
    agent's written cells, as ids of the stacked id space
    (``layout.q_off``), gives the sorted keys of all tables and each step's
    slot among them. Only the scalar recursion runs step by step, over one
    list of slot values, agent after agent; the list ends in one 0.0, which
    a last cell that is never written reads. The sorted keys and their
    values are returned as one ``QTables``: the visited cells only, nothing
    of the dense tables' size allocated.
    """
    n, K, gamma = layout.n, len(layout.etas), layout.gamma
    if np.shape(rewards) != (n, K):
        raise ValueError(f"rewards must be ({n}, {K}), not {np.shape(rewards)}")
    cells = layout.q_cells(S, A) + layout.q_off[:-1]
    keys, slots = _sorted_slots(cells[:K].T.ravel())
    m = len(keys)
    # the slot step k reads: step k+1's, and after an agent's last step its
    # last cell's if that was written, else the sentinel m
    pos = keys.searchsorted(cells[K])
    slots_next = slots[1:] + [m]
    slots_next[K - 1::K] = np.where(keys.take(pos, mode="clip") == cells[K],
                                    pos, m).tolist()
    # agent-major, as the slots; made after the sort, so that the sort's
    # arrays and these floats are not held at once (0.12 MB of peak heap on
    # the 10-agent line, by tracemalloc)
    r_all = np.ravel(rewards).tolist()
    q = [0.0] * (m + 1)
    for c, c_next, r, eta in zip(slots, slots_next, r_all,
                                 itertools.chain.from_iterable(
                                     itertools.repeat(layout.etas, n))):
        qc = q[c]
        q[c] = qc + eta * (r + gamma * q[c_next] - qc)
    return QTables(layout, keys, np.fromiter(q, np.float64, m))

