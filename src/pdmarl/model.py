"""Networked constrained MDP with factored transitions.

The global transition decomposes into per-agent kernels, each reading only a
declared subset of agents' states and its own action, so the state chain
under a policy factors per agent. Kernels and local rewards are both array
functions of their dependency cells, so neither can read an undeclared
agent. A kernel's function is called once, on all its cells, and its table
kept, which makes sampling cheap and lets the tests compute the
transition-sensitivity matrix by brute force on small instances. A reward's
function is evaluated wherever it is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .graph import DependenceGraph
from . import indexing

# Largest model the exact oracles enumerate: the state chain is an
# |S| x |S| matrix, and each env reward is read at its |S||A_N| cells, every
# state with every joint action of the agents whose actions it reads.
MAX_EXACT_STATES = 1024
MAX_EXACT_PAIRS = 2 ** 22

# Most dependency cells that ``TransitionKernel.from_function`` passes to a
# kernel's function in one call; the simulator draws next states from the
# tables it returns.
DEP_TABLE_CAP = 200_000


class EnumerationCapExceeded(ValueError):
    pass


def _deps(state_deps, action_deps, state_sizes, action_sizes):
    """Sorted, checked ``state_deps`` and ``action_deps``, and ``dep_sizes``,
    the sizes of their cells' coordinates."""
    checked = []
    for what, deps in (("state", state_deps), ("action", action_deps)):
        deps = tuple(sorted(deps))
        if len(set(deps)) != len(deps):
            raise ValueError(f"duplicate agents in {what} dependencies: {deps}")
        for j in deps:
            if not (0 <= j < len(state_sizes)):
                raise ValueError(f"{what} dependency {j} out of range")
        checked.append(deps)
    s_deps, a_deps = checked
    return (s_deps, a_deps, tuple(state_sizes[j] for j in s_deps)
            + tuple(action_sizes[j] for j in a_deps))


@dataclass(frozen=True)
class TransitionKernel:
    """Distribution over one agent's next local state: ``table[row]`` is the
    distribution over S_agent at dependency cell ``row``. It reads the
    states of ``state_deps`` and at most the agent's own action.

    A cell lists the states of ``state_deps`` then the actions of
    ``action_deps``, each in ascending agent order, encoded with
    ``dep_sizes`` as radices.
    """

    agent: int
    state_deps: tuple
    action_deps: tuple
    dep_sizes: tuple
    table: np.ndarray

    def __post_init__(self):
        if not set(self.action_deps) <= {self.agent}:
            raise ValueError(
                f"kernel of agent {self.agent} reads the actions of agents "
                f"{self.action_deps}; it may read only its own")
        if self.table.shape != (indexing.space_size(self.dep_sizes), self.table.shape[1]):
            raise ValueError("kernel table shape does not match dependency sizes")
        sums = self.table.sum(axis=1)
        if np.any(self.table < 0) or np.any(np.abs(sums - 1.0) > 1e-12):
            raise ValueError(
                f"kernel of agent {self.agent} has rows that are not distributions"
            )

    @classmethod
    def from_function(cls, fn, agent, state_deps, action_deps,
                      state_sizes, action_sizes):
        """Tabulate ``fn(S_deps, A_deps)`` over every dependency cell.

        ``fn`` is called once, with the integer arrays (cells,
        len(state_deps)) and (cells, len(action_deps)) of
        ``indexing.decode_table(dep_sizes)`` split into its state and action
        columns, rows in table order. It returns the (cells, S_agent)
        distributions, or one (S_agent,) distribution for every cell. It sees
        no other agent, so the kernel is local by construction.
        """
        state_deps, action_deps, dep_sizes = _deps(
            state_deps, action_deps, state_sizes, action_sizes)
        n_cells = indexing.space_size(dep_sizes)
        if n_cells > DEP_TABLE_CAP:
            raise EnumerationCapExceeded(
                f"kernel dependency space of agent {agent} has {n_cells} cells"
            )
        cells = indexing.decode_table(dep_sizes)
        ns = len(state_deps)
        dist = np.asarray(fn(cells[:, :ns], cells[:, ns:]), dtype=float)
        shape = (n_cells, state_sizes[agent])
        if dist.shape not in (shape, shape[1:]):
            raise ValueError(f"kernel of agent {agent} returned shape "
                             f"{dist.shape}, expected {shape} or {shape[1:]}")
        return cls(agent, state_deps, action_deps, dep_sizes,
                   np.broadcast_to(dist, shape).copy())


@dataclass(frozen=True)
class LocalReward:
    """Local reward reading a declared neighborhood (s_{N_i}, a_{N_i}).

    ``fn(S_deps, A_deps)`` receives the integer arrays ``S[..., state_deps]``
    and ``A[..., action_deps]`` and returns their rewards; it sees no other
    agent, so the reward is local by construction. A scalar return is a
    constant reward.
    """

    agent: int
    state_deps: tuple
    action_deps: tuple
    dep_sizes: tuple
    fn: object = field(compare=False)

    @classmethod
    def from_function(cls, fn, agent, state_deps, action_deps,
                      state_sizes, action_sizes):
        return cls(agent, *_deps(state_deps, action_deps, state_sizes,
                                 action_sizes), fn)

    def values(self, S, A) -> np.ndarray:
        """Rewards at integer state/action arrays (..., n); S and A broadcast."""
        S, A = np.asarray(S), np.asarray(A)
        r = self.fn(S[..., list(self.state_deps)], A[..., list(self.action_deps)])
        return np.broadcast_to(np.asarray(r, dtype=float),
                               np.broadcast_shapes(S.shape[:-1], A.shape[:-1]))


@dataclass(frozen=True)
class FactoredCMDP:
    """Immutable networked MDP model."""

    graph: DependenceGraph
    local_state_sizes: tuple
    local_action_sizes: tuple
    kernels: tuple
    rewards: tuple
    initial_dist: tuple  # per-agent distributions over S_i (product form)
    gamma: float

    def __post_init__(self):
        n = self.graph.n
        if len(self.local_state_sizes) != n or len(self.local_action_sizes) != n:
            raise ValueError("space sizes must list one entry per agent")
        if len(self.kernels) != n or len(self.rewards) != n:
            raise ValueError("kernels and rewards must list one entry per agent")
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        for i, (kern, dist) in enumerate(zip(self.kernels, self.initial_dist)):
            if kern.agent != i:
                raise ValueError(f"kernel at position {i} belongs to agent {kern.agent}")
            dist = np.asarray(dist)
            if dist.shape != (self.local_state_sizes[i],):
                raise ValueError(f"initial distribution of agent {i} has wrong shape")
            if np.any(dist < 0) or abs(dist.sum() - 1.0) > 1e-12:
                raise ValueError(f"initial distribution of agent {i} is not a distribution")

    @property
    def n_agents(self):
        return self.graph.n

    @property
    def n_states(self):
        return indexing.space_size(self.local_state_sizes)

    def check_enumeration_cap(self):
        checks = [("|S|", self.n_states, MAX_EXACT_STATES)] + [
            (f"|S||A_N| of agent {rew.agent}'s reward", self.n_states
             * indexing.space_size(rew.dep_sizes[len(rew.state_deps):]),
             MAX_EXACT_PAIRS) for rew in self.rewards]
        for what, size, cap in checks:
            if size > cap:
                raise EnumerationCapExceeded(
                    f"{what} = {size} exceeds the enumeration cap {cap}")

    def kernel_weights(self) -> np.ndarray:
        """(2n, n) float64 weights whose column i is kernel i's row
        encoding: ``indexing.table_rows([S | A], kernel_weights())`` is every
        kernel's table row at once."""
        n = self.n_agents
        return indexing.weight_matrix(2 * n, [
            (kern.state_deps + tuple(n + j for j in kern.action_deps),
             kern.dep_sizes) for kern in self.kernels])

    def initial_state_distribution(self):
        """Flat distribution over global states (product of local ones)."""
        return indexing.row_kron([np.asarray(d, dtype=float)
                                  for d in self.initial_dist])
