"""Networked constrained MDP with factored transitions.

The global transition decomposes into per-agent kernels, each reading only a
declared subset of agents' states/actions. Kernels and local rewards are
tabulated over their dependency coordinates at construction time, which makes
sampling cheap and lets the transition-sensitivity matrix be computed exactly
by brute force on small instances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .graph import DependenceGraph
from . import indexing

DEFAULT_ENUMERATION_CAP = 4096

# Dependency spaces larger than this cannot be tabulated; such rewards stay
# callable-only and exact (enumeration) operations on them are unavailable.
DEP_TABLE_CAP = 200_000


class EnumerationCapExceeded(ValueError):
    pass


def _check_deps(deps, n, what):
    deps = tuple(sorted(deps))
    if len(set(deps)) != len(deps):
        raise ValueError(f"duplicate agents in {what} dependencies: {deps}")
    for j in deps:
        if not (0 <= j < n):
            raise ValueError(f"{what} dependency {j} out of range")
    return deps


class DependencyRows:
    """Row lookup shared by tables over dependency cells.

    A cell lists the states of ``state_deps`` then the actions of
    ``action_deps``, each in ascending agent order, encoded with
    ``dep_sizes`` as radices.
    """

    def row_indices(self, S, A):
        """Rows at integer state/action arrays (..., n); S and A broadcast."""
        w = indexing.radix_weights(self.dep_sizes)
        ns = len(self.state_deps)
        return (np.asarray(S)[..., list(self.state_deps)] @ w[:ns]
                + np.asarray(A)[..., list(self.action_deps)] @ w[ns:])


@dataclass(frozen=True)
class TransitionKernel(DependencyRows):
    """Distribution over one agent's next local state: ``table[row]`` is the
    distribution over S_agent at dependency cell ``row``."""

    agent: int
    state_deps: tuple
    action_deps: tuple
    dep_sizes: tuple
    table: np.ndarray

    def __post_init__(self):
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
        """Tabulate ``fn(s, a) -> distribution over S_agent``.

        ``fn`` receives full global state/action tuples but must only read the
        declared dependencies; this is verified by evaluating every dependency
        cell under two different fills of the non-dependency coordinates.
        """
        n = len(state_sizes)
        state_deps = _check_deps(state_deps, n, "state")
        action_deps = _check_deps(action_deps, n, "action")
        dep_sizes = tuple(state_sizes[j] for j in state_deps) + tuple(
            action_sizes[j] for j in action_deps
        )
        n_cells = indexing.space_size(dep_sizes)
        if n_cells > DEP_TABLE_CAP:
            raise EnumerationCapExceeded(
                f"kernel dependency space of agent {agent} has {n_cells} cells"
            )
        si = state_sizes[agent]
        ns = len(state_deps)
        table = np.zeros((n_cells, si))
        fills = (([0] * n, [0] * n),
                 ([m - 1 for m in state_sizes], [m - 1 for m in action_sizes]))
        for row, cell in enumerate(np.ndindex(*dep_sizes)):
            for k, (s, a) in enumerate(fills):
                s, a = list(s), list(a)
                for j, v in zip(state_deps, cell[:ns]):
                    s[j] = v
                for j, v in zip(action_deps, cell[ns:]):
                    a[j] = v
                dist = np.asarray(fn(tuple(s), tuple(a)), dtype=float)
                if dist.shape != (si,):
                    raise ValueError(
                        f"kernel of agent {agent} returned shape {dist.shape}, "
                        f"expected ({si},)"
                    )
                if k == 0:
                    table[row] = dist
                elif not np.array_equal(dist, table[row]):
                    raise ValueError(
                        f"kernel of agent {agent} reads outside its declared "
                        f"dependency neighborhood"
                    )
        return cls(agent, state_deps, action_deps, dep_sizes, table)

    def distribution(self, s, a):
        return self.table[self.row_indices(s, a)]


@dataclass(frozen=True)
class LocalReward(DependencyRows):
    """Local reward reading a declared neighborhood (s_{N_i}, a_{N_i}).

    A dense table over the dependency cells is kept when the dependency space
    is small; otherwise the reward stays callable-only.
    """

    agent: int
    state_deps: tuple
    action_deps: tuple
    dep_sizes: tuple
    fn: object = field(compare=False)
    table: np.ndarray = None

    @classmethod
    def from_function(cls, fn, agent, state_deps, action_deps,
                      state_sizes, action_sizes):
        n = len(state_sizes)
        state_deps = _check_deps(state_deps, n, "state")
        action_deps = _check_deps(action_deps, n, "action")
        dep_sizes = tuple(state_sizes[j] for j in state_deps) + tuple(
            action_sizes[j] for j in action_deps
        )
        n_cells = indexing.space_size(dep_sizes)
        table = None
        if n_cells <= DEP_TABLE_CAP:
            table = np.array(
                [fn(cell[: len(state_deps)], cell[len(state_deps):])
                 for cell in np.ndindex(*dep_sizes)],
                dtype=float,
            )
        return cls(agent, state_deps, action_deps, dep_sizes, fn, table)

    def value(self, s, a):
        """Reward at global state/action tuples."""
        if self.table is not None:
            return float(self.table[self.row_indices(s, a)])
        return float(self.fn(tuple(s[j] for j in self.state_deps),
                             tuple(a[j] for j in self.action_deps)))

    @property
    def max_abs(self):
        if self.table is None:
            raise EnumerationCapExceeded(
                f"reward of agent {self.agent} is not tabulated"
            )
        return float(np.max(np.abs(self.table)))


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

    @property
    def n_actions(self):
        return indexing.space_size(self.local_action_sizes)

    @property
    def n_pairs(self):
        return self.n_states * self.n_actions

    def check_enumeration_cap(self, cap=DEFAULT_ENUMERATION_CAP):
        if self.n_pairs > cap:
            raise EnumerationCapExceeded(
                f"|S||A| = {self.n_pairs} exceeds the enumeration cap {cap}"
            )

    def initial_state_distribution(self):
        """Flat distribution over global states (product of local ones)."""
        return indexing.row_kron([np.asarray(d, dtype=float)
                                  for d in self.initial_dist])


@dataclass(frozen=True)
class DecayProfile:
    """Transition-sensitivity matrix with its exponential decay certificate."""

    M: np.ndarray
    omega: float
    chi: float
    phi0: float
    contraction_ok: bool  # whether chi < 2 / gamma


def global_transition_matrix(cmdp: FactoredCMDP, policy,
                             cap=DEFAULT_ENUMERATION_CAP) -> np.ndarray:
    """State-action pair transition matrix under a policy.

    Entry ((s', a'), (s, a)) equals P(s' | s, a) * pi(a' | s'); columns are
    probability distributions. Pair indices are s_index * |A| + a_index.
    Built C-ordered over ((s, a), (s', a')) and returned as its transpose.
    """
    cmdp.check_enumeration_cap(cap)
    S, A = cmdp.n_states, cmdp.n_actions
    s_dec = indexing.decode_table(cmdp.local_state_sizes)[:, None, :]
    a_dec = indexing.decode_table(cmdp.local_action_sizes)[None, :, :]
    nxt = indexing.row_kron([kern.table[kern.row_indices(s_dec, a_dec)]
                             for kern in cmdp.kernels])  # (S, A, S')
    pi = policy.joint_action_probabilities()  # (S', A')
    return (nxt[:, :, :, None] * pi).reshape(S * A, S * A).T


def compute_decay_matrix(cmdp: FactoredCMDP, chi: float,
                         omega_max: float = 50.0,
                         tol: float = 1e-6) -> DecayProfile:
    """Brute-force transition-sensitivity matrix and its decay exponent.

    M[i, j] is the largest L1 change in agent i's kernel when agent j's
    state/action varies with all other coordinates held fixed. The returned
    omega is the largest value (up to ``tol``, capped at ``omega_max``) such
    that max_i sum_j exp(omega * d(i, j)) * M[i, j] <= chi.
    """
    n = cmdp.n_agents
    M = np.zeros((n, n))
    for i, kern in enumerate(cmdp.kernels):
        deps = kern.state_deps + kern.action_deps
        for j in set(deps):
            M[i, j] = indexing.max_pairwise_l1(
                kern.table, kern.dep_sizes,
                [p for p, dep in enumerate(deps) if dep == j])

    dist = np.array([[cmdp.graph.distance(i, j) for j in range(n)] for i in range(n)],
                    dtype=float)

    def weighted_max(omega):
        expo = np.where(M > 0, np.minimum(omega * dist, 700.0), 0.0)
        return float(np.max(np.sum(np.exp(expo) * M, axis=1)))

    if weighted_max(0.0) > chi:
        raise ValueError(
            f"no omega > 0 satisfies the decay condition: even omega=0 gives "
            f"{weighted_max(0.0):.6g} > chi={chi:.6g}"
        )
    lo, hi = 0.0, omega_max
    if weighted_max(hi) <= chi:
        omega = hi
    else:
        while hi - lo > tol:
            mid = 0.5 * (lo + hi)
            if weighted_max(mid) <= chi:
                lo = mid
            else:
                hi = mid
        omega = lo
    if omega <= 0.0:
        raise ValueError("decay exponent collapsed to zero; chi is too tight")
    return DecayProfile(
        M=M,
        omega=omega,
        chi=chi,
        phi0=math.exp(-omega),
        contraction_ok=chi < 2.0 / cmdp.gamma if cmdp.gamma > 0 else True,
    )
