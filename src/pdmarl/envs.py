"""Benchmark environments: a line of binary agents with one-directional
coupling, and a grid of wireless users contending for shared access points."""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np
from numpy.random import SeedSequence, default_rng

from .graph import DependenceGraph, line_graph
from .model import DEP_TABLE_CAP, FactoredCMDP, TransitionKernel, LocalReward

# Most agents an env may have, checked before anything is allocated: a run
# holds the graph's n x n distance table and (2n + 1, n) int64 weight
# matrices (``indexing.weight_matrix``), 16 MB each at this cap.
MAX_AGENTS = 1000


@dataclass(frozen=True)
class SyntheticLineSpec:
    n: int
    gamma: float
    reward_head: float = 1.0
    reward_rest: float = 0.1

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("need at least 2 agents")
        if self.n > MAX_AGENTS:
            raise ValueError(f"env.n {self.n} is above the cap of "
                             f"{MAX_AGENTS} agents")
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")


def synthetic_line(spec: SyntheticLineSpec) -> FactoredCMDP:
    """Chain of binary agents.

    Agent 0 copies its right neighbor's state. The last agent's next state
    equals its action. A middle agent reaches state 1 with probability 1 when
    it acts and its right neighbor is already at 1, with probability 0.8 when
    it acts alone, and never otherwise. Only state 1 is rewarded: the head
    agent gets ``reward_head``, everyone else ``reward_rest``. The chain
    starts at the all-zero state.
    """
    n = spec.n
    state_sizes = (2,) * n
    action_sizes = (2,) * n

    def binary(p1):
        """Distributions (1 - p1, p1) over a binary next state."""
        return np.stack([1.0 - p1, p1], -1)

    kernels = []
    for i in range(n):
        if i == 0:
            fn = lambda S, A: binary(np.where(S[:, 0] == 1, 1.0, 0.0))
            sdeps, adeps = (i + 1,), ()
        elif i == n - 1:
            fn = lambda S, A: binary(np.where(A[:, 0] == 1, 1.0, 0.0))
            sdeps, adeps = (), (i,)
        else:
            fn = lambda S, A: binary(np.where(
                A[:, 0] == 1, np.where(S[:, 0] == 1, 1.0, 0.8), 0.0))
            sdeps, adeps = (i + 1,), (i,)
        kernels.append(TransitionKernel.from_function(
            fn, i, sdeps, adeps, state_sizes, action_sizes))

    rewards = []
    for i in range(n):
        r1 = spec.reward_head if i == 0 else spec.reward_rest
        rewards.append(LocalReward.from_function(
            lambda S, A, r1=r1: np.where(S[..., 0] == 1, r1, 0.0),
            i, (i,), (), state_sizes, action_sizes))

    initial = tuple(np.array([1.0, 0.0]) for _ in range(n))
    return FactoredCMDP(graph=line_graph(n),
                        local_state_sizes=state_sizes,
                        local_action_sizes=action_sizes,
                        kernels=tuple(kernels), rewards=tuple(rewards),
                        initial_dist=initial, gamma=spec.gamma)


@dataclass(frozen=True)
class WirelessGridSpec:
    """side^2 users on a grid, (side-1)^2 access points at the cell centers.

    ``p`` (per-user packet arrival) and ``q`` (per-point success) default to
    uniform draws from [0.3, 0.9] seeded by ``seed``, so an instance is fully
    determined by (side, deadline, seed).
    """

    side: int
    deadline: int
    gamma: float
    seed: int = 0
    p: tuple = None
    q: tuple = None

    def __post_init__(self):
        if self.side < 2 or self.deadline < 1:
            raise ValueError("need side >= 2 and deadline >= 1")
        if self.side ** 2 > MAX_AGENTS:
            raise ValueError(f"env.side {self.side} gives {self.side ** 2} "
                             f"users, above the cap of {MAX_AGENTS} agents")
        # a user's kernel reads its queue and its action: idle or one of up
        # to four access points, two per grid axis
        cells = 2 ** self.deadline * (1 + min(self.side - 1, 2) ** 2)
        if cells > DEP_TABLE_CAP:
            raise ValueError(
                f"env.deadline {self.deadline} gives kernels of {cells} "
                f"dependency cells, above the cap of {DEP_TABLE_CAP}")
        if not (0.0 <= self.gamma < 1.0):
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")
        for name, vals, m in (("p", self.p, self.side ** 2),
                              ("q", self.q, (self.side - 1) ** 2)):
            if vals is not None:
                if len(vals) != m:
                    raise ValueError(f"{name} must have {m} entries")
                if not all(isinstance(v, numbers.Real) and 0.0 < v < 1.0
                           for v in vals):
                    raise ValueError(f"{name} entries must be numbers in (0, 1)")

    @property
    def n_users(self):
        return self.side ** 2

    @property
    def n_points(self):
        return (self.side - 1) ** 2

    def probabilities(self):
        p, q = self.p, self.q
        if p is None or q is None:
            rng = default_rng(SeedSequence(self.seed))
            drawn_p = 0.3 + 0.6 * rng.random(self.n_users)
            drawn_q = 0.3 + 0.6 * rng.random(self.n_points)
            p = p if p is not None else tuple(drawn_p)
            q = q if q is not None else tuple(drawn_q)
        return np.asarray(p, dtype=float), np.asarray(q, dtype=float)


def _grid_access(side):
    """Per-user sorted list of reachable access points.

    User (r, c) sits at a lattice node; point (u, v) serves the four corner
    users of its cell, so user (r, c) reaches points with u in {r-1, r} and
    v in {c-1, c} that exist.
    """
    access = []
    for r in range(side):
        for c in range(side):
            pts = []
            for u in (r - 1, r):
                for v in (c - 1, c):
                    if 0 <= u < side - 1 and 0 <= v < side - 1:
                        pts.append(u * (side - 1) + v)
            access.append(tuple(sorted(pts)))
    return access


def wireless_grid(spec: WirelessGridSpec) -> FactoredCMDP:
    """Deadline-constrained random access.

    Local state is a d-bit queue: bit b set means a packet with b+1 steps of
    deadline left. Action 0 is idle; action k >= 1 transmits the
    earliest-deadline packet to the agent's k-th access point (a transmission
    from an empty queue is a no-op). The transmitted packet leaves the queue
    whether or not the point accepts it; the reward is the expected success
    q_y, zeroed when any other user with a nonempty queue transmits to the
    same point. Queue update order: remove the transmitted packet, decrement
    every deadline (a deadline-1 packet not sent expires), then a new packet
    arrives at deadline d with probability p_i. Queues start empty.
    """
    n = spec.n_users
    d = spec.deadline
    p, q = spec.probabilities()
    access = _grid_access(spec.side)
    state_sizes = (2 ** d,) * n
    action_sizes = tuple(1 + len(access[i]) for i in range(n))

    edges = set()
    users_of_point = [[] for _ in range(spec.n_points)]
    for i in range(n):
        for y in access[i]:
            users_of_point[y].append(i)
    for users in users_of_point:
        for ii in range(len(users)):
            for jj in range(ii + 1, len(users)):
                edges.add((users[ii], users[jj]))
    graph = DependenceGraph(n=n, edges=tuple(sorted(edges)))

    top_bit = 1 << (d - 1)

    def kernel_fn(S, A, i):
        """Next-queue distributions of user i at its (queue, action) cells."""
        # a transmission drops the earliest (lowest set) bit, a no-op on an
        # empty queue; then deadlines tick down and deadline-1 packets expire
        queue = np.where(A[:, 0] > 0, S[:, 0] & (S[:, 0] - 1), S[:, 0]) >> 1
        rows = np.arange(len(queue))
        dist = np.zeros((len(queue), 2 ** d))
        dist[rows, queue | top_bit] += p[i]
        dist[rows, queue] += 1.0 - p[i]
        return dist

    kernels = tuple(
        TransitionKernel.from_function(
            lambda S, A, i=i: kernel_fn(S, A, i), i, (i,), (i,),
            state_sizes, action_sizes)
        for i in range(n)
    )

    # point[j, a]: the access point of user j's action a, -1 for idle
    point = np.full((n, max(action_sizes)), -1)
    for j in range(n):
        point[j, 1: action_sizes[j]] = access[j]

    def reward_fn(S, A, deps, k):
        """User deps[k] earns q_y unless another transmitting user of deps
        picked the same point y; idling or an empty queue earns nothing."""
        y = point[deps, A]
        sending = (S > 0) & (y >= 0)
        clash = (sending & (y == y[..., k, None])).sum(axis=-1) > 1
        return np.where(sending[..., k] & ~clash, q[y[..., k]], 0.0)

    rewards = []
    for i in range(n):
        deps = tuple(sorted({i} | set(graph.neighbors(i))))
        rewards.append(LocalReward.from_function(
            lambda S, A, deps=deps, k=deps.index(i): reward_fn(S, A, deps, k),
            i, deps, deps, state_sizes, action_sizes))

    initial = []
    for i in range(n):
        dist = np.zeros(2 ** d)
        dist[0] = 1.0
        initial.append(dist)
    return FactoredCMDP(graph=graph, local_state_sizes=state_sizes,
                        local_action_sizes=action_sizes, kernels=kernels,
                        rewards=tuple(rewards), initial_dist=tuple(initial),
                        gamma=spec.gamma)
