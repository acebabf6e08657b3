"""Dependence graph over agents: distances and k-hop neighborhoods."""

from __future__ import annotations

from dataclasses import dataclass, field
from collections import deque

# Sentinel distance for disconnected agent pairs. Any finite radius smaller
# than this keeps disconnected agents out of each other's neighborhoods.
UNREACHABLE = 10**9


def _normalize_edges(n, edges):
    out = set()
    for (u, v) in edges:
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range for {n} agents")
        if u == v:
            raise ValueError(f"self-loop on agent {u} is not allowed")
        out.add((min(u, v), max(u, v)))
    return frozenset(out)


@dataclass(frozen=True)
class DependenceGraph:
    """Undirected graph on agents 0..n-1 with precomputed BFS distances."""

    n: int
    edges: frozenset = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("graph needs at least one agent")
        object.__setattr__(self, "edges", _normalize_edges(self.n, self.edges))
        adj = [[] for _ in range(self.n)]
        for (u, v) in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        dist = [self._bfs(adj, i) for i in range(self.n)]
        object.__setattr__(self, "_dist", tuple(tuple(row) for row in dist))

    def _bfs(self, adj, src):
        dist = [UNREACHABLE] * self.n
        dist[src] = 0
        queue = deque([src])
        while queue:
            u = queue.popleft()
            for v in adj[u]:
                if dist[v] == UNREACHABLE:
                    dist[v] = dist[u] + 1
                    queue.append(v)
        return dist

    def neighbors(self, i):
        self._check_agent(i)
        return tuple(j for j in range(self.n) if self._dist[i][j] == 1)

    def _check_agent(self, i):
        if not (0 <= i < self.n):
            raise ValueError(f"agent index {i} out of range [0, {self.n})")


def khop_neighborhood(graph: DependenceGraph, i: int, kappa: int) -> tuple:
    """Agents within graph distance kappa of agent i, sorted ascending.

    Always contains i itself and is monotone nondecreasing in kappa.
    """
    graph._check_agent(i)
    if kappa < 0:
        raise ValueError("kappa must be nonnegative")
    return tuple(j for j, d in enumerate(graph._dist[i]) if d <= kappa)


def line_graph(n: int) -> DependenceGraph:
    """Path graph 0 - 1 - ... - (n-1)."""
    return DependenceGraph(n, frozenset((i, i + 1) for i in range(n - 1)))
