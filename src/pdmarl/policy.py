"""Tabular softmax policies over k-hop neighborhood states."""

from __future__ import annotations

import csv
import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .graph import DependenceGraph, khop_neighborhood
from . import indexing

MAX_TABLE_ENTRIES = 10**6


def table_shapes(graph, state_sizes, action_sizes, kappa) -> list:
    """Shape (n_nbhd_states, A_i) of each agent's theta table at radius
    kappa; raises ValueError above MAX_TABLE_ENTRIES entries."""
    shapes = []
    for i in range(graph.n):
        nbhd = khop_neighborhood(graph, i, kappa)
        shape = (indexing.space_size([state_sizes[j] for j in nbhd]),
                 action_sizes[i])
        if shape[0] * shape[1] > MAX_TABLE_ENTRIES:
            raise ValueError(
                f"policy table of agent {i} would have {shape[0] * shape[1]} "
                f"entries, above the cap of {MAX_TABLE_ENTRIES}")
        shapes.append(shape)
    return shapes


def _softmax_rows(theta):
    z = theta - theta.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


@dataclass(frozen=True)
class KHopPolicy:
    """Per-agent softmax parameter tables indexed by neighborhood state.

    Parameters live in the box [-theta_bound, theta_bound]; rows are indexed
    by the mixed-radix encoding of the neighborhood state (ascending agent
    order), columns by the local action.
    """

    graph: DependenceGraph
    state_sizes: tuple
    action_sizes: tuple
    kappa: int
    theta_bound: float
    theta: tuple  # per-agent arrays of shape (n_nbhd_states, A_i)
    # every agent's k-hop neighborhood: found from graph and kappa when not
    # given, and handed on by with_theta, so a policy update finds none
    neighborhoods: tuple = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.neighborhoods is None:
            object.__setattr__(self, "neighborhoods", tuple(
                khop_neighborhood(self.graph, i, self.kappa)
                for i in range(self.graph.n)))
        for i, tab in enumerate(self.theta):
            expect = (self.n_nbhd_states(i), self.action_sizes[i])
            if tab.shape != expect:
                raise ValueError(
                    f"theta table of agent {i} has shape {tab.shape}, expected {expect}"
                )
            if np.any(np.abs(tab) > self.theta_bound + 1e-12):
                raise ValueError(f"theta of agent {i} leaves the parameter box")

    # -- construction ------------------------------------------------------

    @classmethod
    def zeros(cls, graph, state_sizes, action_sizes, kappa, theta_bound=50.0):
        tables = tuple(np.zeros(shape) for shape in
                       table_shapes(graph, state_sizes, action_sizes, kappa))
        return cls(graph, tuple(state_sizes), tuple(action_sizes), kappa,
                   float(theta_bound), tables)

    @classmethod
    def random(cls, graph, state_sizes, action_sizes, kappa, rng,
               scale=1.0, theta_bound=50.0):
        base = cls.zeros(graph, state_sizes, action_sizes, kappa, theta_bound)
        tables = tuple(
            np.clip(rng.normal(scale=scale, size=t.shape), -theta_bound, theta_bound)
            for t in base.theta
        )
        return base.with_theta(tables)

    def with_theta(self, tables):
        """Policy with the given tables clamped to the parameter box (the
        Euclidean projection onto it)."""
        clipped = tuple(np.clip(np.asarray(t, dtype=float),
                                -self.theta_bound, self.theta_bound)
                        for t in tables)
        return KHopPolicy(self.graph, self.state_sizes, self.action_sizes,
                          self.kappa, self.theta_bound, clipped,
                          self.neighborhoods)

    # -- indexing ----------------------------------------------------------

    def neighborhood(self, i):
        return self.neighborhoods[i]

    def nbhd_state_sizes(self, i):
        return tuple(self.state_sizes[j] for j in self.neighborhood(i))

    def n_nbhd_states(self, i):
        return indexing.space_size(self.nbhd_state_sizes(i))

    def row_weights(self) -> np.ndarray:
        """(n, n) int64 weights whose column i is agent i's row encoding:
        ``S @ row_weights()`` is every agent's table row at once."""
        return indexing.weight_matrix(self.graph.n, [
            (self.neighborhood(i), self.nbhd_state_sizes(i))
            for i in range(self.graph.n)])

    # -- distributions -----------------------------------------------------

    @cached_property
    def prob_tables(self) -> tuple:
        """Every agent's action distributions, (n_nbhd_states, A_i) each;
        computed once per policy and read-only. Tables of equal width take
        one softmax over their stacked rows, which, being row-wise, gives the
        floats of one softmax per table."""
        tables = [None] * len(self.theta)
        for width in set(self.action_sizes):
            agents = [i for i, a in enumerate(self.action_sizes) if a == width]
            probs = _softmax_rows(np.concatenate([self.theta[i]
                                                  for i in agents]))
            probs.flags.writeable = False
            bounds = np.cumsum([len(self.theta[i]) for i in agents[:-1]])
            for i, t in zip(agents, np.split(probs, bounds)):
                tables[i] = t
        return tuple(tables)


# -- checkpoint format -----------------------------------------------------

def save_policy(policy: KHopPolicy, path):
    """Flat (agent, encoded neighborhood state, action, value) records."""
    edges = ";".join(f"{u}-{v}" for u, v in sorted(policy.graph.edges))
    with open(path, "w", newline="") as fh:
        fh.write(
            "# pdmarl-policy v1"
            f" kappa={policy.kappa}"
            f" theta_bound={policy.theta_bound!r}"
            f" state_sizes={','.join(map(str, policy.state_sizes))}"
            f" action_sizes={','.join(map(str, policy.action_sizes))}"
            f" edges={edges}\n"
        )
        writer = csv.writer(fh)
        writer.writerow(["agent", "state", "action", "value"])
        for i, tab in enumerate(policy.theta):
            rows, acts = np.indices(tab.shape).reshape(2, -1).tolist()
            writer.writerows(zip(itertools.repeat(i), rows, acts,
                                 map(repr, tab.ravel().tolist())))


def load_policy(path) -> KHopPolicy:
    with open(path) as fh:
        header = fh.readline().strip()
        if not header.startswith("# pdmarl-policy v1"):
            raise ValueError(f"unrecognized policy checkpoint header: {header!r}")
        meta = dict(tok.split("=", 1) for tok in header.split()[3:])
        state_sizes = tuple(int(x) for x in meta["state_sizes"].split(","))
        action_sizes = tuple(int(x) for x in meta["action_sizes"].split(","))
        edges = frozenset(
            tuple(int(x) for x in e.split("-"))
            for e in meta["edges"].split(";") if e
        )
        graph = DependenceGraph(len(state_sizes), edges)
        policy = KHopPolicy.zeros(graph, state_sizes, action_sizes,
                                  int(meta["kappa"]), float(meta["theta_bound"]))
        tables = [t.copy() for t in policy.theta]
        reader = csv.reader(fh)
        next(reader)  # column header
        for agent, row, a, value in reader:
            tables[int(agent)][int(row), int(a)] = float(value)
    return policy.with_theta(tables)
