"""Tabular softmax policies over k-hop neighborhood states."""

from __future__ import annotations

import csv
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


class TableStack:
    """Where every agent's (rows, A_i) table sits in one flat array: agent
    i's is the slice ``off[i]:off[i + 1]``, row-major. ``by_width`` pairs
    each action-space width with the indices of the entries of the tables
    of that width."""

    def __init__(self, shapes):
        self.shapes = tuple(shapes)
        sizes = [r * a for r, a in self.shapes]
        self.off = indexing.offsets(sizes)
        widths = np.repeat([a for _, a in self.shapes], sizes)
        self.by_width = [(width, np.flatnonzero(widths == width))
                         for width in sorted({a for _, a in self.shapes})]

    def split(self, flat) -> tuple:
        """Every agent's table as a view of the stacked array ``flat``."""
        return tuple(indexing.split(flat, self.shapes))

    def join(self, tables) -> np.ndarray:
        """Per-agent tables of these shapes as one flat float array."""
        if len(tables) != len(self.shapes):
            raise ValueError(f"need one table per agent, got {len(tables)}")
        for i, (tab, shape) in enumerate(zip(tables, self.shapes)):
            if np.shape(tab) != shape:
                raise ValueError(f"table of agent {i} has shape "
                                 f"{np.shape(tab)}, expected {shape}")
        return np.concatenate([np.ravel(t) for t in tables]).astype(
            float, copy=False)


@dataclass(frozen=True)
class KHopPolicy:
    """Per-agent softmax parameter tables indexed by neighborhood state.

    Parameters live in the box [-theta_bound, theta_bound]; rows are indexed
    by the mixed-radix encoding of the neighborhood state (ascending agent
    order), columns by the local action. Every agent's table is stored in
    one read-only flat array, ``theta_flat``, placed by ``stack``; ``theta``
    is the per-agent views of it.
    """

    graph: DependenceGraph
    state_sizes: tuple
    action_sizes: tuple
    kappa: int
    theta_bound: float
    theta_flat: np.ndarray  # every agent's table, placed by ``stack``
    stack: TableStack = field(compare=False, repr=False)
    # every agent's k-hop neighborhood: found from graph and kappa when not
    # given, and handed on by with_flat, so a policy update finds none
    neighborhoods: tuple = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if self.neighborhoods is None:
            object.__setattr__(self, "neighborhoods", tuple(
                khop_neighborhood(self.graph, i, self.kappa)
                for i in range(self.graph.n)))
        if self.theta_flat.shape != (self.stack.off[-1],):
            raise ValueError(f"theta has shape {self.theta_flat.shape}, "
                             f"expected ({self.stack.off[-1]},)")
        if np.abs(self.theta_flat).max(initial=0.0) > self.theta_bound + 1e-12:
            raise ValueError("theta leaves the parameter box")

    # -- construction ------------------------------------------------------

    @classmethod
    def zeros(cls, graph, state_sizes, action_sizes, kappa, theta_bound=50.0):
        stack = TableStack(table_shapes(graph, state_sizes, action_sizes,
                                        kappa))
        flat = np.zeros(stack.off[-1])
        flat.flags.writeable = False
        return cls(graph, tuple(state_sizes), tuple(action_sizes), kappa,
                   float(theta_bound), flat, stack)

    @classmethod
    def random(cls, graph, state_sizes, action_sizes, kappa, rng,
               scale=1.0, theta_bound=50.0):
        """Normal entries of standard deviation ``scale``, drawn in
        ``theta_flat`` order and clamped to the box."""
        base = cls.zeros(graph, state_sizes, action_sizes, kappa, theta_bound)
        return base.with_flat(rng.normal(scale=scale,
                                         size=base.theta_flat.shape))

    def with_flat(self, flat):
        """Policy with the stacked parameters ``flat`` clamped to the
        parameter box (the Euclidean projection onto it)."""
        clipped = np.clip(flat, -self.theta_bound, self.theta_bound)
        clipped.flags.writeable = False
        return KHopPolicy(self.graph, self.state_sizes, self.action_sizes,
                          self.kappa, self.theta_bound, clipped, self.stack,
                          self.neighborhoods)

    def with_theta(self, tables):
        """Policy with the given per-agent tables, clamped as by
        ``with_flat``."""
        return self.with_flat(self.stack.join(tables))

    # -- indexing ----------------------------------------------------------

    def neighborhood(self, i):
        return self.neighborhoods[i]

    def nbhd_state_sizes(self, i):
        return tuple(self.state_sizes[j] for j in self.neighborhood(i))

    def row_weights(self) -> np.ndarray:
        """(n, n) float64 weights whose column i is agent i's row encoding:
        ``indexing.table_rows(S, row_weights())`` is every agent's table row
        at once."""
        return indexing.weight_matrix(self.graph.n, [
            (self.neighborhood(i), self.nbhd_state_sizes(i))
            for i in range(self.graph.n)])

    @cached_property
    def theta(self) -> tuple:
        """Every agent's (n_nbhd_states, A_i) table, a view of
        ``theta_flat``."""
        return self.stack.split(self.theta_flat)

    # -- distributions -----------------------------------------------------

    @cached_property
    def probs(self) -> np.ndarray:
        """Every agent's action distributions, stacked as ``theta_flat``;
        computed once per policy and read-only. The rows of each
        action-space width take one softmax, which, being row-wise, gives
        the floats of one softmax per table. Rows are never padded to a
        common width: padding can move a row sum in its last bit."""
        out = np.empty_like(self.theta_flat)
        for width, idx in self.stack.by_width:
            out[idx] = _softmax_rows(
                self.theta_flat[idx].reshape(-1, width)).ravel()
        out.flags.writeable = False
        return out

    @cached_property
    def prob_tables(self) -> tuple:
        """Every agent's (n_nbhd_states, A_i) table of ``probs``, a view."""
        return self.stack.split(self.probs)


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
        # the rows csv.writer wrote, CRLF-terminated: no field needs quoting
        fh.write("agent,state,action,value\r\n")
        for i, tab in enumerate(policy.theta):
            # each row's "agent,state," head formatted once
            fh.write("".join([f"{head}{b},{v!r}\r\n"
                              for e, row in enumerate(tab.tolist())
                              for head in [f"{i},{e},"]
                              for b, v in enumerate(row)]))


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
