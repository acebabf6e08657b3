"""Tabular softmax policies over k-hop neighborhood states."""

from __future__ import annotations

import csv
from dataclasses import dataclass

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

    def __post_init__(self):
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
        clipped = tuple(np.clip(np.asarray(t, dtype=float),
                                -self.theta_bound, self.theta_bound)
                        for t in tables)
        return KHopPolicy(self.graph, self.state_sizes, self.action_sizes,
                          self.kappa, self.theta_bound, clipped)

    # -- indexing ----------------------------------------------------------

    def neighborhood(self, i):
        return khop_neighborhood(self.graph, i, self.kappa)

    def nbhd_state_sizes(self, i):
        return tuple(self.state_sizes[j] for j in self.neighborhood(i))

    def n_nbhd_states(self, i):
        return indexing.space_size(self.nbhd_state_sizes(i))

    def encode_nbhd_state(self, i, s_nbhd):
        return indexing.encode(s_nbhd, self.nbhd_state_sizes(i))

    def nbhd_rows(self, i, S):
        """Table rows of agent i at integer global-state arrays (..., n)."""
        return (S[..., list(self.neighborhood(i))]
                @ indexing.radix_weights(self.nbhd_state_sizes(i)))

    def nbhd_state_from_global(self, i, s):
        return tuple(s[j] for j in self.neighborhood(i))

    # -- distributions -----------------------------------------------------

    def action_probabilities(self, i, s_nbhd) -> np.ndarray:
        """Softmax over actions for one neighborhood state (stable form)."""
        row = self.theta[i][self.encode_nbhd_state(i, s_nbhd)]
        return _softmax_rows(row)

    def prob_table(self, i) -> np.ndarray:
        """All action distributions of agent i, shape (n_nbhd_states, A_i)."""
        return _softmax_rows(self.theta[i])

    def score(self, i, s_nbhd, a_i) -> np.ndarray:
        """Gradient of log pi_i(a_i | s_nbhd) w.r.t. the theta_i table.

        Nonzero only in the row of s_nbhd: entry b is 1{b == a_i} - pi(b).
        """
        if not (0 <= a_i < self.action_sizes[i]):
            raise ValueError(f"action {a_i} out of range for agent {i}")
        out = np.zeros_like(self.theta[i])
        row = self.encode_nbhd_state(i, s_nbhd)
        out[row] = -self.action_probabilities(i, s_nbhd)
        out[row, a_i] += 1.0
        return out

    def log_joint_probability(self, s, a) -> float:
        """Log probability of the global action under policy factorization."""
        total = 0.0
        for i in range(self.graph.n):
            probs = self.action_probabilities(i, self.nbhd_state_from_global(i, s))
            total += float(np.log(probs[a[i]]))
        return total

    def joint_action_probabilities(self) -> np.ndarray:
        """Matrix pi(a | s) over global states/actions (enumeration only)."""
        s_dec = indexing.decode_table(self.state_sizes)
        return indexing.row_kron([self.prob_table(i)[self.nbhd_rows(i, s_dec)]
                                  for i in range(self.graph.n)])

    # -- updates -----------------------------------------------------------

    def project_params(self, proposed) -> "KHopPolicy":
        """Euclidean projection onto the parameter box (coordinatewise clamp)."""
        return self.with_theta(proposed)


def induced_khop_policy(policy: KHopPolicy, kappa: int, anchor_state) -> KHopPolicy:
    """Restrict a wider policy to radius ``kappa`` by freezing distant states.

    Each agent's new table reads only the states within distance kappa; the
    states of the remaining agents in its original neighborhood are fixed at
    ``anchor_state``.
    """
    if kappa > policy.kappa:
        raise ValueError("induced policy must have a smaller or equal radius")
    new = KHopPolicy.zeros(policy.graph, policy.state_sizes, policy.action_sizes,
                           kappa, policy.theta_bound)
    anchor = np.asarray(anchor_state, dtype=np.int64)
    if np.any(anchor < 0) or np.any(anchor >= policy.state_sizes):
        raise ValueError(f"anchor state {tuple(anchor_state)} out of range")
    tables = []
    for i in range(policy.graph.n):
        # the new neighborhood enumerated, every other agent at the anchor
        s = np.tile(anchor, (new.n_nbhd_states(i), 1))
        s[:, list(new.neighborhood(i))] = indexing.decode_table(
            new.nbhd_state_sizes(i))
        tables.append(policy.theta[i][policy.nbhd_rows(i, s)])
    return new.with_theta(tables)


def policy_state_sensitivity(policy: KHopPolicy, kappa: int) -> float:
    """Largest L1 change of any local policy when states outside the
    distance-``kappa`` ball vary (brute force over neighborhood states)."""
    worst = 0.0
    for i in range(policy.graph.n):
        inner = set(khop_neighborhood(policy.graph, i, kappa))
        outer = [p for p, j in enumerate(policy.neighborhood(i)) if j not in inner]
        worst = max(worst, indexing.max_pairwise_l1(
            policy.prob_table(i), policy.nbhd_state_sizes(i), outer))
    return worst


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
            for row in range(tab.shape[0]):
                for a in range(tab.shape[1]):
                    writer.writerow([i, row, a, repr(float(tab[row, a]))])


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
