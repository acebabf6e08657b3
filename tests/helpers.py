"""Shared test helpers: small models, policies and constraints, one solo
rollout along the path ``train`` takes: ``Simulator.rollout`` of
``trajectory_draws`` or ``critic.td_draws``, then ``critic.td_fit``."""

import csv
import importlib.util
import math
from pathlib import Path

import numpy as np

from pdmarl import indexing
from pdmarl.critic import td_draws, td_fit
from pdmarl.envs import SyntheticLineSpec, synthetic_line
from pdmarl.graph import DependenceGraph
from pdmarl.layout import RunLayout
from pdmarl.model import FactoredCMDP, LocalReward, TransitionKernel
from pdmarl.policy import KHopPolicy
from pdmarl.sampling import Simulator, trajectory_draws
from pdmarl.utilities import ENTROPY, GeneralUtility

from oracles import as_constraint


def perfbench_workloads():
    """The benchmark's ``perfbench/workloads.py`` module, whose
    ``workload_config(name, seed)`` is each workload's config dict."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads",
        Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def rng_for(seed):
    return np.random.default_rng(np.random.SeedSequence(seed))


def chain(n, gamma=0.9):
    return synthetic_line(SyntheticLineSpec(n=n, gamma=gamma))


def single_cell_mdp(gamma):
    """One agent with one state and one action, reward 1."""
    g = DependenceGraph(1, frozenset())
    kern = TransitionKernel.from_function(lambda S, A: [1.0], 0, (0,), (0,),
                                          (1,), (1,))
    rew = LocalReward.from_function(lambda cs, ca: 1.0, 0, (0,), (),
                                    (1,), (1,))
    return FactoredCMDP(graph=g, local_state_sizes=(1,),
                        local_action_sizes=(1,), kernels=(kern,),
                        rewards=(rew,), initial_dist=(np.array([1.0]),),
                        gamma=gamma)


def uniform_policy(cmdp, kappa=1):
    return KHopPolicy.zeros(cmdp.graph, cmdp.local_state_sizes,
                            cmdp.local_action_sizes, kappa)


def entropy_constraints(cmdp, threshold):
    base = GeneralUtility(kind=ENTROPY, gamma=cmdp.gamma)
    return [as_constraint(base, threshold) for _ in range(cmdp.n_agents)]


def flat(grads):
    return np.concatenate([g.ravel() for g in grads])


def sample_batch(cmdp, policy, batch_size, horizon, rng):
    """``train``'s sampling batch, rolled out alone: states and actions of
    shape (batch_size, horizon, n)."""
    sim = Simulator(cmdp, policy)
    [batch] = sim.rollout([trajectory_draws(sim, batch_size, horizon, rng)])
    return batch


class PairLayout:
    """The stacked (S_i, A_i) tables of a ``RunLayout``, for agents of any
    sizes without a model."""

    sa_cells = RunLayout.sa_cells

    def __init__(self, gamma, state_sizes, action_sizes):
        self.gamma = gamma
        self.sa_shapes = list(zip(state_sizes, action_sizes))
        self.action_sizes = np.array(action_sizes, dtype=np.int64)
        self.sa_off = indexing.offsets([s * a for s, a in self.sa_shapes])


def reward_steps(layout, rewards, S, A):
    """Every agent's reward at the first K = len(layout.etas) steps of the
    trajectory S, A, (n, K), as ``td_fit`` takes them, from one reward per
    agent: LocalRewards are evaluated, (S_i, A_i) tables read. An (n, K)
    array is returned as it is."""
    if isinstance(rewards, np.ndarray):
        return rewards
    K = len(layout.etas)
    if isinstance(rewards[0], LocalReward):
        return np.stack([r.values(S[:K], A[:K]) for r in rewards])
    return np.concatenate([np.ravel(r) for r in rewards]).take(
        layout.sa_cells(S[:K], A[:K]).T)


def td_rollout(cmdp, policy, kappa, td, rng):
    """The layout of one of ``train``'s TD fits and its trajectory S, A,
    (K+1, n), rolled out alone."""
    layout = RunLayout(cmdp, policy, kappa, td)
    [(S, A)] = layout.simulator.rollout([td_draws(cmdp, td, rng)])
    return layout, S[0], A[0]


def td_tables(cmdp, policy, rewards, kappa, td, rng):
    """Every agent's table of one of ``train``'s TD fits, rolled out alone;
    ``rewards`` as ``reward_steps`` takes them."""
    layout, S, A = td_rollout(cmdp, policy, kappa, td, rng)
    return td_fit(layout, reward_steps(layout, rewards, S, A), S, A)


def oracle_rows(metrics_path):
    """(t, X, Y, E) of the rows of a metrics.csv whose oracle fired."""
    with open(metrics_path, newline="") as fh:
        return [(int(row["t"]), float(row["X"]), float(row["Y"]),
                 float(row["E"])) for row in csv.DictReader(fh) if row["X"]]


def oracle_values_close(rows, ref):
    """Whether oracle rows fire at the iterations of ``ref`` with values
    within the benchmark gate's tolerance (relative 1e-9, absolute 1e-12)."""
    return [r[0] for r in rows] == [r[0] for r in ref] and all(
        math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)
        for row, want in zip(rows, ref) for a, b in zip(row[1:], want[1:]))
