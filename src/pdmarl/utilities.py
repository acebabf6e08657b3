"""General utility functionals over local occupancy measures.

A local occupancy is an agent's (S_i, A_i) array of discounted visitation
weights. Three families are shipped: linear (cumulative reward), entropy of
the state marginal, and the squared L2 norm of the action marginal. Each
provides a value and an analytic gradient (the shadow reward), both of which
reject a table with a NaN or a negative entry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .occupancy import state_marginal
from . import indexing

LINEAR = "linear"
ENTROPY = "entropy"
L2_ACTION = "l2_action"

OBJECTIVE = "objective"
CONSTRAINT = "constraint"

# State marginals are clamped below at this value before taking logarithms;
# the entropy gradient diverges at zero mass.
ENTROPY_FLOOR = 1e-8


@dataclass(frozen=True)
class GeneralUtility:
    kind: str
    role: str = OBJECTIVE
    reward: np.ndarray = None  # linear kind only, shape (S_i, A_i)
    threshold: float = 0.0
    gamma: float = 0.0  # entropy / l2 kinds

    def __post_init__(self):
        if self.kind not in (LINEAR, ENTROPY, L2_ACTION):
            raise ValueError(f"unknown utility kind {self.kind!r}")
        if self.role not in (OBJECTIVE, CONSTRAINT):
            raise ValueError(f"unknown utility role {self.role!r}")
        if self.kind == LINEAR:
            if self.reward is None:
                raise ValueError("linear utility requires a reward table")
        if not np.isfinite(self.threshold):
            raise ValueError("threshold must be finite")


def _check(occ):
    """Reject an occupancy table with a NaN or a negative entry."""
    if not (occ >= 0).all():
        raise ValueError("occupancy table contains NaN" if np.isnan(occ).any()
                         else "occupancy entries must be nonnegative")


def evaluate(kind, gamma, reward, occ):
    """Raw values (k,) and shadow rewards (k, S_i, A_i) of k utilities of one
    kind and gamma at stacked (k, S_i, A_i) occupancies (and, if linear,
    reward tables): the one implementation of each formula. Each sum runs
    along an axis of the stack, so a table's terms add as in its own
    reduction. Entries are not checked."""
    if kind == LINEAR:
        return np.sum((reward * occ).reshape(len(occ), -1), axis=1), reward
    if kind == ENTROPY:
        d = state_marginal(occ, gamma)
        log = np.log(np.maximum(d, ENTROPY_FLOOR))
        value = -np.sum(np.where(d > 0, d * log, 0.0), axis=1)
        return value, (1.0 - gamma) * np.broadcast_to(
            -(log + 1.0)[..., None], occ.shape)
    # L2_ACTION: (1-gamma)^2 / 2 * ||m||_2^2 with m(a) = sum_s lambda(s, a)
    m = occ.sum(axis=1)
    return (0.5 * (1.0 - gamma) ** 2 * np.sum(m ** 2, axis=1),
            (1.0 - gamma) ** 2 * np.broadcast_to(m[:, None], occ.shape))


class UtilityPass:
    """Every agent's utility of ``utils`` at its (S_i, A_i) occupancy table
    of ``shapes``, the tables stacked flat (``indexing.split``): one
    ``evaluate`` per group of agents alike in shape, kind and gamma. A call
    returns the values, constraints minus their threshold so that
    feasibility is uniformly ``value >= 0``, and the stacked shadow rewards."""

    def __init__(self, utils, shapes):
        off = indexing.offsets([s * a for s, a in shapes])
        groups = {}
        for i, (u, shape) in enumerate(zip(utils, shapes)):
            if u.kind == LINEAR and np.shape(u.reward) != tuple(shape):
                raise ValueError(f"reward table shape {np.shape(u.reward)} "
                                 f"does not match occupancy shape {shape}")
            groups.setdefault((tuple(shape), u.kind, u.gamma), []).append(i)
        self.groups = [
            (agents, off[agents, None] + np.arange(shape[0] * shape[1]),
             shape, kind, gamma, np.array([utils[i].reward for i in agents],
                                          dtype=float)
             if kind == LINEAR else None)
            for (shape, kind, gamma), agents in groups.items()]
        self.shift = np.array([u.threshold if u.role == CONSTRAINT else 0.0
                               for u in utils])

    def __call__(self, occ):
        _check(occ)
        values, shadow = np.empty(len(self.shift)), np.empty_like(occ)
        for agents, cells, shape, kind, gamma, reward in self.groups:
            v, r = evaluate(kind, gamma, reward,
                            occ[cells].reshape((len(agents),) + shape))
            values[agents] = v
            shadow[cells] = r.reshape(len(agents), -1)
        return values - self.shift, shadow


def utility_value(u: GeneralUtility, occ) -> float:
    """Utility value at an (S_i, A_i) occupancy table (``UtilityPass``)."""
    return float(UtilityPass([u], [np.shape(occ)])(np.ravel(occ))[0][0])
