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


def _raw_value(u: GeneralUtility, occ) -> float:
    if u.kind == LINEAR:
        if u.reward.shape != occ.shape:
            raise ValueError(
                f"reward table shape {u.reward.shape} does not match occupancy "
                f"shape {occ.shape}")
        return float(np.sum(u.reward * occ))
    if u.kind == ENTROPY:
        d = state_marginal(occ, u.gamma)
        safe = np.maximum(d, ENTROPY_FLOOR)
        return float(-np.sum(np.where(d > 0, d * np.log(safe), 0.0)))
    # L2_ACTION: (1-gamma)^2 / 2 * ||m||_2^2 with m(a) = sum_s lambda(s, a)
    m = occ.sum(axis=0)
    return float(0.5 * (1.0 - u.gamma) ** 2 * np.sum(m ** 2))


def utility_value(u: GeneralUtility, occ) -> float:
    """Utility value at an (S_i, A_i) occupancy table; constraints report raw
    value minus their threshold so that feasibility is uniformly
    ``value >= 0`` downstream."""
    _check(occ)
    raw = _raw_value(u, occ)
    return raw - u.threshold if u.role == CONSTRAINT else raw


def shadow_reward(u: GeneralUtility, occ) -> np.ndarray:
    """Analytic gradient of the utility w.r.t. an (S_i, A_i) occupancy table,
    an array of the same shape."""
    _check(occ)
    if u.kind == LINEAR:
        return np.array(u.reward, dtype=float)
    if u.kind == ENTROPY:
        d = state_marginal(occ, u.gamma)
        grad_d = -(np.log(np.maximum(d, ENTROPY_FLOOR)) + 1.0)
        return (1.0 - u.gamma) * np.repeat(grad_d[:, None], occ.shape[1],
                                           axis=1)
    m = occ.sum(axis=0)
    return (1.0 - u.gamma) ** 2 * np.repeat(m[None, :], occ.shape[0], axis=0)
