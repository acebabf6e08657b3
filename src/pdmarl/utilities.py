"""General utility functionals over local occupancy measures.

Three families are shipped: linear (cumulative reward), entropy of the state
marginal, and the squared L2 norm of the action marginal. Each provides a
value and an analytic gradient (the shadow reward); a central-difference
gradient is available as an independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .occupancy import LocalOccupancy, state_marginal

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

    def as_constraint(self, threshold):
        return replace(self, role=CONSTRAINT, threshold=float(threshold))


def _raw_value(u: GeneralUtility, occ: LocalOccupancy) -> float:
    if np.any(np.isnan(occ.table)):
        raise ValueError("occupancy table contains NaN")
    if u.kind == LINEAR:
        if u.reward.shape != occ.table.shape:
            raise ValueError(
                f"reward table shape {u.reward.shape} does not match occupancy "
                f"shape {occ.table.shape}")
        return float(np.sum(u.reward * occ.table))
    if u.kind == ENTROPY:
        d = state_marginal(occ, u.gamma)
        safe = np.maximum(d, ENTROPY_FLOOR)
        return float(-np.sum(np.where(d > 0, d * np.log(safe), 0.0)))
    # L2_ACTION: (1-gamma)^2 / 2 * ||m||_2^2 with m(a) = sum_s lambda(s, a)
    m = occ.table.sum(axis=0)
    return float(0.5 * (1.0 - u.gamma) ** 2 * np.sum(m ** 2))


def utility_value(u: GeneralUtility, occ: LocalOccupancy) -> float:
    """Utility value; constraints report raw value minus their threshold so
    that feasibility is uniformly ``value >= 0`` downstream."""
    raw = _raw_value(u, occ)
    return raw - u.threshold if u.role == CONSTRAINT else raw


def shadow_reward(u: GeneralUtility, occ: LocalOccupancy) -> np.ndarray:
    """Analytic gradient of the utility w.r.t. the occupancy table, an
    (S_i, A_i) array."""
    if u.kind == LINEAR:
        return np.array(u.reward, dtype=float)
    if u.kind == ENTROPY:
        d = state_marginal(occ, u.gamma)
        grad_d = -(np.log(np.maximum(d, ENTROPY_FLOOR)) + 1.0)
        return (1.0 - u.gamma) * np.repeat(
            grad_d[:, None], occ.table.shape[1], axis=1)
    m = occ.table.sum(axis=0)
    return (1.0 - u.gamma) ** 2 * np.repeat(
        m[None, :], occ.table.shape[0], axis=0)


def fd_gradient(u: GeneralUtility, occ: LocalOccupancy,
                h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient oracle, one coordinate at a time.

    Linear and l2 utilities extend smoothly to negative entries so plain
    central differences apply everywhere; the entropy marginal must stay
    nonnegative, so its minus side is clamped at zero with the denominator
    shortened to match.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    base = occ.table
    grad = np.zeros_like(base)
    clamp = u.kind == ENTROPY
    for idx in np.ndindex(base.shape):
        plus = base.copy()
        plus[idx] += h
        minus = base.copy()
        if clamp:
            minus[idx] = max(minus[idx] - h, 0.0)
        else:
            minus[idx] -= h
        lo = base[idx] - minus[idx]
        grad[idx] = (_raw_value(u, _Perturbed(plus))
                     - _raw_value(u, _Perturbed(minus))) / (h + lo)
    return grad


@dataclass(frozen=True)
class _Perturbed:
    """Occupancy stand-in that skips the nonnegativity check; only the
    finite-difference oracle may dip below zero."""

    table: np.ndarray
