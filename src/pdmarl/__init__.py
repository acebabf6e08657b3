"""Scalable primal-dual actor-critic for networked constrained MDPs with
general utilities, truncated local policies, and exact small-instance oracles."""

__version__ = "0.1.0"

from .graph import DependenceGraph, khop_neighborhood, line_graph
from .model import (FactoredCMDP, TransitionKernel, LocalReward,
                    EnumerationCapExceeded)
from .policy import KHopPolicy, save_policy, load_policy
from .sampling import Simulator
from .occupancy import ExactSolve, estimate_local_occupancies, state_marginal
from .utilities import (GeneralUtility, UtilityPass,
                        LINEAR, ENTROPY, L2_ACTION, OBJECTIVE, CONSTRAINT)
from .critic import TDConfig, TruncatedQTable, default_td_config
from .primal_dual import (StepSizes, TrainConfig, TrainState, NumericAbort,
                          dual_update, truncated_pg_estimate, policy_ascent,
                          exact_lagrangian_gradient, fosp_metrics, train)
from .envs import (SyntheticLineSpec, WirelessGridSpec, synthetic_line,
                   wireless_grid)
from .config import ExperimentConfig, ConfigError, parse_config, load_config
