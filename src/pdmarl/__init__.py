"""Scalable primal-dual actor-critic for networked constrained MDPs with
general utilities, truncated local policies, and exact small-instance oracles."""

__version__ = "0.1.0"

from .graph import DependenceGraph, khop_neighborhood, line_graph
from .model import (FactoredCMDP, TransitionKernel, LocalReward, DecayProfile,
                    EnumerationCapExceeded, compute_decay_matrix)
from .policy import KHopPolicy, induced_khop_policy, save_policy, load_policy
from .sampling import Simulator, TrajectoryBatch, sample_trajectories
from .occupancy import (LocalOccupancy, GlobalOccupancy,
                        estimate_local_occupancy, exact_global_occupancy,
                        marginalize, state_marginal)
from .utilities import (GeneralUtility, ShadowReward, utility_value,
                        shadow_reward, LINEAR, ENTROPY, L2_ACTION,
                        OBJECTIVE, CONSTRAINT)
from .critic import TDConfig, TruncatedQTable, default_td_config, td_evaluate
from .primal_dual import (DualVariable, StepSizes, TrainConfig, TrainState,
                          NumericAbort, dual_update, truncated_pg_estimate,
                          policy_ascent, exact_lagrangian_gradient,
                          exact_truncated_pg, fosp_metrics, train)
from .envs import (SyntheticLineSpec, WirelessGridSpec, synthetic_line,
                   wireless_grid)
from .config import ExperimentConfig, ConfigError, parse_config, load_config
