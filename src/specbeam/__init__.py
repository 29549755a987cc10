"""Joint spectrum and beam-direction planning over multi-band planar arrays.

Builds a discrete belief-state planning problem from physical parameters
(road geometry, planar-array channels, order-2 Markov mobility), solves it
by point-based value iteration, and evaluates the resulting planner against
oracle and single-frequency baselines by Monte Carlo simulation.
"""

import types as _types

from .arrays import (ApertureSpec, BandConfig, PropagationConstants,
                     aligned_gain, dirichlet_ratio_abs, elements_for_band,
                     expected_rate, gain, make_band, normalized_angles,
                     observation_probs)
from .config import ConfigError, ExperimentConfig, default_config_dict
from .geometry import CellCoord, SceneConfig, build_road, cell_angles, containing_cell
from .mobility import (MobilityModel, StateSpace, enumerate_states,
                       successor_distribution, transition_matrix)
from .pbvi import (Policy, backup_stage, default_epsilon, expand_beliefs,
                   initial_bound, solve)
from .pomdp import (ActionSpace, PomdpModel, belief_update, build_model,
                    enumerate_actions, initial_belief, snr_thresholds)
from .simulate import (Agent, FixedPathDynamics, MarkovDynamics, Metrics,
                       OracleAgent, PolicyAgent, SlotLog, fixed_path_eval,
                       lockstep_groups, monte_carlo, oracle_action, perfect_info_rates,
                       simulate_points, simulate_slots, trial_means)

__version__ = "0.1.0"

# every name imported above, the submodules themselves left out
__all__ = [name for name, obj in globals().items() if not name.startswith("_")
           and not isinstance(obj, _types.ModuleType)] + ["__version__"]
