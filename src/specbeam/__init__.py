"""Joint spectrum and beam-direction planning over multi-band planar arrays.

Builds a discrete belief-state planning problem from physical parameters
(road geometry, planar-array channels, order-2 Markov mobility), solves it
by point-based value iteration, and evaluates the resulting planner against
oracle and single-frequency baselines by Monte Carlo simulation.
"""

from .arrays import (ApertureSpec, BandConfig, PropagationConstants,
                     aligned_gain, dirichlet_ratio_abs, elements_for_band,
                     expected_rate, gain, make_band, normalized_angles,
                     observation_probs, rate, snr_sample)
from .config import ConfigError, ExperimentConfig, default_config_dict
from .geometry import CellCoord, SceneConfig, build_road, cell_angles, containing_cell
from .mobility import (MobilityModel, StateSpace, enumerate_states,
                       mobility_prob, successor_distribution, transition_matrix)
from .pbvi import (AlphaVector, BeliefSet, Policy, backup, backup_stage,
                   default_epsilon, expand_beliefs, extract_action,
                   initial_bound, solve)
from .pomdp import (ActionSpace, ImpossibleObservation, PomdpModel,
                    belief_update, build_model, enumerate_actions,
                    initial_belief, observation_likelihoods, snr_thresholds)
from .simulate import (Agent, FixedActionAgent, FixedPathDynamics,
                       MarkovDynamics, Metrics, OracleAgent, PolicyAgent,
                       TrialTrace, aggregate, fixed_path_eval, monte_carlo,
                       oracle_action, perfect_info_rates, run_trial,
                       simulate_trials)

__version__ = "0.1.0"

__all__ = [
    "ApertureSpec", "BandConfig", "PropagationConstants", "aligned_gain",
    "dirichlet_ratio_abs", "elements_for_band", "expected_rate", "gain",
    "make_band", "normalized_angles", "observation_probs", "rate",
    "snr_sample",
    "ConfigError", "ExperimentConfig", "default_config_dict",
    "CellCoord", "SceneConfig", "build_road", "cell_angles", "containing_cell",
    "MobilityModel", "StateSpace", "enumerate_states", "mobility_prob",
    "successor_distribution", "transition_matrix",
    "AlphaVector", "BeliefSet", "Policy", "backup", "backup_stage",
    "default_epsilon", "expand_beliefs", "extract_action", "initial_bound",
    "solve",
    "ActionSpace", "ImpossibleObservation", "PomdpModel", "belief_update",
    "build_model", "enumerate_actions", "initial_belief",
    "observation_likelihoods", "snr_thresholds",
    "Agent", "FixedActionAgent", "FixedPathDynamics", "MarkovDynamics",
    "Metrics", "OracleAgent", "PolicyAgent", "TrialTrace", "aggregate",
    "fixed_path_eval", "monte_carlo", "oracle_action", "perfect_info_rates",
    "run_trial", "simulate_trials",
    "__version__",
]
