"""Network-aware vaccine allocation.

Builds a monotone submodular welfare objective from a contact network and
per-unit health states, solves it with guarantee-bearing greedy policies
under capacity and group-targeting constraints, and quantifies the welfare
lost when the disease parameters are only estimated.
"""

from .epidemic import (GROUP1, GROUP2, INFECTED, RECOVERED, SUSCEPTIBLE,
                       Population, SirParams)
from .graph import (ContactGraph, EdgeListError, erdos_renyi, load_edge_list,
                    save_edge_list)
from .harness import (PARAMETER_SETS, ConfigError, ExperimentConfig,
                      ExperimentRow, Instance, RegretStudyConfig,
                      RegretStudyRow, draw_instance, emit_csv,
                      emit_regret_csv, parse_experiment_config,
                      parse_regret_config, replicate_seed, run_experiment,
                      run_property_checks, run_regret_study)
from .objective import (Allocation, ContextPattern, ObjectiveContext,
                        SubmodularityReport, build_context, check_submodular,
                        marginal_gain, objective_value, welfare_value)
from .regret import (MEAN_DEVIATION_COEF, UNIVERSAL_CONSTANT,
                     EstimationNoiseModel, RegretReport, empirical_regret,
                     regret_upper_bound, sample_estimates)
from .solvers import (ENUMERATION_BUDGET, BudgetError,
                      RandomAssignmentSummary, SolverResult, brute_force,
                      greedy_capacity, greedy_factor, greedy_targeting,
                      iter_random_subsets, random_assignment,
                      sampled_welfare_sd, twni)

__version__ = "0.1.0"
