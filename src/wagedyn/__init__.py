"""Dynamic supervision-and-incentive wage model.

Worker effort optimization under random evaluation, exact wage-distribution
dynamics, and employer contract optimization, with reproduction checks for the
published tables at desk scale.
"""
from .additive import (AdditiveSolution, AffineEffortPolicy, AffinePolicy,
                       best_response, deterministic_path, phi_series_recursive,
                       single_period_variance, solve_backward_induction,
                       wage_support)
from .cobb_douglas import (DpGrid, EffortPolicy, TableEffortPolicy,
                           always_sampled_path, policy_monotonicity_report,
                           solve_policy)
from .distribution import (ProfileSeries, WageDistribution, bracketize,
                           enumerate_histories, profile, propagate, simulate)
from .employer import (GridSteps, OptimalContract, expected_profit,
                       grid_search_optimum, profit_by_history_enumeration,
                       stationary_grid_search, stationary_one_period_optimum,
                       tech_shock, tech_sweep)
from .model import (DomainError, affine_effort, deserved_wage,
                    require_base_consumption, wage_update, zero_base_consumption)
from .params import (ContractParams, FirmParams, Horizon, UtilityFamily,
                     WorkerPrefs)
from .statics import (EffortSensitivity, effort_sensitivity, foc_residual,
                      optimal_effort, optimal_effort_search, sensitivity_grid)

__version__ = "0.1.0"
