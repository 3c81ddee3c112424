"""isslab: a numerical laboratory for input-to-state stability.

Simulates linear diagonal (spectral) control systems with boundary-type
scalar inputs in closed form, constructs the associated non-coercive
quadratic Lyapunov functions, and probes the standard stability estimates
(ISS, norm-to-integral ISS, uniform local stability, uniform limit property,
bounded reachability, continuity at the equilibrium) by deterministic
falsification over sampled states, inputs and times.
"""

__version__ = "0.1.0"

from .comparison import (ComparisonFunction, DecayEnvelope, ISSCertificate,
                         NormToIntegralCertificate, compose, derive_norm_to_integral,
                         evaluate, invert, linear, parse_comparison, power,
                         saturation, sontag_factor_exponential)
from .errors import DomainError, RangeError, ScenarioError, ValidationError
from .lyapunov import (DATKO, NEG_INVERSE, DiniEstimate, DissipationParameters,
                       LyapunovOperator, build_datko, build_neg_inverse,
                       c_of_epsilon, dini_estimate,
                       dissipation_constants, lyapunov_residual, v_value)
from .report import CheckProperty, MarginRecord, StabilityReport, Verdict, Witness
from .system import (AdmissibilityBound, HeatDirichletParams, InputSignal,
                     SpectralSystem, Trajectory, build_time_grid, heat_dirichlet,
                     kappa_bounds, mild_solution, sample_trajectory,
                     semigroup_apply, state_norm, write_trajectory_csv)
from .checkers import (SampleBudget, check_brs, check_cep, check_cocycle,
                       check_dissipation, check_identity, check_iss,
                       check_integral_to_integral, check_norm_to_integral,
                       check_ulim, check_uls, dissipation_margin, draw_input,
                       draw_state, eval_times, input_integral, iss_margin,
                       norm_to_integral_margin, run_iss_equivalence_battery,
                       trajectory_integral, uls_margin, ulim_slack)
from .harness import (RunReport, Scenario, build_system, bundled_scenario_path,
                      load_scenario, main, parse_scenario, run_scenario,
                      serialize_scenario, simulate_scenario)
