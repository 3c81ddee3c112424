"""isslab: a numerical laboratory for input-to-state stability.

Simulates linear diagonal (spectral) control systems with boundary-type
scalar inputs in closed form, constructs the associated non-coercive
quadratic Lyapunov functions, and probes the standard stability estimates
(ISS, norm-to-integral ISS, uniform local stability, uniform limit property,
bounded reachability, continuity at the equilibrium) by deterministic
falsification over sampled states, inputs and times.

The package root exports the public surface: the systems and inputs, the
comparison-function algebra and certificates, the two Lyapunov
constructions, the checks and their reports, and the scenario entry points
of the command line.  Helpers below that surface keep their names in their
modules (``isslab.checkers``, ``isslab.harness``, ...).
"""

__version__ = "0.1.0"

from .comparison import (ComparisonFunction, DecayEnvelope, ISSCertificate,
                         NormToIntegralCertificate, compose, derive_norm_to_integral,
                         evaluate, linear, parse_comparison, power, saturation)
from .errors import DomainError, ScenarioError, ValidationError
from .lyapunov import (DATKO, NEG_INVERSE, DissipationParameters, LyapunovOperator,
                       build_datko, build_neg_inverse, dissipation_constants)
from .report import CheckProperty, MarginRecord, StabilityReport, Verdict, Witness
from .system import (AdmissibilityBound, InputSignal, SpectralSystem, Trajectory,
                     build_time_grid, heat_dirichlet, kappa_bounds, mild_solution,
                     sample_trajectory, state_norm, write_trajectory_csv)
from .checkers import (SampleBudget, check_brs, check_cep, check_cocycle,
                       check_dissipation, check_identity, check_iss,
                       check_integral_to_integral, check_norm_to_integral,
                       check_ulim, check_uls, draw_input, draw_state)
from .harness import (RunReport, Scenario, build_system, main, parse_scenario,
                      run_scenario)
