"""The benchmark's workloads: generated scenario text plus expected verdicts.

Each workload is a scenario template on the heat preset.  From its
``--seed`` argument the benchmark generates a battery of ``k`` scenarios that
differ only in ``budget.seed``, which is ``k * seed + i`` for ``i < k``, and
fills in the sample counts from a size profile; the program under test only
ever sees the generated text.

The cost of a call follows the number of pieces of the random inputs, which
is drawn per input, so one scenario's cost varies by about 10% (quartile
spread) from seed to seed.  A run cycles through its whole battery, which
holds a few hundred random inputs, so its median varies much less.  The
full-size budgets are chosen so that one warm call takes 1.5 to 2.5 seconds
on a 2-vCPU x86 box and one pass over the battery takes under 20 seconds.

This module imports only the standard library, so a fresh interpreter can
load it before the clock for set-up time starts.
"""

from __future__ import annotations

from dataclasses import dataclass

CLEAN = "no_violation_found"
VIOLATED = "violated"

_HEAT = """\
system.preset = heat_dirichlet
system.a = 1.0
system.n_modes = {n_modes}
"""

_BUDGET = """\
budget.n_states = {n_states}
budget.n_inputs = {n_inputs}
budget.n_times = 33
budget.horizon = 2.0
budget.radius = 1.0
budget.seed = {seed}
"""


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_modes: int
    body: str                          # scenario lines between system and budget
    budgets: dict[str, tuple[int, int, int]]  # size -> (k, n_states, n_inputs)
    expected: dict[str, str]             # check -> expected verdict

    @property
    def checks(self) -> tuple[str, ...]:
        return tuple(self.expected)

    def scenario_texts(self, seed: int, size: str) -> list[str]:
        """The run's battery of scenarios; the first is the traced one."""
        k, n_states, n_inputs = self.budgets[size]
        head = (_HEAT.format(n_modes=self.n_modes) + self.body
                + "checks.names = " + ", ".join(self.checks) + "\n")
        return [head + _BUDGET.format(n_states=n_states, n_inputs=n_inputs,
                                      seed=k * seed + i) for i in range(k)]


POINTWISE = Workload(
    name="pointwise_heat64",
    why="flow and sampling dominate; no quadrature and no witness",
    n_modes=64,
    body="""\
lyapunov.construction = neg_inverse_A
lyapunov.epsilon = 0.5
certificate.beta = decay(1.0, 9.869604401089358)
certificate.gamma = linear(0.5773502691896258)
certificate.uls_sigma = linear(1.0)
checks.ulim_eps = 0.1
checks.cep_h = 1.0
""",
    budgets={"full": (12, 4, 60), "tiny": (2, 3, 3)},
    expected={c: CLEAN for c in
              ("identity", "cocycle", "iss", "uls", "ulim", "brs", "cep")},
)

# certificate of src/isslab/scenarios/datko_vs_neginverse.scn
INTEGRAL = Workload(
    name="integral_heat64",
    why="Simpson quadrature and dense-grid flow dominate; drawing and emit are small",
    n_modes=64,
    body="""\
lyapunov.construction = datko
lyapunov.epsilon = 0.5
certificate.beta = decay(1.0, 9.869604401089358)
certificate.gamma = linear(0.5773502691896258)
certificate.alpha = power(0.5, 2.0)
certificate.psi = power(0.05066059182116889, 2.0)
certificate.sigma = power(0.16666666666666666, 2.0)
""",
    budgets={"full": (8, 3, 32), "tiny": (2, 2, 3)},
    expected={c: CLEAN for c in
              ("dissipation", "norm_to_integral", "integral_to_integral")},
)

# gamma = 0.1 is far below the steady gain 1/sqrt(3) of the heat preset, so the
# constant full-amplitude input refutes ISS and ULIM, and the slowest mode at
# full radius refutes ULS at t = 0.
REFUTE = Workload(
    name="refute_heat256",
    why="every check is violated: witness replay, witness CSV writes and a 4x wider state",
    n_modes=256,
    body="""\
lyapunov.construction = neg_inverse_A
lyapunov.epsilon = 0.5
certificate.beta = decay(1.0, 9.869604401089358)
certificate.gamma = linear(0.1)
certificate.uls_sigma = linear(0.1)
checks.ulim_eps = 0.001
""",
    budgets={"full": (8, 12, 10), "tiny": (2, 3, 3)},
    expected={c: VIOLATED for c in ("iss", "uls", "ulim")},
)

WORKLOADS = {w.name: w for w in (POINTWISE, INTEGRAL, REFUTE)}
