"""Falsification-style checkers for the stability zoo.

Each checker scans a deterministic sample set of initial states, inputs and
times for a violation of one universally quantified inequality.  A violation
is reported with a replayable witness; otherwise the verdict is
``no_violation_found``, which is evidence, not proof.

One draw, one sweep.  A check draws its sample set from its budget as
arrays (``_Samples``): the states, their norms |x0|, the inputs as one table
and their |u|_inf; an ``InputSignal`` is made only for a witness and on the
Simpson path.  Inside ``_shared_samples``, which ``run_scenario`` opens
around a scenario's checks, every check on the same system and budget shares
one sample set, every budget (CEP's at cep_h and at its levels' radii, BRS's)
derives its samples from each random stream's draws, made once (the block's
memo, ``_once``), and the pointwise checks (ISS, ULS, BRS, CEP
and ULIM) share one kernel call per sample set on every input's probe (the
evaluation times plus its breakpoints), a table of (input, point) padded
with +inf.  The probes' points are ULIM's nodes: ULIM sweeps the points of
its fixed grid between two adjacent nodes, in one more call, only where a
lower enclosure of |phi| (``system._enclosure``) leaves room for a pair's
pick or first hit (``_Samples.ulim``).  Every kernel pass takes its rows as
(input, time) pairs and reads the set's anchor states, stepped once
(``_Samples.table``).  A flow value is grid-free, so a check called alone
gives the same report.  Nothing outlives the block.  A sample set is
refused past ``_REACH_CAP``, where the squares of its norms could overflow.

One kernel.  Every check with one pick per (state, input) hands ``_sweep``
one (state, input, k) array: one evaluation of the bound, with each input's
|u|_inf, and one argmin or argmax (``_pick``) over axis 2.  The
trajectory estimates (ISS, ULS, ULIM, BRS, the two integral forms) say that
a comparison bound minus |phi(t, x0, u)| or the integral of alpha(|phi|) is
nonnegative at every sampled (x0, u, t), and the dissipation inequality
that (eps - 1) |x0|**2 + c(eps) |u|_inf**2 bounds Vdot_u(x0), which has a
closed form (``lyapunov._vdot``).  The axiom checks read per-pair rows off
the anchor table (``system._table_rows``) or step them (``_flow_rows``):
minus the deviations of phi(0) from x0 (identity) and between the flows at
t_mid of two inputs that agree before it (causality), and the cocycle's
slack at a (t, h) drawn per pair.  Inside ``_shared_samples(pair=(x0, u))`` every
sample set holds that one pair, and a check run there gives the pair's
record of its full run bit for bit: ``isslab replay`` re-runs a witness's
check so.  ``iss_margin``, ``uls_margin`` and ``ulim_slack`` take the bound
less the norms of ``sample_trajectory`` of one pair.  ``report.conclude``,
the one place that picks a witness and refuses a non-finite margin, is
reached from ``_sweep``, those three and CEP's table (``check_cep``): the
witness is the first pick whose margin is the smallest of those below their
tolerance.

Integrals.  For alpha = c r**2, the form of every bundled certificate and
of the default, int_0^t alpha(|phi|) has a closed form per input segment
(``system._square_integrals``): from the set's anchor table, each input's
full segments summed cumulatively plus the piece from the last anchor below
t, live modes by the formula and settled ones from a part per (input, anchor).
Any other alpha takes composite Simpson on a grid graded after 0 and after
each input breakpoint, restarted at every breakpoint so that no panel
straddles a kink of the flow, one kernel call per input on the same table.
Either way the table is made once per sample set (``_Samples.integrals``),
and both integral checks read it.  The integral of sigma(|u|) in the
integral-to-integral bound is exact: cumulative sums over the inputs' pieces.

Record order.  ``_sweep`` hands the picks to ``conclude`` as arrays in the
order of the pairs (state-major: pair i * n_inputs + j is state i with input
j), which the records, the witness choice and the rows of ``margins.csv``
keep; the report makes its records on first access.

Sampling design.  States are drawn from the uniform ball in the first
min(N, 8) modes, plus isolated high modes e_k to exercise the non-coercive
direction, plus three canonical corners (the origin, the slowest mode at full
radius, the fastest mode at full radius).  Inputs are piecewise constant with
up to 8 random segments, preceded by the zero input and the constant
full-amplitude input.  Every sample is generated from its own seeded stream,
so enlarging a budget extends the sample set without reshuffling it: reported
minima can only decrease, and a ``violated`` verdict can never flip back.
The radius enters every draw as a factor, and the breakpoints do not depend
on it, so the draws at radius 2**-k r are 2**-k times those at radius r, bit
for bit while they stay clear of the subnormal range.  A uniform draw is
formed from its stream's double as ``Generator.uniform`` forms it
(``_uniform``), so a stream is read once for every radius and horizon.  The
input and cocycle streams draw only ``integers(1, 9)`` and ``random``: their
raw words come for all streams at once (``system._stream_words``).

Tolerances scale with the magnitude of the compared quantities,
tol = tol_rel * (1 + scale), mostly with scale = |x0| + |u|_inf.  Pointwise
norm comparisons use tol_rel = 1e-9.  Closed-form integrals use 1e-12:
against a fine per-segment Simpson reference their error is at most 3e-14
times (1 + |x0| + |u|_inf) on the bundled scenarios and the benchmark's.
Simpson integrals use 1e-6, above their error of at most 3.2e-8 times the
same scale on those samples (alpha = c r**2, c r and c r**0.1).  The
dissipation margin uses 1e-9 with scale = |x0|**2 + |u|_inf**2: against the
same margin in exact rational arithmetic from the same floats its error is
at most 2.6e-16 times (1 + scale) on the bundled scenarios, on the heat
preset at a = 100, 1e10 and 1e-10 and at N = 256.

ULIM rules a run of grid points out only when the slack of the lower bound
sqrt(L) (1 - ENCLOSURE_REL - N u) - ENCLOSURE_ABS (|x0| + 2 |A^-1 B| |u|_inf)
- sqrt(N) ENCLOSURE_FLOOR, u = 2**-53 and N modes, stays below the pick;
the constants are 1e-12, 1e-12 and 2**-530.  The bound is derived from the
kernel's arithmetic.  A kernel row computes mode k within about 1510 u of
|x_k(a)| exp(-lambda_k s) + |g_k v|: its decay's argument lambda_k s <= 746
carries 1492 u, np.exp 4 ulp (numpy's own tests hold it to 1), and the
products and the sum 4 u.  Those terms have a norm of at most 1.001 times
|x0| + 2 |A^-1 B| |u|_inf: an anchor state exceeds its exact bound
|x0_k| + |g_k| |u|_inf by a factor of at most 1 + 3.4e-13 per anchor, so by
1.001 below 2.9e9 anchors.  The error enters twice, at a run's ends and at
each point: 3.4e-13 of that scale.  The sums of N squares and the square
roots lose at most (N + 11) u, and squares that underflow at most
sqrt(N) 2**-537.5 of a norm, twice.  A mode dead at lo (past its row's cap
T, ``system``'s docstring) enters L as g_k v; on the run it differs from
g_k v by at most |x_k(a)| e**-T <= 2**-54 |g_k v|, a relative term inside
ENCLOSURE_REL, where the cap of 746 alone left an absolute one below
2**-622; at v = 0 by at most e**-373, a square that underflows.
Measured with the cap of 746 alone: over 1.78 million (state, run) bounds
of 3,000 random heat sample sets (N from 1 to 256, a from 1e-3 to 1e4, with
states that pass the origin) sqrt(L) exceeded the smallest norm on its run
by at most 6.0e-16 of sqrt(L) and 2.1e-16 of the scale.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .comparison import (ComparisonFunction, ISSCertificate, NormToIntegralCertificate,
                         evaluate)
from .errors import DomainError, ValidationError
from .lyapunov import DissipationParameters, LyapunovOperator, _vdot
from .report import CheckProperty, StabilityReport, conclude
from .system import (InputSignal, SpectralSystem, _anchor_table, _enclosure, _flow_norms,
                     _flow_rows, _input_table, _square_integrals, _stream_words, _table_rows,
                     _unique, build_time_grid, kappa_bounds, sample_trajectory, seeded_rng,
                     state_norm)

POINT_TOL = 1e-9      # pointwise comparisons
QUAD_TOL = 1e-6       # Simpson-backed integral comparisons
EXACT_TOL = 1e-12     # closed-form integral comparisons
COCYCLE_TOL = 1e-10   # relative cocycle deviation
ULIM_GRID_POINTS = 513  # fixed hitting-time grid, independent of the budget
#: the rounding margin of ULIM's enclosure (module docstring, Tolerances)
ENCLOSURE_REL = 1e-12
ENCLOSURE_ABS = 1e-12
ENCLOSURE_FLOOR = 2.0 ** -530
CEP_LEVELS = 4       # rows eps_j of the continuity table
CEP_HALVINGS = 8     # candidate deltas eps_j / 2**i per row
#: |phi| <= r (1 + |A^-1 B|) on a budget's ball of radius r; a sample set
#: whose bound passes this cap is refused, so that no norm's square overflows
_REACH_CAP = 2.0 ** 400
#: CEP reads its table off one sweep from this radius on: every level's norms
#: and their squares then stay far from the subnormal range
_CEP_SCALED_MIN = 2.0 ** -400


@dataclass(frozen=True)
class SampleBudget:
    """Deterministic sampling effort for one checker run."""

    n_states: int = 24
    n_inputs: int = 10
    n_times: int = 33
    horizon: float = 2.0
    radius: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if min(self.n_states, self.n_inputs, self.n_times) < 1:
            raise ValidationError("sample counts must be at least 1")
        if not all(math.isfinite(v) and v > 0.0 for v in (self.horizon, self.radius)):
            raise ValidationError("horizon and radius must be positive and finite")

    @property
    def n_pairs(self) -> int:
        return self.n_states * self.n_inputs


def _uniform(low, high, d):
    """``Generator.uniform(low, high)`` of its doubles d: low + (high - low) d."""
    return low + (high - low) * d


def _state_draws(rng, n: int, high: bool) -> tuple:
    """A state stream's direction and radial factor: a high mode's size and
    sign and 1.0, or a unit vector in the first d modes and uniform**(1/d)."""
    if high:
        k, direction = int(rng.integers(n // 2, n)), np.zeros(n)
        direction[k] = rng.uniform(0.25, 1.0) * rng.choice((-1.0, 1.0))
        return direction, 1.0
    g = rng.standard_normal(min(n, 8))
    nrm = float(np.linalg.norm(g))
    if nrm == 0.0:
        g[0], nrm = 1.0, 1.0
    return g / nrm, rng.uniform() ** (1.0 / g.size)


def draw_state(sys: SpectralSystem, budget: SampleBudget, i: int) -> np.ndarray:
    """State sample i: canonical corners first, then seeded random draws."""
    n = sys.n_modes
    x = np.zeros(n)
    r = budget.radius
    if i == 0:
        return x
    if i == 1:
        x[0] = r
        return x
    if i == 2:
        x[-1] = r
        return x
    # a state keeps its Generator (a ziggurat; an integers that rejects)
    direction, radial = _once(("state", budget.seed, i, n), lambda: _state_draws(
        seeded_rng(budget.seed, 11, i), n, i % 5 == 3 and n > 1))
    x[:direction.size] = direction * r * radial
    return x


def _input_rows(budget: SampleBudget, stop: int, start: int = 0) -> list[tuple[list, list]]:
    """Inputs start..stop-1's breakpoints and values, as Python floats.  Input
    j >= 2 reads its stream's words, once per ``_shared_samples`` block for
    every budget of the seed: its ``integers(1, 9)`` pieces m (Lemire's draw
    on word 0's low half, exact as 8 divides 2**32), then ``random(2 m - 1)``,
    the m - 1 cuts and the values."""
    h, r, seed = float(budget.horizon), float(budget.radius), budget.seed
    words = _once(("inputs", seed, start, stop),
                  lambda: _stream_words(seed, 22, np.arange(max(start, 2), stop), 16))
    rows = [([0.0, h][:j + 1], [r][:j]) for j in range(start, min(stop, 2))]  # zero, constant
    for k, d in zip(((words[:, 0] & 0xFFFFFFFF) >> 29).tolist(),   # k = m - 1
                    ((words[:, 1:] >> 11) * 2.0 ** -53).tolist()):
        cuts = sorted({c for c in (_uniform(0.0, h, x) for x in d[:k]) if 0.0 < c < h})
        rows.append(([0.0, *cuts, h], [_uniform(-r, r, x) for x in d[k:k + len(cuts) + 1]]))
    return rows


def draw_input(budget: SampleBudget, j: int) -> InputSignal:
    """Input sample j: zero, constant full amplitude, then random segments."""
    return InputSignal(*map(np.array, _input_rows(budget, j + 1, j)[0]))


def ulim_grid(budget: SampleBudget) -> np.ndarray:
    """The hitting-time grid on which :func:`check_ulim` searches each
    trajectory of ``budget``."""
    return np.linspace(0.0, budget.horizon, ULIM_GRID_POINTS)


def eval_times(budget: SampleBudget) -> np.ndarray:
    """Low-discrepancy evaluation times including 0 and the horizon: the
    horizon times the base-2 van der Corput points of 1..n_times, whose
    prefixes are stable under enlargement."""
    k = np.arange(1, budget.n_times + 1)
    vdc, weight = np.zeros(k.size), 0.5
    while k.any():
        vdc += (k & 1) * weight
        k >>= 1
        weight *= 0.5
    return _unique(np.concatenate([[0.0, budget.horizon], budget.horizon * vdc]))


def _norms(a: np.ndarray) -> np.ndarray:
    """Each row's ``state_norm``: np.vecdot sums as np.linalg.norm's dot does."""
    return np.sqrt(np.vecdot(a, a))


class _Samples:
    """A sample set as arrays: the states (S, N), their norms |x0| (a column
    ``r``), the inputs as one table (``system._input_table``) and their sup
    norms |u|_inf (``u_sup``, each row's largest |value|: the padding is 0.0).

    Pair ``i * n_inputs + j`` is state i with input j; ``signal(j)`` makes
    input j's ``InputSignal``.  ``table`` holds the anchor states of every
    input up to the budget's horizon (``system._anchor_table``).  ``probes``
    gives every input's probe (the evaluation times plus its breakpoints
    below the horizon) as a padded (input, point) table and the flow norms
    of every state on them as a (state, input, point) table; its points are
    the nodes of ``ulim(levels)``.  ``integrals(alpha)`` is the table of
    int_0^t alpha(|phi|), and ``pairs`` each pair's state and input index.
    """

    def __init__(self, sys: SpectralSystem, states, inputs, budget: SampleBudget):
        self.sys, self.states, self.inputs, self.budget = sys, states, inputs, budget
        self.r = _norms(states)[:, None]
        self.u_sup = np.max(np.abs(inputs[1]), axis=1)
        self._integrals: dict[ComparisonFunction, tuple] = {}

    def signal(self, j: int) -> InputSignal:
        """Input j as an ``InputSignal``."""
        bps = self.inputs[0][j][np.isfinite(self.inputs[0][j])]
        return InputSignal(bps, self.inputs[1][j, :bps.size - 1])

    @property
    def pairs(self) -> tuple:
        """Each pair's state index and input index, in pair order."""
        return np.divmod(np.arange(self.r.size * self.u_sup.size), self.u_sup.size)

    @cached_property
    def table(self) -> tuple:
        return _anchor_table(self.sys, self.states, self.inputs,
                             np.full(self.u_sup.size, self.budget.horizon))

    @cached_property
    def probes(self) -> tuple:
        """The one kernel call: every input's probe, the union of the
        evaluation times and its breakpoints below the horizon, as an (input,
        point) table of times, each row its input's sorted points padded
        with +inf; and the norms of every state on them, a (state, input,
        point) table padded with -inf."""
        times, bps = eval_times(self.budget), self.inputs[0]
        probes = np.concatenate([np.broadcast_to(times, (len(bps), times.size)),
                                 np.where(bps < self.budget.horizon, bps, np.inf)], axis=1)
        probes.sort(axis=1)
        probes[:, 1:][probes[:, 1:] == probes[:, :-1]] = np.inf   # each point once
        probes.sort(axis=1)
        probes = probes[:, :np.isfinite(probes).sum(axis=1).max()]
        own = np.isfinite(probes)
        norms = np.full((len(self.states), *probes.shape), -np.inf)
        norms[:, own] = _flow_norms(self.sys, self.table, np.nonzero(own)[0], probes[own])
        return probes, norms

    def ulim(self, levels) -> np.ndarray:
        """The flow norms of each state (axis 0) and input (axis 1) on the
        ULIM grid (axis 2) for ``check_ulim`` at level ``levels[j]`` with
        input j: those of the full sweep bit for bit wherever a pair's pick
        (its first best slack level - |phi|) or a first hit (slack >= 0) that
        can set tau_hat can be, and +inf elsewhere, read as slack -inf.

        The nodes are the probes' points (``probes``).  The other points lie
        in runs between two adjacent nodes, where no breakpoint falls, so
        each mode is monotone over a run, and ``system._enclosure`` bounds
        |phi| on it from below by sqrt(L), less the rounding margin.  A run
        is swept, in one more kernel call over all inputs, only when for
        some state the slack of that bound reaches the state's best node
        slack (or equals it before the node that holds it), or, before the
        state's first node hit, reaches 0 while that node hit lies after
        tau_lb: the latest over the pairs of the earliest time each can hit,
        its first node hit or the start of its first run whose bound reaches
        0.  tau_hat is at least tau_lb, and a pair's first hit reads no later
        than its node hit, so first hits are exact only where they can set
        tau_hat; at tau_lb = +inf some pair never hits ("horizon exhausted").
        Refinement can only raise the best slack, so one round is enough: no
        point of a pruned run can hold a pick, a tie that comes first, or a
        first hit that sets tau_hat.
        """
        grid, levels = ulim_grid(self.budget), np.asarray(levels, dtype=float)
        times, norms = self.probes
        n = grid.size
        # each node's place on the ULIM grid (n for the padding), and whether it
        # is a ULIM point; every input's nodes start at 0 and end at the horizon,
        # as the grid
        at = np.searchsorted(grid, times)
        on = grid[np.minimum(at, n - 1)] == times
        # the runs of other points between two adjacent nodes: grid[first:last + 1]
        first, last = at[:, :-1] + on[:, :-1], at[:, 1:] - 1
        which, col = np.nonzero(first <= last)
        first, last = first[which, col], last[which, col]
        lower = np.sqrt(_enclosure(self.sys, self.table, which, grid[first], grid[last]))
        # each pair's best node slack, the first node that holds it, and its first
        # node hit, over the nodes that are ULIM points
        slack = np.where(on, levels[:, None] - norms, -np.inf)
        best = slack.max(axis=2)
        first_best = np.where(slack == best[..., None], times, np.inf).min(axis=2)
        first_hit = np.where(slack >= 0.0, times, np.inf).min(axis=2)
        # per state (rows) and run (columns), the largest slack the enclosure
        # allows, less the rounding margin of the module docstring
        n_modes = self.sys.n_modes
        scale = self.r + 2.0 * self.sys.input_gain_norm * self.u_sup
        bound = levels[which] - (lower * (1.0 - ENCLOSURE_REL - n_modes * 2.0 ** -53)
                                 - ENCLOSURE_ABS * scale[:, which]
                                 - math.sqrt(n_modes) * ENCLOSURE_FLOOR)
        start = grid[first]
        # each pair's earliest possible hit, and -inf for a node hit at or before tau_lb
        earliest = first_hit.copy()
        np.minimum.at(earliest.T, which, np.where(bound >= 0.0, start, np.inf).T)
        first_hit = np.where(first_hit > earliest.max(), first_hit, -np.inf)
        best, first_best, first_hit = best[:, which], first_best[:, which], first_hit[:, which]
        pruned = (((bound < best) | ((bound <= best) & (start > first_best)))
                  & ((bound < 0.0) | (start > first_hit)))
        refine = ~pruned.all(axis=0)
        del lower, slack, bound, best, first_best, first_hit, pruned   # before the sweep
        # the points of the runs to sweep: grid index k of input j
        size = (last - first + 1)[refine]
        j = np.repeat(which[refine], size)
        k = np.repeat(first[refine] - np.cumsum(size) + size, size) + np.arange(size.sum())
        # swept, and the anchor table dropped, before out is made: held, they
        # would raise the peak
        refined = _flow_norms(self.sys, self.table, j, grid[k])
        del self.table
        out = np.full((len(self.states), len(times) * n), np.inf)
        out[:, np.nonzero(on)[0] * n + at[on]] = norms[:, on]
        out[:, j * n + k] = refined
        return out.reshape(len(self.states), len(times), n)

    def integrals(self, alpha: ComparisonFunction) -> tuple:
        """int_0^t alpha(|phi|) of each state, input and evaluation time (a
        (state, input, time) table), and its relative tolerance; made once
        per alpha, from the anchor table.  For alpha = c r**2 the integral is
        taken in closed form for every input at once, else by Simpson per
        input segment on a grid graded after 0 and each input breakpoint,
        one kernel call per input."""
        if alpha in self._integrals:
            return self._integrals[alpha]
        times = eval_times(self.budget)
        if alpha.form == "power" and alpha.params[1] == 2.0:
            out = alpha.params[0] * _square_integrals(self.sys, self.table, times), EXACT_TOL
            del self.table   # held, it would raise the peak
        else:
            rows = []
            for j in range(self.u_sup.size):
                u = self.signal(j)
                # g holds the times and the input's breakpoints below the horizon
                g = build_time_grid(self.budget.horizon, u, extra=times)
                vals = evaluate(alpha, _flow_norms(self.sys, self.table, np.full(g.size, j), g))
                rows.append(_simpson_integrals(vals, g, np.searchsorted(g, times),
                                               np.searchsorted(g, u.breakpoints)))
            out = np.stack(rows, axis=1), QUAD_TOL
        self._integrals[alpha] = out
        return out


# The checks keep their public signatures, which take a budget, so a run's
# sharing is scoped by a context variable, as np.errstate scopes its
# settings; each block owns its memo and drops it on exit.
_RUN: ContextVar = ContextVar("isslab_shared_samples", default=None)


@contextmanager
def _shared_samples(pair=None):
    """Within the block, checks on the same system and budget share one
    sample set, and every budget reads each random stream's draws, made once
    (``draw_state``, ``_input_rows``), all through the block's memo
    (``_once``); ``run_scenario`` opens one around a scenario's checks.  With
    ``pair = (x0, u)`` every sample set holds that one pair instead of the
    budget's draw (``replay`` runs a check so).  Nothing outlives the block."""
    token = _RUN.set(({}, pair))
    try:
        yield
    finally:
        _RUN.reset(token)


def _once(key: tuple, make):
    """``make()``, made once per ``key`` in the ``_shared_samples`` block, or
    on every call outside one."""
    memo = (_RUN.get() or ({},))[0]   # the block's memo, else a throwaway one
    if key not in memo:
        memo[key] = make()
    return memo[key]


def _refuse_reach(sys: SpectralSystem, radius: float) -> None:
    if radius * (1.0 + sys.input_gain_norm) > _REACH_CAP:
        raise ValidationError(f"radius {radius!r} is too large: radius * (1 + |A^-1 B|) "
                              "exceeds 2**400, where the squares of the norms overflow")


def _samples(sys: SpectralSystem, budget: SampleBudget) -> _Samples:
    """The budget's sample set: the shared one inside :func:`_shared_samples`
    (its pair's, if it has one), else a fresh draw; refused past ``_REACH_CAP``."""
    def draw():
        _refuse_reach(sys, budget.radius)
        pair = (_RUN.get() or (None, None))[1]
        if pair is None:
            states = [draw_state(sys, budget, i) for i in range(budget.n_states)]
            rows = _input_rows(budget, budget.n_inputs)
        else:
            states, rows = [pair[0]], [(pair[1].breakpoints, pair[1].values)]
        return _Samples(sys, np.array(states, dtype=float), _input_table(*zip(*rows)), budget)
    return _once(("samples", sys, budget), draw)


def _tol(scale: float, rel: float = POINT_TOL) -> float:
    return rel * (1.0 + scale)


def _require_positive(**values: float) -> None:
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0.0):
            raise DomainError(f"{name} must be positive and finite, got {value!r}")


# ---------------------------------------------------------------------------
# the sampling kernel


def _pick(margins: np.ndarray, best: bool = False) -> tuple:
    """Per (state, input) np.argmin's (np.argmax's if ``best``) index on the
    pair's margins, (state, input, k), and the margin there."""
    at = (np.argmax if best else np.argmin)(margins, axis=2)
    return at, np.take_along_axis(margins, at[..., None], axis=2)[..., 0]


def _sweep(prop: CheckProperty, samples: _Samples, times, lhs, bound=None,
           best: bool = False, tol=None) -> StabilityReport:
    """One pass over a sample set for every check with one pick per pair.

    ``lhs`` is the compared quantity of each state (axis 0), input (axis 1)
    and time (axis 2) at ``times``: for all pairs, per input (rows, as the
    probe table ``_Samples.probes``) or per pair.  ``bound(r, sup, t)`` is
    evaluated once, at the column r of the norms |x0|, the |u|_inf of each
    input and ``times``.  The margins are bound - lhs, or lhs without a
    bound; a time of +inf is padding, and its margin reads +inf (-inf if
    ``best``), whatever the bound gives there.  Each pair's smallest
    (largest if ``best``) margin is its pick, with tolerance ``tol`` (states
    by inputs, or one for all; POINT_TOL (1 + |x0| + |u|_inf) by default),
    concluded in pair order.
    """
    r, sup, margins = samples.r, samples.u_sup, lhs
    if bound is not None:
        margins = bound(r[:, :, None], sup[:, None], times) - lhs
        margins[..., np.isinf(times)] = -np.inf if best else np.inf
    at, picked = _pick(margins, best)
    t = np.take_along_axis(np.broadcast_to(times, margins.shape), at[..., None], axis=2)[..., 0]
    tol = _tol(r + sup) if tol is None else tol
    return conclude(prop, t.ravel(), picked.ravel(), np.ravel(tol), lambda p: (
        samples.states[p // sup.size], samples.signal(p % sup.size)))


def _pair_margin(prop: CheckProperty, sys: SpectralSystem, x0, u: InputSignal, grid, bound,
                 best: bool = False) -> float:
    """``bound(|x0|, |u|_inf, times)`` - |phi| of the pair (x0, u) at the grid's
    last time, or if ``best`` its first largest value on the grid, by ``conclude``."""
    traj = sample_trajectory(sys, x0, u, grid)
    times = traj.times if best else traj.times[-1:]
    margins = np.ravel(bound(np.array([[state_norm(x0)]]), np.array([u.sup_norm]), times)
                       - traj.norms()[-times.size:])
    i = int(np.argmax(margins))
    return conclude(prop, times[i:i + 1], margins[i:i + 1], 0.0,
                    lambda p: (x0, u)).worst_margin


def _prefix_integrals(vals: np.ndarray, grid: np.ndarray, at) -> np.ndarray:
    """Composite-Simpson integrals of the sampled values (last axis) from 0
    to each grid[at], by the rule of ``simpson(vals[..., :i + 1], x=grid[:i + 1])``.

    One pass: the nonuniform Simpson panels over (grid[2k], grid[2k+1],
    grid[2k+2]) are summed cumulatively, which covers every even interval
    count; an odd count adds Cartwright's correction for the last interval,
    and a single interval is a trapezoid, as in scipy.  The weights are
    formed from ratios of the spacings, never from their products, which
    underflow on tiny grids.
    """
    at = np.asarray(at)
    h = np.diff(grid)
    k = h.size // 2
    h0, h1 = h[0:2 * k:2], h[1:2 * k:2]
    hs = h0 + h1
    panels = hs / 6.0 * (vals[..., 0:2 * k:2] * (2.0 - h1 / h0)
                         + vals[..., 1:2 * k:2] * ((hs / h0) * (hs / h1))
                         + vals[..., 2:2 * k + 1:2] * (2.0 - h0 / h1))
    cum = np.concatenate([np.zeros(vals.shape[:-1] + (1,)), np.cumsum(panels, axis=-1)],
                         axis=-1)
    out = cum[..., at // 2]
    j = np.nonzero((at % 2 == 1) & (at > 1))[0]
    i = at[j]
    ha, hb = h[i - 2], h[i - 1]
    out[..., j] += hb / 6.0 * ((2.0 * hb + 3.0 * ha) / (ha + hb) * vals[..., i]
                               + (hb + 3.0 * ha) / ha * vals[..., i - 1]
                               - (hb / ha) * (hb / (ha + hb)) * vals[..., i - 2])
    j = np.nonzero(at == 1)[0]
    out[..., j] = 0.5 * h[:1] * (vals[..., 1:2] + vals[..., :1])
    return out


def __getattr__(name: str):
    # ``checkers.simpson`` is scipy's rule that _prefix_integrals follows;
    # bench/tracer.py looks the name up, and no isslab code calls it, so scipy
    # is imported only on that lookup and never on isslab's own import path
    if name == "simpson":
        from scipy.integrate import simpson
        return simpson
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# ---------------------------------------------------------------------------
# pointwise trajectory-norm checks


def iss_margin(sys: SpectralSystem, cert: ISSCertificate, x0, u: InputSignal,
               t: float) -> float:
    """beta(|x0|, t) + gamma(|u|_inf) - |phi(t, x0, u)|."""
    return _pair_margin(CheckProperty.ISS, sys, x0, u, _unique([0.0, float(t)]), cert.bound)


def check_iss(sys: SpectralSystem, cert: ISSCertificate,
              budget: SampleBudget) -> StabilityReport:
    samples = _samples(sys, budget)
    return _sweep(CheckProperty.ISS, samples, *samples.probes, bound=cert.bound)


def _uls_bound(sigma_fn: ComparisonFunction, gamma_fn: ComparisonFunction):
    return lambda r, sup, t: evaluate(sigma_fn, r) + evaluate(gamma_fn, sup)


def uls_margin(sys: SpectralSystem, sigma_fn: ComparisonFunction,
               gamma_fn: ComparisonFunction, x0, u: InputSignal, t: float) -> float:
    """sigma(|x0|) + gamma(|u|_inf) - |phi(t, x0, u)|."""
    return _pair_margin(CheckProperty.ULS, sys, x0, u, _unique([0.0, float(t)]),
                        _uls_bound(sigma_fn, gamma_fn))


def check_uls(sys: SpectralSystem, sigma_fn: ComparisonFunction,
              gamma_fn: ComparisonFunction, budget: SampleBudget) -> StabilityReport:
    """Static bound sigma(|x0|) + gamma(|u|) over the budget's ball."""
    samples = _samples(sys, budget)
    return _sweep(CheckProperty.ULS, samples, *samples.probes,
                  bound=_uls_bound(sigma_fn, gamma_fn))


def _ulim_level(gamma_fn: ComparisonFunction, eps: float):
    return lambda r, sup, t: eps + evaluate(gamma_fn, sup)


def ulim_slack(sys: SpectralSystem, gamma_fn: ComparisonFunction, eps: float,
               x0, u: InputSignal, grid) -> float:
    """Best slack eps + gamma(|u|) - |phi(t)| over the grid; >= 0 iff a hit."""
    return _pair_margin(CheckProperty.ULIM, sys, x0, u, grid, _ulim_level(gamma_fn, eps),
                        best=True)


def check_ulim(sys: SpectralSystem, gamma_fn: ComparisonFunction, eps: float,
               budget: SampleBudget) -> StabilityReport:
    """Search each trajectory for a dip below eps + gamma(|u|_inf).

    The hitting-time search runs on a fixed uniform grid (independent of
    n_times) so that enlarging a budget can only add samples, never change
    the per-sample search; the empirical uniform hitting time tau is the
    maximum first-hit time over the samples and is reported in the notes.
    The norms on the grid come from ``_Samples.ulim``: every point that can
    hold a pair's pick or first hit is read off the shared sweep or swept,
    the others read +inf, so the records, the witness and tau are those of
    the full sweep bit for bit.  The slack is formed in place of the norms,
    and tau is read off it.
    """
    _require_positive(eps=eps)
    samples, grid = _samples(sys, budget), ulim_grid(budget)
    levels = _ulim_level(gamma_fn, eps)(samples.r, samples.u_sup, grid)
    slack = samples.ulim(levels)
    np.subtract(levels[:, None], slack, out=slack)
    report = _sweep(CheckProperty.ULIM, samples, grid, slack, best=True, tol=0.0)
    hits = slack >= 0.0
    if not hits.any(axis=2).all():
        return replace(report, notes="horizon exhausted for some sample")
    return replace(report, notes=f"tau_hat={float(np.max(grid[np.argmax(hits, axis=2)]))!r}")


def check_cep(sys: SpectralSystem, budget: SampleBudget, h: float) -> StabilityReport:
    """Empirical continuity table at the equilibrium.

    For each tolerance eps_j = radius * 2**-j the probe finds the largest
    delta in {eps_j / 2**i} such that every sample with |x0|, |u|_inf <= delta
    stays within eps_j on [0, h].  The (eps_j, delta_j) table is reported in
    the notes; failure to find any workable delta is a violation.

    One sweep gives the whole table.  The draws at radius delta = 2**-m
    radius are 2**-m times the draws at the budget's radius, the flow is
    linear, and scaling by a power of two is exact in floating point, so
    every flow value, and every norm, at delta is 2**-m times its value at
    the radius.  With S the largest |phi| of the sweep at the radius on
    [0, h], level j and halving i have worst margin eps_j - S * 2**-(j + i),
    the margin of their own sweep bit for bit.  The caveat is the subnormal
    range, where scaling rounds: a component that falls there is far below
    the largest norm and vanishes in its rounding, unless the radius itself
    is tiny (at radius 1e-155 on heat(8) the squares of the smallest levels
    round differently).  Radii below ``_CEP_SCALED_MIN`` sweep every level
    as stated above.  A level that no delta satisfies sweeps its last
    halving for the exact witness.  A radius past ``_REACH_CAP`` is refused
    before any level, whose smaller radii could pass under it.
    """
    _require_positive(h=h)
    _refuse_reach(sys, budget.radius)
    local = replace(budget, horizon=h)
    scaled = budget.radius >= _CEP_SCALED_MIN
    sup = float(np.max(_samples(sys, local).probes[1])) if scaled else None
    picks, table = [], []
    for j in range(CEP_LEVELS):
        eps_j = budget.radius * 2.0 ** (-j)
        chosen_delta, witness = None, None
        for i in range(1, CEP_HALVINGS + 1):
            delta = eps_j / 2.0 ** i
            margin = eps_j - sup * 2.0 ** -(j + i) if scaled else -math.inf
            if margin < 0.0 and (i == CEP_HALVINGS or not scaled):
                samples = _samples(sys, replace(local, radius=delta))
                level = _sweep(CheckProperty.CEP, samples, *samples.probes,
                               bound=lambda r, sup, t: eps_j, tol=0.0)
                margin, witness = level.worst_margin, level.witness
            if margin >= 0.0:
                chosen_delta = delta
                break
        picks.append((h, margin, np.zeros(sys.n_modes), InputSignal.zero()) if witness is None
                     else (witness.t, witness.margin, witness.x0, witness.input))
        table.append((eps_j, chosen_delta))
    notes = "table " + "; ".join(f"eps={e!r}->delta={d!r}" for e, d in table)
    t, margins, *_ = zip(*picks)
    return conclude(CheckProperty.CEP, t, margins, 0.0, lambda j: picks[j][2:], notes=notes)


def check_brs(sys: SpectralSystem, C: float, tau: float,
              budget: SampleBudget) -> StabilityReport:
    """A-priori reachability bound C (1 + kappa(tau)) on [0, tau]; its input
    half is exact, since kappa(tau) is the smallest admissibility constant."""
    _require_positive(C=C, tau=tau)
    bound = C * (1.0 + kappa_bounds(sys, tau).upper)
    samples = _samples(sys, replace(budget, radius=C, horizon=tau))
    report = _sweep(CheckProperty.BRS, samples, *samples.probes,
                    bound=lambda r, sup, t: bound, tol=_tol(bound))
    sup = float(np.max(samples.probes[1]))
    return replace(report, notes=f"empirical_sup={sup!r} bound={bound!r}")


# ---------------------------------------------------------------------------
# integral checks


def _simpson_integrals(vals: np.ndarray, grid: np.ndarray, at, starts) -> np.ndarray:
    """Composite-Simpson integrals of the sampled values (last axis) from 0
    to each grid[at], with the rule of :func:`_prefix_integrals` restarted
    at every grid index in ``starts``, so that no panel straddles an input
    breakpoint, where the flow has a kink."""
    top = int(at.max())
    edges = _unique(np.concatenate([[0], starts[starts < top], [top]]))
    out = np.zeros(vals.shape[:-1] + at.shape)
    base = np.zeros(vals.shape[:-1] + (1,))
    for lo, hi in zip(edges[:-1], edges[1:]):
        j = np.nonzero((at > lo) & (at <= hi))[0]
        local = _prefix_integrals(vals[..., lo:hi + 1], grid[lo:hi + 1],
                                  np.append(at[j] - lo, hi - lo))
        out[..., j] = base + local[..., :-1]
        base = base + local[..., -1:]
    return out


def _input_integrals(inputs, sigma_fn: ComparisonFunction, times) -> np.ndarray:
    """int_0^t sigma(|u(s)|) ds for each input u of the table ``inputs`` (rows)
    at each of ``times`` (columns): the integrals up to the breakpoints,
    summed cumulatively, plus the piece after the last one below t (the zero
    tail after the last breakpoint adds nothing)."""
    times = np.asarray(times, dtype=float)
    if (times < 0.0).any():
        raise DomainError("inputs are defined on t >= 0")
    bps, vals = inputs
    own = np.isfinite(bps[:, 1:])   # each input's own segments, without the padding
    levels, pieces = np.zeros(vals.shape), np.zeros(vals.shape)
    levels[own] = evaluate(sigma_fn, np.abs(vals[own]))
    pieces[own] = (bps[:, 1:][own] - bps[:, :-1][own]) * levels[own]
    cum = np.concatenate([np.zeros((len(bps), 1)), np.cumsum(pieces, axis=1)], axis=1)
    j, i = np.arange(len(bps))[:, None], np.sum(bps[:, None, :] <= times[:, None], axis=2) - 1
    return cum[j, i] + levels[j, i] * (times - bps[j, i])


def _integral_check(prop: CheckProperty, sys: SpectralSystem,
                    cert: NormToIntegralCertificate, budget: SampleBudget) -> StabilityReport:
    """int alpha(|phi|) against cert.rhs, or psi(|x0|) + int sigma(|u(s)|) ds."""
    times, samples = eval_times(budget), _samples(sys, budget)
    lhs, rel = samples.integrals(cert.alpha)
    bound = cert.rhs
    if prop is CheckProperty.INTEGRAL_TO_INTEGRAL_ISS:
        sigma = _input_integrals(samples.inputs, cert.sigma, times)
        bound = lambda r, sup, t: evaluate(cert.psi, r) + sigma
    return _sweep(prop, samples, times, lhs, bound=bound, tol=_tol(samples.r + samples.u_sup, rel))


def check_norm_to_integral(sys: SpectralSystem, cert: NormToIntegralCertificate,
                           budget: SampleBudget) -> StabilityReport:
    """int alpha(|phi|) <= psi(|x0|) + t sigma(|u|_inf) on the sample set."""
    return _integral_check(CheckProperty.NORM_TO_INTEGRAL_ISS, sys, cert, budget)


def check_integral_to_integral(sys: SpectralSystem, cert: NormToIntegralCertificate,
                               budget: SampleBudget) -> StabilityReport:
    """int alpha(|phi|) <= psi(|x0|) + int sigma(|u(s)|) ds; outcome is
    reported, not asserted, since the stronger estimate may genuinely fail."""
    return _integral_check(CheckProperty.INTEGRAL_TO_INTEGRAL_ISS, sys, cert, budget)


# ---------------------------------------------------------------------------
# dissipation and axioms


def check_dissipation(sys: SpectralSystem, op: LyapunovOperator,
                      params: DissipationParameters, budget: SampleBudget) -> StabilityReport:
    """The exact Vdot_u(x0) against (eps-1)|x0|^2 + c(eps)|u|_inf^2 per sample.

    Vdot is taken in closed form for all states and inputs at t = 0
    (``lyapunov._vdot``); the bound squares Python floats, since numpy's
    square is not pow in the last bit."""
    samples = _samples(sys, budget)
    u0 = samples.inputs[1][:, :1]   # each input's u(0), its first value
    vdot = _vdot(op, sys, samples.states[:, None], u0)
    r2, sups = [r ** 2 for r in samples.r[:, 0].tolist()], samples.u_sup.tolist()
    margins = np.array([[params.rhs(a, s) for s in sups] for a in r2]) - vdot
    scale = np.add.outer(r2, [s ** 2 for s in sups])
    return _sweep(CheckProperty.DISSIPATION, samples, np.zeros(1), margins[:, :, None],
                  tol=_tol(scale))


def check_identity(sys: SpectralSystem, budget: SampleBudget) -> StabilityReport:
    """Identity (phi(0) == x0 bit for bit) and causality (agreeing inputs
    give identical states); any deviation at all is a violation.  phi(0)
    and the twin's flow are stepped (``system._flow_rows``) and u's flow at
    t_mid read off the anchor table, so causality holds the two paths equal."""
    samples = _samples(sys, budget)
    (at, which), table = samples.pairs, samples.inputs
    x0s, t_mid = samples.states[at], 0.5 * budget.horizon
    # each input's twin, u on [0, t_mid) and the tail after (``concatenated``
    # in tests/oracles.py), in _input_table's form: u's breakpoints below t_mid
    # (0.0 past u's end), then the tail's, which lasts a horizon: from
    # t_mid = 2**53 on, t_mid + 1.0 == t_mid
    bps, vals = (np.pad(a, ((0, 0), (0, 2)), constant_values=c)
                 for a, c in zip(table, (np.inf, 0.0)))
    k, cols = np.sum(bps < t_mid, axis=1, keepdims=True), np.arange(bps.shape[1])
    twins = (np.select([cols < k, cols == k, cols == k + 1], [bps, t_mid, t_mid + budget.horizon],
                       np.inf),
             np.select([cols[:-1] < k, cols[:-1] == k], [vals, 0.37 * (1.0 + budget.radius)]))
    dev = np.abs(_flow_rows(sys, table, which, x0s, 0.0) - x0s).max(axis=1)
    dev_c = np.abs(_table_rows(sys, samples.table, which, at, t_mid)
                   - _flow_rows(sys, twins, which, x0s, t_mid)).max(axis=1)
    margins = -np.stack([dev, dev_c], axis=1).reshape(len(samples.states), -1, 2)
    return _sweep(CheckProperty.IDENTITY, samples, np.array([0.0, t_mid]), margins, tol=0.0)


def check_cocycle(sys: SpectralSystem, budget: SampleBudget) -> StabilityReport:
    """phi(t+h, x0, u) against the flow restarted at t, relative to |phi(t+h)|:
    the flows at t + h and at t are read off the anchor table, the restart
    from phi(t) is stepped (``system._flow_rows``)."""
    samples = _samples(sys, budget)
    at, which = samples.pairs
    # pair p's stream (seed, 33, p) draws random(2): its t in [0, 0.6 H), then h in [0, 0.4 H)
    t, h = _uniform(0.0, np.array([0.6, 0.4]) * budget.horizon,
                    (_stream_words(budget.seed, 33, np.arange(which.size), 2) >> 11) * 2.0 ** -53).T
    # t + h stays within the horizon, where the anchor table ends
    direct, at_t = (_table_rows(sys, samples.table, which, at, s) for s in (t + h, t))
    gap = direct - _flow_rows(sys, samples.inputs, which, at_t, h, t)
    margins = COCYCLE_TOL * (1.0 + _norms(direct)) - _norms(gap)
    times, margins = (np.reshape(a, (len(samples.states), -1, 1)) for a in (t + h, margins))
    return _sweep(CheckProperty.COCYCLE, samples, times, margins, tol=0.0)
