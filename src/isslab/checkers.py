"""Falsification-style checkers for the stability zoo.

Each checker scans a deterministic sample set of initial states, inputs and
times for a violation of one universally quantified inequality.  A violation
is reported with a replayable witness; otherwise the verdict is
``no_violation_found``, which is evidence, not proof.

One draw, one sweep.  A check draws its sample set from its budget: the
states, their norms |x0| and the inputs.  Inside ``_shared_samples``, which
``run_scenario`` opens around a scenario's checks, every check on the same
system and budget shares one draw, and the pointwise checks (ISS, ULS, BRS,
CEP and ULIM) share one flow sweep per input: the norms of all the input's
states on the pointwise probe (the evaluation times plus the input's
breakpoints), or, when ULIM runs on that budget too, on the union of the
probe and the ULIM grid, from which each check takes its own columns.  Only
the norms are kept.  Every flow value is grid-free, so a shared column is
the column of a sweep on the check's own grid bit for bit, and a check
called alone gives the same report.  Nothing outlives the block: a repeated
run draws and sweeps again.

One kernel.  The trajectory estimates (ISS, ULS, ULIM, BRS and the two
integral forms) all say that a comparison bound minus a functional of the
flow phi(t, x0, u), |phi| or the integral of alpha(|phi|), is nonnegative at
every sampled (x0, u, t).  ``_sweep`` is the one loop that checks them, and
the single-sample functions (``iss_margin``, ``uls_margin``, ``ulim_slack``
on ``ulim_grid(budget)``, ``norm_to_integral_margin`` given the budget) run
it on one pair, so a witness replays through the checker's own arithmetic
on the checker's own grid.  ULIM's hitting time and BRS's empirical sup are
read off the sample set's memoized sweep after it, and CEP reads its whole
table off one sweep (see ``check_cep``).  The axiom checks step each input's
stack of states through the stepper once (``system._flow_at``, the values of
``mild_solution`` bit for bit); only the cocycle's restart, on an input
shifted differently per pair, runs pair by pair.  So identity, causality,
cocycle and the Dini quotients test the flow behind every margin.  Every
check ends in ``report.conclude``, the one place that picks a witness: it
takes one pick per sample, and the witness is the first pick whose margin
is the smallest of those below their tolerance.

Superposition.  The systems are linear, so from an anchor a (0 or an input
breakpoint) the flow is exp(-lambda (t - a)) phi(a) plus a forced term that
depends on the input alone.  The kernel therefore scans input by input and
asks for the compared functional of all the input's states at once; the
bound is evaluated once per input too, on the column of state norms.  For
|phi| it sweeps the input's grid once through the flow kernel
``system._flow_norms``, which also fills ``sample_trajectory``, so the
kernel's norms are those of ``sample_trajectory(...).norms()`` bit for bit.
A mode with lambda_k (t - a) > 746 has decayed to exactly 0.0 and holds its
forced value, the same for every state; so each grid row has a live width,
the modes still decaying, and only those columns cost work per state (in
the benchmark's N = 256 sweeps the median row has 13 live modes, and 8% of
all entries are live).  Only the norms (states by grid) are kept.

Integrals.  For alpha = c r**2, the form of every bundled certificate and
of the default, int_0^t alpha(|phi|) has a closed form per input segment
(``system._square_integrals``): the anchor states of ``mild_solution``, the
full segments summed cumulatively, plus the piece from the last anchor
below t, for all states, times and modes in one pass, with no grid.  Any
other alpha takes composite Simpson on a grid graded after 0 and after
each input breakpoint, restarted at every breakpoint so that no panel
straddles a kink of the flow.  The integral of sigma(|u|) in the
integral-to-integral bound is exact: a cumulative sum over the input's
pieces, once per input for all times.

Record order.  Whatever the scan order, the kernel hands each pair's pick
to ``conclude`` in the order of the pairs (state-major: pair i * n_inputs + j
is state i with input j), so the records, the witness choice and the rows
of ``margins.csv`` keep their order; only order-free maxima (ULIM's tau_hat,
BRS's empirical sup, CEP's sup) see the input-major order.

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
for bit while they stay clear of the subnormal range.

Tolerances scale with the magnitude of the compared quantities,
tol = tol_rel * (1 + scale), mostly with scale = |x0| + |u|_inf.  Pointwise
norm comparisons use tol_rel = 1e-9.  Closed-form integrals use 1e-12:
against a fine per-segment Simpson reference their error is at most 3e-14
times (1 + |x0| + |u|_inf) on the bundled scenarios and the benchmark's.
Simpson integrals use 1e-6, above their error of at most 3.2e-8 times the
same scale on those samples (alpha = c r**2, c r and c r**0.1).
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, replace

import numpy as np

from .comparison import (ComparisonFunction, ISSCertificate, NormToIntegralCertificate,
                         evaluate)
from .errors import DomainError, ValidationError
from .lyapunov import (DEFAULT_DINI_H, DissipationParameters, LyapunovOperator,
                       dini_estimate)
from .report import CheckProperty, StabilityReport, conclude
from .system import (InputSignal, SpectralSystem, _flow_at, _flow_norms,
                     _square_integrals, build_time_grid, kappa_bounds, mild_solution,
                     seeded_rng, state_norm)

POINT_TOL = 1e-9      # pointwise comparisons
QUAD_TOL = 1e-6       # Simpson-backed integral comparisons
EXACT_TOL = 1e-12     # closed-form integral comparisons
COCYCLE_TOL = 1e-10   # relative cocycle deviation
ULIM_GRID_POINTS = 513  # fixed hitting-time grid, independent of the budget
CEP_LEVELS = 4       # rows eps_j of the continuity table
CEP_HALVINGS = 8     # candidate deltas eps_j / 2**i per row
#: CEP reads its table off one sweep when the radius r and the bound
#: r (1 + |B/A|) on |phi| lie in this range: every level's norms and their
#: squares then stay far from the subnormal and the overflow range.
_CEP_SCALED_RANGE = (2.0 ** -400, 2.0 ** 400)


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
    rng = seeded_rng(budget.seed, 11, i)
    if i % 5 == 3 and n > 1:
        k = int(rng.integers(n // 2, n))
        x[k] = r * rng.uniform(0.25, 1.0) * rng.choice((-1.0, 1.0))
        return x
    d = min(n, 8)
    g = rng.standard_normal(d)
    nrm = float(np.linalg.norm(g))
    if nrm == 0.0:
        g[0], nrm = 1.0, 1.0
    x[:d] = g / nrm * r * rng.uniform() ** (1.0 / d)
    return x


def draw_input(budget: SampleBudget, j: int) -> InputSignal:
    """Input sample j: zero, constant full amplitude, then random segments."""
    if j == 0:
        return InputSignal.zero()
    if j == 1:
        return InputSignal.constant(budget.radius, budget.horizon)
    rng = seeded_rng(budget.seed, 22, j)
    m = int(rng.integers(1, 9))
    cuts = np.sort(rng.uniform(0.0, budget.horizon, m - 1))
    cuts = np.unique(cuts[(cuts > 0.0) & (cuts < budget.horizon)])
    values = rng.uniform(-budget.radius, budget.radius, cuts.size + 1)
    breakpoints = np.concatenate([[0.0], cuts, [budget.horizon]])
    return InputSignal(breakpoints, values)


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
    return np.unique(np.concatenate([[0.0, budget.horizon], budget.horizon * vdc]))


class _Samples:
    """A sample set: the states, their norms |x0| (a column) and the inputs.

    Pair ``i * len(inputs) + j`` is state i with input j.  ``sweep(kind)``
    gives, per input, a grid and the flow norms of every state on it (rows),
    swept once per input, for the budget's pointwise probe (``"probe"``: the
    evaluation times plus the input's breakpoints below the horizon) or its
    ULIM grid (``"ulim"``: uniform, the same for every input); with
    ``union`` set, the first request sweeps each input once on the union of
    both grids and keeps both column sets.
    """

    def __init__(self, sys: SpectralSystem, states, inputs, budget=None, union=False):
        self.sys, self.states, self.inputs, self.budget = sys, states, inputs, budget
        self.r = np.array([[state_norm(x0)] for x0 in states])
        self._union = union
        self._swept: dict[str, list] = {}

    @classmethod
    def draw(cls, sys: SpectralSystem, budget: SampleBudget, union=False) -> "_Samples":
        return cls(sys, [draw_state(sys, budget, i) for i in range(budget.n_states)],
                   [draw_input(budget, j) for j in range(budget.n_inputs)], budget, union)

    def pairs(self):
        """(pair index, state index, input index) in pair order."""
        n = len(self.inputs)
        for i in range(len(self.states)):
            for j in range(n):
                yield i * n + j, i, j

    def sweep(self, kind: str) -> list:
        if kind not in self._swept:
            kinds = ("probe", "ulim") if self._union else (kind,)
            times, horizon = eval_times(self.budget), self.budget.horizon
            ulim = ulim_grid(self.budget)
            for k in kinds:
                self._swept[k] = []
            for u in self.inputs:
                grid_of = {"probe": np.union1d(times, u.breakpoints[u.breakpoints < horizon]),
                           "ulim": ulim}
                grids = [grid_of[k] for k in kinds]
                grid = np.unique(np.concatenate(grids))
                norms = _flow_norms(self.sys, self.states, u, grid)
                for k, g in zip(kinds, grids):
                    self._swept[k].append((g, norms[:, np.searchsorted(grid, g)]))
        return self._swept[kind]


# The checks keep their public signatures, which take a budget, so a run's
# sharing is scoped by a context variable, as np.errstate scopes its
# settings; each block owns its memo and drops it on exit.
_RUN: ContextVar = ContextVar("isslab_shared_samples", default=None)


def _ulim_budget(r: float, budget: SampleBudget) -> SampleBudget:
    """The sample budget ``check_ulim(..., r, budget)`` draws from."""
    return replace(budget, radius=r)


@contextmanager
def _shared_samples(ulim=()):
    """Within the block, checks on the same system and budget share one draw
    and one pointwise sweep; ``run_scenario`` opens one around a scenario's
    checks.  ``ulim`` holds the ``(r, budget)`` arguments of every
    ``check_ulim`` call the block will make; on their sample sets the sweep
    also covers the ULIM grid.  Nothing outlives the block."""
    token = _RUN.set((frozenset(_ulim_budget(r, b) for r, b in ulim), {}))
    try:
        yield
    finally:
        _RUN.reset(token)


def _samples(sys: SpectralSystem, budget: SampleBudget) -> _Samples:
    """The budget's sample set: the shared one inside :func:`_shared_samples`,
    else a fresh draw."""
    run = _RUN.get()
    if run is None:
        return _Samples.draw(sys, budget)
    ulim_budgets, memo = run
    key = (sys, budget)
    if key not in memo:
        memo[key] = _Samples.draw(sys, budget, union=budget in ulim_budgets)
    return memo[key]


def _tol(scale: float, rel: float = POINT_TOL) -> float:
    return rel * (1.0 + scale)


def _require_positive(**values: float) -> None:
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0.0):
            raise DomainError(f"{name} must be positive and finite, got {value!r}")


# ---------------------------------------------------------------------------
# the sampling kernel


def _pair_tol(rel: float = POINT_TOL):
    return lambda r, u: _tol(r + u.sup_norm, rel)


def _sweep(prop: CheckProperty, samples: _Samples, lhs, bound, best: bool = False,
           tol=_pair_tol()) -> StabilityReport:
    """The sampling loop of every trajectory checker.

    The sample set is scanned input by input.  ``lhs(samples, j)`` gives
    the evaluation times and the compared functional of the flow (|phi| or
    an integral of alpha(|phi|)) for all states with input j at once, one row
    per state, and ``bound(r, u, times)`` the bound for the column r of their
    norms |x0|.  Per pair the margins are bound - lhs; the smallest (the
    largest if ``best``) is the pair's pick, with witness tolerance
    ``tol(|x0|, u)``, and the picks are concluded in pair order.
    """
    n_inputs = len(samples.inputs)
    picks = [None] * (len(samples.states) * n_inputs)
    for j, u in enumerate(samples.inputs):
        times, lhs_rows = lhs(samples, j)
        margin_rows = bound(samples.r, u, times) - lhs_rows
        chosen = np.argmax(margin_rows, axis=1) if best else np.argmin(margin_rows, axis=1)
        for i, (margins, k) in enumerate(zip(margin_rows, chosen.tolist())):
            picks[i * n_inputs + j] = (i * n_inputs + j, times[k], margins[k],
                                       tol(samples.r[i, 0], u), samples.states[i], u)
    return conclude(prop, picks)


def _one(sys: SpectralSystem, x0, u: InputSignal) -> _Samples:
    return _Samples(sys, [x0], [u])


def _norms(probe):
    """lhs |phi| at the evaluation times of ``probe(u) = (grid, times)``."""
    def lhs(samples, j):
        u = samples.inputs[j]
        grid, times = probe(u)
        norms = _flow_norms(samples.sys, samples.states, u, grid)
        return times, norms[:, _grid_indices(grid, times)]
    return lhs


def _swept(kind: str):
    """lhs |phi| on the sample set's shared sweep of ``kind``."""
    return lambda samples, j: samples.sweep(kind)[j]


def _at_time(t: float):
    grid = np.unique([0.0, float(t)])
    return lambda u: (grid, grid[-1:])


def _grid_indices(grid: np.ndarray, times) -> np.ndarray:
    if not np.all(np.isin(times, grid)):
        raise ValidationError("the grid must contain every evaluation time")
    return np.searchsorted(grid, times)


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


def _iss_bound(cert: ISSCertificate):
    return lambda r, u, t: cert.bound(r, u.sup_norm, t)


def iss_margin(sys: SpectralSystem, cert: ISSCertificate, x0, u: InputSignal,
               t: float) -> float:
    """beta(|x0|, t) + gamma(|u|_inf) - |phi(t, x0, u)|."""
    return _sweep(CheckProperty.ISS, _one(sys, x0, u), _norms(_at_time(t)),
                  _iss_bound(cert)).worst_margin


def check_iss(sys: SpectralSystem, cert: ISSCertificate,
              budget: SampleBudget) -> StabilityReport:
    return _sweep(CheckProperty.ISS, _samples(sys, budget), _swept("probe"),
                  _iss_bound(cert))


def _uls_bound(sigma_fn: ComparisonFunction, gamma_fn: ComparisonFunction):
    return lambda r, u, t: evaluate(sigma_fn, r) + evaluate(gamma_fn, u.sup_norm)


def uls_margin(sys: SpectralSystem, sigma_fn: ComparisonFunction,
               gamma_fn: ComparisonFunction, x0, u: InputSignal, t: float) -> float:
    """sigma(|x0|) + gamma(|u|_inf) - |phi(t, x0, u)|."""
    return _sweep(CheckProperty.ULS, _one(sys, x0, u), _norms(_at_time(t)),
                  _uls_bound(sigma_fn, gamma_fn)).worst_margin


def check_uls(sys: SpectralSystem, sigma_fn: ComparisonFunction,
              gamma_fn: ComparisonFunction, r: float,
              budget: SampleBudget) -> StabilityReport:
    """Static bound sigma(|x0|) + gamma(|u|) over the ball of radius r."""
    _require_positive(r=r)
    return _sweep(CheckProperty.ULS, _samples(sys, replace(budget, radius=r)),
                  _swept("probe"), _uls_bound(sigma_fn, gamma_fn))


def _ulim_level(gamma_fn: ComparisonFunction, eps: float):
    return lambda r, u, t: eps + evaluate(gamma_fn, u.sup_norm)


def ulim_slack(sys: SpectralSystem, gamma_fn: ComparisonFunction, eps: float,
               x0, u: InputSignal, grid) -> float:
    """Best slack eps + gamma(|u|) - |phi(t)| over the grid; >= 0 iff a hit."""
    grid = np.asarray(grid, dtype=float)
    return _sweep(CheckProperty.ULIM, _one(sys, x0, u), _norms(lambda _: (grid, grid)),
                  _ulim_level(gamma_fn, eps), best=True).worst_margin


def check_ulim(sys: SpectralSystem, gamma_fn: ComparisonFunction, eps: float,
               r: float, budget: SampleBudget) -> StabilityReport:
    """Search each trajectory for a dip below eps + gamma(|u|_inf).

    The hitting-time search runs on a fixed uniform grid (independent of
    n_times) so that enlarging a budget can only add samples, never change
    the per-sample search; the empirical uniform hitting time tau is the
    maximum first-hit time over the samples and is reported in the notes.
    """
    _require_positive(eps=eps, r=r)
    samples, level = _samples(sys, _ulim_budget(r, budget)), _ulim_level(gamma_fn, eps)
    report = _sweep(CheckProperty.ULIM, samples, _swept("ulim"), level, best=True,
                    tol=lambda r, u: 0.0)
    tau_hat = 0.0
    for u, (times, norms) in zip(samples.inputs, samples.sweep("ulim")):
        hits = level(samples.r, u, times) - norms >= 0.0
        if not hits.any(axis=1).all():
            return replace(report, notes="horizon exhausted for some sample")
        tau_hat = max(tau_hat, float(np.max(times[np.argmax(hits, axis=1)])))
    return replace(report, notes=f"tau_hat={tau_hat!r}")


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
    round differently).  Radii outside ``_CEP_SCALED_RANGE``, and radii at
    which |phi| could overflow while half of it does not, sweep every level
    as stated above.  A level that no delta satisfies sweeps its last
    halving for the exact witness.
    """
    _require_positive(h=h)
    local = replace(budget, horizon=h)
    gain = sys.input_gain_norm
    scaled = (_CEP_SCALED_RANGE[0] <= budget.radius
              and budget.radius * (1.0 + gain) <= _CEP_SCALED_RANGE[1])
    sup = (max(float(np.max(norms)) for _, norms in _samples(sys, local).sweep("probe"))
           if scaled else None)
    picks, table = [], []
    for j in range(CEP_LEVELS):
        eps_j = budget.radius * 2.0 ** (-j)
        chosen_delta, witness = None, None
        for i in range(1, CEP_HALVINGS + 1):
            delta = eps_j / 2.0 ** i
            margin = eps_j - sup * 2.0 ** -(j + i) if scaled else -math.inf
            if margin < 0.0 and (i == CEP_HALVINGS or not scaled):
                level = _sweep(CheckProperty.CEP, _samples(sys, replace(local, radius=delta)),
                               _swept("probe"), lambda r, u, t: eps_j, tol=lambda r, u: 0.0)
                margin, witness = level.worst_margin, level.witness
            if margin >= 0.0:
                chosen_delta = delta
                break
        if witness is None:
            picks.append((j, h, margin, 0.0, np.zeros(sys.n_modes), InputSignal.zero()))
        else:
            picks.append((j, witness.t, witness.margin, 0.0, witness.x0, witness.input))
        table.append((eps_j, chosen_delta))
    notes = "table " + "; ".join(
        f"eps={e!r}->delta={d!r}" for e, d in table)
    return conclude(CheckProperty.CEP, picks, notes=notes)


def check_brs(sys: SpectralSystem, C: float, tau: float,
              budget: SampleBudget) -> StabilityReport:
    """A-priori reachability bound C (1 + kappa(tau)) on [0, tau]; its input
    half is exact, since kappa(tau) is the smallest admissibility constant."""
    _require_positive(C=C, tau=tau)
    bound = C * (1.0 + kappa_bounds(sys, tau).upper)
    samples = _samples(sys, replace(budget, radius=C, horizon=tau))
    report = _sweep(CheckProperty.BRS, samples, _swept("probe"), lambda r, u, t: bound,
                    tol=lambda r, u: _tol(bound))
    sup = max(float(np.max(norms)) for _, norms in samples.sweep("probe"))
    return replace(report, notes=f"empirical_sup={sup!r} bound={bound!r}")


# ---------------------------------------------------------------------------
# integral checks


def _segment_starts(grid: np.ndarray, u: InputSignal, end: float) -> np.ndarray:
    """Grid indices of the input's breakpoints in (0, end), which the grid
    must hold."""
    bps = u.breakpoints[(u.breakpoints > 0.0) & (u.breakpoints < end)]
    if not np.all(np.isin(bps, grid)):
        raise ValidationError("quadrature grid must refine the input breakpoints")
    return np.searchsorted(grid, bps)


def _simpson_integrals(vals: np.ndarray, grid: np.ndarray, at, starts) -> np.ndarray:
    """Composite-Simpson integrals of the sampled values (last axis) from 0
    to each grid[at], with the rule of :func:`_prefix_integrals` restarted
    at every grid index in ``starts``, so that no panel straddles an input
    breakpoint, where the flow has a kink."""
    at = np.asarray(at)
    top = int(at.max())
    edges = np.unique(np.concatenate([[0], starts[starts < top], [top]]))
    out = np.zeros(vals.shape[:-1] + at.shape)
    base = np.zeros(vals.shape[:-1] + (1,))
    for lo, hi in zip(edges[:-1], edges[1:]):
        j = np.nonzero((at > lo) & (at <= hi))[0]
        local = _prefix_integrals(vals[..., lo:hi + 1], grid[lo:hi + 1],
                                  np.append(at[j] - lo, hi - lo))
        out[..., j] = base + local[..., :-1]
        base = base + local[..., -1:]
    return out


def _integrals(alpha: ComparisonFunction, times: np.ndarray, horizon: float):
    """The lhs int_0^t alpha(|phi|) at each evaluation time and its witness
    tolerance.  For alpha = c r**2 the integral is taken in closed form, else
    by Simpson per input segment on a grid graded after 0 and each input
    breakpoint."""
    if alpha.form == "power" and alpha.params[1] == 2.0:
        c = alpha.params[0]
        return (lambda samples, j: (times, c * _square_integrals(
            samples.sys, samples.states, samples.inputs[j], times)), _pair_tol(EXACT_TOL))

    def lhs(samples, j):
        u = samples.inputs[j]
        g = build_time_grid(horizon, u, extra=times)
        vals = evaluate(alpha, _flow_norms(samples.sys, samples.states, u, g))
        return times, _simpson_integrals(vals, g, _grid_indices(g, times),
                                         _segment_starts(g, u, float(times[-1])))
    return lhs, _pair_tol(QUAD_TOL)


def _input_integrals(u: InputSignal, sigma_fn: ComparisonFunction, times) -> np.ndarray:
    """int_0^t sigma(|u(s)|) ds at each of ``times``: the integrals up to the
    breakpoints, summed cumulatively, plus the piece after the last one
    below t (the zero tail after the last breakpoint adds nothing)."""
    times = np.asarray(times, dtype=float)
    if np.any(times < 0.0):
        raise DomainError("inputs are defined on t >= 0")
    bp = u.breakpoints
    levels = np.append(evaluate(sigma_fn, np.abs(u.values)), 0.0)
    cum = np.concatenate([[0.0], np.cumsum(np.diff(bp) * levels[:-1])])
    i = np.searchsorted(bp, times, side="right") - 1
    return cum[i] + levels[i] * (times - bp[i])


def _nti_bound(cert: NormToIntegralCertificate):
    return lambda r, u, t: cert.rhs(r, u.sup_norm, t)


def norm_to_integral_margin(sys: SpectralSystem, cert: NormToIntegralCertificate,
                            x0, u: InputSignal, t: float,
                            budget: SampleBudget | None = None) -> float:
    """psi(|x0|) + t sigma(|u|_inf) - int_0^t alpha(|phi|).

    The integral is taken in closed form for alpha = c r**2, else by Simpson
    on a graded grid: given ``budget``, the grid on which
    :func:`check_norm_to_integral` integrates over that budget, so that its
    witness replays to its margin (t must be one of the budget's evaluation
    times); without, a grid on [0, t].
    """
    if budget is None:
        times, horizon = np.array([float(t)]), max(t, 1e-6)
    else:
        times, horizon = eval_times(budget), budget.horizon
    lhs, _ = _integrals(cert.alpha, times, horizon)
    at = _grid_indices(times, [float(t)])

    def lhs_at_t(samples, j):
        times_, integrals = lhs(samples, j)
        return times_[at], integrals[:, at]
    return _sweep(CheckProperty.NORM_TO_INTEGRAL_ISS, _one(sys, x0, u), lhs_at_t,
                  _nti_bound(cert)).worst_margin


def check_norm_to_integral(sys: SpectralSystem, cert: NormToIntegralCertificate,
                           budget: SampleBudget) -> StabilityReport:
    """int alpha(|phi|) <= psi(|x0|) + t sigma(|u|_inf) on the sample set."""
    lhs, tol = _integrals(cert.alpha, eval_times(budget), budget.horizon)
    return _sweep(CheckProperty.NORM_TO_INTEGRAL_ISS, _samples(sys, budget), lhs,
                  _nti_bound(cert), tol=tol)


def check_integral_to_integral(sys: SpectralSystem, cert: NormToIntegralCertificate,
                               budget: SampleBudget) -> StabilityReport:
    """int alpha(|phi|) <= psi(|x0|) + int sigma(|u(s)|) ds; outcome is
    reported, not asserted, since the stronger estimate may genuinely fail."""
    def bound(r, u, times):
        return evaluate(cert.psi, r) + _input_integrals(u, cert.sigma, times)
    lhs, tol = _integrals(cert.alpha, eval_times(budget), budget.horizon)
    return _sweep(CheckProperty.INTEGRAL_TO_INTEGRAL_ISS, _samples(sys, budget), lhs,
                  bound, tol=tol)


# ---------------------------------------------------------------------------
# dissipation and axioms


def dissipation_margin(sys: SpectralSystem, op: LyapunovOperator,
                       params: DissipationParameters, x0, u: InputSignal,
                       h_seq=DEFAULT_DINI_H) -> float:
    est = dini_estimate(op, sys, x0, u, h_seq)
    return params.rhs(state_norm(x0) ** 2, u.sup_norm) - est.value


def check_dissipation(sys: SpectralSystem, op: LyapunovOperator,
                      params: DissipationParameters, budget: SampleBudget,
                      h_seq=DEFAULT_DINI_H) -> StabilityReport:
    """Vdot surrogate against (eps-1)|x0|^2 + c(eps)|u|_inf^2 per sample."""
    samples = _samples(sys, budget)
    picks = []
    for idx, i, j in samples.pairs():
        x0, u = samples.states[i], samples.inputs[j]
        margin = dissipation_margin(sys, op, params, x0, u, h_seq)
        tol = 1e-4 * (1.0 + float(samples.r[i, 0]) ** 2 + u.sup_norm ** 2)
        picks.append((idx, 0.0, margin, tol, x0, u))
    return conclude(CheckProperty.DISSIPATION, picks)


def check_identity(sys: SpectralSystem, budget: SampleBudget) -> StabilityReport:
    """Identity (phi(0) == x0 bit for bit) and causality (agreeing inputs
    give identical states); any deviation at all is a violation."""
    samples = _samples(sys, budget)
    x0s = np.array(samples.states)
    t_mid = 0.5 * budget.horizon
    at_0, at_mid = np.zeros(len(x0s)), np.full(len(x0s), t_mid)
    tail = InputSignal.constant(0.37 * (1.0 + budget.radius), 1.0)
    dev, dev_c = [], []   # per input, per state
    for u in samples.inputs:
        u_twin = u.concatenated(tail, t_mid)
        dev.append(np.max(np.abs(_flow_at(sys, x0s, u, at_0) - x0s), axis=1).tolist())
        dev_c.append(np.max(np.abs(_flow_at(sys, x0s, u, at_mid)
                                   - _flow_at(sys, x0s, u_twin, at_mid)), axis=1).tolist())
    picks = [(idx, 0.0 if dev[j][i] >= dev_c[j][i] else t_mid,
              -max(dev[j][i], dev_c[j][i]), 0.0, samples.states[i], samples.inputs[j])
             for idx, i, j in samples.pairs()]
    return conclude(CheckProperty.IDENTITY, picks)


def check_cocycle(sys: SpectralSystem, budget: SampleBudget) -> StabilityReport:
    """phi(t+h, x0, u) against the flow restarted at t, relative to |phi(t+h)|."""
    samples = _samples(sys, budget)
    x0s = np.array(samples.states)
    shape = (len(samples.states), len(samples.inputs))
    t, h, margins = np.empty(shape), np.empty(shape), np.empty(shape)
    for idx, i, j in samples.pairs():
        rng = seeded_rng(budget.seed, 33, idx)
        t[i, j] = rng.uniform(0.0, 0.6 * budget.horizon)
        h[i, j] = rng.uniform(0.0, 0.4 * budget.horizon)
    for j, u in enumerate(samples.inputs):
        direct = _flow_at(sys, x0s, u, t[:, j] + h[:, j])
        mid = _flow_at(sys, x0s, u, t[:, j])
        for i in range(shape[0]):
            restart = mild_solution(sys, mid[i], u.shifted(float(t[i, j])), float(h[i, j]))
            margins[i, j] = (COCYCLE_TOL * (1.0 + state_norm(direct[i]))
                             - state_norm(direct[i] - restart))
    return conclude(CheckProperty.COCYCLE,
                    [(idx, t[i, j] + h[i, j], margins[i, j], 0.0, samples.states[i],
                      samples.inputs[j]) for idx, i, j in samples.pairs()])

