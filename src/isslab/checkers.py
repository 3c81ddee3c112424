"""Falsification-style checkers for the stability zoo.

Each checker scans a deterministic sample set of initial states, inputs and
times for a violation of one universally quantified inequality.  A violation
is reported with a replayable witness; otherwise the verdict is
``no_violation_found``, which is evidence, not proof.

One kernel.  The trajectory estimates (ISS, ULS, ULIM, BRS, CEP and the two
integral forms) all say that a comparison bound minus a functional of the
flow phi(t, x0, u), |phi| or the integral of alpha(|phi|), is nonnegative at
every sampled (x0, u, t).  ``_scan`` is the one loop that checks them, and
the single-sample functions (``iss_margin``, ``uls_margin``, ``ulim_slack``,
``norm_to_integral_margin``) run it on one pair, so a witness replays
through the checker's own arithmetic.  The axiom and dissipation checks
compare point values of ``mild_solution`` and loop over the pairs directly;
``mild_solution`` is the kernel's row at that time bit for bit, so identity,
causality, cocycle and the Dini quotients test the flow behind every margin.

Superposition.  The systems are linear, so from an anchor a (0 or an input
breakpoint) the flow is exp(-lambda (t - a)) phi(a) plus a forced term that
depends on the input alone.  The kernel therefore scans input by input and
asks for the compared functional of all the input's states at once; the
bound is evaluated once per input too, on the column of state norms.  For
|phi| it builds the probe grid once and evaluates the flow in blocks of at
most 256 grid rows, computing the decays and the forced term once per block
and adding each state's decayed anchor state.  No array larger than a block
of rows by the modes is built per state, and only the norms (states by
grid) are kept.  The flow is the block helper of ``sample_trajectory``, so
the kernel's norms are those of ``sample_trajectory(...).norms()`` bit for
bit.

Integrals.  For alpha = c r**2, the form of every bundled certificate and
of the default, int_0^t alpha(|phi|) has a closed form per input segment
(``system._square_integrals``): the anchor states of ``mild_solution``, the
full segments summed cumulatively, plus the piece from the last anchor
below t, for all states, times and modes in one pass, with no grid.  Any
other alpha, or a grid given by the caller, takes composite Simpson on a
grid graded after 0 and after each input breakpoint (or the caller's,
which must hold the breakpoints), restarted at every breakpoint so that no
panel straddles a kink of the flow.  The integral of sigma(|u|) in the
integral-to-integral bound is exact: a cumulative sum over the input's
pieces, once per input for all times.

Record order.  Whatever the scan order, the kernel hands each pair's pick
to the tracker in the order of the pairs (state-major for ``iter_pairs``),
so the records, the witness choice and the rows of ``margins.csv`` keep
their order; only order-free maxima (ULIM's tau_hat, BRS's empirical sup)
see the input-major order.

Sampling design.  States are drawn from the uniform ball in the first
min(N, 8) modes, plus isolated high modes e_k to exercise the non-coercive
direction, plus three canonical corners (the origin, the slowest mode at full
radius, the fastest mode at full radius).  Inputs are piecewise constant with
up to 8 random segments, preceded by the zero input and the constant
full-amplitude input.  Every sample is generated from its own seeded stream,
so enlarging a budget extends the sample set without reshuffling it: reported
minima can only decrease, and a ``violated`` verdict can never flip back.

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
from dataclasses import dataclass, replace

import numpy as np
# the rule _prefix_integrals follows; bench/tracer.py looks the name up here
from scipy.integrate import simpson  # noqa: F401

from .comparison import (ComparisonFunction, ISSCertificate, NormToIntegralCertificate,
                         evaluate, linear)
from .errors import DomainError, ValidationError
from .lyapunov import (DEFAULT_DINI_H, DissipationParameters, LyapunovOperator,
                       dini_estimate)
from .report import (CheckProperty, MarginRecord, StabilityReport, Witness,
                     conclude)
from .system import (InputSignal, SpectralSystem, _flow_blocks, _square_integrals,
                     build_time_grid, kappa_bounds, mild_solution, seeded_rng,
                     state_norm)

POINT_TOL = 1e-9      # pointwise comparisons
QUAD_TOL = 1e-6       # Simpson-backed integral comparisons
EXACT_TOL = 1e-12     # closed-form integral comparisons
COCYCLE_TOL = 1e-10   # relative cocycle deviation
ULIM_GRID_POINTS = 513  # fixed hitting-time grid, independent of the budget
CEP_LEVELS = 4       # rows eps_j of the continuity table
CEP_HALVINGS = 8     # candidate deltas eps_j / 2**i per row


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


def iter_pairs(sys: SpectralSystem, budget: SampleBudget):
    """Enumerate (index, x0, u) over the budget's state-input product set.

    Each input is drawn once and the same object is yielded for every state.
    """
    inputs = [draw_input(budget, j) for j in range(budget.n_inputs)]
    for si in range(budget.n_states):
        x0 = draw_state(sys, budget, si)
        for sj, u in enumerate(inputs):
            yield si * budget.n_inputs + sj, x0, u


def _tol(scale: float, rel: float = POINT_TOL) -> float:
    return rel * (1.0 + scale)


def _require_positive(**values: float) -> None:
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0.0):
            raise DomainError(f"{name} must be positive and finite, got {value!r}")


class _Tracker:
    """Accumulate per-sample margins and the worst replayable witness."""

    def __init__(self):
        self.records: list[MarginRecord] = []
        self.witness: Witness | None = None
        self._worst = math.inf

    def add(self, idx: int, t: float, margin: float, tol: float,
            x0: np.ndarray, u: InputSignal):
        self.records.append(MarginRecord(idx, float(t), float(margin)))
        if margin < -tol and margin < self._worst:
            self._worst = margin
            self.witness = Witness(x0=x0, input=u, t=float(t), margin=float(margin))


# ---------------------------------------------------------------------------
# the sampling kernel


def _pair_tol(rel: float = POINT_TOL):
    return lambda x0, u: _tol(state_norm(x0) + u.sup_norm, rel)


def _scan(sys: SpectralSystem, pairs, lhs, bound, tracker: _Tracker,
          best: bool = False, tol=_pair_tol()):
    """The sampling loop of every trajectory checker, as a generator.

    The pairs ``(index, x0, u)`` are grouped by input object and scanned
    input by input.  ``lhs(sys, x0s, u)`` gives the evaluation times and the
    compared functional of the flow (|phi| or an integral of alpha(|phi|))
    for all the input's states at once, one row per state, and
    ``bound(r, u, times)`` the bound for the column r of their norms |x0|.
    Per pair the margins are bound - lhs, and ``(times, lhs, margins, picked
    index)`` is yielded.  The smallest margin (the largest if ``best``) of
    each pair goes to ``tracker`` with witness tolerance ``tol(x0, u)``, in
    the order of ``pairs``, once every input is done.
    """
    groups = {}   # id(u) -> (u, members); holding u keeps its id from being reused
    n_pairs = 0
    for idx, x0, u in pairs:
        groups.setdefault(id(u), (u, []))[1].append((n_pairs, idx, x0))
        n_pairs += 1
    picks = [None] * n_pairs
    for u, members in groups.values():
        x0s = [x0 for _, _, x0 in members]
        times, lhs_rows = lhs(sys, x0s, u)
        r = np.array([[state_norm(x0)] for x0 in x0s])
        margin_rows = bound(r, u, times) - lhs_rows
        chosen = np.argmax(margin_rows, axis=1) if best else np.argmin(margin_rows, axis=1)
        for (pos, idx, x0), lhs_row, margins, i in zip(members, lhs_rows, margin_rows,
                                                      chosen.tolist()):
            picks[pos] = (idx, times[i], margins[i], tol(x0, u), x0, u)
            yield times, lhs_row, margins, i
    for pick in picks:
        tracker.add(*pick)


def _sweep(prop: CheckProperty, sys: SpectralSystem, pairs, lhs, bound,
           **options) -> StabilityReport:
    """Run :func:`_scan` to the end and conclude its report."""
    tracker = _Tracker()
    for _ in _scan(sys, pairs, lhs, bound, tracker, **options):
        pass
    return conclude(prop, tracker.records, tracker.witness)


def _flow_norms(sys: SpectralSystem, x0s, u: InputSignal, grid) -> np.ndarray:
    """|phi(grid, x0, u)| for each state of ``x0s`` (rows)."""
    norms = np.empty((len(x0s), np.size(grid)))
    for rows, s, block in _flow_blocks(sys, x0s, u, grid):
        norms[s, rows] = np.linalg.norm(block, axis=1)
    if not np.all(np.isfinite(norms)):
        raise ValidationError("trajectory states must be finite")
    return norms


def _norms(probe):
    """lhs |phi| at the evaluation times of ``probe(u) = (grid, times)``."""
    def lhs(sys, x0s, u):
        grid, times = probe(u)
        return times, _flow_norms(sys, x0s, u, grid)[:, _grid_indices(grid, times)]
    return lhs


def _pointwise_probe(budget: SampleBudget):
    """The evaluation times plus the input's breakpoints below the horizon."""
    times = eval_times(budget)

    def probe(u):
        bps = u.breakpoints[u.breakpoints < budget.horizon]
        grid = np.unique(np.concatenate([times, bps]))
        return grid, grid
    return probe


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


# ---------------------------------------------------------------------------
# pointwise trajectory-norm checks


def _iss_bound(cert: ISSCertificate):
    return lambda r, u, t: cert.bound(r, u.sup_norm, t)


def iss_margin(sys: SpectralSystem, cert: ISSCertificate, x0, u: InputSignal,
               t: float) -> float:
    """beta(|x0|, t) + gamma(|u|_inf) - |phi(t, x0, u)|."""
    return _sweep(CheckProperty.ISS, sys, [(0, x0, u)], _norms(_at_time(t)),
                  _iss_bound(cert)).worst_margin


def check_iss(sys: SpectralSystem, cert: ISSCertificate,
              budget: SampleBudget) -> StabilityReport:
    return _sweep(CheckProperty.ISS, sys, iter_pairs(sys, budget),
                  _norms(_pointwise_probe(budget)), _iss_bound(cert))


def _uls_bound(sigma_fn: ComparisonFunction, gamma_fn: ComparisonFunction):
    return lambda r, u, t: evaluate(sigma_fn, r) + evaluate(gamma_fn, u.sup_norm)


def uls_margin(sys: SpectralSystem, sigma_fn: ComparisonFunction,
               gamma_fn: ComparisonFunction, x0, u: InputSignal, t: float) -> float:
    """sigma(|x0|) + gamma(|u|_inf) - |phi(t, x0, u)|."""
    return _sweep(CheckProperty.ULS, sys, [(0, x0, u)], _norms(_at_time(t)),
                  _uls_bound(sigma_fn, gamma_fn)).worst_margin


def check_uls(sys: SpectralSystem, sigma_fn: ComparisonFunction,
              gamma_fn: ComparisonFunction, r: float,
              budget: SampleBudget) -> StabilityReport:
    """Static bound sigma(|x0|) + gamma(|u|) over the ball of radius r."""
    _require_positive(r=r)
    local = replace(budget, radius=r)
    return _sweep(CheckProperty.ULS, sys, iter_pairs(sys, local),
                  _norms(_pointwise_probe(local)), _uls_bound(sigma_fn, gamma_fn))


def _ulim_level(gamma_fn: ComparisonFunction, eps: float):
    return lambda r, u, t: eps + evaluate(gamma_fn, u.sup_norm)


def ulim_slack(sys: SpectralSystem, gamma_fn: ComparisonFunction, eps: float,
               x0, u: InputSignal, grid) -> float:
    """Best slack eps + gamma(|u|) - |phi(t)| over the grid; >= 0 iff a hit."""
    grid = np.asarray(grid, dtype=float)
    return _sweep(CheckProperty.ULIM, sys, [(0, x0, u)], _norms(lambda _: (grid, grid)),
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
    local = replace(budget, radius=r)
    grid = np.linspace(0.0, local.horizon, ULIM_GRID_POINTS)
    tracker = _Tracker()
    tau_hat, exhausted = 0.0, False
    for times, _, slack, _ in _scan(sys, iter_pairs(sys, local),
                                    _norms(lambda _: (grid, grid)),
                                    _ulim_level(gamma_fn, eps), tracker,
                                    best=True, tol=lambda x0, u: 0.0):
        hits = np.nonzero(slack >= 0.0)[0]
        if hits.size:
            tau_hat = max(tau_hat, float(times[hits[0]]))
        else:
            exhausted = True
    notes = "horizon exhausted for some sample" if exhausted else f"tau_hat={tau_hat!r}"
    return conclude(CheckProperty.ULIM, tracker.records, tracker.witness, notes=notes)


def check_cep(sys: SpectralSystem, budget: SampleBudget, h: float) -> StabilityReport:
    """Empirical continuity table at the equilibrium.

    For each tolerance eps_j = radius * 2**-j the probe finds the largest
    delta in {eps_j / 2**i} such that every sample with |x0|, |u|_inf <= delta
    stays within eps_j on [0, h].  The (eps_j, delta_j) table is reported in
    the notes; failure to find any workable delta is a violation.
    """
    _require_positive(h=h)
    tracker = _Tracker()
    table = []
    for j in range(CEP_LEVELS):
        eps_j = budget.radius * 2.0 ** (-j)
        chosen_delta = None
        for i in range(1, CEP_HALVINGS + 1):
            delta = eps_j / 2.0 ** i
            local = replace(budget, radius=delta, horizon=h)
            level = _sweep(CheckProperty.CEP, sys, iter_pairs(sys, local),
                           _norms(_pointwise_probe(local)), lambda r, u, t, e=eps_j: e,
                           tol=lambda x0, u: 0.0)
            if level.witness is None:
                chosen_delta = delta
                break
        w = level.witness or Witness(np.zeros(sys.n_modes), InputSignal.zero(), h,
                                     level.worst_margin)
        tracker.add(j, w.t, w.margin, 0.0, w.x0, w.input)
        table.append((eps_j, chosen_delta))
    notes = "table " + "; ".join(
        f"eps={e!r}->delta={d!r}" for e, d in table)
    return conclude(CheckProperty.CEP, tracker.records, tracker.witness, notes=notes)


def check_brs(sys: SpectralSystem, C: float, tau: float,
              budget: SampleBudget) -> StabilityReport:
    """A-priori reachability bound C (M + kappa_upper(tau)) on [0, tau]."""
    _require_positive(C=C, tau=tau)
    local = replace(budget, radius=C, horizon=tau)
    bound = C * (1.0 + kappa_bounds(sys, tau).upper)
    tracker = _Tracker()
    sup = 0.0
    for _, norms, _, _ in _scan(sys, iter_pairs(sys, local), _norms(_pointwise_probe(local)),
                                lambda r, u, t: bound, tracker,
                                tol=lambda x0, u: _tol(bound)):
        sup = max(sup, float(np.max(norms)))
    notes = f"empirical_sup={sup!r} bound={bound!r}"
    return conclude(CheckProperty.BRS, tracker.records, tracker.witness, notes=notes)


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


def _integrals(alpha: ComparisonFunction, times: np.ndarray, horizon: float, grid=None):
    """The lhs int_0^t alpha(|phi|) at each evaluation time and its witness
    tolerance.  For alpha = c r**2 and no caller grid the integral is taken
    in closed form, else by Simpson per input segment on the caller's grid
    or on one graded after 0 and each input breakpoint."""
    if grid is None and alpha.form == "power" and alpha.params[1] == 2.0:
        c = alpha.params[0]
        return (lambda sys, x0s, u: (times, c * _square_integrals(sys, x0s, u, times)),
                _pair_tol(EXACT_TOL))
    fixed = None if grid is None else np.asarray(grid, dtype=float)

    def lhs(sys, x0s, u):
        g = build_time_grid(horizon, u, extra=times) if fixed is None else fixed
        vals = evaluate(alpha, _flow_norms(sys, x0s, u, g))
        return times, _simpson_integrals(vals, g, _grid_indices(g, times),
                                         _segment_starts(g, u, float(times[-1])))
    return lhs, _pair_tol(QUAD_TOL)


def trajectory_integral(traj, f: ComparisonFunction, t: float) -> float:
    """Composite-Simpson integral of f(|phi(s)|) over [0, t] on the sampled
    grid, per input segment."""
    grid = traj.times
    starts = _segment_starts(grid, traj.input, float(grid[-1]))
    at = _grid_indices(grid, [t])
    return float(_simpson_integrals(evaluate(f, traj.norms()), grid, at, starts)[0])


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


def input_integral(u: InputSignal, sigma_fn: ComparisonFunction, t: float) -> float:
    """Exact integral of sigma(|u(s)|) over [0, t] for piecewise-constant u."""
    return float(_input_integrals(u, sigma_fn, [t])[0])


def _nti_bound(cert: NormToIntegralCertificate):
    return lambda r, u, t: cert.rhs(r, u.sup_norm, t)


def norm_to_integral_margin(sys: SpectralSystem, cert: NormToIntegralCertificate,
                            x0, u: InputSignal, t: float, grid=None) -> float:
    """psi(|x0|) + t sigma(|u|_inf) - int_0^t alpha(|phi|), with the integral
    taken as :func:`check_norm_to_integral` takes it: in closed form for
    alpha = c r**2 and no ``grid``, else by Simpson on ``grid`` (default: a
    graded grid on [0, t]), which must contain t."""
    lhs, _ = _integrals(cert.alpha, np.array([float(t)]), max(t, 1e-6), grid)
    return _sweep(CheckProperty.NORM_TO_INTEGRAL_ISS, sys, [(0, x0, u)], lhs,
                  _nti_bound(cert)).worst_margin


def check_norm_to_integral(sys: SpectralSystem, cert: NormToIntegralCertificate,
                           budget: SampleBudget, grid=None) -> StabilityReport:
    """int alpha(|phi|) <= psi(|x0|) + t sigma(|u|_inf) on the sample set."""
    lhs, tol = _integrals(cert.alpha, eval_times(budget), budget.horizon, grid)
    return _sweep(CheckProperty.NORM_TO_INTEGRAL_ISS, sys, iter_pairs(sys, budget), lhs,
                  _nti_bound(cert), tol=tol)


def check_integral_to_integral(sys: SpectralSystem, cert: NormToIntegralCertificate,
                               budget: SampleBudget, grid=None) -> StabilityReport:
    """int alpha(|phi|) <= psi(|x0|) + int sigma(|u(s)|) ds; outcome is
    reported, not asserted, since the stronger estimate may genuinely fail."""
    def bound(r, u, times):
        return evaluate(cert.psi, r) + _input_integrals(u, cert.sigma, times)
    lhs, tol = _integrals(cert.alpha, eval_times(budget), budget.horizon, grid)
    return _sweep(CheckProperty.INTEGRAL_TO_INTEGRAL_ISS, sys, iter_pairs(sys, budget),
                  lhs, bound, tol=tol)


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
    tracker = _Tracker()
    for idx, x0, u in iter_pairs(sys, budget):
        margin = dissipation_margin(sys, op, params, x0, u, h_seq)
        tol = 1e-4 * (1.0 + state_norm(x0) ** 2 + u.sup_norm ** 2)
        tracker.add(idx, 0.0, margin, tol, x0, u)
    return conclude(CheckProperty.DISSIPATION, tracker.records, tracker.witness)


def check_identity(sys: SpectralSystem, budget: SampleBudget) -> StabilityReport:
    """Identity (phi(0) == x0 bit for bit) and causality (agreeing inputs
    give identical states); any deviation at all is a violation."""
    tracker = _Tracker()
    t_mid = 0.5 * budget.horizon
    for idx, x0, u in iter_pairs(sys, budget):
        dev = float(np.max(np.abs(mild_solution(sys, x0, u, 0.0) - x0)))
        tail = InputSignal.constant(0.37 * (1.0 + budget.radius), 1.0)
        u_twin = u.concatenated(tail, t_mid)
        dev_c = float(np.max(np.abs(
            mild_solution(sys, x0, u, t_mid) - mild_solution(sys, x0, u_twin, t_mid))))
        margin = -max(dev, dev_c)
        tracker.add(idx, 0.0 if dev >= dev_c else t_mid, margin, 0.0, x0, u)
    return conclude(CheckProperty.IDENTITY, tracker.records, tracker.witness)


def check_cocycle(sys: SpectralSystem, budget: SampleBudget) -> StabilityReport:
    """phi(t+h, x0, u) against the flow restarted at t, relative to |phi(t+h)|."""
    tracker = _Tracker()
    for idx, x0, u in iter_pairs(sys, budget):
        rng = seeded_rng(budget.seed, 33, idx)
        t = float(rng.uniform(0.0, 0.6 * budget.horizon))
        h = float(rng.uniform(0.0, 0.4 * budget.horizon))
        direct = mild_solution(sys, x0, u, t + h)
        restart = mild_solution(sys, mild_solution(sys, x0, u, t), u.shifted(t), h)
        margin = COCYCLE_TOL * (1.0 + state_norm(direct)) - state_norm(direct - restart)
        tracker.add(idx, t + h, margin, 0.0, x0, u)
    return conclude(CheckProperty.COCYCLE, tracker.records, tracker.witness)


# ---------------------------------------------------------------------------
# the ISS equivalence battery


def run_iss_equivalence_battery(sys: SpectralSystem, cert: ISSCertificate,
                                budget: SampleBudget,
                                uls_sigma: ComparisonFunction | None = None,
                                ulim_eps: float = 0.1,
                                r: float | None = None) -> list[StabilityReport]:
    """Probe ULIM, ULS and BRS alongside ISS and cross-check the verdicts.

    ISS holds exactly when the three component properties do, so a violation
    on one side should be matched by a violation on the other within an
    enlarged budget.  Since these probes are falsifiers, agreement is
    one-directional evidence only; an unresolved mismatch is flagged in the
    notes of the affected reports for human review.
    """
    r = budget.radius if r is None else r
    uls_sigma = linear(cert.beta.M) if uls_sigma is None else uls_sigma
    reports = [
        check_ulim(sys, cert.gamma, ulim_eps, r, budget),
        check_uls(sys, uls_sigma, cert.gamma, r, budget),
        check_brs(sys, budget.radius, budget.horizon, budget),
        check_iss(sys, cert, budget),
    ]
    comp_violated = any(rep.violated for rep in reports[:3])
    iss_violated = reports[3].violated
    if comp_violated != iss_violated:
        big = replace(budget, n_states=budget.n_states * 3,
                      n_inputs=budget.n_inputs * 2)
        if comp_violated and not iss_violated:
            retry = check_iss(sys, cert, big)
            if retry.violated:
                reports[3] = replace(retry, notes="violated under the enlarged "
                                     "consistency budget")
            else:
                reports[3] = replace(reports[3], notes="inconsistent with component "
                                     "probes even after budget enlargement; review")
        else:
            retry = [check_ulim(sys, cert.gamma, ulim_eps, r, big),
                     check_uls(sys, uls_sigma, cert.gamma, r, big),
                     check_brs(sys, budget.radius, budget.horizon, big)]
            if any(rep.violated for rep in retry):
                for i, rep in enumerate(retry):
                    if rep.violated:
                        reports[i] = replace(rep, notes="violated under the enlarged "
                                             "consistency budget")
            else:
                reports[3] = replace(reports[3], notes="ISS violation not matched by "
                                     "any component probe after enlargement; review")
    return reports
