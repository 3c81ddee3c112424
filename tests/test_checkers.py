"""Tests for the falsification checkers: verdicts, witnesses, budgets, quadrature."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import simpson

from isslab import (CheckProperty, DecayEnvelope, DomainError, HeatDirichletParams,
                    ISSCertificate, InputSignal, MarginRecord,
                    NormToIntegralCertificate, SampleBudget, SpectralSystem,
                    ValidationError, build_neg_inverse, build_datko, build_time_grid,
                    check_brs, check_cep, check_cocycle, check_dissipation,
                    check_identity, check_iss, check_integral_to_integral,
                    check_norm_to_integral, check_ulim, check_uls, compose,
                    derive_norm_to_integral, dissipation_constants, draw_input, draw_state,
                    heat_dirichlet, kappa_bounds, linear, power, sample_trajectory,
                    iss_margin, uls_margin, ulim_slack, Verdict)
from isslab.checkers import (CEP_HALVINGS, CEP_LEVELS, COCYCLE_TOL,
                             _Samples, _grid_indices, _input_integrals, _norms,
                             _prefix_integrals, _segment_starts, _shared_samples,
                             _simpson_integrals, _sweep, _swept, dissipation_margin, eval_times,
                             norm_to_integral_margin, ulim_grid)
from isslab.comparison import evaluate
from isslab.system import _square_integrals
from isslab.report import Witness, conclude
from isslab.system import mild_solution, seeded_rng, state_norm

PI2 = math.pi ** 2
SQRT3 = math.sqrt(3.0)


def heat(n=64, a=1.0):
    return heat_dirichlet(HeatDirichletParams(a=a, n_modes=n))


def heat_cert(gain=1.0 / SQRT3):
    return ISSCertificate(DecayEnvelope(1.0, PI2), linear(gain))


def nti_cert():
    return NormToIntegralCertificate(alpha=power(0.5, 2.0),
                                     psi=power(1.0 / PI2, 2.0),
                                     sigma=power(2.0 / 3.0, 2.0))


BUDGET = SampleBudget(n_states=12, n_inputs=8, n_times=17, horizon=2.0,
                      radius=1.0, seed=42)


def simpson_integral(traj, f, t):
    """The checkers' per-segment composite Simpson of f(|phi|) over [0, t]
    on the trajectory's own grid."""
    grid = traj.times
    starts = _segment_starts(grid, traj.input, float(grid[-1]))
    vals = evaluate(f, traj.norms())
    return float(_simpson_integrals(vals, grid, _grid_indices(grid, [t]), starts)[0])


# ---------------------------------------------------------------------------
# determinism and budget monotonicity


def test_reports_are_deterministic():
    sys = heat()
    r1 = check_iss(sys, heat_cert(), BUDGET)
    r2 = check_iss(sys, heat_cert(), BUDGET)
    assert r1.to_line() == r2.to_line()
    assert r1.margins == r2.margins


def test_enlarged_budget_keeps_violations():
    sys = heat()
    bad = heat_cert(gain=0.1)
    small = check_iss(sys, bad, BUDGET)
    assert small.violated
    for grown in (replace(BUDGET, n_states=BUDGET.n_states * 2),
                  replace(BUDGET, n_inputs=BUDGET.n_inputs * 2),
                  replace(BUDGET, n_times=BUDGET.n_times * 2)):
        big = check_iss(sys, bad, grown)
        assert big.violated
        assert big.worst_margin <= small.worst_margin + 1e-15


def test_enlarged_budget_never_raises_minimum():
    sys = heat()
    base = check_iss(sys, heat_cert(), BUDGET)
    big = check_iss(sys, heat_cert(), replace(BUDGET, n_states=BUDGET.n_states * 2,
                                              n_times=BUDGET.n_times * 2))
    assert big.worst_margin <= base.worst_margin + 1e-15


def test_eval_times_prefix_property():
    small = eval_times(BUDGET)
    large = eval_times(replace(BUDGET, n_times=2 * BUDGET.n_times))
    assert np.all(np.isin(small, large))


def _van_der_corput(k):
    v, denom = 0.0, 1.0
    while k:
        denom *= 2.0
        v += (k & 1) / denom
        k >>= 1
    return v


@pytest.mark.parametrize("n_times, horizon", [(1, 2.0), (33, 2.0), (100, 0.37), (4097, 1e-300)])
def test_eval_times_match_the_scalar_van_der_corput_loop(n_times, horizon):
    want = np.unique([0.0, horizon] + [horizon * _van_der_corput(k)
                                       for k in range(1, n_times + 1)])
    got = eval_times(replace(BUDGET, n_times=n_times, horizon=horizon))
    assert got.tobytes() == want.tobytes()


def test_budget_validation():
    with pytest.raises(ValidationError):
        SampleBudget(n_states=0)
    with pytest.raises(ValidationError):
        SampleBudget(horizon=-1.0)
    with pytest.raises(ValidationError):
        SampleBudget(radius=0.0)
    with pytest.raises(ValidationError):
        SampleBudget(horizon=math.nan)
    with pytest.raises(ValidationError):
        SampleBudget(radius=math.inf)


def test_negative_seeds_draw_their_own_samples():
    for j in range(2, 6):
        assert not np.array_equal(draw_input(SampleBudget(seed=-5), j).values,
                                  draw_input(SampleBudget(seed=5), j).values)
    # seeds in [0, 2**63) keep their streams
    pinned = draw_input(SampleBudget(seed=101), 4)
    assert pinned.breakpoints.tolist() == [0.0, 0.6280325945783134,
                                           0.8469121867610734, 2.0]
    assert pinned.values.tolist() == [0.4201837450249144, -0.14940055162316535,
                                      0.5903798097151014]


def test_non_finite_margin_is_never_a_clean_verdict():
    x0, u = np.zeros(2), InputSignal.zero()
    for margin in (math.nan, -math.inf):
        picks = [(2, 0.0, -1.0, 0.0, x0, u), (3, 0.0, margin, 0.0, x0, u)]
        with pytest.raises(ValidationError, match="ULIM.*sample 3"):
            conclude(CheckProperty.ULIM, picks)


def _reference_conclusion(picks):
    """The witness rule as a loop over the picks: every margin is recorded,
    and a pick below its -tol replaces the witness only when strictly
    smaller, so the first of equal worst violators is kept."""
    records, witness, worst = [], None, math.inf
    for idx, t, margin, tol, x0, u in picks:
        records.append(MarginRecord(idx, float(t), float(margin)))
        if margin < -tol and margin < worst:
            worst = margin
            witness = Witness(x0=x0, input=u, t=float(t), margin=float(margin))
    return records, witness


# margins drawn from a few values, so that ties between pairs, margins
# within tol of 0 and -0.0 come up often
_MARGINS = st.sampled_from([0.0, -0.0, 1e-12, -1e-12, -5e-10, -1e-9, -2e-9, 0.5,
                            -0.5, -1.0, -3.0])
_TOLS = st.sampled_from([0.0, 1e-12, 1e-9, 1.0])


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(st.tuples(st.floats(0.0, 2.0), _MARGINS, _TOLS), max_size=12))
def test_conclude_follows_the_reference_witness_rule(rows):
    picks = [(idx, t, margin, tol, np.full(2, float(idx)), InputSignal.zero())
             for idx, (t, margin, tol) in enumerate(rows)]
    records, witness = _reference_conclusion(picks)
    rep = conclude(CheckProperty.ISS, picks)
    assert rep.margins == tuple(records)
    assert [math.copysign(1.0, r.margin) for r in rep.margins] == [
        math.copysign(1.0, m) for _, m, _ in rows]
    assert rep.worst_margin == min((m for _, m, _ in rows), default=0.0)
    assert rep.violated == (witness is not None)
    if witness is not None:
        # the same pick: its index is written into x0
        assert (rep.witness.t, rep.witness.margin) == (witness.t, witness.margin)
        assert np.array_equal(rep.witness.x0, witness.x0)


# ---------------------------------------------------------------------------
# ISS


def test_iss_heat_passes():
    rep = check_iss(heat(), heat_cert(), BUDGET)
    assert rep.verdict is Verdict.NO_VIOLATION_FOUND
    assert rep.samples_checked == BUDGET.n_pairs
    assert rep.worst_margin >= -1e-12


def test_iss_origin_margin_tight():
    # x0 = 0, u = 0 at t = 0 gives margin exactly 0
    sys = heat(8)
    assert iss_margin(sys, heat_cert(), np.zeros(8), InputSignal.zero(), 0.0) == 0.0


def _refuted(sys, case):
    """A violated report and the replay of a witness through the public
    single-sample function of its check."""
    if case == "iss":
        bad = heat_cert(gain=0.1)
        return (check_iss(sys, bad, BUDGET),
                lambda w: iss_margin(sys, bad, w.x0, w.input, w.t))
    if case == "uls":
        sigma, gamma = linear(0.5), linear(1.0 / SQRT3)
        return (check_uls(sys, sigma, gamma, 1.0, BUDGET),
                lambda w: uls_margin(sys, sigma, gamma, w.x0, w.input, w.t))
    if case == "ulim":
        short = replace(BUDGET, horizon=0.05)
        grid = ulim_grid(short)
        gamma = linear(1.0 / SQRT3)
        return (check_ulim(sys, gamma, 0.1, 1.0, short),
                lambda w: ulim_slack(sys, gamma, 0.1, w.x0, w.input, grid))
    if case == "norm_to_integral":
        # sigma far below the steady input energy alpha(1/sqrt(3)) = 1/6 per unit time
        bad = NormToIntegralCertificate(alpha=power(0.5, 2.0), psi=power(1.0 / PI2, 2.0),
                                        sigma=power(0.01, 2.0))
        return (check_norm_to_integral(sys, bad, BUDGET),
                lambda w: norm_to_integral_margin(sys, bad, w.x0, w.input, w.t))
    # alpha = r**1.5 takes Simpson, on a grid that depends on the whole budget:
    # the witness lies at t = 2.54375 < horizon, where a grid on [0, t] alone
    # errs by 1e-8
    long = replace(BUDGET, horizon=3.7)
    bad = NormToIntegralCertificate(alpha=power(1.0, 1.5), psi=linear(0.01),
                                    sigma=linear(0.6))
    return (check_norm_to_integral(sys, bad, long),
            lambda w: norm_to_integral_margin(sys, bad, w.x0, w.input, w.t, long))


@pytest.mark.parametrize("case", ["iss", "uls", "ulim", "norm_to_integral",
                                  "norm_to_integral_simpson"])
def test_witness_replays_to_reported_margin(case):
    rep, replay = _refuted(heat(), case)
    assert rep.violated
    # iss, steady-state oracle: |phi| -> 0.5746 while the gain allows only 0.1
    assert rep.worst_margin < (-0.4 if case == "iss" else 0.0)
    w = rep.witness
    assert w.margin == rep.worst_margin
    if case == "norm_to_integral_simpson":
        assert w.t < 3.7   # before the horizon, where the grid matters
    assert replay(w) < 0.0
    assert replay(w) == pytest.approx(w.margin, rel=1e-12)


# ---------------------------------------------------------------------------
# ULS


def test_uls_heat_passes():
    rep = check_uls(heat(), linear(1.0), linear(1.0 / SQRT3), 1.0, BUDGET)
    assert not rep.violated


def test_uls_zero_origin_margin():
    sys = heat(8)
    assert uls_margin(sys, linear(1.0), linear(1.0), np.zeros(8),
                      InputSignal.zero(), 0.0) == 0.0


def test_uls_half_sigma_violated_at_time_zero():
    # identity forces |phi(0)| = |x0| > |x0|/2
    sys = heat()
    rep = check_uls(sys, linear(0.5), linear(1.0 / SQRT3), 1.0, BUDGET)
    assert rep.violated
    w = rep.witness
    assert w.t == 0.0
    assert uls_margin(sys, linear(0.5), linear(1.0 / SQRT3), w.x0, w.input, w.t) < 0.0


# ---------------------------------------------------------------------------
# ULIM


def test_ulim_heat_hitting_time():
    rep = check_ulim(heat(), linear(1.0 / SQRT3), 0.1, 1.0, BUDGET)
    assert not rep.violated
    tau_hat = float(rep.notes.split("=", 1)[1])
    # oracle: solve exp(-pi^2 t) = 0.1 -> t = ln(10)/pi^2 = 0.23326,
    # plus one step of the fixed 513-point grid
    assert tau_hat <= math.log(10.0) / PI2 + 2.0 / 512 + 1e-12


def _pairs_of(sys, budget):
    inputs = [draw_input(budget, j) for j in range(budget.n_inputs)]
    return [(draw_state(sys, budget, i), u) for i in range(budget.n_states) for u in inputs]


def _ulim_notes(sys, gamma_fn, eps, budget):
    """ULIM's notes pair by pair: the latest first hit on the ULIM grid."""
    grid, firsts = ulim_grid(budget), []
    for x0, u in _pairs_of(sys, budget):
        norms = sample_trajectory(sys, x0, u, grid).norms()
        hits = np.nonzero(eps + evaluate(gamma_fn, u.sup_norm) - norms >= 0.0)[0]
        if hits.size == 0:
            return "horizon exhausted for some sample"
        firsts.append(float(grid[hits[0]]))
    return f"tau_hat={max(firsts)!r}"


def _brs_notes(sys, C, tau, budget):
    """BRS's notes pair by pair: the largest norm on each pair's probe."""
    b = replace(budget, radius=C, horizon=tau)
    sup = max(float(np.max(sample_trajectory(sys, x0, u, np.union1d(
        eval_times(b), u.breakpoints[u.breakpoints < tau])).norms()))
              for x0, u in _pairs_of(sys, b))
    return f"empirical_sup={sup!r} bound={C * (1.0 + kappa_bounds(sys, tau).upper)!r}"


@pytest.mark.parametrize("shared", [False, True], ids=["alone", "union_sweep"])
@pytest.mark.parametrize("horizon, eps", [(2.0, 0.1), (0.05, 0.1), (2.0, 0.3)])
def test_ulim_and_brs_notes_match_the_pairwise_flow(shared, horizon, eps):
    sys, gamma_fn = heat(16), linear(1.0 / SQRT3)
    budget = replace(BUDGET, horizon=horizon)
    with _shared_samples(ulim=[(1.0, budget)] if shared else []):
        ulim = check_ulim(sys, gamma_fn, eps, 1.0, budget)
        brs = check_brs(sys, 1.0, horizon, budget)
    assert ulim.notes == _ulim_notes(sys, gamma_fn, eps, budget)
    assert ("exhausted" in ulim.notes) == (horizon == 0.05)
    assert brs.notes == _brs_notes(sys, 1.0, horizon, budget)


def test_ulim_rejects_nan_eps():
    with pytest.raises(DomainError):
        check_ulim(heat(8), linear(1.0), math.nan, 1.0, BUDGET)


def test_ulim_zero_state_hits_immediately():
    sys = heat(8)
    grid = np.linspace(0.0, 2.0, 513)
    slack = ulim_slack(sys, linear(1.0), 0.1, np.zeros(8), InputSignal.zero(), grid)
    assert slack >= 0.1


def test_ulim_short_horizon_violated():
    # horizon 0.05: exp(-pi^2 * 0.05) = 0.61 > eps for the full-radius state
    sys = heat()
    rep = check_ulim(sys, linear(1.0 / SQRT3), 0.1, 1.0,
                     replace(BUDGET, horizon=0.05))
    assert rep.violated
    assert "exhausted" in rep.notes
    w = rep.witness
    grid = np.linspace(0.0, 0.05, 513)
    assert ulim_slack(sys, linear(1.0 / SQRT3), 0.1, w.x0, w.input, grid) < 0.0


def test_zero_input_system_passes_with_tiny_gain():
    # b = 0 decouples the input entirely; gamma(s) = 1e-6 s suffices
    sys = SpectralSystem(np.array([1.0, 2.0, 4.0]), np.zeros(3))
    cert = ISSCertificate(DecayEnvelope(1.0, 1.0), linear(1e-6))
    budget = replace(BUDGET, horizon=8.0)
    for rep in (check_iss(sys, cert, budget),
                check_uls(sys, linear(cert.beta.M), cert.gamma, budget.radius, budget),
                check_ulim(sys, cert.gamma, 0.1, budget.radius, budget),
                check_brs(sys, budget.radius, budget.horizon, budget)):
        assert not rep.violated


# ---------------------------------------------------------------------------
# CEP


def test_cep_heat_table():
    rep = check_cep(heat(), BUDGET, h=1.0)
    assert not rep.violated
    # delta = eps/2 works since |phi| <= |x0| + 0.577 |u| <= 1.577 delta
    deltas = [float(part.rsplit("=", 1)[1]) for part in rep.notes.split("; ")]
    assert all(d == e / 2.0 for d, e in zip(deltas, (1.0, 0.5, 0.25, 0.125)))
    assert all(d1 >= d2 for d1, d2 in zip(deltas, deltas[1:]))  # monotone table


def test_cep_origin_stays_at_zero():
    sys = heat(8)
    traj = sample_trajectory(sys, np.zeros(8), InputSignal.zero(),
                             np.linspace(0.0, 1.0, 65))
    assert np.all(traj.norms() == 0.0)


def assert_same_report(got, want):
    """Equal verdict, notes, margins, records and witness, compared with ==."""
    assert (got.property, got.verdict, got.notes, got.worst_margin, got.samples_checked) == (
        want.property, want.verdict, want.notes, want.worst_margin, want.samples_checked)
    assert got.margins == want.margins
    assert (got.witness is None) == (want.witness is None)
    if want.witness is not None:
        g, w = got.witness, want.witness
        assert (g.t, g.margin) == (w.t, w.margin)
        assert np.array_equal(g.x0, w.x0)
        assert np.array_equal(g.input.breakpoints, w.input.breakpoints)
        assert np.array_equal(g.input.values, w.input.values)


def _cep_reference(sys, budget, h):
    """The continuity table as stated: each level swept at every halving
    until one stays within eps_j, the last halving's witness otherwise."""
    picks, table = [], []
    for j in range(CEP_LEVELS):
        eps_j = budget.radius * 2.0 ** (-j)
        chosen = None
        for i in range(1, CEP_HALVINGS + 1):
            delta = eps_j / 2.0 ** i
            samples = _Samples.draw(sys, replace(budget, radius=delta, horizon=h))
            level = _sweep(CheckProperty.CEP, samples, _swept("probe"),
                           lambda r, u, t, e=eps_j: e, tol=lambda r, u: 0.0)
            if level.witness is None:
                chosen = delta
                break
        w = level.witness or Witness(np.zeros(sys.n_modes), InputSignal.zero(), h,
                                     level.worst_margin)
        picks.append((j, w.t, w.margin, 0.0, w.x0, w.input))
        table.append(f"eps={eps_j!r}->delta={chosen!r}")
    return conclude(CheckProperty.CEP, picks, notes="table " + "; ".join(table))


_CEP_CASES = {
    "heat16": (heat(16), SampleBudget(n_states=9, n_inputs=6, n_times=9, seed=5), 1.0),
    "heat64": (heat(64), BUDGET, 0.5),
    # gain 600: |phi| reaches about 600 delta, beyond every halving (2**8)
    "diagonal_violated": (SpectralSystem([1.0, 2.0, 3.0], [600.0, -20.0, 3.0]),
                          SampleBudget(n_states=7, n_inputs=5, n_times=9, seed=3), 20.0),
    # gain 10: delta = eps / 16 at every level
    "diagonal_gain10": (SpectralSystem([1.0, 4.0], [10.0, 3.0]),
                        SampleBudget(n_states=7, n_inputs=5, n_times=9, seed=8), 5.0),
    # radii swept level by level: read off one sweep, the table would differ
    # here (squares near the subnormal range) ...
    "heat8_radius_1e-155": (heat(8), SampleBudget(n_states=6, n_inputs=4, n_times=9,
                                                  radius=1e-155, seed=2), 1.0),
    # ... or overflow at the radius, while every level (radius / 2 and below) runs
    "diagonal_radius_3e151": (SpectralSystem([1.0, 2.0, 3.0], [600.0, -20.0, 3.0]),
                              SampleBudget(n_states=6, n_inputs=4, n_times=9,
                                           radius=3e151, seed=2), 20.0),
}


@pytest.mark.parametrize("case", _CEP_CASES.values(), ids=_CEP_CASES.keys())
def test_cep_table_equals_the_per_level_sweeps(case):
    sys, budget, h = case
    got = check_cep(sys, budget, h)
    assert_same_report(got, _cep_reference(sys, budget, h))
    assert got.violated == (case[0].n_modes == 3)


def test_cep_rejects_bad_horizon():
    with pytest.raises(DomainError):
        check_cep(heat(4), BUDGET, h=0.0)
    with pytest.raises(DomainError):
        check_cep(heat(4), BUDGET, h=math.inf)


# ---------------------------------------------------------------------------
# BRS


def test_brs_heat_bounded():
    rep = check_brs(heat(), 1.0, 1.0, BUDGET)
    assert not rep.violated
    sup = float(rep.notes.split(" ")[0].split("=", 1)[1])
    bound = float(rep.notes.split(" ")[1].split("=", 1)[1])
    assert sup <= bound
    assert sup >= 1.0 - 1e-12  # u = 0 sample reaches exactly C at t = 0


def test_brs_rejects_bad_parameters():
    with pytest.raises(DomainError):
        check_brs(heat(4), 0.0, 1.0, BUDGET)
    with pytest.raises(DomainError):
        check_brs(heat(4), 1.0, math.nan, BUDGET)


# ---------------------------------------------------------------------------
# integral checks


def test_norm_to_integral_heat_passes():
    rep = check_norm_to_integral(heat(), nti_cert(), BUDGET)
    assert not rep.violated
    assert rep.worst_margin >= -1e-6


def test_norm_to_integral_single_mode_closed_form():
    # oracle: x0 = e_1, u = 0, alpha = r^2 gives
    # int_0^t exp(-2 pi^2 s) ds = (1 - exp(-2 pi^2 t)) / (2 pi^2)
    sys = heat(8)
    x0 = np.zeros(8)
    x0[0] = 1.0
    cert = NormToIntegralCertificate(alpha=power(1.0, 2.0),
                                     psi=power(1.0 / PI2, 2.0),
                                     sigma=power(1.0, 2.0))
    u = InputSignal.zero()
    grid = build_time_grid(2.0, u, extra=[0.5, 1.0, 2.0])
    traj = sample_trajectory(sys, x0, u, grid)
    for t in (0.5, 1.0, 2.0):
        left = simpson_integral(traj, cert.alpha, t)
        exact = (1.0 - math.exp(-2.0 * PI2 * t)) / (2.0 * PI2)
        assert left == pytest.approx(exact, rel=2e-7)
    # the infinite-horizon value stays below psi(1) = 1/pi^2
    assert (1.0 - math.exp(-4.0 * PI2)) / (2.0 * PI2) < 1.0 / PI2


def test_norm_to_integral_zero_sample_trivial():
    sys = heat(8)
    m = norm_to_integral_margin(sys, nti_cert(), np.zeros(8), InputSignal.zero(), 2.0)
    assert m == 0.0


def test_integral_to_integral_constant_input_coincides():
    # for u constant on [0, t]: t sigma(|u|) = int sigma(|u(s)|) ds exactly
    sys = heat(16)
    cert = nti_cert()
    budget = replace(BUDGET, n_states=4, n_inputs=2)  # zero and constant inputs
    r1 = check_norm_to_integral(sys, cert, budget)
    r2 = check_integral_to_integral(sys, cert, budget)
    m1 = {(m.sample_index, m.t): m.margin for m in r1.margins}
    m2 = {(m.sample_index, m.t): m.margin for m in r2.margins}
    for key, v in m1.items():
        assert m2[key] == pytest.approx(v, rel=1e-12, abs=1e-12)


def test_integral_to_integral_zero_tail_shrinks_rhs():
    sigma = power(2.0 / 3.0, 2.0)
    u = InputSignal.piecewise([0.0, 1.0], [1.0])  # 1 on [0,1], 0 afterwards
    tail = _input_integrals(u, sigma, [2.0])[0]
    assert tail == pytest.approx(2.0 / 3.0, rel=1e-15)
    # versus the sup-norm form t * sigma(1) = 4/3 at t = 2
    assert tail < 2.0 * (2.0 / 3.0)


def test_integral_to_integral_heat_reported():
    # outcome is reported, not asserted: the probe must run and be replayable
    rep = check_integral_to_integral(heat(), nti_cert(), BUDGET)
    assert rep.samples_checked == BUDGET.n_pairs
    assert rep.verdict in (Verdict.NO_VIOLATION_FOUND, Verdict.VIOLATED)


def test_quadrature_grid_must_refine_breakpoints():
    sys = heat(8)
    u = InputSignal.piecewise([0.0, 0.37, 2.0], [1.0, -1.0])
    coarse = np.linspace(0.0, 2.0, 11)  # misses the breakpoint at 0.37
    traj = sample_trajectory(sys, np.zeros(8), u, coarse)
    with pytest.raises(ValidationError):
        simpson_integral(traj, power(1.0, 2.0), 2.0)


def test_quadrature_halving_stability():
    # refining the default trajectory grid moves the reported integral by
    # less than 1e-6 * (1 + value), even with energy in the fastest mode
    sys = heat(64)
    x0 = np.zeros(64)
    x0[0], x0[-1] = 0.5, 1.0
    u = InputSignal.piecewise([0.0, 0.7, 2.0], [1.0, -0.5])
    grid = build_time_grid(2.0, u)
    mid = 0.5 * (grid[:-1] + grid[1:])
    fine = np.unique(np.concatenate([grid, mid]))
    alpha = power(0.5, 2.0)
    v1 = simpson_integral(sample_trajectory(sys, x0, u, grid), alpha, 2.0)
    v2 = simpson_integral(sample_trajectory(sys, x0, u, fine), alpha, 2.0)
    assert abs(v1 - v2) <= 1e-6 * (1.0 + abs(v1))


@pytest.mark.parametrize("n_points", [2, 3, 4, 5, 10, 11, 64, 65])
def test_prefix_integrals_match_per_prefix_simpson(n_points):
    # reference: scipy's simpson on every prefix, i = 0 (no interval) and
    # i = 1 (one interval, a trapezoid) included
    rng = np.random.default_rng(n_points)
    graded = np.concatenate([[0.0], np.geomspace(1e-7, 2.0, n_points - 1)])
    grids = [graded] + [np.concatenate([[0.0], np.cumsum(rng.uniform(0.0, 1.0, n_points - 1)
                                                         ** 3 + 1e-9)])
                        for _ in range(20)]
    at = np.arange(n_points)
    for grid in grids:
        vals = rng.uniform(0.1, 2.0, (2, n_points))
        got = _prefix_integrals(vals, grid, at)
        for row, v in zip(got, vals):
            want = [float(simpson(v[:i + 1], x=grid[:i + 1])) if i > 0 else 0.0 for i in at]
            np.testing.assert_allclose(row, want, rtol=1e-12, atol=0.0)
            # one row alone gives the same bits as a stack of rows
            assert np.array_equal(_prefix_integrals(v, grid, at), row)


def test_prefix_integrals_single_node():
    assert _prefix_integrals(np.array([3.0]), np.array([0.0]), [0]).tolist() == [0.0]


# ---------------------------------------------------------------------------
# the sampling kernel


_EIGHT_PIECES = InputSignal.piecewise([0.0, 0.15, 0.4, 0.55, 0.9, 1.2, 1.45, 1.7, 2.0],
                                      [0.9, -0.3, 0.55, -1.0, 0.2, 0.75, -0.6, 0.35])
_KERNEL_INPUTS = (InputSignal.zero(), InputSignal.constant(0.8, 2.0), _EIGHT_PIECES,
                  InputSignal.piecewise([0.0, 0.3, 0.9], [1.0, -0.5]))  # zero tail
_KERNEL_GRIDS = {
    "uniform": np.linspace(0.0, 2.0, 41),
    "inside_segment": np.linspace(0.0, 0.6, 13),   # ends inside a segment
    "one_point": np.array([0.0]),
    "several_blocks": build_time_grid(2.0, _EIGHT_PIECES),
}


@pytest.mark.parametrize("grid", _KERNEL_GRIDS.values(), ids=_KERNEL_GRIDS.keys())
@pytest.mark.parametrize("sys", [heat(16), SpectralSystem([0.5, 2.0, 7.0], [1.0, -0.4, 2.5])],
                         ids=["heat16", "diagonal3"])
def test_kernel_norms_match_sample_trajectory(sys, grid):
    n = sys.n_modes
    states = [np.zeros(n), np.eye(n)[0], np.eye(n)[-1],
              np.random.default_rng(n).uniform(-1.0, 1.0, n)]
    pairs = [(si * len(_KERNEL_INPUTS) + sj, x0, u)
             for si, x0 in enumerate(states) for sj, u in enumerate(_KERNEL_INPUTS)]
    samples = _Samples(sys, states, list(_KERNEL_INPUTS))
    lhs = _norms(lambda u: (grid, grid))
    got = [row for j in range(len(_KERNEL_INPUTS)) for row in lhs(samples, j)[1]]
    # the kernel runs input by input, each input's states in pair order
    want = [sample_trajectory(sys, x0, u, grid).norms()
            for u in _KERNEL_INPUTS for x0 in states]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=0.0)
    # conclude receives the picks in pair order, whatever the scan order
    records = _sweep(CheckProperty.ISS, samples, lhs, lambda r, u, t: 0.0).margins
    assert [r.sample_index for r in records] == [idx for idx, _, _ in pairs]
    for r, (_, x0, u) in zip(records, pairs):
        norms = sample_trajectory(sys, x0, u, grid).norms()
        assert r.margin == pytest.approx(-np.max(norms), rel=1e-12, abs=0.0)
        assert norms[np.searchsorted(grid, r.t)] == pytest.approx(np.max(norms), rel=1e-12)


def test_kernel_keeps_the_flow_checks():
    sys = heat(8)
    u = InputSignal.constant(1.0, 2.0)
    with pytest.raises(ValidationError, match="start at 0"):
        ulim_slack(sys, linear(1.0), 0.1, np.zeros(8), u, np.linspace(0.01, 2.0, 200))
    with pytest.raises(ValidationError, match="strictly increasing"):
        ulim_slack(sys, linear(1.0), 0.1, np.zeros(8), u, [0.0, 0.5, 0.5])
    with pytest.raises(ValidationError, match="shape"):
        iss_margin(sys, heat_cert(), np.zeros(3), u, 1.0)
    nan_state = np.zeros(8)
    nan_state[2] = math.nan
    with pytest.raises(ValidationError, match="states must be finite"):
        iss_margin(sys, heat_cert(), nan_state, u, 1.0)


def test_an_overflowing_anchor_in_a_dead_mode_never_reads_clean():
    # an input of 1e308 on [t1, t2), strictly between two rows of the ULIM
    # grid, overflows mode 2's anchor state at t2; after t2 the input is 0
    # and lambda_2 = 1e6 makes mode 2 dead on every later row, so only the
    # anchor holds the inf
    sys = SpectralSystem(np.array([1.0, 1e6]), np.array([0.0, 4e6]))
    grid = ulim_grid(BUDGET)
    t1 = grid[100] + 0.001
    u = InputSignal.piecewise([0.0, t1, t1 + 0.001], [0.0, 1e308])
    assert 1e6 * (grid[101] - (t1 + 0.001)) > 746.0
    with np.errstate(over="ignore"), pytest.raises(ValidationError, match="states must be finite"):
        ulim_slack(sys, linear(1.0), 0.1, np.zeros(2), u, grid)
    with np.errstate(over="ignore"), pytest.raises(ValidationError, match="states must be finite"):
        sample_trajectory(sys, np.zeros(2), u, grid)


# ---------------------------------------------------------------------------
# closed-form integrals


_LEG_X, _LEG_W = np.polynomial.legendre.leggauss(12)


def _gauss_square_integral(sys, x0s, a, b, u):
    """int_a^b |phi|^2 for each state, by 12-point Gauss-Legendre on 200 cells
    graded geometrically after a; [a, b] must hold no input breakpoint."""
    steps = np.geomspace(1e-12 * (b - a), b - a, 200)
    edges = np.unique(a + np.concatenate([[0.0], steps]))
    lo, hi = edges[:-1, None], edges[1:, None]
    nodes = (0.5 * (hi - lo) * (_LEG_X + 1.0) + lo).ravel()
    weights = (0.5 * (hi - lo) * _LEG_W).ravel()
    grid = np.concatenate([[0.0], nodes])
    return np.array([weights @ sample_trajectory(sys, x0, u, grid).norms()[1:] ** 2
                     for x0 in x0s])


@pytest.mark.parametrize("sys", [heat(64), SpectralSystem([0.5, 2.0, 7.0], [1.0, -0.4, 2.5])],
                         ids=["heat64", "diagonal3"])
def test_closed_form_integral_matches_gauss_reference(sys):
    n = sys.n_modes
    x0s = np.array([np.zeros(n), np.eye(n)[-1],
                    np.random.default_rng(n).uniform(-1.0, 1.0, n)])
    # t = 0, on breakpoints (0.4, 0.9, 2.0), between them, and after the
    # last one (zero tail of the last input, past the end of the others)
    times = np.array([0.0, 1e-6, 0.3, 0.4, 0.9, 1.3, 2.0, 2.6])
    for u in _KERNEL_INPUTS:
        got = _square_integrals(sys, x0s, u, times)
        cuts = [0.0, *u.breakpoints[u.breakpoints > 0.0]]
        for k, t in enumerate(times):
            ends = [c for c in cuts if c < t] + [t]
            want = sum(_gauss_square_integral(sys, x0s, a, b, u)
                       for a, b in zip(ends[:-1], ends[1:])) if t > 0.0 else np.zeros(3)
            np.testing.assert_allclose(got[:, k], want, rtol=1e-10, atol=1e-15)
    assert np.all(_square_integrals(sys, x0s, InputSignal.zero(), [0.0]) == 0.0)


def test_closed_form_agrees_with_one_state_and_one_time():
    # a witness replays one state at one time: same bits as in the stack
    sys = heat(16)
    x0s = np.random.default_rng(5).uniform(-1.0, 1.0, (4, 16))
    times = eval_times(BUDGET)
    full = _square_integrals(sys, x0s, _EIGHT_PIECES, times)
    for s in (0, 3):
        for k in (0, 5, times.size - 1):
            one = _square_integrals(sys, x0s[s:s + 1], _EIGHT_PIECES, times[k:k + 1])
            assert one[0, 0] == full[s, k]


def _per_segment_input_integral(u, sigma_fn, t):
    total, prev = 0.0, 0.0
    for i, val in enumerate(u.values):
        end = min(float(u.breakpoints[i + 1]), t)
        if end > prev:
            total += (end - prev) * sigma_fn(abs(float(val)))
            prev = end
    return total


def test_input_integrals_equal_the_per_segment_sum():
    sigma = power(2.0 / 3.0, 2.0)
    times = np.array([0.0, 0.1, 0.15, 0.4, 0.77, 0.9, 1.7, 2.0, 3.5])
    for u in _KERNEL_INPUTS:
        got = _input_integrals(u, sigma, times)
        want = [_per_segment_input_integral(u, sigma, t) for t in times]
        assert got.tolist() == want
        assert (_input_integrals(u, sigma, [1.3])[0]
                == _per_segment_input_integral(u, sigma, 1.3))
    with pytest.raises(DomainError):
        _input_integrals(_EIGHT_PIECES, sigma, [-1.0])


def test_exact_path_resolves_violations_below_the_simpson_tolerance():
    # x0 = e_1, u = 0, alpha = r^2: int_0^2 |phi|^2 = (1 - exp(-4 pi^2)) / (2 pi^2);
    # psi(1) falls 1e-10 short of it, far inside QUAD_TOL (1e-6) but not
    # inside EXACT_TOL (1e-12)
    budget = replace(BUDGET, n_states=2, n_inputs=1)   # the origin and e_1, u = 0
    energy = -math.expm1(-4.0 * PI2) / (2.0 * PI2)
    cert = NormToIntegralCertificate(alpha=power(1.0, 2.0), psi=power(energy - 1e-10, 2.0),
                                     sigma=power(1.0, 2.0))
    exact = check_norm_to_integral(heat(8), cert, budget)
    assert exact.violated
    assert exact.witness.t == 2.0
    assert exact.worst_margin == pytest.approx(-1e-10, abs=1e-15)
    # the same alpha in another form takes Simpson
    simpson_cert = replace(cert, alpha=compose(linear(1.0), power(1.0, 2.0)))
    assert not check_norm_to_integral(heat(8), simpson_cert, budget).violated


def test_simpson_fallback_restarts_at_kinked_breakpoints():
    # one mode, x' = -x + u, u = 1 then -1 from t = 0.25: the breakpoint is
    # the middle node of the panel (0.24, 0.25, 0.26) of the caller's grid,
    # where phi' jumps by 2.  Simpson across the kink errs by 1.5e-5; panels
    # that restart at the breakpoint err by at most 3e-7.
    sys = SpectralSystem([1.0], [1.0])
    u = InputSignal.piecewise([0.0, 0.25, 2.0], [1.0, -1.0])
    grid = np.unique(np.concatenate([np.linspace(0.0, 2.0, 101), [0.25]]))
    traj = sample_trajectory(sys, np.zeros(1), u, grid)
    cert = NormToIntegralCertificate(alpha=power(1.0, 2.0), psi=power(1.0, 2.0),
                                     sigma=power(1.0, 2.0))
    simpson_cert = replace(cert, alpha=compose(linear(1.0), power(1.0, 2.0)))
    p = 1.0 - math.exp(-0.25)   # phi(0.25); then phi(s) = (p + 1) exp(-(s - 0.25)) - 1
    for t in grid[[14, 15, 58, -1]]:   # 0.26, 0.28, 1.14 and 2.0
        h = t - 0.25
        exact = (0.25 - 2.0 * p + 0.5 * (1.0 - math.exp(-0.5))
                 + (p + 1.0) ** 2 * 0.5 * (1.0 - math.exp(-2.0 * h))
                 - 2.0 * (p + 1.0) * (1.0 - math.exp(-h)) + h)
        assert abs(simpson_integral(traj, cert.alpha, t) - exact) < 1e-6
        # margins psi(0) + t sigma(1) - int: Simpson on the graded grid (the
        # same alpha in another form), or exact
        simpson_margin = norm_to_integral_margin(sys, simpson_cert, np.zeros(1), u, t)
        assert abs(simpson_margin - (t - exact)) < 1e-6
        exact_margin = norm_to_integral_margin(sys, cert, np.zeros(1), u, t)
        assert abs(exact_margin - (t - exact)) < 1e-14


def test_simpson_weights_stay_finite_on_tiny_grids():
    # spacings of 1.25e-301 underflow in products such as h0 * h1
    grid = np.linspace(0.0, 1e-300, 9)
    vals = np.ones((2, grid.size))
    got = _prefix_integrals(vals, grid, np.arange(grid.size))
    np.testing.assert_allclose(got / 1e-300, np.tile(grid / 1e-300, (2, 1)), rtol=1e-12,
                               atol=1e-12)


def test_derived_certificate_passes_norm_to_integral():
    # consistency: the certificate derived from a passing ISS certificate
    # also passes on the same budget
    sys = heat()
    derived = derive_norm_to_integral(heat_cert())
    assert not check_iss(sys, heat_cert(), BUDGET).violated
    rep = check_norm_to_integral(sys, derived, BUDGET)
    assert not rep.violated


# ---------------------------------------------------------------------------
# dissipation check


def test_dissipation_heat_passes():
    sys = heat()
    op = build_neg_inverse(sys)
    params = dissipation_constants(op, sys, 0.5, kappa_probe_t=1e-6)
    rep = check_dissipation(sys, op, params, BUDGET)
    assert not rep.violated


def test_dissipation_zero_state_unit_input():
    # at x0 = 0 the analytic derivative is 0 and the rhs is c(eps) > 0
    sys = heat()
    op = build_neg_inverse(sys)
    params = dissipation_constants(op, sys, 0.5, kappa_probe_t=1e-6)
    m = dissipation_margin(sys, op, params, np.zeros(64),
                           InputSignal.constant(1.0, 2.0))
    assert m == pytest.approx(params.c_eps, abs=2e-4)


def test_dissipation_datko_passes():
    sys = heat()
    op = build_datko(sys)
    params = dissipation_constants(op, sys, 0.5)
    rep = check_dissipation(sys, op, params, BUDGET)
    assert not rep.violated


# ---------------------------------------------------------------------------
# axioms


def test_identity_and_causality_exact():
    rep = check_identity(heat(), BUDGET)
    assert not rep.violated
    assert rep.worst_margin == 0.0


def test_cocycle_within_tolerance():
    rep = check_cocycle(heat(), BUDGET)
    assert not rep.violated
    assert rep.worst_margin > 0.0  # deviations sit far below 1e-10 relative


def _axioms_per_pair(sys, budget):
    """Identity and cocycle records computed pair by pair with mild_solution."""
    identity, cocycle = [], []
    inputs = [draw_input(budget, j) for j in range(budget.n_inputs)]
    t_mid = 0.5 * budget.horizon
    tail = InputSignal.constant(0.37 * (1.0 + budget.radius), 1.0)
    for i in range(budget.n_states):
        x0 = draw_state(sys, budget, i)
        for j, u in enumerate(inputs):
            idx = i * budget.n_inputs + j
            dev = float(np.max(np.abs(mild_solution(sys, x0, u, 0.0) - x0)))
            dev_c = float(np.max(np.abs(mild_solution(sys, x0, u, t_mid) - mild_solution(
                sys, x0, u.concatenated(tail, t_mid), t_mid))))
            identity.append(MarginRecord(idx, 0.0 if dev >= dev_c else t_mid,
                                         -max(dev, dev_c)))
            rng = seeded_rng(budget.seed, 33, idx)
            t = float(rng.uniform(0.0, 0.6 * budget.horizon))
            h = float(rng.uniform(0.0, 0.4 * budget.horizon))
            direct = mild_solution(sys, x0, u, t + h)
            restart = mild_solution(sys, mild_solution(sys, x0, u, t), u.shifted(t), h)
            cocycle.append(MarginRecord(idx, t + h, COCYCLE_TOL * (1.0 + state_norm(direct))
                                        - state_norm(direct - restart)))
    return tuple(identity), tuple(cocycle)


@pytest.mark.parametrize("sys", [heat(16), SpectralSystem([0.5, 2.0, 7.0], [1.0, -0.4, 2.5])],
                         ids=["heat16", "diagonal3"])
def test_batched_axiom_checks_equal_the_per_pair_flow(sys):
    budget = SampleBudget(n_states=8, n_inputs=7, n_times=9, seed=13)
    identity, cocycle = _axioms_per_pair(sys, budget)
    assert check_identity(sys, budget).margins == identity
    assert check_cocycle(sys, budget).margins == cocycle
