"""Tests for the falsification checkers: verdicts, witnesses, budgets, quadrature."""

import contextlib
import math
import warnings
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import simpson

from isslab import (CheckProperty, DecayEnvelope, DomainError, ISSCertificate, InputSignal,
                    MarginRecord, NormToIntegralCertificate, SampleBudget, SpectralSystem,
                    ValidationError, build_neg_inverse, build_datko, build_time_grid,
                    check_brs, check_cep, check_cocycle, check_dissipation,
                    check_identity, check_iss, check_integral_to_integral,
                    check_norm_to_integral, check_ulim, check_uls, compose,
                    derive_norm_to_integral,
                    dissipation_constants, draw_input, draw_state,
                    heat_dirichlet, kappa_bounds, linear, power, sample_trajectory,
                    Verdict)
from isslab.checkers import (CEP_HALVINGS, CEP_LEVELS, COCYCLE_TOL, POINT_TOL,
                             _Samples, _input_integrals, _prefix_integrals, _samples,
                             _shared_samples, _simpson_integrals, _sweep, eval_times,
                             iss_margin, ulim_grid, ulim_slack, uls_margin)
from isslab import checkers, system
from isslab.comparison import evaluate
from isslab.harness import _CHECKS, _resolve, load_scenario
from isslab.lyapunov import DEFAULT_DINI_H, dini_estimate, v_value
from isslab.system import _anchor_table, _rows, _square_integrals
from isslab.report import Witness, conclude
from isslab.system import _stream_words, mild_solution, seeded_rng, state_norm
from test_system import _table, one_input_squares

PI2 = math.pi ** 2
SQRT3 = math.sqrt(3.0)


def _samples_of(sys, states, inputs, budget):
    """The sample set of the given states and signals."""
    return _Samples(sys, np.array(states, dtype=float), _table(inputs), budget)


def _on_every_input(grid, n):
    """The kernel rows (input, time) of the grid on each of n inputs, one
    input after another."""
    return np.repeat(np.arange(n), grid.size), np.tile(grid, n)


def heat(n=64, a=1.0):
    return heat_dirichlet(a, n)


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
    on the trajectory's own grid, which holds t and the input's breakpoints."""
    grid = traj.times
    starts = np.searchsorted(grid, traj.input.breakpoints)
    vals = evaluate(f, traj.norms())
    return float(_simpson_integrals(vals, grid, np.searchsorted(grid, [t]), starts)[0])


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


def _nodes_on_the_probe(n_times, horizon):
    budget = replace(BUDGET, n_times=n_times, horizon=horizon)
    return bool(np.isin(ulim_grid(budget)[::16], eval_times(budget)).all())


# the bounds are sharp: at n_times = 30 the evaluation times miss a 16th ULIM
# point, and below horizon = 2**-1013 horizon / 512 is subnormal and rounds
MIN_NODE_TIMES, MIN_NODE_HORIZON = 31, 2.0 ** -1013


@settings(max_examples=200, deadline=None)
@given(n_times=st.integers(MIN_NODE_TIMES, 600),
       horizon=st.floats(MIN_NODE_HORIZON, 1.7e308))
def test_every_16th_ulim_point_is_an_evaluation_time(n_times, horizon):
    # so ULIM's nodes, the probe's points, hold every 16th point of its grid
    # on every budget with n_times >= 31, the default's 33 among them
    assert _nodes_on_the_probe(n_times, horizon)


def test_the_nodes_bounds_are_sharp():
    assert not _nodes_on_the_probe(MIN_NODE_TIMES - 1, 2.0)
    assert not _nodes_on_the_probe(33, np.nextafter(MIN_NODE_HORIZON, 0.0))


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
    # a finite radius from 2**1023 on draws values that overflow, which
    # draw_input's InputSignal refuses; a sample set refuses the radius first,
    # past the reach cap
    with pytest.raises(ValidationError, match="must be finite"):
        draw_input(SampleBudget(radius=2.0 ** 1023), 2)
    with pytest.raises(ValidationError, match=r"exceeds 2\*\*400"):
        checkers._samples(heat(8), SampleBudget(radius=2.0 ** 1023))


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


def _streams_input(budget, j):
    """Input j's breakpoints and values as its stream's uniform calls draw them."""
    rng = seeded_rng(budget.seed, 22, j)
    m = int(rng.integers(1, 9))
    cuts = np.sort(rng.uniform(0.0, budget.horizon, m - 1))
    cuts = np.unique(cuts[(cuts > 0.0) & (cuts < budget.horizon)])
    values = rng.uniform(-budget.radius, budget.radius, cuts.size + 1)
    return np.concatenate([[0.0], cuts, [budget.horizon]]), values


def _streams_state(n, budget, i):
    """Random state i (i >= 3) as its stream's calls draw it."""
    rng, x, r = seeded_rng(budget.seed, 11, i), np.zeros(n), budget.radius
    if i % 5 == 3 and n > 1:
        k = int(rng.integers(n // 2, n))
        x[k] = r * rng.uniform(0.25, 1.0) * rng.choice((-1.0, 1.0))
        return x
    d = min(n, 8)
    g = rng.standard_normal(d)
    x[:d] = g / float(np.linalg.norm(g)) * r * rng.uniform() ** (1.0 / d)
    return x


# seeds below 0, in [0, 2**63) and from 2**63 on map to streams differently
_STREAM_SEEDS = st.one_of(st.integers(-2 ** 70, -1), st.integers(0, 2 ** 63 - 1),
                          st.integers(2 ** 63, 2 ** 70))
# 1.5e-323 = 3 * 2**-1074: there cuts round onto 0 and onto the horizon
_HORIZONS = st.sampled_from([2.0, 1.0, 1.7, 0.123, 3e-5, 1.5e-323])
_RADII = st.sampled_from([1.0, 0.3, 7.77, 1e3, 2.0 ** -300])


@settings(max_examples=150, deadline=None)
@given(seed=_STREAM_SEEDS, horizon=_HORIZONS, radius=_RADII, first=st.tuples(
    _HORIZONS, _RADII), n=st.sampled_from([1, 2, 8, 64]))
def test_stream_draws_are_the_uniform_calls(seed, horizon, radius, first, n):
    # each stream's doubles, drawn once per block and read by every budget of
    # it, give draw_input's and draw_state's samples bit for bit as the
    # stream's own calls do, whichever budget of the block drew first
    sys = heat(n)
    budget = SampleBudget(n_states=9, n_inputs=9, horizon=horizon, radius=radius, seed=seed)
    other = replace(budget, horizon=first[0], radius=first[1])
    for block in (contextlib.nullcontext(), _shared_samples()):
        with block:
            _samples(sys, other)
            inputs = [draw_input(budget, j) for j in range(2, budget.n_inputs)]
            states = [draw_state(sys, budget, i) for i in range(3, budget.n_states)]
        for j, u in enumerate(inputs, 2):
            bps, values = _streams_input(budget, j)
            assert bps.tobytes() == u.breakpoints.tobytes()
            assert values.tobytes() == u.values.tobytes()
        for i, x in enumerate(states, 3):
            assert _streams_state(n, budget, i).tobytes() == x.tobytes()


@settings(max_examples=100, deadline=None)
@given(seed=_STREAM_SEEDS, kind=st.sampled_from([11, 22, 33]), index=st.lists(
    st.one_of(st.sampled_from([0, 1, 2 ** 32 - 1]), st.integers(0, 2 ** 32 - 1)), min_size=1,
    max_size=6), n=st.sampled_from([1, 2, 16]))
@example(seed=5, kind=22, index=[0, 1, 2 ** 32 - 1], n=16)        # 3 entropy words
@example(seed=2 ** 63, kind=33, index=[0, 2 ** 32 - 1], n=2)       # 4
@example(seed=-2 ** 70, kind=11, index=[1, 2 ** 32 - 1], n=1)      # 5: past the pool
def test_stream_words_are_random_raw(seed, kind, index, n):
    # every row of _stream_words is its stream's own raw PCG64 outputs bit for
    # bit, for entropies of 3 to 5 uint32 words; word 0's low half >> 29 is
    # integers(1, 9) - 1
    words = _stream_words(seed, kind, index, n)
    assert words.dtype == np.uint64 and words.shape == (len(index), n)
    for row, i in zip(words, index):
        assert row.tolist() == seeded_rng(seed, kind, i).bit_generator.random_raw(n).tolist()
        assert int(row[0]) % 2 ** 32 >> 29 == int(seeded_rng(seed, kind, i).integers(1, 9)) - 1


def test_stream_cuts_that_round_onto_the_ends_are_dropped():
    # at a horizon of three subnormal steps, most cuts round onto 0 or onto
    # the horizon; the derived inputs drop them as the stream's own draws do
    budget = SampleBudget(n_inputs=40, horizon=1.5e-323)
    dropped = 0
    for j in range(2, budget.n_inputs):
        rng = seeded_rng(budget.seed, 22, j)
        m = int(rng.integers(1, 9))
        dropped += int(np.any(rng.uniform(0.0, budget.horizon, m - 1) == budget.horizon))
        bps, values = _streams_input(budget, j)
        u = draw_input(budget, j)
        assert (bps.tobytes(), values.tobytes()) == (u.breakpoints.tobytes(),
                                                     u.values.tobytes())
    assert dropped > 0


def _f64(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _input_bits(u):
    return _f64(u.breakpoints), _f64(u.values)


@settings(max_examples=60, deadline=None)
@given(seed=_STREAM_SEEDS, horizon=_HORIZONS, radius=_RADII, n=st.sampled_from([1, 2, 8, 64]),
       n_inputs=st.integers(1, 12))
@example(seed=0, horizon=1.5e-323, radius=0.3, n=8, n_inputs=40)   # cuts onto the horizon
def test_sample_table_rows_are_the_drawn_signals(seed, horizon, radius, n, n_inputs):
    # a sample set holds its inputs as one table and its states as one array:
    # each table row, padded with +inf and 0.0, and signal(j) are draw_input's
    # signal, u_sup its sup_norm, each state draw_state's and r its state_norm,
    # bit for bit
    sys = heat(n)
    budget = SampleBudget(n_states=7, n_inputs=n_inputs, horizon=horizon, radius=radius,
                          seed=seed)
    samples = _samples(sys, budget)
    bps, vals = samples.inputs
    for j in range(n_inputs):
        u = draw_input(budget, j)
        k = u.breakpoints.size
        assert _f64(bps[j]) == _f64([*u.breakpoints, *[np.inf] * (bps.shape[1] - k)])
        assert _f64(vals[j]) == _f64([*u.values, *[0.0] * (vals.shape[1] - k + 1)])
        assert _input_bits(samples.signal(j)) == _input_bits(u)
        assert _f64(samples.u_sup[j]) == _f64(u.sup_norm)
    for i in range(budget.n_states):
        x = draw_state(sys, budget, i)
        assert _f64(samples.states[i]) == _f64(x)
        assert _f64(samples.r[i]) == _f64([state_norm(x)])


def test_vecdot_row_norms_are_state_norms_bit_for_bit():
    # a sample set's |x0| column and cocycle's norms take np.vecdot's rows,
    # which sum as np.linalg.norm's dot does, for every N
    rng = np.random.default_rng(7)
    for n in [*range(1, 70), 127, 128, 129, 255, 256, 257, 1000, 1024, 4095, 4096]:
        states = rng.standard_normal((8, n)) * 10.0 ** rng.uniform(-150.0, 150.0, (8, 1))
        states[0, :] = 0.0
        states[1, rng.random(n) < 0.5] = 0.0
        assert _f64(checkers._norms(states)) == _f64([state_norm(x) for x in states])


def test_unique_is_np_uniques_array():
    # the sort-and-drop-repeats helper of eval_times, the pair grids, the
    # Simpson grids and edges gives np.unique's array bit for bit: repeats,
    # -0.0 beside 0.0 (whichever the sort puts first), and NaNs kept once
    rng = np.random.default_rng(11)
    pool = np.array([0.0, -0.0, 1.0, -1.0, 2.5, np.nan, -np.nan, np.inf, -np.inf, 5e-324])
    cases = [eval_times(SampleBudget(horizon=5e-324)), eval_times(SampleBudget()),
             np.array([]), np.array([0.0, -0.0]), np.array([-0.0, 0.0]), np.array([3, 1, 3, 0])]
    for size in (1, 2, 3, 16, 17, 100, 1000):
        cases += [rng.choice(pool, size), np.round(rng.normal(size=size), 1) * rng.choice(
            [1.0, -1.0], size), rng.integers(0, 5, size)]
    for a in cases:
        want, got = np.unique(a), checkers._unique(a)
        assert got.dtype == want.dtype and got.view(np.int64).tolist() == want.view(
            np.int64).tolist()
    assert eval_times(SampleBudget(horizon=5e-324)).tolist() == [0.0, 5e-324]


@settings(max_examples=100, deadline=None)
@given(seed=_STREAM_SEEDS, horizon=st.one_of(_HORIZONS, st.floats(1e-300, 1e300)),
       p=st.integers(0, 10 ** 6))
def test_stream_cocycle_times_are_the_uniform_calls(seed, horizon, p):
    # check_cocycle's (t, h) of pair p: 0.0 + [0.6 H, 0.4 H] * rng.random(2)
    rng = seeded_rng(seed, 33, p)
    want = [rng.uniform(0.0, 0.6 * horizon), rng.uniform(0.0, 0.4 * horizon)]
    got = checkers._uniform(0.0, np.array([0.6, 0.4]) * horizon,
                            seeded_rng(seed, 33, p).random(2))
    assert np.array(want).tobytes() == got.tobytes()


def test_non_finite_margin_is_never_a_clean_verdict():
    x0, u = np.zeros(2), InputSignal.zero()
    for margin in (math.nan, -math.inf):
        with pytest.raises(ValidationError, match="ULIM.*sample 3"):
            conclude(CheckProperty.ULIM, np.zeros(4), [0.5, 0.0, -1.0, margin], 0.0,
                     lambda p: (x0, u))


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
    t, margins, tols = (np.array([row[k] for row in rows], dtype=float) for k in range(3))
    rep = conclude(CheckProperty.ISS, t, margins, tols, lambda p: picks[p][4:])
    assert rep.margins == tuple(records)
    assert [math.copysign(1.0, r.margin) for r in rep.margins] == [
        math.copysign(1.0, m) for _, m, _ in rows]
    assert rep.worst_margin == min((m for _, m, _ in rows), default=0.0)
    assert rep.violated == (witness is not None)
    if witness is not None:
        # the same pick: its index is written into x0
        assert (rep.witness.t, rep.witness.margin) == (witness.t, witness.margin)
        assert np.array_equal(rep.witness.x0, witness.x0)


# margins with ties between columns, -0.0 beside 0.0, infinities and NaNs
_PICK_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, math.inf, -math.inf, math.nan])


def _padded(own, sizes, pad):
    """The (state, input, k) table of each input's own columns ``own[j]``
    (states by sizes[j]), padded after them with ``pad``."""
    out = np.full((len(own[0]), len(sizes), max(sizes)), pad)
    for j, rows in enumerate(own):
        out[:, j, :sizes[j]] = rows
    return out


@settings(max_examples=300, deadline=None)
@given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=5), n_states=st.integers(1, 3),
       best=st.booleans(), data=st.data())
def test_segmented_pick_is_argmin_per_input(sizes, n_states, best, data):
    # the pick over a padded (state, input, k) table is np.argmin's (np.argmax's)
    # on each input's own columns: the first of the smallest (largest), or the
    # first NaN; the padding after them, +inf (-inf if best), is never picked
    own = [np.array(data.draw(st.lists(st.lists(_PICK_VALUES, min_size=k, max_size=k),
                                       min_size=n_states, max_size=n_states)))
           for k in sizes]
    at, picked = checkers._pick(_padded(own, sizes, -math.inf if best else math.inf), best)
    arg = np.argmax if best else np.argmin
    for j, rows in enumerate(own):
        want = arg(rows, axis=1)
        assert at[:, j].tolist() == want.tolist()
        assert picked[:, j].tobytes() == rows[np.arange(n_states), want].tobytes()


@settings(max_examples=200, deadline=None)
@given(sizes=st.lists(st.integers(1, 6), min_size=1, max_size=5), best=st.booleans(),
       at_inf=st.sampled_from([math.nan, math.inf]), data=st.data())
def test_sweep_never_picks_a_padded_time(sizes, best, at_inf, data):
    # a probe table's padding (time +inf, lhs -inf) reads margin +inf (-inf if
    # best), whatever the bound gives at t = +inf: here NaN, which np.argmin
    # would pick first, or +inf, which np.argmax would
    own = [np.array(data.draw(st.lists(st.lists(st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5]),
                                                min_size=k, max_size=k),
                                       min_size=2, max_size=2)))
           for k in sizes]
    times = _padded([np.arange(k)[None] * 0.25 for k in sizes], sizes, math.inf)[0]
    samples = _samples_of(heat(2), [np.zeros(2), [1.0, -0.5]],
                          [InputSignal.constant(0.5 * j, 2.0) for j in range(len(sizes))],
                          BUDGET)
    report = _sweep(CheckProperty.ISS, samples, times, _padded(own, sizes, -math.inf),
                    bound=lambda r, sup, t: np.where(np.isinf(t), at_inf, 0.0), best=best)
    arg = np.argmax if best else np.argmin
    for rec in report.margins:
        i, j = divmod(rec.sample_index, len(sizes))
        k = arg(-own[j][i])
        assert (rec.t, rec.margin) == (times[j, k], -own[j][i, k])


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


def _on_pair(w, run):
    """The margin of ``run()``, a check, on a sample set that holds only the
    witness's pair, where it picks the witness's time."""
    with _shared_samples(pair=(w.x0, w.input)):
        (record,) = run().margins
    assert record.t == w.t
    return record.margin


def _refuted(sys, case):
    """A violated report and the replay of a witness through the public
    single-sample function of its check, or through the check itself on the
    witness's pair."""
    if case == "iss":
        bad = heat_cert(gain=0.1)
        return (check_iss(sys, bad, BUDGET),
                lambda w: iss_margin(sys, bad, w.x0, w.input, w.t))
    if case == "uls":
        sigma, gamma = linear(0.5), linear(1.0 / SQRT3)
        return (check_uls(sys, sigma, gamma, BUDGET),
                lambda w: uls_margin(sys, sigma, gamma, w.x0, w.input, w.t))
    if case == "ulim":
        short = replace(BUDGET, horizon=0.05)
        grid = ulim_grid(short)
        gamma = linear(1.0 / SQRT3)
        return (check_ulim(sys, gamma, 0.1, short),
                lambda w: ulim_slack(sys, gamma, 0.1, w.x0, w.input, grid))
    if case == "norm_to_integral":
        # sigma far below the steady input energy alpha(1/sqrt(3)) = 1/6 per unit time
        bad = NormToIntegralCertificate(alpha=power(0.5, 2.0), psi=power(1.0 / PI2, 2.0),
                                        sigma=power(0.01, 2.0))
        return (check_norm_to_integral(sys, bad, BUDGET),
                lambda w: _on_pair(w, lambda: check_norm_to_integral(sys, bad, BUDGET)))
    # alpha = r**1.5 takes Simpson, on a grid that depends on the whole budget:
    # the witness lies at t = 2.54375 < horizon, where a grid on [0, t] alone
    # errs by 1e-8
    long = replace(BUDGET, horizon=3.7)
    bad = NormToIntegralCertificate(alpha=power(1.0, 1.5), psi=linear(0.01),
                                    sigma=linear(0.6))
    return (check_norm_to_integral(sys, bad, long),
            lambda w: _on_pair(w, lambda: check_norm_to_integral(sys, bad, long)))


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
    if case.startswith("norm_to_integral"):
        assert replay(w) == pytest.approx(w.margin, rel=1e-12)
    else:   # the single-pair functions give the check's margin bit for bit
        assert replay(w) == w.margin


# ---------------------------------------------------------------------------
# ULS


def test_uls_heat_passes():
    rep = check_uls(heat(), linear(1.0), linear(1.0 / SQRT3), BUDGET)
    assert not rep.violated


def test_uls_zero_origin_margin():
    sys = heat(8)
    assert uls_margin(sys, linear(1.0), linear(1.0), np.zeros(8),
                      InputSignal.zero(), 0.0) == 0.0


def test_uls_half_sigma_violated_at_time_zero():
    # identity forces |phi(0)| = |x0| > |x0|/2
    sys = heat()
    rep = check_uls(sys, linear(0.5), linear(1.0 / SQRT3), BUDGET)
    assert rep.violated
    w = rep.witness
    assert w.t == 0.0
    assert uls_margin(sys, linear(0.5), linear(1.0 / SQRT3), w.x0, w.input, w.t) < 0.0


# ---------------------------------------------------------------------------
# ULIM


def test_ulim_heat_hitting_time():
    rep = check_ulim(heat(), linear(1.0 / SQRT3), 0.1, BUDGET)
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


@pytest.mark.parametrize("shared", [False, True], ids=["alone", "shared"])
@pytest.mark.parametrize("horizon, eps", [(2.0, 0.1), (0.05, 0.1), (2.0, 0.3)])
def test_ulim_and_brs_notes_match_the_pairwise_flow(shared, horizon, eps):
    sys, gamma_fn = heat(16), linear(1.0 / SQRT3)
    budget = replace(BUDGET, horizon=horizon)
    with _shared_samples() if shared else contextlib.nullcontext():
        ulim = check_ulim(sys, gamma_fn, eps, budget)
        brs = check_brs(sys, 1.0, horizon, budget)
    assert ulim.notes == _ulim_notes(sys, gamma_fn, eps, budget)
    assert ("exhausted" in ulim.notes) == (horizon == 0.05)
    assert brs.notes == _brs_notes(sys, 1.0, horizon, budget)


def _ulim_reference(sys, gamma_fn, eps, samples):
    """check_ulim as stated: every pair's norms on all 513 points of the
    ULIM grid, from one full kernel sweep."""
    grid, n = ulim_grid(samples.budget), samples.u_sup.size
    table = _anchor_table(sys, samples.states, samples.inputs, [samples.budget.horizon] * n)
    norms = checkers._flow_norms(sys, table, *_on_every_input(grid, n))
    rows = norms.reshape(len(samples.states), n, grid.size)

    report = _sweep(CheckProperty.ULIM, samples, grid, rows,
                    bound=lambda r, sup, t: eps + evaluate(gamma_fn, sup), best=True, tol=0.0)
    firsts = []
    for j in range(n):
        hits = eps + evaluate(gamma_fn, samples.signal(j).sup_norm) - rows[:, j] >= 0.0
        if not hits.any(axis=1).all():
            return replace(report, notes="horizon exhausted for some sample")
        firsts.append(float(np.max(grid[np.argmax(hits, axis=1)])))
    return replace(report, notes=f"tau_hat={max(firsts)!r}")


def _assert_same_bits(got, want):
    """Equal notes and verdict, and every record and the witness bit for bit."""
    assert (got.notes, got.verdict, got.samples_checked) == (
        want.notes, want.verdict, want.samples_checked)
    key = [(r.sample_index, r.t, r.margin) for r in (*got.margins, *want.margins)]
    bits = np.array([[i, *np.array([t, m]).view(np.int64)] for i, t, m in key])
    assert np.array_equal(bits[:len(got.margins)], bits[len(got.margins):])
    assert (got.witness is None) == (want.witness is None)
    if want.witness is not None:
        for a, b in [(got.witness.x0, want.witness.x0),
                     (got.witness.input.breakpoints, want.witness.input.breakpoints),
                     (got.witness.input.values, want.witness.input.values),
                     ([got.witness.t, got.witness.margin], [want.witness.t, want.witness.margin])]:
            assert np.array_equal(np.asarray(a, float).view(np.int64),
                                  np.asarray(b, float).view(np.int64))


def test_probe_rows_keep_only_the_modes_that_have_not_rounded_to_g_v():
    # on a heat(64) sample set of 4 states x 60 inputs the probe rows' mean
    # live width stays below half their lambda dt <= 746 width (6.2 against
    # 20.6 at seed 1), so a silent fallback to the cap 746 fails here
    sys = heat(64)
    samples = _samples(sys, SampleBudget(n_states=4, n_inputs=60, seed=1))
    probes, _ = samples.probes
    own, table = np.isfinite(probes), samples.table
    rows = np.nonzero(own)[0], probes[own]
    width = _rows(sys, table, *rows)[1].mean()
    flush = _rows(sys, (*table[:4], math.inf), *rows)[1].mean()   # M = inf: every cap 746
    assert width < flush / 2.0


@pytest.mark.parametrize("seed", [1, 26408])
def test_square_integrals_run_the_formula_on_under_a_quarter_of_their_cells(monkeypatch,
                                                                           seed):
    # on an integral_heat64-shaped set (heat(64), 3 states, 32 inputs, horizon
    # 2) the groups of rows that run the closed form, each at its widest live
    # width, cover 18% and 21% of the (row, state, mode) cells (seed 26408 is
    # the benchmark's first at its seed 3301); every other cell is a settled
    # mode, one add, so a silent fallback to the dense formula fails here
    sys, budget = heat(64), SampleBudget(n_states=3, n_inputs=32, horizon=2.0, seed=seed)
    table, times, groups = _samples(sys, budget).table, eval_times(budget), []

    def recorded(width):   # the kernel's groups: their rows and states times width
        edges = row_groups(width)
        groups.extend((b - a, width[b - 1]) for a, b in zip(edges[:-1], edges[1:]))
        return edges
    row_groups = system._row_groups
    monkeypatch.setattr(system, "_row_groups", recorded)
    _square_integrals(sys, table, times)
    rows = sum(n for n, _ in groups)
    assert rows >= budget.n_inputs * times.size   # every (input, time) row, and the full segments
    assert sum(n * w for n, w in groups) < rows * table[0].shape[1] * sys.n_modes / 4


@st.composite
def _ulim_cases(draw):
    """A heat system, a budget, gamma and eps, and one chosen pair: an input
    with breakpoints on and off the ULIM grid, and a state whose first modes
    pass the origin together at t_star under the input's first value."""
    sys = heat(draw(st.sampled_from([1, 8, 64, 256])), draw(st.sampled_from([1e-3, 1.0, 1e4])))
    horizon = draw(st.sampled_from([0.01, 0.5, 2.0, 7.0]))
    radius = draw(st.sampled_from([1e-3, 1.0, 50.0]))
    budget = SampleBudget(n_states=draw(st.integers(1, 5)), n_inputs=draw(st.integers(1, 4)),
                          n_times=draw(st.sampled_from([1, 9, 33])), horizon=horizon,
                          radius=radius, seed=draw(st.integers(0, 2 ** 32)))
    grid = ulim_grid(budget)
    on = grid[sorted(draw(st.sets(st.integers(1, 511), max_size=4)))]
    off = horizon * np.array(draw(st.lists(st.floats(0.001, 0.999), max_size=3)))
    end = horizon * draw(st.sampled_from([0.5, 1.0, 1.5]))
    bps = np.unique(np.concatenate([[0.0], on, off, [end]]))
    values = radius * np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=bps.size - 1,
                                             max_size=bps.size - 1)))
    u = InputSignal.piecewise(bps, values)
    t_star = horizon * draw(st.floats(0.0, 1.0))
    grow = np.minimum(sys.lambdas * t_star, 30.0)   # the modes past 30 start at 0
    x0 = np.where(grow < 30.0, sys.input_gain_coeffs * values[0] * -np.expm1(grow), 0.0)
    gamma_fn = linear(draw(st.sampled_from([1e-3, 0.1, 1.0])))
    level = draw(st.one_of(st.sampled_from(["below", "above", "mid"]), st.integers(0, 512)))
    return sys, budget, (x0, u), gamma_fn, level


@settings(max_examples=100, deadline=None)
@given(case=_ulim_cases())
def test_ulim_matches_the_full_sweep_bit_for_bit(case):
    sys, budget, pair, gamma_fn, level = case
    samples = _samples(sys, budget)
    one = _samples_of(sys, [pair[0]], [pair[1]], budget)
    table = _anchor_table(sys, samples.states, samples.inputs,
                          [budget.horizon] * budget.n_inputs)
    norms = checkers._flow_norms(sys, table, *_on_every_input(ulim_grid(budget),
                                                              budget.n_inputs))
    # the norm at a grid point of the last state with input 0, the zero input,
    # where gamma adds 0.0 (slack 0.0 there, a tie with every equal norm);
    # below every norm but 0; so far above every norm that level - |phi|
    # rounds to the level wherever |phi| has decayed (ties again)
    if isinstance(level, int):
        eps = float(norms[-1, level])
    else:
        eps = {"below": 1e-300, "above": 1e6, "mid": float(np.median(norms))}[level]
    eps = eps or 0.5   # eps must be positive; the origin's norm is 0.0
    want, want_one = (_ulim_reference(sys, gamma_fn, eps, s) for s in (samples, one))
    _assert_same_bits(check_ulim(sys, gamma_fn, eps, budget), want)
    with _shared_samples():
        check_iss(sys, heat_cert(), budget)
        _assert_same_bits(check_ulim(sys, gamma_fn, eps, budget), want)
    with _shared_samples(pair=pair):
        _assert_same_bits(check_ulim(sys, gamma_fn, eps, budget), want_one)


def test_ulim_raises_where_the_full_sweep_overflows_between_nodes():
    # mode 1 decays slowly from the radius, mode 2 rises within 1e-4 to the
    # constant input's value: on that pair |phi| is about 1.2 r at the first
    # grid points, where its squares overflow, and about r at every node,
    # and the enclosure alone would rule those points out; the radius is
    # past the reach cap, so the sample set is refused before any sweep
    sys = SpectralSystem(np.array([100.0, 1e5]), np.array([0.0, 1e5]))
    budget = SampleBudget(n_states=2, n_inputs=2, n_times=1, radius=1.2e154)
    with pytest.raises(ValidationError, match=r"exceeds 2\*\*400"):
        check_ulim(sys, linear(1e-300), 0.1, budget)


def test_ulim_rejects_nan_eps():
    with pytest.raises(DomainError):
        check_ulim(heat(8), linear(1.0), math.nan, BUDGET)


def test_ulim_zero_state_hits_immediately():
    sys = heat(8)
    grid = np.linspace(0.0, 2.0, 513)
    slack = ulim_slack(sys, linear(1.0), 0.1, np.zeros(8), InputSignal.zero(), grid)
    assert slack >= 0.1


def test_ulim_short_horizon_violated():
    # horizon 0.05: exp(-pi^2 * 0.05) = 0.61 > eps for the full-radius state
    sys = heat()
    rep = check_ulim(sys, linear(1.0 / SQRT3), 0.1, replace(BUDGET, horizon=0.05))
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
                check_uls(sys, linear(cert.beta.M), cert.gamma, budget),
                check_ulim(sys, cert.gamma, 0.1, budget),
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
            samples = _samples(sys, replace(budget, radius=delta, horizon=h))
            level = _sweep(CheckProperty.CEP, samples, *samples.probes,
                           bound=lambda r, sup, t, e=eps_j: e, tol=0.0)
            if level.witness is None:
                chosen = delta
                break
        picks.append(level.witness or Witness(np.zeros(sys.n_modes), InputSignal.zero(), h,
                                              level.worst_margin))
        table.append(f"eps={eps_j!r}->delta={chosen!r}")
    return conclude(CheckProperty.CEP, [w.t for w in picks], [w.margin for w in picks], 0.0,
                    lambda j: (picks[j].x0, picks[j].input), notes="table " + "; ".join(table))


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
    # here (squares near the subnormal range)
    "heat8_radius_1e-155": (heat(8), SampleBudget(n_states=6, n_inputs=4, n_times=9,
                                                  radius=1e-155, seed=2), 1.0),
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
    sys, cert = heat(8), nti_cert()
    samples = _samples_of(sys, [np.zeros(8)], [InputSignal.zero()], SampleBudget(horizon=2.0))
    lhs, _ = samples.integrals(cert.alpha)   # t = 2.0, the horizon, is the last column
    assert cert.rhs(0.0, 0.0, 2.0) - lhs[0, 0, -1] == 0.0


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
    tail = _input_integrals(_table([u]), sigma, [2.0])[0, 0]
    assert tail == pytest.approx(2.0 / 3.0, rel=1e-15)
    # versus the sup-norm form t * sigma(1) = 4/3 at t = 2
    assert tail < 2.0 * (2.0 / 3.0)


def test_integral_to_integral_heat_reported():
    # outcome is reported, not asserted: the probe must run and be replayable
    rep = check_integral_to_integral(heat(), nti_cert(), BUDGET)
    assert rep.samples_checked == BUDGET.n_pairs
    assert rep.verdict in (Verdict.NO_VIOLATION_FOUND, Verdict.VIOLATED)


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
    samples = _samples_of(sys, states, _KERNEL_INPUTS, BUDGET)   # horizon 2.0
    norms = checkers._flow_norms(sys, samples.table, *_on_every_input(
        grid, len(_KERNEL_INPUTS))).reshape(len(states), len(_KERNEL_INPUTS), grid.size)
    got = [row for j in range(len(_KERNEL_INPUTS)) for row in norms[:, j]]
    # the kernel runs input by input, each input's states in pair order
    want = [sample_trajectory(sys, x0, u, grid).norms()
            for u in _KERNEL_INPUTS for x0 in states]
    assert len(got) == len(want)
    for g, w in zip(got, want):
        np.testing.assert_allclose(g, w, rtol=1e-12, atol=0.0)
    # conclude receives the picks in pair order
    records = _sweep(CheckProperty.ISS, samples, grid, norms,
                     bound=lambda r, sup, t: 0.0).margins
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


@pytest.mark.parametrize("prop", ["ISS", "ULS", "ULIM"])
def test_single_pair_functions_refuse_an_overflowing_certificate(prop):
    # each bound overflows to inf, which conclude refuses as a margin
    sys, x0, u = heat(8), np.full(8, 10.0 / math.sqrt(8.0)), InputSignal.constant(10.0, 2.0)
    huge = linear(1e308)
    with np.errstate(over="ignore"), pytest.raises(
            ValidationError, match=f"^{prop}: non-finite margin"):
        if prop == "ISS":
            iss_margin(sys, ISSCertificate(DecayEnvelope(1e308, 1.0), linear(1.0)), x0, u, 1.0)
        elif prop == "ULS":
            uls_margin(sys, huge, linear(1.0), x0, u, 1.0)
        else:
            ulim_slack(sys, huge, 0.1, x0, u, np.linspace(0.0, 2.0, 17))


def _overflowing_anchor():
    # an input of 1e308 on [t1, t2), strictly between two rows of the ULIM
    # grid, overflows mode 2's anchor state at t2; after t2 the input is 0
    # and lambda_2 = 1e6 makes mode 2 dead on every later row, so only the
    # anchor holds the inf
    grid = ulim_grid(BUDGET)
    t1 = grid[100] + 0.001
    assert 1e6 * (grid[101] - (t1 + 0.001)) > 746.0
    return (SpectralSystem(np.array([1.0, 1e6]), np.array([0.0, 4e6])),
            InputSignal.piecewise([0.0, t1, t1 + 0.001], [0.0, 1e308]), [1.0])


def _overflowing_anchor_then_a_piece():
    # as _overflowing_anchor, with one more piece after it: mild_solution steps
    # the inf through a decay of 0.0 before its last piece
    sys, u, _ = _overflowing_anchor()
    return sys, InputSignal.piecewise([*u.breakpoints, 1.5], [*u.values, 0.0]), [2.0]


def _overflowing_forced_term():
    # g_1 v = 1e300 * 1e10 overflows in the last piece of every row, no anchor,
    # also at t = 0, where 1 - exp(-lambda_1 t) is 0.0
    return (SpectralSystem(np.array([1e-10, 1.0]), np.array([1e290, 1.0])),
            InputSignal.constant(1e10, 2.0), [0.5, 0.0])


@pytest.mark.parametrize("case", [_overflowing_anchor, _overflowing_anchor_then_a_piece,
                                  _overflowing_forced_term],
                         ids=["anchor", "anchor_then_a_piece", "forced_term"])
def test_an_overflowing_anchor_in_a_dead_mode_never_reads_clean(case):
    sys, u, times = case()
    grid = ulim_grid(BUDGET)
    with np.errstate(over="ignore"), pytest.raises(ValidationError, match="states must be finite"):
        ulim_slack(sys, linear(1.0), 0.1, np.zeros(2), u, grid)
    with np.errstate(over="ignore"), pytest.raises(ValidationError, match="states must be finite"):
        sample_trajectory(sys, np.zeros(2), u, grid)
    for t in times:
        with np.errstate(over="ignore"), pytest.raises(ValidationError,
                                                       match="states must be finite"):
            mild_solution(sys, np.zeros(2), u, t)


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
        got = one_input_squares(sys, x0s, u, times)
        cuts = [0.0, *u.breakpoints[u.breakpoints > 0.0]]
        for k, t in enumerate(times):
            ends = [c for c in cuts if c < t] + [t]
            want = sum(_gauss_square_integral(sys, x0s, a, b, u)
                       for a, b in zip(ends[:-1], ends[1:])) if t > 0.0 else np.zeros(3)
            np.testing.assert_allclose(got[:, k], want, rtol=1e-10, atol=1e-15)
    assert np.all(one_input_squares(sys, x0s, InputSignal.zero(), [0.0]) == 0.0)


def test_closed_form_agrees_with_one_state_and_one_time():
    # a witness replays one state at one time: same bits as in the stack
    sys = heat(16)
    x0s = np.random.default_rng(5).uniform(-1.0, 1.0, (4, 16))
    times = eval_times(BUDGET)
    full = one_input_squares(sys, x0s, _EIGHT_PIECES, times)
    for s in (0, 3):
        for k in (0, 5, times.size - 1):
            one = one_input_squares(sys, x0s[s:s + 1], _EIGHT_PIECES, times[k:k + 1])
            assert one[0, 0] == full[s, k]


@pytest.mark.parametrize("alpha", [power(0.5, 2.0), power(0.5, 1.0)],
                         ids=["closed_form", "simpson"])
def test_integral_checks_share_one_table_per_sample_set(monkeypatch, alpha):
    # norm_to_integral builds the int alpha(|phi|) table that
    # integral_to_integral reads: one closed-form call for every input, or one
    # Simpson kernel call per input, in all; only integral_to_integral makes
    # the int sigma(|u|) table, once; and both reports equal the checks run
    # alone; the tiny psi and sigma refute both
    sys, budget = heat(16), SampleBudget(n_states=5, n_inputs=6, n_times=9, seed=41)
    cert = NormToIntegralCertificate(alpha=alpha, psi=power(1e-3, 2.0), sigma=power(1e-3, 2.0))
    checks = (check_norm_to_integral, check_integral_to_integral)
    alone = [check(sys, cert, budget) for check in checks]
    calls = []
    for name in ("_square_integrals", "_flow_norms", "_input_integrals"):
        def counted(*args, _name=name, _real=getattr(checkers, name)):
            calls.append(_name)
            return _real(*args)
        monkeypatch.setattr(checkers, name, counted)
    with _shared_samples():
        shared = []
        for check in checks:
            calls.append(check.__name__)
            shared.append(check(sys, cert, budget))
    closed = alpha.params[1] == 2.0
    table = ["_square_integrals"] if closed else ["_flow_norms"] * budget.n_inputs
    assert calls == ["check_norm_to_integral", *table,
                     "check_integral_to_integral", "_input_integrals"]
    for got, want in zip(shared, alone):
        assert got.violated
        assert_same_report(got, want)
        assert _bits(got.margins) == _bits(want.margins)


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
    got = _input_integrals(_table(_KERNEL_INPUTS), sigma, times)
    for u, row in zip(_KERNEL_INPUTS, got):
        want = [_per_segment_input_integral(u, sigma, t) for t in times]
        assert row.tolist() == want
        assert (_input_integrals(_table([u]), sigma, [1.3])[0, 0]
                == _per_segment_input_integral(u, sigma, 1.3))
    with pytest.raises(DomainError):
        _input_integrals(_table([_EIGHT_PIECES]), sigma, [-1.0])


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
        # margins psi(0) + t sigma(1) - int on [0, t]: Simpson on the graded
        # grid (the same alpha in another form), or exact
        def margin(c):
            samples = _samples_of(sys, [np.zeros(1)], [u], SampleBudget(horizon=t))
            lhs, _ = samples.integrals(c.alpha)   # t, the horizon, is the last column
            return c.rhs(0.0, 1.0, t) - lhs[0, 0, -1]
        assert abs(margin(simpson_cert) - (t - exact)) < 1e-6
        assert abs(margin(cert) - (t - exact)) < 1e-14


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
    params = dissipation_constants(op, sys, 0.5)
    rep = check_dissipation(sys, op, params, BUDGET)
    assert not rep.violated


def test_dissipation_zero_state_unit_input():
    # at x0 = 0 the analytic derivative is 0 and the rhs is c(eps) > 0
    sys = heat()
    op = build_neg_inverse(sys)
    params = dissipation_constants(op, sys, 0.5)
    with _shared_samples(pair=(np.zeros(64), InputSignal.constant(1.0, 2.0))):
        m = check_dissipation(sys, op, params, BUDGET).worst_margin
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
    tail = InputSignal.constant(0.37 * (1.0 + budget.radius), budget.horizon)
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


def _bits(records):
    """The records with their times and margins as bit patterns, so that
    0.0 and -0.0 differ."""
    return [(r.sample_index, float(r.t).hex(), float(r.margin).hex()) for r in records]


AXIOM_SYSTEMS = pytest.mark.parametrize(
    "sys", [heat(16), SpectralSystem([0.5, 2.0, 7.0], [1.0, -0.4, 2.5])],
    ids=["heat16", "diagonal3"])


@AXIOM_SYSTEMS
def test_batched_axiom_checks_equal_the_per_pair_flow(sys):
    budget = SampleBudget(n_states=8, n_inputs=7, n_times=9, seed=13)
    identity, cocycle = _axioms_per_pair(sys, budget)
    assert _bits(check_identity(sys, budget).margins) == _bits(identity)
    assert _bits(check_cocycle(sys, budget).margins) == _bits(cocycle)


def test_identity_runs_where_the_twins_tail_end_overflows():
    # past a horizon of about 1.2e308, t_mid + horizon overflows to inf: the
    # twin's tail then never ends, which the flows up to t_mid do not read
    sys, budget = heat(8), SampleBudget(n_states=4, n_inputs=5, horizon=1.3e308, seed=3)
    rep = check_identity(sys, budget)
    assert rep.samples_checked == 20 and rep.worst_margin == 0.0 and not rep.violated


@pytest.mark.parametrize("horizon", [1e-3, 2.0, 1e6])
@pytest.mark.parametrize("n", [1, 8, 256])
def test_axiom_checks_equal_the_per_pair_formula_across_scales(n, horizon):
    # every pair's t and margin, bit for bit, against mild_solution pair by
    # pair and, for the cocycle, the restart from phi(t) under u.shifted(t):
    # at horizon 1e-3 every mode is live, at 1e6 nearly all have decayed
    sys, budget = heat(n), SampleBudget(n_states=6, n_inputs=9, horizon=horizon, seed=29)
    identity, cocycle = _axioms_per_pair(sys, budget)
    assert _bits(check_identity(sys, budget).margins) == _bits(identity)
    assert _bits(check_cocycle(sys, budget).margins) == _bits(cocycle)


@pytest.mark.parametrize(
    "sys", [heat(16), SpectralSystem([0.5, 2.0, 7.0], [1.0, -0.4, 2.5]), heat(1), heat(256)],
    ids=["heat16", "diagonal3", "heat1", "heat256"])
def test_dissipation_check_equals_the_per_pair_dini_estimates(sys):
    # the constants and a refuted inequality: with eps = 1e-3 and the c(eps)
    # of a zero |A^-1 B|, Vdot = -|x0|**2 + u(0) sum_k b_k x0_k / lambda_k
    # exceeds the bound (eps - 1) |x0|**2 wherever the input pushes the state;
    # every pair's margin is the bound minus dini_estimate's analytic
    # derivative, bit for bit
    budget = SampleBudget(n_states=8, n_inputs=7, n_times=9, seed=13)
    op = build_datko(sys)
    good = dissipation_constants(op, sys, 0.5)
    bad = replace(good, epsilon=1e-3, norm_AinvB=0.0)
    inputs = [draw_input(budget, j) for j in range(budget.n_inputs)]
    for params, violated in ((good, False), (bad, True)):
        reference, witness = [], None
        for i in range(budget.n_states):
            x0 = draw_state(sys, budget, i)
            for j, u in enumerate(inputs):
                x0_sq = state_norm(x0) ** 2
                est = dini_estimate(op, sys, x0, u)
                assert est.value.hex() == max(
                    (v_value(op, mild_solution(sys, x0, u, h)) - v_value(op, x0)) / h
                    for h in DEFAULT_DINI_H).hex()
                margin = params.rhs(x0_sq, u.sup_norm) - est.analytic
                reference.append(MarginRecord(i * budget.n_inputs + j, 0.0, margin))
                tol = POINT_TOL * (1.0 + x0_sq + u.sup_norm ** 2)
                if margin < -tol and (witness is None or margin < witness[1]):
                    witness = (x0, margin)
        rep = check_dissipation(sys, op, params, budget)
        assert _bits(rep.margins) == _bits(reference)
        assert rep.violated == violated == (witness is not None)
        if violated:
            w = rep.witness
            assert w.x0.tolist() == witness[0].tolist() and w.margin == witness[1]
            assert _on_pair(w, lambda: check_dissipation(sys, op, params, budget)) == w.margin


@pytest.mark.parametrize("bad", [math.nan, math.inf])
@pytest.mark.parametrize("k", [0, 5, 11])
def test_a_non_finite_vdot_raises(monkeypatch, k, bad):
    # pair k's Vdot is not finite: the check raises instead of reporting
    # clean, wherever the pair sits among the states and inputs
    sys, budget = heat(8), SampleBudget(n_states=4, n_inputs=3, seed=5)
    op = build_datko(sys)
    params = dissipation_constants(op, sys, 0.5)
    assert not check_dissipation(sys, op, params, budget).violated
    vdot, calls = checkers._vdot, []
    i, j = divmod(k, budget.n_inputs)

    def spoiled(*args):   # called once, for every state (rows) and input (columns)
        rows = vdot(*args)
        rows[i, j] = bad
        calls.append(None)
        return rows
    monkeypatch.setattr(checkers, "_vdot", spoiled)
    with pytest.raises(ValidationError, match="non-finite margin"):
        check_dissipation(sys, op, params, budget)


@pytest.mark.parametrize("radius", [2.0 ** 1022, 1e200, 2.0 ** 512])
def test_dissipation_refuses_squares_that_overflow(monkeypatch, radius):
    # past |x0| or |u|_inf = 2**512 a Python float's square raises
    # OverflowError: the budget is refused far below that, past the reach
    # cap, as for every check, before Vdot is evaluated
    s = load_scenario("heat_iss.scn")
    r, budget = _resolve(s), replace(s.budget, radius=radius)
    monkeypatch.setattr(checkers, "_vdot", lambda *args: pytest.fail("Vdot was evaluated"))
    with pytest.raises(ValidationError, match=r"exceeds 2\*\*400"):
        check_dissipation(r.sys, r.op, r.params, budget)


@pytest.mark.parametrize("werror", [False, True], ids=["warn", "W_error"])
@pytest.mark.parametrize("radius", [1.4e154, 1e200, 2.0 ** 1022])
def test_every_check_refuses_a_radius_past_the_reach_cap(radius, werror):
    # radius (1 + |A^-1 B|) past 2**400: each of the ten checks refuses its
    # sample set before a norm or a square can overflow, with a
    # ValidationError and no RuntimeWarning
    s = load_scenario("heat_iss.scn")
    s, r = replace(s, budget=replace(s.budget, radius=radius)), _resolve(s)
    assert len(_CHECKS) == 10
    for name, run in _CHECKS.items():
        with warnings.catch_warnings():
            warnings.simplefilter("error" if werror else "ignore", RuntimeWarning)
            with pytest.raises(ValidationError, match=r"exceeds 2\*\*400"):
                run(s, r)


@pytest.mark.parametrize("b", [[600.0, -20.0, 3.0], [2e241, 0.0, 0.0]],
                         ids=["gain600", "gain2e241"])
def test_cep_refuses_the_reach_cap_before_its_levels(monkeypatch, b):
    # at 1.5 times the cap every level's radius, half the budget's and less,
    # is under it: CEP refuses the budget before it draws any level, also
    # below radius 2**-400 (gain 2e241), where it sweeps level by level
    sys = SpectralSystem([1.0, 2.0, 3.0], b)
    radius = 1.5 * 2.0 ** 400 / (1.0 + sys.input_gain_norm)
    monkeypatch.setattr(checkers, "_samples", lambda *args: pytest.fail("a level was drawn"))
    with pytest.raises(ValidationError, match=r"exceeds 2\*\*400"):
        check_cep(sys, SampleBudget(n_states=6, n_inputs=4, n_times=9, radius=radius), 20.0)


def _exact_dissipation_margins(op, sys, params, states, inputs):
    """(eps - 1) |x0|**2 + c(eps) |u|_inf**2 - Vdot_u(x0) of every pair, in
    exact rational arithmetic from the same floats, with |x0|**2 exact too:
    Vdot = 2 (u(0) sum_k p_k b_k x_k - sum_k p_k lambda_k x_k**2)."""
    coeffs = [tuple(map(Fraction, c)) for c in
              zip(op.p_coeffs.tolist(), sys.lambdas.tolist(), sys.b_coeffs.tolist())]
    eps, c = Fraction(params.epsilon), Fraction(params.c_eps)
    out = []
    for x0 in states:
        x = [Fraction(v) for v in x0.tolist()]
        sq = sum(xk * xk for xk in x)
        decay = sum(p * lam * xk * xk for (p, lam, _), xk in zip(coeffs, x))
        push = sum(p * b * xk for (p, _, b), xk in zip(coeffs, x))
        for u in inputs:
            vdot = 2 * (Fraction(u.value_at(0.0)) * push - decay)
            out.append((eps - 1) * sq + c * Fraction(u.sup_norm) ** 2 - vdot)
    return out


DISSIPATION_SCENARIOS = [
    ("heat_iss.scn", {}), ("heat_bad_gain.scn", {}), ("diagonal_custom.scn", {}),
    ("datko_vs_neginverse.scn", {}), ("heat_iss.scn", {"a": 100.0}),
    ("heat_iss.scn", {"a": 1e10}), ("heat_iss.scn", {"a": 1e-10}),
    ("heat_iss.scn", {"n_modes": 256}), ("datko_vs_neginverse.scn", {"n_modes": 256})]


@pytest.mark.parametrize("name, override", DISSIPATION_SCENARIOS,
                         ids=[f"{n[:-4]}{''.join(f'-{k}={v}' for k, v in o.items())}"
                              for n, o in DISSIPATION_SCENARIOS])
def test_dissipation_margin_error_is_far_below_its_tolerance(name, override):
    # the float margin of every pair against the same margin in exact
    # arithmetic from the same float inputs: at most 2.6e-16 (1 + |x0|**2 +
    # |u|_inf**2) on these samples, so the witness tolerance POINT_TOL times
    # that scale flags nothing that rounding made
    s = replace(load_scenario(name), **override)
    r, budget = _resolve(s), s.budget
    states = [draw_state(r.sys, budget, i) for i in range(budget.n_states)]
    inputs = [draw_input(budget, j) for j in range(budget.n_inputs)]
    rep = check_dissipation(r.sys, r.op, r.params, budget)
    exact = _exact_dissipation_margins(r.op, r.sys, r.params, states, inputs)
    assert [m.sample_index for m in rep.margins] == list(range(budget.n_pairs))
    for m, e in zip(rep.margins, exact):
        i, j = divmod(m.sample_index, budget.n_inputs)
        scale = 1.0 + float(np.dot(states[i], states[i])) + inputs[j].sup_norm ** 2
        assert abs(Fraction(m.margin) - e) <= Fraction(1e-15) * Fraction(scale)
    assert not rep.violated


def _diagonal_systems():
    """Random diagonal systems: increasing lambda_k over six decades, b_k of
    either sign over four."""
    def build(n, seed):
        rng = np.random.default_rng(seed)
        lam = np.cumsum(10.0 ** rng.uniform(-3.0, 3.0, n))
        b = rng.choice((-1.0, 1.0), n) * 10.0 ** rng.uniform(-2.0, 2.0, n)
        return SpectralSystem(lam, b)
    return st.builds(build, st.integers(1, 40), st.integers(0, 2 ** 32 - 1))


@settings(max_examples=60, deadline=None)
@given(sys=_diagonal_systems(), datko=st.booleans(),
       eps=st.floats(1e-6, 1.0 - 1e-6), seed=st.integers(0, 2 ** 16))
def test_the_dissipation_inequality_holds_with_the_papers_constant(sys, datko, eps, seed):
    # with q_k = 2 p_k lambda_k + eps - 1 > 0 the sup over x of
    # Vdot_u(x) - (eps - 1) |x|**2 is u(0)**2 sum_k (p_k b_k)**2 / q_k, attained
    # at x* = u(0) p b / q: |A^-1 B|**2 / (4 eps) for datko, which c(eps)
    # equals when kappa0 = 0, and |A^-1 B|**2 / (1 + eps) for neg_inverse_A,
    # below its c(eps) = |A^-1 B|**2 / eps; so neither the samples nor x*,
    # the worst state for a unit input, may violate
    op = build_datko(sys) if datko else build_neg_inverse(sys)
    params = dissipation_constants(op, sys, eps)
    budget = SampleBudget(n_states=8, n_inputs=6, n_times=1, seed=seed)
    assert not check_dissipation(sys, op, params, budget).violated
    u = InputSignal.constant(1.0, 1.0)
    p = op.p_coeffs
    x_star = p * sys.b_coeffs / (2.0 * p * sys.lambdas + eps - 1.0)
    with _shared_samples(pair=(x_star, u)):
        margin = check_dissipation(sys, op, params, budget).worst_margin
    assert margin >= -POINT_TOL * (1.0 + state_norm(x_star) ** 2 + 1.0)


@pytest.mark.parametrize("build", [build_datko, build_neg_inverse])
def test_dissipation_refutes_a_constant_below_the_sharp_one_at_x_star(build):
    # at x* = p b / q with u = 1 the margin is c(eps) minus the sharp constant
    # sum_k (p_k b_k)**2 / q_k: with c 3% below it the check refutes, with x*
    # as its witness, and with dissipation_constants' own c it holds
    sys, eps = heat(), 0.5
    op = build(sys)
    p = op.p_coeffs
    q = 2.0 * p * sys.lambdas + eps - 1.0
    sharp = float(np.sum((p * sys.b_coeffs) ** 2 / q))
    x_star = p * sys.b_coeffs / q
    params = dissipation_constants(op, sys, eps)
    gain = params.norm_AinvB * math.sqrt(0.97 * sharp / params.c_eps)
    weak = replace(params, norm_AinvB=gain)
    with _shared_samples(pair=(x_star, InputSignal.constant(1.0, BUDGET.horizon))):
        refuted = check_dissipation(sys, op, weak, BUDGET)
        held = check_dissipation(sys, op, params, BUDGET)
    assert refuted.violated and np.array_equal(refuted.witness.x0, x_star)
    assert refuted.worst_margin == pytest.approx(-0.03 * sharp, rel=1e-9)
    assert not held.violated


def test_dissipation_calls_no_stepper(monkeypatch):
    # Vdot is a closed form: no flow is stepped for the margins
    sys, budget = heat(8), SampleBudget(n_states=4, n_inputs=3, seed=5)
    op = build_datko(sys)
    params = dissipation_constants(op, sys, 0.5)
    expected = check_dissipation(sys, op, params, budget)
    for name in ("_flow_rows", "_flow_norms", "_square_integrals"):
        monkeypatch.setattr(checkers, name, None)
    monkeypatch.setattr("isslab.lyapunov.mild_solution", None)
    assert_same_report(check_dissipation(sys, op, params, budget), expected)
