"""Tests for the spectral systems, inputs, mild solutions and kappa bounds."""

import csv
import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

from isslab import (AdmissibilityBound, DomainError, InputSignal,
                    SpectralSystem, Trajectory, ValidationError, build_time_grid,
                    heat_dirichlet, kappa_bounds, mild_solution, sample_trajectory,
                    state_norm, write_trajectory_csv)
from isslab.checkers import ENCLOSURE_ABS, ENCLOSURE_FLOOR, ENCLOSURE_REL
from isslab import system
from isslab.system import (_BLOCK_CELLS, _CSV_ROWS, _EXP_FLUSH, _ROW_BLOCK, _SETTLED,
                           _anchor_table, _enclosure, _finite, _flow_norms, _flow_rows,
                           _input_table, _row_groups, _square_integrals, _table_rows)
from oracles import concatenated, constant, duration, shifted, value_at

PI2 = math.pi ** 2


def heat(n, a=1.0):
    return heat_dirichlet(a, n)


def _table(inputs):
    """The input table of a list of signals."""
    return _input_table([u.breakpoints for u in inputs], [u.values for u in inputs])


def _kernel(sys, x0s, inputs, grids):
    """The flow kernel's norms on each input's grid, one grid after another,
    from the anchor table up to each grid's end."""
    table = _anchor_table(sys, x0s, _table(inputs), [g[-1] for g in grids])
    return _flow_norms(sys, table, np.repeat(np.arange(len(grids)), [len(g) for g in grids]),
                       np.concatenate(grids))


def profile_coefficient(k):
    """Oracle for the steady lift: <xi, e_k> with e_k = sqrt(2) sin(k pi xi),
    computed by adaptive quadrature rather than the closed form."""
    val, err = quad(lambda x: x * math.sqrt(2.0) * math.sin(k * math.pi * x), 0.0, 1.0)
    assert err < 1e-8
    return val


# ---------------------------------------------------------------------------
# the heat preset


def test_heat_coefficients_against_lifting_oracle():
    # b_k = lambda_k * <xi, e_k>: the steady state under u = 1 is the profile xi
    sys = heat(5)
    for k in range(1, 6):
        expected = sys.lambdas[k - 1] * profile_coefficient(k)
        assert sys.b_coeffs[k - 1] == pytest.approx(expected, rel=1e-10)


def test_heat_single_mode_values():
    sys = heat(1)
    assert sys.lambdas[0] == pytest.approx(PI2, rel=1e-15)
    assert sys.b_coeffs[0] == pytest.approx(math.sqrt(2.0) * math.pi, rel=1e-15)


def test_heat_sign_alternation():
    sys = heat(2)
    assert sys.b_coeffs[1] == pytest.approx(-2.0 * math.sqrt(2.0) * math.pi, rel=1e-15)


def test_heat_diffusivity_scaling():
    assert heat(1, a=2.0).lambdas[0] == pytest.approx(2.0 * PI2, rel=1e-15)


def test_steady_profile_reached_by_simulation():
    # simulate u = 1 from rest and compare the long-time coefficients with
    # the lifting prediction sqrt(2) (-1)^(k+1) / (k pi)
    sys = heat(16)
    u = constant(1.0, 12.0)
    x = mild_solution(sys, np.zeros(16), u, 12.0)
    for k in range(1, 17):
        expected = math.sqrt(2.0) * (-1.0) ** (k + 1) / (k * math.pi)
        assert x[k - 1] == pytest.approx(expected, rel=1e-9)


def test_system_invariants_rejected():
    with pytest.raises(ValidationError):
        SpectralSystem(np.array([2.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValidationError):
        SpectralSystem(np.array([-1.0, 1.0]), np.array([1.0, 1.0]))
    with pytest.raises(ValidationError):
        SpectralSystem(np.array([1.0]), np.array([1.0, 2.0]))


def test_system_is_its_arrays():
    # no label: the heat preset equals, and hashes as, the system of its arrays
    heat = heat_dirichlet(1.0, 4)
    same = SpectralSystem(heat.lambdas.copy(), heat.b_coeffs.copy())
    assert heat == same and hash(heat) == hash(same)
    with pytest.raises(TypeError, match="unexpected keyword argument 'label'"):
        SpectralSystem(heat.lambdas, heat.b_coeffs, label="heat")


def test_input_gain_norm_is_taken_once_per_system(monkeypatch):
    # the sample sets, sup, ULIM, the harness and the dissipation constants read it
    sys = heat_dirichlet(1.0, 8)
    first = sys.input_gain_norm
    monkeypatch.setattr(np.linalg, "norm", lambda *args, **kw: pytest.fail("taken again"))
    assert sys.input_gain_norm is first


# ---------------------------------------------------------------------------
# state norm


def test_state_norm_trivial():
    assert state_norm(np.zeros(4)) == 0.0
    e1 = np.zeros(4)
    e1[0] = 1.0
    assert state_norm(e1) == 1.0


def test_profile_norm_approaches_one_over_sqrt3():
    # sum_k 2/(k pi)^2 -> 1/3 through sum 1/k^2 = pi^2/6
    sys = heat(4096)
    norm = state_norm(sys.input_gain_coeffs)
    assert norm == pytest.approx(1.0 / math.sqrt(3.0), abs=2e-4)


# ---------------------------------------------------------------------------
# semigroup and mild solutions


def free(sys, t, x):
    """The unforced flow T(t)x, the mild solution under the zero input."""
    return mild_solution(sys, x, InputSignal.zero(), t)


def test_semigroup_identity_exact():
    sys = heat(8)
    x = np.linspace(-1.0, 1.0, 8)
    assert np.array_equal(free(sys, 0.0, x), x)


def test_semigroup_single_mode_decay():
    sys = heat(4)
    e1 = np.zeros(4)
    e1[0] = 1.0
    out = free(sys, 0.1, e1)
    assert out[0] == pytest.approx(math.exp(-0.1 * PI2), rel=1e-15)
    assert np.all(out[1:] == 0.0)


def test_semigroup_diagonality():
    sys = heat(4)
    e1 = np.zeros(4); e1[0] = 1.0
    e2 = np.zeros(4); e2[1] = 1.0
    t = 0.37
    together = free(sys, t, e1 + e2)
    assert np.array_equal(together, free(sys, t, e1) + free(sys, t, e2))


def test_negative_time_rejected():
    sys = heat(2)
    with pytest.raises(DomainError):
        mild_solution(sys, np.zeros(2), InputSignal.zero(), -1.0)


def test_zero_input_reduces_to_semigroup():
    # coordinatewise exp(-lambda_k t) x_k, bit for bit
    sys = heat(8)
    x = np.linspace(0.5, -0.5, 8)
    t = 0.73
    assert np.array_equal(free(sys, t, x), x * np.exp(-sys.lambdas * t))


def test_single_mode_step_response():
    # oracle: closed-form scalar ODE solution x(t) = 1 - exp(-t)
    sys = SpectralSystem(np.array([1.0]), np.array([1.0]))
    u = constant(1.0, 5.0)
    x = mild_solution(sys, np.zeros(1), u, 1.0)
    assert x[0] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-15)


def test_heat_steady_norm_approaches_gain():
    sys = heat(256)
    u = constant(1.0, 10.0)
    norm = state_norm(mild_solution(sys, np.zeros(256), u, 10.0))
    # truncation tail of the squared norm below 256 modes is ~8e-4
    assert norm == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-3)


def _reference_flow(sys, x0, u, t):
    """phi(t, x0, u) stepped segment by segment: x exp(-lambda dt) + g (1 -
    exp(-lambda dt)) v to each breakpoint below t, dt clipped at _settle, then
    the piece after the last one in _decay_forced's order."""
    lam, gain, x = sys.lambdas, sys.input_gain_coeffs, np.asarray(x0, dtype=float)
    bp, vals, a = u.breakpoints.tolist(), u.values.tolist() + [0.0], 0
    while a + 1 < len(bp) and bp[a + 1] < t:
        decay = np.exp(-lam * min(bp[a + 1] - bp[a], sys._settle))
        x = x * decay + gain * (1.0 - decay) * vals[a]
        a += 1
    decay = np.exp(-min(t - bp[a], sys._settle) * lam)
    return x * decay + gain * vals[a] * (1.0 - decay)


def test_multi_segment_matches_manual_composition():
    sys = heat(6)
    u = InputSignal.piecewise([0.0, 0.4, 1.1, 2.0], [1.0, -0.5, 0.25])
    # manual composition segment by segment, bit for bit
    state = np.zeros(6)
    for dur, val in ((0.4, 1.0), (1.1 - 0.4, -0.5), (2.0 - 1.1, 0.25)):
        decay = np.exp(-sys.lambdas * dur)
        state = state * decay + sys.input_gain_coeffs * (1.0 - decay) * val
    decay = np.exp(-(2.5 - 2.0) * sys.lambdas)
    state = state * decay + sys.input_gain_coeffs * 0.0 * (1.0 - decay)
    assert np.array_equal(mild_solution(sys, np.zeros(6), u, 2.5), state)
    assert np.array_equal(_reference_flow(sys, np.zeros(6), u, 2.5), state)


# ---------------------------------------------------------------------------
# trajectories


def test_trajectory_identity_bit_exact():
    sys = heat(8)
    x0 = np.linspace(-0.3, 0.9, 8)
    traj = sample_trajectory(sys, x0, constant(1.0, 2.0), np.array([0.0]))
    assert np.array_equal(traj.states[0], x0)


def test_trajectory_refinement_leaves_shared_times_unchanged():
    sys = heat(16)
    x0 = np.zeros(16)
    x0[0] = 1.0
    u = InputSignal.piecewise([0.0, 0.5, 2.0], [0.8, -0.4])
    coarse = np.linspace(0.0, 2.0, 21)
    fine = np.unique(np.concatenate([coarse, np.linspace(0.0, 2.0, 41)]))
    t1 = sample_trajectory(sys, x0, u, coarse)
    t2 = sample_trajectory(sys, x0, u, fine)
    idx = np.searchsorted(fine, coarse)
    assert np.array_equal(t2.states[idx], t1.states)


def test_trajectory_matches_mild_solution_across_row_blocks():
    # every row is mild_solution at its time, bit for bit: on uniform grids of
    # several row blocks, on graded grids (which hold every breakpoint), on
    # grids that end on a breakpoint, and on the zero tail after the input
    diag = SpectralSystem(np.array([0.5, 3.0, 40.0]), np.array([1.0, -2.0, 0.7]))
    u = InputSignal.piecewise([0.0, 0.3, 0.75, 1.1], [1.0, -0.6, 0.4])  # zero tail
    steps = InputSignal.piecewise(np.linspace(0.0, 2.0, 9), np.linspace(-1.0, 1.0, 8))
    cases = [(heat(16), np.linspace(0.5, -0.25, 16), u, np.linspace(0.0, 2.0, 700)),
             (heat(16), np.linspace(0.5, -0.25, 16), u, build_time_grid(2.0, u)),
             (heat(64), np.full(64, 0.1), steps, build_time_grid(2.0, steps)),
             (heat(64), np.zeros(64), steps, np.array([0.0, 0.25, 1.0])),
             (diag, np.array([0.3, -1.0, 2.0]), u, build_time_grid(1.1, u)),
             (diag, np.array([0.3, -1.0, 2.0]), u, np.array([0.0, 0.3])),
             (diag, np.zeros(3), InputSignal.zero(), np.linspace(0.0, 1.0, 300))]
    for sys, x0, u_, grid in cases:
        traj = sample_trajectory(sys, x0, u_, grid)
        rows = np.array([mild_solution(sys, x0, u_, t) for t in grid])
        differ = np.nonzero(np.any(traj.states != rows, axis=1))[0]
        assert differ.size == 0, f"N = {sys.n_modes}: rows {differ[:5]} of {grid.size} differ"


def test_stacked_flow_matches_mild_solution_per_state():
    # each state of a stack at its own time (0, on a breakpoint, inside a
    # segment, on the zero tail, all equal) is mild_solution bit for bit
    u = InputSignal.piecewise([0.0, 0.3, 0.75, 1.1], [1.0, -0.6, 0.4])  # zero tail
    rng = np.random.default_rng(3)
    for sys in (heat(16), SpectralSystem(np.array([0.5, 3.0, 40.0]),
                                         np.array([1.0, -2.0, 0.7]))):
        n = sys.n_modes
        x0s = np.vstack([np.zeros(n), np.eye(n)[-1], rng.standard_normal((4, n))])
        for times in ([0.0, 0.3, 0.5, 0.75, 1.1, 1.7], np.full(6, 0.75), np.zeros(6),
                      rng.uniform(0.0, 2.0, 6)):
            for u_ in (u, InputSignal.zero()):
                got = _flow_rows(sys, _table([u_]), np.zeros(6, int), x0s, times)
                want = np.array([mild_solution(sys, x0, u_, t) for x0, t in zip(x0s, times)])
                assert np.array_equal(got, want)


def test_trajectory_grid_validation():
    sys = heat(2)
    with pytest.raises(ValidationError):
        sample_trajectory(sys, np.zeros(2), InputSignal.zero(), np.array([0.1, 0.2]))
    with pytest.raises(ValidationError):
        sample_trajectory(sys, np.zeros(2), InputSignal.zero(), np.array([0.0, 0.5, 0.5]))


# ---------------------------------------------------------------------------
# the flow kernel: live widths


def _bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def _signed(magnitudes):
    return magnitudes.flatmap(lambda m: st.sampled_from([m, -m]))


_COEF = _signed(st.one_of(st.just(0.0), st.floats(1e-3, 1e3)))
# every b_k nonzero, so that G = min |g_k| > 0 and rows take caps below 746
_WIDE_COEF = _signed(st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e))
_WIDE_VALUE = _signed(st.just(0.0) | st.floats(-300.0, 3.0).map(lambda e: 10.0 ** e))


#: past 128 modes, where numpy's pairwise sum splits each row (system._spine)
_MANY_MODES = (129, 136, 200, 256, 300, 513, 1031)


@st.composite
def _kernel_cases(draw, wide=False, many=False):
    """A diagonal system with lambda spread to 1e6 and mixed-sign b, a
    piecewise input with a zero tail, a grid and two states.  Every nonzero
    coefficient is at least 1e-3 in size, so a forced value dwarfs any
    subnormal decayed one.  With ``wide`` every b_k is nonzero, the input
    values run from 1e-300 to 1e3 in size (and +-0.0), and the states' modes
    up to 2**400: rows whose caps spread over [38, 746].  With ``many`` the
    system has one of ``_MANY_MODES`` modes, drawn from a seeded stream
    over 8 decades from 10**e, e in [-2, 3] (rows live in a few of them to
    all), and gains g_k = b_k / lambda_k from 0.03 to 30 in size, so that
    the settled right parts of a row's sum are not small beside its live
    leaf."""
    if many:
        rng, low = np.random.default_rng(draw(st.integers(0, 2 ** 32))), draw(st.floats(-2.0, 3.0))
        lam = np.unique(10.0 ** rng.uniform(low, low + 8.0, draw(st.sampled_from(_MANY_MODES))))
        b = lam * rng.choice([-1.0, 0.0, 1.0], lam.size, p=[0.45, 0.1, 0.45]) * 10.0 ** (
            rng.uniform(-1.5, 1.5, lam.size))
    else:
        logs = draw(st.lists(st.floats(-2.0, 6.0), min_size=1, max_size=40, unique=True))
        lam = np.unique(10.0 ** np.array(logs))
        b = np.array(draw(st.lists(_WIDE_COEF if wide else _COEF,
                                   min_size=lam.size, max_size=lam.size)))
    bps = np.unique(draw(st.lists(st.floats(1e-3, 1.9), max_size=6)))
    value = _WIDE_VALUE if wide else _signed(st.just(0.0) | st.floats(1e-3, 2.0))
    vals = draw(st.lists(value, min_size=bps.size, max_size=bps.size))
    u = InputSignal.piecewise(np.concatenate([[0.0], bps]), vals)
    rows = draw(st.sampled_from([2, 5, 40, 129, 513]))   # one group to several
    if draw(st.booleans()):   # rows dt = 0, 1e-300 (or one ulp) and 1e-7 after each anchor
        anchors = np.concatenate([[0.0], bps])
        grid = np.unique(np.concatenate([np.linspace(0.0, 2.0, rows), anchors, [1e-300],
                                         np.nextafter(anchors, 3.0), anchors + 1e-7]))
    else:                     # a uniform ULIM grid, which skips the anchors
        grid = np.linspace(0.0, 2.0, rows)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    # wide: each state's modes within a factor 2 of its largest, so that M
    # bounds the modes near a row's cap tightly
    size = (2.0 ** rng.uniform(-60.0, 400.0, (2, 1)) * rng.uniform(0.5, 1.0, (2, lam.size))
            if wide else 10.0 ** rng.uniform(-3.0, 3.0, (2, lam.size)))
    x0s = rng.choice([-1.0, 1.0], (2, lam.size)) * size
    x0s[:, rng.random(lam.size) < 0.2] = 0.0
    return SpectralSystem(lam, b), u, grid, x0s


@settings(max_examples=40, deadline=None)
@given(case=_kernel_cases(), m=st.integers(1, 60))
# the signed-zero tail: b = 0 and an input of -0.0 make every dead mode
# x_k(a) * 0.0 + (-0.0), whose sign is that of its own anchor's x_k(a): the
# fast mode is -1.0 at anchor 0 and +0.0 (decayed) at the later anchors
@example(case=(SpectralSystem(10.0 ** np.arange(5.0), np.zeros(5)),
               InputSignal.piecewise([0.0, 1.0, 1.5, 1.75], [0.0, -0.0, 0.0]),
               np.linspace(0.0, 2.0, 513),
               np.array([[0.5, -0.25, 1.0, 0.0, -1.0], [0.0, 0.0, 0.0, 2.0, -3.0]])), m=1)
def test_flow_kernel_rows_are_mild_solutions_bit_for_bit(case, m):
    sys, u, grid, x0s = case
    rows = [np.array([mild_solution(sys, x0, u, t) for t in grid]) for x0 in x0s]
    # every state of sample_trajectory, signed zeros included, and every norm
    traj = sample_trajectory(sys, x0s[0], u, grid)
    assert np.array_equal(_bits(traj.states), _bits(rows[0]))
    norms = _kernel(sys, x0s, [u], [grid])
    for s in range(2):
        assert np.array_equal(_bits(norms[s]), _bits(np.linalg.norm(rows[s], axis=1)))
    # states and input scaled by 2**-m scale every norm exactly, on the rows
    # whose scaled squares all stay normal
    scale = 2.0 ** -m
    scaled = _kernel(sys, x0s * scale, [InputSignal.piecewise(u.breakpoints,
                                                              u.values * scale)], [grid])
    for s in range(2):
        clear = np.all((rows[s] == 0.0) | (np.abs(rows[s]) >= 2.0 ** -450), axis=1)
        assert np.array_equal(_bits(scaled[s, clear]), _bits(norms[s, clear] * scale))


_K = np.arange(1.0, 1032.0)


@settings(max_examples=25, deadline=None)
@given(case=st.booleans().flatmap(lambda wide: _kernel_cases(wide=wide, many=True)))
# lambda_k = k**2 and |g_k| near 1: rows live in at most 36 of 1031 modes, and
# each norm adds three settled right parts of like size, innermost first
@example(case=(SpectralSystem(_K ** 2, _K ** 2 * (-1.0) ** _K * (1.0 + 0.5 * np.sin(_K))),
               InputSignal.piecewise([0.0, 0.5, 1.25, 1.75], [1.0, -0.75, 0.3]),
               np.linspace(0.0, 2.0, 65), np.random.default_rng(3).uniform(-1.0, 1.0, (2, 1031))))
def test_kernel_norms_past_128_modes_are_mild_solutions_bit_for_bit(case):
    # past 128 modes each group reduces only the leaf of numpy's pairwise sum
    # that holds its live modes and adds the settled right parts: the norms
    # are still np.linalg.norm of the mild_solution rows bit for bit
    sys, u, grid, x0s = case
    rows = np.array([[mild_solution(sys, x0, u, t) for t in grid] for x0 in x0s])
    norms = _kernel(sys, x0s, [u], [grid])
    assert np.array_equal(_bits(norms), _bits(np.linalg.norm(rows, axis=2)))


def test_add_reduce_splits_rows_pairwise_at_the_spine():
    # numpy's float64 add.reduce of n > 128 terms is P(a[:h]) + P(a[h:]), h =
    # n // 2 - (n // 2) % 8, for a 1-d array and for each row of a 2-d one
    # (axis=1), which _flow_norms reads a leaf at a time; the terms are of
    # one size, so that another split gives other bits
    terms = np.random.default_rng(7).uniform(0.0, 1.0, (3, 4096))
    for n in range(129, 4097):
        half = system._spine(n)[1]
        assert half == n // 2 - n // 2 % 8
        a = terms[:, :n].copy()
        left, right = (np.ascontiguousarray(p) for p in (a[:, :half], a[:, half:]))
        want = np.add.reduce(left, axis=1) + np.add.reduce(right, axis=1)
        assert np.array_equal(np.add.reduce(a, axis=1), want)
        assert [np.add.reduce(row) for row in a] == want.tolist()
    # and the terms tell splits apart: a block of 8 more on the left gives other bits
    moved = np.add.reduce(terms[:, :2056], axis=1) + np.add.reduce(terms[:, 2056:], axis=1)
    assert not np.array_equal(np.add.reduce(terms, axis=1), moved)


_TWO = SpectralSystem(np.array([1.0, 400.0]), np.array([400.0, 400.0]))   # G = g_2 = 1


@settings(max_examples=60, deadline=None)
@given(case=_kernel_cases(wide=True))
# M = 2**400 on the fast mode: under v = 1 its cap is T = 38 + ln M, and just
# past it x_2 d_2 is a little under half an ulp of g_2 v; under the zero input
# the norms' cap is ln M + 373, and sample_trajectory's 746 (there the mode
# is itself, not +0, past ln M + 373)
@example(case=(_TWO, constant(1.0, 2.0), np.linspace(0.0, 2.0, 513),
               np.array([[0.0, 2.0 ** 400], [0.0, -1.0]])))
@example(case=(_TWO, InputSignal.zero(), np.linspace(0.0, 2.0, 513),
               np.array([[0.0, 2.0 ** 400], [0.0, -1.0]])))
def test_modes_past_a_rows_cap_are_their_forced_values_bit_for_bit(case):
    # every b_k nonzero and wide input values and states send the rows to caps
    # T below 746, where a mode that has not underflowed is taken as g_k v: the
    # norms and the trajectory states are still the mild_solution rows bit for
    # bit, signed zeros included, and the enclosure of each run (no breakpoint
    # in [lo, hi)) stays below the norms on it by ULIM's documented margin
    sys, u, grid, x0s = case
    rows = np.array([[mild_solution(sys, x0, u, t) for t in grid] for x0 in x0s])
    assert np.array_equal(_bits(sample_trajectory(sys, x0s[0], u, grid).states), _bits(rows[0]))
    norms = _kernel(sys, x0s, [u], [grid])
    assert np.array_equal(_bits(norms), _bits(np.linalg.norm(rows, axis=2)))
    n, table = sys.n_modes, _anchor_table(sys, x0s, _table([u]), grid[-1:])
    seg = np.searchsorted(u.breakpoints, grid)   # the breakpoints below each point
    scale = np.linalg.norm(x0s, axis=1) + 2.0 * sys.input_gain_norm * u.sup_norm
    for span in (s for s in (0, 1, 4, 16) if s < grid.size):
        lo = np.flatnonzero(seg[:grid.size - span] == seg[span:])
        low = np.sqrt(_enclosure(sys, table, np.zeros(lo.size, int), grid[lo], grid[lo + span]))
        low = (low * (1.0 - ENCLOSURE_REL - n * 2.0 ** -53) - ENCLOSURE_ABS * scale[:, None]
               - math.sqrt(n) * ENCLOSURE_FLOOR)
        least = np.lib.stride_tricks.sliding_window_view(norms, span + 1, axis=1).min(axis=2)
        assert np.all(low <= least[:, lo])


@settings(max_examples=40, deadline=None)
@given(case=_kernel_cases(), data=st.data())
def test_stepper_rows_are_shifted_mild_solutions_bit_for_bit(case, data):
    # every row of the stepper, at its own start and time, is mild_solution
    # with the input shifted by its start, signed zeros included: starts at 0,
    # on a breakpoint, inside a segment and past the input's duration, times
    # at 0, on a breakpoint and on the grid, and the zero input beside u
    sys, u, grid, x0s = case
    inputs = [u, InputSignal.zero()]
    bps = u.breakpoints.tolist()
    starts = data.draw(st.lists(st.sampled_from(
        [0.0, *bps, duration(u) + 0.5, 1e-300]) | st.floats(0.0, 2.5), min_size=1, max_size=64))
    n = len(starts)
    times = data.draw(st.lists(st.sampled_from([0.0, *bps, *grid.tolist()]) | st.floats(0.0, 2.5),
                               min_size=n, max_size=n))
    which = np.array(data.draw(st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n)))
    states = np.concatenate([x0s, -x0s])[np.arange(n) % 4]   # -x0s holds -0.0
    rows = _flow_rows(sys, _table(inputs), which, states, np.array(times), np.array(starts))
    want = np.array([mild_solution(sys, x0, shifted(inputs[j], s), t)
                     for x0, j, s, t in zip(states, which, starts, times)])
    assert np.array_equal(_bits(rows), _bits(want))


@settings(max_examples=40, deadline=None)
@given(case=st.booleans().flatmap(lambda wide: _kernel_cases(wide=wide)))
# b = 0 and input values of -0.0: every mode is x_k(a) d_k + (-0.0), a zero
# signed as its own anchor's x_k(a)
@example(case=(SpectralSystem(10.0 ** np.arange(5.0), np.zeros(5)),
               InputSignal.piecewise([0.0, 1.0, 1.5, 1.75], [0.0, -0.0, 0.0]),
               np.linspace(0.0, 2.0, 17),
               np.array([[0.5, -0.25, 1.0, 0.0, -1.0], [0.0, 0.0, 0.0, 2.0, -3.0]])))
def test_flow_kernel_table_rows_are_the_steppers_and_mild_solutions_bit_for_bit(case):
    # the rows read off the anchor table (identity's and cocycle's direct
    # flows) are the stepper's rows and mild_solution bit for bit, signed
    # zeros included, for each state of a stack with each of two inputs: at
    # t = 0, on every breakpoint, one ulp past it, between breakpoints and at
    # the table's end, the horizon
    sys, u, grid, x0s = case
    x0s, inputs, bps = np.concatenate([x0s, -x0s]), [u, InputSignal.zero()], u.breakpoints
    times = np.unique(np.concatenate([grid[::16], grid[-1:], bps, np.nextafter(bps, 3.0),
                                      (bps[1:] + bps[:-1]) / 2.0]))
    states, which, t = (a.ravel() for a in np.meshgrid(range(4), range(2), times, indexing="ij"))
    table = _anchor_table(sys, x0s, _table(inputs), [grid[-1]] * 2)
    rows = _table_rows(sys, table, which, states, t)
    assert np.array_equal(_bits(rows),
                          _bits(_flow_rows(sys, _table(inputs), which, x0s[states], t)))
    want = [mild_solution(sys, x0s[s], inputs[j], tt) for s, j, tt in zip(states, which, t)]
    assert np.array_equal(_bits(rows), _bits(np.array(want)))


@settings(max_examples=40, deadline=None)
@given(case=_kernel_cases())
def test_mild_solution_and_kernel_rows_are_the_reference_steppers(case):
    # mild_solution is row 0 of _flow_rows and has no stepper of its own: it,
    # the stepper's rows and the kernel's norms are the segment-by-segment
    # reference bit for bit, at t = 0, 1e-300 and 1e300, on every breakpoint,
    # one ulp past it and between breakpoints
    sys, u, grid, x0s = case
    bps = u.breakpoints
    times = np.unique(np.concatenate([grid, bps, np.nextafter(bps, 3.0), [1e-300, 1e300]]))
    want = np.array([[_reference_flow(sys, x0, u, t) for t in times] for x0 in x0s])
    for s, x0 in enumerate(x0s):
        got = np.array([mild_solution(sys, x0, u, t) for t in times])
        assert np.array_equal(_bits(got), _bits(want[s]))
        x = np.tile(x0, (times.size, 1))
        rows = _flow_rows(sys, _table([u]), np.zeros(times.size, int), x, times)
        assert np.array_equal(_bits(rows), _bits(want[s]))
    norms = _kernel(sys, x0s, [u], [times])
    assert np.array_equal(_bits(norms), _bits(np.linalg.norm(want, axis=2)))


@pytest.mark.parametrize("lam_dt", [300.0, 745.0, 745.2, 746.0, 1e4, 1e306])
def test_decay_past_the_flush_is_exact_and_raises_no_warning(lam_dt):
    # every flow clips its dt at lambda_1 dt = _EXP_FLUSH, past which each
    # exp(-lambda_k dt) is 0.0, so that lambda_N dt cannot overflow: the rows
    # equal the unclipped closed form bit for bit, on a long segment between
    # two anchors and on the zero tail after them
    sys, x0 = heat(64), np.linspace(-1.0, 1.0, 64)
    dt = lam_dt / sys.lambdas[0]
    u = InputSignal.piecewise([0.0, 0.5, 0.5 + dt], [0.3, -0.7])
    bp, gain, lam = u.breakpoints, sys.input_gain_coeffs, sys.lambdas
    t = bp[2] + dt
    with np.errstate(over="ignore"):
        step = np.exp(-lam * (bp[2] - bp[1]))
        anchor = mild_solution(sys, x0, u, bp[1]) * step + gain * (1.0 - step) * -0.7
        tail = np.exp(-(t - bp[2]) * lam)
        want = anchor * tail + gain * 0.0 * (1.0 - tail)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = [mild_solution(sys, x0, u, t),
               sample_trajectory(sys, x0, u, np.array([0.0, bp[1], bp[2], t])).states[-1],
               _flow_rows(sys, _table([u]), np.zeros(1, int), [x0], t)[0]]
    for row in got:
        assert np.array_equal(_bits(row), _bits(want))


def one_input_squares(sys, x0s, u, times):
    """The closed-form square integrals of one input on its own anchor table:
    (state, time)."""
    table = _anchor_table(sys, x0s, _table([u]), [np.max(times)])
    return _square_integrals(sys, table, times)[:, 0]


@settings(max_examples=40, deadline=None)
@given(case=_kernel_cases(), data=st.data())
def test_square_integrals_of_a_stack_are_each_inputs_own(case, data):
    # the integrals of every input at once, from one anchor table, are each
    # input's on its own table bit for bit: beside the zero input, inputs
    # whose breakpoints pass the last time or that end before it, at times
    # on a breakpoint, past an input's end, and at times = [0.0] alone
    sys, u, _, x0s = case
    inputs = [u, InputSignal.zero()]
    for _ in range(data.draw(st.integers(0, 4))):
        bps = np.unique(data.draw(st.lists(st.floats(1e-3, 2.5), max_size=8)))
        vals = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=bps.size, max_size=bps.size))
        inputs.append(InputSignal.piecewise(np.concatenate([[0.0], bps]), vals))
    on = [b for v in inputs for b in v.breakpoints.tolist()]
    times = data.draw(st.just([0.0]) | st.lists(st.sampled_from(on) | st.floats(0.0, 2.6),
                                                min_size=1, max_size=12))
    table = _anchor_table(sys, x0s, _table(inputs), [max(times)] * len(inputs))
    got = _square_integrals(sys, table, times)
    assert got.shape == (len(x0s), len(inputs), len(times))
    for j, v in enumerate(inputs):
        assert np.array_equal(_bits(got[:, j]), _bits(one_input_squares(sys, x0s, v, times)))


def _dense_square_integrals(sys, table, times):
    """The reference semantics of ``_square_integrals``: the closed form on
    every mode of every row, in blocks of rows, each row reduced over all
    its modes."""
    anchor_states, slot, vals, bps = table[:4]
    times = np.asarray(times, dtype=float)
    lam, gain = sys.lambdas, sys.input_gain_coeffs
    full, n_inputs = bps[:, 1:] < times.max(), len(bps)
    seg = np.maximum(np.sum(bps[:, None, :] < times[:, None], axis=2) - 1, 0)
    fj, fa = np.nonzero(full)
    which = np.concatenate([fj, np.repeat(np.arange(n_inputs), times.size)])
    at = np.concatenate([fa, seg.ravel()])
    h = np.concatenate([bps[fj, fa + 1], np.tile(times, n_inputs)]) - bps[which, at]
    rows, v = slot[which, at], vals[which, at]
    out = np.empty((at.size, anchor_states.shape[1]))
    step = max(1, _BLOCK_CELLS // anchor_states[0].size)
    for lo in range(0, at.size, step):
        hh, vv = h[lo:lo + step, None, None], v[lo:lo + step, None, None]
        d = anchor_states[rows[lo:lo + step]] - gain * vv
        settled = np.minimum(hh, sys._settle)   # expm1 is -1.0 past it
        np.add.reduce(d * d * (-np.expm1(-2.0 * lam * settled)) / (2.0 * lam)
                      + 2.0 * d * gain * vv * (-np.expm1(-lam * settled)) / lam
                      + (gain * vv) ** 2 * hh, axis=-1, out=out[lo:lo + step])
    cum = np.zeros(bps.shape + out.shape[1:])
    cum[:, 1:][full] = out[:fj.size]
    np.cumsum(cum[:, 1:], axis=1, out=cum[:, 1:])
    out = (cum[which[fj.size:], at[fj.size:]] + out[fj.size:]).reshape(n_inputs, times.size, -1)
    return _finite(out).transpose(2, 0, 1)


def _outcome(f, *args):
    """f(*args), or ValidationError if it refuses them."""
    try:
        return f(*args)
    except ValidationError as exc:
        return exc


@st.composite
def _settling_cases(draw):
    """One or two modes, an input with nonzero values and a grid of times
    lambda_k h in [30, 40] after an anchor, as are its pieces: there the term
    2 d_k g_k v (1 - e**-(lambda_k h)) / lambda_k carries a row's last bits,
    which a settled cut below ln 2**54 = 37.43 moves."""
    lam = np.unique(draw(st.lists(st.floats(0.1, 10.0), min_size=1, max_size=2)))
    b = draw(st.lists(_signed(st.floats(0.1, 10.0)), min_size=lam.size, max_size=lam.size))
    settling = st.tuples(st.floats(30.0, 40.0), st.sampled_from(lam)).map(lambda p: p[0] / p[1])
    pieces = draw(st.lists(settling, min_size=1, max_size=3))
    bps = np.cumsum([0.0, *pieces, 40.0 / lam[0]])   # the last piece outlasts every time
    vals = draw(st.lists(_signed(st.floats(0.1, 2.0)), min_size=bps.size - 1,
                         max_size=bps.size - 1))
    times = draw(st.lists(st.tuples(st.sampled_from(bps[:-1]), settling), min_size=1, max_size=8))
    x0s = draw(st.lists(st.floats(-2.0, 2.0), min_size=2 * lam.size, max_size=2 * lam.size))
    return (SpectralSystem(lam, np.array(b)), InputSignal.piecewise(bps, vals),
            np.unique([0.0] + [a + h for a, h in times]), np.reshape(x0s, (2, lam.size)))


@settings(max_examples=60, deadline=None)
@given(case=st.booleans().flatmap(lambda wide: _kernel_cases(wide=wide)) | _settling_cases(),
       picks=st.lists(st.integers(0, 2 ** 16), min_size=1, max_size=12),
       pairs=st.sampled_from([0, 1, 3]))
# a mode 2**400 over a one-ulp piece and the input's -0.0 after it, one pair a chunk
@example(case=(_TWO, InputSignal.piecewise([0.0, 0.5, 1.0], [1.0, -0.0]),
               np.array([0.0, 0.5, np.nextafter(0.5, 1.0), 1.0]),
               np.array([[0.0, 2.0 ** 400], [-1.0, 0.0]])), picks=[1, 2, 3], pairs=1)
# one mode at lambda h = 30.5, 33 and 39.5 under v = 1: its 2 d g v (1 - e**-(lambda h))
# / lambda dominates the row, so a cut below ln 2**54 = 37.43 moves its last bits
@example(case=(SpectralSystem(np.array([1.0]), np.array([1.0])),
               constant(1.0, 50.0), np.array([0.0, 30.5, 33.0, 39.5]),
               np.array([[0.0], [0.5]])), picks=[1, 2, 3], pairs=1)
def test_square_integrals_match_the_dense_formula_bit_for_bit(case, picks, pairs):
    # the settled modes (lambda_k min(h, _settle) past _SETTLED) and the
    # chunks and groups of rows change no bit: every value is the dense
    # formula's, signed zeros included, and the kernel refuses with
    # ValidationError exactly where it does; at t = 0 (zero-length rows), on
    # and one ulp past every breakpoint, past _settle, beside the input's
    # negation (values -0.0) and the zero input, at the default block and at
    # blocks of one and three pairs
    sys, u, grid, x0s = case
    bps = u.breakpoints
    some = np.concatenate([grid, bps, np.nextafter(bps, 3.0),
                           [1e-300, sys._settle, 2.5 * sys._settle + bps[-1]]])
    times = np.concatenate([[0.0], some[np.array(picks) % some.size]])
    inputs = [u, InputSignal.piecewise(bps, -u.values), InputSignal.zero()]
    table = _anchor_table(sys, x0s, _table(inputs), [times.max()] * len(inputs))
    with np.errstate(over="ignore", invalid="ignore"):
        want = _outcome(_dense_square_integrals, sys, table, times)
        with mock.patch.object(system, "_BLOCK_CELLS", pairs * x0s.size or _BLOCK_CELLS):
            got = _outcome(_square_integrals, sys, table, times)
    if isinstance(want, ValidationError):
        assert isinstance(got, ValidationError)
    else:
        assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize("lam_dt", [300.0, 745.0, 745.2, 746.0, 1e4, 1e306])
def test_integrals_and_kappa_past_the_flush_are_exact_and_raise_no_warning(lam_dt):
    # _decay_forced clips every flow's dt, and kappa_bounds' t, and the
    # closed-form square integrals clip the h of their decaying terms (not
    # of the linear term), at _EXP_FLUSH / lambda_1: past it exp is 0.0 and
    # expm1 is -1.0, so all equal the unclipped formulas, which overflow in
    # the multiply, bit for bit.  The flows are mild_solution's stepper,
    # the anchor table and its rows, the kernel's norms with their settled
    # tails and sample_trajectory's dead modes, on a step and a last piece
    # both dt long
    sys, unclipped = heat(64), heat(64)
    object.__setattr__(unclipped, "_settle", math.inf)
    dt = lam_dt / sys.lambdas[0]
    u = InputSignal.piecewise([0.0, 0.5, 0.5 + dt], [0.3, -0.7])
    x0s = np.stack([np.linspace(-1.0, 1.0, 64), np.zeros(64)])
    times = np.array([0.25, 0.5 + dt, 1.0 + dt, 0.5 + 2.0 * dt])
    which, states = np.zeros(2 * times.size, int), np.repeat([0, 1], times.size)

    def outcomes(s):
        table = _anchor_table(s, x0s, _table([u]), times[-1:])
        return [kappa_bounds(s, dt).upper, one_input_squares(s, x0s, u, times),
                [[mild_solution(s, x0, u, t) for t in times] for x0 in x0s],
                _table_rows(s, table, which, states, np.tile(times, 2)),
                _flow_norms(s, table, which[:times.size], times),
                [sample_trajectory(s, x0, u, np.unique([0.0, *times])).states for x0 in x0s]]
    with np.errstate(over="ignore"):
        want = outcomes(unclipped)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got = outcomes(sys)
    for g, w in zip(got, want):
        assert np.array_equal(_bits(g), _bits(w))


def test_exp_flushes_to_zero_past_the_live_width_cutoff():
    # the kernel skips every mode with lambda dt > _EXP_FLUSH as exactly 0.0:
    # exp(-745.14) is already below half the smallest subnormal
    assert np.exp(-745.0) > 0.0 and np.exp(-745.14) == 0.0
    args = -np.concatenate([np.linspace(_EXP_FLUSH, 800.0, 4097),
                            np.geomspace(800.0, 1e300, 4097), [np.inf]])
    flushed = np.exp(args)
    assert np.all(flushed == 0.0) and not np.any(np.signbit(flushed))
    # and each element's bits do not depend on the length of the array or
    # on its offset in it, so a row's live prefix decays as the whole row
    x = -np.geomspace(1e-3, 760.0, 1001)
    whole = _bits(np.exp(x))
    for n in (1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 64, 100, 1000):
        assert np.array_equal(_bits(np.exp(x[:n])), whole[:n])
        assert np.array_equal(_bits(np.exp(x[n:])), whole[n:])


def test_expm1_bits_do_not_depend_on_the_arrays_length_or_offset():
    # the closed-form integrals take expm1 over blocks of the rows of every
    # input, and give each input's values as alone only if an element's bits
    # do not depend on the array around it, as for np.exp above
    x = -np.geomspace(1e-3, 1600.0, 1001)
    whole = _bits(np.expm1(x))
    assert np.all(np.expm1(x[x < -40.0]) == -1.0)
    for n in (1, 2, 3, 7, 8, 9, 15, 16, 17, 31, 33, 64, 100, 1000):
        assert np.array_equal(_bits(np.expm1(x[:n])), whole[:n])
        assert np.array_equal(_bits(np.expm1(x[n:])), whole[n:])
    # and past _SETTLED it is exactly -1.0, so a settled mode's term is its
    # part P_k + g_k^2 v^2 h: at _SETTLED and the doubles above it, and at
    # both arguments (-lambda) h and (-2 lambda) h of every lambda from the
    # kernel's cut _SETTLED / h on, on arrays of every SIMD tail length
    above = [_SETTLED]
    for _ in range(32):
        above.append(np.nextafter(above[-1], np.inf))
    h = np.geomspace(1e-300, 1e300, 601)
    cut = (_SETTLED / h)[:, None] * np.ones(17)
    for j in range(1, 17):
        cut[:, j] = np.nextafter(cut[:, j - 1], np.inf)
    args = [-np.concatenate([above, np.geomspace(_SETTLED, 1e308, 257), [np.inf]]),
            (-cut * h[:, None]).ravel(), ((-2.0 * cut) * h[:, None]).ravel()]
    assert np.isfinite(cut).all()
    for x in args:
        for n in (*range(1, 18), 1000):
            assert np.all(-np.expm1(np.resize(x, n)) == 1.0)
        assert np.all(-np.expm1(x) == 1.0)


def test_row_groups_cover_the_sorted_rows():
    widths = np.sort(np.random.default_rng(5).integers(0, 257, 1000))
    edges = _row_groups(widths)
    assert edges[0] == 0 and edges[-1] == widths.size
    sizes = np.diff(edges)
    assert np.all(sizes > 0) and np.all(sizes <= _ROW_BLOCK)
    # a wide group is cut short: rows times width stay within _BLOCK_CELLS
    w = widths[np.subtract(edges[1:], 1)]
    assert np.all(sizes * w <= np.maximum(_BLOCK_CELLS, w))
    assert max(sizes * w) > _BLOCK_CELLS / 2
    assert _row_groups(np.arange(40)) == [0, 40]   # a short grid is one group
    assert _row_groups(np.full(3, _BLOCK_CELLS + 1)) == [0, 1, 2, 3]   # never below one row


@st.composite
def _input_stacks(draw):
    """A system and two states of ``_kernel_cases`` with 1-6 inputs, each on
    its own grid: the zero input, constant ones and piecewise ones with
    different piece counts and breakpoints past their grid's end; grids of
    the one row 0.0, with rows on and one ulp after each breakpoint, or
    uniform ULIM grids."""
    sys, _, _, x0s = draw(_kernel_cases())
    value = st.one_of(st.just(0.0), st.floats(1e-3, 2.0)).flatmap(
        lambda m: st.sampled_from([m, -m]))
    inputs, grids = [], []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["zero", "constant", "piecewise"]))
        end = draw(st.sampled_from([0.5, 1.0, 2.0]))
        if kind == "zero":
            u = InputSignal.zero()
        elif kind == "constant":
            u = constant(draw(value), draw(st.sampled_from([0.3, 1.0, 3.0])))
        else:
            bps = np.unique(draw(st.lists(st.floats(1e-3, 2.9), min_size=1, max_size=8)))
            u = InputSignal.piecewise(np.concatenate([[0.0], bps]), draw(
                st.lists(value, min_size=bps.size, max_size=bps.size)))
        rows = draw(st.sampled_from([1, 2, 33, 129]))
        if rows == 1:
            grid = np.array([0.0])
        elif draw(st.booleans()):
            bp = u.breakpoints[u.breakpoints < end]
            grid = np.unique(np.concatenate([np.linspace(0.0, end, rows), bp,
                                             np.nextafter(bp, np.inf)]))
        else:
            grid = np.linspace(0.0, end, rows)
        inputs.append(u)
        grids.append(grid)
    return sys, inputs, grids, x0s


@settings(max_examples=30, deadline=None)
@given(case=_input_stacks())
def test_flow_kernel_stacks_of_inputs_match_each_input_and_state_alone(case):
    # one call over every input: each norm is that of the mild_solution row,
    # each input's columns are its own call's, and each state's row is its own
    sys, inputs, grids, x0s = case
    norms = _kernel(sys, x0s, inputs, grids)
    cols = np.cumsum([0] + [g.size for g in grids])
    for u, grid, lo, hi in zip(inputs, grids, cols[:-1], cols[1:]):
        for s, x0 in enumerate(x0s):
            rows = np.array([mild_solution(sys, x0, u, t) for t in grid])
            assert np.array_equal(_bits(norms[s, lo:hi]), _bits(np.linalg.norm(rows, axis=1)))
        assert np.array_equal(_bits(norms[:, lo:hi]), _bits(_kernel(sys, x0s, [u], [grid])))
    for s, x0 in enumerate(x0s):
        assert np.array_equal(_bits(norms[s]), _bits(_kernel(sys, [x0], inputs, grids)[0]))


def test_live_widths_need_no_warning_at_tiny_steps():
    # dt = 0, 1e-300 and a subnormal step all give the full width, without
    # a RuntimeWarning (the suite runs with -W error::RuntimeWarning)
    sys = heat(8)
    x0 = np.linspace(1.0, -1.0, 8)
    grid = np.array([0.0, 5e-324, 1e-310, 1e-300])
    norms = _kernel(sys, [x0], [InputSignal.zero()], [grid])
    assert np.array_equal(norms[0], np.full(4, np.linalg.norm(x0[None], axis=1)[0]))


def test_cocycle_against_resimulation():
    # oracle: re-simulate from the intermediate state with the shifted input
    sys = heat(32)
    rng = np.random.default_rng(5)
    for _ in range(50):
        x0 = rng.standard_normal(32) * 0.5
        m = int(rng.integers(1, 6))
        cuts = np.sort(rng.uniform(0.0, 2.0, m - 1))
        u = InputSignal.piecewise(np.concatenate([[0.0], cuts, [2.0]]),
                                  rng.uniform(-1.0, 1.0, m)) if m > 1 else \
            constant(float(rng.uniform(-1, 1)), 2.0)
        t = float(rng.uniform(0.0, 1.2))
        h = float(rng.uniform(0.0, 0.8))
        direct = mild_solution(sys, x0, u, t + h)
        restart = mild_solution(sys, mild_solution(sys, x0, u, t), shifted(u, t), h)
        assert state_norm(direct - restart) <= 1e-10 * (1.0 + state_norm(direct))


def test_causality_exact():
    # two inputs agreeing on [0, t] produce bit-identical states at t
    sys = heat(16)
    x0 = np.linspace(0.0, 1.0, 16)
    u1 = InputSignal.piecewise([0.0, 0.3, 0.7, 2.0], [1.0, -1.0, 0.5])
    u2 = concatenated(u1, constant(7.0, 3.0), 0.7)
    assert np.array_equal(mild_solution(sys, x0, u1, 0.7),
                          mild_solution(sys, x0, u2, 0.7))


def test_continuity_proxy():
    sys = heat(32)
    x0 = np.zeros(32)
    x0[:4] = 0.5
    u = constant(1.0, 2.0)
    for t in (0.0, 0.5, 1.0):
        gaps = [state_norm(mild_solution(sys, x0, u, t + d) - mild_solution(sys, x0, u, t))
                for d in (1e-2, 1e-3, 1e-4)]
        # the modulus near t=0 under boundary input decays only like t**(1/4),
        # so only the decrease itself is asserted
        assert gaps[0] > gaps[1] > gaps[2] > 0.0


def test_heat_decay_envelope():
    sys = heat(64)
    rng = np.random.default_rng(11)
    x0 = rng.standard_normal(64)
    for t in np.linspace(0.0, 2.0, 9):
        lhs = state_norm(mild_solution(sys, x0, InputSignal.zero(), float(t)))
        assert lhs <= math.exp(-PI2 * float(t)) * state_norm(x0) + 1e-12


def test_truncation_consistency_64_to_128():
    # steady-state scenario: modes 65..128 add 1.56e-3 in squared norm, so the
    # norm moves by 1.36e-3; assert the oracle-derived bound 2e-3
    u = constant(1.0, 2.0)
    norms = {}
    for n in (64, 128):
        sys = heat(n)
        norms[n] = state_norm(mild_solution(sys, np.zeros(n), u, 0.5))
    delta = abs(norms[128] - norms[64])
    assert delta <= 2e-3
    assert delta == pytest.approx(1.36e-3, abs=2e-4)


# ---------------------------------------------------------------------------
# input-signal axioms: the reference forms of tests/oracles.py


def test_sup_norm_and_zero_extension():
    u = InputSignal.piecewise([0.0, 1.0, 2.0], [-3.0, 1.0])
    assert u.sup_norm == 3.0
    assert value_at(u, 5.0) == 0.0
    assert value_at(u, 0.0) == -3.0
    assert value_at(u, 1.0) == 1.0  # right continuous
    assert InputSignal.zero().sup_norm == 0.0


def test_shift_never_increases_sup_norm():
    u = InputSignal.piecewise([0.0, 0.5, 1.0, 2.0], [2.0, -1.0, 0.5])
    for tau in (0.0, 0.25, 0.5, 1.5, 2.0, 3.0):
        assert shifted(u, tau).sup_norm <= u.sup_norm


@settings(max_examples=100, deadline=None)
@given(tau=st.floats(0.0, 3.0), probe=st.floats(0.0, 3.0))
def test_shift_pointwise_identity(tau, probe):
    u = InputSignal.piecewise([0.0, 0.5, 1.0, 2.0], [2.0, -1.0, 0.5])
    assert value_at(shifted(u, tau), probe) == value_at(u, tau + probe)


def test_concatenation_pointwise():
    u1 = InputSignal.piecewise([0.0, 1.0], [1.0])
    u2 = InputSignal.piecewise([0.0, 0.5, 1.5], [-2.0, 3.0])
    t = 0.6
    cat = concatenated(u1, u2, t)
    for probe in (0.0, 0.3, 0.59):
        assert value_at(cat, probe) == value_at(u1, probe)
    for probe in (0.6, 0.7, 1.0, 1.6, 2.0, 3.0):
        assert value_at(cat, probe) == value_at(u2, probe - t)


def test_concatenation_beyond_duration_fills_zero():
    u1 = constant(1.0, 1.0)
    cat = concatenated(u1, constant(5.0, 1.0), 2.0)
    assert value_at(cat, 1.5) == 0.0
    assert value_at(cat, 2.5) == 5.0


# ---------------------------------------------------------------------------
# kappa bounds


MIXED_SIGN = SpectralSystem(np.array([1.0, 3.0, 9.0, 27.0]), np.array([1.0, -1.0, 0.5, 2.0]))
KAPPA_TIMES = (1e-6, 1e-3, 0.1, 1.0, 2.0, 6.0, 40.0)


def test_kappa_single_mode_closed_form():
    # oracle: for one mode with lambda = b = 1, kappa(t) = 1 - exp(-t)
    sys = SpectralSystem(np.array([1.0]), np.array([1.0]))
    for t in (1e-3, 0.3, 1.0, 2.5, 40.0):
        ab = kappa_bounds(sys, t)
        assert ab.lower == ab.upper == pytest.approx(1.0 - math.exp(-t), rel=1e-12)


@pytest.mark.parametrize("sys", [heat(64), MIXED_SIGN], ids=["heat64", "mixed_sign"])
def test_kappa_is_the_unit_step_response(sys):
    # the constant input u = 1 attains every mode's bound at once
    for t in KAPPA_TIMES:
        step = state_norm(mild_solution(sys, np.zeros(sys.n_modes),
                                        constant(1.0, t), t))
        ab = kappa_bounds(sys, t)
        assert ab.lower == ab.upper == step


def test_kappa_is_nondecreasing_in_time_and_modes():
    ts = np.geomspace(1e-8, 50.0, 200)
    for sys in (heat(64), MIXED_SIGN):
        values = [kappa_bounds(sys, t).upper for t in ts]
        assert np.all(np.diff(values) >= 0.0)
        assert values[-1] <= sys.input_gain_norm
    for t in KAPPA_TIMES:
        values = [kappa_bounds(heat(n), t).upper for n in (1, 4, 16, 64, 256, 1024)]
        assert np.all(np.diff(values) >= 0.0)


@settings(max_examples=60, deadline=None)
@given(which=st.sampled_from(["heat64", "mixed_sign"]),
       t=st.floats(1e-4, 10.0),
       cuts=st.sets(st.integers(1, 999), max_size=38),
       values=st.lists(st.floats(-1.0, 1.0), min_size=39, max_size=39))
def test_no_input_in_the_unit_ball_exceeds_kappa(which, t, cuts, values):
    # 1-39 pieces of either sign on [0, t]; rounding in the stepped flow
    # reached 1.2e-12 relative for u = 1 cut into 39 pieces
    sys = heat(64) if which == "heat64" else MIXED_SIGN
    bp = t * np.array([0, *sorted(cuts), 1000]) / 1000.0
    u = InputSignal.piecewise(bp, values[:bp.size - 1])
    reached = state_norm(mild_solution(sys, np.zeros(sys.n_modes), u, t))
    assert reached <= kappa_bounds(sys, t).upper * (1.0 + 1e-10)


def test_kappa_heat_monotone_to_zero():
    sys = heat(64)
    ts = (1e-1, 1e-2, 1e-3)
    bounds = [kappa_bounds(sys, t) for t in ts]
    lowers = [b.lower for b in bounds]
    uppers = [b.upper for b in bounds]
    assert lowers[0] > lowers[1] > lowers[2] > 0.0
    assert uppers[0] > uppers[1] > uppers[2] > 0.0
    for b in bounds:
        assert b.lower <= b.upper


def test_kappa_rejects_bad_time():
    with pytest.raises(DomainError):
        kappa_bounds(heat(2), 0.0)


@pytest.mark.parametrize("lower, upper", [(0.0, math.nan), (0.0, math.inf),
                                          (math.nan, 1.0)])
def test_admissibility_bound_refuses_nan_and_inf(lower, upper):
    # lower > upper is False for a NaN, so a comparison alone let one through
    with pytest.raises(ValidationError):
        AdmissibilityBound(t=1.0, lower=lower, upper=upper)


@pytest.mark.parametrize("call, error, match", [
    (lambda: build_time_grid(math.nan), ValidationError, "horizon must be positive and finite"),
    (lambda: build_time_grid(math.inf), ValidationError, "horizon must be positive and finite"),
    (lambda: mild_solution(heat(2), np.zeros(2), constant(1.0, 1.0), math.nan), DomainError,
     "t >= 0"),
    (lambda: sample_trajectory(heat(2), np.zeros(2), constant(1.0, 1.0), [0.0, math.nan]),
     ValidationError, "strictly increasing"),
    (lambda: kappa_bounds(heat(2), math.nan), DomainError, "t > 0"),
], ids=["grid_nan", "grid_inf", "mild_solution", "sample_trajectory", "kappa_bounds"])
def test_time_arguments_refuse_nan_and_inf_at_their_own_check(call, error, match):
    # each check is written so that a NaN fails it: a NaN time used to pass
    # and be refused later, as a non-finite state or a NaN conversion, and an
    # infinite horizon warned in np.linspace before an OverflowError
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=match):
            call()


# ---------------------------------------------------------------------------
# grids and CSV export


def test_build_time_grid_contains_breakpoints():
    u = InputSignal.piecewise([0.0, 0.3, 1.2, 2.0], [1.0, 2.0, 3.0])
    grid = build_time_grid(2.0, u)
    assert grid[0] == 0.0 and grid[-1] == 2.0
    assert np.all(np.isin([0.3, 1.2], grid))
    assert np.all(np.diff(grid) > 0.0)


def test_trajectory_csv_round_trip(tmp_path):
    sys = heat(3)
    u = constant(1.0, 1.0)
    traj = sample_trajectory(sys, np.array([0.1, 0.2, 0.3]), u,
                             np.array([0.0, 0.5, 1.0]))
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    with open(path) as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["t", "norm", "c1", "c2", "c3"]
    assert len(rows) == 4
    got = np.array([[float(v) for v in row] for row in rows[1:]])
    assert np.array_equal(got[:, 0], traj.times)
    assert np.array_equal(got[:, 2:], traj.states)  # 17 digits round-trips
    assert np.allclose(got[:, 1], traj.norms(), rtol=0.0, atol=0.0)


def _per_float_csv(traj):
    """The CSV text written one ``format(value, '.17g')`` call per value."""
    n = traj.states.shape[1]
    lines = ["t,norm," + ",".join(f"c{k}" for k in range(1, n + 1))]
    for t, nrm, row in zip(traj.times, traj.norms(), traj.states):
        lines.append(",".join(format(v, ".17g") for v in (t, nrm, *row)))
    return "\n".join(lines) + "\n"


def test_sample_trajectory_holds_its_states_once():
    # the kernel's fresh states are taken over and frozen, not copied, and
    # their rows are formed and their norms taken a block at a time: 513
    # states of 256 modes (1.05 MB) peak below 1.5 MB
    sys, u = heat(256), InputSignal.piecewise([0.0, 0.7, 2.0], [1.0, -0.5])
    x0, grid = np.linspace(1.0, -1.0, 256), np.linspace(0.0, 2.0, 513)
    sample_trajectory(sys, x0, u, grid).norms()   # numpy's first calls
    tracemalloc.start()
    try:
        traj = sample_trajectory(sys, x0, u, grid)
        norms = traj.norms()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5e6
    assert not traj.states.flags.writeable
    assert norms.tobytes() == np.linalg.norm(traj.states, axis=1).tobytes()
    # a caller's own arrays are copied and frozen
    times, states = np.array([0.0, 1.0]), np.ones((2, 3))
    traj = Trajectory(times=times, states=states)
    times[1], states[0, 0] = 5.0, 7.0
    assert traj.times.tolist() == [0.0, 1.0] and traj.states[0, 0] == 1.0
    assert not (traj.times.flags.writeable or traj.states.flags.writeable)


@pytest.mark.parametrize("states", [np.ones(2), np.ones((3, 2)), np.ones((2, 2, 1))],
                         ids=["1-d", "rows", "3-d"])
def test_trajectory_refuses_states_that_are_not_one_row_per_time(states):
    with pytest.raises(ValidationError, match="one row per time"):
        Trajectory(times=np.array([0.0, 1.0]), states=states)


def test_trajectory_csv_matches_per_float_formatting(tmp_path):
    # 70 rows cross the writer's row blocks; the values include negatives,
    # -0.0, subnormals and magnitudes near 1e300
    sys = heat(4)
    rng = np.random.default_rng(7)
    times = np.concatenate([[0.0, 5e-324, 2.5e-310], np.sort(rng.uniform(1e-3, 1e300, 67))])
    states = rng.standard_normal((70, 4)) * 10.0 ** rng.integers(-300, 150, (70, 4))
    states[0] = [-0.0, 0.0, -5e-324, 1e-310]
    states[1] = [-1.5e150, 1.2345678901234567e149, -0.0, 2.2250738585072014e-308]
    traj = Trajectory(times=times, states=states)
    path = tmp_path / "traj.csv"
    write_trajectory_csv(traj, path)
    assert path.read_text(encoding="utf-8") == _per_float_csv(traj)
    # the writer formats each distinct bit pattern of a block once: a first
    # block whose values are all equal (+0.0), then a column repeating one
    # value, 0.0 and -0.0 in one column, and repeats across the columns, over
    # rows that end inside the fourth block
    n = 3 * _CSV_ROWS + 5
    times = np.zeros(n)
    times[_CSV_ROWS:] = np.sort(rng.uniform(0.0, 2.0, n - _CSV_ROWS))
    states = np.zeros((n, 3))
    states[_CSV_ROWS:, 0] = 2.5
    states[_CSV_ROWS:, 1] = np.where(np.arange(n - _CSV_ROWS) % 2 == 0, 0.0, -0.0)
    states[_CSV_ROWS:, 2] = rng.choice([-0.1, 0.1, 2.5, 1e-300], n - _CSV_ROWS)
    traj = Trajectory(times=times, states=states)
    path = tmp_path / "repeats.csv"
    write_trajectory_csv(traj, path)
    text = path.read_text(encoding="utf-8")
    assert text == _per_float_csv(traj)
    assert ",-0," in text and ",0," in text
    assert text.splitlines()[1] == "0,0,0,0,0"
