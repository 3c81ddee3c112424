"""Tests for the spectral systems, inputs, mild solutions and kappa bounds."""

import csv
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from isslab import (AdmissibilityBound, DomainError, HeatDirichletParams, InputSignal,
                    SpectralSystem, Trajectory, ValidationError, build_time_grid,
                    heat_dirichlet, kappa_bounds, mild_solution, sample_trajectory,
                    state_norm, write_trajectory_csv)
from isslab.system import (_CSV_ROWS, _EXP_FLUSH, _MIN_GROUP, _ROW_BLOCK, _flow_at,
                           _flow_norms, _row_groups)

PI2 = math.pi ** 2


def heat(n, a=1.0):
    return heat_dirichlet(HeatDirichletParams(a=a, n_modes=n))


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
    u = InputSignal.constant(1.0, 12.0)
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
    u = InputSignal.constant(1.0, 5.0)
    x = mild_solution(sys, np.zeros(1), u, 1.0)
    assert x[0] == pytest.approx(1.0 - math.exp(-1.0), rel=1e-15)


def test_heat_steady_norm_approaches_gain():
    sys = heat(256)
    u = InputSignal.constant(1.0, 10.0)
    norm = state_norm(mild_solution(sys, np.zeros(256), u, 10.0))
    # truncation tail of the squared norm below 256 modes is ~8e-4
    assert norm == pytest.approx(1.0 / math.sqrt(3.0), abs=1e-3)


def test_multi_segment_matches_manual_composition():
    sys = heat(6)
    u = InputSignal.piecewise([0.0, 0.4, 1.1, 2.0], [1.0, -0.5, 0.25])
    # manual composition segment by segment
    state = np.zeros(6)
    for dur, val in ((0.4, 1.0), (0.7, -0.5), (0.9, 0.25), (0.5, 0.0)):
        decay = np.exp(-sys.lambdas * dur)
        state = state * decay + sys.input_gain_coeffs * (1.0 - decay) * val
    assert np.allclose(mild_solution(sys, np.zeros(6), u, 2.5), state,
                       rtol=1e-14, atol=1e-16)


# ---------------------------------------------------------------------------
# trajectories


def test_trajectory_identity_bit_exact():
    sys = heat(8)
    x0 = np.linspace(-0.3, 0.9, 8)
    traj = sample_trajectory(sys, x0, InputSignal.constant(1.0, 2.0), np.array([0.0]))
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
        assert differ.size == 0, f"{sys.label}: rows {differ[:5]} of {grid.size} differ"


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
                got = _flow_at(sys, x0s, u_, times)
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


_COEF = st.one_of(st.just(0.0), st.floats(1e-3, 1e3)).flatmap(
    lambda m: st.sampled_from([m, -m]))


@st.composite
def _kernel_cases(draw):
    """A diagonal system with lambda spread to 1e6 and mixed-sign b, a
    piecewise input with a zero tail, a grid and two states.  Every nonzero
    coefficient is at least 1e-3 in size, so a forced value dwarfs any
    subnormal decayed one."""
    logs = draw(st.lists(st.floats(-2.0, 6.0), min_size=1, max_size=40, unique=True))
    lam = np.unique(10.0 ** np.array(logs))
    b = np.array(draw(st.lists(_COEF, min_size=lam.size, max_size=lam.size)))
    bps = np.unique(draw(st.lists(st.floats(1e-3, 1.9), max_size=6)))
    vals = draw(st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 2.0)).flatmap(
        lambda m: st.sampled_from([m, -m])), min_size=bps.size, max_size=bps.size))
    u = InputSignal.piecewise(np.concatenate([[0.0], bps]), vals)
    rows = draw(st.sampled_from([2, 5, 40, 129, 513]))   # one group to several
    if draw(st.booleans()):   # rows dt = 0, 1e-300 (or one ulp) and 1e-7 after each anchor
        anchors = np.concatenate([[0.0], bps])
        grid = np.unique(np.concatenate([np.linspace(0.0, 2.0, rows), anchors, [1e-300],
                                         np.nextafter(anchors, 3.0), anchors + 1e-7]))
    else:                     # a uniform ULIM grid, which skips the anchors
        grid = np.linspace(0.0, 2.0, rows)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    x0s = rng.choice([-1.0, 1.0], (2, lam.size)) * 10.0 ** rng.uniform(-3.0, 3.0, (2, lam.size))
    x0s[:, rng.random(lam.size) < 0.2] = 0.0
    return SpectralSystem(lam, b), u, grid, x0s


@settings(max_examples=40, deadline=None)
@given(case=_kernel_cases(), m=st.integers(1, 60))
def test_flow_kernel_rows_are_mild_solutions_bit_for_bit(case, m):
    sys, u, grid, x0s = case
    rows = [np.array([mild_solution(sys, x0, u, t) for t in grid]) for x0 in x0s]
    # every state of sample_trajectory, signed zeros included, and every norm
    traj = sample_trajectory(sys, x0s[0], u, grid)
    assert np.array_equal(_bits(traj.states), _bits(rows[0]))
    norms = _flow_norms(sys, x0s, u, grid)
    for s in range(2):
        assert np.array_equal(_bits(norms[s]), _bits(np.linalg.norm(rows[s], axis=1)))
    # states and input scaled by 2**-m scale every norm exactly, on the rows
    # whose scaled squares all stay normal
    scale = 2.0 ** -m
    scaled = _flow_norms(sys, x0s * scale, InputSignal.piecewise(u.breakpoints,
                                                                 u.values * scale), grid)
    for s in range(2):
        clear = np.all((rows[s] == 0.0) | (np.abs(rows[s]) >= 2.0 ** -450), axis=1)
        assert np.array_equal(_bits(scaled[s, clear]), _bits(norms[s, clear] * scale))


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


def test_row_groups_cover_the_sorted_rows():
    widths = np.sort(np.random.default_rng(5).integers(0, 257, 1000))
    edges = _row_groups(widths)
    assert edges[0] == 0 and edges[-1] == widths.size
    sizes = np.diff(edges)
    assert np.all(sizes > 0) and np.all(sizes <= _ROW_BLOCK)
    assert np.all(sizes[:-1] >= _MIN_GROUP)
    assert _row_groups(np.arange(40)) == [0, 40]   # a short grid is one group


def test_live_widths_need_no_warning_at_tiny_steps():
    # dt = 0, 1e-300 and a subnormal step all give the full width, without
    # a RuntimeWarning (the suite runs with -W error::RuntimeWarning)
    sys = heat(8)
    x0 = np.linspace(1.0, -1.0, 8)
    grid = np.array([0.0, 5e-324, 1e-310, 1e-300])
    norms = _flow_norms(sys, [x0], InputSignal.zero(), grid)
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
            InputSignal.constant(float(rng.uniform(-1, 1)), 2.0)
        t = float(rng.uniform(0.0, 1.2))
        h = float(rng.uniform(0.0, 0.8))
        direct = mild_solution(sys, x0, u, t + h)
        restart = mild_solution(sys, mild_solution(sys, x0, u, t), u.shifted(t), h)
        assert state_norm(direct - restart) <= 1e-10 * (1.0 + state_norm(direct))


def test_causality_exact():
    # two inputs agreeing on [0, t] produce bit-identical states at t
    sys = heat(16)
    x0 = np.linspace(0.0, 1.0, 16)
    u1 = InputSignal.piecewise([0.0, 0.3, 0.7, 2.0], [1.0, -1.0, 0.5])
    u2 = u1.concatenated(InputSignal.constant(7.0, 3.0), 0.7)
    assert np.array_equal(mild_solution(sys, x0, u1, 0.7),
                          mild_solution(sys, x0, u2, 0.7))


def test_continuity_proxy():
    sys = heat(32)
    x0 = np.zeros(32)
    x0[:4] = 0.5
    u = InputSignal.constant(1.0, 2.0)
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
    u = InputSignal.constant(1.0, 2.0)
    norms = {}
    for n in (64, 128):
        sys = heat(n)
        norms[n] = state_norm(mild_solution(sys, np.zeros(n), u, 0.5))
    delta = abs(norms[128] - norms[64])
    assert delta <= 2e-3
    assert delta == pytest.approx(1.36e-3, abs=2e-4)


# ---------------------------------------------------------------------------
# input-signal axioms


def test_sup_norm_and_zero_extension():
    u = InputSignal.piecewise([0.0, 1.0, 2.0], [-3.0, 1.0])
    assert u.sup_norm == 3.0
    assert u.value_at(5.0) == 0.0
    assert u.value_at(0.0) == -3.0
    assert u.value_at(1.0) == 1.0  # right continuous
    assert InputSignal.zero().sup_norm == 0.0


def test_shift_never_increases_sup_norm():
    u = InputSignal.piecewise([0.0, 0.5, 1.0, 2.0], [2.0, -1.0, 0.5])
    for tau in (0.0, 0.25, 0.5, 1.5, 2.0, 3.0):
        assert u.shifted(tau).sup_norm <= u.sup_norm


@settings(max_examples=100, deadline=None)
@given(tau=st.floats(0.0, 3.0), probe=st.floats(0.0, 3.0))
def test_shift_pointwise_identity(tau, probe):
    u = InputSignal.piecewise([0.0, 0.5, 1.0, 2.0], [2.0, -1.0, 0.5])
    assert u.shifted(tau).value_at(probe) == u.value_at(tau + probe)


def test_concatenation_pointwise():
    u1 = InputSignal.piecewise([0.0, 1.0], [1.0])
    u2 = InputSignal.piecewise([0.0, 0.5, 1.5], [-2.0, 3.0])
    t = 0.6
    cat = u1.concatenated(u2, t)
    for probe in (0.0, 0.3, 0.59):
        assert cat.value_at(probe) == u1.value_at(probe)
    for probe in (0.6, 0.7, 1.0, 1.6, 2.0, 3.0):
        assert cat.value_at(probe) == u2.value_at(probe - t)


def test_concatenation_beyond_duration_fills_zero():
    u1 = InputSignal.constant(1.0, 1.0)
    cat = u1.concatenated(InputSignal.constant(5.0, 1.0), 2.0)
    assert cat.value_at(1.5) == 0.0
    assert cat.value_at(2.5) == 5.0


# ---------------------------------------------------------------------------
# kappa bounds


def test_kappa_single_mode_closed_form():
    # oracle: for one mode with lambda = b = 1 both bounds equal 1 - exp(-t)
    sys = SpectralSystem(np.array([1.0]), np.array([1.0]))
    for t in (0.3, 1.0, 2.5):
        ab = kappa_bounds(sys, t, quad_points=4096)
        exact = 1.0 - math.exp(-t)
        assert ab.lower == pytest.approx(exact, rel=1e-12)
        assert ab.upper >= exact - 1e-12  # certified side
        assert ab.upper == pytest.approx(exact, rel=1e-4)


def test_kappa_single_mode_long_time_limit():
    sys = SpectralSystem(np.array([1.0]), np.array([1.0]))
    ab = kappa_bounds(sys, 40.0, quad_points=4096)
    assert ab.lower == pytest.approx(1.0, rel=1e-10)
    assert ab.upper == pytest.approx(1.0, rel=1e-3)


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


def test_kappa_upper_bound_is_built_a_block_of_rows_at_a_time():
    # the whole 2049 x N matrix of weights peaked at 262 MB for N = 8000
    sys = heat(8000)
    tracemalloc.start()
    try:
        ab = kappa_bounds(sys, 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64e6
    s = np.concatenate([[0.0], 1e-3 * np.geomspace(1e-12, 1.0, 2048)])
    g = [math.sqrt(np.dot(np.exp(-2.0 * si * sys.lambdas), sys.b_coeffs ** 2)) for si in s]
    assert ab.upper == pytest.approx(np.trapezoid(g, s), rel=1e-13)


def test_kappa_rejects_bad_time():
    with pytest.raises(DomainError):
        kappa_bounds(heat(2), 0.0)


@pytest.mark.parametrize("lower, upper", [(0.0, math.nan), (0.0, math.inf),
                                          (math.nan, 1.0)])
def test_admissibility_bound_refuses_nan_and_inf(lower, upper):
    # lower > upper is False for a NaN, so a comparison alone let one through
    with pytest.raises(ValidationError):
        AdmissibilityBound(t=1.0, lower=lower, upper=upper)


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
    u = InputSignal.constant(1.0, 1.0)
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
    n = traj.system.n_modes
    lines = ["t,norm," + ",".join(f"c{k}" for k in range(1, n + 1))]
    for t, nrm, row in zip(traj.times, traj.norms(), traj.states):
        lines.append(",".join(format(v, ".17g") for v in (t, nrm, *row)))
    return "\n".join(lines) + "\n"


def test_trajectory_csv_matches_per_float_formatting(tmp_path):
    # 70 rows cross the writer's row blocks; the values include negatives,
    # -0.0, subnormals and magnitudes near 1e300
    sys = heat(4)
    rng = np.random.default_rng(7)
    times = np.concatenate([[0.0, 5e-324, 2.5e-310], np.sort(rng.uniform(1e-3, 1e300, 67))])
    states = rng.standard_normal((70, 4)) * 10.0 ** rng.integers(-300, 150, (70, 4))
    states[0] = [-0.0, 0.0, -5e-324, 1e-310]
    states[1] = [-1.5e150, 1.2345678901234567e149, -0.0, 2.2250738585072014e-308]
    traj = Trajectory(times=times, states=states, system=sys, input=InputSignal.zero())
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
    traj = Trajectory(times=times, states=states, system=heat(3), input=InputSignal.zero())
    path = tmp_path / "repeats.csv"
    write_trajectory_csv(traj, path)
    text = path.read_text(encoding="utf-8")
    assert text == _per_float_csv(traj)
    assert ",-0," in text and ",0," in text
    assert text.splitlines()[1] == "0,0,0,0,0"
