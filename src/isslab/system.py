"""Truncated diagonal systems x' = Ax + Bu and their exact mild solutions.

The state space is the real span of the first N eigenmodes of a self-adjoint
diagonal generator: A e_k = -lambda_k e_k with 0 < lambda_1 < ... < lambda_N.
A scalar input enters through spectral coefficients b_k.  On a time interval
where the input is constant with value v, each coordinate obeys the scalar ODE
x_k' = -lambda_k x_k + b_k v, whose solution

    x_k(s + h) = exp(-lambda_k h) x_k(s) + (b_k / lambda_k) (1 - exp(-lambda_k h)) v

is evaluated in closed form.  Piecewise-constant inputs therefore propagate
with no time-stepping error at all; the only discretization in the package is
the choice of sample times.

One stepper carries states to the anchors, 0 and every input breakpoint
below the time asked for, and every flow value (``mild_solution``, each row of
``sample_trajectory`` and of the checkers' kernel) is the formula above from
the last anchor below its time.  A value never depends on a sampling grid, so
the axiom checks and the Dini quotients test the arithmetic of every margin.

The flow smooths: h after an anchor every mode with lambda_k h > 746 has
exp(-lambda_k h) == 0.0 exactly and holds its forced value (b_k / lambda_k) v
whatever the state, so the flow kernel (``_flow_norms``, behind
``sample_trajectory`` and the checkers) works per state on the live modes only.

The bundled preset is the 1-d heat equation on [0, 1] with diffusivity a,
homogeneous Dirichlet condition at 0 and Dirichlet boundary input at 1:

    lambda_k = a pi^2 k^2,    b_k = a sqrt(2) k pi (-1)**(k+1).

The input coefficients follow from the steady-state lift: a constant input
v = 1 has equilibrium profile xi (the identity function on [0, 1]) whose sine
coefficients are sqrt(2) (-1)**(k+1) / (k pi), and b_k = lambda_k times those.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError

CSV_FMT = ".17g"
_ROW_BLOCK = 256   # grid rows per block of the flow evaluation
_MIN_GROUP = 64    # rows a group of the flow kernel takes before it may end
# exp(-x) is exactly 0.0 for x >= 746: exp(-745.14) is already below half the
# smallest subnormal 2**-1074, so it rounds to zero
_EXP_FLUSH = 746.0
_CSV_ROWS = 32     # trajectory rows per formatted block of a CSV file
_GRID_T_MIN = 1e-7  # first graded grid step after 0 and each breakpoint


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# systems


@dataclass(frozen=True)
class SpectralSystem:
    """Diagonal system defined by eigenvalues -lambda_k and input coefficients b_k."""

    lambdas: np.ndarray
    b_coeffs: np.ndarray
    label: str = ""

    def __post_init__(self):
        lam = _freeze(np.atleast_1d(self.lambdas))
        b = _freeze(np.atleast_1d(self.b_coeffs))
        if lam.ndim != 1 or b.ndim != 1:
            raise ValidationError("lambdas and b_coeffs must be one-dimensional")
        if lam.size < 1:
            raise ValidationError("at least one mode is required")
        if lam.size != b.size:
            raise ValidationError("lambdas and b_coeffs must have equal length")
        if not np.all(np.isfinite(lam)) or not np.all(np.isfinite(b)):
            raise ValidationError("lambdas and b_coeffs must be finite")
        if lam[0] <= 0.0 or np.any(np.diff(lam) <= 0.0):
            raise ValidationError("lambdas must be strictly increasing with lambda_1 > 0")
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "b_coeffs", b)

    @property
    def n_modes(self) -> int:
        return int(self.lambdas.size)

    @property
    def input_gain_coeffs(self) -> np.ndarray:
        """Steady-state response b_k / lambda_k to a unit constant input."""
        return self.b_coeffs / self.lambdas

    def __eq__(self, other):
        if not isinstance(other, SpectralSystem):
            return NotImplemented
        return (np.array_equal(self.lambdas, other.lambdas)
                and np.array_equal(self.b_coeffs, other.b_coeffs)
                and self.label == other.label)

    def __hash__(self):
        return hash((self.lambdas.tobytes(), self.b_coeffs.tobytes(), self.label))


@dataclass(frozen=True)
class HeatDirichletParams:
    """Diffusivity a (length^2/time) and truncation order for the heat preset."""

    a: float
    n_modes: int

    def __post_init__(self):
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise ValidationError(f"diffusivity a must be positive, got {self.a!r}")
        if self.n_modes < 1:
            raise ValidationError("n_modes must be at least 1")


def heat_dirichlet(params: HeatDirichletParams) -> SpectralSystem:
    """Heat equation on [0,1] with Dirichlet boundary input at the right end."""
    k = np.arange(1, params.n_modes + 1, dtype=float)
    lam = params.a * math.pi ** 2 * k ** 2
    b = params.a * math.sqrt(2.0) * k * math.pi * (-1.0) ** (k + 1.0)
    return SpectralSystem(lam, b, label=f"heat_dirichlet(a={params.a!r}, N={params.n_modes})")


def seeded_rng(seed: int, *key: int) -> np.random.Generator:
    """The random stream of (seed, *key).  Seeds in [0, 2**63) keep their value;
    larger and negative ones map to even and odd offsets above 2**63."""
    s = int(seed)
    if not 0 <= s < 2 ** 63:
        s = 2 * s - 2 ** 63 if s > 0 else 2 ** 63 - 2 * s - 1
    return np.random.default_rng([s, *key])


def state_norm(x) -> float:
    """Euclidean norm of a spectral coefficient vector."""
    return float(np.linalg.norm(np.asarray(x, dtype=float)))


# ---------------------------------------------------------------------------
# inputs


@dataclass(frozen=True)
class InputSignal:
    """Piecewise-constant scalar input, zero after its final breakpoint.

    ``breakpoints`` is the increasing grid 0 = t_0 < ... < t_m and
    ``values[i]`` holds on [t_i, t_{i+1}).  The signal is right continuous
    and extends by zero beyond t_m, so the sup norm over all of [0, inf) is
    max(|values|, 0).  Instances are immutable; shifting and concatenation
    return new signals.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = _freeze(np.atleast_1d(self.breakpoints))
        vals = _freeze(np.atleast_1d(self.values) if np.size(self.values) else np.empty(0))
        if bp.size < 1 or bp[0] != 0.0:
            raise ValidationError("breakpoints must start at 0")
        if np.any(np.diff(bp) <= 0.0):
            raise ValidationError("breakpoints must be strictly increasing")
        if not np.all(np.isfinite(bp)) or not np.all(np.isfinite(vals)):
            raise ValidationError("breakpoints and values must be finite")
        if vals.size != bp.size - 1:
            raise ValidationError("values must have one entry per segment")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    # -- constructors

    @classmethod
    def zero(cls) -> "InputSignal":
        return cls(np.array([0.0]), np.empty(0))

    @classmethod
    def constant(cls, value: float, duration: float) -> "InputSignal":
        if duration <= 0.0:
            raise ValidationError("duration must be positive")
        return cls(np.array([0.0, float(duration)]), np.array([float(value)]))

    @classmethod
    def piecewise(cls, breakpoints, values) -> "InputSignal":
        return cls(np.asarray(breakpoints, dtype=float), np.asarray(values, dtype=float))

    # -- queries

    @property
    def duration(self) -> float:
        return float(self.breakpoints[-1])

    @property
    def sup_norm(self) -> float:
        if self.values.size == 0:
            return 0.0
        return float(np.max(np.abs(self.values)))

    def value_at(self, t: float) -> float:
        if t < 0.0:
            raise DomainError("inputs are defined on t >= 0")
        if t >= self.duration:
            return 0.0
        idx = int(np.searchsorted(self.breakpoints, t, side="right")) - 1
        return float(self.values[idx])

    # -- the two input-space axioms

    def shifted(self, tau: float) -> "InputSignal":
        """Time shift u(tau + .); drops history, never increases the sup norm."""
        if tau < 0.0:
            raise DomainError("shift offset must be nonnegative")
        if tau == 0.0:
            return self
        if tau >= self.duration:
            return InputSignal.zero()
        idx = int(np.searchsorted(self.breakpoints, tau, side="right")) - 1
        bp = np.concatenate([[0.0], self.breakpoints[idx + 1:] - tau])
        return InputSignal(bp, self.values[idx:])

    def concatenated(self, other: "InputSignal", t: float) -> "InputSignal":
        """Signal equal to self on [0, t) and to other(. - t) afterwards.

        The head keeps this signal's breakpoints verbatim (no re-accumulated
        arithmetic), so flows driven by the two signals agree bit for bit on
        [0, t).
        """
        if t <= 0.0:
            raise DomainError("concatenation time must be positive")
        keep = self.breakpoints < t
        head_bp = list(self.breakpoints[keep])
        head_vals = [float(self.values[i]) if i < self.values.size else 0.0
                     for i in range(len(head_bp))]
        if other.values.size == 0:
            return InputSignal(np.array(head_bp + [t]), np.array(head_vals))
        bp = np.concatenate([head_bp, t + other.breakpoints])
        vals = np.concatenate([head_vals, other.values])
        return InputSignal(bp, vals)


# ---------------------------------------------------------------------------
# flows


def _anchored(sys: SpectralSystem, x0s, u: InputSignal, t: float):
    """Step ``x0s``, one state or a stack of states, to the anchors of the
    flow at t: 0 and every input breakpoint below t.

    Returns the anchors, the input value from each anchor on (0 on the zero
    tail) and the states at each anchor.  The input is constant between
    anchors, so each step is exact.
    """
    lam, gain = sys.lambdas, sys.input_gain_coeffs
    anchors, vals = [0.0], []
    states = [np.array(x0s, dtype=float)]
    for i in range(u.values.size):
        vals.append(float(u.values[i]))
        end = float(u.breakpoints[i + 1])
        if end >= t:
            break
        decay = np.exp(-lam * (end - anchors[-1]))
        states.append(states[-1] * decay + gain * (1.0 - decay) * vals[-1])
        anchors.append(end)
    if len(vals) < len(anchors):
        vals.append(0.0)
    return anchors, vals, states


def _decay_forced(sys: SpectralSystem, dt, v, w=None):
    """The decay exp(-lambda dt) and the forced term (b / lambda) v (1 - decay)
    of the flow dt after an anchor with input value v, in the first ``w``
    modes (all by default); ``dt`` and ``v`` broadcast against the modes."""
    # arg is held until the return: freed before the forced term was built,
    # it raised the peak RSS of refute_heat256 by about 2 MB (allocator reuse)
    arg = -dt * sys.lambdas[:w]
    decay = np.exp(arg)
    return decay, sys.input_gain_coeffs[:w] * v * (1.0 - decay)


def _flow_at(sys: SpectralSystem, x0s, u: InputSignal, times) -> np.ndarray:
    """phi(times[s], x0s[s], u) for each state of the stack ``x0s`` (rows),
    each time t >= 0 its own: the anchors are stepped once for all states and
    each row runs from the last anchor below its time, as in ``mild_solution``,
    whose value it is bit for bit."""
    times = np.asarray(times, dtype=float)
    anchors, vals, stepped = _anchored(sys, x0s, u, float(np.max(times)))
    anchors, vals = np.asarray(anchors), np.asarray(vals)
    seg = np.maximum(np.searchsorted(anchors, times) - 1, 0)
    decay, forced = _decay_forced(sys, (times - anchors[seg])[:, None], vals[seg, None])
    return np.stack(stepped)[seg, np.arange(times.size)] * decay + forced


def mild_solution(sys: SpectralSystem, x0, u: InputSignal, t: float) -> np.ndarray:
    """State phi(t, x0, u): the row at t of every sampled flow, bit for bit."""
    if t < 0.0:
        raise DomainError("mild solutions are defined for t >= 0")
    state = np.asarray(x0, dtype=float)
    if state.shape != (sys.n_modes,):
        raise ValidationError(f"state must have shape ({sys.n_modes},)")
    anchors, vals, states = _anchored(sys, state, u, t)
    decay, forced = _decay_forced(sys, t - anchors[-1], vals[-1])
    return states[-1] * decay + forced


@dataclass(frozen=True)
class Trajectory:
    """Sampled flow: states[i] = phi(times[i], x0, u) on an increasing grid."""

    times: np.ndarray
    states: np.ndarray
    system: SpectralSystem
    input: InputSignal

    def __post_init__(self):
        object.__setattr__(self, "times", _freeze(self.times))
        object.__setattr__(self, "states", _freeze(self.states))
        if self.states.shape != (self.times.size, self.system.n_modes):
            raise ValidationError("states must have shape (len(times), n_modes)")
        if not np.all(np.isfinite(self.states)):
            raise ValidationError("trajectory states must be finite")

    def norms(self) -> np.ndarray:
        return np.linalg.norm(self.states, axis=1)


def _row_groups(width: np.ndarray) -> list[int]:
    """Edges of groups of at most ``_ROW_BLOCK`` rows sorted by live width,
    cut where the width's power-of-two class grows once a group has
    ``_MIN_GROUP`` rows: a short grid stays one group."""
    edges = [0]
    cls = np.frexp(width)[1]
    for b in [*(np.flatnonzero(cls[1:] != cls[:-1]) + 1).tolist(), width.size]:
        while b - edges[-1] > _ROW_BLOCK:
            edges.append(edges[-1] + _ROW_BLOCK)
        if b - edges[-1] >= _MIN_GROUP or b == width.size:
            edges.append(b)
    return edges


def _flow_norms(sys: SpectralSystem, x0s, u: InputSignal, grid, states=None) -> np.ndarray:
    """|phi(grid[i], x0s[s], u)| for each state s (rows) and grid row i
    (columns); given ``states`` of shape (len(x0s), grid.size, n_modes), the
    flows themselves are written there too.

    The grid must be one-dimensional, nonempty, start at 0 and strictly
    increase, and every state must have shape (n_modes,).  The anchor states
    of all states are stepped together, and each row runs from the last
    anchor below its time, as in ``mild_solution``.  A row dt after its
    anchor has the live width W = #{k : lambda_k dt <= _EXP_FLUSH}; every
    mode past W has decayed to exactly 0.0 and holds its forced value g_k v,
    the same for every state.  Rows are sorted by W and cut into groups
    (``_row_groups``); each group computes the decay and the forced term on
    its first W columns and the tail squares (g_k v)**2 once for all states,
    and each state's pass gathers, decays and squares only those W columns.
    Each norm is still ``np.add.reduce`` over the whole row of squares, so it
    is ``np.linalg.norm`` of the ``mild_solution`` rows bit for bit, and a
    state gives the same bits alone as in a stack.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1:
        raise ValidationError("grid must be a nonempty one-dimensional array")
    if grid[0] != 0.0:
        raise ValidationError("grid must start at 0")
    if np.any(np.diff(grid) <= 0.0):
        raise ValidationError("grid must be strictly increasing")
    if any(np.shape(x0) != (sys.n_modes,) for x0 in x0s):
        raise ValidationError(f"state must have shape ({sys.n_modes},)")
    anchors, vals, stepped = _anchored(sys, x0s, u, float(grid[-1]))
    anchor_states = np.stack(stepped, axis=1)   # (state, anchor, mode)
    # checked here: a dead mode never reads its anchor state, so its overflow
    # would not reach the norms
    if not np.all(np.isfinite(anchor_states)):
        raise ValidationError("trajectory states must be finite")
    anchors_arr, vals = np.asarray(anchors), np.asarray(vals)
    seg = np.maximum(np.searchsorted(anchors_arr, grid) - 1, 0)
    dt = grid - anchors_arr[seg]
    with np.errstate(divide="ignore", over="ignore"):   # dt = 0 or tiny: every mode
        width = np.searchsorted(sys.lambdas, _EXP_FLUSH / dt, side="right")
    order = np.argsort(width, kind="stable")
    gain = sys.input_gain_coeffs
    sums = np.empty((len(x0s), grid.size))   # sums of squares, rows in sorted order
    edges = _row_groups(width[order])
    for lo, hi in zip(edges[:-1], edges[1:]):
        rows = order[lo:hi]
        w, sg, v = int(width[rows[-1]]), seg[rows], vals[seg[rows], None]
        decay, forced = _decay_forced(sys, dt[rows, None], v, w)
        tail = gain[w:] * v   # the forced term g v (1 - 0.0), bit for bit
        squares = np.empty((rows.size, sys.n_modes))
        np.multiply(tail, tail, out=squares[:, w:])
        for s in range(len(x0s)):
            live = anchor_states[s, :, :w].take(sg, axis=0)   # a copy, updated in place
            live *= decay
            live += forced
            if states is not None:
                states[s, rows, :w] = live
                states[s, rows, w:] = anchor_states[s, sg, w:] * 0.0 + tail
            np.multiply(live, live, out=squares[:, :w])
            np.add.reduce(squares, axis=1, out=sums[s, lo:hi])
    if not np.all(np.isfinite(sums)):
        raise ValidationError("trajectory states must be finite")
    norms = np.empty_like(sums)
    norms[:, order] = np.sqrt(sums)
    return norms


def sample_trajectory(sys: SpectralSystem, x0, u: InputSignal, grid) -> Trajectory:
    """Sample phi(., x0, u) on a grid that starts at 0 and strictly increases.

    ``states[i]`` is ``mild_solution(sys, x0, u, grid[i])`` bit for bit.
    """
    grid = np.asarray(grid, dtype=float)
    states = np.empty((1, grid.size, sys.n_modes))
    _flow_norms(sys, [x0], u, grid, states)
    return Trajectory(times=grid, states=states[0], system=sys, input=u)


def _square_integrals(sys: SpectralSystem, x0s, u: InputSignal, times) -> np.ndarray:
    """int_0^t |phi(s, x0, u)|^2 ds in closed form, for each state of the
    stack ``x0s`` (rows) and each time t >= 0 (columns).

    From an anchor a with input value v, phi_k(a + s) = d_k exp(-lambda_k s)
    + g_k v with g = b / lambda and d = phi(a) - g v, so over [a, a + h]

        int |phi|^2 = sum_k d_k^2 (1 - exp(-2 lambda_k h)) / (2 lambda_k)
                      + 2 d_k g_k v (1 - exp(-lambda_k h)) / lambda_k + g_k^2 v^2 h.

    The anchor states are those of ``mild_solution``; the full segments are
    summed cumulatively and each time adds the piece from the last anchor
    below it.
    """
    x0s = np.asarray(x0s, dtype=float)
    times = np.asarray(times, dtype=float)
    if x0s.ndim != 2 or x0s.shape[1] != sys.n_modes:
        raise ValidationError(f"state must have shape ({sys.n_modes},)")
    if times.ndim != 1 or times.size < 1 or np.any(times < 0.0):
        raise DomainError("integrals are taken over [0, t] with t >= 0")
    lam, gain = sys.lambdas, sys.input_gain_coeffs
    anchors, vals, stepped = _anchored(sys, x0s, u, float(np.max(times)))
    anchors, vals, stepped = np.asarray(anchors), np.asarray(vals), np.stack(stepped)

    def pieces(seg, h):   # int over [anchors[seg], anchors[seg] + h]: (len(seg), state)
        v, h = vals[seg, None, None], h[:, None, None]
        d = stepped[seg] - gain * v
        return np.sum(d * d * (-np.expm1(-2.0 * lam * h)) / (2.0 * lam)
                      + 2.0 * d * gain * v * (-np.expm1(-lam * h)) / lam
                      + (gain * v) ** 2 * h, axis=-1)

    full = np.cumsum(pieces(np.arange(anchors.size - 1), np.diff(anchors)), axis=0)
    cum = np.concatenate([np.zeros((1, x0s.shape[0])), full])
    seg = np.maximum(np.searchsorted(anchors, times) - 1, 0)
    out = (cum[seg] + pieces(seg, times - anchors[seg])).T
    if not np.all(np.isfinite(out)):
        raise ValidationError("trajectory states must be finite")
    return out


# ---------------------------------------------------------------------------
# admissibility bounds


@dataclass(frozen=True)
class AdmissibilityBound:
    """Certified interval for the input-convolution constant at time t.

    ``lower`` is achieved by the unit constant input; ``upper`` dominates
    every input of sup norm one.  The smallest admissibility constant lies
    in [lower, upper].
    """

    t: float
    lower: float
    upper: float

    def __post_init__(self):
        # written so that a NaN fails each test
        if not (self.t >= 0.0 and self.lower >= 0.0):
            raise ValidationError("t and lower must be nonnegative")
        if not math.isfinite(self.upper):
            raise ValidationError(f"the admissibility bound at t = {self.t!r} has the "
                                  f"non-finite upper end {self.upper!r}")
        if not self.lower <= self.upper * (1.0 + 1e-12) + 1e-300:
            raise ValidationError("lower bound exceeds upper bound")


def kappa_bounds(sys: SpectralSystem, t: float, quad_points: int = 2048) -> AdmissibilityBound:
    """Two-sided bound on the smallest kappa(t) with |conv(u)(t)| <= kappa(t) |u|_inf.

    lower: norm of the response at time t to the constant input u = 1.
    upper: integral over [0, t] of |T(s) B| = sqrt(sum_k b_k^2 exp(-2 lambda_k s)),
    evaluated by trapezoid quadrature on a geometrically graded grid.  The
    integrand is convex and decreasing (for heat-type coefficients it grows
    like s**(-3/4) toward 0 until the finite truncation saturates it at
    |B|), so the chords of the trapezoid rule certify the upper bound and
    the grading controls the near-singular region.
    """
    if t <= 0.0:
        raise DomainError("kappa bounds require t > 0")
    if quad_points < 8:
        raise ValidationError("quad_points must be at least 8")
    lower = state_norm(mild_solution(sys, np.zeros(sys.n_modes),
                                     InputSignal.constant(1.0, t), t))
    s = np.concatenate([[0.0], t * np.geomspace(1e-12, 1.0, quad_points)])
    b2 = sys.b_coeffs ** 2
    # a block of rows at a time: the whole (quad_points + 1) x N matrix of
    # weights and its exponent took about 33 KB per mode
    g = np.concatenate([np.sqrt(np.exp(-2.0 * np.outer(s[i:i + _ROW_BLOCK], sys.lambdas)) @ b2)
                        for i in range(0, s.size, _ROW_BLOCK)])
    upper = float(np.trapezoid(g, s))
    return AdmissibilityBound(t=float(t), lower=lower, upper=max(upper, lower))


# ---------------------------------------------------------------------------
# grids and export


def build_time_grid(horizon: float, u: InputSignal | None = None,
                    n_uniform: int = 1025, per_decade: int = 32,
                    extra=None) -> np.ndarray:
    """Evaluation grid on [0, horizon]: uniform backbone plus geometric
    refinement after 0 and after every input breakpoint, so that fast mode
    transients and input jumps are resolved.  Always contains 0, the horizon
    and every breakpoint below the horizon.
    """
    if horizon <= 0.0:
        raise ValidationError("horizon must be positive")
    pieces = [np.linspace(0.0, horizon, n_uniform)]
    anchors = [0.0]
    if u is not None:
        anchors.extend(float(b) for b in u.breakpoints if 0.0 < b < horizon)
        pieces.append(np.asarray(anchors))
    for a in anchors:
        span = horizon - a
        if span <= _GRID_T_MIN:
            continue
        n = max(4, int(math.ceil(math.log10(span / _GRID_T_MIN) * per_decade)))
        pieces.append(a + np.geomspace(_GRID_T_MIN, span, n))
    if extra is not None:
        pieces.append(np.asarray(extra, dtype=float))
    grid = np.unique(np.concatenate(pieces))
    grid = grid[(grid >= 0.0) & (grid <= horizon)]
    if grid[0] != 0.0:
        grid = np.concatenate([[0.0], grid])
    return grid


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write ``t,norm,c1,...,cN`` rows with 17 significant digits.

    Rows are written a small block at a time.  A trajectory repeats many
    values (decayed modes, the zero input's states), so each block formats
    every distinct bit pattern once, ``-0.0`` apart from ``0.0``, and joins
    the rows from those strings; no more than a block is ever held as text.
    """
    n = traj.system.n_modes
    header = "t,norm," + ",".join(f"c{k}" for k in range(1, n + 1))
    norms = traj.norms()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(header + "\n")
        for start in range(0, traj.times.size, _CSV_ROWS):
            rows = slice(start, start + _CSV_ROWS)
            block = np.column_stack([traj.times[rows], norms[rows], traj.states[rows]])
            bits, inv = np.unique(block.view(np.int64), return_inverse=True)
            strs = np.array([format(v, CSV_FMT) for v in bits.view(float).tolist()],
                            dtype=object)
            fh.write("\n".join(map(",".join, strs[inv.reshape(block.shape)].tolist())) + "\n")
