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

Inputs enter the flows as one table (``_input_table``): a row per input,
its breakpoints padded with +inf, its values with 0.0.  ``_anchor_table``
steps a stack of states once to the anchors of every input, 0 and its
breakpoints below its last time, and ``_table_rows`` reads rows off it;
``_flow_rows`` steps rows with their own state, input, time and start
(``mild_solution`` is its row 0).  Every flow value and closed-form integral
(``_square_integrals``) is the formula above from the last anchor below its
time, so it never depends on a sampling grid or on the other inputs of a
stack, and the axiom checks test every margin's arithmetic.

One modal layer, ``_decay_forced``, forms every decay and forced term of the
flows: dt after an anchor a with input value v, mode k is x_k(a) d_k + g_k v
(1 - d_k), d_k = exp(-lambda_k dt) and g = b / lambda, dt clipped at
``_settle`` (past it d_k is 0.0 and lambda_N dt cannot overflow).  A step
and the settled value fl(g_k v) (dt = inf) form g_k (1 - d_k) v, a last piece
g_k v (1 - d_k); the golden corpus (``tests/golden_corpus.py``) pins the bits.
The flow smooths: past a row's cap T = clip(38 + ln(M / (|v| G)), 38, 746),
M the anchor table's largest |x_k(a)| and G = min |g_k|, a mode with
lambda_k dt > T is fl(g_k v):
  absorption: |x_k(a) d_k| <= e**-38 |v| G < 2**-54 |g_k v|, below half an ulp;
  1 - d_k rounds to 1.0, as d_k <= e**-38 < 2**-54;
  +0 squares: at v = 0 the norms' cap is clip(ln M + 373, 38, 746), past
  which the mode squares to +0 (M e**-T <= 2**-538), as (g_k v)**2 does.
Past 746, d_k is 0.0: the cap of rows with v != 0 and G = 0.  One loop
(``_live_groups``) takes rows as (input, time) pairs of every input of a
sample set, sorts them by this live width and gives each state's live modes
per group of rows; the flow kernel (``_flow_norms``, the squares of dead
modes and the settled right parts of each row's pairwise sum, ``_spine``,
from tables per (input, anchor)) and ULIM's enclosure (``_enclosure``)
reduce them.  They, ``_square_integrals`` and ``sample_trajectory`` (through
``_table_rows``) read an anchor table.  Past lambda_k min(h, _settle) >
_SETTLED = 40 an integral's mode is settled (expm1 = -1.0): its term is its
(input, anchor)'s settled part, made once, plus g_k^2 v^2 h.

The bundled preset is the 1-d heat equation on [0, 1] with diffusivity a,
homogeneous Dirichlet condition at 0 and Dirichlet boundary input at 1:

    lambda_k = a pi^2 k^2,    b_k = a sqrt(2) k pi (-1)**(k+1).

The input coefficients follow from the steady-state lift: a constant input
v = 1 has equilibrium profile xi (the identity function on [0, 1]) whose sine
coefficients are sqrt(2) (-1)**(k+1) / (k pi), and b_k = lambda_k times those.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from functools import cached_property
from itertools import pairwise

import numpy as np

from .errors import DomainError, ValidationError

CSV_FMT = ".17g"
_ROW_BLOCK = 256   # grid rows per block of the flow evaluation
_BLOCK_CELLS = 2 ** 13  # rows times live width of a block: bounds its arrays
# exp(-x) is exactly 0.0 for x >= 746: exp(-745.14) is already below half the
# smallest subnormal 2**-1074, so it rounds to zero
_EXP_FLUSH = 746.0
_SETTLED = 40.0    # -expm1(-x) is exactly 1.0 for x >= 40: e**-40 < 2**-54, half an ulp
_CSV_ROWS = 32     # trajectory rows per formatted block of a CSV file
_GRID_T_MIN = 1e-7  # first graded grid step after 0 and each breakpoint
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645   # PCG64's 128-bit LCG multiplier


def _freeze(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float, copy=True)
    out.setflags(write=False)
    return out


def _finite(states: np.ndarray) -> np.ndarray:
    """``states``, refused unless every value is finite."""
    if not np.isfinite(states).all():
        raise ValidationError("trajectory states must be finite")
    return states


# ---------------------------------------------------------------------------
# systems


@dataclass(frozen=True)
class SpectralSystem:
    """Diagonal system defined by eigenvalues -lambda_k and input coefficients b_k."""

    lambdas: np.ndarray
    b_coeffs: np.ndarray

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
        # _decay_forced clips dt to _settle: exp(-lambda_k dt) is 0.0 past it, and cannot overflow
        object.__setattr__(self, "_settle", _EXP_FLUSH / float(lam[0]))

    @property
    def n_modes(self) -> int:
        return int(self.lambdas.size)

    @cached_property
    def input_gain_coeffs(self) -> np.ndarray:
        """Steady-state response b_k / lambda_k to a unit constant input."""
        return _freeze(self.b_coeffs / self.lambdas)

    @cached_property
    def input_gain_norm(self) -> float:
        """|A^{-1}B| = sup_t kappa(t), the steady gain of a unit input; scaled by
        the largest |g_k| when the plain norm's squares overflow."""
        gain = self.input_gain_coeffs
        with np.errstate(over="ignore"):
            norm = float(np.linalg.norm(gain))
        if norm == math.inf and (top := float(np.max(np.abs(gain)))) < math.inf:
            norm = top * float(np.linalg.norm(gain / top))
        return norm

    def __eq__(self, other):
        if not isinstance(other, SpectralSystem):
            return NotImplemented
        return (np.array_equal(self.lambdas, other.lambdas)
                and np.array_equal(self.b_coeffs, other.b_coeffs))

    def __hash__(self):
        return hash((self.lambdas.tobytes(), self.b_coeffs.tobytes()))


def heat_dirichlet(a: float, n_modes: int) -> SpectralSystem:
    """The heat preset of the module docstring: diffusivity a, n_modes modes."""
    if not (math.isfinite(a) and a > 0.0):
        raise ValidationError(f"diffusivity a must be positive, got {a!r}")
    if n_modes < 1:
        raise ValidationError("n_modes must be at least 1")
    k = np.arange(1, n_modes + 1, dtype=float)
    with np.errstate(over="ignore"):   # an inf is refused by SpectralSystem, unwarned
        lam = a * math.pi ** 2 * k ** 2
        b = a * math.sqrt(2.0) * k * math.pi * (-1.0) ** (k + 1.0)
    return SpectralSystem(lam, b)


def _entropy(seed: int, *key: int) -> np.ndarray:
    """The stream (seed, *key)'s entropy as SeedSequence reads the list [s, *key]:
    each int's little-endian uint32 words.  Seeds in [0, 2**63) keep their
    value; larger and negative ones map to even and odd offsets above 2**63."""
    s = int(seed)
    if not 0 <= s < 2 ** 63:
        s = 2 * s - 2 ** 63 if s > 0 else 2 ** 63 - 2 * s - 1
    return np.array([v >> k & 0xFFFFFFFF for v in (s, *map(int, key))
                     for k in range(0, max(v.bit_length(), 1), 32)], dtype=np.uint32)


def seeded_rng(seed: int, *key: int) -> np.random.Generator:
    """The random stream of (seed, *key)."""
    return np.random.default_rng(_entropy(seed, *key))


def _stream_words(seed: int, kind: int, index, n: int) -> np.ndarray:
    """The first n raw outputs of every stream ``seeded_rng(seed, kind, i)``, i in
    ``index`` (each below 2**32), as a (len(index), n) uint64 array: bit for bit
    ``bit_generator.random_raw(n)``, in one numpy pass.  SeedSequence hashes
    the entropy into a pool of 4 words and draws PCG64's state s and sequence
    from it; seeding steps the LCG x -> M x + inc twice, so output k is XSL-RR
    of M**(k+2) s + (1 + M + ... + M**(k+2)) inc mod 2**128.  NEP 19 fixes both
    across numpy versions.  Products wrap in uint32 and uint64 arrays, and the
    high word of a 64-bit one is summed from 32-bit limbs."""
    idx = np.asarray(index).astype(np.uint32)
    words = np.vstack([np.repeat(_entropy(seed, kind)[:, None], idx.size, axis=1), idx])
    # SeedSequence's running hash constants init * mult**i mod 2**32: the pool's, the state's
    a = 0x43B0D7E5 * np.cumprod([1] + [0x931E8875] * (16 + 4 * len(words)), dtype=np.uint32)
    b = 0x8B51F9DD * np.cumprod([1] + [0x58F38DED] * 8, dtype=np.uint32)

    def hashmix(v, i, k):   # hash calls i..i+k-1, one per row
        v = (v ^ a[i:i + k, None]) * a[i + 1:i + k + 1, None]
        return v ^ v >> 16

    def mix(x, y):
        v = x * 0xCA01F9DD - y * 0x4973F715
        return v ^ v >> 16
    pool = hashmix(np.vstack([words, 0 * words])[:4], 0, 4)   # at least 3 words, padded with 0
    for src, dst in enumerate(~np.eye(4, dtype=bool)):   # into every other pool word
        pool[dst] = mix(pool[dst], hashmix(pool[src], 4 + 3 * src, 3))
    for w in range(4, len(words)):   # words past the pool mix into every pool word
        pool = mix(pool, hashmix(words[w], 4 * w, 4))
    state = (np.tile(pool, (2, 1)) ^ b[:-1, None]) * b[1:, None]
    state = (state ^ state >> 16).astype(np.uint64)
    s_hi, s_lo, q_hi, q_lo = (state[0::2] | state[1::2] << 32)[:, :, None]
    hi, lo = np.stack([s_hi, q_hi << 1 | q_lo >> 63]), np.stack([s_lo, q_lo << 1 | 1])  # s, inc
    pows = [pow(_PCG_MULT, k + 2, 2 ** 128) for k in range(n)]
    c = np.array([pows, [1 + _PCG_MULT + sum(pows[:k + 1]) for k in range(n)]], dtype=object)
    c_hi, c_lo = (((c[:, None] >> k) % 2 ** 64).astype(np.uint64) for k in (64, 0))
    a1, a0, b1, b0 = lo >> 32, lo & 0xFFFFFFFF, c_lo >> 32, c_lo & 0xFFFFFFFF
    p, q, r = a0 * b0, a1 * b0, a0 * b1
    mid = (p >> 32) + (q & 0xFFFFFFFF) + (r & 0xFFFFFFFF)
    hi = a1 * b1 + (q >> 32) + (r >> 32) + (mid >> 32) + hi * c_lo + lo * c_hi
    lo = lo * c_lo
    lo, hi = lo[0] + lo[1], hi[0] + hi[1] + (lo[0] + lo[1] < lo[0])
    x, rot = hi ^ lo, hi >> 58
    return x >> rot | x << (64 - rot & 63)


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
    max(|values|, 0).  Instances are immutable; inputs are shifted and
    concatenated as tables, and ``tests/oracles.py`` keeps the object forms.
    """

    breakpoints: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        bp = _freeze(np.atleast_1d(self.breakpoints))
        vals = _freeze(np.atleast_1d(self.values) if np.size(self.values) else np.empty(0))
        if bp.size < 1 or bp[0] != 0.0:
            raise ValidationError("breakpoints must start at 0")
        if (np.diff(bp) <= 0.0).any():
            raise ValidationError("breakpoints must be strictly increasing")
        if not (np.isfinite(bp).all() and np.isfinite(vals).all()):
            raise ValidationError("breakpoints and values must be finite")
        if vals.size != bp.size - 1:
            raise ValidationError("values must have one entry per segment")
        object.__setattr__(self, "breakpoints", bp)
        object.__setattr__(self, "values", vals)

    @classmethod
    def zero(cls) -> "InputSignal":
        return cls(np.array([0.0]), np.empty(0))

    @classmethod
    def piecewise(cls, breakpoints, values) -> "InputSignal":
        return cls(np.asarray(breakpoints, dtype=float), np.asarray(values, dtype=float))

    @cached_property
    def sup_norm(self) -> float:
        if self.values.size == 0:
            return 0.0
        return float(np.max(np.abs(self.values)))


# ---------------------------------------------------------------------------
# flows


def _decay_forced(sys: SpectralSystem, dt, v, w=None, cap=None):
    """The modal layer: the decay d = exp(-lambda dt), dt clipped at
    ``_settle``, and the forced term g v (1 - d) of the flow dt after an
    anchor with input value v, in the first ``w`` modes (all by default),
    ``dt``, ``v`` and ``cap`` broadcast against them; exp's argument is
    raised to -cap, off its slow paths.  A last piece passes its v; a step
    passes 1.0 and scales the term by v, g (1 - d) v, and so does the settled
    g v at dt = inf (d = 0.0).  The golden corpus pins both products' bits."""
    # exp writes over its argument: a second array made the anchor table about
    # 12% slower at N = 256, and freeing it early moved peak RSS by 2 MB
    arg = -np.minimum(dt, sys._settle) * sys.lambdas[:w]
    if cap is not None:
        np.maximum(arg, -cap, out=arg)
    decay = np.exp(arg, out=arg)
    return decay, sys.input_gain_coeffs[:w] * v * (1.0 - decay)


def _input_table(bps, vals) -> tuple[np.ndarray, np.ndarray]:
    """One row per input from its breakpoints ``bps[j]`` and values ``vals[j]``:
    the breakpoints padded with +inf, the values with 0.0."""
    m = max(map(len, vals))
    table = np.full((len(bps), m + 2), np.inf), np.zeros((len(bps), m + 1))
    for j, (b, v) in enumerate(zip(bps, vals)):
        table[0][j, :len(b)], table[1][j, :len(v)] = b, v
    return table


def _flow_rows(sys: SpectralSystem, table, which, x0s, times, starts=0.0) -> np.ndarray:
    """Row r is phi(times[r], x0s[r], u(starts[r] + .)), u the input
    ``which[r]`` of ``table``.  A row's anchors are its breakpoints after its
    start less its start, as ``tests/oracles.py``'s ``shifted`` forms them;
    each pass steps the rows with one below their time to it, x d + g (1 - d) v,
    and the last piece is x d + g v (1 - d), both ``_decay_forced``'s.  A row
    that is not finite, also from a stepped state that was not, is refused."""
    bps, vals, idx = table[0][which], table[1][which], np.arange(len(which))
    times, starts = np.broadcast_to(times, idx.shape), np.broadcast_to(starts, idx.shape)
    x, anchor = np.array(x0s, dtype=float), np.zeros(idx.size)
    seg = np.sum(bps <= starts[:, None], axis=1) - 1
    with np.errstate(invalid="ignore"):   # as in _anchor_table; refused at the end, unwarned
        while (live := np.flatnonzero((end := bps[idx, seg + 1] - starts) < times)).size:
            decay, forced = _decay_forced(sys, (end[live] - anchor[live])[:, None], 1.0)
            x[live] = x[live] * decay + forced * vals[live, seg[live], None]
            anchor[live], seg[live] = end[live], seg[live] + 1
        decay, forced = _decay_forced(sys, (times - anchor)[:, None], vals[idx, seg, None])
        return _finite(x * decay + forced)


def mild_solution(sys: SpectralSystem, x0, u: InputSignal, t: float) -> np.ndarray:
    """State phi(t, x0, u): row 0 of ``_flow_rows``, the row at t of every
    sampled flow, bit for bit."""
    if not t >= 0.0:   # a NaN fails it
        raise DomainError("mild solutions are defined for t >= 0")
    state = np.asarray(x0, dtype=float)
    if state.shape != (sys.n_modes,):
        raise ValidationError(f"state must have shape ({sys.n_modes},)")
    return _flow_rows(sys, _input_table([u.breakpoints], [u.values]), np.zeros(1, int),
                      state[None], t)[0]


@dataclass(frozen=True)
class Trajectory:
    """Sampled flow: states[i] = phi(times[i], x0, u) on an increasing grid."""

    times: np.ndarray
    states: np.ndarray
    #: ``states`` is a fresh float array that no one else holds: frozen, not copied
    _fresh: InitVar[bool] = False

    def __post_init__(self, _fresh):
        object.__setattr__(self, "times", _freeze(self.times))
        if _fresh:
            self.states.setflags(write=False)
        else:
            object.__setattr__(self, "states", _freeze(self.states))
        if self.states.ndim != 2 or len(self.states) != self.times.size:
            raise ValidationError("states must be 2-D, one row per time")
        _finite(self.states)

    def norms(self) -> np.ndarray:
        """``np.linalg.norm(states, axis=1)``, squaring a block of rows at a time."""
        out = np.empty(len(self.states))
        for lo in range(0, out.size, _CSV_ROWS):
            out[lo:lo + _CSV_ROWS] = np.linalg.norm(self.states[lo:lo + _CSV_ROWS], axis=1)
        return out


def _row_groups(width: np.ndarray) -> list[int]:
    """Edges of blocks of rows sorted by live width: ``_ROW_BLOCK`` rows, or
    fewer, down to one, where rows times the width of the block's last row
    would pass ``_BLOCK_CELLS``."""
    edges, rows = [0], np.arange(1, _ROW_BLOCK + 1)
    while edges[-1] < width.size:
        w = width[edges[-1]:edges[-1] + _ROW_BLOCK]   # nondecreasing, so the cells are too
        edges.append(edges[-1] + max(1, np.count_nonzero(rows[:w.size] * w <= _BLOCK_CELLS)))
    return edges


def _live_width(sys: SpectralSystem, dt: np.ndarray, cap: np.ndarray) -> np.ndarray:
    """The live width W = #{k : lambda_k dt <= cap} of rows dt after their
    anchor: every mode at dt = 0, and at a dt so small that the quotient
    overflows.  Past W a flow's mode is settled (the module docstring)."""
    with np.errstate(divide="ignore", over="ignore"):
        return np.searchsorted(sys.lambdas, cap / dt, side="right")


def _anchor_table(sys: SpectralSystem, x0s, table, ends) -> tuple:
    """The states ``x0s`` (a stack) at the anchors of each input j of the
    input table ``table``, 0 and its breakpoints below ``ends[j]``, stepped
    once for every kernel pass on times up to ``ends[j]``; with, per (input,
    anchor), its state's index, its input value and its time, and ln M (the
    module docstring's).  Each step is ``_flow_rows``' x d + g (1 - d) v
    (``_decay_forced``).  Anchor 0, the states themselves, is held once; pass
    a steps the inputs with more than a + 1 anchors, the most first, from a
    leading run of the states of pass a - 1."""
    bps, vals = table
    x0s = np.asarray(x0s, dtype=float)
    if x0s.shape[1:] != (sys.n_modes,):
        raise ValidationError(f"state must have shape ({sys.n_modes},)")
    counts = np.maximum(1, np.sum(bps < np.asarray(ends)[:, None], axis=1))
    by, most = np.argsort(-counts, kind="stable"), counts.max()
    # pass a steps the inputs by[:n], n the row sum of the mask: the steps
    # (a, place p in by) in pass order, each to anchor a + 1 of input by[p]
    mask = counts[by] > np.arange(1, most)[:, None]
    passes, place = np.nonzero(mask)
    j, a = by[place], passes + 1
    decay, forced = _decay_forced(sys, (bps[j, a] - bps[j, a - 1])[:, None, None], 1.0)
    forced *= vals[j, a - 1][:, None, None]
    x = np.empty((1 + j.size, len(x0s), sys.n_modes))
    x[0] = x0s
    starts = np.concatenate([[0], np.cumsum(mask.sum(axis=1))])
    with np.errstate(invalid="ignore"):   # an overflowed state times a decay of 0.0 is nan
        for i, (lo, hi) in enumerate(zip(starts[:-1], starts[1:])):
            prev = x[1 + starts[i - 1]:1 + starts[i - 1] + hi - lo] if i else x[:1]
            step = np.multiply(prev, decay[lo:hi], out=x[1 + lo:1 + hi])
            step += forced[lo:hi]
    # checked here, unwarned: a dead mode never reads its anchor state, so its
    # overflow would not reach the norms
    _finite(x)
    slot = np.zeros((len(bps), most), dtype=int)
    slot[j, a] = 1 + np.arange(j.size)
    # M at least the smallest subnormal, so that ln M is finite
    return x, slot, vals[:, :most], bps[:, :most], math.log(max(x.max(), -x.min(), 5e-324))


def _table_rows(sys: SpectralSystem, table, which, states, times) -> np.ndarray:
    """Row r is phi(times[r], x0s[states[r]], u), u the input ``which[r]``,
    off the anchor table ``table`` of the stack x0s, each time within its
    input's end there: ``_decay_forced``'s last piece x d + g v (1 - d) from
    the last anchor below the time, the stepper's bit for bit."""
    anchor_states, slot, vals, bps = table[:4]
    times = np.broadcast_to(times, np.shape(which))
    at = which, np.maximum(np.sum(bps[which] < times[:, None], axis=1) - 1, 0)
    with np.errstate(invalid="ignore"):   # as in _flow_rows; refused at the end, unwarned
        decay, forced = _decay_forced(sys, (times - bps[at])[:, None], vals[at][:, None])
        return _finite(anchor_states[slot[at], states] * decay + forced)


def _rows(sys: SpectralSystem, table, which, times, firsts=None) -> tuple:
    """The rows of a kernel pass, one per (input ``which[r]``, time
    ``times[r]``) in any order, a the last anchor below the time t: their
    order by live width at t - a (at f - a, f = ``firsts[r]``, if given),
    and in that order the widths, each row's (input, anchor) as a flat
    index of the table's values, its input value and its cap T of the
    module docstring, and t - a (then f - a), which ``_decay_forced`` clips."""
    vals, bps, top = table[2:]
    seg = np.maximum(np.sum(bps[which] < times[:, None], axis=1) - 1, 0)
    anchor, v = bps[which, seg], vals[which, seg]
    with np.errstate(divide="ignore"):   # ln 0: v = 0 is set apart, and G = 0 gives 746
        cap = top + 38.0 - np.log(np.abs(v)) - np.log(np.abs(sys.input_gain_coeffs).min())
    cap = np.clip(np.where(v == 0.0, top + 373.0, cap), 38.0, _EXP_FLUSH)
    dts = [t - anchor for t in ([times] if firsts is None else [firsts, times])]
    width = _live_width(sys, dts[0], cap)
    # the rows in order of width; a group computes some rows past their width
    order = np.argsort(width, kind="stable").astype(np.min_scalar_type(width.size))
    return (order, width[order].astype(np.min_scalar_type(sys.n_modes)),
            (which * bps.shape[1] + seg)[order], v[order], cap[order],
            *(dt[order] for dt in dts[::-1]))


def _live_groups(sys: SpectralSystem, table, which, times, firsts=None):
    """The one loop of a kernel pass (``_flow_norms``, ``_enclosure``) over
    rows (input ``which[r]``, time ``times[r]``, first time ``firsts[r]`` if
    given) of the anchor table ``table``, in any order, each time within its
    input's end there.  A row runs from the last anchor below its time, as in
    ``_flow_rows``; dt after it, every mode past the live width
    W = #{k : lambda_k dt <= T}, T the row's cap, is settled whatever the
    state (the module docstring).  The rows are sorted by W (at the first
    time) and cut into groups (``_rows``, ``_row_groups``).  Per group this
    yields the rows' columns, their (input, anchor) indices (``_rows``), the
    width w, the input values v (a column) and, per state, its first w modes
    at the times (then the first times) by ``_decay_forced``, past each row's
    W with exp's argument raised to -T.  A consumer drops a group's arrays
    before it asks for the next."""
    anchor_states, slot = table[:2]
    order, width, key, v, cap, *dts = _rows(sys, table, which, times, firsts)
    edges = _row_groups(width)
    for lo, hi in zip(edges[:-1], edges[1:]):
        kg, w, vv, cc = key[lo:hi], int(width[hi - 1]), v[lo:hi, None], cap[lo:hi, None]
        terms = [_decay_forced(sys, dt[lo:hi, None], vv, w, cc) for dt in dts]
        yield order[lo:hi], kg, w, vv, _stepped(anchor_states, slot.flat[kg], w, terms)
        del terms   # before the next group's are made


def _stepped(anchor_states, at, w, terms):
    """Per state, the first w modes of the anchor states ``at`` times each
    decay of ``terms`` plus its forced term."""
    for s in range(anchor_states.shape[1]):
        modes = []
        for decay, forced in terms:
            live = anchor_states[at, s, :w]   # a copy, updated in place
            live *= decay
            live += forced
            modes.append(live)
        yield modes


def _spine(n: int) -> list[int]:
    """The lengths of the left spine of numpy's pairwise float64 sum of n terms,
    n first: past 128 terms P(a[:h]) + P(a[h:]), h = n // 2 - (n // 2) % 8."""
    spine = [n]
    while spine[-1] > 128:
        spine.append(spine[-1] // 2 - spine[-1] // 2 % 8)
    return spine


def _flow_norms(sys: SpectralSystem, table, which, times) -> np.ndarray:
    """|phi(t, x0s[s], u)| for each state s (rows) and each row r (columns),
    u the input ``which[r]`` and t = ``times[r]``, ``table`` the anchor
    table of ``x0s``.  A row's tail past its live width is the settled
    fl(g_k v)**2, read off one table of them per (input, anchor).  Each norm
    is ``np.add.reduce`` of the row's squares as its pairwise sum (``_spine``)
    forms it: the first cut, the innermost spine length >= the group's live
    width, then each settled right part past it, summed once per (input,
    anchor), innermost first.  So it is ``np.linalg.norm`` of the
    ``mild_solution`` rows bit for bit, and a state or a row gives the same
    bits alone as in a stack."""
    norms = np.empty((table[0].shape[1], len(which)))
    tails = _decay_forced(sys, np.inf, 1.0)[1] * table[2].reshape(-1, 1)   # g (1 - 0.0) v
    tails *= tails
    spine = _spine(sys.n_modes)
    rights = [np.add.reduce(tails[:, lo:hi], axis=1) for hi, lo in pairwise(spine)]
    for rows, key, w, v, states in _live_groups(sys, table, which, times):
        level = sum(cut >= w for cut in spine) - 1
        squares = np.take(tails[:, :spine[level]], key, axis=0)
        sums = np.empty((norms.shape[0], rows.size))
        for s, (live,) in enumerate(states):
            np.multiply(live, live, out=squares[:, :w])
            np.add.reduce(squares, axis=1, out=sums[s])
        for right in reversed(rights[:level]):
            sums += right[key]
        norms[:, rows] = np.sqrt(sums, out=sums)
        del squares, sums, live, states   # before the next group's are made
    return _finite(norms)


def _enclosure(sys: SpectralSystem, table, which, los, his) -> np.ndarray:
    """A lower bound of |phi|**2 on each run [lo, hi] of input ``which[r]``,
    lo = los[r] <= hi = his[r] with no breakpoint of the input in [lo, hi),
    for each state of the anchor table (rows) and each run r in any order
    (columns):

        L = sum_k [p_k(lo) p_k(hi) > 0] min(p_k(lo)**2, p_k(hi)**2),

    p(t) the formula of a kernel row at t from the run's anchor a, the last
    breakpoint below hi.  Every mode, d_k exp(-lambda_k (t - a)) + g_k v, is
    monotone in t on the run, so |phi(t)|**2 >= L there, up to the rounding
    that ``checkers`` bounds.  The runs are the rows of ``_live_groups``,
    at hi with their first time lo, grouped by their live width at lo; the
    modes dead at lo are settled (fl(g_k v)) on the run: v**2 sum_{k >= W} g_k**2.
    """
    gain = sys.input_gain_coeffs
    dead = np.sqrt(np.append(np.cumsum(gain[::-1] ** 2)[::-1], 0.0))   # |g_{W..N}|
    out = np.empty((table[0].shape[1], len(which)))
    for rows, _, w, v, states in _live_groups(sys, table, which, his, los):
        sums = np.empty((out.shape[0], rows.size))
        for s, (q, p) in enumerate(states):
            # min(|p|, |q|) where p and q have one sign, else 0
            low = np.minimum(p, q)
            np.maximum(p, q, out=q)
            np.negative(q, out=q)
            np.maximum(low, q, out=low)
            np.maximum(low, 0.0, out=low)
            low *= low
            np.add.reduce(low, axis=1, out=sums[s])
        sums += np.square(np.abs(v[:, 0]) * dead[w])
        out[:, rows] = sums
        del sums, p, q, low, states   # before the next group's are made
    return out


def sample_trajectory(sys: SpectralSystem, x0, u: InputSignal, grid) -> Trajectory:
    """Sample phi(., x0, u) on a grid that starts at 0 and strictly increases.

    ``states[i]`` is ``mild_solution(sys, x0, u, grid[i])`` bit for bit: the
    rows are read off the pair's anchor table (``_table_rows``) ``_CSV_ROWS``
    at a time, so that no more than a block of them is held twice.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 1 or grid[0] != 0.0:
        raise ValidationError("grid must be one-dimensional, nonempty and start at 0")
    if not (np.diff(grid) > 0.0).all():   # a NaN fails it
        raise ValidationError("grid must be strictly increasing")
    table = _anchor_table(sys, [x0], _input_table([u.breakpoints], [u.values]), grid[-1:])
    states = np.empty((grid.size, sys.n_modes))
    for lo in range(0, grid.size, _CSV_ROWS):
        times = grid[lo:lo + _CSV_ROWS]
        states[lo:lo + times.size] = _table_rows(sys, table, np.zeros(times.size, int), 0, times)
    return Trajectory(times=grid, states=states, _fresh=True)


def _square_integrals(sys: SpectralSystem, table, times) -> np.ndarray:
    """int_0^t |phi(s, x0, u)|^2 ds in closed form, for each state x0 (axis 0)
    and input u (axis 1) of the anchor table ``table`` (``_anchor_table``)
    and each time t >= 0 (axis 2) up to every input's end in the table.

    From an anchor a with input value v, phi_k(a + s) = d_k exp(-lambda_k s)
    + g_k v with g = b / lambda and d = phi(a) - g v, so over [a, a + h]

        int |phi|^2 = sum_k d_k^2 (1 - exp(-2 lambda_k h)) / (2 lambda_k)
                      + 2 d_k g_k v (1 - exp(-lambda_k h)) / lambda_k + g_k^2 v^2 h.

    The pieces of every input's full segments below the last time, and those
    from each time's last anchor below it, are the rows of one pass.  Past a
    row's ``_live_width`` at cap ``_SETTLED`` both expm1 are -1.0, so mode k
    is settled: its term is P_k + g_k^2 v^2 h, P_k = d_k^2 / (2 lambda_k) +
    2 d_k g_k v / lambda_k made once per (input, anchor), and rows of like
    width (``_row_groups``) run the formula on their live modes.  Each row is
    ``np.add.reduce`` over all its modes in blocks of ``_BLOCK_CELLS`` rows
    times states times modes, and the full segments are summed along each
    input's anchors, so every value is that of the input alone bit for bit.
    """
    anchor_states, slot, vals, bps = table[:4]
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size < 1 or (times < 0.0).any():
        raise DomainError("integrals are taken over [0, t] with t >= 0")
    lam, gain = sys.lambdas, sys.input_gain_coeffs
    # the rows (input, anchor, h): the full segments, then each (input, time)
    full, n_inputs = bps[:, 1:] < times.max(), len(bps)
    seg = np.maximum(np.sum(bps[:, None, :] < times[:, None], axis=2) - 1, 0)
    fj, fa = np.nonzero(full)
    which = np.concatenate([fj, np.repeat(np.arange(n_inputs), times.size)])
    at = np.concatenate([fa, seg.ravel()])
    h = np.concatenate([bps[fj, fa + 1], np.tile(times, n_inputs)]) - bps[which, at]
    rows, v, dts = slot[which, at], vals[which, at], np.minimum(h, sys._settle)
    out = np.empty((at.size, anchor_states.shape[1]))
    step = max(1, _BLOCK_CELLS // anchor_states[0].size)
    keys = np.flatnonzero(np.bincount(key := which * bps.shape[1] + at))   # in slot.flat
    chunk, pair = np.divmod(np.searchsorted(keys, key), step)   # of step (input, anchor) pairs
    order = np.lexsort((width := _live_width(sys, dts, _SETTLED), chunk))
    for c, (lo, hi) in enumerate(pairwise(np.searchsorted(chunk[order], range(chunk.max() + 2)))):
        k = keys[c * step:(c + 1) * step]
        d = anchor_states[slot.flat[k]] - gain * (vk := vals.flat[k][:, None, None])
        with np.errstate(over="ignore", invalid="ignore"):   # if read, _finite refuses it
            settled, forced = d * d / (2.0 * lam) + 2.0 * d * gain * vk / lam, (gain * vk) ** 2
        for a, b in pairwise(_row_groups(out.shape[1] * width[order[lo:hi]])):
            r, w = order[lo + a:lo + b], width[order[lo + b - 1]]
            vv, dt, p = v[r, None, None], dts[r, None, None], pair[r]
            d = anchor_states[rows[r], :, :w] - gain[:w] * vv
            live = (d * d * (-np.expm1(-2.0 * lam[:w] * dt)) / (2.0 * lam[:w])
                    + 2.0 * d * gain[:w] * vv * (-np.expm1(-lam[:w] * dt)) / lam[:w])
            for i in range(0, r.size, step):
                terms = np.take(settled, p[i:i + step], axis=0)
                terms[..., :w] = live[i:i + step]
                terms += forced[p[i:i + step]] * h[r[i:i + step], None, None]   # on every mode
                out[r[i:i + step]] = np.add.reduce(terms, axis=-1)
    cum = np.zeros(bps.shape + out.shape[1:])   # each input's sums of its full segments
    cum[:, 1:][full] = out[:fj.size]
    np.cumsum(cum[:, 1:], axis=1, out=cum[:, 1:])
    out = (cum[which[fj.size:], at[fj.size:]] + out[fj.size:]).reshape(n_inputs, times.size, -1)
    return _finite(out).transpose(2, 0, 1)


# ---------------------------------------------------------------------------
# the admissibility constant


@dataclass(frozen=True)
class AdmissibilityBound:
    """The smallest input-convolution constant kappa(t) at time t.

    ``lower`` and ``upper`` are both the exact value (see ``kappa_bounds``);
    the pair keeps the interval form that the admissibility gates read.
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


def kappa_bounds(sys: SpectralSystem, t: float) -> AdmissibilityBound:
    """The smallest kappa(t) with |phi(t, 0, u)| <= kappa(t) |u|_inf, exactly.

    Each mode obeys |phi_k(t)| <= |b_k / lambda_k| (1 - exp(-lambda_k t)) |u|_inf,
    and the unit constant input attains every mode's bound at once, whatever
    the signs of b_k.  So kappa(t) = |A^{-1}B (1 - exp(-Lambda t))|, the norm of
    the response to u = 1 (``_decay_forced``'s forced term at v = 1.0) bit for
    bit; it is nondecreasing in t with supremum ``sys.input_gain_norm``.
    """
    if not t > 0.0:   # a NaN fails it
        raise DomainError("kappa bounds require t > 0")
    kappa = float(np.linalg.norm(_decay_forced(sys, t, 1.0)[1]))
    return AdmissibilityBound(t=float(t), lower=kappa, upper=kappa)


# ---------------------------------------------------------------------------
# grids and export


def _unique(a) -> np.ndarray:
    """``np.unique(a)`` by its sort, without the ``numpy.ma`` import of its
    first call: each value unlike the one before it, and a NaN (sorted last)."""
    a = np.sort(a, axis=None)
    keep = np.ones(a.shape, dtype=bool)
    keep[1:] = (a[1:] != a[:-1]) & (a[:-1] == a[:-1])
    return a[keep]


def build_time_grid(horizon: float, u: InputSignal | None = None,
                    n_uniform: int = 1025, per_decade: int = 32,
                    extra=None) -> np.ndarray:
    """Evaluation grid on [0, horizon]: uniform backbone plus geometric
    refinement after 0 and after every input breakpoint, so that fast mode
    transients and input jumps are resolved.  Always contains 0, the horizon
    and every breakpoint below the horizon.
    """
    if not (0.0 < horizon < math.inf):
        raise ValidationError(f"horizon must be positive and finite, got {horizon!r}")
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
    grid = _unique(np.concatenate(pieces))
    return grid[(grid >= 0.0) & (grid <= horizon)]


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """Write ``t,norm,c1,...,cN`` rows with 17 significant digits.

    Rows are written a small block at a time.  A trajectory repeats many
    values (decayed modes, the zero input's states), so each block formats
    every distinct bit pattern once, ``-0.0`` apart from ``0.0``, and joins
    the rows from those strings; no more than a block is ever held as text.
    """
    n = traj.states.shape[1]
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
