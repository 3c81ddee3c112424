"""Diagonal Lyapunov operators, their dissipation constants and Dini estimates.

Two quadratic constructions are provided for a diagonal system with
eigenvalues -lambda_k.  Both give V(x) = sum_k p_k x_k^2 with p_k > 0:

    neg_inverse_A:  p_k = 1 / lambda_k        (V(x) = -<A^{-1} x, x>)
    datko:          p_k = 1 / (2 lambda_k)    (solves 2<Px, Ax> = -|x|^2)

Neither is coercive when lambda_k grows without bound: V(e_k) = p_k tends to
zero along the eigenbasis, so V admits an upper quadratic bound |P| |x|^2 but
no positive-definite lower one.  That non-coercivity is the point; the
dissipation inequality

    Vdot_u(x0) <= (eps - 1) |x0|^2 + c(eps) |u|_inf^2,
    c(eps) = (1/4 eps) (|A*P| + |PA|)^2 |A^{-1}B|^2 M^2 + M |A*P| |A^{-1}B| kappa(0)

still certifies ISS.  kappa(0) is the zero limit of the admissibility
constant, and it is 0 on every truncation: kappa_N(t) = |A^{-1}B (1 - e^{-Lambda t})|
<= |B_N| t.  (For the Dirichlet heat equation itself it is 0 by the
t**(1/4) law of Jacob, Schwenninger & Zwart, JDE 2019.)  So the second term
vanishes and c(eps) is the first alone.  For a piecewise-constant,
right-continuous input the upper Dini derivative of V along the flow at
t = 0 has the closed form Vdot_u(x0) = 2 sum_k p_k x0_k (-lambda_k x0_k + b_k u(0)),
which the dissipation check compares; the difference quotients of
``dini_estimate`` only test the flow arithmetic against it.  On the diagonal
class all operator norms are exact maxima over modes and M = 1 (contraction
semigroup).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, ValidationError
from .system import InputSignal, SpectralSystem, mild_solution

NEG_INVERSE = "neg_inverse_A"
DATKO = "datko"

#: Default steps of ``dini_estimate``'s difference quotients.  Their error is
#: first order in lambda_N h, so they track the derivative only while
#: lambda_N h << 1 (lambda_64 ~ 4e4 on the heat preset at a = 1).
DEFAULT_DINI_H = (1e-6, 1e-7, 1e-8)


@dataclass(frozen=True)
class LyapunovOperator:
    """Diagonal positive operator P with V(x) = sum p_k x_k^2 on ``system``,
    as :func:`build_neg_inverse` or :func:`build_datko` makes it."""

    p_coeffs: np.ndarray
    system: SpectralSystem

    def __post_init__(self):
        p = np.array(self.p_coeffs, dtype=float, copy=True)
        p.setflags(write=False)
        if p.shape != (self.system.n_modes,):
            raise ValidationError("p_coeffs must have one entry per mode")
        if np.any(p <= 0.0) or not np.all(np.isfinite(p)):
            raise ValidationError("p_coeffs must be positive and finite")
        object.__setattr__(self, "p_coeffs", p)

    @property
    def operator_norm(self) -> float:
        """|P| on the truncated space; the maximum diagonal entry, i.e. p_1."""
        return float(np.max(self.p_coeffs))


def build_neg_inverse(sys: SpectralSystem) -> LyapunovOperator:
    """P with p_k = 1/lambda_k, realizing V(x) = -<A^{-1}x, x>."""
    with np.errstate(over="ignore"):   # an infinite p_1 fails LyapunovOperator's check
        return LyapunovOperator(1.0 / sys.lambdas, sys)


def build_datko(sys: SpectralSystem) -> LyapunovOperator:
    """P with p_k = 1/(2 lambda_k); solves <Px,Ax> + <Ax,Px> = -|x|^2."""
    with np.errstate(over="ignore"):   # an infinite p_1 fails LyapunovOperator's check
        return LyapunovOperator(0.5 / sys.lambdas, sys)


def v_value(op: LyapunovOperator, x) -> float:
    """V(x) = sum p_k x_k^2; satisfies 0 < V(x) <= |P| |x|^2 for x != 0."""
    x = np.asarray(x, dtype=float)
    return float(np.dot(op.p_coeffs * x, x))


@dataclass(frozen=True)
class DiniEstimate:
    """V's derivative along phi(., x, u) at t = 0: ``analytic``, the exact
    upper Dini derivative that ``check_dissipation`` compares, and the
    difference quotients ``quotients[i]`` = (V(phi(h_i)) - V(x)) / h_i with
    their maximum ``value``, a diagnostic of the flow arithmetic."""

    value: float
    quotients: tuple[float, ...]
    h_seq: tuple[float, ...]
    analytic: float


def _vdot(op: LyapunovOperator, sys: SpectralSystem, x, v):
    """Vdot_u(x) = 2 <P x, -Lambda x + b v> with v = u(0), of states x (the last
    axis the modes) and values v that broadcast against them; np.vecdot sums
    as v_value's np.dot does."""
    x = np.asarray(x, dtype=float)
    return 2.0 * np.vecdot(op.p_coeffs * x, -sys.lambdas * x + sys.b_coeffs * v)


def dini_estimate(op: LyapunovOperator, sys: SpectralSystem, x, u: InputSignal,
                  h_seq=DEFAULT_DINI_H) -> DiniEstimate:
    """Difference quotients of V along phi(., x, u) plus the analytic derivative.

    ``h_seq`` must be positive and strictly decreasing toward 0.  The returned
    ``value`` is the first largest quotient, NaN if one is not finite; use the
    smallest step (last quotient) when cross-validating against ``analytic``,
    since the quotient error grows like lambda_k * h on the fast modes.
    """
    h_seq = tuple(float(h) for h in h_seq)
    if not h_seq or any(h <= 0.0 for h in h_seq) or any(
            h_seq[i + 1] >= h_seq[i] for i in range(len(h_seq) - 1)):
        raise DomainError("h_seq must be positive and strictly decreasing")
    v0 = v_value(op, x)
    quotients = tuple((v_value(op, mild_solution(sys, x, u, h)) - v0) / h for h in h_seq)
    value = max(quotients) if all(map(math.isfinite, quotients)) else math.nan
    u0 = u.values[0] if u.values.size else 0.0   # u(0), as check_dissipation reads it
    return DiniEstimate(value=value, quotients=quotients, h_seq=h_seq,
                        analytic=float(_vdot(op, sys, x, u0)))


@dataclass(frozen=True)
class DissipationParameters:
    """Constants entering the dissipation inequality for a given epsilon; the
    paper's kappa(0) term is absent because kappa(0) = 0 on every truncation."""

    epsilon: float
    c_eps: float = field(init=False)   # c_of_epsilon of the fields below
    norm_AstarP: float
    norm_PA: float
    norm_AinvB: float
    M: float

    def __post_init__(self):
        object.__setattr__(self, "c_eps", c_of_epsilon(   # refuses an epsilon outside (0,1)
            self.epsilon, self.norm_AstarP, self.norm_PA, self.norm_AinvB, self.M))
        if not all(map(math.isfinite, (self.norm_AstarP, self.norm_PA, self.norm_AinvB, self.M))):
            raise ValidationError("|A*P|, |PA|, |A^-1 B| and M must be finite")
        if self.c_eps == math.inf:
            raise ValidationError(f"c(eps) overflows at |A^-1 B| = {self.norm_AinvB!r}")

    def rhs(self, state_norm_sq: float, input_sup: float) -> float:
        return (self.epsilon - 1.0) * state_norm_sq + self.c_eps * input_sup ** 2


def c_of_epsilon(epsilon: float, norm_AstarP: float, norm_PA: float,
                 norm_AinvB: float, M: float) -> float:
    """The input-gain constant of the dissipation inequality with kappa(0) = 0."""
    if not 0.0 < epsilon < 1.0:
        raise DomainError("epsilon must lie in (0,1)")
    try:
        return (norm_AstarP + norm_PA) ** 2 * norm_AinvB ** 2 * M ** 2 / (4.0 * epsilon)
    except OverflowError:   # a square past the float range
        return math.inf


def dissipation_constants(op: LyapunovOperator, sys: SpectralSystem,
                          epsilon: float) -> DissipationParameters:
    """Assemble the dissipation constants for a diagonal self-adjoint system.

    |A*P| = |PA| = max_k lambda_k p_k (exactly 1 for neg_inverse_A, 1/2 for
    datko), M = 1 for the contraction semigroup, and |A^{-1}B| is the norm of
    the steady-gain vector b_k / lambda_k.  The paper's term
    M |A*P| |A^{-1}B| kappa(0) vanishes: the truncation's kappa_N(t) <= |B_N| t
    tends to 0 with t.  So c(eps) = |PA|^2 |A^{-1}B|^2 / eps; for datko that
    is |A^{-1}B|^2 / (4 eps), the sharp sup_x [Vdot_u(x) - (eps - 1)|x|^2] / u(0)^2.
    """
    norm_pa = float(np.max(sys.lambdas * op.p_coeffs))
    return DissipationParameters(epsilon=epsilon, norm_AstarP=norm_pa, norm_PA=norm_pa,
                                 norm_AinvB=sys.input_gain_norm, M=1.0)

