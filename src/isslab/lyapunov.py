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

still certifies ISS.  On the diagonal class all operator norms are exact
maxima over modes and M = 1 (contraction semigroup).  kappa(0) is the zero
limit of the admissibility constant; it is taken as zero only when the
computed upper bound at a small probe time falls below a configured
threshold, otherwise the probe value itself enters c(eps) conservatively.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError
from .system import InputSignal, SpectralSystem, kappa_bounds, mild_solution

NEG_INVERSE = "neg_inverse_A"
DATKO = "datko"

#: Default step sequence for finite-difference Dini quotients.  Small enough
#: that exp(-2 lambda h) stays in its linear regime even for the highest mode
#: of the 64-mode heat preset (lambda ~ 4e4).
DEFAULT_DINI_H = (1e-6, 1e-7, 1e-8)

#: kappa(0) is taken as zero when the admissibility upper bound at the probe
#: time falls below this threshold.
KAPPA_ZERO_TOL = 1e-2


@dataclass(frozen=True)
class LyapunovOperator:
    """Diagonal positive operator P with V(x) = sum p_k x_k^2."""

    p_coeffs: np.ndarray
    construction: str
    system: SpectralSystem

    def __post_init__(self):
        p = np.array(self.p_coeffs, dtype=float, copy=True)
        p.setflags(write=False)
        if p.shape != (self.system.n_modes,):
            raise ValidationError("p_coeffs must have one entry per mode")
        if np.any(p <= 0.0) or not np.all(np.isfinite(p)):
            raise ValidationError("p_coeffs must be positive and finite")
        if self.construction not in (NEG_INVERSE, DATKO):
            raise ValidationError(f"unknown construction {self.construction!r}")
        object.__setattr__(self, "p_coeffs", p)

    @property
    def operator_norm(self) -> float:
        """|P| on the truncated space; the maximum diagonal entry, i.e. p_1."""
        return float(np.max(self.p_coeffs))


def build_neg_inverse(sys: SpectralSystem) -> LyapunovOperator:
    """P with p_k = 1/lambda_k, realizing V(x) = -<A^{-1}x, x>."""
    with np.errstate(over="ignore"):   # an infinite p_1 fails LyapunovOperator's check
        return LyapunovOperator(1.0 / sys.lambdas, NEG_INVERSE, sys)


def build_datko(sys: SpectralSystem) -> LyapunovOperator:
    """P with p_k = 1/(2 lambda_k); solves <Px,Ax> + <Ax,Px> = -|x|^2."""
    with np.errstate(over="ignore"):   # an infinite p_1 fails LyapunovOperator's check
        return LyapunovOperator(0.5 / sys.lambdas, DATKO, sys)


def v_value(op: LyapunovOperator, x) -> float:
    """V(x) = sum p_k x_k^2; satisfies 0 < V(x) <= |P| |x|^2 for x != 0."""
    x = np.asarray(x, dtype=float)
    return float(np.dot(op.p_coeffs * x, x))


@dataclass(frozen=True)
class DiniEstimate:
    """Finite-sample surrogate of the upper Dini derivative of V along the flow.

    ``quotients[i]`` is (V(phi(h_i, x, u)) - V(x)) / h_i and ``value`` is their
    maximum, a conservative stand-in for the limsup.  ``analytic`` is the
    exact spectral derivative 2 sum p_k x_k (-lambda_k x_k + b_k u(0)),
    available because the input is right continuous at 0.
    """

    value: float
    quotients: tuple[float, ...]
    h_seq: tuple[float, ...]
    analytic: float


def dini_estimate(op: LyapunovOperator, sys: SpectralSystem, x, u: InputSignal,
                  h_seq=DEFAULT_DINI_H) -> DiniEstimate:
    """Difference quotients of V along phi(., x, u) plus the analytic derivative.

    ``h_seq`` must be positive and strictly decreasing toward 0.  The returned
    ``value`` is the maximum quotient; use the smallest step (last quotient)
    when cross-validating against ``analytic``, since the quotient error grows
    like lambda_k * h on the fast modes.
    """
    h_seq = tuple(float(h) for h in h_seq)
    if not h_seq or any(h <= 0.0 for h in h_seq) or any(
            h_seq[i + 1] >= h_seq[i] for i in range(len(h_seq) - 1)):
        raise DomainError("h_seq must be positive and strictly decreasing")
    x = np.asarray(x, dtype=float)
    v0 = v_value(op, x)
    quotients = []
    for h in h_seq:
        vh = v_value(op, mild_solution(sys, x, u, h))
        quotients.append((vh - v0) / h)
    lam = sys.lambdas
    analytic = float(2.0 * np.dot(op.p_coeffs * x, -lam * x + sys.b_coeffs * u.value_at(0.0)))
    return DiniEstimate(value=max(quotients), quotients=tuple(quotients),
                        h_seq=h_seq, analytic=analytic)


@dataclass(frozen=True)
class DissipationParameters:
    """Constants entering the dissipation inequality for a given epsilon."""

    epsilon: float
    c_eps: float
    norm_AstarP: float
    norm_PA: float
    norm_AinvB: float
    M: float
    kappa0: float

    def __post_init__(self):
        if not 0.0 < self.epsilon < 1.0:
            raise DomainError("epsilon must lie in (0,1)")
        if not 0.0 <= self.kappa0 < math.inf:
            raise ValidationError("kappa0, the admissibility bound at the probe time, must be "
                                  f"finite and nonnegative, not {self.kappa0!r}")
        if not all(map(math.isfinite, (self.norm_AstarP, self.norm_PA, self.norm_AinvB, self.M))):
            raise ValidationError("|A*P|, |PA|, |A^-1 B| and M must be finite")
        expected = c_of_epsilon(self.epsilon, self.norm_AstarP, self.norm_PA,
                                self.norm_AinvB, self.M, self.kappa0)
        if not math.isclose(self.c_eps, expected, rel_tol=1e-12, abs_tol=1e-300):
            raise ValidationError("c_eps does not match its defining expression")

    def rhs(self, state_norm_sq: float, input_sup: float) -> float:
        return (self.epsilon - 1.0) * state_norm_sq + self.c_eps * input_sup ** 2


def c_of_epsilon(epsilon: float, norm_AstarP: float, norm_PA: float,
                 norm_AinvB: float, M: float, kappa0: float) -> float:
    """The input-gain constant of the dissipation inequality."""
    if not 0.0 < epsilon < 1.0:
        raise DomainError("epsilon must lie in (0,1)")
    quad = (norm_AstarP + norm_PA) ** 2 * norm_AinvB ** 2 * M ** 2 / (4.0 * epsilon)
    return quad + M * norm_AstarP * norm_AinvB * kappa0


def dissipation_constants(op: LyapunovOperator, sys: SpectralSystem, epsilon: float,
                          kappa_probe_t: float = 1e-3) -> DissipationParameters:
    """Assemble the dissipation constants for a diagonal self-adjoint system.

    |A*P| = |PA| = max_k lambda_k p_k (exactly 1 for neg_inverse_A, 1/2 for
    datko), M = 1 for the contraction semigroup, and |A^{-1}B| is the norm of
    the steady-gain vector b_k / lambda_k.  kappa(0) is set to zero only when
    the admissibility upper bound at ``kappa_probe_t`` is below
    ``KAPPA_ZERO_TOL``; otherwise that probe value is kept, which can only
    enlarge c(eps).

    This gate tests the truncation, not the PDE: every truncation has
    kappa_N(t) <= |B_N| t, so it fires for any system once the probe time is
    below ``KAPPA_ZERO_TOL / |B_N|``, whatever the PDE's own kappa(0).
    """
    if not 0.0 < epsilon < 1.0:
        raise DomainError("epsilon must lie in (0,1)")
    norm_pa = float(np.max(sys.lambdas * op.p_coeffs))
    norm_ainvb = float(np.linalg.norm(sys.input_gain_coeffs))
    M = 1.0
    upper = kappa_bounds(sys, kappa_probe_t).upper
    kappa0 = 0.0 if upper < KAPPA_ZERO_TOL else upper
    c = c_of_epsilon(epsilon, norm_pa, norm_pa, norm_ainvb, M, kappa0)
    return DissipationParameters(epsilon=epsilon, c_eps=c, norm_AstarP=norm_pa,
                                 norm_PA=norm_pa, norm_AinvB=norm_ainvb,
                                 M=M, kappa0=kappa0)

