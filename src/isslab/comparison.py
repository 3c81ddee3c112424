"""Comparison functions (classes K and K-infinity) and exponential KL envelopes.

Stability estimates are phrased with strictly increasing functions that
vanish at zero (class K), their unbounded subclass (K-infinity) and decaying
two-argument envelopes (class KL).  Instead of accepting arbitrary callables,
this module implements a closed algebra of parametric forms

    linear(c)          r -> c * r
    power(c, p)        r -> c * r**p
    saturation(c, s)   r -> c * r / (s + r)     (bounded, class K only)
    compose(f, g)      r -> f(g(r))

so that monotonicity is testable, inverses are exact where the form admits a
closed form, and every function serializes to a short text token.

The KL envelopes handled here are exponential, beta(r, t) = M * exp(-w t) * r,
which is the class produced by exponentially stable semigroups.  For these the
factorization beta(r, t) <= xi1^{-1}(exp(-t) xi2(r)) is computed exactly:

    xi1(s) = (s / M)**(1/w),   xi2(r) = r**(1/w)

gives xi1^{-1}(exp(-t) xi2(r)) = M exp(-w t) r with equality, and from an
exponential ISS certificate (beta, gamma) one obtains a norm-to-integral
certificate (alpha, psi, sigma) = (xi1(./2), xi2, xi1 o gamma).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError, ValidationError

KIND_K = "K"
KIND_KINF = "Kinf"

#: Bracket expansion cap for numerical inversion, in units of ``bracket_scale``.
BRACKET_CAP = 2.0 ** 60


def _positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValidationError(f"{name} must be a positive finite real, got {value!r}")
    return value


@dataclass(frozen=True)
class ComparisonFunction:
    """A class-K function in one of the closed parametric forms.

    Use the factory functions :func:`linear`, :func:`power`,
    :func:`saturation` and :func:`compose` instead of the raw constructor.
    Instances are immutable and evaluation is pure, so they may be shared
    freely across threads.
    """

    form: str
    params: tuple[float, ...] = ()
    parts: tuple["ComparisonFunction", ...] = ()
    kind: str = KIND_K

    def __post_init__(self):
        if self.form not in ("linear", "power", "saturation", "compose"):
            raise ValidationError(f"unknown comparison-function form {self.form!r}")
        if self.kind not in (KIND_K, KIND_KINF):
            raise ValidationError(f"unknown comparison-function kind {self.kind!r}")

    def __call__(self, r):
        return evaluate(self, r)

    @property
    def unbounded(self) -> bool:
        return self.kind == KIND_KINF

    def describe(self) -> str:
        """Serialize to the ``form(arg, ...)`` token used by scenario files."""
        if self.form == "compose":
            return "compose(" + ", ".join(p.describe() for p in self.parts) + ")"
        return self.form + "(" + ", ".join(repr(p) for p in self.params) + ")"

    def __repr__(self):
        return f"ComparisonFunction[{self.describe()}]"


def linear(c: float) -> ComparisonFunction:
    """r -> c*r, class K-infinity."""
    return ComparisonFunction("linear", (_positive("c", c),), (), KIND_KINF)


def power(c: float, p: float) -> ComparisonFunction:
    """r -> c*r**p with p > 0, class K-infinity."""
    return ComparisonFunction("power", (_positive("c", c), _positive("p", p)), (), KIND_KINF)


def saturation(c: float, s: float) -> ComparisonFunction:
    """r -> c*r/(s+r): strictly increasing onto [0, c), class K but not K-infinity."""
    return ComparisonFunction("saturation", (_positive("c", c), _positive("s", s)), (), KIND_K)


def compose(*fs: ComparisonFunction) -> ComparisonFunction:
    """Composition f1 o f2 o ... (applied right to left).

    The composite is K-infinity exactly when every component is.
    """
    if len(fs) < 2:
        raise ValidationError("compose needs at least two components")
    kind = KIND_KINF if all(f.kind == KIND_KINF for f in fs) else KIND_K
    return ComparisonFunction("compose", (), tuple(fs), kind)


def evaluate(f: ComparisonFunction, r):
    """Evaluate ``f`` at a nonnegative scalar or array ``r``.

    Guarantees f(0) == 0 exactly for every form.  Negative arguments raise
    :class:`DomainError`.
    """
    arr = np.asarray(r, dtype=float)
    if np.any(arr < 0.0):
        raise DomainError("comparison functions are defined on r >= 0")
    out = _eval(f, arr)
    if np.isscalar(r) or arr.ndim == 0:
        return float(out)
    return out


def _eval(f: ComparisonFunction, r: np.ndarray) -> np.ndarray:
    if f.form == "linear":
        return f.params[0] * r
    if f.form == "power":
        c, p = f.params
        return c * r ** p
    if f.form == "saturation":
        c, s = f.params
        return c * r / (s + r)
    acc = r
    for part in reversed(f.parts):
        acc = _eval(part, acc)
    return acc


def invert(f: ComparisonFunction, y: float, tol: float = 1e-12,
           bracket_scale: float = 1.0) -> float:
    """Solve f(r) = y for a strictly increasing comparison function.

    Closed forms are used for the linear and power forms.  Every other form
    is inverted by bracketing (the upper bracket doubles from
    ``bracket_scale`` until f covers y, capped at 2**60 * bracket_scale)
    followed by bisection until ``|f(r) - y| <= tol``.

    Raises :class:`RangeError` when y is not reachable within the bracket
    cap, which in particular rejects values at or beyond the plateau of a
    saturation form.
    """
    y = float(y)
    if y < 0.0:
        raise DomainError("comparison functions only take nonnegative values")
    if tol <= 0.0:
        raise DomainError("tol must be positive")
    if y == 0.0:
        return 0.0
    if f.form == "linear":
        return y / f.params[0]
    if f.form == "power":
        c, p = f.params
        return (y / c) ** (1.0 / p)

    if not f.unbounded:
        # bounded strictly increasing functions never attain their supremum
        plateau = evaluate(f, BRACKET_CAP * bracket_scale)
        if y >= plateau:
            raise RangeError(f"y={y!r} is at or beyond the plateau {plateau!r}")
    hi = float(bracket_scale)
    while evaluate(f, hi) < y:
        hi *= 2.0
        if hi > BRACKET_CAP * bracket_scale:
            raise RangeError(
                f"y={y!r} not reachable below the bracket cap; "
                "the function may be bounded (saturation plateau)")
    lo = 0.0
    for _ in range(500):
        mid = 0.5 * (lo + hi)
        fm = evaluate(f, mid)
        if abs(fm - y) <= tol:
            return mid
        if fm < y:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-300:
            break
    raise RangeError(f"bisection did not reach |f(r)-y| <= {tol!r}; "
                     "tolerance below the floating-point resolution of f")


@dataclass(frozen=True)
class DecayEnvelope:
    """Exponential KL envelope beta(r, t) = M * exp(-omega * t) * r.

    M is the transient overshoot, omega the decay rate (1/time).  Decreasing
    in t and linear (hence class K) in r.
    """

    M: float
    omega: float

    def __post_init__(self):
        _positive("M", self.M)
        _positive("omega", self.omega)

    def __call__(self, r, t):
        r_arr = np.asarray(r, dtype=float)
        t_arr = np.asarray(t, dtype=float)
        if np.any(r_arr < 0.0) or np.any(t_arr < 0.0):
            raise DomainError("KL envelopes are defined on r, t >= 0")
        out = self.M * np.exp(-self.omega * t_arr) * r_arr
        if out.ndim == 0:
            return float(out)
        return out

    def describe(self) -> str:
        return f"decay({self.M!r}, {self.omega!r})"


@dataclass(frozen=True)
class ISSCertificate:
    """Candidate ISS estimate: |phi(t)| <= beta(|x0|, t) + gamma(|u|_inf)."""

    beta: DecayEnvelope
    gamma: ComparisonFunction

    def bound(self, r_state, r_input, t):
        return self.beta(r_state, t) + evaluate(self.gamma, r_input)


@dataclass(frozen=True)
class NormToIntegralCertificate:
    """Candidate norm-to-integral estimate.

    Asserts  int_0^t alpha(|phi(s)|) ds <= psi(|x0|) + t * sigma(|u|_inf).
    psi and sigma must be K-infinity so that the estimate stays meaningful
    and invertible for large arguments; alpha may be any class-K form.
    """

    alpha: ComparisonFunction
    psi: ComparisonFunction
    sigma: ComparisonFunction

    def __post_init__(self):
        if self.psi.kind != KIND_KINF:
            raise ValidationError("psi must be of class K-infinity")
        if self.sigma.kind != KIND_KINF:
            raise ValidationError("sigma must be of class K-infinity")

    def rhs(self, r_state, r_input, t):
        return evaluate(self.psi, r_state) + t * evaluate(self.sigma, r_input)


def sontag_factor_exponential(env: DecayEnvelope) -> tuple[ComparisonFunction, ComparisonFunction]:
    """Exact KL factorization of an exponential envelope.

    Returns (xi1, xi2) with xi1(s) = (s/M)**(1/omega), xi2(r) = r**(1/omega),
    for which xi1^{-1}(exp(-t) * xi2(r)) reproduces M * exp(-omega t) * r
    exactly (an equality, not merely an upper bound).
    """
    inv_w = 1.0 / env.omega
    xi1 = power((1.0 / env.M) ** inv_w, inv_w)
    xi2 = power(1.0, inv_w)
    return xi1, xi2


def derive_norm_to_integral(cert: ISSCertificate) -> NormToIntegralCertificate:
    """Turn an exponential ISS certificate into a norm-to-integral one.

    With (xi1, xi2) from :func:`sontag_factor_exponential` and
    xi_bar(r) := xi1(r/2), any trajectory obeying the ISS estimate also obeys

        int_0^t xi_bar(|phi(s)|) ds <= xi2(|x0|) + t * (xi1 o gamma)(|u|_inf),

    because xi_bar(a+b) <= xi_bar(2a) + xi_bar(2b) holds for every
    nondecreasing xi_bar (a+b <= 2 max(a, b)) and exp(-s) integrates to at
    most 1.  Returns the certificate (alpha, psi, sigma) =
    (xi_bar, xi2, xi1 o gamma).  gamma must be K-infinity so that sigma is.
    """
    if cert.gamma.kind != KIND_KINF:
        raise ValidationError(
            "deriving a norm-to-integral certificate needs a K-infinity gain")
    xi1, xi2 = sontag_factor_exponential(cert.beta)
    inv_w = 1.0 / cert.beta.omega
    alpha = power((0.5 / cert.beta.M) ** inv_w, inv_w)  # xi1(r/2) in closed form
    sigma = compose(xi1, cert.gamma)
    return NormToIntegralCertificate(alpha=alpha, psi=xi2, sigma=sigma)


def parse_comparison(text: str) -> ComparisonFunction:
    """Parse a ``form(arg, ...)`` token, e.g. ``power(1.0, 2.0)``.

    Inverse of :meth:`ComparisonFunction.describe`.  Raises
    :class:`ValidationError` on malformed tokens.
    """
    expr, rest = _parse_expr(text.strip(), 0)
    if rest != len(text.strip()):
        raise ValidationError(f"trailing characters in comparison function {text!r}")
    return expr


def _parse_expr(s: str, i: int) -> tuple[ComparisonFunction, int]:
    j = i
    while j < len(s) and (s[j].isalnum() or s[j] == "_"):
        j += 1
    name = s[i:j]
    if j >= len(s) or s[j] != "(":
        raise ValidationError(f"expected '(' after {name!r} in comparison function")
    j += 1
    if name == "compose":
        parts = []
        while True:
            part, j = _parse_expr(s, _skip_ws(s, j))
            parts.append(part)
            j = _skip_ws(s, j)
            if j < len(s) and s[j] == ",":
                j += 1
                continue
            break
        if j >= len(s) or s[j] != ")":
            raise ValidationError("unterminated compose(...) in comparison function")
        return compose(*parts), j + 1
    k = s.find(")", j)
    if k < 0:
        raise ValidationError(f"unterminated {name}(...) in comparison function")
    raw = [a.strip() for a in s[j:k].split(",") if a.strip()]
    try:
        args = [float(a) for a in raw]
    except ValueError as exc:
        raise ValidationError(f"non-numeric argument in {name}(...): {exc}") from None
    factories = {"linear": (linear, 1), "power": (power, 2), "saturation": (saturation, 2)}
    if name not in factories:
        raise ValidationError(f"unknown comparison-function form {name!r}")
    fn, arity = factories[name]
    if len(args) != arity:
        raise ValidationError(f"{name}(...) takes {arity} argument(s), got {len(args)}")
    return fn(*args), k + 1


def _skip_ws(s: str, i: int) -> int:
    while i < len(s) and s[i].isspace():
        i += 1
    return i
