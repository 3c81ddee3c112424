"""Comparison functions (classes K and K-infinity) and exponential KL envelopes.

Stability estimates are phrased with strictly increasing functions that
vanish at zero (class K), their unbounded subclass (K-infinity) and decaying
two-argument envelopes (class KL).  Instead of accepting arbitrary callables,
this module implements a closed algebra of parametric forms

    linear(c)          r -> c * r
    power(c, p)        r -> c * r**p
    saturation(c, s)   r -> c * r / (s + r)     (bounded, class K only)
    compose(f, g)      r -> f(g(r))

so that monotonicity is testable and every function serializes to a short
text token.  The module evaluates these forms; it does not invert them.

The KL envelopes handled here are exponential, beta(r, t) = M * exp(-w t) * r,
which is the class produced by exponentially stable semigroups.  For these the
factorization beta(r, t) <= xi1^{-1}(exp(-t) xi2(r)) holds in closed form:

    xi1(s) = (s / M)**(1/w),   xi2(r) = r**(1/w)

gives xi1^{-1}(exp(-t) xi2(r)) = M exp(-w t) r with equality, and from an
exponential ISS certificate (beta, gamma) one obtains a norm-to-integral
certificate (alpha, psi, sigma) = (xi1(./2), xi2, xi1 o gamma).
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ValidationError


def _positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValidationError(f"{name} must be a positive finite real, got {value!r}")
    return value


#: Each form's parameter names; compose has none and composes its parts.
_PARAMS = {"linear": ("c",), "power": ("c", "p"), "saturation": ("c", "s"), "compose": None}


@dataclass(frozen=True)
class ComparisonFunction:
    """A class-K function in one of the closed parametric forms; its form
    sets whether it is K-infinity (``unbounded``).  A leaf form holds
    exactly its parameters (``_PARAMS``), as positive finite floats; compose
    holds two or more parts.  Instances are immutable and evaluation is
    pure, so they may be shared freely across threads.
    """

    form: str
    params: tuple[float, ...] = ()
    parts: tuple["ComparisonFunction", ...] = ()

    def __post_init__(self):
        if self.form not in _PARAMS:
            raise ValidationError(f"unknown comparison-function form {self.form!r}")
        names = _PARAMS[self.form]
        if names is None:
            if self.params or not all(isinstance(p, ComparisonFunction) for p in self.parts):
                raise ValidationError("compose takes comparison functions only")
            if len(self.parts) < 2:
                raise ValidationError("compose needs at least two components")
        elif self.parts or len(self.params) != len(names):
            raise ValidationError(f"{self.form} takes the parameters {', '.join(names)} only")
        else:
            object.__setattr__(self, "params", tuple(map(_positive, names, self.params)))

    @property
    def unbounded(self) -> bool:
        return self.form != "saturation" and all(p.unbounded for p in self.parts)

    def __call__(self, r):
        return evaluate(self, r)

    def describe(self) -> str:
        """Serialize to the ``form(arg, ...)`` token used by scenario files."""
        if self.form == "compose":
            return "compose(" + ", ".join(p.describe() for p in self.parts) + ")"
        return self.form + "(" + ", ".join(repr(p) for p in self.params) + ")"

    def __repr__(self):
        return f"ComparisonFunction[{self.describe()}]"


def linear(c: float) -> ComparisonFunction:
    """r -> c*r, class K-infinity."""
    return ComparisonFunction("linear", (c,))


def power(c: float, p: float) -> ComparisonFunction:
    """r -> c*r**p with p > 0, class K-infinity."""
    return ComparisonFunction("power", (c, p))


def saturation(c: float, s: float) -> ComparisonFunction:
    """r -> c*r/(s+r): strictly increasing onto [0, c), class K but not K-infinity."""
    return ComparisonFunction("saturation", (c, s))


def compose(*fs: ComparisonFunction) -> ComparisonFunction:
    """Composition f1 o f2 o ... (applied right to left).

    The composite is K-infinity exactly when every component is.
    """
    return ComparisonFunction("compose", (), fs)


def evaluate(f: ComparisonFunction, r):
    """Evaluate ``f`` at a nonnegative scalar or array ``r``.

    Guarantees f(0) == 0 exactly for every form.  Negative arguments raise
    :class:`DomainError`.
    """
    arr = np.asarray(r, dtype=float)
    if (arr < 0.0).any():
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
        if not self.psi.unbounded:
            raise ValidationError("psi must be of class K-infinity")
        if not self.sigma.unbounded:
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
    if not cert.gamma.unbounded:
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
    return _read_token(text, _FORMS)


#: The forms a comparison-function token may call: each name's factory and
#: its parameter names, or None for compose, whose arguments are tokens.
_FORMS = {f.__name__: (f, _PARAMS[f.__name__]) for f in (linear, power, saturation, compose)}


def _read_token(text: str, forms: dict):
    """Read a ``name(arg, ...)`` token with Python's expression parser.

    The token must be a call, without keywords, of a name in ``forms`` (see
    ``_FORMS``); each numeric argument is read by ``float`` from its source
    text.  Anything else raises :class:`ValidationError`, and so does an
    expression the parser refuses, such as one with more than 200 nested
    parentheses.
    """
    text = text.strip()
    try:
        tree = ast.parse(text, mode="eval")
    except (SyntaxError, ValueError) as exc:   # ValueError: a null byte on Python 3.10
        raise ValidationError(f"malformed token: {getattr(exc, 'msg', exc)}") from None
    except (RecursionError, MemoryError):   # how the parser refuses a too deep expression
        raise ValidationError("malformed token: nested too deeply") from None
    return _build(tree.body, text, forms)


def _build(node: ast.expr, text: str, forms: dict):
    if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in forms and not node.keywords):
        raise ValidationError(f"expected a call of {', '.join(forms)} without keywords, "
                              f"got {ast.get_source_segment(text, node)!r}")
    name = node.func.id
    factory, names = forms[name]
    if names is None:
        return factory(*(_build(arg, text, forms) for arg in node.args))
    if len(node.args) != len(names):
        raise ValidationError(f"{name}(...) takes {len(names)} argument(s), got {len(node.args)}")
    try:
        args = [float(ast.get_source_segment(text, arg)) for arg in node.args]
    except ValueError as exc:
        raise ValidationError(f"non-numeric argument in {name}(...): {exc}") from None
    return factory(*args)
