"""Tests for the comparison-function algebra and the KL factorization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isslab import (ComparisonFunction, DecayEnvelope, DomainError, ISSCertificate,
                    NormToIntegralCertificate, ValidationError, compose,
                    derive_norm_to_integral, evaluate, linear, parse_comparison, power,
                    saturation)
from isslab.comparison import sontag_factor_exponential


def all_forms():
    return [
        linear(2.0),
        power(1.0, 2.0),
        power(0.3, 0.5),
        saturation(2.0, 1.0),
        compose(power(1.0, 2.0), linear(3.0)),
        compose(linear(0.5), saturation(4.0, 2.0)),
    ]


# ---------------------------------------------------------------------------
# evaluate


def test_linear_by_definition():
    assert evaluate(linear(2.0), 3.0) == 6.0


def test_power_by_definition():
    assert evaluate(power(1.0, 2.0), 1.5) == 2.25


@pytest.mark.parametrize("f", all_forms())
def test_zero_maps_to_zero_exactly(f):
    assert evaluate(f, 0.0) == 0.0


def test_negative_argument_rejected():
    with pytest.raises(DomainError):
        evaluate(linear(1.0), -1e-9)


def test_vectorized_evaluation_matches_scalar():
    f = compose(power(2.0, 1.5), saturation(3.0, 0.5))
    rs = np.linspace(0.0, 5.0, 17)
    vec = evaluate(f, rs)
    assert vec.shape == rs.shape
    for r, v in zip(rs, vec):
        assert evaluate(f, float(r)) == pytest.approx(v, rel=1e-15, abs=0.0)


def test_nonpositive_parameters_rejected():
    with pytest.raises(ValidationError):
        linear(0.0)
    with pytest.raises(ValidationError):
        power(1.0, -2.0)
    with pytest.raises(ValidationError):
        saturation(-1.0, 1.0)


@pytest.mark.parametrize("args", [
    ("power", (-1.0, 2.0)), ("linear", (math.nan,)), ("power", (1.0,)),
    ("linear", (1.0,), (linear(1.0),)), ("compose", (), (linear(1.0),)),
    ("compose", (1.0,), (linear(1.0), linear(2.0))), ("compose", (), (linear(1.0), "x")),
    ("exp", (1.0,))], ids=["negative", "nan", "arity", "leaf_parts", "one_part",
                            "compose_params", "not_a_function", "unknown"])
def test_raw_constructor_refuses_what_the_factories_refuse(args):
    with pytest.raises(ValidationError):
        ComparisonFunction(*args)


def test_raw_constructor_stores_floats():
    assert ComparisonFunction("linear", (2,)) == linear(2.0)
    assert type(ComparisonFunction("power", (np.float64(1.5), 2)).params[1]) is float
    with pytest.raises(ValidationError, match="c must be a positive finite real, got -1.0"):
        ComparisonFunction("power", (-1, 2.0))
    with pytest.raises(ValidationError, match="compose needs at least two components"):
        compose(linear(1.0))


def test_kind_bookkeeping():
    assert linear(1.0).unbounded
    assert power(2.0, 0.5).unbounded
    assert not saturation(1.0, 1.0).unbounded
    assert compose(linear(1.0), power(1.0, 2.0)).unbounded
    assert not compose(linear(1.0), saturation(1.0, 1.0)).unbounded


def test_kind_follows_the_form_of_a_raw_function():
    # the class is not a constructor argument: a raw saturation stays class K
    with pytest.raises(TypeError, match="positional"):
        ComparisonFunction("saturation", (1.0, 1.0), (), True)
    with pytest.raises(TypeError, match="unexpected keyword argument 'unbounded'"):
        ComparisonFunction("linear", (1.0,), unbounded=True)
    raw = ComparisonFunction("saturation", (1.0, 1.0))
    assert not raw.unbounded
    assert not ComparisonFunction("compose", (), (linear(1.0), raw)).unbounded
    assert ComparisonFunction("power", (1.0, 2.0)).unbounded
    with pytest.raises(ValidationError, match="psi"):
        NormToIntegralCertificate(alpha=linear(1.0), psi=raw, sigma=linear(1.0))


@pytest.mark.parametrize("f", [linear(0.7), power(2.0, 1.3), power(5.0, 0.25)])
def test_kinf_grows_past_any_fixed_level(f):
    # evaluated far out, the unbounded forms clear a comfortably large bar
    assert evaluate(f, 1e6) > 10.0 * max(1.0, evaluate(f, 1.0))


# ---------------------------------------------------------------------------
# monotonicity (invariant: strictly increasing on sampled grids)


@pytest.mark.parametrize("f", all_forms())
def test_strict_monotonicity_on_grid(f):
    grid = np.concatenate([[0.0], np.geomspace(1e-6, 1e3, 200)])
    vals = evaluate(f, grid)
    assert np.all(np.diff(vals) > 0.0)


@settings(max_examples=150, deadline=None)
@given(c=st.floats(0.1, 10.0), p=st.floats(0.2, 3.0),
       r1=st.floats(0.0, 1e3), dr=st.floats(1e-6, 1e2))
def test_power_monotone_hypothesis(c, p, r1, dr):
    f = power(c, p)
    assert evaluate(f, r1 + dr) > evaluate(f, r1)


# ---------------------------------------------------------------------------
# exponential KL factorization


def invert_power(f, y):
    """Closed-form inverse of f = power(c, p), the form of xi1."""
    c, p = f.params
    return (y / c) ** (1.0 / p)


def test_sontag_identity_case():
    xi1, xi2 = sontag_factor_exponential(DecayEnvelope(1.0, 1.0))
    for r in (0.0, 0.3, 1.0, 7.5):
        assert evaluate(xi1, r) == pytest.approx(r, rel=1e-15)
        assert evaluate(xi2, r) == pytest.approx(r, rel=1e-15)
    # xi1^{-1}(exp(-t) r) reproduces exp(-t) r
    t, r = 0.7, 2.0
    y = math.exp(-t) * evaluate(xi2, r)
    assert invert_power(xi1, y) == pytest.approx(math.exp(-t) * r, rel=1e-14)


def reconstruct(env, r, t):
    """Oracle: evaluate xi1^{-1}(exp(-t) xi2(r)) directly."""
    xi1, xi2 = sontag_factor_exponential(env)
    y = math.exp(-t) * evaluate(xi2, r)
    return invert_power(xi1, y)


def test_sontag_m2_w2_at_origin_time():
    env = DecayEnvelope(2.0, 2.0)
    both = reconstruct(env, 1.0, 0.0)
    assert both == pytest.approx(2.0, rel=1e-12)
    assert both == pytest.approx(env(1.0, 0.0), rel=1e-12)


def test_sontag_heat_rate():
    env = DecayEnvelope(1.0, math.pi ** 2)
    both = reconstruct(env, 1.0, 0.1)
    # oracle: direct evaluation of both sides, exp(-0.1 pi^2) = 0.3727078...
    assert both == pytest.approx(math.exp(-0.1 * math.pi ** 2), rel=1e-12)
    assert both == pytest.approx(env(1.0, 0.1), rel=1e-12)


def test_sontag_exact_reconstruction_invariant():
    rng = np.random.default_rng(8)
    for _ in range(100):
        env = DecayEnvelope(float(rng.uniform(0.2, 20.0)), float(rng.uniform(0.05, 20.0)))
        r = float(rng.uniform(0.0, 10.0))
        t = float(rng.uniform(0.0, 5.0))
        target = env(r, t)
        assert abs(reconstruct(env, r, t) - target) <= 1e-10 * (1.0 + target)


# ---------------------------------------------------------------------------
# deriving norm-to-integral certificates


def test_derive_unit_case_closed_forms():
    cert = ISSCertificate(DecayEnvelope(1.0, 1.0), linear(1.0))
    nti = derive_norm_to_integral(cert)
    for r in (0.0, 0.5, 1.0, 3.0):
        assert evaluate(nti.alpha, r) == pytest.approx(r / 2.0, rel=1e-15, abs=0.0)
        assert evaluate(nti.psi, r) == pytest.approx(r, rel=1e-15, abs=0.0)
        assert evaluate(nti.sigma, r) == pytest.approx(r, rel=1e-15, abs=0.0)


def test_derived_certificate_on_exponential_decay():
    # trajectory phi(t) = exp(-t) x0 with u = 0: the closed-form integral
    # int_0^t exp(-s) |x0| / 2 ds = |x0| (1 - exp(-t)) / 2 <= psi(|x0|) = |x0|
    cert = derive_norm_to_integral(ISSCertificate(DecayEnvelope(1.0, 1.0), linear(1.0)))
    for x0 in (0.5, 1.0, 4.0):
        for t in (0.1, 1.0, 10.0):
            left = x0 * (1.0 - math.exp(-t)) / 2.0
            assert left <= cert.rhs(x0, 0.0, t) + 1e-15
            # and the quadrature of alpha along the trajectory matches it
            s = np.linspace(0.0, t, 4001)
            quad = np.trapezoid(evaluate(cert.alpha, x0 * np.exp(-s)), s)
            assert quad == pytest.approx(left, rel=1e-6)


def test_derive_zero_state_zero_input_trivial():
    cert = derive_norm_to_integral(ISSCertificate(DecayEnvelope(1.0, 1.0), linear(1.0)))
    assert evaluate(cert.alpha, 0.0) == 0.0
    assert cert.rhs(0.0, 0.0, 5.0) == 0.0


def test_derive_requires_unbounded_gain():
    cert = ISSCertificate(DecayEnvelope(1.0, 1.0), saturation(1.0, 1.0))
    with pytest.raises(ValidationError):
        derive_norm_to_integral(cert)


def test_certificate_kind_constraints():
    with pytest.raises(ValidationError):
        NormToIntegralCertificate(alpha=linear(1.0), psi=saturation(1.0, 1.0),
                                  sigma=linear(1.0))


# ---------------------------------------------------------------------------
# serialization round trip


@pytest.mark.parametrize("f", all_forms())
def test_describe_parse_roundtrip(f):
    assert parse_comparison(f.describe()) == f


_params = st.floats(min_value=5e-324, max_value=1.7976931348623157e308,
                   allow_nan=False, allow_infinity=False)
_leaves = st.one_of(st.builds(linear, _params), st.builds(power, _params, _params),
                    st.builds(saturation, _params, _params))
_forms = st.recursive(_leaves, lambda parts: st.lists(parts, min_size=2, max_size=3).map(
    lambda fs: compose(*fs)), max_leaves=8)


@settings(max_examples=200, deadline=None)
@given(_forms)
def test_every_described_token_reads_back_equal(f):
    # every positive finite double, subnormals included, and any nesting
    assert parse_comparison(f.describe()) == f


def test_parse_rejects_garbage():
    for bad in ("wavelet(1.0)", "linear(1.0", "power(1, 2, 3)", "linear(x)"):
        with pytest.raises(ValidationError):
            parse_comparison(bad)
