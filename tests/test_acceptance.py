"""Acceptance gate: every criterion below runs at its stated tolerance and
prints one pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

The admissibility constant kappa(t) of the Dirichlet heat equation obeys two
closed-form t**(1/4) laws, and the gates C06/C10 check ``kappa_bounds``
against them:

    upper law   int_0^t |T(s)B| ds <= C_UP t**(1/4),  C_UP = 4 / (2**1.25 pi**0.25),
                uniformly in the truncation N (t <= 1);
    lower law   |x(t)| for the unit step input <= C_LO t**(1/4),
                C_LO = sqrt(2 (2 - sqrt 2) / sqrt(pi)), the erfc boundary layer,
                and is attained to 1% at N = 1024, t = 1e-3.

Together they bracket kappa(1e-3) of the heat equation in [0.144, 0.225].
"""

import math
import time

import numpy as np
import pytest

from isslab import (DecayEnvelope, HeatDirichletParams, ISSCertificate, InputSignal,
                    NormToIntegralCertificate, SampleBudget, build_datko,
                    build_neg_inverse, check_cocycle, check_identity, check_iss,
                    check_norm_to_integral, dini_estimate, draw_input, draw_state,
                    heat_dirichlet, iss_margin, kappa_bounds, linear,
                    mild_solution, power, run_scenario, state_norm, evaluate)
from isslab.comparison import sontag_factor_exponential
from isslab.harness import load_scenario, parse_scenario
from isslab.lyapunov import v_value

PI2 = math.pi ** 2
SQRT3 = math.sqrt(3.0)
C_UP = 4.0 / (2.0 ** 1.25 * math.pi ** 0.25)
C_LO = math.sqrt(2.0 * (2.0 - math.sqrt(2.0)) / math.sqrt(math.pi))
KAPPA_MODES = (64, 256, 1024)


def heat(n=64):
    return heat_dirichlet(HeatDirichletParams(a=1.0, n_modes=n))


def record(num: str, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] {num} {label}: {status}" + (f" ({detail})" if detail else ""))


def test_criterion_01_steady_state_gain():
    t0 = time.perf_counter()
    sys = heat(128)
    u = InputSignal.constant(1.0, 3.0)
    norm = state_norm(mild_solution(sys, np.zeros(128), u, 3.0))
    elapsed = time.perf_counter() - t0
    gap = abs(norm - 1.0 / SQRT3)
    ok = gap <= 2e-3 and elapsed < 1.0
    record("C01", "heat steady-state gain 1/sqrt(3)", ok,
           f"|phi(3)|={norm:.6f} gap={gap:.2e} {elapsed:.3f}s")
    assert gap <= 2e-3
    assert elapsed < 1.0


def test_criterion_02_iss_envelope_500_samples():
    t0 = time.perf_counter()
    sys = heat(64)
    cert = ISSCertificate(DecayEnvelope(1.0, PI2), linear(1.0 / SQRT3))
    budget = SampleBudget(n_states=25, n_inputs=20, n_times=16,
                          horizon=2.0, radius=1.0, seed=2025)
    rep = check_iss(sys, cert, budget)
    elapsed = time.perf_counter() - t0
    ok = rep.samples_checked == 500 and rep.worst_margin >= -1e-6 and elapsed < 5.0
    record("C02", "ISS envelope over 500 samples", ok,
           f"worst margin={rep.worst_margin:.3e} {elapsed:.2f}s")
    assert rep.samples_checked == 500
    assert rep.worst_margin >= -1e-6
    assert elapsed < 5.0


def test_criterion_03_decay_envelope_exact():
    sys = heat(64)
    x0 = np.zeros(64)
    x0[0] = 1.0
    worst = 0.0
    for t in (0.1, 0.5, 1.0):
        ratio = state_norm(mild_solution(sys, x0, InputSignal.zero(), t))
        target = math.exp(-PI2 * t)
        worst = max(worst, abs(ratio - target) / target)
    ok = worst <= 1e-12
    record("C03", "pure-mode decay exp(-pi^2 t) to 1e-12", ok, f"worst rel={worst:.2e}")
    assert worst <= 1e-12


def test_criterion_04_lyapunov_equation_residual():
    sys = heat(64)
    op = build_datko(sys)
    rng = np.random.default_rng(404)
    worst = 0.0
    for _ in range(1000):
        x = rng.standard_normal(64)
        # 2<Px, Ax> + |x|^2, identically zero for the datko construction
        res = 2.0 * np.dot(op.p_coeffs * x, -sys.lambdas * x) + np.dot(x, x)
        worst = max(worst, abs(float(res)) / float(np.dot(x, x)))
    ok = worst <= 1e-12
    record("C04", "Lyapunov-equation residual", ok, f"worst rel={worst:.2e}")
    assert worst <= 1e-12


def test_criterion_05_non_coercivity_exhibit():
    sys = heat(64)
    op = build_neg_inverse(sys)
    e1 = np.zeros(64); e1[0] = 1.0
    e64 = np.zeros(64); e64[-1] = 1.0
    v_last = v_value(op, e64)
    v_first = v_value(op, e1)
    gap_last = abs(v_last - 1.0 / (PI2 * 4096.0))
    gap_first = abs(v_first - 1.0 / PI2)
    ok = gap_last <= 1e-9 and gap_first <= 1e-9 and v_last < 1e-4
    record("C05", "non-coercive tail of V", ok,
           f"V(e64)={v_last:.3e} V(e1)={v_first:.6f}")
    assert v_last < 1e-4
    assert gap_last <= 1e-9
    assert gap_first <= 1e-9


def _dissipation_samples(sys, n_states=20, n_inputs=10, seed=606):
    budget = SampleBudget(n_states=n_states, n_inputs=n_inputs, n_times=1,
                          horizon=2.0, radius=1.0, seed=seed)
    for si in range(n_states):
        x0 = draw_state(sys, budget, si)
        for sj in range(n_inputs):
            yield x0, draw_input(budget, sj)


def test_criterion_06_dissipation_margin_with_pinned_constant():
    # epsilon = 1/2 and c = 2/3: analytic Vdot <= -|x|^2/2 + (2/3)|u|^2
    sys = heat(64)
    op = build_neg_inverse(sys)
    worst = math.inf
    count = 0
    for x0, u in _dissipation_samples(sys):
        est = dini_estimate(op, sys, x0, u, h_seq=(2e-8, 1e-8))
        rhs = -0.5 * state_norm(x0) ** 2 + (2.0 / 3.0) * u.sup_norm ** 2
        worst = min(worst, rhs - est.analytic)
        count += 1
    ok = count == 200 and worst >= -1e-9
    record("C06", "dissipation inequality, analytic Vdot, c=2/3", ok,
           f"worst margin={worst:.3e} over {count} samples")
    assert count == 200
    assert worst >= -1e-9


def test_criterion_06_finite_difference_agreement():
    sys = heat(64)
    op = build_neg_inverse(sys)
    worst = 0.0
    for x0, u in _dissipation_samples(sys):
        est = dini_estimate(op, sys, x0, u, h_seq=(2e-8, 1e-8))
        worst = max(worst, abs(est.value - est.analytic) / (1.0 + abs(est.analytic)))
    ok = worst <= 1e-3
    record("C06", "finite-difference Dini agrees with analytic to 1e-3", ok,
           f"worst rel={worst:.2e}")
    assert worst <= 1e-3


def test_criterion_06_kappa_zero_gate():
    # kappa(0) = 0 is what lets C06 pin c(1/2) = 2/3.  For a finite truncation
    # it holds trivially (B_N is bounded), so the gate checks the N-uniform law
    # upper(t) <= C_UP t**(1/4).  Derivation: for s < 1,
    #   |T(s)B|**2 = sum_k 2 pi^2 k^2 exp(-2 pi^2 k^2 s)
    #             <= int_0^inf 2 pi^2 k^2 exp(-2 pi^2 k^2 s) dk
    #              = (2**2.5 sqrt(pi) s**1.5)**-1,
    # because the Poisson-summation corrections to the full-line sum are
    # negative for s < 1 and truncation only drops nonnegative terms.
    # Integrating s**(-3/4) over [0, t] gives C_UP t**(1/4).
    times = [10.0 ** -j for j in range(1, 7)]
    uppers = {n: [kappa_bounds(heat(n), t).upper for t in times] for n in KAPPA_MODES}
    worst = max(u / (C_UP * t ** 0.25) for n in KAPPA_MODES
                for u, t in zip(uppers[n], times))
    monotone = all(uppers[m][i] <= uppers[n][i] for i in range(len(times))
                   for m, n in zip(KAPPA_MODES, KAPPA_MODES[1:]))
    ok = worst <= 1.0 and monotone
    record("C06", "kappa(0)=0 gate: upper <= C_up t**(1/4) uniformly in N", ok,
           f"worst upper/(C_up t**0.25)={worst:.4f}, nondecreasing in N: {monotone}")
    assert worst <= 1.0, (
        f"admissibility upper bound reaches {worst:.4f} x C_up t**0.25 "
        f"(C_up={C_UP:.6f}); uppers by N: {uppers}")
    assert monotone, f"upper bound not nondecreasing in N: {uppers}"


def test_criterion_07_norm_to_integral_certificate():
    sys = heat(64)
    cert = NormToIntegralCertificate(alpha=power(0.5, 2.0),
                                     psi=power(1.0 / PI2, 2.0),
                                     sigma=power(2.0 / 3.0, 2.0))
    budget = SampleBudget(n_states=20, n_inputs=10, n_times=9,
                          horizon=2.0, radius=1.0, seed=707)
    rep = check_norm_to_integral(sys, cert, budget)
    ok = rep.samples_checked == 200 and rep.worst_margin >= -1e-6 and not rep.violated
    record("C07", "norm-to-integral certificate on 200 samples", ok,
           f"worst margin={rep.worst_margin:.3e}")
    assert rep.samples_checked == 200
    assert rep.worst_margin >= -1e-6
    assert not rep.violated


def test_criterion_08_sontag_factorization_exact():
    rng = np.random.default_rng(808)
    worst = 0.0
    for _ in range(100):
        env = DecayEnvelope(float(rng.uniform(0.2, 20.0)),
                            float(rng.uniform(0.05, 20.0)))
        r = float(rng.uniform(0.0, 10.0))
        t = float(rng.uniform(0.0, 5.0))
        xi1, xi2 = sontag_factor_exponential(env)
        c, p = xi1.params  # xi1 = power(c, p), inverted in closed form
        recon = (math.exp(-t) * evaluate(xi2, r) / c) ** (1.0 / p)
        target = env(r, t)
        worst = max(worst, abs(recon - target) / (1.0 + target))
    ok = worst <= 1e-10
    record("C08", "exact KL factorization", ok, f"worst rel={worst:.2e}")
    assert worst <= 1e-10


def test_criterion_09_axiom_conformance():
    sys = heat(64)
    budget = SampleBudget(n_states=20, n_inputs=10, n_times=3,
                          horizon=2.0, radius=1.0, seed=909)
    identity = check_identity(sys, budget)     # identity and causality, exact
    cocycle = check_cocycle(sys, budget)       # 200 random (x0, u, t, h)
    ok = (not identity.violated and identity.worst_margin == 0.0
          and not cocycle.violated and cocycle.samples_checked == 200)
    record("C09", "identity/causality exact, cocycle within 1e-10", ok,
           f"cocycle worst margin={cocycle.worst_margin:.3e}")
    assert not identity.violated
    assert identity.worst_margin == 0.0
    assert not cocycle.violated
    assert cocycle.samples_checked == 200


def test_criterion_10_kappa_upper_strictly_decreasing():
    sys = heat(64)
    uppers = [kappa_bounds(sys, t).upper for t in (1e-1, 1e-2, 1e-3)]
    ok = uppers[0] > uppers[1] > uppers[2] > 0.0
    record("C10", "kappa upper bound strictly decreasing toward 0", ok,
           "uppers=" + ", ".join(f"{v:.4f}" for v in uppers))
    assert uppers[0] > uppers[1] > uppers[2] > 0.0


def test_criterion_10_kappa_upper_small_at_1e3():
    # two-sided pin of kappa(1e-3).  The unit-step response of the heat
    # equation is an erfc boundary layer at the driven end, so
    # |x(t)|**2 <= 2 sqrt(t) (2 - sqrt 2) / sqrt(pi) = (C_LO t**(1/4))**2, with
    # equality as t -> 0; each truncation keeps the first N of its Fourier
    # coefficients, so the lower bound grows with N toward that law.
    t = 1e-3
    law = t ** 0.25
    bounds = {n: kappa_bounds(heat(n), t) for n in KAPPA_MODES}
    lowers = [bounds[n].lower for n in KAPPA_MODES]
    upper = bounds[64].upper
    attained = lowers[-1] / (C_LO * law)
    ok = (lowers == sorted(lowers) and lowers[-1] <= C_LO * law
          and attained >= 0.99 and upper <= C_UP * law)
    record("C10", "kappa(1e-3) pinned by the t**(1/4) laws", ok,
           f"upper(N=64)={upper:.4f} <= {C_UP * law:.4f}, lowers="
           + ", ".join(f"{v:.4f}" for v in lowers)
           + f" <= {C_LO * law:.4f} (attained {attained:.4f})")
    assert lowers == sorted(lowers), f"lower bounds not nondecreasing in N: {lowers}"
    assert lowers[-1] <= C_LO * law, (
        f"step response {lowers[-1]:.5f} exceeds the erfc law {C_LO * law:.5f}")
    assert attained >= 0.99, (
        f"step response at N=1024 is {lowers[-1]:.5f}, only {attained:.4f} of "
        f"the erfc law {C_LO * law:.5f}")
    assert upper <= C_UP * law, (
        f"upper bound at t=1e-3 is {upper:.5f} with achievable lower bound "
        f"{bounds[64].lower:.5f}, above C_up t**0.25 = {C_UP * law:.5f}")


def test_criterion_11_negative_control_bad_gain(tmp_path):
    s = load_scenario("heat_bad_gain.scn")
    run = run_scenario(s, out_dir=str(tmp_path))
    entry = run.entries[0]
    rep = entry.report
    w = rep.witness
    replay = iss_margin(heat(64), ISSCertificate(DecayEnvelope(1.0, PI2), linear(0.1)),
                        w.x0, w.input, w.t) if rep.violated else 0.0
    ok = rep.violated and w.margin < -0.4 and replay < -0.4
    record("C11", "bad-gain scenario refuted with replayable witness", ok,
           f"witness margin={w.margin:.4f}" if rep.violated else "no violation")
    assert rep.violated
    assert w.margin < -0.4
    assert replay == pytest.approx(w.margin, rel=1e-12)
    assert (tmp_path / entry.witness_file).exists()


def _equivalence_battery(gain: float, out_dir) -> dict:
    """ISS and its components ULS, ULIM and BRS (ISS <=> ULIM and ULS and
    BRS) in one run on heat(64): the verdict of each, by check name."""
    s = parse_scenario(f"certificate.beta = decay(1.0, {PI2!r})\n"
                       f"certificate.gamma = linear({gain!r})\n"
                       "checks.names = iss, uls, ulim, brs\n")
    return {e.name: e.report.violated for e in run_scenario(s, out_dir=str(out_dir)).entries}


def test_criterion_12_battery_and_bundled_runtime(tmp_path):
    t0 = time.perf_counter()
    true_gain = _equivalence_battery(1.0 / SQRT3, tmp_path / "battery")
    bad_gain = _equivalence_battery(0.1, tmp_path / "battery_bad_gain")
    battery_ok = (not any(true_gain.values()) and bad_gain["iss"]
                  and any(bad_gain[name] for name in ("uls", "ulim", "brs")))
    codes = {}
    for name in ("heat_iss.scn", "heat_bad_gain.scn", "diagonal_custom.scn",
                 "datko_vs_neginverse.scn"):
        run = run_scenario(load_scenario(name), out_dir=str(tmp_path / name[:-4]))
        codes[name] = 1 if run.any_violated else 0
    elapsed = time.perf_counter() - t0
    ok = (battery_ok and elapsed < 60.0 and codes["heat_bad_gain.scn"] == 1
          and sum(codes.values()) == 1)
    record("C12", "ULIM/ULS/BRS/ISS battery and bundled suite under 60s", ok,
           f"{elapsed:.1f}s, exit codes {codes}")
    assert battery_ok
    assert codes["heat_bad_gain.scn"] == 1
    assert codes["heat_iss.scn"] == 0
    assert codes["diagonal_custom.scn"] == 0
    assert codes["datko_vs_neginverse.scn"] == 0
    assert elapsed < 60.0
