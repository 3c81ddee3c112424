"""Tests for the scenario grammar, the runner, CSV outputs and the CLI."""

import csv
import importlib.util
import math
import subprocess
import sys
import warnings
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isslab import (SampleBudget, ScenarioError, ValidationError, Verdict,
                    build_system, main, parse_comparison, parse_scenario, run_scenario,
                    ISSCertificate, DecayEnvelope, linear)
from isslab import checkers
from isslab.checkers import iss_margin
from isslab.harness import (_CHECKS, _PARSERS, _UNREPLAYABLE, CHECK_NAMES, MAX_WORK, _resolve,
                            _work, bundled_scenario_path, load_scenario, read_witness,
                            serialize_scenario, simulate_scenario, write_witness)
from isslab.report import Witness
from isslab.system import InputSignal, SpectralSystem, kappa_bounds
from oracles import constant
from test_checkers import assert_same_report

MINIMAL = """
# minimal heat scenario
system.preset = heat_dirichlet
system.a = 1.0
system.n_modes = 64
checks.names = iss
"""

BUNDLED = ("heat_iss.scn", "heat_bad_gain.scn", "diagonal_custom.scn",
           "datko_vs_neginverse.scn")


# ---------------------------------------------------------------------------
# parsing


def test_minimal_scenario_defaults():
    s = parse_scenario(MINIMAL)
    assert s.preset == "heat_dirichlet"
    assert s.n_modes == 64
    assert s.checks == ("iss",)
    assert s.budget == SampleBudget()
    assert s.epsilon == 0.5


def test_unknown_key_rejected():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("system.wavelength = 3\n")
    assert "system.wavelength" in str(err.value)
    assert err.value.line == 1


def test_syntax_error_carries_line_and_column():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("system.preset = heat_dirichlet\nthis is not a pair\n")
    assert err.value.line == 2
    assert err.value.column is not None


def test_lambdas_must_increase():
    text = ("system.preset = diagonal\n"
            "system.lambdas = 2.0, 1.0\n"
            "system.b = 1.0, 1.0\n"
            "checks.names = iss\n")
    with pytest.raises(ScenarioError) as err:
        parse_scenario(text)
    assert "lambdas" in str(err.value)


def test_epsilon_outside_unit_interval():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(MINIMAL + "lyapunov.epsilon = 1.5\n")
    assert "epsilon must lie in (0,1)" in str(err.value)


def test_duplicate_key_rejected():
    with pytest.raises(ScenarioError):
        parse_scenario("system.a = 1.0\nsystem.a = 2.0\nchecks.names = iss\n")


def test_unknown_check_name_rejected():
    with pytest.raises(ScenarioError) as err:
        parse_scenario("checks.names = iss, levitation\n")
    assert "levitation" in str(err.value)


def test_a_check_listed_twice_is_refused(tmp_path, capsys):
    # as a duplicate key: exit 2, naming checks.names and its line, nothing run
    path = tmp_path / "twice.scn"
    path.write_text("system.a = 1.0\nchecks.names = iss, uls, iss\n", encoding="utf-8")
    assert main(["check", str(path), "--out", str(tmp_path / "out")]) == 2
    assert ("key 'checks.names': duplicate check 'iss' (line 2)"
            in capsys.readouterr().err)
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenarios_round_trip(name):
    s = load_scenario(name)
    assert parse_scenario(serialize_scenario(s)) == s


def test_round_trip_with_all_sections():
    s = load_scenario("heat_iss.scn")
    text = serialize_scenario(s)
    assert parse_scenario(text) == s
    # serialization is canonical: a second pass is identical
    assert serialize_scenario(parse_scenario(text)) == text


DIAGONAL = """
system.preset = diagonal
system.lambdas = 1.0, 4.0, 9.0
system.b = 1.0, -0.5, 0.25
checks.names = iss
"""


@pytest.mark.parametrize("text, foreign", [
    (DIAGONAL + "system.a = 2.0\nsystem.n_modes = 7\n", ("a", "n_modes")),
    (MINIMAL + "system.lambdas = 1.0, 2.0\nsystem.b = 0.5, 0.5\n", ("lambdas", "b")),
], ids=["diagonal_with_heat_keys", "heat_with_diagonal_keys"])
def test_other_preset_keys_round_trip(text, foreign):
    s = parse_scenario(text)
    assert parse_scenario(serialize_scenario(s)) == s
    # the other preset's keys fall back to their defaults; the digest is the
    # one of the scenario without them
    bare = parse_scenario("\n".join(line for line in text.splitlines()
                                    if line.split("=")[0].strip()
                                    not in {f"system.{f}" for f in foreign}))
    assert s == bare and s.digest() == bare.digest()


def test_missing_scenario_file():
    with pytest.raises(ScenarioError):
        load_scenario("no_such_scenario.scn")


@pytest.mark.parametrize("verb", ["check", "simulate", "replay"])
def test_missing_path_does_not_run_the_bundled_namesake(tmp_path, capsys, verb):
    # only a bare name falls back to the bundled set
    path = str(tmp_path / "no" / "such" / "heat_bad_gain.scn")
    argv = [verb, path] + ([str(tmp_path / "witness_iss.csv")] if verb == "replay" else
                           ["--out", str(tmp_path / "out")])
    assert main(argv) == 2
    assert f"scenario file not found: {path}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_label_is_an_unknown_key(tmp_path, capsys):
    path = tmp_path / "labelled.scn"
    path.write_text(MINIMAL + "system.label = x\n", encoding="utf-8")
    assert main(["check", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "unknown key 'system.label'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# running


@pytest.fixture(scope="module")
def heat_iss_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("heat_iss")
    s = load_scenario("heat_iss.scn")
    return s, run_scenario(s, out_dir=str(out)), out


def test_heat_iss_scenario_all_clean(heat_iss_run):
    s, run, _ = heat_iss_run
    assert [e.name for e in run.entries] == list(s.checks)
    assert not run.any_violated
    assert run.version.startswith("isslab ")
    for e in run.entries:
        assert e.report.verdict is Verdict.NO_VIOLATION_FOUND


def test_report_csv_shape(heat_iss_run):
    _, run, tmp_path = heat_iss_run
    with open(tmp_path / "report.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["check", "verdict", "worst_margin", "samples", "seconds"]
    assert len(rows) == 1 + len(run.entries)
    with open(tmp_path / "margins.csv") as fh:
        margin_rows = list(csv.reader(fh))
    assert margin_rows[0] == ["check", "sample_index", "t", "margin"]
    total_samples = sum(e.report.samples_checked for e in run.entries)
    assert len(margin_rows) == 1 + total_samples


def test_rerun_is_deterministic_modulo_timing(tmp_path):
    s = load_scenario("heat_iss.scn")
    run_scenario(s, out_dir=str(tmp_path / "a"))
    run_scenario(s, out_dir=str(tmp_path / "b"))

    def masked(path):
        with open(path) as fh:
            return [",".join(line.split(",")[:4]) for line in fh]

    assert masked(tmp_path / "a" / "report.csv") == masked(tmp_path / "b" / "report.csv")
    for name in ("margins.csv", "reports.txt"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_identity_and_cocycle_after_ulim_give_the_rows_of_the_default_order(tmp_path):
    # identity and cocycle read their direct flows off the sample set's anchor
    # table, which ULIM drops after its sweep: run after ULIM they rebuild it,
    # and their rows in report.csv (but seconds) and margins.csv are those of
    # heat_iss.scn's order, where they run first
    text = bundled_scenario_path("heat_iss.scn").read_text(encoding="utf-8")
    names = next(line for line in text.splitlines() if line.startswith("checks.names"))
    late, rows = text.replace(names, "checks.names = ulim, cocycle, identity"), {}
    for order, scenario in (("default", text), ("late", late)):
        run_scenario(parse_scenario(scenario), str(tmp_path / order))
        rows[order] = [sorted(line.rsplit(",", 1)[0] if name == "report.csv" else line
                              for line in (tmp_path / order / name).read_text().splitlines()
                              if line.startswith(("identity,", "cocycle,")))
                       for name in ("report.csv", "margins.csv")]
    assert len(rows["default"][1]) == 2 * 24 * 10
    assert rows["late"] == rows["default"]


def test_bad_gain_scenario_writes_replayable_witness(tmp_path):
    s = load_scenario("heat_bad_gain.scn")
    run = run_scenario(s, out_dir=str(tmp_path))
    assert run.any_violated
    entry = run.entries[0]
    assert entry.witness_file is not None
    assert (tmp_path / entry.witness_file).exists()
    w = entry.report.witness
    sys_ = build_system(s)
    cert = ISSCertificate(DecayEnvelope(1.0, 9.869604401089358), linear(0.1))
    assert iss_margin(sys_, cert, w.x0, w.input, w.t) < -0.4


def test_empty_checks_list(tmp_path):
    s = parse_scenario("system.preset = heat_dirichlet\nchecks.names =\n")
    run = run_scenario(s, out_dir=str(tmp_path))
    assert run.entries == ()
    assert not run.any_violated


def test_minimal_scenario_runs_with_default_certificates(tmp_path):
    # defaults: beta = decay(1, lambda_1), gamma = the aggregated per-mode
    # gain bound; both are sound for the heat preset, so iss passes
    s = parse_scenario(MINIMAL)
    run = run_scenario(s, out_dir=str(tmp_path))
    assert not run.any_violated


def test_output_trajectories_flag(tmp_path):
    s = parse_scenario(MINIMAL + "output.trajectories = true\n"
                       "budget.n_states = 2\nbudget.n_inputs = 2\n")
    run_scenario(s, out_dir=str(tmp_path))
    assert (tmp_path / "traj_s00_u00.csv").exists()
    assert (tmp_path / "traj_s01_u01.csv").exists()


NUMERIC_KEYS = {
    "system.a": "1.0", "system.n_modes": "4", "system.lambdas": "1.0, 2.0",
    "system.b": "1.0, -1.0", "lyapunov.epsilon": "0.5", "checks.ulim_eps": "0.1",
    "checks.cep_h": "1.0",
    "budget.n_states": "2", "budget.n_inputs": "2", "budget.n_times": "5",
    "budget.horizon": "6.0", "budget.radius": "1.0", "budget.seed": "3",
}


def _diagonal_text(checks="iss, ulim, brs, cep", **override):
    pairs = {**NUMERIC_KEYS, **override}
    return (f"system.preset = diagonal\nchecks.names = {checks}\n"
            + "".join(f"{k} = {v}\n" for k, v in pairs.items()))


def test_numeric_keys_scenario_runs(tmp_path):
    path = tmp_path / "ok.scn"
    path.write_text(_diagonal_text())
    assert main(["check", str(path), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("key", sorted(NUMERIC_KEYS))
def test_non_finite_number_is_config_error(tmp_path, capsys, key, bad):
    value = "1.0, " + bad if key in ("system.lambdas", "system.b") else bad
    path = tmp_path / "bad.scn"
    path.write_text(_diagonal_text(**{key: value}))
    assert main(["check", str(path), "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err


#: Ranges of valid values for the float keys of the diagonal scenario.
FLOAT_RANGES = {
    "system.a": (0.1, 10.0), "lyapunov.epsilon": (0.05, 0.95),
    "checks.ulim_eps": (1e-3, 10.0), "checks.cep_h": (0.01, 5.0),
    "budget.horizon": (0.01, 5.0), "budget.radius": (0.01, 10.0),
}


@st.composite
def numeric_overrides(draw):
    """Valid values for every float key and a random 1-3 mode spectrum, or
    those with one numeric key replaced by nan or +-inf (returned as bad)."""
    values = {k: repr(draw(st.floats(lo, hi))) for k, (lo, hi) in FLOAT_RANGES.items()}
    n = draw(st.integers(1, 3))
    lam = draw(st.lists(st.floats(0.01, 100.0), min_size=n, max_size=n, unique=True))
    b = draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n))
    values["system.lambdas"] = ", ".join(repr(v) for v in sorted(lam))
    values["system.b"] = ", ".join(repr(v) for v in b)
    bad = draw(st.one_of(st.none(), st.tuples(st.sampled_from(sorted(NUMERIC_KEYS)),
                                               st.sampled_from(["nan", "inf", "-inf"]))))
    if bad is not None:
        key, word = bad
        values[key] = "1.0, " + word if key in ("system.lambdas", "system.b") else word
    return values, bad is not None


@settings(max_examples=20, deadline=None, derandomize=True)
@given(case=numeric_overrides())
def test_finite_numbers_run_and_non_finite_exit_2(tmp_path_factory, case):
    values, bad = case
    tmp = tmp_path_factory.mktemp("property")
    path = tmp / "s.scn"
    path.write_text(_diagonal_text(", ".join(CHECK_NAMES), **values))
    code = main(["check", str(path), "--out", str(tmp / "out")])
    assert code == 2 if bad else code in (0, 1)


@pytest.mark.parametrize("key", ["budget.radius", "budget.horizon"])
def test_brs_parameters_validated(tmp_path, capsys, key):
    # brs's C and tau are the budget's radius and horizon, which SampleBudget refuses
    # where they are not positive
    path = tmp_path / "brs.scn"
    path.write_text(MINIMAL.replace("checks.names = iss", "checks.names = brs")
                    + f"{key} = 0.0\n")
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(path))
    assert "horizon and radius must be positive and finite" in str(err.value)
    assert main(["check", str(path), "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("radius, horizon", [(1.0, 2.0), (0.25, 0.5)])
def test_brs_runs_on_the_budget_ball(tmp_path, radius, horizon):
    # the bound is C (1 + kappa(tau)) at C = budget.radius and tau = budget.horizon
    s = parse_scenario(MINIMAL.replace("checks.names = iss", "checks.names = iss, brs")
                       + f"budget.radius = {radius!r}\nbudget.horizon = {horizon!r}\n")
    brs = run_scenario(s, str(tmp_path)).entries[1].report
    bound = radius * (1.0 + kappa_bounds(_resolve(s).sys, horizon).upper)
    assert brs.notes.endswith(f" bound={bound!r}")
    assert brs.verdict is Verdict.NO_VIOLATION_FOUND


@pytest.mark.parametrize("key", ["checks.brs_c", "checks.brs_tau"])
def test_brs_ball_keys_are_unknown(tmp_path, capsys, key):
    # brs runs on the budget's ball, (budget.radius, budget.horizon); no key restates it
    path = tmp_path / "brs.scn"
    path.write_text(MINIMAL + f"{key} = 1.0\n")
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(path))
    assert err.value.key == key
    assert main(["check", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"unknown key {key!r}" in capsys.readouterr().err


def test_diagonal_scenario_clean(tmp_path):
    s = load_scenario("diagonal_custom.scn")
    run = run_scenario(s, out_dir=str(tmp_path))
    assert not run.any_violated


def test_datko_scenario_clean(tmp_path):
    s = load_scenario("datko_vs_neginverse.scn")
    run = run_scenario(s, out_dir=str(tmp_path))
    assert not run.any_violated


def test_simulate_writes_trajectories(tmp_path):
    s = load_scenario("heat_iss.scn")
    written = simulate_scenario(s, out_dir=str(tmp_path))
    assert written
    for name in written:
        assert (tmp_path / name).exists()
    with open(tmp_path / written[0]) as fh:
        header = fh.readline().strip().split(",")
    assert header[:2] == ["t", "norm"]
    assert len(header) == 2 + s.n_modes


# ---------------------------------------------------------------------------
# CLI


def test_cli_check_exit_codes(tmp_path):
    assert main(["check", "heat_iss.scn", "--out", str(tmp_path / "ok")]) == 0
    assert main(["check", "heat_bad_gain.scn", "--out", str(tmp_path / "bad")]) == 1


def test_cli_missing_scenario_is_config_error(tmp_path, capsys):
    assert main(["check", "definitely_missing.scn", "--out", str(tmp_path)]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("kind", ["not_utf8", "directory"])
def test_cli_unreadable_scenario_is_config_error(tmp_path, capsys, kind):
    path = tmp_path / "unreadable.scn"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\n")
    assert main(["check", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "cannot read the scenario file" in capsys.readouterr().err


def test_cli_bad_scenario_is_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.scn"
    bad.write_text("system.preset = perpetuum_mobile\nchecks.names = iss\n")
    assert main(["check", str(bad)]) == 2


def test_cli_io_error(tmp_path, capsys):
    blocking = tmp_path / "blocked"
    blocking.write_text("a file, not a directory")
    code = main(["check", "heat_iss.scn", "--out", str(blocking / "sub")])
    assert code == 3


def test_cli_seed_override_changes_digest_not_determinism(tmp_path):
    a1 = main(["check", "heat_bad_gain.scn", "--seed", "7",
               "--out", str(tmp_path / "s7")])
    a2 = main(["check", "heat_bad_gain.scn", "--seed", "7",
               "--out", str(tmp_path / "s7b")])
    assert a1 == a2 == 1
    m1 = open(tmp_path / "s7" / "margins.csv").read()
    m2 = open(tmp_path / "s7b" / "margins.csv").read()
    assert m1 == m2


def test_cli_modes_override(tmp_path):
    code = main(["simulate", "heat_iss.scn", "--modes", "8",
                 "--out", str(tmp_path)])
    assert code == 0
    with open(tmp_path / "traj_s00_u00.csv") as fh:
        header = fh.readline().strip().split(",")
    assert len(header) == 2 + 8


def test_cli_modes_keeps_the_leading_modes_of_an_explicit_spectrum(tmp_path, capsys):
    assert main(["check", "diagonal_custom.scn", "--modes", "2",
                 "--out", str(tmp_path / "cut")]) == 0
    text = bundled_scenario_path("diagonal_custom.scn").read_text(encoding="utf-8")
    text = text.replace("system.lambdas = 1.0, 3.0, 9.0, 27.0", "system.lambdas = 1.0, 3.0")
    text = text.replace("system.b = 1.0, -1.0, 0.5, 2.0", "system.b = 1.0, -1.0")
    path = tmp_path / "two_modes.scn"
    path.write_text(text)
    assert main(["check", str(path), "--out", str(tmp_path / "written")]) == 0
    for name in ("margins.csv", "reports.txt"):
        assert (tmp_path / "cut" / name).read_text() == (tmp_path / "written" / name).read_text()
    capsys.readouterr()
    assert main(["check", "diagonal_custom.scn", "--modes", "5",
                 "--out", str(tmp_path / "five")]) == 2
    assert "exceeds the 4 modes" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["check", "simulate"])
@pytest.mark.parametrize("scenario, modes", [("heat_iss.scn", "0"),
                                             ("diagonal_custom.scn", "0"),
                                             ("diagonal_custom.scn", "-2")])
def test_cli_modes_below_one_is_config_error(tmp_path, capsys, verb, scenario, modes):
    assert main([verb, scenario, "--modes", modes, "--out", str(tmp_path)]) == 2
    assert "--modes" in capsys.readouterr().err


def test_cli_entry_point_runs(tmp_path):
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-m", "isslab",
                           "check", "heat_bad_gain.scn", "--out", str(tmp_path / "cli")],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert "violated" in proc.stdout


def test_checkers_simpson_is_scipys_on_lookup():
    from scipy.integrate import simpson
    assert checkers.simpson is simpson
    with pytest.raises(AttributeError):
        checkers.no_such_name


HEAT_A_1E300 = MINIMAL.replace("system.a = 1.0", "system.a = 1e300")
HEAT_A_1E305 = MINIMAL.replace("system.a = 1.0", "system.a = 1e305")
DIAGONAL_HUGE_GAIN = ("system.preset = diagonal\nsystem.lambdas = 1e4\n"
                      "system.b = 1e308\nchecks.names = iss\n")
DIAGONAL_TINY_LAMBDA = ("system.preset = diagonal\nsystem.lambdas = 1e-308\n"
                        "system.b = 1.0\nchecks.names = iss\n")


def test_huge_gain_is_finite_and_its_overflow_is_named(tmp_path, capsys):
    # |A^-1 B| = 1e304 squares past the float range but is finite: the norm
    # is scaled and raises no warning, and c(eps), which squares it, is what
    # overflows; the error must say so and not call |A^-1 B| non-finite
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert SpectralSystem(np.array([1e4]), np.array([1e308])).input_gain_norm == 1e308 / 1e4
        two = SpectralSystem(np.array([1e4, 2e4]), np.array([1e308, -1e308])).input_gain_norm
        assert two == pytest.approx(np.hypot(1e304, 5e303), rel=1e-15)
        path = tmp_path / "huge_gain.scn"
        path.write_text(DIAGONAL_HUGE_GAIN)
        assert main(["check", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "c(eps) overflows" in err and "finite" not in err and "c_eps" not in err


@pytest.mark.parametrize("text, warning", [(HEAT_A_1E305, "lambdas and b_coeffs must be finite"),
                                           (DIAGONAL_TINY_LAMBDA, r"c\(eps\) overflows")],
                         ids=["heat_a_1e305", "diagonal_lambda_1e-308"])
def test_overflow_while_building_is_config_error(tmp_path, capsys, text, warning):
    # one message under every warning filter: heat_dirichlet forms lambda_k =
    # a pi**2 k**2 = inf unwarned, and the system refuses it
    path = tmp_path / "overflow.scn"
    path.write_text(text)
    for action in ("error", "ignore"):
        with warnings.catch_warnings():
            warnings.simplefilter(action, RuntimeWarning)
            with pytest.raises(ScenarioError, match=warning):
                parse_scenario(text)
            assert main(["check", str(path), "--out", str(tmp_path / "out")]) == 2
        assert "configuration error" in capsys.readouterr().err


def test_heat_a_1e300_builds_and_runs(tmp_path):
    # lambda_64 = 4e304, |A^-1 B| and kappa are finite (kappa squares no
    # b_k), so the run is clean and raises no warning
    path = tmp_path / "a1e300.scn"
    path.write_text(HEAT_A_1E300)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["check", str(path), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("construction", ["neg_inverse_A", "datko"])
@pytest.mark.parametrize("a", ["100.0", "1e10", "1e-10", "1e300"])
def test_dissipation_is_clean_at_every_diffusivity(tmp_path, a, construction):
    # Vdot is exact, so the certificate holds whatever the scale; largest
    # difference quotients at h = 1e-6..1e-8 reported violations here, from
    # their O(lambda_N h) error (a >= 100) or from cancellation in V (1e-10)
    path = tmp_path / "a.scn"
    path.write_text(MINIMAL.replace("system.a = 1.0", f"system.a = {a}").replace(
        "checks.names = iss",
        f"checks.names = dissipation\nlyapunov.construction = {construction}"))
    for warn in ("error", "ignore"):
        with warnings.catch_warnings():
            warnings.simplefilter(warn, RuntimeWarning)
            assert main(["check", str(path), "--out", str(tmp_path / warn)]) == 0


@pytest.mark.parametrize("key", ["certificate.psi", "certificate.sigma"])
def test_bounded_certificate_is_config_error(tmp_path, capsys, key):
    path = tmp_path / "bounded.scn"
    path.write_text(MINIMAL + f"{key} = saturation(1.0, 1.0)\n")
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(path))
    assert err.value.key == key
    assert main(["check", str(path), "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err


#: Malformed function tokens and the key each is given to.
MALFORMED_TOKENS = {
    "unclosed": ("certificate.gamma", "linear(1.0"),
    "null_byte": ("certificate.gamma", "linear(1.0\x00)"),
    "bare_name": ("certificate.gamma", "linear"),
    "attribute_call": ("certificate.gamma", "os.system(1)"),
    "keyword": ("certificate.gamma", "linear(c=1.0)"),
    "unknown_form": ("certificate.gamma", "wavelet(1.0)"),
    "arity": ("certificate.gamma", "power(1, 2, 3)"),
    "numbers_in_compose": ("certificate.gamma", "compose(1.0, 2.0)"),
    "token_as_number": ("certificate.gamma", "linear(power(1, 2))"),
    "name_as_number": ("certificate.gamma", "linear(x)"),
    "true": ("certificate.gamma", "True"),
    "complex": ("certificate.gamma", "1j"),
    "hex": ("certificate.gamma", "0x10"),
    "hex_argument": ("certificate.gamma", "linear(0x10)"),
    "leading_blank_argument": ("certificate.gamma", "linear(,1.0)"),
    "double_comma": ("certificate.gamma", "linear(1.0,,)"),
    # the parser refuses more than 200 nested parentheses, and an expression
    # too deep for it without them
    "compose_1200_deep": ("certificate.gamma",
                          "compose(" * 1200 + "linear(1.0)" + ", linear(1.0))" * 1200),
    "compose_201_parentheses": ("certificate.gamma",
                                "compose(" * 200 + "linear(1.0)" + ", linear(1.0))" * 200),
    "unary_100000_deep": ("certificate.gamma", "linear(" + "-" * 100000 + "1.0)"),
    "sum_of_100000": ("certificate.gamma", "linear(" + "+".join(["1"] * 100000) + ")"),
    "decay_arity": ("certificate.beta", "decay(1.0)"),
    "decay_keywords": ("certificate.beta", "decay(M=1.0, omega=1.0)"),
    "decay_name_as_number": ("certificate.beta", "decay(1.0, x)"),
    "decay_unclosed": ("certificate.beta", "decay(1.0, 1.0"),
    "decay_infinite": ("certificate.beta", "decay(inf, 1.0)"),
    "decay_hex": ("certificate.beta", "decay(0x1, 1.0)"),
    "gain_as_decay": ("certificate.beta", "linear(1.0)"),
}


@pytest.mark.parametrize("key, token", MALFORMED_TOKENS.values(), ids=MALFORMED_TOKENS.keys())
def test_malformed_token_is_config_error(tmp_path, capsys, key, token):
    with pytest.raises(ValidationError):
        _PARSERS[key][1](token)
    path = tmp_path / "bad.scn"
    path.write_text(MINIMAL + f"{key} = {token}\n", encoding="utf-8")
    assert main(["check", str(path), "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err


def test_200_nested_parentheses_read():
    token = "compose(" * 199 + "linear(1.0)" + ", linear(1.0))" * 199
    assert parse_comparison(token).describe() == token


@pytest.mark.parametrize("text", [
    # c(eps) overflows to inf, so the default sigma = power(c(eps), 2) is refused
    MINIMAL + "lyapunov.epsilon = 1e-320\n",
    # p_1 = 1 / lambda_1 overflows to inf
    "system.preset = diagonal\nsystem.lambdas = 5e-324\nsystem.b = 0.0\n"
    "checks.names = iss\n",
    # rules the harness used to restate
    MINIMAL.replace("system.a = 1.0", "system.a = -1.0"),
    MINIMAL.replace("system.n_modes = 64", "system.n_modes = 0"),
    DIAGONAL.replace("system.b = 1.0, -0.5, 0.25", "system.b = 1.0, -0.5"),
    MINIMAL + "certificate.gamma = saturation(1.0, 1.0)\ncertificate.derive = from_iss\n",
], ids=["epsilon_1e-320", "lambda_5e-324", "negative_a", "no_modes", "unequal_lengths",
        "bounded_gamma_from_iss"])
def test_constructor_rules_are_config_errors(tmp_path, capsys, text):
    with pytest.raises(ScenarioError):
        parse_scenario(text)
    path = tmp_path / "bad.scn"
    path.write_text(text)
    assert main(["check", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("key, token", [("alpha", "power(1e6, 2.0)"), ("psi", "power(2.0, 2.0)"),
                                        ("sigma", "power(0.01, 2.0)")])
def test_derive_from_iss_refuses_a_piece_it_derives(tmp_path, capsys, key, token):
    # derive = from_iss makes alpha, psi and sigma; one set beside it would go unread
    text = MINIMAL.replace("checks.names = iss", "checks.names = norm_to_integral")
    derived = parse_scenario(text + "certificate.derive = from_iss\n")
    with pytest.raises(ValidationError, match=f"certificate.{key} "):
        run_scenario(replace(derived, **{key: parse_comparison(token)}), str(tmp_path / "hand"))
    path = tmp_path / "both.scn"
    path.write_text(serialize_scenario(derived) + f"certificate.{key} = {token}\n")
    assert main(["check", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"certificate.{key} " in capsys.readouterr().err


@pytest.mark.parametrize("derive", ["none", "from_iss"])
def test_tiny_horizon_integral_checks_run(tmp_path, derive):
    # alpha = 0.5 r**2 (closed form) and, derived, 0.5 r (Simpson fallback):
    # grid spacings near 1e-303 once made the Simpson weights nan (exit 3)
    text = load_scenario("diagonal_custom.scn")
    text = replace(text, derive=derive, checks=("norm_to_integral", "integral_to_integral"),
                   budget=replace(text.budget, horizon=1e-300))
    path = tmp_path / "tiny.scn"
    path.write_text(serialize_scenario(text))
    assert main(["check", str(path), "--out", str(tmp_path / "out")]) in (0, 1)


def _bench_workloads() -> dict:
    spec = importlib.util.spec_from_file_location(
        "bench_workloads", Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
    workloads = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    spec.loader.exec_module(workloads)
    return workloads.WORKLOADS


def _bench_scenario_texts():
    return [text for w in _bench_workloads().values() for seed in (0, 1, 11, 29)
            for text in w.scenario_texts(seed, "full")]


def test_budget_work_cap_admits_every_bundled_and_benchmark_scenario():
    scenarios = [load_scenario(name) for name in BUNDLED]
    scenarios += [parse_scenario(text) for text in _bench_scenario_texts()]
    # the largest, refute_heat256: 120 pairs x (256 + 20) x (33 + 513)
    assert max(_work(s) for s in scenarios) == 120 * 276 * 546 <= MAX_WORK


def test_budget_work_cap_is_config_error(tmp_path, capsys):
    # 2 modes, 1 pair: (2 + 20) x (n_times + 513) flow entries, so the cap
    # admits n_times up to MAX_WORK // 22 - 513 and no more
    base = _diagonal_text(**{"budget.n_states": "1", "budget.n_inputs": "1"})
    limit = MAX_WORK // 22 - 513
    at_cap = parse_scenario(base.replace("budget.n_times = 5", f"budget.n_times = {limit}"))
    assert _work(at_cap) <= MAX_WORK < _work(replace(
        at_cap, budget=replace(at_cap.budget, n_times=limit + 1)))
    with pytest.raises(ScenarioError, match="cap"):
        parse_scenario(base.replace("budget.n_times = 5", f"budget.n_times = {limit + 1}"))
    # the reported case: n_times = 1e8 on the bundled 2-mode-wide diagonal scenario
    path = tmp_path / "huge.scn"
    path.write_text(bundled_scenario_path("diagonal_custom.scn").read_text().replace(
        "budget.n_times = 33", "budget.n_times = 100000000"))
    assert main(["check", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "cap" in capsys.readouterr().err
    # --modes can raise the work of a heat scenario past the cap
    assert main(["check", "heat_iss.scn", "--modes", "100000",
                 "--out", str(tmp_path / "modes")]) == 2


def _heat_iss_with(key, value, checks=None):
    text = bundled_scenario_path("heat_iss.scn").read_text()
    if checks is not None:
        text = "".join(f"checks.names = {checks}\n" if line.startswith("checks.names =")
                       else line for line in text.splitlines(keepends=True))
    return text.replace("budget.radius = 1.0\n", "") + f"{key} = {value}\n"


@pytest.mark.parametrize("key, checks", [pytest.param("budget.radius", None, id="budget.radius"),
                                         pytest.param("budget.radius", "brs",
                                                      id="budget.radius-brs")])
def test_huge_radius_is_config_error(tmp_path, capsys, key, checks):
    # at 1e200 the squares of the flow norms overflow; unchecked, the run
    # exits 3 with a nan margin; brs alone, on the budget's ball, is refused too
    path = tmp_path / "huge.scn"
    path.write_text(_heat_iss_with(key, "1e200", checks))
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(path))
    assert err.value.key == key
    assert main(["check", str(path), "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("key, code, violated, checks", [
    pytest.param("budget.radius", 1, ["ULIM"], None, id="budget.radius-1-violated0"),
    pytest.param("budget.radius", 0, [], "brs", id="budget.radius-0-brs")])
def test_large_finite_radius_still_runs(tmp_path, key, code, violated, checks):
    # below the bound: the run goes ahead, and at this radius the finite
    # horizon refutes ULIM; brs alone holds on that ball
    path = tmp_path / "large.scn"
    path.write_text(_heat_iss_with(key, "1e100", checks))
    assert main(["check", str(path), "--out", str(tmp_path / "out")]) == code
    lines = (tmp_path / "out" / "reports.txt").read_text().splitlines()
    assert len(lines) == len(load_scenario(str(path)).checks)
    assert [line.split(",")[0] for line in lines if ",violated," in line] == violated


def test_radius_bound_is_checked_after_modes(tmp_path):
    # |A^-1 B| of the heat preset grows with the modes: 0.450 at one mode,
    # 0.575 at 64, so r = 2**400 / 1.5 passes at one mode only
    path = tmp_path / "one_mode.scn"
    path.write_text(MINIMAL.replace("system.n_modes = 64", "system.n_modes = 1")
                    + f"budget.radius = {2.0 ** 400 / 1.5!r}\n")
    load_scenario(str(path))
    assert main(["check", str(path), "--modes", "64", "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("key", ["budget.horizon", "budget.radius"])
def test_subnormal_budget_is_config_error(tmp_path, capsys, key):
    # a horizon of 5e-324 halves to identity's t_mid = 0, and at a radius of
    # 5e-324 the states drawn round to 0: both once exited 3
    path = tmp_path / "subnormal.scn"
    path.write_text(f"checks.names = identity, cep\n{key} = 5e-324\n")
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(path))
    assert err.value.key == key
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["check", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"configuration error: {key} = 5e-324 is too small" in capsys.readouterr().err


def test_cep_delta_that_rounds_to_zero_is_config_error(tmp_path, capsys):
    # gain 1e30 at radius 1e-300: delta_3 = eps_3 / (1 + kappa(h)), about 2e-331,
    # rounds to 0, and u = delta_0 still drives |phi| to about 3e-271
    text = ("system.preset = diagonal\nsystem.lambdas = 1, 2\nsystem.b = 1e30, 1\n"
            "budget.radius = 1e-300\nchecks.names = {}\n")
    parse_scenario(text.format("iss"))   # without cep the radius is valid
    path = tmp_path / "cep.scn"
    path.write_text(text.format("cep, iss"))
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(path))
    assert err.value.key == "budget.radius"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["check", str(path), "--out", str(tmp_path / "out")]) == 2
    assert ("configuration error: budget.radius = 1e-300 is too small for cep"
            in capsys.readouterr().err)


@pytest.mark.parametrize("key", ["budget.horizon", "budget.radius"])
def test_every_check_runs_at_the_budget_floor(tmp_path, key):
    path = tmp_path / "floor.scn"
    path.write_text(f"checks.names = {', '.join(CHECK_NAMES)}\nbudget.n_states = 6\n"
                    f"budget.n_inputs = 4\n{key} = {2.0 ** -1022!r}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        # at the tiny horizon the trajectories cannot decay, which refutes ULIM
        assert main(["check", str(path), "--out", str(tmp_path / "out")]) == (
            1 if key == "budget.horizon" else 0)


def test_cep_runs_at_its_radius_floor(tmp_path):
    # with gain 1 + kappa(1) of about 6e29, cep's smallest delta, r 2**-3 / (1 +
    # kappa(1)), is the smallest subnormal 2**-1074 at r = (1 + kappa(1)) 2**-1071,
    # far above 2**-1022, and rounds to 0 below it
    text = ("system.preset = diagonal\nsystem.lambdas = 1, 2\nsystem.b = 1e30, 1\n"
            "checks.names = cep\n")
    floor = (1.0 + kappa_bounds(_resolve(parse_scenario(text)).sys, 1.0).upper) * 2.0 ** -1071
    path = tmp_path / "floor.scn"
    path.write_text(f"{text}budget.radius = {floor!r}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["check", str(path), "--out", str(tmp_path / "out")]) == 0
    assert run_scenario(load_scenario(str(path)), str(tmp_path / "out")).entries[
        0].report.notes.endswith(f"->delta={2.0 ** -1074!r}")
    path.write_text(f"{text}budget.radius = {math.nextafter(floor, 0.0)!r}\n")
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(path))
    assert err.value.key == "budget.radius"


def test_identity_runs_at_a_horizon_beyond_2_to_the_54(tmp_path):
    # t_mid + 1.0 == t_mid at t_mid = 5e16, so a causality tail of length 1.0
    # vanished ("breakpoints must be strictly increasing", exit 3)
    path = tmp_path / "long.scn"
    path.write_text("checks.names = identity\nbudget.horizon = 1e17\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert main(["check", str(path), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("checks", ["identity, cocycle", "iss", "brs",
                                    "norm_to_integral, integral_to_integral"])
def test_decay_past_the_overflow_runs_under_warnings_as_errors(tmp_path, checks):
    # lambda_N * horizon overflows; every decay there is exactly 0.0, and the
    # flows, kappa_bounds and the closed-form integrals clip their times
    # before the product, which exited 3 under the flag ("overflow
    # encountered in multiply")
    path = tmp_path / "huge.scn"
    path.write_text(f"checks.names = {checks}\nbudget.horizon = 1e304\n")
    margins = {}
    for warn in ("error", "ignore"):
        with warnings.catch_warnings():
            warnings.simplefilter(warn, RuntimeWarning)
            assert main(["check", str(path), "--out", str(tmp_path / warn)]) == 0
        margins[warn] = (tmp_path / warn / "margins.csv").read_bytes()
    assert margins["error"] == margins["ignore"]


# ---------------------------------------------------------------------------
# one draw and one sweep per run


def _tiny_workload(name: str):
    return parse_scenario(_bench_workloads()[name].scenario_texts(0, "tiny")[0])


@pytest.mark.parametrize("case", [*BUNDLED, "pointwise_heat64", "integral_heat64",
                                  "refute_heat256"])
def test_shared_samples_give_the_standalone_reports(tmp_path, case):
    s = load_scenario(case) if case in BUNDLED else _tiny_workload(case)
    run = run_scenario(s, str(tmp_path))
    resolved = _resolve(s)
    assert [e.name for e in run.entries] == list(s.checks)
    for e in run.entries:
        # outside run_scenario the check draws and sweeps its own samples
        assert_same_report(e.report, _CHECKS[e.name](s, resolved))


@pytest.mark.parametrize("name", ["pointwise_heat64", "refute_heat256", "integral_heat64"])
def test_each_sample_is_drawn_once_per_run(tmp_path, monkeypatch, name):
    # per kernel call its table and grids; per stepping its inputs, ends and table
    swept, stepped = [], []

    def counted_sweep(sys_, table, which, times):
        swept.append((table, [times[which == j] for j in range(len(table[1]))]))
        return flow_norms(sys_, table, which, times)

    def counted_steps(sys_, x0s, inputs, ends):
        table = anchor_table(sys_, x0s, inputs, ends)
        stepped.append((inputs[0], np.asarray(ends), table))   # a row of breakpoints per input
        return table
    squared = []   # per closed-form integral call its table

    def counted_squares(sys_, table, times):
        squared.append(table)
        return square_integrals(sys_, table, times)
    built = []   # per sample set its budget

    def counted_samples(sys_, states, inputs, budget):
        built.append(budget)
        return samples(sys_, states, inputs, budget)
    flow_norms, anchor_table = checkers._flow_norms, checkers._anchor_table
    square_integrals, samples = checkers._square_integrals, checkers._Samples
    s = _tiny_workload(name)
    b = s.budget
    probes = [np.union1d(checkers.eval_times(b), u.breakpoints[u.breakpoints < b.horizon])
              for u in (checkers.draw_input(b, j) for j in range(b.n_inputs))]
    opened = _count_streams(monkeypatch)
    monkeypatch.setattr(checkers, "_flow_norms", counted_sweep)
    monkeypatch.setattr(checkers, "_anchor_table", counted_steps)
    monkeypatch.setattr(checkers, "_square_integrals", counted_squares)
    monkeypatch.setattr(checkers, "_Samples", counted_samples)
    run_scenario(s, str(tmp_path))
    # one sample set, s.budget's, which brs shares with iss where both run
    assert built == [b]
    # every check shares s.budget, and cep draws nothing: each random stream
    # is read once, the states' (seed, 11, i) past the three corners, the
    # inputs' (seed, 22, j) past the zero and the constant input, and
    # cocycle's per pair (seed, 33, p)
    assert opened == _streams(s)
    # the one sample set's anchor states are stepped once, over all its inputs
    assert len(stepped) == 1 and len(stepped[0][0]) == b.n_inputs
    # the closed-form integrals of every input in one call, which both
    # integral checks read; they sweep no flow
    integral = "norm_to_integral" in s.checks
    assert [len(table[1]) for table in squared] == [b.n_inputs] * integral
    if integral:
        assert swept == []
    else:
        # one node call on the probes, which iss, uls, ulim and brs read, and one
        # refinement call over every input on ULIM points off them, both on the
        # one anchor table
        (table, nodes), (again, refined) = swept
        assert again is table
        assert len(nodes) == b.n_inputs and all(map(np.array_equal, nodes, probes))
        ulim_grid = checkers.ulim_grid(b)
        assert len(refined) == b.n_inputs and all(
            np.isin(g, ulim_grid).all() and not np.isin(g, p).any()
            for g, p in zip(refined, nodes))
    # nothing is kept between runs: the next run draws and steps every sample again
    run_scenario(s, str(tmp_path))
    assert set(opened.values()) == {2} and len(stepped) == 2 and built == [b, b]
    assert checkers._RUN.get() is None


def _count_streams(monkeypatch):
    """A counter of the random streams a run reads, by (seed, kind, index): the
    states' opened at ``checkers.seeded_rng``, the inputs' and cocycle's read as
    rows of ``checkers._stream_words``; no other kind opens a Generator."""
    opened, seeded_rng, stream_words = Counter(), checkers.seeded_rng, checkers._stream_words

    def counted_rng(seed, *key):
        assert key[0] == 11
        opened[(seed, *key)] += 1
        return seeded_rng(seed, *key)

    def counted_words(seed, kind, index, n):
        opened.update((seed, kind, i) for i in np.asarray(index).tolist())
        return stream_words(seed, kind, index, n)
    monkeypatch.setattr(checkers, "seeded_rng", counted_rng)
    monkeypatch.setattr(checkers, "_stream_words", counted_words)
    return opened


def _streams(s):
    """Each random stream a run of ``s`` reads, opened once."""
    b = s.budget
    return Counter([*((b.seed, 11, i) for i in range(3, b.n_states)),
                    *((b.seed, 22, j) for j in range(2, b.n_inputs)),
                    *((b.seed, 33, p) for p in range(b.n_pairs) if "cocycle" in s.checks)])


@pytest.mark.parametrize("radius", [0.3, 1e-125])
def test_every_budget_of_a_run_reads_each_stream_once(tmp_path, monkeypatch, radius):
    # all seven pointwise checks: brs reads the budget's set, which the first
    # draw made, and cep draws no set, at 0.3 as at 1e-125
    s = parse_scenario(f"budget.radius = {radius!r}\nbudget.n_states = 9\n"
                       "budget.n_inputs = 6\nchecks.cep_h = 0.7\n"
                       "checks.names = identity, cocycle, iss, uls, ulim, brs, cep\n")
    opened, budgets = _count_streams(monkeypatch), []

    def counted_samples(sys_, states, inputs, budget):
        budgets.append(budget)
        return samples(sys_, states, inputs, budget)
    samples = checkers._Samples
    monkeypatch.setattr(checkers, "_Samples", counted_samples)
    run = run_scenario(s, str(tmp_path))
    assert opened == _streams(s)
    # one sample set, the budget's
    assert budgets == [s.budget]
    # and the reports are those of each check run alone, which draws its own
    resolved = _resolve(s)
    for e in run.entries:
        assert_same_report(e.report, _CHECKS[e.name](s, resolved))


# ---------------------------------------------------------------------------
# witness records and replay


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


def _input_bits(u):
    return _bits(u.breakpoints), _bits(u.values)


def _assert_same_witness(a: Witness, b: Witness):
    assert _bits(a.x0) == _bits(b.x0)
    assert _bits(a.input.breakpoints) == _bits(b.input.breakpoints)
    assert _bits(a.input.values) == _bits(b.input.values)
    assert _bits([a.t, a.margin]) == _bits([b.t, b.margin])


def test_witness_record_round_trips_exactly(tmp_path):
    x0 = np.array([-0.0, 5e-324, 1e308, 0.1, -1.0 / 3.0, 2.2250738585072014e-308])
    u = InputSignal.piecewise([0.0, 1.0 / 3.0, 0.7], [-0.0, -1e-310])
    w = Witness(x0=x0, input=u, t=1.0 / 7.0, margin=-0.47462305300701213)
    path = tmp_path / "witness_iss.csv"
    write_witness(path, "iss", "0123456789abcdef", w)
    check, digest, back = read_witness(path)
    assert (check, digest) == ("iss", "0123456789abcdef")
    _assert_same_witness(back, w)
    assert path.read_text().splitlines()[4].startswith("x0,-0,4.9406564584124654e-324,")


def test_witness_record_of_the_zero_input_has_an_empty_values_line(tmp_path):
    w = Witness(x0=np.zeros(3), input=InputSignal.zero(), t=0.0, margin=-1.0)
    path = tmp_path / "witness_uls.csv"
    write_witness(path, "uls", "d", w)
    assert path.read_text().splitlines() == [
        "check,uls", "scenario_digest,d", "t,0", "margin,-1", "x0,0,0,0",
        "breakpoints,0", "values"]
    _assert_same_witness(read_witness(path)[2], w)


finite = st.floats(allow_nan=False, allow_infinity=False)


@settings(max_examples=50, deadline=None)
@given(x0=st.lists(finite, min_size=1, max_size=6), values=st.lists(finite, max_size=4),
       t=st.floats(min_value=0.0, max_value=1e6), margin=finite)
def test_witness_record_round_trips_every_double(tmp_path_factory, x0, values, t, margin):
    u = InputSignal.piecewise(np.arange(len(values) + 1) / 3.0, values)
    w = Witness(x0=np.array(x0), input=u, t=t, margin=margin)
    path = tmp_path_factory.mktemp("record") / "witness.csv"
    write_witness(path, "iss", "d", w)
    _assert_same_witness(read_witness(path)[2], w)


REFUTE_256 = """\
system.preset = heat_dirichlet
system.n_modes = 256
certificate.beta = decay(1.0, 9.869604401089358)
certificate.gamma = linear(0.1)
certificate.uls_sigma = linear(0.1)
checks.ulim_eps = 0.001
checks.names = iss, uls, ulim
budget.n_states = 4
budget.n_inputs = 4
budget.seed = 3
"""

# alpha = r**1.5 takes Simpson on a grid that depends on the whole budget; the
# witness lies at t = 2.54375 < horizon, where a grid on [0, t] errs by 1e-8
SIMPSON_NTI = """\
system.preset = heat_dirichlet
system.n_modes = 16
certificate.alpha = power(1.0, 1.5)
certificate.psi = linear(0.01)
certificate.sigma = linear(0.6)
checks.names = norm_to_integral
budget.n_states = 4
budget.n_inputs = 4
budget.n_times = 20
budget.horizon = 3.7
budget.seed = 3
"""
# sigma far below the steady input energy: both integral estimates fail
INTEGRAL = """\
certificate.sigma = power(0.01, 2.0)
checks.names = norm_to_integral, integral_to_integral
"""
INLINE = {"refute_256": REFUTE_256, "simpson_nti": SIMPSON_NTI, "integral": INTEGRAL,
          # ULIM runs first on the budget, and its anchor table is dropped after it
          "simpson_nti_ulim": SIMPSON_NTI.replace("checks.names = norm_to_integral",
                                                  "checks.names = ulim, norm_to_integral")}
REPLAYABLE = [name for name in CHECK_NAMES if name not in _UNREPLAYABLE]


def _scenario_path(tmp_path, scenario: str) -> str:
    if scenario not in INLINE:
        return scenario
    path = tmp_path / f"{scenario}.scn"
    path.write_text(INLINE[scenario])
    return str(path)


@pytest.mark.parametrize("scenario", [*BUNDLED, "simpson_nti", "simpson_nti_ulim"])
def test_a_check_on_one_pair_gives_that_pairs_record(tmp_path, monkeypatch, scenario):
    # every replayable check, run on a sample set of one of its pairs alone,
    # gives the record of that pair in the check's full run bit for bit
    s = load_scenario(_scenario_path(tmp_path, scenario))
    res = _resolve(s)
    drawn, samples = [], checkers._samples
    monkeypatch.setattr(checkers, "_samples",
                        lambda sys_, b: drawn.append(samples(sys_, b)) or drawn[-1])
    with checkers._shared_samples():
        runs = {name: (_CHECKS[name](s, res), drawn[-1]) for name in REPLAYABLE}
    for name, (rep, sample_set) in runs.items():
        n_inputs = sample_set.u_sup.size
        picked = [0, 1, 2, rep.samples_checked - 1]
        if rep.violated:
            w = rep.witness
            picked.append(next(
                p for p, rec in enumerate(rep.margins) if (rec.t, rec.margin) == (w.t, w.margin)
                and _input_bits(sample_set.signal(p % n_inputs)) == _input_bits(w.input)
                and _bits(sample_set.states[p // n_inputs]) == _bits(w.x0)))
        for p in picked:
            pair = (sample_set.states[p // n_inputs], sample_set.signal(p % n_inputs))
            with checkers._shared_samples(pair=pair):
                (one,) = _CHECKS[name](s, res).margins
            full = rep.margins[p]
            assert (one.t.hex(), one.margin.hex()) == (full.t.hex(), full.margin.hex()), (
                name, p)


@pytest.mark.parametrize("scenario, checks", [("heat_bad_gain.scn", ["iss"]),
                                              ("refute_256", ["iss", "uls", "ulim"]),
                                              ("simpson_nti", ["norm_to_integral"]),
                                              ("integral", ["norm_to_integral",
                                                            "integral_to_integral"])])
def test_replay_reproduces_every_witness(tmp_path, capsys, scenario, checks):
    scenario = _scenario_path(tmp_path, scenario)
    out = tmp_path / "out"
    assert main(["check", scenario, "--out", str(out)]) == 1
    run = {e.name: e for e in run_scenario(load_scenario(scenario), str(tmp_path / "again"))
           .entries}
    assert sorted(p.name for p in out.glob("witness_*")) == sorted(
        f"witness_{c}.csv" for c in checks)
    capsys.readouterr()
    for check in checks:
        assert main(["replay", scenario, str(out / f"witness_{check}.csv")]) == 1
        w = run[check].report.witness
        at = f"{format(w.margin, '.17g')} at t = {format(w.t, '.17g')}"
        assert capsys.readouterr().out == (
            f"{check}: replayed margin {at}, recorded margin {at}: the violation reproduces\n")


@pytest.mark.parametrize("check", REPLAYABLE)
def test_replay_of_a_clean_sample_exits_3(tmp_path, capsys, check):
    # the zero state under the zero input meets every estimate, so a record
    # that claims a violation there does not reproduce
    s = load_scenario("heat_iss.scn")
    w = Witness(x0=np.zeros(64), input=InputSignal.zero(), t=1.0, margin=-1.0)
    write_witness(tmp_path / "w.csv", check, s.digest(), w)
    assert main(["replay", "heat_iss.scn", str(tmp_path / "w.csv")]) == 3
    assert "does not reproduce" in capsys.readouterr().out


def test_replay_refuses_another_scenarios_record(tmp_path, capsys):
    assert main(["check", "heat_bad_gain.scn", "--out", str(tmp_path)]) == 1
    assert main(["replay", "heat_iss.scn", str(tmp_path / "witness_iss.csv")]) == 2
    assert "not of this scenario" in capsys.readouterr().err
    # the digest covers the overrides of check, which replay takes too
    assert main(["check", "heat_bad_gain.scn", "--seed", "7", "--out",
                 str(tmp_path / "s7")]) == 1
    assert main(["replay", "heat_bad_gain.scn", str(tmp_path / "s7/witness_iss.csv")]) == 2
    assert main(["replay", "heat_bad_gain.scn", "--seed", "7",
                 str(tmp_path / "s7/witness_iss.csv")]) == 1


@pytest.mark.parametrize("check", ["cocycle", "cep"])
def test_replay_of_a_check_not_replayed_exits_2(tmp_path, capsys, check):
    # cocycle draws (t, h) per pair index, and CEP is decided, one margin per
    # level, and writes no witness: neither is in a record
    assert sorted(_UNREPLAYABLE) == ["cep", "cocycle"]
    s = load_scenario("heat_iss.scn")
    w = Witness(x0=np.zeros(64), input=InputSignal.zero(), t=1.0, margin=-1.0)
    write_witness(tmp_path / "w.csv", check, s.digest(), w)
    assert main(["replay", "heat_iss.scn", str(tmp_path / "w.csv")]) == 2
    assert f"check {check!r} is not replayed" in capsys.readouterr().err


@pytest.mark.parametrize("where", ["input", "x0"])
@pytest.mark.parametrize("check", REPLAYABLE)
def test_replay_of_an_overflowing_record_exits_2(tmp_path, capsys, check, where):
    # a record beyond the cap on budget.radius, max(|x0|, |u|_inf) (1 + |A^-1 B|)
    # <= 2**400, is refused before its check squares a norm out of range
    s = load_scenario("heat_iss.scn")
    x0, u = np.zeros(64), constant(1.0, 2.0)
    if where == "input":
        u = constant(1e300, 2.0)
    else:
        x0[5] = 1e300
    write_witness(tmp_path / "w.csv", check, s.digest(),
                  Witness(x0=x0, input=u, t=2.0, margin=-1.0))
    for warn in ("error", "ignore"):
        with warnings.catch_warnings():
            warnings.simplefilter(warn, RuntimeWarning)
            assert main(["replay", "heat_iss.scn", str(tmp_path / "w.csv")]) == 2
        assert "exceeds 2**400" in capsys.readouterr().err


GOOD_RECORD = ["check,iss", "scenario_digest,{digest}", "t,2", "margin,-1",
               "x0," + ",".join(["0"] * 64), "breakpoints,0,2", "values,1"]


@pytest.mark.parametrize("line, text", [
    (None, ""), (6, None), (0, "check,nonsense"), (2, "t,one"), (2, "t,1,2"),
    (3, "margin,nan"), (4, "x0,inf" + ",0" * 63), (4, "x0,0,0"), (5, "breakpoints,1,2"),
    (6, "values,1,2"), (5, "breakpoints,0,-1"), (1, "digest,{digest}"), (6, "values,1\nextra")],
    ids=["empty", "missing_line", "unknown_check", "non_number", "two_times", "nan_margin",
         "infinite_x0", "short_x0", "late_breakpoint", "extra_value", "decreasing",
         "misnamed_line", "extra_line"])
def test_replay_of_a_malformed_record_exits_2(tmp_path, capsys, line, text):
    lines = list(GOOD_RECORD)
    if line is None:
        lines = []
    elif text is None:
        del lines[line]
    else:
        lines[line] = text
    digest = load_scenario("heat_bad_gain.scn").digest()
    path = tmp_path / "witness_iss.csv"
    path.write_text("\n".join(lines).format(digest=digest) + "\n")
    assert main(["replay", "heat_bad_gain.scn", str(path)]) == 2
    assert "malformed witness record" in capsys.readouterr().err


def test_replay_of_the_good_record_reproduces(tmp_path):
    # the record the malformed ones are made from: x0 = 0, u = 1 on [0, 2),
    # at t = 2, the time the check picks for that pair
    path = tmp_path / "witness_iss.csv"
    digest = load_scenario("heat_bad_gain.scn").digest()
    path.write_text("\n".join(GOOD_RECORD).format(digest=digest) + "\n")
    check, digest, w = read_witness(path)
    margin = iss_margin(build_system(load_scenario("heat_bad_gain.scn")),
                        ISSCertificate(DecayEnvelope(1.0, 9.869604401089358), linear(0.1)),
                        w.x0, w.input, w.t)
    path.write_text(path.read_text().replace("margin,-1", f"margin,{margin!r}"))
    assert main(["replay", "heat_bad_gain.scn", str(path)]) == 1


def test_replay_of_a_missing_record_exits_2(tmp_path, capsys):
    assert main(["replay", "heat_iss.scn", str(tmp_path / "none.csv")]) == 2
    assert "witness record not found" in capsys.readouterr().err


def test_replay_of_an_unreadable_record_exits_2(tmp_path, capsys):
    (tmp_path / "binary.csv").write_bytes(b"\xff")
    assert main(["replay", "heat_iss.scn", str(tmp_path / "binary.csv")]) == 2
    assert "malformed witness record" in capsys.readouterr().err
    assert main(["replay", "heat_iss.scn", str(tmp_path)]) == 2   # a directory
    assert "cannot read the witness record" in capsys.readouterr().err


def test_replay_of_a_time_off_the_checks_grid_exits_3(tmp_path, capsys):
    # norm_to_integral evaluates at the budget's evaluation times only: moved
    # to t = 1.0, off them, the witness keeps its pair and margin, but the
    # check's run on the pair picks its own time, so the record is not accepted
    path = _scenario_path(tmp_path, "simpson_nti")
    s = load_scenario(path)
    assert 1.0 not in checkers.eval_times(s.budget)
    w = run_scenario(s, str(tmp_path / "out")).entries[0].report.witness
    write_witness(tmp_path / "w.csv", "norm_to_integral", s.digest(), replace(w, t=1.0))
    assert main(["replay", path, str(tmp_path / "w.csv")]) == 3
    assert capsys.readouterr().out == (
        f"norm_to_integral: replayed margin {format(w.margin, '.17g')} at t = "
        f"{format(w.t, '.17g')}, recorded margin {format(w.margin, '.17g')} at t = 1: "
        "the violation does not reproduce\n")


@pytest.mark.parametrize("trajectories", [False, True])
def test_dense_witness_trajectory_only_on_request(tmp_path, trajectories):
    text = bundled_scenario_path("heat_bad_gain.scn").read_text().replace(
        "output.trajectories = false", f"output.trajectories = {str(trajectories).lower()}")
    run = run_scenario(parse_scenario(text), str(tmp_path))
    assert run.entries[0].witness_file == "witness_iss.csv"
    assert (tmp_path / "witness_iss.csv").read_text().startswith("check,iss\n")
    dense = tmp_path / "witness_iss_trajectory.csv"
    assert dense.exists() == trajectories
    if trajectories:
        rows = list(csv.reader(dense.open()))
        assert rows[0][:3] == ["t", "norm", "c1"] and len(rows[0]) == 66
        w = run.entries[0].report.witness
        assert [float(v) for v in rows[1][2:]] == w.x0.tolist()
        assert w.t in {float(row[0]) for row in rows[1:]}


# ---------------------------------------------------------------------------
# certificates on the budget ball

OVERFLOWING = [
    ("certificate.beta", "certificate.beta = decay(1e308, 1.0)\nbudget.radius = 10\n"),
    ("certificate.gamma", "certificate.gamma = power(1.0, 400.0)\nbudget.radius = 10\n"),
    ("certificate.uls_sigma", "certificate.uls_sigma = linear(1e308)\nbudget.radius = 10\n"),
    ("certificate.psi", "certificate.psi = power(1e300, 2.0)\nbudget.radius = 1e5\n"),
    ("certificate.sigma", "certificate.sigma = power(1e305, 1.0)\nbudget.radius = 1e4\n"),
    # each function finite, their sum, the bound a check compares with, not
    ("certificate.beta + certificate.gamma",
     "certificate.beta = decay(1e308, 1.0)\ncertificate.gamma = linear(1e308)\n"),
    ("certificate.uls_sigma + certificate.gamma",
     "certificate.uls_sigma = linear(1e308)\ncertificate.gamma = linear(1e308)\n"),
    ("certificate.psi + certificate.sigma",
     "certificate.psi = linear(1e308)\ncertificate.sigma = linear(1e308)\n"
     "budget.horizon = 1.0\n"),
    # horizon * alpha(r (1 + |A^-1 B|)) bounds the integral the integral checks
    # compare; with checks.names = norm_to_integral this exited 3 ("non-finite
    # margin -inf")
    ("certificate.alpha", "certificate.alpha = power(1e300, 2.0)\nbudget.radius = 1e100\n"),
]


@pytest.mark.parametrize("checks", ["iss, uls", "iss"])
@pytest.mark.parametrize("warn", ["error", "always"])
@pytest.mark.parametrize("key, text", OVERFLOWING,
                         ids=[f"{k}-{i}" for i, (k, _) in enumerate(OVERFLOWING)])
def test_certificate_overflowing_on_the_ball_is_config_error(tmp_path, capsys, key, text,
                                                             checks, warn):
    # before, decay(1e308, 1) at radius 10 exited 3 with iss, uls ("ULS:
    # non-finite margin inf") and 0 after an overflow warning with iss alone
    path = tmp_path / "overflow.scn"
    path.write_text(f"checks.names = {checks}\n{text}")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(warn, RuntimeWarning)
        assert main(["check", str(path), "--out", str(tmp_path / "out")]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    err = capsys.readouterr().err
    assert f"configuration error: {key} overflows on the ball" in err


@pytest.mark.parametrize("warn", ["error", "always"])
@pytest.mark.parametrize("text, term", [
    ("budget.horizon = 1.7e308\n", "alpha"),   # the default certificates
    ("certificate.sigma = power(1e305, 1.0)\nbudget.horizon = 1e4\n", "sigma"),
    ("certificate.alpha = power(1e300, 2.0)\nbudget.horizon = 1e10\n", "alpha")],
    ids=["default-alpha", "sigma", "alpha"])
def test_horizon_overflowing_a_finite_certificate_is_named(tmp_path, capsys, text, term,
                                                            warn):
    # the certificate is finite on the ball and only horizon * it overflows:
    # the error named certificate.<term>, a key these scenarios may not set
    path = tmp_path / "long.scn"
    path.write_text(text)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter(warn, RuntimeWarning)
        with pytest.raises(ScenarioError) as err:
            load_scenario(str(path))
        assert main(["check", str(path), "--out", str(tmp_path / "out")]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert err.value.key == "budget.horizon"
    horizon = float(text.split("budget.horizon = ")[1])
    assert (f"configuration error: budget.horizon = {horizon!r} times certificate.{term} "
            "overflows on the ball") in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the README


def test_readme_library_sketch_runs(capsys):
    # the sketch imports its names from the package root, so they stay exported
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    sketch = readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1]
    exec(compile(sketch.split("```", 1)[0], "README.md", "exec"), {})
    assert any(line.startswith("ISS,no_violation_found,")
               for line in capsys.readouterr().out.splitlines())
