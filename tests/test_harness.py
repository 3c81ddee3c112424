"""Tests for the scenario grammar, the runner, CSV outputs and the CLI."""

import csv
import importlib.util
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from isslab import (SampleBudget, ScenarioError, Verdict, iss_margin, build_system,
                    load_scenario, main, parse_scenario, run_scenario,
                    serialize_scenario, simulate_scenario, ISSCertificate,
                    DecayEnvelope, linear)
from isslab import checkers
from isslab.harness import (_CHECKS, CHECK_NAMES, MAX_WORK, _resolve, _work,
                            bundled_scenario_path)
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
    "checks.cep_h": "1.0", "checks.brs_c": "1.0", "checks.brs_tau": "1.0",
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
    "checks.brs_c": (0.01, 10.0), "checks.brs_tau": (0.01, 5.0),
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


def test_brs_parameters_validated():
    with pytest.raises(ScenarioError) as err:
        parse_scenario(MINIMAL + "checks.brs_c = -1.0\n")
    assert "brs_c" in str(err.value)


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


@pytest.mark.parametrize("verb", ["check", "simulate"])
@pytest.mark.parametrize("scenario, modes", [("heat_iss.scn", "0"),
                                             ("diagonal_custom.scn", "0"),
                                             ("diagonal_custom.scn", "-2")])
def test_cli_modes_below_one_is_config_error(tmp_path, capsys, verb, scenario, modes):
    assert main([verb, scenario, "--modes", modes, "--out", str(tmp_path)]) == 2
    assert "--modes" in capsys.readouterr().err


def test_cli_entry_point_runs(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "isslab.harness", "check",
                           "heat_bad_gain.scn", "--out", str(tmp_path / "cli")],
                          capture_output=True, text=True)
    assert proc.returncode == 1
    assert "violated" in proc.stdout


@pytest.mark.parametrize("key", ["certificate.psi", "certificate.sigma"])
def test_bounded_certificate_is_config_error(tmp_path, capsys, key):
    path = tmp_path / "bounded.scn"
    path.write_text(MINIMAL + f"{key} = saturation(1.0, 1.0)\n")
    with pytest.raises(ScenarioError) as err:
        load_scenario(str(path))
    assert err.value.key == key
    assert main(["check", str(path), "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err


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


def test_each_sample_is_drawn_once_per_run(tmp_path, monkeypatch):
    drawn = Counter()

    def counted(draw, kind):
        def wrapper(*args):
            drawn[kind, args[-2], args[-1]] += 1   # (kind, budget, index)
            return draw(*args)
        return wrapper
    swept = []   # (input, whether the grid holds the ULIM grid of s.budget)

    def counted_sweep(sys, x0s, u, grid):
        swept.append((u, bool(np.all(np.isin(ulim_grid, grid)))))
        return flow_norms(sys, x0s, u, grid)
    flow_norms = checkers._flow_norms
    monkeypatch.setattr(checkers, "draw_state", counted(checkers.draw_state, "state"))
    monkeypatch.setattr(checkers, "draw_input", counted(checkers.draw_input, "input"))
    monkeypatch.setattr(checkers, "_flow_norms", counted_sweep)
    s = _tiny_workload("pointwise_heat64")
    ulim_grid = np.linspace(0.0, s.budget.horizon, checkers.ULIM_GRID_POINTS)
    run_scenario(s, str(tmp_path))
    # identity, cocycle, iss, uls, ulim and brs share s.budget; cep sweeps at cep_h
    b, cep = s.budget, replace(s.budget, horizon=s.cep_h)
    assert drawn == {**{("state", x, i): 1 for x in (b, cep) for i in range(b.n_states)},
                     **{("input", x, j): 1 for x in (b, cep) for j in range(b.n_inputs)}}
    # one sweep per input of each sample set: iss, uls, ulim and brs read one
    # sweep on the union of the probe and the ULIM grid, cep one of its own
    assert len(swept) == len({id(u) for u, _ in swept}) == 2 * b.n_inputs
    assert sum(union for _, union in swept) == b.n_inputs
    # nothing is kept between runs: the next run draws every sample again
    run_scenario(s, str(tmp_path))
    assert set(drawn.values()) == {2}
    assert checkers._RUN.get() is None
