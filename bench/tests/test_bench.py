"""Smoke test of the benchmark at a tiny budget.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench_run  # noqa: E402
import worker  # noqa: E402
from tracer import TARGETS, Tracer  # noqa: E402
from workloads import POINTWISE, VIOLATED, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(kind: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _emitted(result) -> dict[str, str]:
    return {m: v["unit"] for m, v in result["metrics"].items()}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_end_to_end_metrics_with_units(name):
    result, record, lines = bench_run.measure(name, 7, 0.5, trace=False, size="tiny")
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert _emitted(result) == _units("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert record["scenario_digests"] and record["numpy"] and record["nproc"]
    assert any(line.startswith("failed_frac = 0 ") for line in lines)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_layer_metrics_and_counts_repeat(name):
    first, _, _ = bench_run.measure(name, 7, 0.5, trace=True, size="tiny")
    second, _, _ = bench_run.measure(name, 7, 0.5, trace=True, size="tiny")
    units = _units("per_layer")
    assert first["correct"] and second["correct"]
    assert _emitted(first) == units
    counted = [m for m, u in units.items() if u == "count"]
    assert ([first["metrics"][m]["value"] for m in counted]
            == [second["metrics"][m]["value"] for m in counted])


def test_wrong_expected_verdict_counts_as_failed():
    wrong = replace(POINTWISE, expected={**POINTWISE.expected, "iss": VIOLATED})
    out = worker.measure_run(wrong, 7, "tiny", 0.0)
    assert out["failures"]
    assert all(f.startswith("iss: verdict no_violation_found") for f in out["failures"])
    assert len(out["failures"]) / out["attempted"] == 1 / len(wrong.checks)


def test_tracer_restores_every_attribute():
    worker.import_isslab()
    modules = {n: m for n, m in sys.modules.items() if n.split(".")[0] == "isslab"}
    before = {n: dict(vars(m)) for n, m in modules.items()}
    tracer = Tracer()
    with tracer.installed():
        mod, attr = TARGETS[0][:2]
        assert getattr(sys.modules[mod], attr) is not before[mod][attr]
    for n, m in modules.items():
        assert all(vars(m)[k] is v for k, v in before[n].items())


def test_fails_without_sources():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "refute_heat256",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0 and proc.stdout == ""


def test_spec_matches_workloads_and_design():
    assert ({w["name"]: w["why"] for w in SPEC["workloads"]}
            == {w.name: w.why for w in WORKLOADS.values()})
    design = (BENCH / "DESIGN.md").read_text(encoding="utf-8")
    names = [m["name"] for kind in ("end_to_end", "per_layer") for m in SPEC[kind]]
    assert [n for n in [*names, *WORKLOADS] if f"`{n}`" not in design] == []
