"""Benchmark of isslab's checker battery, end to end and layer by layer.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it measures the isslab under the
checkout's ``src/`` and writes only below ``.bench_work/``.  The seed
generates a battery of scenarios that differ in ``budget.seed``
(``workloads.py``).  Every measurement runs in a fresh child process
(``worker.py``), one at a time:

* ``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: ``run_s``,
  the median wall time of a warm ``run_scenario`` call over ``S`` seconds of
  calls that cycle through the battery (the median over scenarios of each
  scenario's median); ``setup_s``, the median over several fresh interpreters
  of import, parse and set-up; ``peak_rss_mb`` of the process that ran the
  calls; and ``pass_frac``, the share of checks whose output was right.
* ``--trace 1`` reports the per-layer metrics of the battery's first
  scenario from a process that runs it untraced for half of ``S`` and traced
  for the other half, plus ``trace_overhead_frac`` between the two halves.
  Counted metrics must repeat exactly between traced repetitions.

``run_s`` and ``setup_s`` are reference-scaled: each call's (or set-up's)
wall time is divided by the wall time of ``worker.reference_kernel`` measured
right after it in the same process, and multiplied by ``worker.REF_S``.  They
read as the seconds the call would take at the speed at which the reference
kernel takes ``REF_S``, and they do not follow the shared host's drift.  The
unscaled wall medians are printed and recorded beside them.

The lines before the last print each metric with its unit, the failed share
of checks and the run record; the last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.  The run record is also
written to ``.bench_work/record-<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
WORK = ROOT / ".bench_work"
TIME_LIMIT_S = 170.0                  # a run must end within 180 s
SETUP_REPEATS = {"full": 3, "tiny": 1}
# A fixed string hash keeps dict and set layouts alike between processes.  One
# BLAS thread: at N = 256 OpenBLAS starts a second thread that spins on the
# other CPU without making a call faster, so the time would follow that CPU.
CHILD_ENV = {"PYTHONHASHSEED": "0", "OPENBLAS_NUM_THREADS": "1"}

sys.path.insert(0, str(BENCH))
from worker import REF_S  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


class BenchError(Exception):
    """The benchmark could not measure; no result is printed."""


def load_spec() -> dict:
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read BENCHMARK.json: {exc}") from None


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _child(mode: str, workload: str, seed: int, size: str, seconds: float,
           deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0.0:
        raise BenchError(f"no time left for the {mode} process")
    cmd = [sys.executable, str(WORKER), mode, workload, str(seed), size, repr(seconds)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              env={**os.environ, **CHILD_ENV}, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"the {mode} process did not end in time") from None
    if proc.returncode != 0:
        raise BenchError(f"the {mode} process failed:\n{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def scaled(times, ref_times, index=None) -> float:
    """REF_S times the median over scenarios of each scenario's median ratio
    of wall time to reference time; ``index`` names each call's scenario."""
    by_scenario = defaultdict(list)
    for t, r, i in zip(times, ref_times, index or [0] * len(times), strict=True):
        by_scenario[i].append(t / r)
    return REF_S * statistics.median(statistics.median(v) for v in by_scenario.values())


def _end_to_end(name, seed, seconds, size, deadline):
    # the median also absorbs the first process of a fresh checkout, which
    # compiles isslab's bytecode
    setups = [_child("setup", name, seed, size, 0.0, deadline)
              for _ in range(SETUP_REPEATS[size])]
    run = _child("run", name, seed, size, seconds, deadline)
    if not run["times"]:
        raise BenchError(f"every run_scenario call raised: {run['failures'][0]}")
    failed = len(run["failures"])
    values = {"run_s": scaled(run["times"], run["ref_times"], run["scenario_index"]),
              "setup_s": scaled([s["setup_s"] for s in setups],
                                [s["ref_s"] for s in setups]),
              "peak_rss_mb": run["peak_rss_mb"],
              "pass_frac": 1.0 - failed / run["attempted"]}
    samples = {"run_s calls": len(run["times"]),
               "scenarios": len(set(run["scenario_index"])), "setup_s": len(setups)}
    wall = {"run_s": statistics.median(run["times"]),
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "reference_s": statistics.median(run["ref_times"])}
    return values, run, samples, wall, []


def _per_layer(name, seed, seconds, size, counted, deadline):
    traced = _child("trace", name, seed, size, seconds, deadline)
    reps = traced["reps"]
    values = {m: statistics.median(r[m] for r in reps) for m in reps[0]}
    values["trace_overhead_frac"] = (
        scaled([r["harness.run_scenario_s"] for r in reps], traced["ref_times"])
        / scaled(traced["untraced_times"], traced["untraced_ref_times"]) - 1.0)
    unrepeated = [m for m in counted if len({r[m] for r in reps}) > 1]
    samples = {"untraced_runs": len(traced["untraced_times"]), "traced_runs": len(reps)}
    wall = {"untraced run_s": statistics.median(traced["untraced_times"]),
            "reference_s": statistics.median(traced["ref_times"])}
    return values, traced, samples, wall, unrepeated


def measure(name: str, seed: int, seconds: float, trace: bool, size: str = "full"):
    """Run the benchmark; returns (result object, run record, report lines)."""
    start = time.monotonic()
    deadline = start + TIME_LIMIT_S
    if not (ROOT / "src" / "isslab" / "__init__.py").is_file():
        raise BenchError(f"no isslab sources under {ROOT / 'src'}")
    spec = load_spec()
    declared = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    WORK.mkdir(exist_ok=True)
    if trace:
        counted = [m for m, u in units.items() if u == "count"]
        values, child, samples, wall, unrepeated = _per_layer(name, seed, seconds, size,
                                                              counted, deadline)
    else:
        values, child, samples, wall, unrepeated = _end_to_end(name, seed, seconds,
                                                               size, deadline)
    missing = sorted(set(units) - set(values))
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    attempted, failed = child["attempted"], len(child["failures"])
    result = {"correct": failed == 0 and not unrepeated,
              "attempted": attempted, "failed": failed,
              "metrics": {m: {"value": values[m], "unit": u} for m, u in units.items()}}
    record = {"workload": name, "seed": seed, "trace": int(trace), "size": size,
              "seconds": seconds, "samples": samples, "unscaled_wall_s": wall,
              "ref_s": REF_S,
              **{k: child[k] for k in ("python", "numpy", "scipy", "isslab",
                                       "scenario_digests")},
              "nproc": os.cpu_count(), "git_commit": git_commit(),
              "failures": child["failures"], "unrepeated_counts": unrepeated,
              "wall_s": time.monotonic() - start}
    lines = [f"{m} = {values[m]:.6g} {u}" for m, u in units.items()]
    lines.append(f"failed_frac = {failed / attempted:.6g} ratio "
                 f"({failed} of {attempted} checks)")
    lines.append("samples: " + ", ".join(f"{k} {v}" for k, v in samples.items()))
    lines.append("unscaled wall medians: " + ", ".join(f"{k} {v:.6g} s"
                                                      for k, v in wall.items()))
    lines += [f"FAILED {msg}" for msg in child["failures"]]
    lines += [f"UNREPEATED COUNT {m}" for m in unrepeated]
    return result, record, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0.0:
        parser.error("--seconds must be positive")
    try:
        result, record, lines = measure(args.workload, args.seed, args.seconds,
                                        bool(args.trace))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    path = WORK / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"{args.workload} seed {args.seed} trace {args.trace}")
    print("\n".join(lines))
    print("record " + json.dumps(record))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
