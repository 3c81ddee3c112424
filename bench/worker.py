"""One measured process of the benchmark.

    python3 bench/worker.py setup|run|trace <workload> <seed> <size> <seconds>

``setup`` times, in this fresh interpreter, what every ``isslab`` call pays
before its first check: importing isslab, parsing the scenario, building the
system and the Lyapunov operator, and the dissipation constants (which call
``kappa_bounds``).  ``run`` makes one warm-up ``run_scenario`` call and then
repeats timed calls until ``seconds`` have passed; it reports every wall
time, the checks attempted and failed, and the peak resident memory of this
process after the warm-up call.  ``trace`` does the same with the layer tracer installed and reports
per-layer metrics for each repetition; its times are never used as end-to-end
figures.  Each mode prints one JSON object as its last line.

Every timed call (and every set-up) is followed by one timed call of
``reference_kernel``, fixed work that never touches isslab.  On a shared host
the speed of the CPU this process gets drifts by up to 2x over tens of
seconds; the ratio of a call's time to the reference time next to it cancels
that drift, and ``run.py`` reports times scaled to ``REF_S``.

Every run's outputs are checked against the workload's expected verdicts:
each check's verdict must match, each margin must be finite, and each
violated check's witness must replay through the public single-sample margin
function to its reported margin.
"""

from __future__ import annotations

import json
import math
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
MIN_REPS = 2          # a traced run compares counts between repetitions
REPLAY_TOL = 1e-12    # relative agreement of a replayed witness margin
REF_S = 0.09          # nominal seconds of one reference_kernel call

sys.path.insert(0, str(Path(__file__).resolve().parent))
from workloads import WORKLOADS, Workload  # noqa: E402


def import_isslab():
    """Import isslab from this checkout's ``src``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import isslab
    if not Path(isslab.__file__).resolve().is_relative_to(SRC.resolve()):
        raise RuntimeError(f"isslab was imported from {isslab.__file__}, not {SRC}")
    return isslab


def reference_kernel() -> float:
    """Fixed work of the kinds an isslab call does, without isslab.

    An interpreter loop, small-array numpy (a 33x64 flow-like exponential
    and its reductions), ``.17g`` float formatting as in the CSV writer, and
    numpy on 2 MB arrays as in the flow and quadrature on dense grids; about
    0.09 s on a 2-vCPU 2.0 GHz Xeon.  Its inputs never change.
    """
    import numpy as np
    rates = np.linspace(0.5, 40.0, 64)
    times = np.linspace(0.0, 2.0, 33)
    acc = 0.0
    for i in range(60000):
        acc += i * 0.5
    for j in range(600):
        x = np.exp(-np.outer(times, rates + j)) @ rates
        acc += float(np.max(np.abs(x))) + float(np.sum(np.minimum(x, 0.5)))
    text = "\n".join(format(v, ".17g") for v in np.sin(np.arange(15000.0)))
    grid = np.linspace(0.0, 1.0, 262144)
    for k in range(11):
        y = np.exp(-(k + 1.0) * grid) * grid
        acc += float(np.sum(y)) + float(np.max(np.cumsum(y)))
    return acc + len(text)


def time_reference() -> float:
    t0 = time.perf_counter()
    reference_kernel()
    return time.perf_counter() - t0


def replay_margin(check: str, scenario, system, witness) -> float:
    """Re-evaluate a violated check at its witness through the public API."""
    import numpy as np
    from isslab.checkers import ULIM_GRID_POINTS, iss_margin, ulim_slack, uls_margin
    from isslab.comparison import ISSCertificate
    if check == "iss":
        cert = ISSCertificate(beta=scenario.beta, gamma=scenario.gamma)
        return iss_margin(system, cert, witness.x0, witness.input, witness.t)
    if check == "uls":
        return uls_margin(system, scenario.uls_sigma, scenario.gamma,
                          witness.x0, witness.input, witness.t)
    if check == "ulim":
        grid = np.linspace(0.0, scenario.budget.horizon, ULIM_GRID_POINTS)
        return ulim_slack(system, scenario.gamma, scenario.ulim_eps,
                          witness.x0, witness.input, grid)
    raise KeyError(f"no replay for check {check!r}")


def verify(run, scenario, expected: dict[str, str]) -> list[str]:
    """One message per check whose output is wrong; empty when all are right."""
    from isslab.harness import build_system
    system = build_system(scenario)
    reports = {e.name: e.report for e in run.entries}
    failures = []
    for check, verdict in expected.items():
        rep = reports.get(check)
        if rep is None:
            failures.append(f"{check}: did not run")
        elif rep.verdict.value != verdict:
            failures.append(f"{check}: verdict {rep.verdict.value}, expected {verdict}")
        elif not all(math.isfinite(m.margin) for m in rep.margins) or not math.isfinite(
                rep.worst_margin):
            failures.append(f"{check}: non-finite margin")
        elif rep.violated:
            w = rep.witness
            try:
                replay = replay_margin(check, scenario, system, w)
            except Exception as exc:   # a replay that raises is a failed check
                failures.append(f"{check}: witness replay raised {exc!r}")
                continue
            if not abs(replay - w.margin) <= REPLAY_TOL * (1.0 + abs(w.margin)):
                failures.append(f"{check}: witness replays to {replay!r}, "
                                f"reported {w.margin!r}")
    return failures


def _out_dir(mode: str, workload: Workload) -> Path:
    out = WORK / f"{mode}-{workload.name}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    return out


def _run_checked(run_scenario, scenario, workload, out_dir):
    """One run_scenario call: (wall seconds or None, run or None, failures)."""
    t0 = time.perf_counter()
    try:
        run = run_scenario(scenario, str(out_dir))
    except Exception as exc:   # every check of a run that raises has failed
        return None, None, [f"run_scenario raised {exc!r}"] * len(workload.checks)
    return time.perf_counter() - t0, run, []


def _record(isslab, scenarios) -> dict:
    import numpy
    import scipy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "isslab": isslab.__version__,
            "scenario_digests": [sc.digest() for sc in scenarios]}


def measure_setup(workload: Workload, seed: int, size: str) -> dict:
    text = workload.scenario_texts(seed, size)[0]
    t0 = time.perf_counter()
    import_isslab()
    from isslab.harness import build_system, parse_scenario
    from isslab.lyapunov import DATKO, build_datko, build_neg_inverse, dissipation_constants
    scenario = parse_scenario(text)
    system = build_system(scenario)
    build = build_datko if scenario.construction == DATKO else build_neg_inverse
    dissipation_constants(build(system), system, scenario.epsilon)
    setup = time.perf_counter() - t0
    reference_kernel()   # warm numpy's first calls
    return {"setup_s": setup,
            "ref_s": sorted(time_reference() for _ in range(3))[1]}


def measure_run(workload: Workload, seed: int, size: str, seconds: float) -> dict:
    """Untraced: a warm-up call, then timed calls cycling through the battery
    for ``seconds``, and at least once through the whole battery."""
    isslab = import_isslab()
    from isslab.harness import parse_scenario, run_scenario
    battery = [parse_scenario(t) for t in workload.scenario_texts(seed, size)]
    out_dir = _out_dir("run", workload)

    def checked_run(scenario):
        dt, run, failures = _run_checked(run_scenario, scenario, workload, out_dir)
        return dt, failures if run is None else verify(run, scenario, workload.expected)

    _, failures = checked_run(battery[0])
    # read after the warm-up call and before the reference kernel first runs,
    # so that the kernel's arrays do not count
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    reference_kernel()
    times, ref_times, index, reps = [], [], [], 0
    start = time.perf_counter()
    while reps < max(MIN_REPS, len(battery)) or time.perf_counter() - start < seconds:
        i = reps % len(battery)
        dt, failed = checked_run(battery[i])
        reps += 1
        failures += failed
        if dt is not None:
            times.append(dt)
            ref_times.append(time_reference())
            index.append(i)
    return {"times": times, "ref_times": ref_times, "scenario_index": index,
            "attempted": len(workload.checks) * (reps + 1),
            "failures": failures, "peak_rss_mb": peak, **_record(isslab, battery)}


def measure_trace(workload: Workload, seed: int, size: str, seconds: float) -> dict:
    """The battery's first scenario, untraced for half of ``seconds`` and then
    traced for the other half; per-layer metrics of each traced repetition."""
    isslab = import_isslab()
    from isslab import harness
    from tracer import Tracer, layer_metrics, write_spans
    text = workload.scenario_texts(seed, size)[0]
    scenario = harness.parse_scenario(text)
    out_dir = _out_dir("trace", workload)
    _, warm, failures = _run_checked(harness.run_scenario, scenario, workload, out_dir)
    runs = [warm]
    reference_kernel()
    untraced, untraced_ref = [], []
    start = time.perf_counter()
    while len(untraced) < MIN_REPS or time.perf_counter() - start < seconds / 2:
        dt, run, failed = _run_checked(harness.run_scenario, scenario, workload, out_dir)
        failures += failed
        runs.append(run)
        if dt is not None:
            untraced.append(dt)
            untraced_ref.append(time_reference())
    emit_bytes, ref_times = [], []
    tracer = Tracer()
    start = time.perf_counter()
    with tracer.installed():
        while len(tracer.reps) < MIN_REPS or time.perf_counter() - start < seconds / 2:
            tracer.new_rep()
            # both calls look up the patched module attributes
            traced = harness.parse_scenario(text)
            _, run, failed = _run_checked(harness.run_scenario, traced, workload, out_dir)
            failures += failed
            runs.append(run)
            emit_bytes.append(sum(f.stat().st_size for f in out_dir.iterdir()))
            ref_times.append(time_reference())   # calls no isslab function
    for run in runs:   # verified untraced, after the tracer is removed
        if run is not None:
            failures += verify(run, scenario, workload.expected)
    write_spans(tracer, WORK / f"spans-{workload.name}-seed{seed}.csv")
    reps = []
    for spans, nbytes in zip(tracer.reps, emit_bytes):
        metrics = layer_metrics(spans, workload.n_modes)
        metrics["harness.emit_bytes"] = nbytes
        reps.append(metrics)
    return {"reps": reps, "ref_times": ref_times,
            "untraced_times": untraced, "untraced_ref_times": untraced_ref,
            "attempted": len(workload.checks) * len(runs),
            "failures": failures, **_record(isslab, [scenario])}


MODES = {"setup": measure_setup, "run": measure_run, "trace": measure_trace}


def main(argv: list[str]) -> int:
    mode, name, seed, size, seconds = argv
    measure = MODES[mode]
    args = (WORKLOADS[name], int(seed), size)
    result = measure(*args) if mode == "setup" else measure(*args, float(seconds))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
