"""Scenario-driven command line interface.

A scenario is a line-oriented text file of ``section.key = value`` pairs with
``#`` comments.  Lists are comma separated, comparison functions use the
tokens ``linear(c)``, ``power(c, p)``, ``saturation(c, s)``,
``compose(f, g)`` and decay envelopes use ``decay(M, omega)``.  Unknown keys
are rejected.  Example::

    system.preset = heat_dirichlet
    system.a = 1.0
    system.n_modes = 64
    lyapunov.construction = neg_inverse_A
    lyapunov.epsilon = 0.5
    certificate.beta = decay(1.0, 9.869604401089358)
    certificate.gamma = linear(0.5773502691896258)
    checks.names = identity, cocycle, iss
    budget.seed = 101

Two verbs are exposed: ``isslab simulate <scenario>`` writes trajectory CSVs
for a deterministic slice of the sample set, and ``isslab check <scenario>``
runs the requested checker battery and writes ``report.csv`` (one row per
check), ``margins.csv`` (one row per sample) and a witness trajectory CSV for
every violated check.  Exit codes: 0 success, 1 violation found,
2 configuration error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import hashlib
import math
import os
import re
import sys as _sys
import time
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import NamedTuple

import numpy as np

from . import __version__
from .checkers import (ULIM_GRID_POINTS, SampleBudget, _shared_samples, check_brs,
                       check_cep, check_cocycle, check_dissipation, check_identity,
                       check_iss, check_integral_to_integral, check_norm_to_integral,
                       check_ulim, check_uls, draw_input, draw_state)
from .comparison import (ComparisonFunction, DecayEnvelope, ISSCertificate,
                         NormToIntegralCertificate, derive_norm_to_integral,
                         linear, parse_comparison, power)
from .errors import ScenarioError, ValidationError
from .lyapunov import (DATKO, NEG_INVERSE, DissipationParameters, LyapunovOperator,
                       build_datko, build_neg_inverse, dissipation_constants)
from .report import StabilityReport
from .system import (HeatDirichletParams, SpectralSystem,
                     build_time_grid, heat_dirichlet, sample_trajectory,
                     write_trajectory_csv)

SIMULATE_SLICE = 4  # ``simulate`` writes the first 4 states times the first 4 inputs
#: Cap on a scenario's work, in flow entries (one state, one mode, one time):
#: about 1.3 s per pointwise sweep at 5 ns per entry (check_iss, 2-vCPU x86).
MAX_WORK = 2 ** 28
#: Per-pair and per-time overhead of a sweep (norm, bound, margin), in flow
#: entries: about 100 ns, as long as 20 modes, in the same measurement.
_PAIR_TIME_COST = 20

_KEY_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_.]*)\s*=(.*)$")


@dataclass(frozen=True)
class Scenario:
    """Fully validated configuration of one experiment."""

    preset: str = "heat_dirichlet"
    a: float = 1.0
    n_modes: int = 64
    lambdas: tuple[float, ...] | None = None
    b: tuple[float, ...] | None = None
    label: str = ""
    construction: str = NEG_INVERSE
    epsilon: float = 0.5
    beta: DecayEnvelope | None = None
    gamma: ComparisonFunction | None = None
    alpha: ComparisonFunction | None = None
    psi: ComparisonFunction | None = None
    sigma: ComparisonFunction | None = None
    uls_sigma: ComparisonFunction | None = None
    derive: str = "none"
    checks: tuple[str, ...] = ()
    ulim_eps: float = 0.1
    cep_h: float = 1.0
    brs_c: float | None = None
    brs_tau: float | None = None
    budget: SampleBudget = field(default_factory=SampleBudget)
    out_dir: str = "out"
    write_trajectories: bool = False

    def digest(self) -> str:
        return hashlib.sha256(serialize_scenario(self).encode()).hexdigest()[:16]


@dataclass(frozen=True)
class CheckRun:
    name: str
    report: StabilityReport
    seconds: float
    witness_file: str | None = None


@dataclass(frozen=True)
class RunReport:
    scenario_digest: str
    version: str
    entries: tuple[CheckRun, ...]

    @property
    def any_violated(self) -> bool:
        return any(e.report.violated for e in self.entries)


class _Resolved(NamedTuple):
    """A scenario's system with its certificates, missing pieces filled in."""

    sys: SpectralSystem
    op: LyapunovOperator
    params: DissipationParameters
    iss: ISSCertificate
    nti: NormToIntegralCertificate
    uls_sigma: ComparisonFunction


def _ulim_args(s: Scenario) -> tuple:
    """The ``(r, budget)`` arguments of the scenario's ULIM check."""
    return s.budget.radius, s.budget


#: Every check in canonical order: name -> run(scenario, resolved).
_CHECKS = {
    "identity": lambda s, r: check_identity(r.sys, s.budget),
    "cocycle": lambda s, r: check_cocycle(r.sys, s.budget),
    "iss": lambda s, r: check_iss(r.sys, r.iss, s.budget),
    "uls": lambda s, r: check_uls(r.sys, r.uls_sigma, r.iss.gamma, s.budget.radius, s.budget),
    "ulim": lambda s, r: check_ulim(r.sys, r.iss.gamma, s.ulim_eps, *_ulim_args(s)),
    "brs": lambda s, r: check_brs(r.sys, s.budget.radius if s.brs_c is None else s.brs_c,
                                  s.budget.horizon if s.brs_tau is None else s.brs_tau,
                                  s.budget),
    "cep": lambda s, r: check_cep(r.sys, s.budget, s.cep_h),
    "dissipation": lambda s, r: check_dissipation(r.sys, r.op, r.params, s.budget),
    "norm_to_integral": lambda s, r: check_norm_to_integral(r.sys, r.nti, s.budget),
    "integral_to_integral": lambda s, r: check_integral_to_integral(r.sys, r.nti, s.budget),
}
CHECK_NAMES = tuple(_CHECKS)


# ---------------------------------------------------------------------------
# parsing and serialization: one key table


def _number(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError(f"expects a finite number, got {raw!r}")
    return value


def _positive(raw: str) -> float:
    value = _number(raw)
    if not value > 0.0:
        raise ValueError(f"must be positive, got {raw!r}")
    return value


def _items(raw: str) -> tuple[str, ...]:
    return tuple(s.strip() for s in raw.split(",") if s.strip())


def _numbers(raw: str) -> tuple[float, ...]:
    return tuple(_number(s) for s in _items(raw))


def _boolean(raw: str) -> bool:
    if raw.lower() not in ("true", "yes", "1", "false", "no", "0"):
        raise ValueError(f"expects true or false, got {raw!r}")
    return raw.lower() in ("true", "yes", "1")


def _decay(raw: str) -> DecayEnvelope:
    m = re.fullmatch(r"\s*decay\(\s*([^,]+)\s*,\s*([^)]+)\s*\)\s*", raw)
    if not m:
        raise ValueError(f"expects decay(M, omega), got {raw!r}")
    return DecayEnvelope(_number(m.group(1)), _number(m.group(2)))


def _one_of(*options: str):
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"expects one of {', '.join(options)}, got {raw!r}")
        return raw
    return parse


def _check_names(raw: str) -> tuple[str, ...]:
    names = _items(raw)
    for name in names:
        if name not in CHECK_NAMES:
            raise ValueError(f"unknown check {name!r}")
    return names


def _reprs(values) -> str:
    return ", ".join(repr(v) for v in values)


#: Every scenario key in canonical order: (key, field of Scenario, or of
#: SampleBudget for the budget keys, value parser, formatter).
_KEYS = (
    ("system.preset", "preset", _one_of("heat_dirichlet", "diagonal"), str),
    ("system.lambdas", "lambdas", _numbers, _reprs),
    ("system.b", "b", _numbers, _reprs),
    ("system.a", "a", _number, repr),
    ("system.n_modes", "n_modes", int, str),
    ("system.label", "label", str, str),
    ("lyapunov.construction", "construction", _one_of(NEG_INVERSE, DATKO), str),
    ("lyapunov.epsilon", "epsilon", _number, repr),
    ("certificate.beta", "beta", _decay, DecayEnvelope.describe),
    *((f"certificate.{name}", name, parse_comparison, ComparisonFunction.describe)
      for name in ("gamma", "alpha", "psi", "sigma", "uls_sigma")),
    ("certificate.derive", "derive", _one_of("none", "from_iss"), str),
    ("checks.names", "checks", _check_names, ", ".join),
    ("checks.ulim_eps", "ulim_eps", _positive, repr),
    ("checks.cep_h", "cep_h", _positive, repr),
    ("checks.brs_c", "brs_c", _positive, repr),
    ("checks.brs_tau", "brs_tau", _positive, repr),
    ("budget.n_states", "n_states", int, str),
    ("budget.n_inputs", "n_inputs", int, str),
    ("budget.n_times", "n_times", int, str),
    ("budget.horizon", "horizon", _number, repr),
    ("budget.radius", "radius", _number, repr),
    ("budget.seed", "seed", int, str),
    ("output.dir", "out_dir", str, str),
    ("output.trajectories", "write_trajectories", _boolean,
     lambda v: "true" if v else "false"),
)
_PARSERS = {key: (field, parse) for key, field, parse, _ in _KEYS}
#: Keys read by one preset only; the other preset drops and omits them.
_PRESET_KEYS = {"system.lambdas": "diagonal", "system.b": "diagonal",
                "system.a": "heat_dirichlet", "system.n_modes": "heat_dirichlet"}
#: Fields the text omits while they hold their default.
_OPTIONAL = {"label", "beta", "gamma", "alpha", "psi", "sigma", "uls_sigma",
             "derive", "brs_c", "brs_tau"}
_DEFAULTS = Scenario()


def parse_scenario(text: str) -> Scenario:
    """Parse and validate scenario text; strict about unknown keys."""
    values: dict[str, object] = {}
    budget_kw: dict[str, object] = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        body = rawline.split("#", 1)[0]
        if not body.strip():
            continue
        m = _KEY_RE.match(body.strip())
        if not m:
            col = body.find("=") + 1 if "=" in body else len(body.rstrip()) + 1
            raise ScenarioError(f"expected 'section.key = value', got {body.strip()!r}",
                                line=lineno, column=col)
        key, raw = m.group(1), m.group(2).strip()
        if key not in _PARSERS:
            raise ScenarioError(f"unknown key {key!r}", line=lineno, key=key)
        field_name, parse = _PARSERS[key]
        target = budget_kw if key.startswith("budget.") else values
        if field_name in target:
            raise ScenarioError(f"duplicate key {key!r}", line=lineno, key=key)
        try:
            target[field_name] = parse(raw)
        except ValueError as exc:
            raise ScenarioError(f"key {key!r}: {exc}", line=lineno, key=key) from None
    # the other preset's keys are parsed and checked above, then dropped, so
    # the scenario equals the one its serialized text reads back as
    preset = values.get("preset", _DEFAULTS.preset)
    for key, owner in _PRESET_KEYS.items():
        if owner != preset:
            values.pop(_PARSERS[key][0], None)

    try:
        budget = SampleBudget(**budget_kw)
        scenario = Scenario(budget=budget, **values)
    except (ValidationError, TypeError) as exc:
        raise ScenarioError(str(exc)) from None
    _validate_scenario(scenario)
    return scenario


def _validate_scenario(s: Scenario) -> None:
    if not 0.0 < s.epsilon < 1.0:
        raise ScenarioError("epsilon must lie in (0,1)", key="lyapunov.epsilon")
    if s.preset == "diagonal":
        if s.lambdas is None or s.b is None:
            raise ScenarioError("diagonal systems need system.lambdas and system.b",
                                key="system.lambdas")
        if len(s.lambdas) != len(s.b):
            raise ScenarioError("system.lambdas and system.b must have equal length",
                                key="system.b")
        lam = np.asarray(s.lambdas)
        if lam.size < 1 or lam[0] <= 0.0 or np.any(np.diff(lam) <= 0.0):
            raise ScenarioError("system.lambdas must be strictly increasing and "
                                "positive", key="system.lambdas")
    else:
        if s.a <= 0.0:
            raise ScenarioError("system.a must be positive", key="system.a")
        if s.n_modes < 1:
            raise ScenarioError("system.n_modes must be at least 1", key="system.n_modes")
    if s.derive == "from_iss" and s.gamma is not None and not s.gamma.unbounded:
        raise ScenarioError("certificate.derive = from_iss needs a K-infinity gamma",
                            key="certificate.derive")
    for name in ("psi", "sigma"):
        fn = getattr(s, name)
        if fn is not None and not fn.unbounded:
            raise ScenarioError(f"certificate.{name} must be of class K-infinity, got "
                                f"{fn.describe()}", key=f"certificate.{name}")
    work = _work(s)
    if work > MAX_WORK:
        raise ScenarioError(f"the budget asks for {work} flow entries per sweep, above the "
                            f"cap {MAX_WORK}; lower budget.n_states, budget.n_inputs, "
                            "budget.n_times or the number of modes")


def _work(s: Scenario) -> int:
    """Flow entries of one sweep over the budget: every pair on every
    evaluation time and on the ULIM grid, each at the cost of its modes plus
    the per-pair overhead."""
    n_modes = len(s.lambdas) if s.preset == "diagonal" else s.n_modes
    b = s.budget
    return b.n_pairs * (n_modes + _PAIR_TIME_COST) * (b.n_times + ULIM_GRID_POINTS)


def serialize_scenario(s: Scenario) -> str:
    """Canonical text round-tripping through :func:`parse_scenario`."""
    lines = []
    for key, field_name, _, fmt in _KEYS:
        value = getattr(s.budget if key.startswith("budget.") else s, field_name)
        if _PRESET_KEYS.get(key, s.preset) != s.preset or (
                field_name in _OPTIONAL and value == getattr(_DEFAULTS, field_name)):
            continue
        lines.append(f"{key} = {fmt(value)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# execution


def build_system(s: Scenario) -> SpectralSystem:
    if s.preset == "diagonal":
        return SpectralSystem(np.asarray(s.lambdas), np.asarray(s.b),
                              label=s.label or "diagonal")
    return heat_dirichlet(HeatDirichletParams(a=s.a, n_modes=s.n_modes))


def _resolve(s: Scenario) -> _Resolved:
    """Build the system and fill missing certificate pieces with sound defaults."""
    sys = build_system(s)
    op = build_datko(sys) if s.construction == DATKO else build_neg_inverse(sys)
    params = dissipation_constants(op, sys, s.epsilon)
    beta = s.beta or DecayEnvelope(1.0, float(sys.lambdas[0]))
    gain = float(np.linalg.norm(sys.input_gain_coeffs))
    gamma = s.gamma or linear(max(gain, 1e-6))
    iss_cert = ISSCertificate(beta=beta, gamma=gamma)
    if s.derive == "from_iss":
        nti_cert = derive_norm_to_integral(iss_cert)
    else:
        alpha = s.alpha or power(1.0 - s.epsilon, 2.0)
        psi = s.psi or power(op.operator_norm, 2.0)
        sigma = s.sigma or power(max(params.c_eps, 1e-6), 2.0)
        nti_cert = NormToIntegralCertificate(alpha=alpha, psi=psi, sigma=sigma)
    uls_sigma = s.uls_sigma or linear(beta.M)
    return _Resolved(sys, op, params, iss_cert, nti_cert, uls_sigma)


def run_scenario(s: Scenario, out_dir: str | None = None) -> RunReport:
    """Execute the requested checks in declared order and write the outputs.

    The checks on one budget share its draw and flow sweep, which the first
    check to ask for them makes.  So a check's ``seconds`` include the work
    it does for the checks after it (on the bundled pointwise scenarios
    identity draws the sample set and ISS sweeps the flow for ULS, ULIM and
    BRS), and a flow that fails in that shared sweep aborts the first check.
    """
    resolved = _resolve(s)
    entries = []
    with _shared_samples(ulim=[_ulim_args(s)] if "ulim" in s.checks else []):
        for name in s.checks:
            t0 = time.perf_counter()
            try:
                rep = _CHECKS[name](s, resolved)
            except Exception as exc:
                raise RuntimeError(f"check {name!r} aborted: {exc}") from exc
            seconds = time.perf_counter() - t0
            wfile = f"witness_{name}.csv" if rep.violated else None
            entries.append(CheckRun(name=name, report=rep, seconds=seconds,
                                    witness_file=wfile))
    run = RunReport(scenario_digest=s.digest(), version=f"isslab {__version__}",
                    entries=tuple(entries))
    emit_csv(run, out_dir or s.out_dir, resolved.sys, s)
    if s.write_trajectories:
        simulate_scenario(s, out_dir or s.out_dir)
    return run


def emit_csv(run: RunReport, out_dir: str, sys_: SpectralSystem, s: Scenario) -> None:
    """Write report.csv, margins.csv, the report lines and witness CSVs."""
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "report.csv"), "w", encoding="utf-8") as fh:
        fh.write("check,verdict,worst_margin,samples,seconds\n")
        for e in run.entries:
            fh.write(f"{e.name},{e.report.verdict.value},"
                     f"{format(e.report.worst_margin, '.17g')},"
                     f"{e.report.samples_checked},{e.seconds:.6f}\n")
    with open(os.path.join(out_dir, "margins.csv"), "w", encoding="utf-8") as fh:
        fh.write("check,sample_index,t,margin\n")
        for e in run.entries:
            for rec in e.report.margins:
                fh.write(f"{e.name},{rec.sample_index},{format(rec.t, '.17g')},"
                         f"{format(rec.margin, '.17g')}\n")
    with open(os.path.join(out_dir, "reports.txt"), "w", encoding="utf-8") as fh:
        for e in run.entries:
            fh.write(e.report.to_line(e.witness_file) + "\n")
    for e in run.entries:
        if e.witness_file is None:
            continue
        w = e.report.witness
        horizon = max(s.budget.horizon, w.t, 1e-6)
        grid = build_time_grid(horizon, w.input, extra=[w.t] if w.t > 0 else None)
        traj = sample_trajectory(sys_, w.x0, w.input, grid)
        write_trajectory_csv(traj, os.path.join(out_dir, e.witness_file))


def simulate_scenario(s: Scenario, out_dir: str | None = None) -> list[str]:
    """Write trajectory CSVs for the first ``SIMULATE_SLICE`` states times the
    first ``SIMULATE_SLICE`` inputs of the sample set."""
    sys_ = build_system(s)
    out = out_dir or s.out_dir
    os.makedirs(out, exist_ok=True)
    written = []
    for si in range(min(s.budget.n_states, SIMULATE_SLICE)):
        x0 = draw_state(sys_, s.budget, si)
        for sj in range(min(s.budget.n_inputs, SIMULATE_SLICE)):
            u = draw_input(s.budget, sj)
            # plotting-grade grid; the dense default is for quadrature
            grid = build_time_grid(s.budget.horizon, u, n_uniform=257, per_decade=12)
            traj = sample_trajectory(sys_, x0, u, grid)
            name = f"traj_s{si:02d}_u{sj:02d}.csv"
            write_trajectory_csv(traj, os.path.join(out, name))
            written.append(name)
    return written


# ---------------------------------------------------------------------------
# CLI


def bundled_scenario_path(name: str):
    return resources.files("isslab").joinpath("scenarios", name)


def load_scenario(path: str) -> Scenario:
    """Read a scenario from a file path or from the bundled set by name."""
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as fh:
            return parse_scenario(fh.read())
    bundled = bundled_scenario_path(os.path.basename(path))
    if bundled.is_file():
        return parse_scenario(bundled.read_text(encoding="utf-8"))
    raise ScenarioError(f"scenario file not found: {path}")


def _apply_overrides(s: Scenario, seed: int | None, modes: int | None) -> Scenario:
    if seed is not None:
        s = replace(s, budget=replace(s.budget, seed=seed))
    if modes is not None:
        if modes < 1:
            raise ScenarioError(f"--modes must be at least 1, got {modes}")
        if s.preset == "diagonal":
            if modes > len(s.lambdas):
                raise ScenarioError(f"--modes {modes} exceeds the {len(s.lambdas)} "
                                    "modes of the explicit spectrum")
            s = replace(s, lambdas=s.lambdas[:modes], b=s.b[:modes])
        else:
            s = replace(s, n_modes=modes)
        _validate_scenario(s)
    return s


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="isslab",
        description="Simulate truncated spectral control systems and probe "
                    "their stability estimates.")
    sub = parser.add_subparsers(dest="command", required=True)
    for cmd, helptext in (("simulate", "write trajectory CSVs only"),
                          ("check", "run the configured checker battery")):
        sp = sub.add_parser(cmd, help=helptext)
        sp.add_argument("scenario", help="scenario file path or bundled scenario name")
        sp.add_argument("--out", help="output directory (overrides output.dir)")
        sp.add_argument("--seed", type=int, help="override budget.seed")
        sp.add_argument("--modes", type=int, help="override the truncation order")
    args = parser.parse_args(argv)
    try:
        scenario = _apply_overrides(load_scenario(args.scenario), args.seed, args.modes)
        if args.command == "simulate":
            written = simulate_scenario(scenario, args.out)
            print(f"wrote {len(written)} trajectories to "
                  f"{args.out or scenario.out_dir}")
            return 0
        run = run_scenario(scenario, args.out)
        for e in run.entries:
            print(f"{e.name}: {e.report.verdict.value} "
                  f"(worst margin {e.report.worst_margin:.6g}, "
                  f"{e.report.samples_checked} samples, {e.seconds:.3f}s)")
        return 1 if run.any_violated else 0
    except ScenarioError as exc:
        print(f"configuration error: {exc}", file=_sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=_sys.stderr)
        return 3
    except Exception as exc:  # pragma: no cover - defensive
        print(f"runtime error: {exc}", file=_sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
