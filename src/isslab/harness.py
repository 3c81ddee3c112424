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

Three verbs are exposed.  ``isslab simulate <scenario>`` writes trajectory
CSVs for a deterministic slice of the sample set.  ``isslab check <scenario>``
runs the requested checker battery and writes ``report.csv`` (one row per
check), ``margins.csv`` (one row per sample), ``reports.txt`` and a witness
record ``witness_<check>.csv`` for every violated check; with
``output.trajectories = true`` it also writes the trajectory CSVs of
``simulate`` and the dense trajectory of every witness.  ``isslab replay
<scenario> <witness.csv>`` re-runs a witness record's check on a sample set
that holds only the record's pair.  Exit codes: 0 success, 1 violation found
(for ``replay``: the violation reproduces), 2 configuration error, 3 runtime
error (for ``replay``: the violation does not reproduce).
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
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import __version__
from .checkers import (_REACH_CAP, CEP_LEVELS, ULIM_GRID_POINTS, SampleBudget, _cep_table,
                       _shared_samples, check_brs, check_cep, check_cocycle,
                       check_dissipation, check_identity, check_iss,
                       check_integral_to_integral, check_norm_to_integral, check_ulim,
                       check_uls, draw_input, draw_state)
from .comparison import (ComparisonFunction, DecayEnvelope, ISSCertificate,
                         NormToIntegralCertificate, _read_token, derive_norm_to_integral,
                         evaluate, linear, parse_comparison, power)
from .errors import DomainError, ScenarioError, ValidationError
from .lyapunov import (DATKO, NEG_INVERSE, DissipationParameters, LyapunovOperator,
                       build_datko, build_neg_inverse, dissipation_constants)
from .report import MarginRecord, StabilityReport, Witness
from .system import (CSV_FMT, InputSignal, SpectralSystem, build_time_grid, heat_dirichlet,
                     sample_trajectory, write_trajectory_csv)

SIMULATE_SLICE = 4  # ``simulate`` writes the first 4 states times the first 4 inputs
#: Cap on a scenario's work, in flow entries (one state, one mode, one time):
#: about 1.3 s per pointwise sweep at 5 ns per entry (check_iss, 2-vCPU x86).
MAX_WORK = 2 ** 28
#: Per-pair and per-time overhead of a sweep (norm, bound, margin), in flow
#: entries: about 100 ns, as long as 20 modes, in the same measurement.
_PAIR_TIME_COST = 20
#: A replayed witness margin reproduces its record within this relative error.
REPLAY_RTOL = 1e-12

_KEY_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_.]*)\s*=(.*)$")


@dataclass(frozen=True)
class Scenario:
    """Fully validated configuration of one experiment."""

    preset: str = "heat_dirichlet"
    a: float = 1.0
    n_modes: int = 64
    lambdas: tuple[float, ...] | None = None
    b: tuple[float, ...] | None = None
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

    @property
    def witness_file(self) -> str | None:
        return f"witness_{self.name}.csv" if self.report.violated else None


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


#: The Lyapunov constructions by their ``lyapunov.construction`` name.
_CONSTRUCTIONS = {NEG_INVERSE: build_neg_inverse, DATKO: build_datko}

#: Every check in canonical order: name -> run(scenario, resolved).
_CHECKS = {
    "identity": lambda s, r: check_identity(r.sys, s.budget),
    "cocycle": lambda s, r: check_cocycle(r.sys, s.budget),
    "iss": lambda s, r: check_iss(r.sys, r.iss, s.budget),
    "uls": lambda s, r: check_uls(r.sys, r.uls_sigma, r.iss.gamma, s.budget),
    "ulim": lambda s, r: check_ulim(r.sys, r.iss.gamma, s.ulim_eps, s.budget),
    "brs": lambda s, r: check_brs(r.sys, s.budget),
    "cep": lambda s, r: check_cep(r.sys, s.budget, s.cep_h),
    "dissipation": lambda s, r: check_dissipation(r.sys, r.op, r.params, s.budget),
    "norm_to_integral": lambda s, r: check_norm_to_integral(r.sys, r.nti, s.budget),
    "integral_to_integral": lambda s, r: check_integral_to_integral(r.sys, r.nti, s.budget),
}
CHECK_NAMES = tuple(_CHECKS)
#: The checks whose margin rests on more than a record holds, so that their
#: witnesses are not replayed: cocycle draws (t, h) per pair index, and CEP
#: is decided, one margin per level, and writes no witness.
_UNREPLAYABLE = ("cocycle", "cep")


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
    return _read_token(raw, {"decay": (DecayEnvelope, ("M", "omega"))})


def _one_of(*options: str):
    def parse(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"expects one of {', '.join(options)}, got {raw!r}")
        return raw
    return parse


def _check_names(raw: str) -> tuple[str, ...]:
    names = _items(raw)
    for i, name in enumerate(names):
        if name not in CHECK_NAMES:
            raise ValueError(f"unknown check {name!r}")
        if name in names[:i]:
            raise ValueError(f"duplicate check {name!r}")
    return names


def _k_infinity(raw: str) -> ComparisonFunction:
    fn = parse_comparison(raw)
    if not fn.unbounded:
        raise ValueError(f"must be of class K-infinity, got {fn.describe()}")
    return fn


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
    ("lyapunov.construction", "construction", _one_of(*_CONSTRUCTIONS), str),
    ("lyapunov.epsilon", "epsilon", _number, repr),
    ("certificate.beta", "beta", _decay, DecayEnvelope.describe),
    *((f"certificate.{name}", name, parse, ComparisonFunction.describe)
      for name, parse in (("gamma", parse_comparison), ("alpha", parse_comparison),
                          ("psi", _k_infinity), ("sigma", _k_infinity),
                          ("uls_sigma", parse_comparison))),
    ("certificate.derive", "derive", _one_of("none", "from_iss"), str),
    ("checks.names", "checks", _check_names, ", ".join),
    ("checks.ulim_eps", "ulim_eps", _positive, repr),
    ("checks.cep_h", "cep_h", _positive, repr),
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
_OPTIONAL = {"beta", "gamma", "alpha", "psi", "sigma", "uls_sigma", "derive"}
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
    """Refuse a scenario that cannot run: the rules on values belong to the
    constructors that ``_resolve`` calls; the harness adds its own caps."""
    if s.preset == "diagonal" and (s.lambdas is None or s.b is None):
        raise ScenarioError("diagonal systems need system.lambdas and system.b",
                            key="system.lambdas")
    work = _work(s)
    if work > MAX_WORK:
        raise ScenarioError(f"the budget asks for {work} flow entries per sweep, above the "
                            f"cap {MAX_WORK}; lower budget.n_states, budget.n_inputs, "
                            "budget.n_times or the number of modes")
    try:
        res = _resolve(s)
    except (ValidationError, DomainError) as exc:
        raise ScenarioError(str(exc)) from None
    except RuntimeWarning as exc:   # raised under -W error::RuntimeWarning
        raise ScenarioError(f"building the scenario failed: {exc}") from None
    # below 2**-1022 the halved horizon and the states drawn at the radius can round to 0
    for key, v in (("budget.horizon", s.budget.horizon), ("budget.radius", s.budget.radius)):
        if v < _sys.float_info.min:
            raise ScenarioError(f"{key} = {v!r} is too small: it is below 2**-1022, "
                                "the smallest normal double", key=key)
    # |phi| <= r (1 + |A^-1 B|); far above 2**400 the squares of the norms overflow
    gain = 1.0 + res.sys.input_gain_norm
    if s.budget.radius * gain > _REACH_CAP:
        raise ScenarioError(f"budget.radius = {s.budget.radius!r} is too large: budget.radius "
                            f"* (1 + |A^-1 B|) = {s.budget.radius * gain:.3g} exceeds 2**400",
                            key="budget.radius")
    # CEP's smallest delta, at its last level, must not round to 0
    if "cep" in s.checks and _cep_table(res.sys, s.budget.radius, s.cep_h)[1][-1][1] == 0.0:
        raise ScenarioError(f"budget.radius = {s.budget.radius!r} is too small for cep: "
                            f"its smallest delta, budget.radius * 2**-{CEP_LEVELS - 1} / "
                            "(1 + kappa(checks.cep_h)), rounds to 0", key="budget.radius")
    # each bound a certificate check compares with, and horizon * alpha(|phi|), where
    # largest on the budget ball, from which those checks draw: an overflow is an
    # infinite margin
    r, h = s.budget.radius, s.budget.horizon
    with np.errstate(over="ignore", invalid="ignore"):
        alone = {"sigma": evaluate(res.nti.sigma, r), "alpha": evaluate(res.nti.alpha, r * gain)}
        largest = {"beta": res.iss.beta(r, 0.0), "gamma": evaluate(res.iss.gamma, r),
                   "uls_sigma": evaluate(res.uls_sigma, r), "psi": evaluate(res.nti.psi, r),
                   "sigma": h * alone["sigma"], "alpha": h * alone["alpha"]}
    for terms in (("beta", "gamma"), ("uls_sigma", "gamma"), ("psi", "sigma"), ("alpha",)):
        if not math.isfinite(sum(largest[t] for t in terms)):
            # name the term that overflows (the horizon if the term alone does not), or both
            bad = [t for t in terms if not math.isfinite(largest[t])] or terms
            key = what = " + ".join(f"certificate.{t}" for t in bad)
            if len(bad) == 1 and math.isfinite(alone.get(bad[0], math.inf)):
                key, what = "budget.horizon", f"budget.horizon = {h!r} times {what}"
            raise ScenarioError(f"{what} overflows on the ball budget.radius = {r!r}: it "
                                "is not finite where it is largest there", key=key)


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
        return SpectralSystem(np.asarray(s.lambdas), np.asarray(s.b))
    return heat_dirichlet(s.a, s.n_modes)


def _resolve(s: Scenario) -> _Resolved:
    """Build the system and fill missing certificate pieces with sound defaults."""
    sys = build_system(s)
    op = _CONSTRUCTIONS[s.construction](sys)
    params = dissipation_constants(op, sys, s.epsilon)
    beta = s.beta or DecayEnvelope(1.0, float(sys.lambdas[0]))
    gain = sys.input_gain_norm
    gamma = s.gamma or linear(max(gain, 1e-6))
    iss_cert = ISSCertificate(beta=beta, gamma=gamma)
    if s.derive == "from_iss":
        for key in ("alpha", "psi", "sigma"):
            if getattr(s, key) is not None:
                raise ValidationError(f"certificate.{key} is not read with certificate.derive "
                                      "= from_iss, which derives it; set one or the other")
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

    The checks on one budget share its draw, flow sweep and integral table,
    which the first check to ask for them makes.  So a check's ``seconds``
    include the work it does for the checks after it (on the bundled
    pointwise scenarios identity draws the sample set and its anchor table,
    and ISS sweeps the flow for ULS, ULIM and BRS; norm_to_integral builds
    integral_to_integral's table), and a flow that fails in shared work
    aborts the first check.
    """
    resolved = _resolve(s)
    entries = []
    with _shared_samples():
        for name in s.checks:
            t0 = time.perf_counter()
            try:
                rep = _CHECKS[name](s, resolved)
            except Exception as exc:
                raise RuntimeError(f"check {name!r} aborted: {exc}") from exc
            entries.append(CheckRun(name=name, report=rep, seconds=time.perf_counter() - t0))
    run = RunReport(scenario_digest=s.digest(), version=f"isslab {__version__}",
                    entries=tuple(entries))
    emit_csv(run, out_dir or s.out_dir, resolved.sys, s)
    if s.write_trajectories:
        simulate_scenario(s, out_dir or s.out_dir)
    return run


def _formatted(values: np.ndarray) -> list[str]:
    """``format(v, CSV_FMT)`` of each value, made once per distinct bit
    pattern, ``-0.0`` apart from ``0.0``."""
    bits = values.view(np.int64).tolist()
    strs = {b: format(v, CSV_FMT) for b, v in dict(zip(bits, values.tolist())).items()}
    return [strs[b] for b in bits]


def emit_csv(run: RunReport, out_dir: str, sys_: SpectralSystem, s: Scenario) -> None:
    """Write report.csv, margins.csv, the report lines and a witness record
    per violated check; with ``output.trajectories = true``, also each
    witness's dense trajectory as ``witness_<check>_trajectory.csv``."""
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
            n = e.report.samples_checked   # "%.17g" is format(m, ".17g")
            fh.write(f"{e.name},%d,%s,%.17g\n" * n % tuple(chain.from_iterable(zip(
                range(n), _formatted(e.report.record_t), e.report.record_margin.tolist()))))
    with open(os.path.join(out_dir, "reports.txt"), "w", encoding="utf-8") as fh:
        for e in run.entries:
            fh.write(e.report.to_line(e.witness_file) + "\n")
    for e in run.entries:
        if e.witness_file is None:
            continue
        w = e.report.witness
        write_witness(os.path.join(out_dir, e.witness_file), e.name, run.scenario_digest, w)
        if s.write_trajectories:
            horizon = max(s.budget.horizon, w.t, 1e-6)
            grid = build_time_grid(horizon, w.input, extra=[w.t] if w.t > 0 else None)
            traj = sample_trajectory(sys_, w.x0, w.input, grid)
            write_trajectory_csv(traj, os.path.join(out_dir,
                                                    f"witness_{e.name}_trajectory.csv"))


# ---------------------------------------------------------------------------
# witness records

#: The lines of a witness record, in order: each is the field name followed
#: by its comma-separated values, every number written with 17 significant
#: digits, which reads back to the same double.
_RECORD_FIELDS = ("check", "scenario_digest", "t", "margin", "x0", "breakpoints", "values")


def write_witness(path, check: str, digest: str, w: Witness) -> None:
    """Write the record from which ``replay`` re-evaluates the witness."""
    def numbers(values) -> str:
        return "".join("," + v for v in _formatted(np.asarray(values, dtype=float)))
    lines = [f"check,{check}", f"scenario_digest,{digest}",
             f"t{numbers([w.t])}", f"margin{numbers([w.margin])}", f"x0{numbers(w.x0)}",
             f"breakpoints{numbers(w.input.breakpoints)}", f"values{numbers(w.input.values)}"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def read_witness(path) -> tuple[str, str, Witness]:
    """The check name, the scenario digest and the witness of a record
    written by :func:`write_witness`; a malformed record raises
    :class:`ScenarioError`."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except FileNotFoundError:
        raise ScenarioError(f"witness record not found: {path}") from None
    except OSError as exc:
        raise ScenarioError(f"cannot read the witness record {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"malformed witness record {path}: {exc}") from None
    rows = [line.partition(",")[::2] for line in lines]
    if tuple(name for name, _ in rows) != _RECORD_FIELDS:
        raise ScenarioError(f"malformed witness record {path}: expected the lines "
                            f"{', '.join(_RECORD_FIELDS)}")
    fields = dict(rows)
    try:
        if fields["check"] not in CHECK_NAMES:
            raise ValueError(f"unknown check {fields['check']!r}")
        (t,), (margin,) = _numbers(fields["t"]), _numbers(fields["margin"])
        u = InputSignal.piecewise(_numbers(fields["breakpoints"]), _numbers(fields["values"]))
        witness = Witness(x0=np.array(_numbers(fields["x0"])), input=u, t=t, margin=margin)
    except ValueError as exc:   # ValidationError is a ValueError
        raise ScenarioError(f"malformed witness record {path}: {exc}") from None
    return fields["check"], fields["scenario_digest"], witness


def replay_witness(s: Scenario, path) -> tuple[str, MarginRecord, Witness]:
    """Re-run a witness record's check on its scenario, on a sample set that
    holds only the record's pair: ``(check, the pair's margin record, the
    recorded witness)``."""
    check, digest, w = read_witness(path)
    if digest != s.digest():
        raise ScenarioError(f"the witness record {path} is of scenario {digest}, "
                            f"not of this scenario ({s.digest()})")
    if check in _UNREPLAYABLE:
        raise ScenarioError(f"check {check!r} is not replayed: its margin rests on "
                            "more than the record's pair")
    res = _resolve(s)
    if w.x0.shape != (res.sys.n_modes,):
        raise ScenarioError(f"malformed witness record {path}: x0 has {w.x0.size} "
                            f"values, the system {res.sys.n_modes} modes")
    # the cap _validate_scenario puts on budget.radius; hypot does not overflow
    reach = max(math.hypot(*w.x0.tolist()), w.input.sup_norm) * (1.0 + res.sys.input_gain_norm)
    if reach > _REACH_CAP:
        raise ScenarioError(f"malformed witness record {path}: max(|x0|, |u|_inf) * "
                            f"(1 + |A^-1 B|) = {reach:.3g} exceeds 2**400")
    try:
        with _shared_samples(pair=(w.x0, w.input)):
            (record,) = _CHECKS[check](s, res).margins
    except ValidationError as exc:   # the scenario is valid, so the record is not
        raise ScenarioError(f"malformed witness record {path}: {exc}") from None
    return check, record, w


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
    """Read a scenario from a file path or, by bare name, from the bundled set."""
    if os.path.exists(path):
        try:
            with open(path, "r", encoding="utf-8") as fh:
                return parse_scenario(fh.read())
        except (OSError, UnicodeDecodeError) as exc:   # a directory, or not UTF-8 text
            raise ScenarioError(f"cannot read the scenario file {path}: {exc}") from None
    if os.path.basename(path) == path and (bundled := bundled_scenario_path(path)).is_file():
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
                          ("check", "run the configured checker battery"),
                          ("replay", "re-evaluate a witness record of 'check'")):
        sp = sub.add_parser(cmd, help=helptext)
        sp.add_argument("scenario", help="scenario file path or bundled scenario name")
        if cmd == "replay":
            sp.add_argument("witness", help="a witness_<check>.csv written by 'check'")
        else:
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
        if args.command == "replay":
            check, replayed, w = replay_witness(scenario, args.witness)
            reproduced = (replayed.t == w.t and replayed.margin < 0.0
                          and abs(replayed.margin - w.margin) <= REPLAY_RTOL * abs(w.margin))
            print(f"{check}: replayed margin {replayed.margin:.17g} at t = {replayed.t:.17g}, "
                  f"recorded margin {w.margin:.17g} at t = {w.t:.17g}: the violation "
                  + ("reproduces" if reproduced else "does not reproduce"))
            return 1 if reproduced else 3
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
