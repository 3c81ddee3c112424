"""The golden-output corpus: the one list of end-to-end ``isslab`` runs.  It
keeps the SHA-256 of every output of each run, so that one test
(``test_golden.py``) checks that a change keeps outputs byte-identical and
that no run imports scipy or ``numpy.ma``.

The runs, made in-process through ``harness.main`` under a scratch directory:

* ``check`` of the bundled scenarios;
* ``check`` of each benchmark workload's full battery at seeds 1-3, as
  ``bench/workloads.py`` generates it;
* ``check`` of three integral scenarios on the default system: a Simpson
  alpha, ``certificate.derive = from_iss``, and that derive beside an alpha
  of its own, which exits 2;
* ``check`` past 128 modes, where numpy's pairwise sum splits a row:
  ``heat_iss.scn --modes 1024`` (split three times) and a battery at N =
  300 (split once, at 144);
* ``check`` of single-purpose scenarios (under ``smoke/``): trajectories
  of a b_k = 0 system and at N = 256, CEP's table at radius 1e-125 and on
  a gain of about 600 (at radius 1 and 1e-125), CEP at ``checks.cep_h`` =
  the horizon, a saturation gain, the radii 1e100 and 1e-300, the horizons
  1e17 and 1e304, CEP at the radius 2**-1022, and others; and those that
  exit 2 on an overflow, a subnormal radius, a CEP delta that rounds to 0,
  an alpha too large, a horizon too long or a check listed twice;
* ``replay`` of every witness record those runs write;
* ``simulate`` of ``heat_iss.scn`` and of the scenario ``gain_zero``;
* the runs that exit 2 on an argument, a record or a file (``_refused``):
  ``--modes 0``, a record replayed on another scenario, a cocycle record, a
  record whose input overflows, a file that is not UTF-8, a directory, a
  missing path whose last part names a bundled scenario, and the unknown
  keys ``checks.brs_c`` and ``checks.brs_tau`` (BRS runs on the budget's ball).

Each run's stdout, stderr and exit code are kept beside its output files
(``<name>.stdout``, ``.stderr``, ``.exit``).  ``report.csv`` is hashed
without its ``seconds`` column, and ``check``'s stdout without its timings.

    python tests/golden_corpus.py

rewrites ``tests/golden/digests.txt`` from the current code; a change that
moves outputs on purpose runs it and lists the files that changed.  A new
end-to-end run goes here and nowhere else.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import os
import re
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "golden" / "digests.txt"
SEEDS = (1, 2, 3)
BUNDLED = ("heat_iss", "heat_bad_gain", "datko_vs_neginverse", "diagonal_custom")
INTEGRAL = {
    "simpson": "certificate.alpha = power(0.5, 1.0)\n"
               "checks.names = norm_to_integral, integral_to_integral\n",
    "from_iss": "certificate.derive = from_iss\n"
                "checks.names = norm_to_integral, integral_to_integral\n",
    "from_iss_alpha": "certificate.derive = from_iss\ncertificate.alpha = power(1e6, 2.0)\n"
                      "checks.names = norm_to_integral\n",
}
SMOKE = {
    "battery": "certificate.gamma = linear(0.1)\nchecks.names = iss, uls, ulim, brs\n",
    "integral_mutant": "certificate.sigma = power(0.01, 2.0)\n"
                       "checks.names = norm_to_integral, integral_to_integral\n",
    "datko": "lyapunov.construction = datko\n"
             "checks.names = dissipation, norm_to_integral, integral_to_integral\n",
    "diffusivity": "system.a = 100\nchecks.names = dissipation\n",
    "long": "budget.horizon = 1e17\nchecks.names = identity\n",
    "huge": "budget.horizon = 1e304\nchecks.names = identity, cocycle\n",
    "huge_integral": "budget.horizon = 1e304\n"
                     "checks.names = brs, norm_to_integral, integral_to_integral\n",
    "ulim256": "system.n_modes = 256\ncertificate.gamma = linear(0.1)\nchecks.names = iss, ulim\n",
    "trajectories256": "system.n_modes = 256\ncertificate.gamma = linear(0.1)\n"
                       "checks.names = iss, ulim\noutput.trajectories = true\n",
    "sparse_ulim": "system.n_modes = 256\ncertificate.gamma = linear(0.1)\nbudget.n_times = 3\n"
                   "checks.names = ulim, iss\n",
    "huge_ulim": "budget.horizon = 1e304\nchecks.names = ulim\n",
    "cep_radius": "budget.radius = 0.3\nchecks.cep_h = 0.7\n"
                  "checks.names = identity, cocycle, iss, uls, ulim, brs, cep\n",
    "cep_levels": "budget.radius = 1e-125\nchecks.cep_h = 0.7\nchecks.names = cep, iss\n",
    "cep_violated": "system.preset = diagonal\nsystem.lambdas = 1, 2, 3\n"
                    "system.b = 600, -20, 3\nchecks.names = cep\n",
    "cep_violated_levels": "system.preset = diagonal\nsystem.lambdas = 1, 2, 3\n"
                           "system.b = 600, -20, 3\nbudget.radius = 1e-125\nchecks.names = cep\n",
    "cep_at_horizon": "checks.cep_h = 2.0\nchecks.names = iss, brs, cep\n",
    "cep_radius_floor": f"budget.radius = {2.0 ** -1022!r}\nchecks.names = cep\n",
    "saturation_gain": "certificate.gamma = saturation(0.5, 1.0)\nchecks.names = iss, uls, ulim\n",
    "gain_zero": "system.preset = diagonal\nsystem.lambdas = 1, 4, 9, 16, 25\n"
                 "system.b = 1, 0.0, -2, 3, 0.5\nchecks.names = iss, uls, ulim, brs, cep\n"
                 "output.trajectories = true\n",
    "overflow": "lyapunov.epsilon = 1e-320\nchecks.names = iss\n",
    "overflow_a": "system.a = 1e305\nchecks.names = iss\n",
    "subnormal": "budget.radius = 5e-324\n",
    "cep_underflow": "system.preset = diagonal\nsystem.lambdas = 1, 2\nsystem.b = 1e30, 1\n"
                     "budget.radius = 1e-300\nchecks.names = cep, iss\n",
    "alpha": "certificate.alpha = power(1e300, 2.0)\nbudget.radius = 1e100\n"
             "checks.names = norm_to_integral\n",
    "horizon": "budget.horizon = 1.7e308\n",
    "duplicate_check": "checks.names = iss, iss\n",
}
#: past 128 modes: a battery with witnesses at N = 300 and the bundled heat_iss.scn at N = 1024
WIDE = {
    "battery_300": "system.n_modes = 300\ncertificate.gamma = linear(0.1)\n"
                   "certificate.alpha = power(0.5, 1.0)\n"
                   "checks.names = iss, uls, ulim, brs, cep, norm_to_integral\n",
}
WIDE_MODES = {"heat_iss_1024": ("heat_iss.scn", 1024)}
_TIMING = re.compile(r", [0-9.]+s\)$", re.MULTILINE)


def _workloads():
    spec = importlib.util.spec_from_file_location("_golden_workloads",
                                                  ROOT / "bench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module   # dataclasses look their module up
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.WORKLOADS


def _scenarios() -> dict[str, str]:
    """Name -> scenario text (or the bundled scenario's file name)."""
    out = {f"bundled/{name}": f"{name}.scn" for name in BUNDLED}
    for workload in _workloads().values():
        for seed in SEEDS:
            for i, text in enumerate(workload.scenario_texts(seed, "full")):
                out[f"{workload.name}/seed{seed}_{i:02d}"] = text
    out.update({f"integral/{name}": text for name, text in INTEGRAL.items()})
    out.update({f"smoke/{name}": text for name, text in SMOKE.items()})
    out.update({f"wide/{name}": text for name, text in WIDE.items()})
    heat = (ROOT / "src" / "isslab" / "scenarios" / "heat_iss.scn").read_text(encoding="utf-8")
    for radius in ("1e100", "1e-300"):   # heat_iss.scn at another radius
        text = re.sub(r"(?m)^budget\.radius = .*$", f"budget.radius = {radius}", heat)
        out[f"smoke/radius_{radius}"] = re.sub(
            r"(?m)^checks\.names = .*$", "checks.names = iss, uls, ulim, brs, cep", text)
    return out


def _run(argv: list[str], name: str) -> None:
    """``isslab <argv>`` in-process; its stdout, stderr and exit code go to
    ``name.stdout``, ``name.stderr`` and ``name.exit``.  A RuntimeWarning is
    an error, so that no output depends on the caller's warning filters."""
    from isslab.harness import main
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    for ext, text in (("stdout", stdout.getvalue()), ("stderr", stderr.getvalue()),
                      ("exit", f"{code}\n")):
        Path(f"{name}.{ext}").write_text(text, encoding="utf-8")


def generate(root: Path) -> None:
    """Make every run of the corpus under ``root``: the scenario files under
    ``root/scenarios``, the outputs under ``root/out``."""
    cwd = os.getcwd()
    os.chdir(root)   # relative paths, so that no message names root
    try:
        for name, text in _scenarios().items():
            path = text if text.endswith(".scn") else f"scenarios/{name}.scn"
            if path != text:
                os.makedirs(os.path.dirname(path), exist_ok=True)
                Path(path).write_text(text, encoding="utf-8")
            out = f"out/{name}"
            os.makedirs(out, exist_ok=True)
            _run(["check", path, "--out", out], f"{out}/check")
            for witness in sorted(Path(out).glob("witness_*.csv")):
                if not witness.stem.endswith("_trajectory"):
                    _run(["replay", path, str(witness)], f"{out}/replay_{witness.stem}")
        for name, (path, modes) in WIDE_MODES.items():
            out = f"out/wide/{name}"
            os.makedirs(out, exist_ok=True)
            _run(["check", path, "--modes", str(modes), "--out", out], f"{out}/check")
        _run(["simulate", "heat_iss.scn", "--out", "out/simulate"], "out/simulate/simulate")
        _run(["simulate", "scenarios/smoke/gain_zero.scn", "--out", "out/smoke/simulate_gain_zero"],
             "out/smoke/simulate_gain_zero/simulate")
        _refused()
    finally:
        os.chdir(cwd)


def _refused() -> None:
    """The runs that exit 2 on an argument, a record or a file, each under
    ``out/refused/<name>``; their files are made under ``scenarios/refused``,
    the records by editing those of the runs before."""
    src = Path("scenarios/refused")
    os.makedirs(src / "scenario_dir", exist_ok=True)
    (src / "not_utf8.scn").write_bytes(b"\xff\n")
    mutant = Path("out/smoke/integral_mutant/witness_integral_to_integral.csv")
    (src / "cocycle.csv").write_text(
        re.sub(r"\A.*", "check,cocycle", mutant.read_text(encoding="utf-8")), encoding="utf-8")
    bad = Path("out/bundled/heat_bad_gain/witness_iss.csv")
    record = bad.read_text(encoding="utf-8")
    for pattern, line in ((r"\A.*", "check,dissipation"),
                          (r"(?m)^breakpoints,.*$", "breakpoints,0,2"),
                          (r"(?m)^values,.*$", "values,1e300")):
        record = re.sub(pattern, line, record)
    (src / "overflow_record.csv").write_text(record, encoding="utf-8")
    for key in ("brs_c", "brs_tau"):
        (src / f"{key}_key.scn").write_text(f"checks.names = brs\nchecks.{key} = 1.0\n",
                                            encoding="utf-8")
    runs = {
        "modes_0": ["check", "heat_iss.scn", "--modes", "0"],
        "other_scenario": ["replay", "heat_iss.scn", str(bad)],
        "cocycle_record": ["replay", "scenarios/smoke/integral_mutant.scn", f"{src}/cocycle.csv"],
        "overflow_record": ["replay", "heat_bad_gain.scn", f"{src}/overflow_record.csv"],
        "not_utf8": ["check", f"{src}/not_utf8.scn"],
        "scenario_dir": ["check", f"{src}/scenario_dir"],
        "missing_dir": ["check", "no/such/dir/heat_bad_gain.scn"],
        "brs_c_key": ["check", f"{src}/brs_c_key.scn"],
        "brs_tau_key": ["check", f"{src}/brs_tau_key.scn"],
    }
    for name, argv in runs.items():
        out = f"out/refused/{name}"
        os.makedirs(out, exist_ok=True)
        _run(argv + (["--out", out] if argv[0] == "check" else []), f"{out}/{argv[0]}")


def _normalized(path: Path) -> bytes:
    """A file's bytes, less what a run's timing moves."""
    data = path.read_bytes()
    if path.name == "report.csv":
        return b"".join(line.rpartition(b",")[0] + b"\n" for line in data.splitlines())
    if path.name == "check.stdout":
        return _TIMING.sub(")", data.decode("utf-8")).encode("utf-8")
    return data


def digests(root: Path) -> dict[str, str]:
    """Relative path (under ``root/out``) -> SHA-256 of every output file."""
    out = root / "out"
    return {p.relative_to(out).as_posix(): hashlib.sha256(_normalized(p)).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def read_digests(path: Path = DIGESTS) -> dict[str, str]:
    rows = (line.split("  ", 1) for line in path.read_text(encoding="utf-8").splitlines())
    return {name: digest for digest, name in rows}


def write_digests(table: dict[str, str], path: Path = DIGESTS) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(f"{d}  {name}\n" for name, d in sorted(table.items())),
                    encoding="utf-8")


def main() -> int:
    import tempfile
    with tempfile.TemporaryDirectory() as tmp:
        generate(Path(tmp))
        table = digests(Path(tmp))
    old = read_digests() if DIGESTS.exists() else {}
    changed = sorted(n for n in table.keys() | old.keys() if table.get(n) != old.get(n))
    write_digests(table)
    print(f"wrote {len(table)} digests to {DIGESTS.relative_to(ROOT)}; "
          f"{len(changed)} changed")
    for name in changed:
        print(f"  {name}")
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    raise SystemExit(main())
