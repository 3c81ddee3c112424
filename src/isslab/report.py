"""Structured pass/fail results produced by the stability checkers.

Every checker is a falsifier: it can refute a universally quantified
inequality by exhibiting a witness, but a clean sweep only means that no
violation was found within the sampled budget.  Reports therefore carry the
worst margin seen, the number of samples scanned and, when the verdict is
``violated``, a witness (x0, u, t) that reproduces a negative margin when
re-evaluated on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ValidationError
from .system import InputSignal


class Verdict(str, Enum):
    NO_VIOLATION_FOUND = "no_violation_found"
    VIOLATED = "violated"


class CheckProperty(str, Enum):
    ISS = "ISS"
    NORM_TO_INTEGRAL_ISS = "NormToIntegralISS"
    INTEGRAL_TO_INTEGRAL_ISS = "IntegralToIntegralISS"
    ULS = "ULS"
    ULIM = "ULIM"
    CEP = "CEP"
    BRS = "BRS"
    DISSIPATION = "Dissipation"
    COCYCLE = "Cocycle"
    IDENTITY = "Identity"


@dataclass(frozen=True)
class Witness:
    """A concrete (x0, u, t) at which the checked inequality fails."""

    x0: np.ndarray
    input: InputSignal
    t: float
    margin: float

    def __post_init__(self):
        arr = np.array(self.x0, dtype=float, copy=True)
        arr.setflags(write=False)
        object.__setattr__(self, "x0", arr)


@dataclass(frozen=True)
class MarginRecord:
    """Worst margin of one sample, at the time where it was attained."""

    sample_index: int
    t: float
    margin: float


@dataclass(frozen=True)
class StabilityReport:
    property: CheckProperty
    verdict: Verdict
    worst_margin: float
    samples_checked: int
    witness: Witness | None = None
    margins: tuple[MarginRecord, ...] = ()
    notes: str = ""

    def __post_init__(self):
        if self.verdict is Verdict.VIOLATED and self.witness is None:
            raise ValueError("a violated report must carry a witness")

    @property
    def violated(self) -> bool:
        return self.verdict is Verdict.VIOLATED

    def to_line(self, witness_file: str | None = None) -> str:
        """Serialize to ``property,verdict,worst_margin,samples[,witness_file]``."""
        fields = [self.property.value, self.verdict.value,
                  format(self.worst_margin, ".17g"), str(self.samples_checked)]
        if witness_file is not None:
            fields.append(witness_file)
        return ",".join(fields)


def conclude(prop: CheckProperty, picks, notes: str = "") -> StabilityReport:
    """Assemble a report from one pick ``(sample_index, t, margin, tol, x0, u)``
    per sample, in sample order.

    The margins become the records and the worst margin.  The witness is the
    first pick whose margin is the smallest of those below their ``-tol``.  A
    non-finite margin, which every tolerance test would pass, raises.
    """
    records, witness = [], None
    for idx, t, margin, tol, x0, u in picks:
        if not math.isfinite(margin):
            raise ValidationError(f"{prop.value}: non-finite margin {margin!r} "
                                  f"at sample {idx}")
        records.append(MarginRecord(idx, float(t), float(margin)))
        if margin < -tol and (witness is None or margin < witness.margin):
            witness = Witness(x0=x0, input=u, t=float(t), margin=float(margin))
    worst = min((r.margin for r in records), default=0.0)
    verdict = Verdict.VIOLATED if witness is not None else Verdict.NO_VIOLATION_FOUND
    return StabilityReport(property=prop, verdict=verdict, worst_margin=float(worst),
                           samples_checked=len(records), witness=witness,
                           margins=tuple(records), notes=notes)
