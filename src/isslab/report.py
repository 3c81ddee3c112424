"""Structured pass/fail results produced by the stability checkers.

Every checker is a falsifier: it can refute a universally quantified
inequality by exhibiting a witness, but a clean sweep only means that no
violation was found within the sampled budget.  Reports therefore carry the
worst margin seen, the number of samples scanned and, when the verdict is
``violated``, a witness (x0, u, t) that reproduces a negative margin when
re-evaluated on its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
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
    """A check's witness, if any, and each sample's time and margin, in sample
    order: as arrays, and as the records ``margins``.  The verdict (violated
    iff a witness is set) and the worst margin follow from them."""

    property: CheckProperty
    record_t: np.ndarray
    record_margin: np.ndarray
    witness: Witness | None = None
    notes: str = ""

    @property
    def verdict(self) -> Verdict:
        return Verdict.NO_VIOLATION_FOUND if self.witness is None else Verdict.VIOLATED

    @property
    def violated(self) -> bool:
        return self.witness is not None

    @cached_property
    def worst_margin(self) -> float:
        # the first of the smallest, as min() takes it: 0.0 before a later -0.0
        margin = self.record_margin
        return float(margin[np.argmin(margin)]) if margin.size else 0.0

    @property
    def samples_checked(self) -> int:
        return len(self.record_margin)

    @cached_property
    def margins(self) -> tuple[MarginRecord, ...]:
        return tuple(map(MarginRecord, range(self.samples_checked), self.record_t.tolist(),
                         self.record_margin.tolist()))

    def to_line(self, witness_file: str | None = None) -> str:
        """Serialize to ``property,verdict,worst_margin,samples[,witness_file]``."""
        fields = [self.property.value, self.verdict.value,
                  format(self.worst_margin, ".17g"), str(self.samples_checked)]
        if witness_file is not None:
            fields.append(witness_file)
        return ",".join(fields)


def conclude(prop: CheckProperty, t, margin, tol, pair, notes: str = "") -> StabilityReport:
    """Assemble a report from the arrays of one pick per sample, in sample
    order: its time t, its margin and its witness tolerance ``tol`` (or one
    for all); ``pair(p)`` is sample p's (x0, u).

    The margins become the records.  The witness, which sets the verdict, is
    the first pick whose margin is the smallest of those below their
    ``-tol``.  A non-finite margin, which every tolerance test would pass, raises.
    """
    t, margin = np.asarray(t, dtype=float), np.asarray(margin, dtype=float)
    bad = np.flatnonzero(~np.isfinite(margin))
    if bad.size:
        raise ValidationError(f"{prop.value}: non-finite margin {float(margin[bad[0]])!r} "
                              f"at sample {int(bad[0])}")
    below, witness = np.flatnonzero(margin < -np.asarray(tol)), None
    if below.size:
        p = int(below[np.argmin(margin[below])])
        witness = Witness(*pair(p), t=float(t[p]), margin=float(margin[p]))
    return StabilityReport(prop, t, margin, witness, notes)
