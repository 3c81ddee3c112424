"""Reference forms of the input-space operations, on ``InputSignal`` objects.

The package applies the two input-space axioms of a system with inputs, the
shift u(tau + .) and the concatenation of two inputs at a time t, to input
tables only: ``system._flow_rows``' starts are the shift, and
``checkers.check_identity``'s twin table is the concatenation.  These
functions form the same inputs one object at a time; the shift, cocycle and
causality tests compare the tables' flows against flows of these inputs.
"""

from __future__ import annotations

import numpy as np

from isslab import DomainError, InputSignal, ValidationError


def constant(value: float, duration: float) -> InputSignal:
    """``value`` on [0, duration), zero after."""
    if duration <= 0.0:
        raise ValidationError("duration must be positive")
    return InputSignal(np.array([0.0, float(duration)]), np.array([float(value)]))


def duration(u: InputSignal) -> float:
    """u's last breakpoint, past which it is zero."""
    return float(u.breakpoints[-1])


def value_at(u: InputSignal, t: float) -> float:
    """u(t), right continuous."""
    if t < 0.0:
        raise DomainError("inputs are defined on t >= 0")
    if t >= duration(u):
        return 0.0
    idx = int(np.searchsorted(u.breakpoints, t, side="right")) - 1
    return float(u.values[idx])


def shifted(u: InputSignal, tau: float) -> InputSignal:
    """Time shift u(tau + .); drops history, never increases the sup norm."""
    if tau < 0.0:
        raise DomainError("shift offset must be nonnegative")
    if tau == 0.0:
        return u
    if tau >= duration(u):
        return InputSignal.zero()
    idx = int(np.searchsorted(u.breakpoints, tau, side="right")) - 1
    bp = np.concatenate([[0.0], u.breakpoints[idx + 1:] - tau])
    return InputSignal(bp, u.values[idx:])


def concatenated(u: InputSignal, other: InputSignal, t: float) -> InputSignal:
    """The input equal to u on [0, t) and to other(. - t) afterwards.

    The head keeps u's breakpoints verbatim (no re-accumulated arithmetic),
    so flows driven by the two inputs agree bit for bit on [0, t).
    """
    if t <= 0.0:
        raise DomainError("concatenation time must be positive")
    keep = u.breakpoints < t
    head_bp = list(u.breakpoints[keep])
    head_vals = [float(u.values[i]) if i < u.values.size else 0.0
                 for i in range(len(head_bp))]
    if other.values.size == 0:
        return InputSignal(np.array(head_bp + [t]), np.array(head_vals))
    bp = np.concatenate([head_bp, t + other.breakpoints])
    vals = np.concatenate([head_vals, other.values])
    return InputSignal(bp, vals)
