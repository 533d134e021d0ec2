"""Reference implementations of the shared signal-processing blocks.

These are plain Python mirrors of the dataflow blocks in the benchmark's
``stdlib.lus``.  They exist so the language-level blocks can be checked
differentially: same inputs, exact Fraction arithmetic, two independent
codebases.  Scalar blocks take and return a single value;
stream blocks consume an input sequence and return the full output
sequence.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

Num = Fraction


def saturation(x: Num, lo: Num, hi: Num) -> Num:
    """Clamp x into [lo, hi].  Requires lo <= hi."""
    if lo > hi:
        raise ValueError("saturation: lo > hi")
    if x < lo:
        return lo
    if x > hi:
        return hi
    return x


def dead_zone(x: Num, lo: Num, hi: Num) -> Num:
    """Zero inside [lo, hi], shifted toward zero outside it."""
    if lo > hi:
        raise ValueError("dead_zone: lo > hi")
    if x < lo:
        return x - lo
    if x > hi:
        return x - hi
    return Fraction(0)


def rate_limit(xs: Sequence[Num], max_rate: Num, dt: Num) -> list[Num]:
    """First sample passes through; afterwards each step moves at most
    max_rate * dt from the previous output."""
    if max_rate < 0 or dt <= 0:
        raise ValueError("rate_limit: need max_rate >= 0 and dt > 0")
    out: list[Num] = []
    step = max_rate * dt
    for i, x in enumerate(xs):
        if i == 0:
            out.append(x)
            continue
        prev = out[-1]
        out.append(saturation(x, prev - step, prev + step))
    return out


def integrator(xs: Sequence[Num], dt: Num, x0: Num) -> list[Num]:
    """Forward Euler accumulator: y(0) = x0, y(t) = y(t-1) + dt * x(t)."""
    if dt <= 0:
        raise ValueError("integrator: need dt > 0")
    out: list[Num] = []
    acc = x0
    for i, x in enumerate(xs):
        if i == 0:
            out.append(x0)
            continue
        acc = acc + dt * x
        out.append(acc)
    return out


def shortest_err(cmd: Num, actual: Num) -> Num:
    """Signed heading error folded into (-180, 180], ties at 180 positive.

    Single fold: assumes the raw difference lies within (-540, 540],
    which holds for headings in [0, 360) and commands in [0, 360).
    """
    raw = cmd - actual
    if raw > 180:
        return raw - Fraction(360)
    if raw <= -180:
        return raw + Fraction(360)
    return raw


def wrap_heading(x: Num) -> Num:
    """Fold a heading into [0, 360) by at most one 360 shift."""
    if x >= 360:
        return x - Fraction(360)
    if x < 0:
        return x + Fraction(360)
    return x
