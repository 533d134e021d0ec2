"""Incremental general simplex over exact rationals with delta bounds.

The design follows the standard DPLL(T) linear-arithmetic core
(Dutertre & de Moura, "A Fast Linear-Arithmetic Solver for DPLL(T)",
CAV 2006): a fixed tableau of slack-variable definitions, per-variable
lower/upper bounds asserted and retracted on a trail, Bland's-rule
pivoting, and conflict explanations read off the infeasible row. Strict
inequalities are encoded as bounds with an infinitesimal component
(value a + d*delta).

Each row holds integer numerators over one positive row denominator, in
lowest terms, so a pivot substitutes by integer cross-multiplication; a
coefficient becomes a Fraction only where the assignment beta moves.
Beta and the bounds stay exact Deltas. `check()` visits only the basic
variables in `violated`, which holds every basic variable whose bounds
may fail on beta. A basic variable enters it when its bound tightens,
when a variable its row reads moves, or when it is pivoted into the
basis; `check()` drops those it finds in bounds. The leaving variable
is the smallest violated basic and the entering one the smallest
eligible column (Bland's rule), the same choice a scan of every row
makes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Optional

ZERO = Fraction(0)


@dataclass(frozen=True)
class Delta:
    """a + d*delta for an infinitesimal positive delta."""

    a: Fraction
    d: Fraction = ZERO

    def __le__(self, other):
        return (self.a, self.d) <= (other.a, other.d)

    def __lt__(self, other):
        return (self.a, self.d) < (other.a, other.d)

    def __add__(self, other):
        return Delta(self.a + other.a, self.d + other.d)

    def __sub__(self, other):
        return Delta(self.a - other.a, self.d - other.d)

    def scale(self, k: Fraction) -> "Delta":
        return Delta(self.a * k, self.d * k)

    def value(self, delta: Fraction) -> Fraction:
        return self.a + self.d * delta


D0 = Delta(ZERO)


@dataclass
class _Bound:
    val: Delta
    reason: Optional[int]  # asserting SAT literal; None = solver-internal


class Conflict(Exception):
    def __init__(self, reasons: list[Optional[int]]):
        self.reasons = reasons
        super().__init__("theory conflict")


class Simplex:
    def __init__(self):
        self.n = 0
        self.lower: list[Optional[_Bound]] = []
        self.upper: list[Optional[_Bound]] = []
        self.beta: list[Delta] = []
        # basic -> (integer numerators by variable, positive denominator)
        self.rows: dict[int, tuple[dict[int, int], int]] = {}
        self.cols: dict[int, set[int]] = {}  # var -> basics whose row uses it
        self.violated: set[int] = set()  # basics whose bounds may not hold
        self.trail: list[tuple[int, bool, Optional[_Bound]]] = []

    def new_var(self) -> int:
        v = self.n
        self.n += 1
        self.lower.append(None)
        self.upper.append(None)
        self.beta.append(D0)
        self.cols[v] = set()
        return v

    def add_row(self, combo: dict[int, Fraction]) -> int:
        """Introduce slack s with s = sum(combo); returns s (basic).
        combo names nonbasic variables only, as every variable is before
        the first check()."""
        s = self.new_var()
        row = {j: c for j, c in combo.items() if c != 0}
        den = lcm(*(c.denominator for c in row.values()))
        nums = {j: c.numerator * (den // c.denominator)
                for j, c in row.items()}
        self.rows[s] = _normalized(nums, den)
        for j in nums:
            self.cols[j].add(s)
        self.beta[s] = self._row_value(row)
        return s

    def _row_value(self, row: dict[int, Fraction]) -> Delta:
        a = ZERO
        d = ZERO
        for j, c in row.items():
            b = self.beta[j]
            a += c * b.a
            d += c * b.d
        return Delta(a, d)

    # bound assertion ----------------------------------------------------

    def mark(self) -> int:
        return len(self.trail)

    def undo_to(self, mark: int) -> None:
        # relaxing bounds keeps every basic outside `violated` in bounds
        while len(self.trail) > mark:
            v, is_lower, old = self.trail.pop()
            if is_lower:
                self.lower[v] = old
            else:
                self.upper[v] = old

    def assert_bound(self, v: int, is_lower: bool, val: Delta,
                     reason: Optional[int]) -> None:
        """Tighten a bound; raises Conflict if it crosses the other side."""
        if is_lower:
            cur = self.lower[v]
            if cur is not None and val <= cur.val:
                return
            up = self.upper[v]
            if up is not None and up.val < val:
                raise Conflict([up.reason, reason])
            self.trail.append((v, True, cur))
            self.lower[v] = _Bound(val, reason)
            if v in self.rows:
                self.violated.add(v)
            elif self.beta[v] < val:
                self._update(v, val)
        else:
            cur = self.upper[v]
            if cur is not None and cur.val <= val:
                return
            lo = self.lower[v]
            if lo is not None and val < lo.val:
                raise Conflict([lo.reason, reason])
            self.trail.append((v, False, cur))
            self.upper[v] = _Bound(val, reason)
            if v in self.rows:
                self.violated.add(v)
            elif val < self.beta[v]:
                self._update(v, val)

    def _update(self, x: int, v: Delta) -> None:
        diff = v - self.beta[x]
        for b in self.cols[x]:
            nums, den = self.rows[b]
            self.beta[b] = self.beta[b] + diff.scale(Fraction(nums[x], den))
        self.beta[x] = v
        self.violated |= self.cols[x]

    # pivoting -------------------------------------------------------------

    def _pivot(self, b: int, j: int) -> None:
        row, den = self.rows.pop(b)
        a_bj = row.pop(j)
        for k in row:
            self.cols[k].discard(b)
        self.cols[j].discard(b)
        # x_j = (den*x_b - sum_k row[k]*x_k) / a_bj, over |a_bj|; it is in
        # lowest terms because row b was
        sign = 1 if a_bj > 0 else -1
        new_row = {b: sign * den}
        for k, c in row.items():
            new_row[k] = -sign * c
        new_den = abs(a_bj)
        # substitute x_j in every other row, over the common denominator
        # iden * new_den / gcd(a_ij, new_den)
        for i in list(self.cols[j]):
            irow, iden = self.rows[i]
            a_ij = irow.pop(j)
            self.cols[j].discard(i)
            g = gcd(a_ij, new_den)
            scale = new_den // g
            a_ij //= g
            if scale != 1:
                for k in irow:
                    irow[k] *= scale
            for k, c in new_row.items():
                nc = irow.get(k, 0) + a_ij * c
                if nc == 0:
                    if k in irow:
                        del irow[k]
                        self.cols[k].discard(i)
                else:
                    if k not in irow:
                        self.cols[k].add(i)
                    irow[k] = nc
            self.rows[i] = _normalized(irow, iden * scale)
        self.rows[j] = (new_row, new_den)
        for k in new_row:
            self.cols[k].add(j)

    def _pivot_and_update(self, b: int, j: int, v: Delta) -> None:
        row, den = self.rows[b]
        theta = (v - self.beta[b]).scale(Fraction(den, row[j]))
        self.beta[b] = v
        self.beta[j] = self.beta[j] + theta
        for i in self.cols[j]:
            if i != b:
                irow, iden = self.rows[i]
                self.beta[i] = self.beta[i] + \
                    theta.scale(Fraction(irow[j], iden))
        self.violated |= self.cols[j]
        self.violated.discard(b)
        self.violated.add(j)
        self._pivot(b, j)

    def check(self) -> None:
        """Restore bound satisfaction; raises Conflict when impossible."""
        while True:
            broken = None
            for b in sorted(self.violated):
                lo = self.lower[b]
                if lo is not None and self.beta[b] < lo.val:
                    broken = (b, True, lo)
                    break
                up = self.upper[b]
                if up is not None and up.val < self.beta[b]:
                    broken = (b, False, up)
                    break
                self.violated.discard(b)
            if broken is None:
                return
            b, need_up, bnd = broken
            row, _ = self.rows[b]
            entering = None
            for j in sorted(row):
                c = row[j]
                if need_up:
                    ok = (c > 0 and self._slack_up(j)) or \
                         (c < 0 and self._slack_down(j))
                else:
                    ok = (c > 0 and self._slack_down(j)) or \
                         (c < 0 and self._slack_up(j))
                if ok:
                    entering = j
                    break
            if entering is None:
                reasons = [bnd.reason]
                for j, c in row.items():
                    if need_up:
                        side = self.upper[j] if c > 0 else self.lower[j]
                    else:
                        side = self.lower[j] if c > 0 else self.upper[j]
                    reasons.append(side.reason)
                raise Conflict(reasons)
            self._pivot_and_update(b, entering, bnd.val)

    def _slack_up(self, j: int) -> bool:
        up = self.upper[j]
        return up is None or self.beta[j] < up.val

    def _slack_down(self, j: int) -> bool:
        lo = self.lower[j]
        return lo is None or lo.val < self.beta[j]

    # model ------------------------------------------------------------------

    def model(self) -> list[Fraction]:
        """Concrete rational values; call only after a passing check()."""
        delta = Fraction(1)
        while not self._delta_ok(delta):
            delta /= 2
        return [self.beta[v].value(delta) for v in range(self.n)]

    def _delta_ok(self, delta: Fraction) -> bool:
        # concretizing delta must keep every bound numerically satisfied;
        # halving converges because beta satisfies the bounds lexically
        for v in range(self.n):
            val = self.beta[v].value(delta)
            lo = self.lower[v]
            if lo is not None and val < lo.val.value(delta):
                return False
            up = self.upper[v]
            if up is not None and up.val.value(delta) < val:
                return False
        return True


def _normalized(nums: dict[int, int], den: int) -> tuple[dict[int, int], int]:
    """The row nums/den with its common factor divided out, in place."""
    g = gcd(den, *nums.values())
    if g != 1:
        for k in nums:
            nums[k] //= g
        den //= g
    return nums, den
