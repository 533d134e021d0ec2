"""Incremental general simplex over exact rationals with delta bounds.

The design follows the standard DPLL(T) linear-arithmetic core
(Dutertre & de Moura, "A Fast Linear-Arithmetic Solver for DPLL(T)",
CAV 2006): a fixed tableau of slack-variable definitions, per-variable
lower/upper bounds asserted and retracted on a trail, Bland's-rule
pivoting, and conflict explanations read off the infeasible row. Strict
inequalities are encoded as bounds with an infinitesimal component
(value a + d*delta).

Every value the simplex computes on is one integer triple (a, d, q),
read as (a + d*delta)/q, with q > 0 and gcd(a, d, q) == 1, so equal
values are equal tuples. Callers pass bounds as triples and read beta
as triples; the assignment beta and the bounds in force hold them too.
Two functions on tuples do the arithmetic: `_lt` compares by
cross-multiplying, and `_addmul` computes x + y*n/m and brings it to
lowest terms with one 3-argument gcd. Asserting a bound, checking and
pivoting make no Fraction; `model()` makes the Fractions it returns.

Each row holds integer numerators over one positive row denominator, in
lowest terms, so a pivot substitutes by integer cross-multiplication.
`check()` visits only the basic variables in `violated`, which holds
every basic variable whose bounds may fail on beta. A basic variable
enters it when its bound tightens, when a variable its row reads moves,
or when it is pivoted into the basis; `check()` drops those it finds in
bounds. The leaving variable is the smallest violated basic and the
entering one the smallest eligible column (Bland's rule), the same
choice a scan of every row makes.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Union

Triple = tuple[int, int, int]  # (a + d*delta)/q in lowest terms, q > 0
_ZERO: Triple = (0, 0, 1)


def _lt(x: Triple, y: Triple) -> bool:
    xa, xd, xq = x
    ya, yd, yq = y
    if xq != yq:
        xa, xd, ya, yd = xa * yq, xd * yq, ya * xq, yd * xq
    return xa < ya or (xa == ya and xd < yd)


def _addmul(x: Triple, y: Triple, n: int, m: int) -> Triple:
    """x + y*n/m in lowest terms, for m > 0."""
    xa, xd, xq = x
    ya, yd, yq = y
    yq *= m
    if xq == yq:
        a, d, q = xa + ya * n, xd + yd * n, xq
    else:
        a, d, q = xa * yq + ya * n * xq, xd * yq + yd * n * xq, xq * yq
    g = gcd(a, d, q)
    if g != 1:
        return a // g, d // g, q // g
    return a, d, q


class Conflict(Exception):
    def __init__(self, reasons: list[int]):
        self.reasons = reasons
        super().__init__("theory conflict")


# a bound in force: its value and the asserting SAT literal
_Bound = tuple[Triple, int]


class Simplex:
    def __init__(self):
        self.n = 0
        self.lower: list[Optional[_Bound]] = []
        self.upper: list[Optional[_Bound]] = []
        self.beta: list[Triple] = []
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
        self.beta.append(_ZERO)
        self.cols[v] = set()
        return v

    def add_row(self, combo: dict[int, Union[int, Fraction]]) -> int:
        """Introduce slack s with s = sum(combo); returns s (basic).
        combo may name basic variables, as it does after a pivot: each
        one is rewritten through its row. Coefficients are int or
        Fraction."""
        s = self.new_var()
        row = {j: c for j, c in combo.items() if c != 0}
        den = lcm(*(c.denominator for c in row.values()))
        nums = {j: c.numerator * (den // c.denominator)
                for j, c in row.items()}
        for b in [j for j in nums if j in self.rows]:
            # c/den * b with b = bnums/bden, over den * bden / gcd(c, bden)
            c = nums.pop(b)
            bnums, bden = self.rows[b]
            g = gcd(c, bden)
            scale, c = bden // g, c // g
            if scale != 1:
                nums = {k: v * scale for k, v in nums.items()}
                den *= scale
            for k, v in bnums.items():
                nc = nums.get(k, 0) + c * v
                if nc:
                    nums[k] = nc
                else:
                    nums.pop(k, None)
        nums, den = _normalized(nums, den)
        self.rows[s] = (nums, den)
        val = _ZERO
        for j, c in nums.items():
            self.cols[j].add(s)
            val = _addmul(val, self.beta[j], c, den)
        self.beta[s] = val
        return s

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

    def assert_bound(self, v: int, is_lower: bool, t: Triple,
                     reason: int) -> None:
        """Tighten a bound; raises Conflict if it crosses the other side."""
        if is_lower:
            cur = self.lower[v]
            if cur is not None and not _lt(cur[0], t):
                return
            up = self.upper[v]
            if up is not None and _lt(up[0], t):
                raise Conflict([up[1], reason])
            self.trail.append((v, True, cur))
            self.lower[v] = (t, reason)
            if v in self.rows:
                self.violated.add(v)
            elif _lt(self.beta[v], t):
                self._update(v, t)
        else:
            cur = self.upper[v]
            if cur is not None and not _lt(t, cur[0]):
                return
            lo = self.lower[v]
            if lo is not None and _lt(t, lo[0]):
                raise Conflict([lo[1], reason])
            self.trail.append((v, False, cur))
            self.upper[v] = (t, reason)
            if v in self.rows:
                self.violated.add(v)
            elif _lt(t, self.beta[v]):
                self._update(v, t)

    def _update(self, x: int, v: Triple) -> None:
        beta = self.beta
        diff = _addmul(v, beta[x], -1, 1)
        for b in self.cols[x]:
            nums, den = self.rows[b]
            beta[b] = _addmul(beta[b], diff, nums[x], den)
        beta[x] = v
        self.violated |= self.cols[x]

    # pivoting -------------------------------------------------------------

    def _pivot(self, b: int, j: int) -> None:
        rows, cols = self.rows, self.cols
        row, den = rows.pop(b)
        a_bj = row.pop(j)
        for k in row:
            cols[k].discard(b)
        # x_j = (den*x_b - sum_k row[k]*x_k) / a_bj, over |a_bj|; it is in
        # lowest terms because row b was
        sign = 1 if a_bj > 0 else -1
        new_row = {b: sign * den}
        for k, c in row.items():
            new_row[k] = -sign * c
        new_den = abs(a_bj)
        # substitute x_j in every other row, over the common denominator
        # iden * new_den / gcd(a_ij, new_den); no row reads x_j afterwards
        col_j = cols[j]
        col_j.discard(b)
        for i in col_j:
            irow, iden = rows[i]
            a_ij = irow.pop(j)
            g = gcd(a_ij, new_den)
            scale = new_den // g
            a_ij //= g
            if scale != 1:
                irow = {k: c * scale for k, c in irow.items()}
            for k, c in new_row.items():
                old = irow.get(k)
                if old is None:  # a_ij * c is not 0
                    irow[k] = a_ij * c
                    cols[k].add(i)
                else:
                    nc = old + a_ij * c
                    if nc:
                        irow[k] = nc
                    else:
                        del irow[k]
                        cols[k].discard(i)
            rows[i] = _normalized(irow, iden * scale)
        col_j.clear()
        rows[j] = (new_row, new_den)
        for k in new_row:
            cols[k].add(j)

    def _pivot_and_update(self, b: int, j: int, v: Triple) -> None:
        beta = self.beta
        row, den = self.rows[b]
        # theta = (v - beta[b]) * den / row[j], the move of x_j
        n, m = (den, row[j]) if row[j] > 0 else (-den, -row[j])
        theta = _addmul(_ZERO, _addmul(v, beta[b], -1, 1), n, m)
        beta[b] = v
        beta[j] = _addmul(beta[j], theta, 1, 1)
        for i in self.cols[j]:
            if i != b:
                irow, iden = self.rows[i]
                beta[i] = _addmul(beta[i], theta, irow[j], iden)
        self.violated |= self.cols[j]
        self.violated.discard(b)
        self.violated.add(j)
        self._pivot(b, j)

    def check(self) -> None:
        """Restore bound satisfaction; raises Conflict when impossible."""
        beta = self.beta
        while True:
            broken = None
            for b in sorted(self.violated):
                lo = self.lower[b]
                if lo is not None and _lt(beta[b], lo[0]):
                    broken = (b, True, lo)
                    break
                up = self.upper[b]
                if up is not None and _lt(up[0], beta[b]):
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
                reasons = [bnd[1]]
                for j, c in row.items():
                    if need_up:
                        side = self.upper[j] if c > 0 else self.lower[j]
                    else:
                        side = self.lower[j] if c > 0 else self.upper[j]
                    reasons.append(side[1])
                raise Conflict(reasons)
            self._pivot_and_update(b, entering, bnd[0])

    def _slack_up(self, j: int) -> bool:
        up = self.upper[j]
        return up is None or _lt(self.beta[j], up[0])

    def _slack_down(self, j: int) -> bool:
        lo = self.lower[j]
        return lo is None or _lt(lo[0], self.beta[j])

    # model ------------------------------------------------------------------

    def model(self) -> list[Fraction]:
        """Concrete rational values; call only after a passing check()."""
        t = 1  # delta = 1/t
        while not self._delta_ok(t):
            t *= 2
        return [Fraction(a * t + d, q * t) for a, d, q in self.beta]

    def _delta_ok(self, t: int) -> bool:
        # concretizing delta = 1/t must keep every bound numerically
        # satisfied; halving converges because beta satisfies the bounds
        # lexically. x <= y at delta = 1/t iff (xa*t + xd)*yq <= (ya*t + yd)*xq
        for v in range(self.n):
            a, d, q = self.beta[v]
            lo = self.lower[v]
            if lo is not None:
                la, ld, lq = lo[0]
                if (a * t + d) * lq < (la * t + ld) * q:
                    return False
            up = self.upper[v]
            if up is not None:
                ua, ud, uq = up[0]
                if (ua * t + ud) * q < (a * t + d) * uq:
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
