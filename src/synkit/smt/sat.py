"""CDCL SAT core used by the bundled SMT solver.

Literal encoding: variable v (0-based) has positive literal 2v and
negative literal 2v+1; neg(l) is l^1. The solver runs DPLL(T)-style:
a theory object sees every assigned literal, is asked for a check
before each decision, and may return a conflict as a list of literals
that are all currently true but jointly theory-inconsistent. The check
made once every variable is assigned is final: there the theory may add
a variable instead (splitting on demand, as in Barrett, Nieuwenhuis,
Oliveras & Tinelli, LPAR 2006), and `solve` decides it before it
answers sat.

`solve` may be called again after more clauses are added, and it may
solve under assumptions (Een & Sorensson, "An extensible SAT-solver",
SAT 2003): each assumption literal is decided first, on a level of its
own, and a level is left empty when its literal already holds. A
falsified assumption answers unsat for that call only; the clauses
learned on the way stay, since they follow from the clauses alone.
Only a conflict at level 0 makes the clause set itself unsat (`ok`).

Decisions follow VSIDS activity, and among variables of equal activity
the newest is decided first: in an incremental check that is the newest
instant and its goal, before the older variables that earlier checks
have settled (Strichman, "Tuning SAT checkers for Bounded Model
Checking", CAV 2000).
"""

from __future__ import annotations

import heapq
from typing import Optional, Sequence, Union


def neg(lit: int) -> int:
    return lit ^ 1


class Theory:
    """Do-nothing theory; pure SAT when used directly.

    ``check(final)`` returns None, a conflict or "unknown". With final
    set, every variable is assigned; the theory may then make a new
    variable with ``CDCL.new_var`` and return None, and the core decides
    that variable before it may answer sat."""

    def assert_lit(self, lit: int, pos: int) -> Optional[list[int]]:
        return None

    def shrink_to(self, pos: int) -> None:
        pass

    def check(self, final: bool) -> Union[None, list[int], str]:
        return None


class CDCL:
    def __init__(self):
        self.clauses: list[list[int]] = []
        self.watches: list[list[int]] = []
        self.assign: list[int] = []  # -1 unset, 0 false, 1 true
        self.level: list[int] = []
        self.reason: list[int] = []  # clause index or -1
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.theory_head = 0
        self.activity: list[float] = []
        self.var_inc = 1.0
        self.phase: list[bool] = []
        self.heap: list[tuple[float, int]] = []  # (-activity, -var)
        self.ok = True
        self.conflicts = 0

    # variables ------------------------------------------------------

    def new_var(self) -> int:
        v = len(self.assign)
        self.assign.append(-1)
        self.level.append(0)
        self.reason.append(-1)
        self.activity.append(0.0)
        self.phase.append(False)
        self.watches.append([])
        self.watches.append([])
        heapq.heappush(self.heap, (0.0, -v))
        return v

    def value(self, lit: int) -> int:
        a = self.assign[lit >> 1]
        if a < 0:
            return -1
        return a ^ (lit & 1)

    # clauses ----------------------------------------------------------

    def add_clause(self, lits: list[int]) -> bool:
        if not self.ok:
            return False
        assert not self.trail_lim, "add_clause only at decision level 0"
        seen = set()
        out = []
        for lit in lits:
            if neg(lit) in seen:
                return True  # tautology
            if lit in seen:
                continue
            v = self.value(lit)
            if v == 1:
                return True
            if v == 0:
                continue
            seen.add(lit)
            out.append(lit)
        if not out:
            self.ok = False
            return False
        if len(out) == 1:
            self._enqueue(out[0], -1)
            if self._propagate() is not None:
                self.ok = False
                return False
            return True
        self._attach(out)
        return True

    def _attach(self, lits: list[int]) -> int:
        ci = len(self.clauses)
        self.clauses.append(lits)
        self.watches[neg(lits[0])].append(ci)
        self.watches[neg(lits[1])].append(ci)
        return ci

    # assignment -----------------------------------------------------------

    def _enqueue(self, lit: int, reason: int) -> bool:
        v = lit >> 1
        val = self.value(lit)
        if val == 0:
            return False
        if val == 1:
            return True
        self.assign[v] = 1 - (lit & 1)
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.phase[v] = not (lit & 1)
        self.trail.append(lit)
        return True

    def _propagate(self) -> Optional[int]:
        while self.qhead < len(self.trail):
            lit = self.trail[self.qhead]
            self.qhead += 1
            watch = self.watches[lit]
            i = 0
            while i < len(watch):
                ci = watch[i]
                c = self.clauses[ci]
                false_lit = neg(lit)
                if c[0] == false_lit:
                    c[0], c[1] = c[1], c[0]
                if self.value(c[0]) == 1:
                    i += 1
                    continue
                moved = False
                for k in range(2, len(c)):
                    if self.value(c[k]) != 0:
                        c[1], c[k] = c[k], c[1]
                        self.watches[neg(c[1])].append(ci)
                        watch[i] = watch[-1]
                        watch.pop()
                        moved = True
                        break
                if moved:
                    continue
                if self.value(c[0]) == 0:
                    self.qhead = len(self.trail)
                    return ci
                self._enqueue(c[0], ci)
                i += 1
        return None

    def cancel_until(self, lvl: int, theory: Theory) -> None:
        if len(self.trail_lim) <= lvl:
            return
        bound = self.trail_lim[lvl]
        for lit in reversed(self.trail[bound:]):
            self.assign[lit >> 1] = -1
            heapq.heappush(self.heap,
                           (-self.activity[lit >> 1], -(lit >> 1)))
        del self.trail[bound:]
        del self.trail_lim[lvl:]
        self.qhead = min(self.qhead, len(self.trail))
        self.theory_head = min(self.theory_head, len(self.trail))
        theory.shrink_to(len(self.trail))

    # conflict analysis -----------------------------------------------------

    def _bump(self, v: int) -> None:
        self.activity[v] += self.var_inc
        if self.activity[v] > 1e100:
            for i in range(len(self.activity)):
                self.activity[i] *= 1e-100
            self.var_inc *= 1e-100
        heapq.heappush(self.heap, (-self.activity[v], -v))

    def _analyze(self, confl: list[int]) -> tuple[list[int], int]:
        cur_level = len(self.trail_lim)
        seen = [False] * len(self.assign)
        learned = [0]
        counter = 0
        lits = list(confl)
        idx = len(self.trail) - 1
        p = None
        while True:
            for q in lits:
                v = q >> 1
                if not seen[v] and self.level[v] > 0:
                    seen[v] = True
                    self._bump(v)
                    if self.level[v] >= cur_level:
                        counter += 1
                    else:
                        learned.append(q)
            while not seen[self.trail[idx] >> 1]:
                idx -= 1
            p = self.trail[idx]
            idx -= 1
            seen[p >> 1] = False
            counter -= 1
            if counter == 0:
                break
            ri = self.reason[p >> 1]
            lits = [q for q in self.clauses[ri] if q != p]
        learned[0] = neg(p)
        if len(learned) == 1:
            return learned, 0
        back = max(self.level[q >> 1] for q in learned[1:])
        k = max(range(1, len(learned)),
                key=lambda i: self.level[learned[i] >> 1])
        learned[1], learned[k] = learned[k], learned[1]
        return learned, back

    def _record_learned(self, learned: list[int]) -> None:
        if len(learned) == 1:
            self._enqueue(learned[0], -1)
        else:
            ci = self._attach(learned)
            self._enqueue(learned[0], ci)

    def _handle_conflict_lits(self, clause: list[int],
                              theory: Theory) -> bool:
        """Resolve an all-false conflict clause; False means UNSAT."""
        self.conflicts += 1
        self.var_inc /= 0.95
        while True:
            if not clause:
                return False
            top = max(self.level[lit >> 1] for lit in clause)
            if top == 0:
                return False
            if len(self.trail_lim) > top:
                self.cancel_until(top, theory)
            learned, back = self._analyze(clause)
            self.cancel_until(back, theory)
            self._record_learned(learned)
            confl = self._propagate()
            if confl is None:
                return True
            clause = list(self.clauses[confl])
            self.conflicts += 1

    # main loop ------------------------------------------------------------

    def _decide(self) -> None:
        """Decide the unassigned variable of highest activity, the newest
        among equals; one must exist. Each has an entry on the heap:
        new_var and cancel_until push one."""
        while True:
            v = -heapq.heappop(self.heap)[1]
            if self.assign[v] < 0:
                self.trail_lim.append(len(self.trail))
                self._enqueue((v << 1) | (0 if self.phase[v] else 1), -1)
                return

    def _theory_sync(self, theory: Theory) -> Optional[list[int]]:
        while self.theory_head < len(self.trail):
            pos = self.theory_head
            lit = self.trail[pos]
            self.theory_head += 1
            confl = theory.assert_lit(lit, pos)
            if confl is not None:
                return confl
        return None

    def solve(self, theory: Optional[Theory] = None,
              max_conflicts: Optional[int] = None,
              assumptions: Sequence[int] = ()) -> str:
        """'sat', 'unsat' or 'unknown' for the clauses together with the
        assumption literals; max_conflicts bounds this call's conflicts."""
        theory = theory or Theory()
        if not self.ok:
            return "unsat"
        self.cancel_until(0, theory)
        limit = None if max_conflicts is None \
            else self.conflicts + max_conflicts
        restart_limit = 100
        restart_ctr = 0
        while True:
            confl = self._propagate()
            if confl is not None:
                restart_ctr += 1
                if not self._handle_conflict_lits(list(self.clauses[confl]),
                                                  theory):
                    self.ok = False
                    return "unsat"
                if limit is not None and self.conflicts > limit:
                    return "unknown"
                if restart_ctr >= restart_limit:
                    restart_ctr = 0
                    restart_limit = int(restart_limit * 1.5)
                    self.cancel_until(0, theory)
                continue
            t_confl = self._theory_sync(theory)
            if t_confl is None and len(self.trail_lim) < len(assumptions):
                # the next assumption opens its own level
                p = assumptions[len(self.trail_lim)]
                val = self.value(p)
                if val == 0:
                    return "unsat"
                self.trail_lim.append(len(self.trail))
                if val < 0:
                    self._enqueue(p, -1)
                continue
            if t_confl is None:
                # only _enqueue assigns (and appends to the trail) and
                # only cancel_until unassigns (and truncates it); a final
                # check may add a variable, which is then decided
                t_confl = theory.check(
                    final=len(self.trail) == len(self.assign))
                if t_confl == "unknown":
                    return "unknown"
                if t_confl is None:
                    if len(self.trail) == len(self.assign):
                        return "sat"
                    self._decide()
                    continue
            clause = [neg(l) for l in t_confl]
            restart_ctr += 1
            if not self._handle_conflict_lits(clause, theory):
                self.ok = False
                return "unsat"
            if limit is not None and self.conflicts > limit:
                return "unknown"
