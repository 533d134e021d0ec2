"""Core of the bundled solver: sorted terms, CNF abstraction, and the
DPLL(T) glue between the SAT core and the simplex theory.

Supported fragment: quantifier-free boolean structure over linear
Int/Real arithmetic atoms, if-then-else, and uninterpreted functions
(eliminated by Ackermann expansion as terms are encoded: each distinct
application gets a fresh var, and each pair of applications of one
function an axiom that equal arguments give equal values). Nonlinear
terms are rejected with an error. Every sat model is checked before it
is answered: the applications of each function must agree wherever
their arguments agree, every Int variable must be integral, and every
term of the open frames, as given, must evaluate to true.

One `Solver` serves a whole conversation, its pushes and pops included:
the SAT core, the simplex tableau and every term cache persist, each
pushed frame is guarded by an activation literal, and a check solves
under the literals of the open frames (see `Solver`).

Int variables are made integral by branch and bound through the SAT
core (see `ArithTheory`): a final check that finds an Int variable at a
non-integer value adds a bound atom that splits its range, and the core
decides it, lower branch first. Split atoms stay for later checks. After
`_MAX_SPLITS` splits in one check, the check answers unknown.

Each distinct gate is encoded once (structural hashing, as in AIGs). A
gate is keyed by its kind and its children's encodings, not by its term:
`and` and `or` by the set of their child literals, `=>`, iff (which `xor`
and Boolean `=` use) and Boolean `ite` by their child literals, numeric
`=` as the `and` of its two bound literals, and a numeric `ite` by its
sort, its condition's literal and both branches' linear forms. Terms that
differ only in the names of equal definitions, such as the inlined
instances of one component, thus share one SAT or simplex variable. Equal
keys mean equal encodings and so equal values, and a gate's clauses and
an ite's rows carry no frame guard, so a gate made in a popped frame
serves later frames soundly. An `ite` whose condition's literal is the
constant literal, such as a condition defined as false, is its taken
branch: it gets no variable, and its other branch is not encoded.

A definition (`Solver.define`, from `define-fun`) names a term instead
of constraining it: a defined v gets no simplex variable and no SAT
literal of its own. A numeric v stands for the linear form of its body,
a Bool v for the body's literal, each expanded at first use and cached,
and the model gives v the value of its body. A definition's body can
only mention names defined before it, so expansions never cycle. An
asserted `(= v e)` is an ordinary constraint.

Linear forms are computed on plain ints: `_linear` gives a numeric term
as integer numerators over one positive denominator, in lowest terms.
An atom compares such forms over their common denominator, so it reaches
`_form_atom` with integer coefficients and an integer right side, and
only their gcd is divided out. The coprime row with a positive first
coefficient is unique, so every slack row and bound atom is the one a
computation over Fractions gives.

`_var_atom` writes each atom's two bounds as the simplex's triples
(a, d, q), meaning (a + d*delta)/q: the upper bound for the atom and
the lower bound for its negation. An Int atom x <= b has (b, 0, 1) and
(b + 1, 0, 1). A Real atom compares x with p/q in lowest terms: x <= p/q
has (p, 0, q) and (p, q, q), x < p/q has (p, -q, q) and (p, 0, q).
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import gcd, lcm
from typing import Optional, Union

from . import sat
from .sexpr import SExpr
from .simplex import Conflict, Simplex

F = Fraction
ZERO, ONE = F(0), F(1)


class SmtError(Exception):
    pass


class ModelCheckError(Exception):
    """A sat model that violates an asserted term, gives an Int
    variable a fractional value or gives a function two values at one
    point: a solver bug, never answered as an ordinary error reply."""


# terms: nested tuples, last slot is the sort ------------------------------

BOOL, INT, REAL = "Bool", "Int", "Real"
_NUM = (INT, REAL)

Term = tuple


def sort_of(t: Term) -> str:
    return t[-1]


def _num(v: Fraction, sort: str) -> Term:
    return ("num", v, sort)


_ARITH = {"+", "-", "*", "/"}
_CMP = {"<", "<=", ">", ">="}


def term_of(sx: SExpr, decls: dict, env: Optional[dict] = None) -> Term:
    env = env or {}
    if isinstance(sx, str):
        if sx in env:
            return env[sx]
        if sx == "true":
            return ("bool", True, BOOL)
        if sx == "false":
            return ("bool", False, BOOL)
        if sx in decls:
            kind = decls[sx]
            if kind[0] == "fun":
                raise SmtError(f"{sx} is a function, not a constant")
            return ("var", sx, kind[1])  # declared or defined
        if sx and (sx[0].isdigit()):
            if "." in sx:
                return _num(F(sx), REAL)
            return _num(F(int(sx)), INT)
        raise SmtError(f"unknown symbol {sx}")
    if not sx:
        raise SmtError("empty application")
    head = sx[0]
    if head == "!":  # attribute wrapper
        return term_of(sx[1], decls, env)
    if head == "let":
        new_env = dict(env)
        for binding in sx[1]:
            new_env[binding[0]] = term_of(binding[1], decls, env)
        return term_of(sx[2], decls, new_env)
    args = [term_of(a, decls, env) for a in sx[1:]]
    if isinstance(head, list):
        raise SmtError("indexed identifiers not supported")
    if head == "-" and len(args) == 1:
        _need_num(args, head)
        return ("-", tuple(args), sort_of(args[0]))
    if head in _ARITH:
        _need_num(args, head)
        if len(args) < 2:
            raise SmtError(f"{head} needs two arguments")
        sort = REAL if (head == "/" or any(sort_of(a) == REAL
                                           for a in args)) else INT
        return (head, tuple(args), sort)
    if head in _CMP:
        _need_num(args, head)
        if len(args) < 2:
            raise SmtError(f"{head} needs two arguments")
        if len(args) == 2:
            return (head, tuple(args), BOOL)
        pairs = [(head, (args[i], args[i + 1]), BOOL)
                 for i in range(len(args) - 1)]
        return ("and", tuple(pairs), BOOL)
    if head == "not":
        if len(args) != 1 or sort_of(args[0]) != BOOL:
            raise SmtError("not takes one boolean")
        return ("not", tuple(args), BOOL)
    if head in ("and", "or"):
        if any(sort_of(a) != BOOL for a in args):
            raise SmtError(f"{head} needs booleans")
        return (head, tuple(args), BOOL)
    if head == "=>":
        if len(args) < 2 or any(sort_of(a) != BOOL for a in args):
            raise SmtError("=> needs at least two booleans")
        out = args[-1]
        for a in reversed(args[:-1]):
            out = ("=>", (a, out), BOOL)
        return out
    if head == "xor":
        if len(args) != 2 or any(sort_of(a) != BOOL for a in args):
            raise SmtError("xor takes two booleans")
        return ("xor", tuple(args), BOOL)
    if head in ("=", "distinct"):
        if len(args) < 2:
            raise SmtError(f"{head} needs two arguments")
        sorts = {sort_of(a) for a in args}
        if sorts == {BOOL}:
            pass
        elif sorts <= set(_NUM):
            pass
        else:
            raise SmtError(f"{head} over mixed sorts")
        if head == "=":
            pairs = [("=", (args[i], args[i + 1]), BOOL)
                     for i in range(len(args) - 1)]
        else:
            pairs = [("not", (("=", (args[i], args[j]), BOOL),), BOOL)
                     for i in range(len(args))
                     for j in range(i + 1, len(args))]
        return pairs[0] if len(pairs) == 1 else ("and", tuple(pairs), BOOL)
    if head == "ite":
        if len(args) != 3 or sort_of(args[0]) != BOOL:
            raise SmtError("ite needs (Bool x x)")
        s1, s2 = sort_of(args[1]), sort_of(args[2])
        if s1 == s2:
            sort = s1
        elif {s1, s2} == {INT, REAL}:
            sort = REAL
        else:
            raise SmtError("ite branches disagree")
        return ("ite", tuple(args), sort)
    if head == "to_real":
        _need_num(args, head)
        return ("to_real", tuple(args), REAL)
    if head in decls and decls[head][0] == "fun":
        params, ret = decls[head][1], decls[head][2]
        if len(args) != len(params):
            raise SmtError(f"{head} arity mismatch")
        for a, p in zip(args, params):
            if sort_of(a) != p and not (sort_of(a) == INT and p == REAL):
                raise SmtError(f"{head} argument sort mismatch")
        return ("app", head, tuple(args), ret)
    raise SmtError(f"unsupported operator {head!r}")


def _need_num(args, op):
    for a in args:
        if sort_of(a) not in _NUM:
            raise SmtError(f"{op} needs numeric arguments")


def _lowest(nums: dict[int, int], const: int,
            den: int) -> tuple[dict[int, int], int, int]:
    """A linear form (nums, const, den) in lowest terms."""
    g = gcd(den, const, *nums.values())
    if g == 1:
        return nums, const, den
    return {k: v // g for k, v in nums.items()}, const // g, den // g


def _scaled(form: tuple[dict[int, int], int, int],
            scale: Fraction) -> tuple[dict[int, int], int, int]:
    """A linear form in lowest terms times a constant."""
    nums, const, den = form
    p, q = scale.numerator, scale.denominator
    return _lowest({k: v * p for k, v in nums.items()}, const * p, den * q)


# theory adapter --------------------------------------------------------------


_MAX_SPLITS = 400  # splits per Solver.check before it answers unknown


class ArithTheory(sat.Theory):
    """The simplex as a DPLL(T) theory, and the table of its bound atoms.

    Each atom is one SAT variable over one simplex variable: true asserts
    its upper bound, false its lower bound. A final check that finds an
    Int variable x at a value b that is fractional or shifted by delta
    splits on demand: it makes the atom x <= floor(b), whose negation is
    x >= floor(b) + 1, and the SAT core decides it, true first, so the
    lower branch is tried first. Every bound in force is thus asserted
    by a literal, and every conflict is one infeasible row. After
    `_MAX_SPLITS` splits in one check, that check answers unknown."""

    def __init__(self, cdcl: sat.CDCL, simplex: Simplex,
                 int_vars: list[int]):
        self.cdcl = cdcl
        self.simplex = simplex
        self.int_vars = int_vars
        self.atom_of_var: dict[int, tuple] = {}  # sat var -> (svar, ub, lb)
        self._atom_key: dict[tuple, int] = {}  # (svar,) + ub -> sat var
        self.stack: list[tuple[int, int]] = []  # (sat trail pos, mark)
        self.splits = 0

    def atom(self, svar: int, ub: tuple, lb: tuple) -> int:
        """Literal of svar <= ub, whose negation is svar >= lb."""
        key = (svar,) + ub
        v = self._atom_key.get(key)
        if v is None:
            v = self._atom_key[key] = self.cdcl.new_var()
            self.atom_of_var[v] = (svar, ub, lb)
        return v << 1

    def assert_lit(self, lit: int, pos: int):
        info = self.atom_of_var.get(lit >> 1)
        if info is None:
            return None
        svar, ub, lb = info
        mark = self.simplex.mark()
        try:
            if lit & 1:  # negative literal: lower bound
                self.simplex.assert_bound(svar, True, lb, lit)
            else:
                self.simplex.assert_bound(svar, False, ub, lit)
        except Conflict as c:
            return c.reasons
        self.stack.append((pos, mark))
        return None

    def shrink_to(self, pos: int) -> None:
        while self.stack and self.stack[-1][0] >= pos:
            _, mark = self.stack.pop()
            self.simplex.undo_to(mark)

    def check(self, final: bool):
        try:
            self.simplex.check()
        except Conflict as c:
            return c.reasons
        if not final:
            return None
        beta = self.simplex.beta
        for v in self.int_vars:
            a, d, q = beta[v]
            if d != 0 or q != 1:
                break
        else:
            return None
        if self.splits >= _MAX_SPLITS:
            return "unknown"
        self.splits += 1
        f = a // q  # the floor of beta, one less if beta is an integer - delta
        if a % q == 0 and d < 0:
            f -= 1
        lit = self.atom(v, (f, 0, 1), (f + 1, 0, 1))
        self.cdcl.phase[lit >> 1] = True
        return None


# solver ----------------------------------------------------------------------


class Solver:
    """The solver of one conversation: an assertion stack of frames over
    one SAT core and one simplex that persist across checks.

    ``add`` puts a term in the top frame, ``push`` opens a frame with a
    fresh activation literal and ``pop(n)`` closes n frames for good by
    asserting each one's literal false at level 0. ``check`` encodes
    only the terms added since the last check and solves under the
    activation literals of the open frames, so clauses learned in one
    check serve the next. A term of the bottom frame becomes a unit
    clause and one of a pushed frame the clause (not act or term);
    Tseitin clauses, ite rows, slack rows and Ackermann axioms are valid
    on their own and carry no guard. Every term is Tseitin-encoded, with
    each defined var expanded and each constant-condition ite folded (see
    the module docstring), and each distinct linear combination its
    arithmetic atoms compare becomes one slack row. The term caches map a
    term as given to its literal, simplex var or form, and the gate cache
    maps a gate's key to its var, so a repeated term costs one lookup and
    a repeated gate under new names makes nothing new. A term counts as
    encoded once its clause is added: a term that raises an SmtError
    stays unencoded, and every later ``check`` raises it again until its
    frame is popped. What the term encoded before it raised is valid on
    its own and stays."""

    def __init__(self):
        self.cdcl = sat.CDCL()
        self.simplex = Simplex()
        self.int_vars: list[int] = []
        self.theory = ArithTheory(self.cdcl, self.simplex, self.int_vars)
        self._bool_lit: dict[Term, int] = {}
        self._num_var: dict[Term, int] = {}  # var/app -> simplex var
        self._num_sort: dict[int, str] = {}
        self._slack: dict[tuple, int] = {}
        self._defs: dict[Term, Term] = {}  # var -> body
        self._forms: dict[Term, tuple] = {}  # defined var or ite -> its form
        self._gates: dict[tuple, int] = {}  # gate key -> literal or svar
        self._def_value: dict[Term, Union[bool, Fraction]] = {}
        # each function's UF applications, in the order they were met
        self._instances: dict[str, list[Term]] = {}
        self._queued: deque[Term] = deque()  # Ackermann axioms to encode
        self.frames: list[list[Term]] = [[]]  # the terms as added
        self._done: list[int] = [0]  # terms encoded, per frame
        self._acts: list[int] = []  # activation literal of frames[1:]
        self._true = self.cdcl.new_var()
        self.cdcl.add_clause([self._true << 1])
        self.result: Optional[str] = None
        self._num_model: Optional[list[Fraction]] = None

    def add(self, t: Term) -> None:
        if sort_of(t) != BOOL:
            raise SmtError("assert needs a boolean term")
        self.frames[-1].append(t)
        self.result = None

    def push(self) -> None:
        self._acts.append(self.cdcl.new_var() << 1)
        self.frames.append([])
        self._done.append(0)
        self.result = None

    def pop(self, n: int = 1) -> None:
        if n >= len(self.frames):
            raise SmtError("pop below the bottom frame")
        if n == 0:  # [-0:] would slice every frame
            return
        self.cdcl.cancel_until(0, self.theory)
        for act in self._acts[-n:]:
            self.cdcl.add_clause([sat.neg(act)])
        del self._acts[-n:], self.frames[-n:], self._done[-n:]
        self.result = None

    def define(self, v: Term, e: Term) -> None:
        """Let the var v stand for the term e, which mentions only vars
        declared or defined before v, as `define-fun` requires. A
        definition constrains nothing, so it belongs to no frame and
        outlives every pop."""
        self._defs[v] = e

    def _encode(self) -> None:
        """Encode the terms added since the last encode, then the queued
        Ackermann axioms. Each is counted, or dropped from the queue, only
        once its clause is added."""
        self.cdcl.cancel_until(0, self.theory)
        for i, frame in enumerate(self.frames):
            guard = [sat.neg(self._acts[i - 1])] if i else []
            while self._done[i] < len(frame):
                lit = self._lit(frame[self._done[i]])
                self.cdcl.add_clause(guard + [lit])
                self._done[i] += 1
        while self._queued:
            self.cdcl.add_clause([self._lit(self._queued[0])])
            self._queued.popleft()

    # literal of a boolean term (Tseitin)

    def _lit(self, t: Term) -> int:
        hit = self._bool_lit.get(t)
        if hit is not None:
            return hit
        tag = t[0]
        neg = sat.neg
        if tag == "bool":
            lit = (self._true << 1) | (0 if t[1] else 1)
        elif tag == "var":
            e = self._defs.get(t)
            lit = self.cdcl.new_var() << 1 if e is None else self._lit(e)
        elif tag == "app":
            lit = self._app(t)
        elif tag == "not":
            lit = neg(self._lit(t[1][0]))
        elif tag in ("and", "or"):
            lit = self._and_or(tag, [self._lit(a) for a in t[1]])
        elif tag == "=>":
            a, b = (self._lit(x) for x in t[1])
            lit = self._gate(("=>", a, b), lambda v: (
                [neg(v), neg(a), b], [v, a], [v, neg(b)]))
        elif tag == "xor":
            a, b = (self._lit(x) for x in t[1])
            lit = neg(self._iff(a, b))
        elif tag == "=":
            x, y = t[1]
            if sort_of(x) == BOOL:
                lit = self._iff(self._lit(x), self._lit(y))
            else:
                lit = self._and_or("and", [self._cmp_lit("<=", x, y),
                                           self._cmp_lit("<=", y, x)])
        elif tag == "ite":  # boolean ite
            c = self._lit(t[1][0])
            if c >> 1 == self._true:  # a constant condition: the taken branch
                lit = self._lit(t[1][1 + (c & 1)])
            else:
                a, b = (self._lit(x) for x in t[1][1:])
                lit = self._gate(("ite", c, a, b), lambda v: (
                    [neg(v), neg(c), a], [neg(v), c, b],
                    [v, neg(c), neg(a)], [v, c, neg(b)]))
        elif tag in _CMP:
            lit = self._cmp_lit(tag, t[1][0], t[1][1])
        else:
            raise SmtError(f"not a boolean term: {tag}")
        self._bool_lit[t] = lit
        return lit

    def _gate(self, key: tuple, clauses) -> int:
        """The literal of the gate that key names: its kind and its
        children's literals. The first use makes a var v and adds the
        clauses(v) that define it; later uses reuse v."""
        v = self._gates.get(key)
        if v is None:
            v = self._gates[key] = self.cdcl.new_var() << 1
            for clause in clauses(v):
                self.cdcl.add_clause(clause)
        return v

    def _and_or(self, tag: str, args: list[int]) -> int:
        neg = sat.neg
        if tag == "and":
            def clauses(v):
                return [[neg(v), a] for a in args] + \
                    [[v] + [neg(a) for a in args]]
        else:
            def clauses(v):
                return [[v, neg(a)] for a in args] + [[neg(v)] + args]
        return self._gate((tag, frozenset(args)), clauses)

    def _iff(self, a: int, b: int) -> int:
        neg = sat.neg
        return self._gate(("iff", min(a, b), max(a, b)), lambda v: (
            [neg(v), neg(a), b], [neg(v), a, neg(b)],
            [v, a, b], [v, neg(a), neg(b)]))

    def _app(self, t: Term) -> int:
        """The fresh var of a UF application met for the first time: a
        literal if it is Bool, else a simplex var. Its arguments are
        encoded first, so one that raises leaves no instance behind. The
        application then becomes an instance of its function, with one
        Ackermann axiom queued per earlier instance: equal arguments give
        equal values. Callers cache the var, so an application met again,
        even after a pop, keeps it."""
        for a in t[2]:
            if sort_of(a) == BOOL:
                self._lit(a)
            else:
                self._linear(a)
        insts = self._instances.setdefault(t[1], [])
        for u in insts:
            eqs = tuple(("=", ab, BOOL) for ab in zip(u[2], t[2]))
            hyp = eqs[0] if len(eqs) == 1 else ("and", eqs, BOOL)
            self._queued.append(("=>", (hyp, ("=", (u, t), BOOL)), BOOL))
        insts.append(t)
        if sort_of(t) == BOOL:
            return self.cdcl.new_var() << 1
        return self._new_svar(sort_of(t))

    # numeric side ----------------------------------------------------------

    def _new_svar(self, sort: str) -> int:
        v = self.simplex.new_var()
        self._num_sort[v] = sort
        if sort == INT:
            self.int_vars.append(v)
        return v

    def _svar(self, t: Term) -> int:
        """Simplex variable for a numeric var or app term, cached by term,
        or for an ite term, cached by its gate: the condition's literal and
        both branch forms come first, so a branch that raises makes
        nothing, and ites of one sort with equal condition literals and
        branch forms share one var and its guarded rows."""
        if t[0] != "ite":
            v = self._num_var.get(t)
            if v is None:
                v = self._num_var[t] = self._app(t) if t[0] == "app" \
                    else self._new_svar(sort_of(t))
            return v
        c = self._lit(t[1][0])
        forms = [self._linear(branch) for branch in t[1][1:]]
        key = ("ite", sort_of(t), c) + tuple(
            (frozenset((k, x) for k, x in nums.items() if x), const, den)
            for nums, const, den in forms)
        v = self._gates.get(key)
        if v is None:
            v = self._gates[key] = self._new_svar(sort_of(t))
            for guard, (nums, const, den) in zip((c, sat.neg(c)), forms):
                # branch <= v and branch >= v, over the branch's
                # denominator: nums.x - den*v <= -const and >= -const
                combo = {k: x for k, x in nums.items() if x != 0}
                combo[v] = -den
                le = self._form_atom(combo, "<=", -const)
                ge = sat.neg(self._form_atom(combo, "<", -const))
                self.cdcl.add_clause([sat.neg(guard), le])
                self.cdcl.add_clause([sat.neg(guard), ge])
        return v

    def _linear(self, t: Term) -> tuple[dict[int, int], int, int]:
        """t as (nums, const, den): (sum of nums[k] * k + const) / den
        over simplex vars k, with den > 0 and the gcd of den, const and
        every num 1. The nums may be shared with a cache: callers copy
        them before changing them. An ite whose condition is the constant
        literal is its taken branch."""
        tag = t[0]
        if tag == "num":
            return {}, t[1].numerator, t[1].denominator
        if tag == "var" and t in self._defs or tag == "ite":
            form = self._forms.get(t)
            if form is None:
                if tag == "var":
                    form = self._linear(self._defs[t])
                else:
                    c = self._lit(t[1][0])
                    if c >> 1 == self._true:  # a constant condition
                        form = self._linear(t[1][1 + (c & 1)])
                    else:
                        form = {self._svar(t): 1}, 0, 1
                self._forms[t] = form
            return form
        if tag in ("var", "app"):
            return {self._svar(t): 1}, 0, 1
        if tag == "to_real":
            return self._linear(t[1][0])
        if tag == "-" and len(t[1]) == 1:
            nums, const, den = self._linear(t[1][0])
            return {k: -v for k, v in nums.items()}, -const, den
        if tag == "+" or tag == "-":
            nums, const, den = self._linear(t[1][0])
            nums = dict(nums)
            s = 1 if tag == "+" else -1
            for arg in t[1][1:]:
                n2, k2, d2 = self._linear(arg)
                f2 = s
                if d2 != den:
                    m = lcm(den, d2)
                    if m != den:
                        f = m // den
                        nums = {k: v * f for k, v in nums.items()}
                        const *= f
                        den = m
                    f2 = s * (m // d2)
                for k, v in n2.items():
                    nums[k] = nums.get(k, 0) + f2 * v
                const += f2 * k2
            return _lowest(nums, const, den)
        if tag == "*":
            # a factor is constant when its linear form has no variables
            forms = [self._linear(a) for a in t[1]]
            varying = [f for f in forms if f[0]]
            if len(varying) > 1:
                raise SmtError("nonlinear product")
            scale = ONE
            for nums, const, den in forms:
                if not nums:
                    scale *= F(const, den)
            if not varying:
                return {}, scale.numerator, scale.denominator
            return _scaled(varying[0], scale)
        if tag == "/":
            scale = ONE
            for nums, const, den in map(self._linear, t[1][1:]):
                if nums:
                    raise SmtError("nonlinear division")
                if const == 0:
                    raise SmtError("division by zero")
                scale *= F(den, const)
            return _scaled(self._linear(t[1][0]), scale)
        raise SmtError(f"not a numeric term: {tag}")

    def _cmp_lit(self, op: str, x: Term, y: Term) -> int:
        nx, kx, dx = self._linear(x)
        ny, ky, dy = self._linear(y)
        # x op y over the common denominator m > 0:
        # (nx*fx - ny*fy).vars op ky*fy - kx*fx
        if dx == dy:
            fx = fy = 1
        else:
            m = lcm(dx, dy)
            fx, fy = m // dx, m // dy
        combo = {k: v * fx for k, v in nx.items()}
        for k, v in ny.items():
            combo[k] = combo.get(k, 0) - v * fy
        combo = {k: v for k, v in combo.items() if v != 0}
        rhs = ky * fy - kx * fx
        if op == ">":
            return sat.neg(self._form_atom(combo, "<=", rhs))
        if op == ">=":
            return sat.neg(self._form_atom(combo, "<", rhs))
        return self._form_atom(combo, op, rhs)

    def _form_atom(self, combo: dict[int, int], op: str, rhs: int) -> int:
        """Literal for (combo <= rhs) or (combo < rhs), over integer
        coefficients, none of them zero."""
        if not combo:
            holds = rhs >= 0 if op == "<=" else rhs > 0
            return (self._true << 1) | (0 if holds else 1)
        first = min(combo)
        if combo[first] < 0:
            flipped = {k: -v for k, v in combo.items()}
            inner = self._form_atom(flipped, "<" if op == "<=" else "<=",
                                    -rhs)
            return sat.neg(inner)
        # coprime coefficients; the bound becomes rhs / g
        g = gcd(*combo.values())
        if g != 1:
            combo = {k: v // g for k, v in combo.items()}
        if len(combo) == 1:
            return self._var_atom(first, op, rhs, g)
        key = tuple(sorted(combo.items()))
        svar = self._slack.get(key)
        if svar is None:
            svar = self.simplex.add_row(combo)
            self._slack[key] = svar
            self._num_sort[svar] = INT if all(
                self._num_sort[v] == INT for v in combo) else REAL
            if self._num_sort[svar] == INT:
                self.int_vars.append(svar)
        return self._var_atom(svar, op, rhs, g)

    def _var_atom(self, svar: int, op: str, num: int, den: int) -> int:
        """Literal for (svar <= num/den) or (svar < num/den), den > 0."""
        if self._num_sort.get(svar) == INT:
            # the largest integer that satisfies the bound
            b = num // den if op == "<=" else -(-num // den) - 1
            ub, lb = (b, 0, 1), (b + 1, 0, 1)
        else:
            # num/den as p/q in lowest terms; delta's part is scaled by q
            g = gcd(num, den)
            p, q = num // g, den // g
            if op == "<=":
                ub, lb = (p, 0, q), (p, q, q)
            else:
                ub, lb = (p, -q, q), (p, 0, q)
        return self.theory.atom(svar, ub, lb)

    # solving and models ------------------------------------------------------

    def check(self) -> str:
        self._encode()
        self.theory.splits = 0
        self.result = self.cdcl.solve(self.theory, assumptions=self._acts)
        if self.result == "sat":
            self._num_model = self.simplex.model()
            self._def_value.clear()
            self._check_model()
        return self.result

    def _check_model(self) -> None:
        for v in self.int_vars:
            if self._num_model[v].denominator != 1:
                raise ModelCheckError(f"Int variable {v} has the value "
                                      f"{self._num_model[v]} in the model")
        for f, insts in self._instances.items():
            seen = {}  # argument values -> value
            for u in insts:
                point = tuple(self._eval(a) for a in u[2])
                val = self._var_value(u)
                if seen.setdefault(point, val) != val:
                    raise ModelCheckError(f"the model gives {f} two values "
                                          f"at one point")
        active = (t for frame in self.frames for t in frame)
        for i, t in enumerate(active):
            if self._eval(t) is not True:
                raise ModelCheckError(f"the model violates asserted term {i}")
        for v in self._defs:
            if sort_of(v) == INT and self._eval(v).denominator != 1:
                raise ModelCheckError(f"Int variable {v[1]} has the value "
                                      f"{self._eval(v)} in the model")

    def model_value(self, t: Term) -> Union[bool, Fraction]:
        if self.result != "sat":
            raise SmtError("no model available")
        return self._eval(t)

    def _var_value(self, t: Term) -> Union[bool, Fraction]:
        """The value of the SAT or simplex var of a var or app term, or
        false or zero if it has none."""
        if sort_of(t) == BOOL:
            lit = self._bool_lit.get(t)
            return lit is not None and self.cdcl.value(lit) == 1
        sv = self._num_var.get(t)
        return ZERO if sv is None else self._num_model[sv]

    def _eval(self, t: Term):
        tag = t[0]
        if tag == "bool":
            return t[1]
        if tag == "num":
            return t[1]
        if tag == "var":
            if t in self._defs:
                val = self._def_value.get(t)
                if val is None:
                    val = self._def_value[t] = self._eval(self._defs[t])
                return val
            return self._var_value(t)
        if tag == "app":
            args = tuple(self._eval(a) for a in t[2])
            for u in self._instances.get(t[1], ()):
                if tuple(self._eval(a) for a in u[2]) == args:
                    return self._var_value(u)
            return False if sort_of(t) == BOOL else ZERO
        if tag == "not":
            return not self._eval(t[1][0])
        if tag == "and":
            return all(self._eval(a) for a in t[1])
        if tag == "or":
            return any(self._eval(a) for a in t[1])
        if tag == "=>":
            return (not self._eval(t[1][0])) or self._eval(t[1][1])
        if tag == "xor":
            return bool(self._eval(t[1][0])) != bool(self._eval(t[1][1]))
        if tag == "=":
            return self._eval(t[1][0]) == self._eval(t[1][1])
        if tag == "ite":
            return self._eval(t[1][1]) if self._eval(t[1][0]) \
                else self._eval(t[1][2])
        if tag == "to_real":
            return self._eval(t[1][0])
        if tag == "-" and len(t[1]) == 1:
            return -self._eval(t[1][0])
        if tag in _ARITH:
            vals = [self._eval(a) for a in t[1]]
            out = vals[0]
            for v in vals[1:]:
                if tag == "+":
                    out += v
                elif tag == "-":
                    out -= v
                elif tag == "*":
                    out *= v
                else:
                    out = F(out) / F(v)
            return out
        if tag in _CMP:
            a, b = self._eval(t[1][0]), self._eval(t[1][1])
            return {"<": a < b, "<=": a <= b,
                    ">": a > b, ">=": a >= b}[tag]
        raise SmtError(f"cannot evaluate {tag}")

