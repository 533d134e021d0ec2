"""Core of the bundled solver: sorted terms, CNF abstraction, and the
DPLL(T) glue between the SAT core and the simplex theory.

Supported fragment: quantifier-free boolean structure over linear
Int/Real arithmetic atoms, if-then-else, and uninterpreted functions
(eliminated up front by Ackermann expansion). Nonlinear terms are
rejected with an error. Every sat model is checked against the asserted
terms before it is answered.

Definitions are substituted at encode time instead of becoming slack
rows. An asserted term `(= v e)` whose left side is a variable is the
definition of v if it is the first such term for v; after Ackermann
expansion this includes `(= (f x) e)`. A defined v gets no simplex
variable and no SAT literal of its own: a numeric v stands for the
linear form of e, a Bool v for the literal of e, and its defining term
adds no clause. The model gives v the value of e. Two kinds of defined
variable keep their own variable, and their defining term is encoded
like any other:
- one reached again while its own definition is being expanded (a cycle
  such as r = q + 1, q = r - 1);
- an Int one whose definition is not an integer combination of Int
  variables plus an integer constant, so its value could be fractional.
A later equality for an already defined variable is an ordinary
constraint.

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
    """A sat model that violates an asserted term or gives an Int
    variable a fractional value: a solver bug, never answered as an
    ordinary error reply."""


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
            if kind[0] == "const":
                return ("var", sx, kind[1])
            raise SmtError(f"{sx} is a function, not a constant")
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


# Ackermann expansion --------------------------------------------------------


def ackermannize(terms: list[Term]) -> tuple[list[Term], dict]:
    """Replace UF applications with fresh constants plus functional
    consistency constraints. Returns (new terms, instance table)."""
    instances: dict[tuple, Term] = {}
    per_fun: dict[str, list[tuple[tuple, Term]]] = {}
    counter = [0]

    def rewrite(t: Term) -> Term:
        tag = t[0]
        if tag in ("num", "bool", "var"):
            return t
        if tag == "app":
            args = tuple(rewrite(a) for a in t[2])
            key = (t[1], args)
            if key not in instances:
                counter[0] += 1
                fresh = ("var", f"{t[1]}!{counter[0]}", t[3])
                instances[key] = fresh
                per_fun.setdefault(t[1], []).append((args, fresh))
            return instances[key]
        if tag in ("not", "and", "or", "=>", "xor", "=", "ite",
                   "to_real") or tag in _ARITH or tag in _CMP:
            return (tag, tuple(rewrite(a) for a in t[1]), t[-1])
        raise SmtError(f"unexpected term {tag}")

    out = [rewrite(t) for t in terms]
    for fname, insts in per_fun.items():
        for i in range(len(insts)):
            for j in range(i + 1, len(insts)):
                args_i, v_i = insts[i]
                args_j, v_j = insts[j]
                eqs = tuple(("=", (a, b), BOOL)
                            for a, b in zip(args_i, args_j))
                hyp = eqs[0] if len(eqs) == 1 else ("and", eqs, BOOL)
                out.append(("=>", (hyp, ("=", (v_i, v_j), BOOL)), BOOL))
    table = {}
    for (fname, args), var in instances.items():
        table.setdefault(fname, []).append((args, var))
    return out, table


# theory adapter --------------------------------------------------------------


class ArithTheory(sat.Theory):
    def __init__(self, simplex: Simplex, atom_of_var: dict,
                 int_vars: list[int]):
        self.simplex = simplex
        self.atom_of_var = atom_of_var  # sat var -> (svar, ub, lb triples)
        self.int_vars = int_vars
        self.stack: list[tuple[int, int]] = []  # (sat trail pos, mark)

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
            return [l for l in c.reasons if l is not None]
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
            return [l for l in c.reasons if l is not None]
        if final and self.int_vars:
            return self._check_ints()
        return None

    # branch and bound over the integer-sorted simplex variables

    def _check_ints(self):
        budget = [400]
        res, expl = self._bb(budget)
        if res == "sat":
            return None
        if res == "unknown":
            return "unknown"
        expl = [l for l in expl if l is not None]
        return expl

    def _split_var(self) -> Optional[int]:
        beta = self.simplex.beta
        for v in self.int_vars:
            _, d, q = beta[v]
            if d != 0 or q != 1:
                return v
        return None

    def _bb(self, budget: list[int]):
        try:
            self.simplex.check()
        except Conflict as c:
            return "unsat", set(c.reasons)
        v = self._split_var()
        if v is None:
            return "sat", None
        a, d, q = self.simplex.beta[v]
        f = a // q  # the floor of beta, one less if beta is an integer - delta
        if a % q == 0 and d < 0:
            f -= 1
        results = []
        for is_lower, val in ((False, (f, 0, 1)), (True, (f + 1, 0, 1))):
            if budget[0] <= 0:
                return "unknown", None
            budget[0] -= 1
            mark = self.simplex.mark()
            try:
                self.simplex.assert_bound(v, is_lower, val, None)
                r, e = self._bb(budget)
            except Conflict as c:
                r, e = "unsat", set(c.reasons)
            self.simplex.undo_to(mark)
            if r == "sat":
                return "sat", None
            if r == "unknown":
                return "unknown", None
            results.append(e)
        return "unsat", results[0] | results[1]


# solver ----------------------------------------------------------------------


class Solver:
    """One-shot solver for a list of asserted terms. Definitions are
    substituted (see the module docstring); every other term is
    Tseitin-encoded, and each distinct linear combination its arithmetic
    atoms compare becomes one slack row."""

    def __init__(self, terms: list[Term]):
        self.cdcl = sat.CDCL()
        self.simplex = Simplex()
        self.atom_of_var: dict[int, tuple] = {}
        self.int_vars: list[int] = []
        self._bool_lit: dict[Term, int] = {}
        self._num_var: dict[Term, int] = {}  # numeric var/ite -> simplex var
        self._num_sort: dict[int, str] = {}
        self._slack: dict[tuple, int] = {}
        self._atom_key: dict[tuple, int] = {}
        self._defs: dict[Term, Term] = {}  # defined var -> its definition
        self._def_linear: dict[Term, tuple] = {}  # substituted numeric var
        self._expanding: set[Term] = set()  # defined vars being expanded
        self._kept: set[Term] = set()  # defined vars with their own variable
        self._def_value: dict[Term, Union[bool, Fraction]] = {}
        self._true = self.cdcl.new_var()
        self.cdcl.add_clause([self._true << 1])
        terms, self.fun_table = ackermannize(terms)
        self.terms = terms
        defining = []
        for t in terms:
            if sort_of(t) != BOOL:
                raise SmtError("assert needs a boolean term")
            v = t[1][0] if t[0] == "=" else None
            is_def = v is not None and v[0] == "var" and v not in self._defs
            if is_def:
                self._defs[v] = t[1][1]
            defining.append(is_def)
        for t, is_def in zip(terms, defining):
            if is_def and self._substituted(t[1][0]):
                continue
            self.cdcl.add_clause([self._lit(t)])
        self.result: Optional[str] = None
        self._num_model: Optional[list[Fraction]] = None

    def _substituted(self, v: Term) -> bool:
        """Expand the defined var v; True unless it keeps its own
        variable, in which case its defining term must be encoded."""
        if sort_of(v) == BOOL:
            self._lit(v)
        else:
            self._linear(v)
        return v not in self._kept

    # literal of a boolean term (Tseitin)

    def _lit(self, t: Term) -> int:
        hit = self._bool_lit.get(t)
        if hit is not None:
            return hit
        tag = t[0]
        if tag == "bool":
            lit = (self._true << 1) | (0 if t[1] else 1)
        elif tag == "var":
            e = self._defs.get(t)
            if e is None:
                lit = self.cdcl.new_var() << 1
            elif t in self._expanding:  # a cycle: t keeps its own literal
                self._kept.add(t)
                lit = self.cdcl.new_var() << 1
            else:
                self._expanding.add(t)
                lit = self._lit(e)
                self._expanding.discard(t)
                if t in self._kept:  # got its literal inside the cycle
                    return self._bool_lit[t]
        elif tag == "not":
            lit = sat.neg(self._lit(t[1][0]))
        elif tag in ("and", "or"):
            args = [self._lit(a) for a in t[1]]
            v = self.cdcl.new_var() << 1
            if tag == "and":
                big = [v] + [sat.neg(a) for a in args]
                for a in args:
                    self.cdcl.add_clause([sat.neg(v), a])
                self.cdcl.add_clause(big)
            else:
                big = [sat.neg(v)] + args
                for a in args:
                    self.cdcl.add_clause([v, sat.neg(a)])
                self.cdcl.add_clause(big)
            lit = v
        elif tag == "=>":
            a, b = (self._lit(x) for x in t[1])
            v = self.cdcl.new_var() << 1
            self.cdcl.add_clause([sat.neg(v), sat.neg(a), b])
            self.cdcl.add_clause([v, a])
            self.cdcl.add_clause([v, sat.neg(b)])
            lit = v
        elif tag == "xor":
            a, b = (self._lit(x) for x in t[1])
            lit = sat.neg(self._iff(a, b))
        elif tag == "=":
            x, y = t[1]
            if sort_of(x) == BOOL:
                lit = self._iff(self._lit(x), self._lit(y))
            else:
                le = self._cmp_lit("<=", x, y)
                ge = self._cmp_lit("<=", y, x)
                v = self.cdcl.new_var() << 1
                self.cdcl.add_clause([sat.neg(v), le])
                self.cdcl.add_clause([sat.neg(v), ge])
                self.cdcl.add_clause([v, sat.neg(le), sat.neg(ge)])
                lit = v
        elif tag == "ite":  # boolean ite
            c, a, b = (self._lit(x) for x in t[1])
            v = self.cdcl.new_var() << 1
            self.cdcl.add_clause([sat.neg(v), sat.neg(c), a])
            self.cdcl.add_clause([sat.neg(v), c, b])
            self.cdcl.add_clause([v, sat.neg(c), sat.neg(a)])
            self.cdcl.add_clause([v, c, sat.neg(b)])
            lit = v
        elif tag in _CMP:
            lit = self._cmp_lit(tag, t[1][0], t[1][1])
        else:
            raise SmtError(f"not a boolean term: {tag}")
        self._bool_lit[t] = lit
        return lit

    def _iff(self, a: int, b: int) -> int:
        v = self.cdcl.new_var() << 1
        self.cdcl.add_clause([sat.neg(v), sat.neg(a), b])
        self.cdcl.add_clause([sat.neg(v), a, sat.neg(b)])
        self.cdcl.add_clause([v, a, b])
        self.cdcl.add_clause([v, sat.neg(a), sat.neg(b)])
        return v

    # numeric side ----------------------------------------------------------

    def _svar(self, t: Term) -> int:
        """Simplex variable for a numeric var or ite term."""
        hit = self._num_var.get(t)
        if hit is not None:
            return hit
        v = self.simplex.new_var()
        self._num_var[t] = v
        self._num_sort[v] = sort_of(t)
        if sort_of(t) == INT:
            self.int_vars.append(v)
        if t[0] == "ite":
            c = self._lit(t[1][0])
            for guard, branch in ((c, t[1][1]), (sat.neg(c), t[1][2])):
                # branch <= v and branch >= v, over the branch's
                # denominator: nums.x - den*v <= -const and >= -const
                nums, const, den = self._linear(branch)
                combo = dict(nums)
                combo[v] = combo.get(v, 0) - den
                combo = {k: x for k, x in combo.items() if x != 0}
                le = self._form_atom(combo, "<=", -const)
                ge = sat.neg(self._form_atom(combo, "<", -const))
                self.cdcl.add_clause([sat.neg(guard), le])
                self.cdcl.add_clause([sat.neg(guard), ge])
        return v

    def _linear(self, t: Term) -> tuple[dict[int, int], int, int]:
        """t as (nums, const, den): (sum of nums[k] * k + const) / den
        over simplex vars k, with den > 0 and the gcd of den, const and
        every num 1. The nums may be shared with a cache: callers copy
        them before changing them."""
        tag = t[0]
        if tag == "num":
            return {}, t[1].numerator, t[1].denominator
        if tag == "var":
            hit = self._def_linear.get(t)
            if hit is not None:
                return hit
            e = self._defs.get(t)
            if e is not None and t not in self._kept:
                if t not in self._expanding:
                    return self._define(t, e)
                self._kept.add(t)  # a cycle: t keeps its own variable
            return {self._svar(t): 1}, 0, 1
        if tag == "ite":
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

    def _define(self, v: Term, e: Term) -> tuple[dict[int, int], int, int]:
        """Linear form of the defined numeric var v: that of e, unless v
        turns out to keep its own variable."""
        self._expanding.add(v)
        form = self._linear(e)
        self._expanding.discard(v)
        # in lowest terms, den == 1 exactly when every coefficient and
        # the constant are integers
        if sort_of(v) == INT and not (form[2] == 1 and all(
                self._num_sort[k] == INT for k in form[0])):
            self._kept.add(v)
        if v in self._kept:
            return {self._svar(v): 1}, 0, 1
        self._def_linear[v] = form
        return form

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
        key = (svar,) + ub
        hit = self._atom_key.get(key)
        if hit is not None:
            return hit << 1
        v = self.cdcl.new_var()
        self._atom_key[key] = v
        self.atom_of_var[v] = (svar, ub, lb)
        return v << 1

    # solving and models ------------------------------------------------------

    def check(self) -> str:
        theory = ArithTheory(self.simplex, self.atom_of_var, self.int_vars)
        self.result = self.cdcl.solve(theory)
        if self.result == "sat":
            self._num_model = self.simplex.model()
            self._check_model()
        return self.result

    def _check_model(self) -> None:
        for v in self.int_vars:
            if self._num_model[v].denominator != 1:
                raise ModelCheckError(f"Int variable {v} has the value "
                                      f"{self._num_model[v]} in the model")
        for i, t in enumerate(self.terms):
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

    def _eval(self, t: Term):
        tag = t[0]
        if tag == "bool":
            return t[1]
        if tag == "num":
            return t[1]
        if tag == "var":
            if t in self._defs and t not in self._kept:
                val = self._def_value.get(t)
                if val is None:
                    val = self._def_value[t] = self._eval(self._defs[t])
                return val
            if sort_of(t) == BOOL:
                lit = self._bool_lit.get(t)
                if lit is None:
                    return False
                val = self.cdcl.value(lit)
                return val == 1
            sv = self._num_var.get(t)
            if sv is None:
                return ZERO
            return self._num_model[sv]
        if tag == "app":
            args = tuple(self._eval(a) for a in t[2])
            for inst_args, var in self.fun_table.get(t[1], []):
                if tuple(self._eval(a) for a in inst_args) == args:
                    return self._eval(var)
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

