import hashlib
import io
import random
import subprocess
import sys
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import pytest

from synkit.smt import SmtSession, SolverFailure, parse_value, \
    resolve_solver_command
from synkit.smt import bundled, sat
from synkit.smt.sexpr import Incomplete, SExprError, format_atom, \
    format_sexpr, parse_all
from synkit.smt.simplex import Conflict, Simplex, _lt
from synkit.smt.solver import ModelCheckError, SmtError, Solver, \
    sort_of, term_of

F = Fraction

BUNDLED = [sys.executable, "-m", "synkit.smt.bundled"]


# s-expressions ---------------------------------------------------------------

def _parse_one(text):
    (sx,) = parse_all(text)
    return sx


def test_sexpr_round_trip():
    text = '(assert (= |n@0| (- 1.5)) "a ""quoted"" string")'
    sx = _parse_one(text)
    assert sx[1][1] == "n@0"
    assert _parse_one(format_sexpr(sx)) == sx


def test_sexpr_comments_and_balance():
    assert parse_all("; hi\n(a b) ; bye\n(c)") == [["a", "b"], ["c"]]
    assert parse_all("(a (b c))") == [["a", ["b", "c"]]]
    with pytest.raises(Incomplete):
        parse_all("(a (b c)")
    with pytest.raises(Incomplete):
        parse_all("(a |unclosed")


def test_sexpr_errors():
    with pytest.raises(SExprError):
        _parse_one("(a))")
    with pytest.raises(SExprError):
        parse_all("(a")


def _feed(lines):
    """A bundled session fed ``lines``; returns it and its output."""
    out = io.StringIO()
    session = bundled.Session(out)
    for line in lines:
        session.feed(line)
    return session, out.getvalue()


@pytest.mark.parametrize("lines, output", [
    # a command split over several lines
    (["(declare-const\n", "  n Int)\n", "(assert (>\n", "n 3)\n",
      ") (check-sat\n", ")\n"], "sat\n"),
    # two commands on one line
    (['(echo "a") (echo "b")\n'], "a\nb\n"),
    # a quoted symbol holding a paren and a newline, in a command and in
    # the get-value reply
    (["(declare-const |a )\n", "b| Int)\n", "(assert (= |a )\n",
      "b| 2))\n", "(check-sat)\n", "(get-value (|a )\n", "b|))\n"],
     "sat\n((|a )\nb| 2))\n"),
    # a string with an escaped quote
    (['(echo "x "" y")\n'], 'x " y\n'),
    # a paren in a comment
    (["(echo ; )\n", '"c")\n'], "c\n"),
    # an unterminated quoted symbol waits for its closing line
    (["(echo |abc\n", "def|)\n"], "abc\ndef\n"),
], ids=["split", "two-on-a-line", "symbol-with-paren", "string",
        "comment", "open-symbol"])
def test_reader_runs_each_command_once_complete(lines, output):
    session, _ = _feed(lines[:-1])
    assert bool(session.pending) == (len(lines) > 1)
    session.feed(lines[-1])
    assert session.pending == ""
    assert session.out.getvalue() == output


def test_format_atom_quotes_when_needed():
    assert format_atom("x") == "x"
    assert format_atom("n@0") == "n@0"  # @ is a plain symbol character
    assert format_atom("Pos.x@3") == "Pos.x@3"
    assert format_atom("a b") == "|a b|"
    assert format_atom("x#1") == "|x#1|"


# SAT core --------------------------------------------------------------------

def _cnf_solve(clauses, n_vars):
    s = sat.CDCL()
    for _ in range(n_vars):
        s.new_var()
    for c in clauses:
        s.add_clause(list(c))
    return s


def test_sat_simple():
    # (a or b) and (not a) and (not b) is unsat
    s = _cnf_solve([[0, 2], [1], [3]], 2)
    assert s.solve() == "unsat"
    s = _cnf_solve([[0, 2], [1, 2]], 2)
    assert s.solve() == "sat"
    assert s.value(2) == 1  # b must be true


def test_sat_pigeonhole_3_into_2():
    # p[i][j]: pigeon i sits in hole j
    s = sat.CDCL()
    p = [[s.new_var() << 1 for _ in range(2)] for _ in range(3)]
    for i in range(3):
        s.add_clause(p[i])
    for j in range(2):
        for i1 in range(3):
            for i2 in range(i1 + 1, 3):
                s.add_clause([sat.neg(p[i1][j]), sat.neg(p[i2][j])])
    assert s.solve() == "unsat"


def test_sat_differential_random_3sat():
    rng = random.Random(7)
    for _ in range(120):
        n = rng.randint(1, 6)
        m = rng.randint(1, 18)
        clauses = []
        for _ in range(m):
            width = rng.randint(1, 3)
            vs = rng.sample(range(n), min(width, n))
            clauses.append([(v << 1) | rng.randint(0, 1) for v in vs])
        want = any(
            all(any((lit & 1) == 1 - bits[lit >> 1] for lit in c)
                for c in clauses)
            for bits in product((0, 1), repeat=n))
        s = _cnf_solve(clauses, n)
        got = s.solve()
        assert got == ("sat" if want else "unsat"), clauses
        if got == "sat":
            for c in clauses:
                assert any(s.value(lit) == 1 for lit in c)


# simplex ---------------------------------------------------------------------

def _triple(a, d=0):
    """a + d*delta as the simplex's triple (a', d', q), meaning
    (a' + d'*delta)/q, over q = the lcm of the two denominators."""
    a, d = F(a), F(d)
    q = lcm(a.denominator, d.denominator)
    return (a.numerator * (q // a.denominator),
            d.numerator * (q // d.denominator), q)


def _beta(sx, v):
    """beta of v as the pair (a, d) of a + d*delta."""
    a, d, q = sx.beta[v]
    return F(a, q), F(d, q)


def test_triple_ordering():
    assert _lt(_triple(1), _triple(1, 1))
    assert _lt(_triple(1, -1), _triple(1))
    assert _lt(_triple(0, 5), _triple(1, -5))
    # different denominators: 1/2 - delta/2 < 1/2 - delta/4 < 1/2 < 2/3
    assert _triple(F(1, 2), F(-1, 2)) == (1, -1, 2)
    assert _triple(F(1, 2), F(-1, 4)) == (2, -1, 4)
    assert _lt(_triple(F(1, 2), F(-1, 2)), _triple(F(1, 2), F(-1, 4)))
    assert not _lt(_triple(F(1, 2), F(-1, 4)), _triple(F(1, 2), F(-1, 2)))
    assert _lt(_triple(F(1, 2), F(-1, 4)), _triple(F(1, 2)))
    assert _lt(_triple(F(1, 2), 1), _triple(F(2, 3)))
    assert not _lt(_triple(F(1, 3)), _triple(F(1, 3)))
    # against the lexicographic order of (a, d) pairs of Fractions
    rng = random.Random(3)
    for _ in range(500):
        x, y = ((F(rng.randint(-6, 6), rng.randint(1, 6)),
                 F(rng.randint(-6, 6), rng.randint(1, 6))) for _ in "xy")
        assert _lt(_triple(*x), _triple(*y)) == (x < y), (x, y)


def test_simplex_feasible_point():
    sx = Simplex()
    x, y = sx.new_var(), sx.new_var()
    s = sx.add_row({x: F(1), y: F(1)})
    sx.assert_bound(s, False, _triple(4), 10)
    sx.assert_bound(x, True, _triple(1), 12)
    sx.assert_bound(y, True, _triple(2), 14)
    sx.check()
    m = sx.model()
    assert m[x] >= 1 and m[y] >= 2 and m[x] + m[y] <= 4


def test_simplex_conflict_reasons():
    sx = Simplex()
    x, y = sx.new_var(), sx.new_var()
    s = sx.add_row({x: F(1), y: F(1)})
    sx.assert_bound(x, False, _triple(1), 10)
    sx.assert_bound(y, False, _triple(1), 12)
    with pytest.raises(Conflict) as e:
        sx.assert_bound(s, True, _triple(3), 14)
        sx.check()
    assert set(e.value.reasons) == {10, 12, 14}


def test_simplex_strict_bounds_delta_model():
    sx = Simplex()
    x = sx.new_var()
    sx.assert_bound(x, True, _triple(1, 1), 10)   # x > 1
    sx.assert_bound(x, False, _triple(2, -1), 12)  # x < 2
    sx.check()
    m = sx.model()
    assert 1 < m[x] < 2


def test_simplex_undo_restores_bounds():
    sx = Simplex()
    x = sx.new_var()
    mark = sx.mark()
    sx.assert_bound(x, True, _triple(5), 10)
    sx.undo_to(mark)
    sx.assert_bound(x, False, _triple(0), 12)  # would clash with x >= 5
    sx.check()
    assert sx.model()[x] <= 0


def _tableau(nvars, combos):
    """A Simplex over nvars variables with one slack row per combo; the
    slack of combos[i] is variable nvars + i."""
    sx = Simplex()
    for _ in range(nvars):
        sx.new_var()
    for combo in combos:
        sx.add_row(combo)
    return sx


def _explanation_conflicts(nvars, combos, asserted, reasons):
    """Whether the bounds named in reasons alone are infeasible."""
    sx = _tableau(nvars, combos)
    try:
        for reason in reasons:
            v, is_lower, val = asserted[reason]
            sx.assert_bound(v, is_lower, _triple(*val), reason)
        sx.check()
    except Conflict:
        return True
    return False


def _assert_sound(sx, nvars, combos, bounds):
    """After a passing check(): beta is in bounds and solves every row,
    each row follows from the original definitions, and the model
    satisfies the definitions and bounds. Bounds are (a, d) pairs."""
    def expand(v):  # v as a combination of the original variables
        return combos[v - nvars] if v >= nvars else {v: F(1)}

    for v, is_lower, val in bounds:
        assert val <= _beta(sx, v) if is_lower else _beta(sx, v) <= val
    for b, (nums, den) in sx.rows.items():
        row = {k: F(n, den) for k, n in nums.items()}
        assert not set(row) & set(sx.rows)
        a = sum((c * _beta(sx, k)[0] for k, c in row.items()), F(0))
        d = sum((c * _beta(sx, k)[1] for k, c in row.items()), F(0))
        assert _beta(sx, b) == (a, d)
        implied = {}
        for k, c in row.items():
            for x, cx in expand(k).items():
                implied[x] = implied.get(x, F(0)) + c * cx
        assert expand(b) == {x: c for x, c in implied.items() if c}
    m = sx.model()
    for i, combo in enumerate(combos):
        assert m[nvars + i] == sum(c * m[x] for x, c in combo.items())
    # lower bounds here are (a, 0) or (a, 1), upper ones (a, 0) or (a, -1)
    for v, is_lower, (a, d) in bounds:
        if is_lower:
            assert m[v] > a if d else m[v] >= a
        else:
            assert m[v] < a if d else m[v] <= a


def test_simplex_random_tableau_invariants():
    rng = random.Random(5)
    passed = conflicts = 0
    for _ in range(150):
        nvars = rng.randint(3, 6)
        combos = [{x: F(rng.choice((-3, -2, -1, 1, 2, 3)),
                        rng.choice((1, 1, 2)))
                   for x in rng.sample(range(nvars), rng.randint(2, nvars))}
                  for _ in range(rng.randint(1, 4))]
        sx = _tableau(nvars, combos)
        asserted = {}  # reason -> (var, is_lower, (a, d) of the bound)
        active = []    # reasons of the bounds in force, oldest first
        marks = [(sx.mark(), 0)]
        for _ in range(40):
            op = rng.random()
            if op < 0.5:
                v = rng.randrange(sx.n)
                is_lower = rng.random() < 0.5
                d = rng.choice((0, 1 if is_lower else -1))
                reason = len(asserted)
                asserted[reason] = (v, is_lower, (F(rng.randint(-4, 4)), F(d)))
                try:
                    sx.assert_bound(v, is_lower, _triple(*asserted[reason][2]),
                                    reason)
                except Conflict as c:
                    conflicts += 1
                    assert reason in c.reasons
                    assert _explanation_conflicts(nvars, combos, asserted,
                                                  c.reasons)
                    continue
                active.append(reason)
            elif op < 0.65:
                marks.append((sx.mark(), len(active)))
            elif op < 0.8:
                i = rng.randrange(len(marks))
                mark, kept = marks[i]
                del marks[i + 1:]
                sx.undo_to(mark)
                del active[kept:]
            else:
                try:
                    sx.check()
                except Conflict as c:
                    conflicts += 1
                    assert set(c.reasons) <= set(active)
                    assert _explanation_conflicts(nvars, combos, asserted,
                                                  c.reasons)
                    continue
                passed += 1
                _assert_sound(sx, nvars, combos,
                              [asserted[r] for r in active])
    assert passed > 500 and conflicts > 200


def test_simplex_pivot_path_is_pinned(monkeypatch):
    # a seeded run over random tableaux, with fractional and strict
    # bounds: the (leaving, entering) pair of every pivot, beta and the
    # model after every passing check(), and the ordered reasons of every
    # conflict, hashed; the digest was taken with beta and the bounds as
    # Fraction pairs, so a change of value representation must leave the
    # whole path byte-identical
    log = []
    pivot = Simplex._pivot

    def logged(self, b, j):
        log.append(("pivot", b, j))
        pivot(self, b, j)

    monkeypatch.setattr(Simplex, "_pivot", logged)
    rng = random.Random(11)
    for _ in range(200):
        nvars = rng.randint(3, 6)
        combos = [{x: F(rng.choice((-3, -2, -1, 1, 2, 3)),
                        rng.choice((1, 2, 3)))
                   for x in rng.sample(range(nvars), rng.randint(2, nvars))}
                  for _ in range(rng.randint(2, 5))]
        sx = _tableau(nvars, combos)
        marks = [sx.mark()]
        for reason in range(60):
            op = rng.random()
            if op < 0.5:
                v = rng.randrange(sx.n)
                is_lower = rng.random() < 0.5
                a = F(rng.randint(-8, 8), rng.choice((1, 2, 3)))
                d = F(rng.choice((0, 0, 1, -1, 2)), rng.choice((1, 2)))
                val = _triple(a, d)
                try:
                    sx.assert_bound(v, is_lower, val, reason)
                except Conflict as c:
                    log.append(("conflict", tuple(c.reasons)))
            elif op < 0.65:
                marks.append(sx.mark())
            elif op < 0.8:
                i = rng.randrange(len(marks))
                sx.undo_to(marks[i])
                del marks[i + 1:]
            else:
                try:
                    sx.check()
                except Conflict as c:
                    log.append(("conflict", tuple(c.reasons)))
                    continue
                log.append(("beta", tuple(_beta(sx, v) for v in range(sx.n))))
                log.append(("model", tuple(sx.model())))
    counts = {kind: sum(e[0] == kind for e in log)
              for kind in ("pivot", "beta", "conflict")}
    assert counts == {"pivot": 669, "beta": 2257, "conflict": 743}
    assert hashlib.sha256(repr(log).encode()).hexdigest() == \
        "4f75bc09b0ef7e5e4b265ba6bee03c417f8336ee6b939417b293d109b1dc2f61"


# solver ----------------------------------------------------------------------

DECLS = {"x": ("const", "Int"), "y": ("const", "Int"),
         "r": ("const", "Real"), "q": ("const", "Real"),
         "p": ("const", "Bool"), "b": ("const", "Bool"),
         "f": ("fun", ("Int",), "Int")}


def _t(text):
    return term_of(parse_all(text)[0], DECLS)


def _solve(*texts):
    s = Solver([_t(x) for x in texts])
    verdict = s.check()
    if verdict == "sat":
        for x in texts:
            assert s.model_value(_t(x)) is True, x
    return s, verdict


def test_solver_propositional():
    assert _solve("(or p (not p))")[1] == "sat"
    assert _solve("(and p (not p))")[1] == "unsat"
    assert _solve("(= p (not b))", "(= p b)")[1] == "unsat"
    assert _solve("(xor p b)", "p")[1] == "sat"


def test_solver_real_strict():
    s, verdict = _solve("(< r 2.0)", "(> r 1.0)")
    assert verdict == "sat"
    assert 1 < s.model_value(_t("r")) < 2
    assert _solve("(< r 1.0)", "(> r 1.0)")[1] == "unsat"
    assert _solve("(<= r 1.0)", "(>= r 1.0)")[1] == "sat"


def test_solver_linear_system():
    s, verdict = _solve("(= (+ x y) 10)", "(= (- x y) 4)")
    assert verdict == "sat"
    assert s.model_value(_t("x")) == 7
    assert s.model_value(_t("y")) == 3


def test_solver_int_cuts():
    # x strictly between 0 and 1 has no integer solution
    assert _solve("(> x 0)", "(< x 1)")[1] == "unsat"
    assert _solve("(> (* 2 x) 1)", "(< (* 2 x) 2)")[1] == "unsat"
    assert _solve("(= (+ (* 2 x) (* 4 y)) 7)")[1] == "unsat"
    s, verdict = _solve("(= (+ (* 3 x) (* 5 y)) 11)", "(>= x 0)", "(>= y 0)")
    assert verdict == "sat"
    assert s.model_value(_t("x")) == 2 and s.model_value(_t("y")) == 1


def test_solver_ite_and_equality():
    assert _solve("(= x (ite p 3 4))", "(= x 4)", "p")[1] == "unsat"
    s, verdict = _solve("(= x (ite p 3 4))", "(= x 4)")
    assert verdict == "sat"
    assert s.model_value(_t("p")) is False


def test_solver_uf_congruence():
    assert _solve("(= x y)", "(not (= (f x) (f y)))")[1] == "unsat"
    s, verdict = _solve("(not (= x y))", "(= (f x) 1)", "(= (f y) 2)")
    assert verdict == "sat"
    assert s.model_value(_t("(f x)")) == 1


def test_solver_mixed_sorts_and_division():
    s, verdict = _solve("(= r (* 0.5 x))", "(= x 3)")
    assert verdict == "sat"
    assert s.model_value(_t("r")) == F(3, 2)
    s, verdict = _solve("(= q (/ x 4))", "(= x 1)")
    assert verdict == "sat"
    assert s.model_value(_t("q")) == F(1, 4)


def test_solver_rejects_nonlinear():
    with pytest.raises(SmtError):
        _solve("(= r (* x x))")
    with pytest.raises(SmtError):
        _solve("(= r (/ 1 x))")


def test_solver_scales_by_a_defined_constant():
    # a factor is constant when its linear form has no variables, so c's
    # definition makes both terms linear
    _, out = _feed(["(declare-const c Real)", "(declare-const x Real)",
                    "(assert (= c 2.0))", "(assert (= (* c x) 3.0))",
                    "(check-sat)", "(get-value (x))", "(push 1)",
                    "(assert (= (/ x c) 0.0))", "(check-sat)"])
    assert out.splitlines() == ["sat", "((x (/ 3.0 2.0)))", "unsat"]
    _, out = _feed(["(declare-const c Real)", "(declare-const x Real)",
                    "(assert (= c 0.0))", "(assert (= (/ x c) 1.0))",
                    "(check-sat)"])
    assert out == '(error "division by zero")\n'


def test_solver_model_is_pinned_by_the_pivot_order():
    # many models satisfy these; Bland's rule over the tableau picks one,
    # and counterexample traces are read from such models
    decls = {v: ("const", "Real") for v in "rqs"}
    s = Solver([term_of(_parse_one(
        "(and (>= (+ r q s) 5) (<= (- r q) 1) (>= (+ q (* 2 s)) 4) "
        "(< (+ r (* 3 s)) 8) (>= r 0) (>= q 0) (>= s 0))"), decls)])
    assert s.check() == "sat"
    assert [s.model_value(("var", v, "Real")) for v in "rqs"] == \
        [F(7, 3), F(4, 3), F(4, 3)]


@pytest.mark.parametrize("shift", [F(1), F(1, 2)], ids=["real", "fraction"])
def test_solver_rejects_a_model_that_fails_its_terms(monkeypatch, shift):
    good = Simplex.model

    def perturbed(self):
        return [v + shift for v in good(self)]

    monkeypatch.setattr(Simplex, "model", perturbed)
    with pytest.raises(ModelCheckError):
        Solver([_t("(= (+ x y) 10)"), _t("(= (- x y) 4)")]).check()
    with pytest.raises(ModelCheckError):
        Solver([_t("(< r 2.0)"), _t("(> r 1.5)")]).check()


def test_solver_let_and_distinct():
    assert _solve("(let ((a (+ x 1))) (and (= a 5) (= x 4)))")[1] == "sat"
    assert _solve("(let ((a (+ x 1))) (and (= a 5) (= x 3)))")[1] == "unsat"
    assert _solve("(distinct x y)", "(= x y)")[1] == "unsat"


# definitions substituted at encode time --------------------------------------

def test_definitions_get_no_variable_or_row():
    s, verdict = _solve("(= r (+ q 1))", "(= q (* 2 r))", "(> r 0.0)")
    # r keeps its variable (a cycle); q is 2r, and r = 2r + 1 is its row
    assert verdict == "unsat"
    s, verdict = _solve("(= r q)", "(= p (> r 1.0))", "p", "(< q 3.0)")
    assert verdict == "sat"
    assert s.simplex.n == 1  # q only: r is q, and p is the atom q > 1
    assert 1 < s.model_value(_t("r")) == s.model_value(_t("q")) < 3


def test_definition_of_int_keeps_its_variable_when_it_could_be_fractional():
    assert _solve("(= x (* (/ 1 2) y))", "(= y 1)")[1] == "unsat"
    assert _solve("(= x (* 0.5 y))", "(= y 1)")[1] == "unsat"
    s, verdict = _solve("(= x (* (/ 1 2) y))", "(= y 2)")
    assert verdict == "sat" and s.model_value(_t("x")) == 1


def test_definition_cycles_keep_one_variable():
    s, verdict = _solve("(= r (+ q 1))", "(= q (- r 1))")
    assert verdict == "sat"
    assert s.model_value(_t("r")) == s.model_value(_t("q")) + 1
    s, verdict = _solve("(= p (not b))", "(= b (not p))")
    assert verdict == "sat"
    assert s.model_value(_t("p")) is not s.model_value(_t("b"))
    assert _solve("(= p (not b))", "(= b p)")[1] == "unsat"
    assert _solve("(= r r)", "(= q (+ r 1))", "(> q 5.0)")[1] == "sat"


def test_second_equality_is_a_constraint():
    assert _solve("(= r 1)", "(= r 2)")[1] == "unsat"
    assert _solve("(= p true)", "(= p false)")[1] == "unsat"
    assert _solve("(= x (+ y 1))", "(= x 3)", "(= y 2)")[1] == "sat"
    assert _solve("(= x (+ y 1))", "(= x 3)", "(= y 3)")[1] == "unsat"


def test_use_before_definition():
    s, verdict = _solve("(> r 3.0)", "(= r (+ q 1))", "(= q (* 2 x))",
                        "(< x 3)")
    assert verdict == "sat"
    assert s.model_value(_t("r")) == 2 * s.model_value(_t("x")) + 1 == 5
    assert _solve("(not p)", "(= p (> r 1.0))", "(= r 2.0)")[1] == "unsat"


def test_get_value_reads_a_substituted_variable():
    out = io.StringIO()
    session = bundled.Session(out)
    for line in ["(declare-const r Real)", "(declare-const q Real)",
                 "(declare-const p Bool)", "(assert (= r (* 2 q)))",
                 "(assert (= p (> r 5.0)))", "(assert (= q 3.0))",
                 "(check-sat)", "(get-value (r q p (+ r q)))"]:
        session.feed(line)
    assert out.getvalue().splitlines() == [
        "sat", "((r 6.0) (q 3.0) (p true) ((+ r q) 9.0))"]


def test_substitution_matches_the_unsubstituted_encoding():
    # (and true (= v e)) is not a definition, so it takes the plain
    # encoding: a row, two bound atoms and an iff per equality
    rng = random.Random(31)
    names = {"x0": "Int", "x1": "Int", "x2": "Int", "r0": "Real",
             "r1": "Real", "r2": "Real", "p0": "Bool", "p1": "Bool"}
    decls = {n: ("const", s) for n, s in names.items()}
    ints = [n for n, s in names.items() if s == "Int"]
    nums = [n for n, s in names.items() if s != "Bool"]
    bools = [n for n, s in names.items() if s == "Bool"]

    def num(c):
        return str(c) if c >= 0 else f"(- {-c})"

    def linear(pool, fractional):
        terms = []
        for v in rng.sample(pool, rng.randint(1, 2)):
            c = rng.choice([-2, -1, 1, 1, 2, 3])
            if fractional and rng.random() < 0.3:
                terms.append(f"(* (/ {num(c)} 2) {v})")
            else:
                terms.append(f"(* {num(c)} {v})")
        terms.append(num(rng.randint(-3, 3)))
        return f"(+ {' '.join(terms)})"

    def rhs(v):
        if names[v] == "Bool":
            pick = rng.random()
            if pick < 0.4:
                return f"(not {rng.choice(bools)})"
            if pick < 0.7:
                return f"(< {rng.choice(nums)} {num(rng.randint(-2, 2))})"
            return f"(or {rng.choice(bools)} (= {rng.choice(nums)} 0))"
        pool = ints if names[v] == "Int" and rng.random() < 0.5 else nums
        e = linear(pool, True)
        if rng.random() < 0.2:
            e = f"(ite {rng.choice(bools)} {e} {linear(pool, False)})"
        return e

    box = " ".join(f"(<= (- 4) {n} 4)" for n in nums)
    verdicts = set()
    for _ in range(120):
        eqs = [f"(= {v} {rhs(v)})" for v in rng.choices(list(names),
                                                         k=rng.randint(2, 7))]
        extra = [f"(> {linear(nums, True)} 0)", rng.choice(bools)]
        extra = rng.sample(extra, rng.randint(0, 2))
        answers = []
        for wrap in (lambda e: e, lambda e: f"(and true {e})"):
            texts = [wrap(e) for e in eqs] + extra + [f"(and {box})"]
            s = Solver([term_of(parse_all(x)[0], decls) for x in texts])
            answers.append(s.check())
        assert answers[0] == answers[1], eqs + extra
        verdicts.add(answers[0])
    assert verdicts == {"sat", "unsat"}


def eval_const(t):
    """Value of a ground numeric term, or None if it has variables."""
    tag = t[0]
    if tag == "num":
        return t[1]
    if tag == "-" and len(t[1]) == 1:
        v = eval_const(t[1][0])
        return None if v is None else -v
    if tag in ("+", "-", "*", "/"):
        vals = [eval_const(a) for a in t[1]]
        if any(v is None for v in vals):
            return None
        out = vals[0]
        for v in vals[1:]:
            if tag == "+":
                out = out + v
            elif tag == "-":
                out = out - v
            elif tag == "*":
                out = out * v
            else:
                out = out / v
        return out
    if tag == "to_real":
        return eval_const(t[1][0])
    return None


class _FractionEncoding(Solver):
    """Reference encoder: linear forms as Fraction combinations, atoms
    scaled to coprime integer rows by lcm and gcd. Solver must produce
    the same rows and bound atoms from its integer forms."""

    def _svar(self, t):
        hit = self._num_var.get(t)
        if hit is not None:
            return hit
        v = self.simplex.new_var()
        self._num_var[t] = v
        self._num_sort[v] = sort_of(t)
        if sort_of(t) == "Int":
            self.int_vars.append(v)
        if t[0] == "ite":
            c = self._lit(t[1][0])
            for guard, branch in ((c, t[1][1]), (sat.neg(c), t[1][2])):
                combo, const = self._linear(branch)
                combo = dict(combo)
                combo[v] = combo.get(v, F(0)) - 1
                combo = {k: x for k, x in combo.items() if x != 0}
                le = self._form_atom(dict(combo), "<=", -const)
                ge = sat.neg(self._form_atom(dict(combo), "<", -const))
                self.cdcl.add_clause([sat.neg(guard), le])
                self.cdcl.add_clause([sat.neg(guard), ge])
        return v

    def _linear(self, t):
        tag = t[0]
        if tag == "num":
            return {}, t[1]
        if tag == "var":
            hit = self._def_linear.get(t)
            if hit is not None:
                return hit
            e = self._defs.get(t)
            if e is not None and t not in self._kept:
                if t not in self._expanding:
                    return self._define(t, e)
                self._kept.add(t)
            return {self._svar(t): F(1)}, F(0)
        if tag == "ite":
            return {self._svar(t): F(1)}, F(0)
        if tag == "to_real":
            return self._linear(t[1][0])
        if tag == "-" and len(t[1]) == 1:
            combo, c = self._linear(t[1][0])
            return {k: -v for k, v in combo.items()}, -c
        if tag in ("+", "-"):
            combo, const = self._linear(t[1][0])
            combo = dict(combo)
            for arg in t[1][1:]:
                c2, k2 = self._linear(arg)
                s = 1 if tag == "+" else -1
                for k, v in c2.items():
                    combo[k] = combo.get(k, F(0)) + s * v
                const += s * k2
            return combo, const
        scale = F(1)
        if tag == "*":
            consts = [eval_const(a) for a in t[1]]
            unknowns = [a for a, c in zip(t[1], consts) if c is None]
            for c in consts:
                if c is not None:
                    scale *= c
            if not unknowns:
                return {}, scale
            arg = unknowns[0]
        else:  # "/"
            for a in t[1][1:]:
                scale /= eval_const(a)
            arg = t[1][0]
        combo, const = self._linear(arg)
        return {k: v * scale for k, v in combo.items()}, const * scale

    def _define(self, v, e):
        self._expanding.add(v)
        combo, const = self._linear(e)
        self._expanding.discard(v)
        if sort_of(v) == "Int" and not (const.denominator == 1 and all(
                c.denominator == 1 and self._num_sort[k] == "Int"
                for k, c in combo.items())):
            self._kept.add(v)
        if v in self._kept:
            return {self._svar(v): F(1)}, F(0)
        self._def_linear[v] = combo, const
        return combo, const

    def _cmp_lit(self, op, x, y):
        cx, kx = self._linear(x)
        cy, ky = self._linear(y)
        combo = dict(cx)
        for k, v in cy.items():
            combo[k] = combo.get(k, F(0)) - v
        combo = {k: v for k, v in combo.items() if v != 0}
        rhs = ky - kx
        if op == ">":
            return sat.neg(self._form_atom(combo, "<=", rhs))
        if op == ">=":
            return sat.neg(self._form_atom(combo, "<", rhs))
        return self._form_atom(combo, op, rhs)

    def _form_atom(self, combo, op, rhs):
        if not combo:
            holds = rhs >= 0 if op == "<=" else rhs > 0
            return (self._true << 1) | (0 if holds else 1)
        first = min(combo)
        if combo[first] < 0:
            flipped = {k: -v for k, v in combo.items()}
            return sat.neg(self._form_atom(
                flipped, "<" if op == "<=" else "<=", -rhs))
        denom_lcm = lcm(*(v.denominator for v in combo.values()))
        scaled = {k: v * denom_lcm for k, v in combo.items()}
        g = gcd(*(v.numerator for v in scaled.values()))
        scaled = {k: F(v.numerator // g) for k, v in scaled.items()}
        rhs = rhs * denom_lcm / g
        if len(scaled) == 1:
            ((var, coeff),) = scaled.items()
            return self._var_atom(var, op, rhs / coeff)
        key = tuple(sorted(scaled.items()))
        svar = self._slack.get(key)
        if svar is None:
            svar = self.simplex.add_row(dict(scaled))
            self._slack[key] = svar
            self._num_sort[svar] = "Int" if all(
                self._num_sort[v] == "Int" for v in scaled) else "Real"
            if self._num_sort[svar] == "Int":
                self.int_vars.append(svar)
        return self._var_atom(svar, op, rhs)

    def _var_atom(self, svar, op, bound):
        if self._num_sort.get(svar) == "Int":
            b = bound.__floor__() if op == "<=" else bound.__ceil__() - 1
            ub, lb = (F(b), F(0)), (F(b + 1), F(0))
        else:
            ub = (bound, F(0) if op == "<=" else F(-1))
            lb = (bound, F(1) if op == "<=" else F(0))
        ub, lb = _triple(*ub), _triple(*lb)
        key = (svar,) + ub
        hit = self._atom_key.get(key)
        if hit is not None:
            return hit << 1
        v = self.cdcl.new_var()
        self._atom_key[key] = v
        self.atom_of_var[v] = (svar, ub, lb)
        return v << 1


def _same_encoding(texts, decls):
    terms = [term_of(parse_all(x)[0], decls) for x in texts]
    new, ref = Solver(terms), _FractionEncoding(terms)
    assert list(new._slack.items()) == list(ref._slack.items()), texts
    assert list(new._atom_key.items()) == list(ref._atom_key.items()), texts
    assert new.atom_of_var == ref.atom_of_var, texts
    assert new.simplex.rows == ref.simplex.rows, texts
    assert new._kept == ref._kept, texts
    return new


def test_integer_forms_encode_as_the_fraction_reference():
    rng = random.Random(47)
    ints, reals, bools = ["i0", "i1", "i2"], ["r0", "r1", "r2"], ["b0", "b1"]
    decls = {n: ("const", "Int") for n in ints}
    decls.update({n: ("const", "Real") for n in reals})
    decls.update({n: ("const", "Bool") for n in bools})
    consts = ["2", "3", "(- 1)", "0.5", "(/ 1 3)", "(/ (- 3) 4)", "1.25",
              "(* 2 (/ 5 6))"]

    def num(depth, int_only):
        pick = rng.random()
        if depth == 0 or pick < 0.25:
            if int_only or rng.random() < 0.4:
                return rng.choice(ints + ["0", "4", "(- 2)"])
            return rng.choice(reals + ["(to_real i0)", "(to_real i2)"]
                              + consts)
        a = num(depth - 1, int_only)
        b = num(depth - 1, int_only)
        if pick < 0.45:
            return f"(+ {a} {b}" + (f" {num(0, int_only)})"
                                    if rng.random() < 0.3 else ")")
        if pick < 0.6:
            return f"(- {a} {b})"
        if pick < 0.68:
            return f"(- {a})"
        if pick < 0.84:
            c = rng.choice(["3", "(- 2)"] if int_only else consts)
            return f"(* {c} {a})" if rng.random() < 0.5 else f"(* {a} {c})"
        if pick < 0.92 and not int_only:
            return f"(/ {a} {rng.choice(['2', '3', '(- 4)', '0.75'])})"
        return f"(ite {rng.choice(bools)} {a} {b})"

    def comparison():
        op = rng.choice(["<", "<=", ">", ">=", "="])
        int_only = rng.random() < 0.4
        return f"({op} {num(3, int_only)} {num(2, int_only)})"

    def definition():
        v = rng.choice(ints + reals)
        return f"(= {v} {num(2, v in ints and rng.random() < 0.5)})"

    rows = 0
    for _ in range(200):
        texts = [comparison() for _ in range(rng.randint(1, 3))]
        texts += [definition() for _ in range(rng.randint(0, 2))]
        rng.shuffle(texts)
        rows += len(_same_encoding(texts, decls)._slack)
    assert rows > 200  # most comparisons become rows, not bare bounds


def test_int_definition_with_an_integer_form_is_substituted():
    s = _same_encoding(["(= x (/ (+ (* 2 y) 2) 2))", "(> x 3)"], DECLS)
    x = _t("x")
    assert x not in s._kept and x not in s._num_var
    assert s.simplex.n == 1  # y only: x > 3 is the bound y > 2
    assert s.check() == "sat"
    assert s.model_value(x) == s.model_value(_t("y")) + 1 > 3


def test_int_definition_with_a_fractional_form_keeps_its_variable():
    s = _same_encoding(["(= x (/ y 2))", "(> x 3)"], DECLS)
    assert _t("x") in s._kept and _t("x") in s._num_var


def _eval_bool(sx, env):
    if isinstance(sx, str):
        if sx in env:
            return env[sx]
        return {"true": True, "false": False}[sx]
    op, args = sx[0], [_eval_bool(a, env) for a in sx[1:]]
    if op == "not":
        return not args[0]
    if op == "and":
        return all(args)
    if op == "or":
        return any(args)
    if op == "=>":
        return (not args[0]) or args[1]
    if op == "=":
        return args[0] == args[1]
    raise AssertionError(op)


def test_solver_differential_bool_formulas():
    rng = random.Random(11)
    names = ["p", "b", "c3", "c4"]
    decls = {n: ("const", "Bool") for n in names}

    def gen(depth):
        if depth == 0 or rng.random() < 0.3:
            return rng.choice(names + ["true", "false"])
        op = rng.choice(["not", "and", "or", "=>", "="])
        if op == "not":
            return ["not", gen(depth - 1)]
        return [op, gen(depth - 1), gen(depth - 1)]

    for _ in range(150):
        sx = gen(4)
        want = any(_eval_bool(sx, dict(zip(names, bits)))
                   for bits in product((False, True), repeat=len(names)))
        s = Solver([term_of(sx, decls)])
        assert s.check() == ("sat" if want else "unsat"), sx


def test_solver_differential_int_formulas():
    rng = random.Random(23)
    names = ["x", "y", "z"]
    decls = {n: ("const", "Int") for n in names}

    def atom():
        coeffs = [rng.randint(-3, 3) for _ in names]
        lhs = ["+"] + [["*", str(c) if c >= 0 else ["-", str(-c)], n]
                       for c, n in zip(coeffs, names)]
        op = rng.choice(["<", "<=", ">", ">=", "="])
        k = rng.randint(-4, 4)
        return [op, lhs, str(k) if k >= 0 else ["-", str(-k)]]

    def eval_atom(sx, env):
        def ev(e):
            if isinstance(e, str):
                return env.get(e, int(e) if e.lstrip("-").isdigit() else None)
            if e[0] == "-" and len(e) == 2:
                return -ev(e[1])
            if e[0] == "+":
                return sum(ev(a) for a in e[1:])
            if e[0] == "*":
                return ev(e[1]) * ev(e[2])
            raise AssertionError(e)
        a, b = ev(sx[1]), ev(sx[2])
        return {"<": a < b, "<=": a <= b, ">": a > b,
                ">=": a >= b, "=": a == b}[sx[0]]

    grid = range(-3, 4)
    for _ in range(60):
        atoms = [atom() for _ in range(rng.randint(1, 4))]
        sx = ["and"] + atoms if len(atoms) > 1 else atoms[0]
        want = any(all(eval_atom(a, dict(zip(names, pt))) for a in atoms)
                   for pt in product(grid, repeat=3))
        # restrict the solver to the same grid so verdicts line up
        box = [["and", ["<=", ["-", "3"], n], ["<=", n, "3"]]
               for n in names]
        s = Solver([term_of(["and", sx] + box, decls)])
        assert s.check() == ("sat" if want else "unsat"), sx


# bundled process and session --------------------------------------------------

def _pipe(script: str) -> str:
    out = subprocess.run(BUNDLED, input=script, capture_output=True,
                         text=True, timeout=120)
    return out.stdout


def test_bundled_basic_conversation():
    out = _pipe("""(set-logic QF_LIA)
(declare-const n Int)
(assert (> n 3))
(assert (< n 5))
(check-sat)
(get-value (n))
(exit)
""")
    lines = out.strip().splitlines()
    assert lines[0] == "sat"
    assert lines[1] == "((n 4))"


def test_bundled_unsat_and_recovery():
    out = _pipe("""(declare-const p Bool)
(assert p)
(assert (not p))
(check-sat)
(get-value (p))
(push 1)
(pop 1)
(echo "still here")
(exit)
""")
    lines = out.strip().splitlines()
    assert lines[0] == "unsat"
    assert lines[1].startswith('(error')
    assert lines[2] == "still here"


def test_bundled_error_then_continue():
    out = _pipe("""(declare-const x Widget)
(declare-const x Int)
(assert (= x 2))
(check-sat)
(exit)
""")
    lines = out.strip().splitlines()
    assert lines[0].startswith('(error')
    assert lines[1] == "sat"


# the assert on the stray paren's line is dropped with it: n < 3 holds
STRAY_PAREN = ["(declare-const n Int)\n", "(assert (> n 3)))\n",
               "(assert (< n 3))\n", "(check-sat)\n", '(echo "hi")\n']
STRAY_REPLIES = ["(error \"unbalanced ')'\")", "sat", "hi"]


def test_bundled_stray_paren_is_one_error():
    session, out = _feed(STRAY_PAREN)
    assert out.splitlines() == STRAY_REPLIES
    assert session.pending == ""


def test_bundled_child_answers_after_a_stray_paren():
    assert _pipe("".join(STRAY_PAREN)).splitlines() == STRAY_REPLIES


@pytest.mark.parametrize("command", ["(pop -1)", "(push -2)", "(pop x)",
                                     "(push (+ 1 1))", "(pop 1.5)"])
def test_bundled_push_pop_count_must_be_a_numeral(command):
    out = io.StringIO()
    session = bundled.Session(out)
    for line in ["(declare-const p Bool)", "(push 1)", "(assert p)",
                 "(assert (not p))", command]:
        session.feed(line)
    assert out.getvalue().startswith("(error ")
    assert len(session.frames) == 2 and len(session.frames[1]) == 2
    session.feed("(pop 1)")
    session.feed("(check-sat)")
    assert out.getvalue().splitlines()[1:] == ["sat"]
    assert session.frames == [[]]


def test_bundled_model_ends_with_its_assertion_stack():
    out = _pipe("""(declare-const n Int)
(push)
(assert (= n 7))
(check-sat)
(pop)
(get-value (n))
(exit)
""")
    lines = out.strip().splitlines()
    assert lines[0] == "sat"
    assert lines[1].startswith('(error "no model')


def test_bundled_quoted_symbols_and_negatives():
    out = _pipe("""(declare-const |n@0| Int)
(declare-const r Real)
(assert (= |n@0| (- 7)))
(assert (= r (/ (- 3) 4)))
(check-sat)
(get-value (|n@0| r))
(exit)
""")
    lines = out.strip().splitlines()
    assert lines[0] == "sat"
    assert lines[1] == "((n@0 (- 7)) (r (- (/ 3.0 4.0))))"


def test_parse_value_forms():
    assert parse_value(parse_all("true")[0]) is True
    assert parse_value(parse_all("5")[0]) == 5
    assert parse_value(parse_all("(- 5)")[0]) == -5
    assert parse_value(parse_all("1.5")[0]) == F(3, 2)
    assert parse_value(parse_all("(/ 1 2)")[0]) == F(1, 2)
    assert parse_value(parse_all("(- (/ 1.0 3.0))")[0]) == F(-1, 3)
    assert parse_value(parse_all("(/ (- 1) 2)")[0]) == F(-1, 2)


def test_resolve_solver_command(monkeypatch):
    monkeypatch.delenv("SOLVER_CMD", raising=False)
    monkeypatch.setattr("shutil.which", lambda name: None)
    assert resolve_solver_command("mysolver --flag") == ["mysolver", "--flag"]
    assert resolve_solver_command() == BUNDLED
    monkeypatch.setenv("SOLVER_CMD", "other -in")
    assert resolve_solver_command() == ["other", "-in"]
    monkeypatch.delenv("SOLVER_CMD")
    monkeypatch.setattr("shutil.which", lambda name: "/opt/z3")
    assert resolve_solver_command() == ["/opt/z3", "-in"]


@pytest.fixture
def no_solver(monkeypatch):
    """Neither SOLVER_CMD nor z3: sessions run the bundled solver in
    process unless given a command."""
    monkeypatch.delenv("SOLVER_CMD", raising=False)
    monkeypatch.setattr("shutil.which", lambda name: None)


def _round_trip(s: SmtSession) -> None:
    s.set_logic("QF_LIRA")
    s.declare_const("n@0", "Int")
    s.declare_const("ok", "Bool")
    s.assert_text("(= |n@0| 41)")
    s.assert_text("(= ok (< |n@0| 42))")
    assert s.check_sat() == "sat"
    vals = s.get_values(["n@0", "ok"])
    assert vals == {"n@0": 41, "ok": True}
    s.push()
    s.assert_text("(not ok)")
    assert s.check_sat() == "unsat"
    s.pop()
    assert s.check_sat() == "sat"


def test_session_round_trip():
    with SmtSession(BUNDLED) as s:
        assert s.proc is not None and s.proc.poll() is None
        _round_trip(s)


def test_session_in_process_round_trip(no_solver):
    with SmtSession() as s:
        assert s.proc is None
        _round_trip(s)


def test_session_uf_and_error():
    with SmtSession(BUNDLED) as s:
        s.declare_fun("f", ["Int"], "Int")
        s.declare_const("a", "Int")
        s.declare_const("b", "Int")
        s.assert_text("(and (= a b) (not (= (f a) (f b))))")
        assert s.check_sat() == "unsat"
        with pytest.raises(SolverFailure):
            s.send("(assert (= a (* a a)))")
            s.check_sat()


def test_session_reports_dead_process():
    s = SmtSession(BUNDLED)
    s.proc.kill()
    s.proc.wait()
    with pytest.raises(SolverFailure):
        s.send("(check-sat)")
        s.check_sat()
    s.close()


def test_session_in_process_error_reply(no_solver):
    with SmtSession() as s:
        s.declare_const("a", "Int")
        with pytest.raises(SolverFailure, match="solver error"):
            s.send("(assert (= a (* a a)))")
            s.check_sat()


@pytest.mark.parametrize("command", [None, BUNDLED],
                         ids=["in-process", "child"])
def test_session_error_reply_ends_the_session(no_solver, command):
    # the error answers the assert, not the check-sat; a session that
    # went on would hand each later check-sat the reply of the one before
    with SmtSession(command) as s:
        s.declare_const("p", "Bool")
        s.assert_text("(= p q)")
        with pytest.raises(SolverFailure, match="solver error"):
            s.check_sat()
        with pytest.raises(SolverFailure):
            s.assert_text("(and p (not p))")
            s.check_sat()


def test_session_bad_model_is_solver_failure(no_solver, monkeypatch):
    monkeypatch.setattr(Simplex, "model",
                        lambda self: [F(-1)] * self.n)
    with SmtSession() as s:
        s.declare_const("x", "Int")
        s.assert_text("(> x 0)")
        with pytest.raises(SolverFailure) as info:
            s.check_sat()
        assert isinstance(info.value.__cause__, ModelCheckError)


def test_session_in_process_crash_is_solver_failure(no_solver,
                                                    monkeypatch):
    boom = RuntimeError("boom")

    def crash(self):
        raise boom

    monkeypatch.setattr(Solver, "check", crash)
    s = SmtSession()
    s.declare_const("p", "Bool")
    with pytest.raises(SolverFailure) as info:
        s.check_sat()
    assert info.value.__cause__ is boom
    with pytest.raises(SolverFailure):  # as after a child died
        s.check_sat()
    s.close()


@pytest.mark.parametrize("command", [None, BUNDLED],
                         ids=["in-process", "child"])
def test_session_reads_a_reply_over_several_lines(no_solver, command):
    with SmtSession(command) as s:
        s.declare_const("a )\nb", "Int")
        s.assert_text("(= |a )\nb| 5)")
        assert s.check_sat() == "sat"
        assert s.get_values(["a )\nb"]) == {"a )\nb": 5}


def test_session_unparseable_reply_is_solver_failure():
    script = "import sys; print('sat)', flush=True); sys.stdin.readline()"
    with SmtSession([sys.executable, "-c", script]) as s:
        with pytest.raises(SolverFailure, match="unparseable"):
            s.check_sat()


@pytest.mark.parametrize("command", [None, BUNDLED],
                         ids=["in-process", "child"])
def test_session_close_is_idempotent(no_solver, command):
    s = SmtSession(command)
    s.declare_const("p", "Bool")
    s.close()
    s.close()
    with pytest.raises(SolverFailure):
        s.check_sat()
    if command is not None:
        assert s.proc.returncode == 0


def test_bundled_solver_is_imported_by_sessions_only():
    script = ("import sys, synkit.cli, synkit.engine, synkit.benchlib, "
              "synkit.safetycase\n"
              "print('synkit.smt.bundled' in sys.modules)\n")
    out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                         text=True, timeout=120)
    assert out.stdout.strip() == "False", out.stderr
