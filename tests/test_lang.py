"""Frontend tests: lexing, parsing, typing, printing.

Golden ASTs here were written out by hand from the grammar before the
parser existed; they pin shapes, not just acceptance.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from synkit.lang import ast as lang_ast
from synkit.lang import (Arrow, Binary, BoolLit, Call, Equation, Expr, IntLit,
                         Ite, LangError, Pos, Pre, Program, RealLit, Type,
                         Unary, Var, children, parse, parse_expression,
                         pretty, pretty_expr, real_text, rebuild,
                         type_expression, typecheck, walk)

COUNTER = """
node Counter(reset : bool) returns (n : int);
let
  n = 0 -> if reset then 0 else pre n + 1;
tel
"""


def test_counter_ast_shape():
    p = parse(COUNTER)
    assert [n.name for n in p.nodes] == ["Counter"]
    node = p.nodes[0]
    assert [d.name for d in node.inputs] == ["reset"]
    assert node.inputs[0].type is Type.BOOL
    assert [d.name for d in node.outputs] == ["n"]
    assert node.outputs[0].type is Type.INT
    (eq,) = node.equations
    assert eq.targets == ["n"]
    # n = 0 -> (if reset then 0 else ((pre n) + 1))
    expected = Arrow(
        IntLit(0),
        Ite(Var("reset"), IntLit(0),
            Binary("+", Pre(Var("n")), IntLit(1))))
    assert eq.rhs == expected


def test_empty_source_is_empty_program():
    p = parse("")
    assert p.nodes == [] and p.externs == []


def test_comments_and_property_annotations():
    src = """
-- free comment
node Obs(x : bool) returns (ok : bool);  -- trailing
let
  --!PROPERTY: ok = true;
  -- another comment, not a property
  ok = x or not x;
tel
"""
    node = parse(src).nodes[0]
    assert node.properties == ["ok"]
    assert len(node.equations) == 1


def test_property_requires_bool_signal():
    src = """
node Obs(x : int) returns (y : int);
let
  --!PROPERTY: y = true;
  y = x;
tel
"""
    with pytest.raises(LangError) as exc:
        typecheck(parse(src))
    assert "bool" in str(exc.value)


def test_property_on_input_rejected():
    src = """
node Obs(x : bool) returns (y : bool);
let
  --!PROPERTY: x = true;
  y = x;
tel
"""
    with pytest.raises(LangError):
        typecheck(parse(src))


def test_extern_and_call_typing():
    src = """
extern sqrt(x : real) returns (y : real);

node N(a : real) returns (b : real);
let
  b = sqrt(a) + 1.0;
tel
"""
    tp = typecheck(parse(src))
    assert "sqrt" in tp.externs
    rhs = tp.info("N").decl.equations[0].rhs
    assert isinstance(rhs.left, Call) and rhs.left.is_extern


def test_tuple_equation_both_syntaxes():
    src = """
node Two(x : int) returns (a : int; b : int);
let
  a = x;
  b = x + 1;
tel

node UseBare(x : int) returns (s : int);
var a, b : int;
let
  a, b = Two(x);
  s = a + b;
tel

node UseParens(x : int) returns (s : int);
var a, b : int;
let
  (a, b) = Two(x);
  s = a + b;
tel
"""
    tp = typecheck(parse(src))
    bare = tp.info("UseBare").decl.equations[0]
    par = tp.info("UseParens").decl.equations[0]
    assert bare.targets == par.targets == ["a", "b"]
    assert parse(pretty(tp.program))  # printed tuple form reparses


def test_multi_output_call_in_expression_rejected():
    src = """
node Two(x : int) returns (a : int; b : int);
let
  a = x; b = x;
tel

node Bad(x : int) returns (y : int);
let
  y = Two(x) + 1;
tel
"""
    with pytest.raises(LangError) as exc:
        typecheck(parse(src))
    assert "tuple" in str(exc.value) or "multi-output" in str(exc.value)


def test_arity_and_output_count_mismatches():
    base = """
node Two(x : int) returns (a : int; b : int);
let
  a = x; b = x;
tel
"""
    with pytest.raises(LangError):
        typecheck(parse(base + """
node Bad(x : int) returns (y : int);
var a, b, c : int;
let
  a, b, c = Two(x);
  y = a;
tel
"""))
    with pytest.raises(LangError):
        typecheck(parse(base + """
node Bad(x : int) returns (y : int);
var a, b : int;
let
  a, b = Two(x, x);
  y = a;
tel
"""))


def test_keywords_rejected_as_identifiers():
    with pytest.raises(LangError):
        parse("node node(x : bool) returns (y : bool); let y = x; tel")


def test_leading_underscore_rejected():
    with pytest.raises(LangError) as exc:
        parse("node A(_x : bool) returns (y : bool); let y = _x; tel")
    assert "reserved" in str(exc.value)


def test_clock_operators_rejected():
    for op in ("when", "current"):
        with pytest.raises(LangError) as exc:
            parse(f"node A(x : real; c : bool) returns (y : real);"
                  f" let y = x {op} c; tel")
        assert "base clock" in str(exc.value)


def test_comparison_chain_rejected():
    with pytest.raises(LangError) as exc:
        parse_expression("1.0 < x < 2.0")
    assert "parenthesize" in str(exc.value)


def test_unterminated_body():
    with pytest.raises(LangError) as exc:
        parse("node A(x : bool) returns (y : bool); let y = x;")
    assert exc.value.expected == ("tel",)


def test_error_has_position():
    try:
        parse("node A(x : bool) returns (y : bool);\nlet y = ; tel")
    except LangError as e:
        assert e.pos.line == 2
    else:
        pytest.fail("expected a syntax error")


def test_division_is_real_only():
    with pytest.raises(LangError):
        typecheck(parse(
            "node A(x : int) returns (y : int); let y = x / 2; tel"))
    tp = typecheck(parse(
        "node A(x : real) returns (y : real); let y = x / 2.0; tel"))
    assert tp.info("A").decl.equations[0].rhs.ty is Type.REAL


def test_int_literal_widens_real_variable_does_not():
    tp = typecheck(parse(
        "node A(x : real) returns (y : real); let y = x + 1; tel"))
    rhs = tp.info("A").decl.equations[0].rhs
    assert isinstance(rhs.right, RealLit) and rhs.right.value == 1
    with pytest.raises(LangError):
        typecheck(parse(
            "node A(x : real; i : int) returns (y : real); let y = x + i; tel"))


def test_equality_on_bools_order_on_numbers_only():
    typecheck(parse(
        "node A(p, q : bool) returns (y : bool); let y = p = q; tel"))
    with pytest.raises(LangError):
        typecheck(parse(
            "node A(p, q : bool) returns (y : bool); let y = p < q; tel"))


def test_single_assignment_enforced():
    with pytest.raises(LangError):
        typecheck(parse(
            "node A(x : bool) returns (y : bool); let y = x; y = not x; tel"))
    with pytest.raises(LangError):  # inputs cannot be assigned
        typecheck(parse(
            "node A(x : bool) returns (y : bool); let x = y; y = x; tel"))
    with pytest.raises(LangError):  # every output needs a definition
        typecheck(parse(
            "node A(x : bool) returns (y : bool; z : bool); let y = x; tel"))


def test_causality_cycle_reported_with_signals():
    src = """
node A(x : bool) returns (y : bool);
var u, v : bool;
let
  y = x;
  u = v and x;
  v = u or x;
tel
"""
    with pytest.raises(LangError) as exc:
        typecheck(parse(src))
    assert exc.value.kind == "causality"
    assert exc.value.message == "causality cycle through u -> v -> u"
    assert exc.value.pos.line == 6  # u's equation, the path's first signal


def test_pre_breaks_causality_cycle():
    src = """
node A(x : int) returns (y : int);
var u : int;
let
  y = u;
  u = x -> pre y + 1;
tel
"""
    tp = typecheck(parse(src))
    assert [eq.targets for eq in tp.info("A").schedule] == [["u"], ["y"]]


def test_recursion_rejected():
    src = """
node A(x : bool) returns (y : bool);
let y = B(x); tel
node B(x : bool) returns (y : bool);
let y = A(x); tel
"""
    with pytest.raises(LangError) as exc:
        typecheck(parse(src))
    assert exc.value.kind == "recursion"
    assert exc.value.message == "recursive node calls: A -> B -> A"


def test_type_error_reported_before_recursion():
    # the call order is built from the checked nodes' calls, so a node
    # that does not typecheck is reported before any cycle through it
    src = """
node A(x : bool) returns (y : bool);
let y = B(x) and 1; tel
node B(x : bool) returns (y : bool);
let y = A(x); tel
"""
    with pytest.raises(LangError) as exc:
        typecheck(parse(src))
    assert exc.value.kind == "type"
    assert exc.value.message == "expected bool, got int"


def test_call_order_is_callees_first():
    src = """
node Top(x : int) returns (y : int);
let y = Mid(x); tel
node Mid(x : int) returns (y : int);
let y = Leaf(x); tel
node Leaf(x : int) returns (y : int);
let y = x; tel
"""
    tp = typecheck(parse(src))
    order = tp.order
    assert order.index("Leaf") < order.index("Mid") < order.index("Top")


def test_site_assignment_deterministic():
    src = """
node A(x : int) returns (y : int; z : int);
let
  y = 0 -> pre x + pre y;
  z = 1 -> pre x;
  assert pre y >= 0 or true;
tel
"""
    info = typecheck(parse(src)).info("A")
    assert info.n_pre == 4  # eq order, preorder inside
    assert info.n_arrow == 2
    rhs0 = info.decl.equations[0].rhs
    assert rhs0.site == 0  # first arrow
    assert rhs0.right.left.site == 0 and rhs0.right.right.site == 1
    assert info.decl.assertions[0].left.left.site == 3


def test_real_text_exact():
    assert real_text(Fraction(3, 2)) == "1.5"
    assert real_text(Fraction(5)) == "5.0"
    assert real_text(Fraction(1, 100)) == "0.01"
    assert real_text(Fraction(-7, 4)) == "-1.75"
    assert real_text(Fraction(1, 3)) == "(1.0 / 3.0)"
    assert Fraction(parse_expression("0.05").value) == Fraction(1, 20)


def test_type_expression_for_standalone_formulas():
    tp = typecheck(parse(COUNTER))
    env = {"n": Type.INT, "ok": Type.BOOL}
    e = type_expression(tp, env, parse_expression("ok and n >= 0"))
    assert e.ty is Type.BOOL
    with pytest.raises(LangError):
        type_expression(tp, env, parse_expression("n and ok"))


def test_rebuild_keeps_fields_and_visits_children_left_to_right():
    at = Pos(3, 4)
    a, b, c = Var("a"), Var("b"), Var("c")
    cases = [
        (Unary("-", a, pos=at, ty=Type.INT), ["a"]),
        (Binary("+", a, b, pos=at, ty=Type.INT), ["a", "b"]),
        (Ite(a, b, c, pos=at, ty=Type.REAL), ["a", "b", "c"]),
        (Pre(a, pos=at, ty=Type.INT, site=2), ["a"]),
        (Arrow(a, b, pos=at, ty=Type.BOOL, site=5), ["a", "b"]),
        (Call("f", [a, b, c], pos=at, ty=Type.REAL, site=7,
              is_extern=True), ["a", "b", "c"]),
    ]
    for e, order in cases:
        seen = []

        def fn(x):
            seen.append(x.name)
            return Var(x.name + "1")

        out = rebuild(e, fn)
        assert out is not e and type(out) is type(e)
        assert seen == order
        assert children(out) == tuple(Var(n + "1") for n in order)
        assert children(e) == tuple(Var(n) for n in order)  # input intact
        for slot in ("pos", "ty", "site", "is_extern", "op", "callee"):
            assert getattr(out, slot, None) == getattr(e, slot, None), slot


def test_rebuild_returns_leaves_unchanged():
    def boom(x):
        raise AssertionError("a leaf has no children")

    for leaf in (BoolLit(True), IntLit(3), RealLit(Fraction(1, 2)),
                 Var("x")):
        assert rebuild(leaf, boom) is leaf
        assert children(leaf) == ()


def test_walk_is_preorder():
    e = parse_expression("if a then -b else f(pre c -> d + 1, 2)")

    def label(x):
        for slot in ("name", "op", "callee", "value"):
            if hasattr(x, slot):
                return f"{type(x).__name__}:{getattr(x, slot)}"
        return type(x).__name__

    assert [label(x) for x in walk(e)] == [
        "Ite", "Var:a", "Unary:-", "Var:b", "Call:f", "Arrow", "Pre",
        "Var:c", "Binary:+", "Var:d", "IntLit:1", "IntLit:2"]


def test_every_variant_has_a_row_in_each_dispatch_table():
    variants = {c for c in Expr.__subclasses__()
                if c.__module__ == lang_ast.__name__}
    assert len(variants) == 10
    for table in (lang_ast._CHILDREN, lang_ast._PUSH, lang_ast._REBUILD):
        assert set(table) == variants


def test_foreign_node_is_a_type_error_naming_its_class():
    class Foreign:
        pos = Pos(1, 1)

    class SubVar(Var):  # the tables are keyed by the exact class
        pass

    for odd in (Foreign(), SubVar("x")):
        name = type(odd).__name__
        for use in (children, lambda e: rebuild(e, lambda x: x),
                    lambda e: list(walk(e)),
                    lambda e: list(walk(Unary("-", e)))):
            with pytest.raises(TypeError, match=f"^{name} is not an "
                               "expression variant"):
                use(odd)


# round-trip property: generate ASTs, print, reparse, compare -----------

_names = st.sampled_from(["x", "y", "z", "foo", "bar"])


def _exprs():
    leaves = st.one_of(
        st.booleans().map(BoolLit),
        st.integers(0, 1000).map(IntLit),
        # denominator divides a power of ten so the literal survives printing
        st.tuples(st.integers(0, 10 ** 6), st.integers(0, 4)).map(
            lambda t: RealLit(Fraction(t[0], 10 ** t[1]))),
        _names.map(Var),
    )

    def extend(children):
        unary = st.one_of(
            children.map(lambda e: Unary("-", e)),
            children.map(lambda e: Unary("not", e)),
            children.map(Pre),
        )
        binary = st.tuples(
            st.sampled_from(["+", "-", "*", "/", "and", "or", "=>", "=",
                             "<>", "<", "<=", ">", ">="]),
            children, children,
        ).map(lambda t: Binary(t[0], t[1], t[2]))
        arrow = st.tuples(children, children).map(lambda t: Arrow(*t))
        ite = st.tuples(children, children, children).map(
            lambda t: Ite(*t))
        call = st.lists(children, min_size=1, max_size=3).map(
            lambda args: Call("f", args))
        return st.one_of(unary, binary, arrow, ite, call)

    return st.recursive(leaves, extend, max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(_exprs())
def test_pretty_parse_round_trip(e):
    text = pretty_expr(e)
    assert parse_expression(text) == e


@settings(max_examples=100, deadline=None)
@given(st.lists(_exprs(), min_size=1, max_size=4))
def test_node_round_trip(rhss):
    node_src_vars = "; ".join(f"o{i} : real" for i in range(len(rhss)))
    eqs = [Equation([f"o{i}"], rhs) for i, rhs in enumerate(rhss)]
    from synkit.lang import NodeDecl, VarDecl
    decl = NodeDecl(
        "G", [VarDecl(n, Type.REAL) for n in ("x", "y", "z", "foo", "bar")],
        [VarDecl(f"o{i}", Type.REAL) for i in range(len(rhss))],
        [], eqs, [], [])
    prog = Program([decl], [])
    assert parse(pretty(prog)) == prog
