"""Syntax tree for the synchronous dataflow language.

Nodes compare structurally: positions, inferred types, and site indices
are excluded from equality so that parse(pretty(p)) == p can hold.  The
parser leaves ty unset and site at -1; the typechecker fills both in on
the typed copy it builds, numbering each Pre, Arrow and node-call site in
the same pass that infers its type (see lang.typecheck).

children(), rebuild() and walk() are the one place that knows each
variant's subexpressions and the fields a copy keeps (pos, ty, site,
is_extern): each looks the node's class up in its own table.  Tree
transforms handle their own cases and hand every other node to rebuild().
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Iterator, Optional, Sequence, Union


class Type(Enum):
    BOOL = "bool"
    INT = "int"
    REAL = "real"

    def __str__(self) -> str:
        return self.value


# the value of a signal at one instant, of each Type in order
Value = Union[bool, int, Fraction]


@dataclass(frozen=True)
class Pos:
    line: int
    col: int


NO_POS = Pos(0, 0)


class Expr:
    """Base class; every variant carries pos and an inferred ty slot."""

    pos: Pos
    ty: Optional[Type]


@dataclass
class BoolLit(Expr):
    value: bool
    pos: Pos = field(compare=False, default=NO_POS, repr=False)
    ty: Optional[Type] = field(compare=False, default=None, repr=False)


@dataclass
class IntLit(Expr):
    value: int
    pos: Pos = field(compare=False, default=NO_POS, repr=False)
    ty: Optional[Type] = field(compare=False, default=None, repr=False)


@dataclass
class RealLit(Expr):
    # Exact rational; source literals always have a power-of-ten denominator.
    value: Fraction
    pos: Pos = field(compare=False, default=NO_POS, repr=False)
    ty: Optional[Type] = field(compare=False, default=None, repr=False)


@dataclass
class Var(Expr):
    name: str
    pos: Pos = field(compare=False, default=NO_POS, repr=False)
    ty: Optional[Type] = field(compare=False, default=None, repr=False)


@dataclass
class Unary(Expr):
    op: str  # "-" or "not"
    operand: Expr
    pos: Pos = field(compare=False, default=NO_POS, repr=False)
    ty: Optional[Type] = field(compare=False, default=None, repr=False)


@dataclass
class Binary(Expr):
    op: str  # + - * / = <> < <= > >= and or =>
    left: Expr
    right: Expr
    pos: Pos = field(compare=False, default=NO_POS, repr=False)
    ty: Optional[Type] = field(compare=False, default=None, repr=False)


@dataclass
class Ite(Expr):
    cond: Expr
    then: Expr
    orelse: Expr
    pos: Pos = field(compare=False, default=NO_POS, repr=False)
    ty: Optional[Type] = field(compare=False, default=None, repr=False)


@dataclass
class Pre(Expr):
    operand: Expr
    pos: Pos = field(compare=False, default=NO_POS, repr=False)
    ty: Optional[Type] = field(compare=False, default=None, repr=False)
    site: int = field(compare=False, default=-1, repr=False)


@dataclass
class Arrow(Expr):
    left: Expr
    right: Expr
    pos: Pos = field(compare=False, default=NO_POS, repr=False)
    ty: Optional[Type] = field(compare=False, default=None, repr=False)
    site: int = field(compare=False, default=-1, repr=False)


@dataclass
class Call(Expr):
    callee: str
    args: list[Expr]
    pos: Pos = field(compare=False, default=NO_POS, repr=False)
    ty: Optional[Type] = field(compare=False, default=None, repr=False)
    site: int = field(compare=False, default=-1, repr=False)
    is_extern: bool = field(compare=False, default=False, repr=False)


Literal = Union[BoolLit, IntLit, RealLit]


@dataclass
class VarDecl:
    name: str
    type: Type
    pos: Pos = field(compare=False, default=NO_POS, repr=False)


@dataclass
class Equation:
    targets: list[str]
    rhs: Expr
    pos: Pos = field(compare=False, default=NO_POS, repr=False)


@dataclass
class NodeDecl:
    name: str
    inputs: list[VarDecl]
    outputs: list[VarDecl]
    locals: list[VarDecl]
    equations: list[Equation]
    assertions: list[Expr]
    properties: list[str]  # annotated boolean signals, observer outputs
    pos: Pos = field(compare=False, default=NO_POS, repr=False)

    def declared(self) -> list[VarDecl]:
        return self.inputs + self.outputs + self.locals


@dataclass
class ExternDecl:
    """Uninterpreted function: symbolic in proofs, opaque to execution."""

    name: str
    params: list[VarDecl]
    ret: VarDecl
    pos: Pos = field(compare=False, default=NO_POS, repr=False)


@dataclass
class Program:
    nodes: list[NodeDecl]
    externs: list[ExternDecl] = field(default_factory=list)

    def node(self, name: str) -> NodeDecl:
        for n in self.nodes:
            if n.name == name:
                return n
        raise KeyError(f"unknown node {name!r}")


def _leaf(e: Expr) -> tuple[Expr, ...]:
    return ()


def _same(e: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    return e


# One table per helper, keyed by the exact variant class, so each helper
# makes one dictionary lookup per node.  Together they are the one place
# that knows each variant's subexpressions; every variant is a key of all
# three, and a class that is not a variant raises TypeError.
_CHILDREN: dict[type, Callable[[Expr], tuple[Expr, ...]]] = {
    BoolLit: _leaf, IntLit: _leaf, RealLit: _leaf, Var: _leaf,
    Unary: lambda e: (e.operand,),
    Pre: lambda e: (e.operand,),
    Binary: lambda e: (e.left, e.right),
    Arrow: lambda e: (e.left, e.right),
    Ite: lambda e: (e.cond, e.then, e.orelse),
    Call: lambda e: tuple(e.args),
}

# children right to left, as walk pushes them; None for a leaf, which
# walk then skips without a call
_PUSH: dict[type, Optional[Callable[[Expr], Sequence[Expr]]]] = {
    BoolLit: None, IntLit: None, RealLit: None, Var: None,
    Unary: lambda e: (e.operand,),
    Pre: lambda e: (e.operand,),
    Binary: lambda e: (e.right, e.left),
    Arrow: lambda e: (e.right, e.left),
    Ite: lambda e: (e.orelse, e.then, e.cond),
    Call: lambda e: e.args[::-1],
}

_REBUILD: dict[type, Callable[[Expr, Callable[[Expr], Expr]], Expr]] = {
    BoolLit: _same, IntLit: _same, RealLit: _same, Var: _same,
    Unary: lambda e, fn: Unary(e.op, fn(e.operand), pos=e.pos, ty=e.ty),
    Binary: lambda e, fn: Binary(e.op, fn(e.left), fn(e.right), pos=e.pos,
                                 ty=e.ty),
    Ite: lambda e, fn: Ite(fn(e.cond), fn(e.then), fn(e.orelse), pos=e.pos,
                           ty=e.ty),
    Pre: lambda e, fn: Pre(fn(e.operand), pos=e.pos, ty=e.ty, site=e.site),
    Arrow: lambda e, fn: Arrow(fn(e.left), fn(e.right), pos=e.pos, ty=e.ty,
                               site=e.site),
    Call: lambda e, fn: Call(e.callee, [fn(a) for a in e.args], pos=e.pos,
                             ty=e.ty, site=e.site, is_extern=e.is_extern),
}


def _not_a_variant(e: object) -> TypeError:
    return TypeError(f"{type(e).__name__} is not an expression variant "
                     f"of synkit.lang.ast")


def children(e: Expr) -> tuple[Expr, ...]:
    """Direct subexpressions of e, left to right; () for leaves."""
    try:
        get = _CHILDREN[type(e)]
    except KeyError:
        raise _not_a_variant(e) from None
    return get(e)


def rebuild(e: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """A new composite node with fn applied to each direct subexpression,
    left to right, keeping pos, ty, site and is_extern. Literals and
    variables come back unchanged."""
    try:
        make = _REBUILD[type(e)]
    except KeyError:
        raise _not_a_variant(e) from None
    return make(e, fn)


def walk(e: Expr) -> Iterator[Expr]:
    """Yield e and all subexpressions, preorder.

    A generator, so a caller that stops early (any(), next()) walks no
    further; on the catalog it also beat building a list of the nodes.
    """
    stack = [e]
    while stack:
        cur = stack.pop()
        yield cur
        try:
            push = _PUSH[type(cur)]
        except KeyError:
            raise _not_a_variant(cur) from None
        if push is not None:
            stack.extend(push(cur))
