"""Syntax tree for the synchronous dataflow language.

Nodes compare structurally: positions, inferred types, and site indices
are excluded from equality so that parse(pretty(p)) == p can hold.

children() and rebuild() are the one place that knows each variant's
subexpressions and the fields a copy keeps (pos, ty, site, is_extern).
Tree transforms handle their own cases and hand every other node to
rebuild().
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional, Union


class Type(Enum):
    BOOL = "bool"
    INT = "int"
    REAL = "real"

    def __str__(self) -> str:
        return self.value


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
_LEAVES = (BoolLit, IntLit, RealLit, Var)


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

    def node_names(self) -> list[str]:
        return [n.name for n in self.nodes]


def children(e: Expr) -> tuple[Expr, ...]:
    """Direct subexpressions of e, left to right; () for leaves."""
    if isinstance(e, _LEAVES):  # first: most nodes of a tree are leaves
        return ()
    if isinstance(e, (Unary, Pre)):
        return (e.operand,)
    if isinstance(e, (Binary, Arrow)):
        return (e.left, e.right)
    if isinstance(e, Ite):
        return (e.cond, e.then, e.orelse)
    if isinstance(e, Call):
        return tuple(e.args)
    return ()


def rebuild(e: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """A new composite node with fn applied to each direct subexpression,
    left to right, keeping pos, ty, site and is_extern. Literals and
    variables come back unchanged."""
    if isinstance(e, _LEAVES):
        return e
    if isinstance(e, Unary):
        return Unary(e.op, fn(e.operand), pos=e.pos, ty=e.ty)
    if isinstance(e, Binary):
        return Binary(e.op, fn(e.left), fn(e.right), pos=e.pos, ty=e.ty)
    if isinstance(e, Ite):
        return Ite(fn(e.cond), fn(e.then), fn(e.orelse), pos=e.pos, ty=e.ty)
    if isinstance(e, Pre):
        return Pre(fn(e.operand), pos=e.pos, ty=e.ty, site=e.site)
    if isinstance(e, Arrow):
        return Arrow(fn(e.left), fn(e.right), pos=e.pos, ty=e.ty,
                     site=e.site)
    if isinstance(e, Call):
        return Call(e.callee, [fn(a) for a in e.args], pos=e.pos, ty=e.ty,
                    site=e.site, is_extern=e.is_extern)
    return e


def walk(e: Expr):
    """Yield e and all subexpressions, preorder."""
    stack = [e]
    while stack:
        cur = stack.pop()
        yield cur
        stack.extend(reversed(children(cur)))
