"""Synchronous dataflow language frontend: AST, parser, types, printer."""

from .ast import (Arrow, Binary, BoolLit, Call, Equation, Expr, ExternDecl,
                  IntLit, Ite, NodeDecl, Pos, Pre, Program, RealLit, Type,
                  Unary, Value, Var, VarDecl, children, rebuild,
                  walk)
from .errors import LangError
from .lexer import tokenize
from .parser import parse, parse_expression
from .pretty import pretty, pretty_expr, real_text
from .typecheck import (NodeInfo, TypedProgram, instance_names,
                        type_expression, typecheck)

__all__ = [
    "Arrow", "Binary", "BoolLit", "Call", "Equation", "Expr", "ExternDecl",
    "IntLit", "Ite", "NodeDecl", "Pos", "Pre", "Program", "RealLit", "Type",
    "Unary", "Value", "Var", "VarDecl", "children", "rebuild", "walk",
    "LangError", "tokenize", "parse", "parse_expression", "pretty", "pretty_expr",
    "real_text", "NodeInfo", "TypedProgram", "instance_names",
    "type_expression", "typecheck",
]
