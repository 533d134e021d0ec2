"""S-expression reading and writing for the SMT-LIB2 wire format.

An expression is a str (atom, with |..| quoting preserved verbatim
minus the bars) or a list of expressions.

`parse_all` is the one reader of both sides of a conversation: the
bundled solver reads commands with it and the client reads replies. It
tokenizes the text once, with one compiled regex, and tells two failures
apart. Text that ends inside an expression (an open '(', '|' or '"')
raises `Incomplete`, and the reader waits for more lines and parses
again. A ')' that closes nothing raises a plain `SExprError`: no more
input can mend it.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

SExpr = Union[str, list]


class SExprError(ValueError):
    pass


class Incomplete(SExprError):
    """The text ends inside an expression: an open '(', '|' or '"'.
    More input may complete it."""


# One token per match: a paren, a |quoted| symbol, a string literal or a
# plain symbol. A comment matches with the group empty, and whitespace
# matches nothing, so findall skips both. A '|' or '"' that nothing
# closes matches alone.
_TOKEN = re.compile(r';[^\n]*|([()]|\|[^|]*\||"[^"]*(?:""[^"]*)*"'
                    r'|[^ \t\r\n();|"]+|["|])')


def parse_all(text: str) -> list[SExpr]:
    """Parse a sequence of s-expressions. Raises Incomplete when the
    text ends inside one, and SExprError on a ')' that closes nothing."""
    top: list[SExpr] = []
    cur = top
    stack: list[list] = []
    for tok in _TOKEN.findall(text):
        if tok == "(":
            stack.append(cur)
            cur = []
        elif tok == ")":
            if not stack:
                raise SExprError("unbalanced ')'")
            done = cur
            cur = stack.pop()
            cur.append(done)
        elif tok:
            if tok[0] == "|":
                if len(tok) == 1:
                    raise Incomplete("unterminated |...| symbol")
                tok = tok[1:-1]
            elif tok == '"':
                raise Incomplete("unterminated string literal")
            cur.append(tok)
    if stack:
        raise Incomplete("unclosed '('")
    return top


_PLAIN_FIRST = set("abcdefghijklmnopqrstuvwxyz"
                   "ABCDEFGHIJKLMNOPQRSTUVWXYZ"
                   "~!@$%^&*_-+=<>.?/")
_PLAIN_REST = _PLAIN_FIRST | set("0123456789")


def format_atom(s: str) -> str:
    if s and (s[0] in _PLAIN_FIRST or s[0].isdigit()) \
            and all(c in _PLAIN_REST for c in s):
        return s
    return f"|{s}|"


def format_number(v: Union[int, Fraction], real: bool) -> str:
    """An Int or Real constant as an SMT-LIB term: a numeral, a decimal
    `n.0` or a quotient `(/ n.0 d.0)` for a Real, negated as `(- ...)`."""
    if real:
        num, den = abs(v.numerator), v.denominator
        mag = f"{num}.0" if den == 1 else f"(/ {num}.0 {den}.0)"
    else:
        mag = str(abs(v))
    return mag if v >= 0 else f"(- {mag})"


def format_sexpr(e: SExpr) -> str:
    if isinstance(e, str):
        return format_atom(e)
    return "(" + " ".join(format_sexpr(x) for x in e) + ")"
