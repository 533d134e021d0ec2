"""SMT-LIB2 read-eval-print loop of the bundled solver.

Run as `synkit-smt` or `python -m synkit.smt.bundled` to talk over
stdin/stdout; `SmtSession` feeds a `Session` the same lines in its own
process when no other solver is configured. Understands the
command subset the verification engine emits: declarations, nullary
define-fun, assert, check-sat, get-value, push/pop, reset, echo, exit.
Replies with `(error "...")` on bad input and keeps going. A model lasts
until the assertion stack changes.

One `Solver` holds the assertion stack of the whole conversation and
keeps what it learned across check-sat, push and pop: each pushed frame
has an activation literal, and a check-sat encodes only the terms
asserted since the last one. A `define-fun` names its body (see
`solver`); like a declaration, it outlives the frame it was made in. A
term the solver cannot encode, such as a nonlinear product, is reported
when a check-sat encodes it. A term that cannot be encoded stays
unencoded in its frame, so every check-sat answers the same error until
the term is popped.

Each input line is parsed once, together with the lines before it that
did not yet complete a command. Text that ends inside an expression is
`Incomplete`: the session keeps it and waits for the next line. A ')'
that closes nothing is an error: the session answers it with one error
reply, drops the pending text, and reads the next command afresh.
"""

from __future__ import annotations

import sys
from typing import Optional

from .sexpr import (Incomplete, SExpr, SExprError, format_number,
                    format_sexpr, parse_all)
from .solver import BOOL, INT, REAL, SmtError, Solver, sort_of, term_of

_SORTS = {"Bool", "Int", "Real"}
_STACK_COMMANDS = {"declare-const", "declare-fun", "define-fun", "assert",
                   "push", "pop"}


def format_value(v, sort: str) -> str:
    if sort == BOOL:
        return "true" if v else "false"
    return format_number(v, sort == REAL)


def _count(args: list) -> int:
    """The numeral argument of push/pop, 1 when absent."""
    if not args:
        return 1
    n = args[0]
    if not isinstance(n, str) or not (n.isascii() and n.isdigit()):
        raise SmtError("push and pop take a numeral")
    return int(n)


class Session:
    """The solver's side of one conversation. Replies go to ``out``
    (anything with ``write`` and ``flush``), one line each."""

    def __init__(self, out):
        self.out = out
        self.pending = ""  # input lines of a command not yet complete
        self.reset()

    def reset(self):
        self.decls: dict[str, tuple] = {}
        self.solver = Solver()
        self.has_model = False

    def reply(self, text: str) -> None:
        self.out.write(text + "\n")
        self.out.flush()

    def error(self, msg: str) -> None:
        self.reply(f'(error "{msg}")')

    def feed(self, line: str) -> bool:
        """Take one input line and run every command it completes.
        Returns False on exit."""
        if not self.pending and not line.strip():
            return True
        text, self.pending = self.pending + line, ""
        try:
            commands = parse_all(text)
        except Incomplete:
            self.pending = text
            return True
        except SExprError as e:  # a stray ')': drop the text, answer once
            self.error(str(e))
            return True
        return all(self.run(sx) for sx in commands)

    def run(self, sx: SExpr) -> bool:
        """Execute one command. Returns False on exit."""
        if not isinstance(sx, list) or not sx or not isinstance(sx[0], str):
            self.error("expected a command")
            return True
        cmd, args = sx[0], sx[1:]
        # a model holds only for the assertion stack it was found on
        # (reset() drops it too)
        if cmd in _STACK_COMMANDS:
            self.has_model = False
        try:
            return self._dispatch(cmd, args)
        except SmtError as e:
            self.error(str(e))
        except (IndexError, TypeError, ValueError):
            self.error(f"malformed {cmd}")
        return True

    def _dispatch(self, cmd: str, args: list) -> bool:
        if cmd in ("set-logic", "set-option", "set-info"):
            return True
        if cmd == "declare-const":
            self._declare(args[0], [], args[1])
            return True
        if cmd == "declare-fun":
            self._declare(args[0], args[1], args[2])
            return True
        if cmd == "define-fun":
            self._define(*args)
            return True
        if cmd == "assert":
            self.solver.add(term_of(args[0], self.decls))
            return True
        if cmd == "check-sat":
            verdict = self.solver.check()
            self.has_model = verdict == "sat"
            self.reply(verdict)
            return True
        if cmd == "get-value":
            self._get_value(args[0])
            return True
        if cmd == "push":
            for _ in range(_count(args)):
                self.solver.push()
            return True
        if cmd == "pop":
            self.solver.pop(_count(args))
            return True
        if cmd == "reset":
            self.reset()
            return True
        if cmd == "echo":
            arg = args[0]
            if isinstance(arg, str) and len(arg) >= 2 and arg[0] == '"':
                arg = arg[1:-1].replace('""', '"')
            self.reply(arg if isinstance(arg, str) else format_sexpr(arg))
            return True
        if cmd == "exit":
            return False
        raise SmtError(f"unsupported command {cmd}")

    def _declare(self, name, params, ret) -> None:
        if not isinstance(name, str) or isinstance(ret, list):
            raise SmtError("malformed declaration")
        if ret not in _SORTS or any(p not in _SORTS for p in params):
            raise SmtError(f"unsupported sort in declaration of {name}")
        new = ("const", ret) if not params else ("fun", tuple(params), ret)
        old = self.decls.get(name)
        if old is not None and old != new:
            what = "defined" if old[0] == "def" else \
                "declared with another sort"
            raise SmtError(f"{name} already {what}")
        self.decls[name] = new

    def _define(self, name, params, ret, body) -> None:
        """A nullary define-fun. Its body is read before the name is
        known, so a definition can neither mention itself nor form a
        cycle with later ones."""
        if not isinstance(name, str) or isinstance(ret, list):
            raise SmtError("malformed define-fun")
        if params:
            raise SmtError(f"define-fun of {name} has parameters")
        if ret not in _SORTS:
            raise SmtError(f"unsupported sort in definition of {name}")
        if name in self.decls:
            what = "defined" if self.decls[name][0] == "def" else "declared"
            raise SmtError(f"{name} already {what}")
        e = term_of(body, self.decls)
        if sort_of(e) != ret and (sort_of(e), ret) != (INT, REAL):
            raise SmtError(f"the body of {name} is {sort_of(e)}, not {ret}")
        self.decls[name] = ("def", ret)
        self.solver.define(("var", name, ret), e)

    def _get_value(self, sxs) -> None:
        if not self.has_model:
            raise SmtError("no model: no sat check-sat since the "
                           "assertions last changed")
        if not isinstance(sxs, list):
            raise SmtError("get-value takes a term list")
        parts = []
        for sx in sxs:
            t = term_of(sx, self.decls)
            v = self.solver.model_value(t)
            parts.append(f"({format_sexpr(sx)} "
                         f"{format_value(v, sort_of(t))})")
        self.reply("(" + " ".join(parts) + ")")


def main(argv: Optional[list[str]] = None) -> int:
    session = Session(sys.stdout)
    for line in sys.stdin:
        if not session.feed(line):
            break
    return 0


if __name__ == "__main__":
    sys.exit(main())
