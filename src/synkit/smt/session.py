"""Client side of the solver interface: a line-oriented SMT-LIB2
conversation. A configured solver (an explicit command, the
``SOLVER_CMD`` environment variable, or z3 on PATH) runs as a child
process and talks over pipes; with none configured, the bundled solver
answers the same lines in this process."""

from __future__ import annotations

import os
import shlex
import shutil
import subprocess
import sys
from collections import deque
from fractions import Fraction
from typing import Optional, Sequence, Union

from .sexpr import Incomplete, SExpr, SExprError, format_atom, parse_all

Value = Union[bool, int, Fraction]


class SolverFailure(Exception):
    """The solver died or crashed, replied with an error, or spoke
    something unparseable."""


def _external_command(
        explicit: Union[str, Sequence[str], None] = None
) -> Optional[list[str]]:
    """The configured solver command line: explicit setting, then the
    SOLVER_CMD environment variable, then z3 on PATH. None when no
    solver is configured."""
    if explicit:
        return (shlex.split(explicit) if isinstance(explicit, str)
                else list(explicit))
    env = os.environ.get("SOLVER_CMD")
    if env:
        return shlex.split(env)
    z3 = shutil.which("z3")
    if z3:
        return [z3, "-in"]
    return None


def resolve_solver_command(explicit: Optional[str] = None) -> list[str]:
    """The solver command line a session uses: the configured one, else
    the bundled solver's. A session runs the bundled solver in process
    unless its command is given explicitly."""
    return (_external_command(explicit)
            or [sys.executable, "-m", "synkit.smt.bundled"])


def parse_value(sx: SExpr) -> Value:
    """Value term from a get-value reply."""
    if isinstance(sx, str):
        if sx in ("true", "false"):
            return sx == "true"
        try:
            return Fraction(sx) if "." in sx else int(sx)
        except ValueError:
            pass
    elif len(sx) == 2 and sx[0] == "-":
        return -parse_value(sx[1])
    elif len(sx) == 3 and sx[0] == "/":
        return Fraction(parse_value(sx[1])) / Fraction(parse_value(sx[2]))
    raise SolverFailure(f"unrecognized value term: {sx!r}")


class _InProcess:
    """The bundled solver in this process, behind the same line
    interface as a child's pipes. Sent lines wait until a reply is read,
    so the solver works while the caller waits for a reply, as a child
    does."""

    def __init__(self):
        from . import bundled  # deferred: runs without a session skip it
        self._inbox: deque[str] = deque()
        self._replies: deque[str] = deque()
        self._session: Optional[bundled.Session] = bundled.Session(self)

    @property
    def running(self) -> bool:
        return self._session is not None

    def send(self, line: str) -> None:
        if not self.running:
            raise SolverFailure("solver session is closed")
        self._inbox.append(line + "\n")

    def readline(self) -> str:
        """The next reply line, after running sent lines until one comes.
        An exception the solver does not answer with an error reply is a
        crash, as a dying child would be; the session is over after it."""
        while not self._replies and self._inbox and self.running:
            try:
                if not self._session.feed(self._inbox.popleft()):  # (exit)
                    self.close()
            except Exception as e:
                self.close()
                raise SolverFailure(f"bundled solver crashed: {e!r}") from e
        return self._replies.popleft() if self._replies else ""

    def close(self) -> None:
        self._session = None  # releases the solver and its last model
        self._inbox.clear()

    # the solver's output stream

    def write(self, text: str) -> None:
        self._replies.extend(text.splitlines(keepends=True))

    def flush(self) -> None:
        pass


class SmtSession:
    """One conversation with a solver: a child process running the
    configured command (``command``, else SOLVER_CMD, else z3), or the
    bundled solver in this process when none is configured."""

    def __init__(self, command: Union[str, Sequence[str], None] = None):
        self.command = _external_command(command)
        self.proc: Optional[subprocess.Popen] = None
        self._local: Optional[_InProcess] = None
        if self.command is None:
            self._local = _InProcess()
            return
        try:
            self.proc = subprocess.Popen(
                self.command, stdin=subprocess.PIPE,
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                text=True)
        except OSError as e:
            raise SolverFailure(
                f"cannot start solver {self.command!r}: {e}") from e

    # plumbing

    def send(self, line: str) -> None:
        if self._local is not None:
            self._local.send(line)
            return
        if self.proc.stdin is None or self.proc.poll() is not None:
            raise SolverFailure("solver process is gone")
        try:
            self.proc.stdin.write(line + "\n")
            self.proc.stdin.flush()
        except (BrokenPipeError, OSError) as e:
            raise SolverFailure(f"solver pipe broke: {e}") from e

    def _readline(self) -> str:
        if self._local is not None:
            return self._local.readline()
        if self.proc.stdout is None:
            raise SolverFailure("solver has no stdout")
        return self.proc.stdout.readline()

    def _fail(self, message: str) -> SolverFailure:
        """End the conversation after a reply it cannot use, since later
        replies may be out of step, and return the failure to raise."""
        self.close()
        return SolverFailure(message)

    def _read_reply(self) -> SExpr:
        """The next reply, read up to the line that completes it and
        parsed once. A malformed reply ends the conversation."""
        buf = ""
        while True:
            line = self._readline()
            if not line:
                code = self.proc.poll() if self.proc is not None else None
                raise SolverFailure(
                    "solver closed its output"
                    + (f" (exit {code})" if code is not None else ""))
            buf += line
            try:
                exprs = parse_all(buf)
            except Incomplete:
                continue
            except SExprError as e:
                raise self._fail(f"unparseable reply {buf.strip()!r}: "
                                 f"{e}") from e
            if not exprs:
                continue
            if isinstance(exprs[0], list) and exprs[0][:1] == ["error"]:
                # the error may answer an earlier line that expects no
                # reply, so later replies would be out of step
                raise self._fail(f"solver error: {buf.strip()}")
            if len(exprs) != 1:
                raise self._fail(f"unexpected reply: {buf.strip()}")
            return exprs[0]

    # commands

    def set_logic(self, logic: str) -> None:
        self.send(f"(set-logic {logic})")

    def declare_const(self, name: str, sort: str) -> None:
        self.send(f"(declare-const {format_atom(name)} {sort})")

    def declare_fun(self, name: str, param_sorts: list[str],
                    ret: str) -> None:
        params = " ".join(param_sorts)
        self.send(f"(declare-fun {format_atom(name)} ({params}) {ret})")

    def define_fun(self, name: str, sort: str, body: str) -> None:
        self.send(f"(define-fun {format_atom(name)} () {sort} {body})")

    def assert_text(self, formula: str) -> None:
        self.send(f"(assert {formula})")

    def push(self) -> None:
        self.send("(push 1)")

    def pop(self) -> None:
        self.send("(pop 1)")

    def check_sat(self) -> str:
        self.send("(check-sat)")
        reply = self._read_reply()
        if reply not in ("sat", "unsat", "unknown"):
            raise self._fail(f"unexpected check-sat reply: {reply!r}")
        return reply

    def get_values(self, terms: Sequence[str]) -> list[Value]:
        """The model's value of each SMT-LIB term, in the order asked.
        The reply must hold one (term value) pair per term."""
        if not terms:
            return []
        self.send(f"(get-value ({' '.join(terms)}))")
        reply = self._read_reply()
        if not (isinstance(reply, list) and len(reply) == len(terms)
                and all(isinstance(p, list) and len(p) == 2 for p in reply)):
            raise self._fail("get-value reply is not one (term value) pair "
                             f"per term: {reply!r}")
        try:
            return [parse_value(value) for _, value in reply]
        except SolverFailure as e:
            raise self._fail(str(e)) from e

    def close(self) -> None:
        if self._local is not None:
            if self._local.running:
                self.send("(exit)")  # the transcript ends as a child's
            self._local.close()
            return
        if self.proc.poll() is None:
            try:
                self.send("(exit)")
            except SolverFailure:
                pass
            try:
                self.proc.wait(timeout=2)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc.stdin:
            try:
                self.proc.stdin.close()
            except BrokenPipeError:  # it flushes what the child never read
                pass
        if self.proc.stdout:
            self.proc.stdout.close()

    def __enter__(self) -> "SmtSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
