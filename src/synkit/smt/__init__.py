"""SMT backend: SMT-LIB2 protocol client and a bundled fallback solver.

The verification engine always talks SMT-LIB2 text to a solver through
`SmtSession`. A configured solver runs as a child process; the command
is, in order, an explicit one, the SOLVER_CMD environment variable, or
a z3 binary on PATH. With none of them, the bundled pure-Python solver
answers the same text in the engine's own process.
`resolve_solver_command` names the command line in use, the bundled
solver's (`python -m synkit.smt.bundled`) in the last case.
"""

from .session import (SmtSession, SolverFailure, parse_value,
                      resolve_solver_command)

__all__ = ["SmtSession", "SolverFailure", "parse_value",
           "resolve_solver_command"]
