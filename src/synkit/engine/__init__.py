"""Verification engine: BMC and k-induction over transition systems
through an SMT-LIB2 solver session, an exhaustive search oracle for
boolean systems, and template invariant strengthening."""

from .codegen import CompiledSystem, compile_system
from .core import (EngineConfig, Falsified, InternalError,
                   InvariantCandidate, Unknown, UnknownReason, Valid,
                   VerifyResult, bmc, eval_formula, generate_invariants,
                   kinduction, make_replayer, simulate_system, verify_all)
from .encode import Unroller, logic_for

__all__ = [
    "CompiledSystem", "compile_system", "eval_formula",
    "EngineConfig", "Falsified", "InternalError", "InvariantCandidate",
    "Unknown", "UnknownReason", "Valid", "VerifyResult", "bmc",
    "generate_invariants", "kinduction", "make_replayer",
    "simulate_system", "verify_all",
    "Unroller", "logic_for",
]
