"""Verification engine: BMC and k-induction over transition systems
through an SMT-LIB2 solver session, configured by ``EngineConfig`` and
strengthened by optional template invariants; and a solver-free
exhaustive search for boolean systems, a separate entry point."""

from .codegen import CompiledSystem, compile_system
from .core import (EngineConfig, Falsified, InternalError, Unknown,
                   UnknownReason, Valid, VerifyResult, bmc, exhaustive_search,
                   generate_invariants, kinduction, make_replayer,
                   simulate_system, verdict_row, verify_all)
from .encode import Unroller, logic_for

__all__ = [
    "CompiledSystem", "compile_system", "EngineConfig", "Falsified",
    "InternalError", "Unknown", "UnknownReason", "Valid", "VerifyResult",
    "bmc", "exhaustive_search", "generate_invariants", "kinduction",
    "make_replayer", "simulate_system", "verdict_row", "verify_all",
    "Unroller", "logic_for",
]
