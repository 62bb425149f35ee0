"""exspace: a static execution-space checker and interpreter for MiniCU.

MiniCU is a small CUDA-flavored language with host/device/global
specifiers, single-parameter templates with requires clauses over a
three-valued compatibility enum, conditional preprocessing over the fixed
built-in macro set, and triple-chevron kernel launches.
"""
from .diagnostics import CODE_REGISTRY, Diagnostic, Severity, SrcLoc, format_diagnostic
from .interp import Interpreter, Machine, RunResult, device_synchronize, run_program
from .sema import (
    HDC,
    ExecSpace,
    Mode,
    SymbolTable,
    TraitConfig,
    Type,
    compute_hdc,
    resolve,
    resolve_overload,
)
from .spacecheck import (
    Analysis,
    analyze,
    check_unit,
    detect_arch_divergence,
    legality,
    struct_member_spaces,
)
from .syntax import CompileProfile, PpPass, parse, preprocess

__version__ = "0.1.0"

__all__ = [
    "Analysis",
    "CODE_REGISTRY",
    "CompileProfile",
    "Diagnostic",
    "ExecSpace",
    "HDC",
    "Interpreter",
    "Machine",
    "Mode",
    "PpPass",
    "RunResult",
    "Severity",
    "SrcLoc",
    "SymbolTable",
    "TraitConfig",
    "Type",
    "analyze",
    "check_unit",
    "compute_hdc",
    "detect_arch_divergence",
    "device_synchronize",
    "format_diagnostic",
    "legality",
    "parse",
    "preprocess",
    "resolve",
    "resolve_overload",
    "run_program",
    "struct_member_spaces",
    "__version__",
]
