"""Lexing, preprocessing, and parsing of MiniCU units."""
from .lexer import pass_tokens, tokenize
from .nodes import Ast
from .parser import ParsedItems, ParseError, parse
from .preprocess import (
    BUILTIN_MACROS,
    DEVICE_PASS,
    HOST_PASS,
    CompileProfile,
    PpPass,
    PreprocessorError,
    prepare,
    preprocess,
)

__all__ = [
    "Ast",
    "BUILTIN_MACROS",
    "CompileProfile",
    "DEVICE_PASS",
    "HOST_PASS",
    "ParseError",
    "ParsedItems",
    "PpPass",
    "PreprocessorError",
    "parse",
    "pass_tokens",
    "prepare",
    "preprocess",
    "tokenize",
]
