"""Lifted successor generation and blind search for numeric planning tasks."""

from .intervals import EMPTY, Interval, arith, compare, hull, interval, point
from .model import (
    ActionSchema,
    Atom,
    BinaryExpr,
    Constant,
    FunctionSymbol,
    FunctionTerm,
    GroundAction,
    Literal,
    NumericConstraint,
    NumericEffect,
    Object,
    PredicateSymbol,
    State,
    Task,
    Variable,
)
from .pddl import ParseError, load_task, parse_domain, parse_problem, parse_task
from .search import Limits, solve, validate
from .successors import GeneratorConfig, SuccessorGenerator

__version__ = "0.1.0"

__all__ = [
    "ActionSchema",
    "Atom",
    "BinaryExpr",
    "Constant",
    "EMPTY",
    "FunctionSymbol",
    "FunctionTerm",
    "GeneratorConfig",
    "GroundAction",
    "Interval",
    "Limits",
    "Literal",
    "NumericConstraint",
    "NumericEffect",
    "Object",
    "ParseError",
    "PredicateSymbol",
    "State",
    "SuccessorGenerator",
    "Task",
    "Variable",
    "arith",
    "compare",
    "hull",
    "interval",
    "load_task",
    "parse_domain",
    "parse_problem",
    "parse_task",
    "point",
    "solve",
    "validate",
]
