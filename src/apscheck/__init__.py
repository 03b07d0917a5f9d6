"""Explicit-state safety checker for Android permission-system models.

Exhaustive breadth-first exploration of finite labeled transition systems
with invariant checking, shortest counterexample traces and exploration
statistics, plus two built-in permission models and a small scenario
language to drive them.
"""

from .errors import (
    CheckerError,
    ConfigurationError,
    DomainError,
    ModelIntegrityError,
    ReplayDocumentError,
)
from .kernel import (
    ActionLabel,
    CheckOptions,
    CheckReport,
    Trace,
    TraceStep,
    TransitionSystem,
    VariableDecl,
    Verdict,
    canonical_encode,
    check,
    decode,
)
from .models import (
    AppSpec,
    ModelInfo,
    PermissionDeclaration,
    build_system,
    get_model,
    model_names,
)
from .reporting import ReplayResult, render_structured, render_text, replay
from .scenario import (
    ScenarioDef,
    ScenarioError,
    parse_scenario,
    render_scenario,
    validate_semantics,
)

__version__ = "0.1.0"

__all__ = [
    "ActionLabel",
    "AppSpec",
    "CheckOptions",
    "CheckReport",
    "CheckerError",
    "ConfigurationError",
    "DomainError",
    "ModelInfo",
    "ModelIntegrityError",
    "PermissionDeclaration",
    "ReplayDocumentError",
    "ReplayResult",
    "ScenarioDef",
    "ScenarioError",
    "Trace",
    "TraceStep",
    "TransitionSystem",
    "VariableDecl",
    "Verdict",
    "build_system",
    "canonical_encode",
    "check",
    "decode",
    "get_model",
    "model_names",
    "parse_scenario",
    "render_scenario",
    "render_structured",
    "render_text",
    "replay",
    "validate_semantics",
]
