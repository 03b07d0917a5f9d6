"""Built-in models and the registry the scenario language selects from."""

from __future__ import annotations

import re
from typing import Callable, Mapping, NamedTuple, Sequence

from ..errors import ConfigurationError
from ..kernel import TransitionSystem, validate_max_states
from . import cs1, custom
from .custom import AppSpec, PermissionDeclaration

__all__ = [
    "AppSpec",
    "PermissionDeclaration",
    "ModelInfo",
    "get_model",
    "model_names",
    "build_system",
    "validate",
    "cs1",
    "custom",
]

# An app id or permission name: the scenario lexer's identifier token, so
# that a definition that builds renders to text that parses.
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_.]*")


class ModelInfo(NamedTuple):
    name: str
    params: tuple[str, ...]
    invariants: tuple[str, ...]
    build: Callable[[Mapping[str, int], Sequence[AppSpec]], TransitionSystem]


# `build` takes a definition that `validate` accepted.
_REGISTRY = {
    cs1.MODEL_NAME: ModelInfo(cs1.MODEL_NAME, ("apps",), cs1.INVARIANT_NAMES,
                              lambda params, apps: cs1.build_system(params["apps"])),
    custom.MODEL_NAME: ModelInfo(custom.MODEL_NAME, (), custom.INVARIANT_NAMES,
                                 lambda params, apps: custom.build_system(apps)),
}


def model_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def get_model(name: str) -> ModelInfo:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(f"unknown model {name!r}") from None


def validate(scenario) -> ModelInfo:
    """Check a scenario definition against every rule it must meet, without
    building its system, and return its model's entry. The first broken
    rule raises :class:`ConfigurationError`, whose `field` is the path of
    the field at fault. Every field must be one that scenario text can
    state, so a definition that validates renders to text that parses back
    equal."""
    info = get_model(scenario.model_name)
    for name in scenario.params:
        if name not in info.params:
            raise ConfigurationError(f"{name!r} is not valid for model {info.name}",
                                     ("params", name))
    for i, app in enumerate(scenario.app_specs):
        for text in (app.id, *(d.name for d in app.declares), *app.requests):
            if not (isinstance(text, str) and IDENTIFIER.fullmatch(text)):
                raise ConfigurationError(
                    f"app {app.id!r}: {text!r} is not an identifier (a letter or "
                    "'_', then letters, digits, '_' or '.')", ("app_specs", i))
    if info.name == cs1.MODEL_NAME:
        if "apps" not in scenario.params:
            raise ConfigurationError(f"model {info.name} requires an 'apps' directive",
                                     ("params", "apps"))
        cs1.validate_app_count(scenario.params["apps"])
        if scenario.app_specs:
            raise ConfigurationError(f"app blocks are not valid for model {info.name}",
                                     ("app_specs", 0))
    else:
        custom.validate_apps(scenario.app_specs)
    if not scenario.check_list:
        # Text without a `check` line checks every invariant.
        raise ConfigurationError("check_list must name at least one invariant")
    for i, name in enumerate(scenario.check_list):
        if name not in info.invariants:
            raise ConfigurationError(
                f"model {info.name} has no invariant named {name!r}", ("check_list", i))
    validate_max_states(scenario.max_states)
    return info


def build_system(scenario) -> TransitionSystem:
    """Validate the scenario, instantiate its model and restrict it to the
    invariants the scenario asks to check, in the scenario's order."""
    info = validate(scenario)
    system = info.build(scenario.params, scenario.app_specs)
    return system.with_invariants(scenario.check_list)
