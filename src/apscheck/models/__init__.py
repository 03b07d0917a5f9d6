"""Built-in models and the registry the scenario language selects from."""

from __future__ import annotations

import re
from typing import Callable, NamedTuple

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
    build: Callable[["ScenarioDef"], TransitionSystem]


# `build` takes a definition that `validate` accepted.
_REGISTRY = {
    cs1.MODEL_NAME: ModelInfo(cs1.MODEL_NAME, ("apps",), cs1.INVARIANT_NAMES,
                              lambda scenario: cs1.build_system(scenario.apps)),
    custom.MODEL_NAME: ModelInfo(custom.MODEL_NAME, (), custom.INVARIANT_NAMES,
                                 lambda scenario: custom.build_system(scenario.app_specs))
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
    building its system, and return its model's entry; `ScenarioDef` calls
    it as it is made. The first broken rule raises :class:`ConfigurationError`,
    whose `field` is the path of the field at fault. Every field must be one
    that scenario text can state, so a definition that validates renders to
    text that parses back equal."""
    info = get_model(scenario.model_name)
    if scenario.apps is not None and "apps" not in info.params:
        raise ConfigurationError(f"'apps' is not valid for model {info.name}", ("apps",))
    for i, app in enumerate(scenario.app_specs):
        for text in (app.id, *(d.name for d in app.declares), *app.requests):
            if not (isinstance(text, str) and IDENTIFIER.fullmatch(text)):
                raise ConfigurationError(
                    f"app {app.id!r}: {text!r} is not an identifier (a letter or "
                    "'_', then letters, digits, '_' or '.')", ("app_specs", i))
    if info.name == cs1.MODEL_NAME:
        if scenario.apps is None:
            raise ConfigurationError(f"model {info.name} requires an 'apps' directive",
                                     ("apps",))
        cs1.validate_app_count(scenario.apps)
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
    """Instantiate the model of a `ScenarioDef`, which was validated when it
    was made, restricted to the invariants it checks, in their order."""
    return get_model(scenario.model_name).build(scenario).with_invariants(
        scenario.check_list)
