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


def _build_cs1(params: Mapping[str, int], apps: Sequence[AppSpec]) -> TransitionSystem:
    if "apps" not in params:
        raise ConfigurationError("model aps_cs1 requires the 'apps' parameter")
    if apps:
        raise ConfigurationError("app blocks are not valid for model aps_cs1")
    for name in params:
        if name != "apps":
            raise ConfigurationError(f"{name!r} is not valid for model aps_cs1")
    return cs1.build_system(params["apps"])


def _build_custom(params: Mapping[str, int],
                  apps: Sequence[AppSpec]) -> TransitionSystem:
    if params:
        raise ConfigurationError(
            f"{next(iter(params))!r} is not valid for model custom_permissions")
    return custom.build_system(apps)


_REGISTRY = {
    cs1.MODEL_NAME: ModelInfo(cs1.MODEL_NAME, ("apps",),
                              cs1.INVARIANT_NAMES, _build_cs1),
    custom.MODEL_NAME: ModelInfo(custom.MODEL_NAME, (),
                                 custom.INVARIANT_NAMES, _build_custom),
}


def model_names() -> tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def get_model(name: str) -> ModelInfo:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ConfigurationError(f"unknown model {name!r}") from None


def build_system(scenario) -> TransitionSystem:
    """Instantiate the scenario's model and restrict it to the invariants
    the scenario asks to check, in the scenario's order. Every field must
    be one that scenario text can state, so the definition renders to
    text that parses back equal."""
    info = get_model(scenario.model_name)
    validate_max_states(scenario.max_states)
    for app in scenario.app_specs:
        for text in (app.id, *(d.name for d in app.declares), *app.requests):
            if not (isinstance(text, str) and IDENTIFIER.fullmatch(text)):
                raise ConfigurationError(
                    f"app {app.id!r}: {text!r} is not an identifier (a letter or "
                    "'_', then letters, digits, '_' or '.')")
    system = info.build(scenario.params, scenario.app_specs)
    if not scenario.check_list:
        # Text without a `check` line checks every invariant.
        raise ConfigurationError("check_list must name at least one invariant")
    return system.with_invariants(scenario.check_list)
