"""Exception hierarchy shared across the checker."""

from __future__ import annotations


class CheckerError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(CheckerError):
    """A model or checker was instantiated with unusable parameters.

    `field` is the path of the scenario field at fault, such as
    `("params", "apps")` or `("app_specs", 1)`, or `()` for none."""

    def __init__(self, message: str, field: tuple = ()):
        super().__init__(message)
        self.field = field


class DomainError(CheckerError):
    """An assignment carries a value outside its variable's declared domain."""


class ModelIntegrityError(CheckerError):
    """A model produced a successor state that violates its own declarations."""


class ReplayDocumentError(CheckerError):
    """A report document is unparseable or lacks a replayable trace."""
