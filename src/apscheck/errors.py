"""Exception hierarchy shared across the checker."""

from __future__ import annotations


class CheckerError(Exception):
    """Base class for all errors raised by this package."""


class ConfigurationError(CheckerError):
    """A model or checker was instantiated with unusable parameters."""


class DomainError(CheckerError):
    """An assignment carries a value outside its variable's declared domain."""


class ModelIntegrityError(CheckerError):
    """A model produced a successor state that violates its own declarations."""


class ReplayDocumentError(CheckerError):
    """A report document is unparseable or lacks a replayable trace."""
