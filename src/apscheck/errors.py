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


class LimitExceededError(CheckerError):
    """Exploration hit the state limit before exhausting the frontier.

    Carries the partial statistics gathered up to the stop.
    """

    def __init__(self, message: str, distinct_states: int, transitions: int,
                 diameter: int):
        super().__init__(message)
        self.distinct_states = distinct_states
        self.transitions = transitions
        self.diameter = diameter


class ReplayDocumentError(CheckerError):
    """A report document is unparseable or lacks a replayable trace."""
