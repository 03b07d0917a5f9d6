"""Exhaustive breadth-first exploration of finite labeled transition systems.

The kernel is model-agnostic: a model contributes variable declarations,
initial states, a deterministic successor function and named invariant
predicates, packaged as a :class:`TransitionSystem`. States are canonical
byte encodings throughout exploration. :func:`check` explores every
reachable state in a fixed order, deduplicating on the full encoding, and
either proves all invariants or reconstructs a shortest counterexample
trace of encodings, which :func:`decode` turns back into values.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from .errors import ConfigurationError, DomainError, ModelIntegrityError

# One byte per slot holds the value's domain code.
MAX_DOMAIN_SIZE = 256

# States a check stores before it stops with LIMIT_EXCEEDED, unless told.
DEFAULT_MAX_STATES = 1_000_000

# A variable's slots in the layout pattern: the codes up to its top code
# (hex escapes need no quoting), repeated once per key. With exact counts,
# possessive repeats accept the same strings as plain ones but never
# backtrack: on CPython 3.11 a match is ~40% faster and a check's peak RSS lower.
_SLOT_CLASS = rb"[\x00-\x%02x]{%d}+"


class Record:
    """Immutable record: `__slots__` names the fields in order, and records
    of one class compare and hash by field values, as frozen dataclasses do,
    but without generating code when the class is created."""

    __slots__ = ()

    def __init__(self, *values):
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        return (self._values() == other._values() if type(other) is type(self)
                else NotImplemented)

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class VariableDecl(Record):
    """One model variable: a total map from `keys` into `domain`.

    Keys are typically app identifiers, but any fixed, ordered index set
    works (the custom-permission model also indexes by permission name and
    by app:name pairs). Domain order fixes the byte code of each value, so
    a domain holds at most :data:`MAX_DOMAIN_SIZE` values, and neither keys
    nor domain values may repeat: each value has exactly one code.
    """

    __slots__ = ("name", "keys", "domain")

    def __init__(self, name: str, keys: tuple[str, ...], domain: tuple):
        if len(domain) > MAX_DOMAIN_SIZE:
            raise ConfigurationError(
                f"variable {name!r} has {len(domain)} domain values; the one-byte-"
                f"per-slot state encoding holds at most {MAX_DOMAIN_SIZE}")
        for what, values in (("key", keys), ("domain value", domain)):
            if len(set(values)) < len(values):
                repeated = next(v for i, v in enumerate(values) if v in values[:i])
                raise ConfigurationError(
                    f"variable {name!r} repeats {what} {repeated!r}")
        super().__init__(name, keys, domain)


def variable_slices(variables: Sequence[VariableDecl]) -> tuple[slice, ...]:
    """Where each variable's slots sit in the canonical encoding, in
    declaration order: one byte per key, keys in declared key order."""
    slices = []
    pos = 0
    for decl in variables:
        slices.append(slice(pos, pos + len(decl.keys)))
        pos += len(decl.keys)
    return tuple(slices)


class ActionLabel(NamedTuple):
    """Names the atomic action that produced a transition, with its
    parameter values in a fixed order (the acting app first)."""

    name: str
    params: tuple[tuple[str, object], ...] = ()

    def render(self) -> str:
        if not self.params:
            return self.name
        return f"{self.name}({', '.join(str(v) for _, v in self.params)})"


def canonical_encode(variables: Sequence[VariableDecl],
                     assignment: Mapping[str, Mapping[str, object]]) -> bytes:
    """Encode a total assignment as bytes.

    Deterministic and injective for a fixed declaration list: variables in
    declaration order, keys in declared key order, one byte per slot holding
    the value's domain code. The assignment must hold exactly the declared
    variables and keys, and each value must equal a domain value of the same
    type (``True`` and ``1.0`` are not ``1``); otherwise :class:`DomainError`
    names the offending variable, key or value. :func:`decode` inverts it.
    """
    declared = [decl.name for decl in variables]
    for name in assignment:
        if name not in declared:
            raise DomainError(f"assignment has undeclared variable {name!r}")
    codes = bytearray()
    for decl in variables:
        try:
            var_map = assignment[decl.name]
        except KeyError:
            raise DomainError(f"assignment is missing variable {decl.name!r}") from None
        for key in decl.keys:
            try:
                value = var_map[key]
            except KeyError:
                raise DomainError(
                    f"assignment for {decl.name!r} is missing key {key!r}"
                ) from None
            # Domain values are pairwise distinct, so `index` finds the only
            # candidate; it must also match the value's type.
            code = decl.domain.index(value) if value in decl.domain else None
            if code is None or type(decl.domain[code]) is not type(value):
                raise DomainError(
                    f"value {value!r} for {decl.name}[{key}] is outside the "
                    f"declared domain {decl.domain!r}"
                )
            codes.append(code)
        if len(var_map) != len(decl.keys):
            # Every declared key is present and keys are distinct, so some
            # key is undeclared.
            key = next(k for k in var_map if k not in decl.keys)
            raise DomainError(f"assignment for {decl.name!r} has undeclared key {key!r}")
    return bytes(codes)


def decode(variables: Sequence[VariableDecl],
           encoding: bytes) -> dict[str, dict[str, object]]:
    """The assignment that :func:`canonical_encode` encodes as `encoding`:
    the domains' own values, variables and keys in declared order. A
    malformed encoding raises :class:`DomainError` naming a wrong length,
    or else the first slot whose code is outside its variable's domain."""
    slices = variable_slices(variables)
    width = slices[-1].stop if slices else 0
    if len(encoding) != width:
        raise DomainError(f"state encoding has {len(encoding)} slots, "
                          f"declarations require {width}")
    values = {}
    for decl, where in zip(variables, slices):
        codes = encoding[where]
        if codes and max(codes) >= len(decl.domain):
            key, code = next((key, code) for key, code in zip(decl.keys, codes)
                             if code >= len(decl.domain))
            raise DomainError(f"{decl.name}[{key}] holds code {code}, "
                              "outside its declared domain")
        values[decl.name] = dict(zip(decl.keys, map(decl.domain.__getitem__, codes)))
    return values


def _well_formed(
        variables: Sequence[VariableDecl]) -> Callable[[bytes], Optional[re.Match]]:
    """A matcher accepting exactly the encodings :func:`decode` accepts,
    length and codes in one call. The `re` module's own cache keeps a
    repeated layout compiled."""
    pattern = bytearray()
    for decl in variables:
        if decl.domain:
            pattern += _SLOT_CLASS % (len(decl.domain) - 1, len(decl.keys))
        elif decl.keys:
            pattern += b"(?!)"
    return re.compile(bytes(pattern)).fullmatch


SuccessorFn = Callable[[bytes], "list[tuple[ActionLabel, bytes]]"]
InvariantFn = Callable[[bytes], bool]


@dataclass(frozen=True)
class TransitionSystem:
    """A model's contract with the kernel.

    States are canonical encodings (see :func:`canonical_encode`).
    `successors` must be deterministic: the same encoding yields the
    identical ordered list of (label, successor encoding) pairs on every
    call; :func:`reconstruct_trace` relies on it to find a trace's parents
    again. Invariants take an encoding and are checked in list order.
    """

    name: str
    variables: tuple[VariableDecl, ...]
    initial_states: tuple[bytes, ...]
    successors: SuccessorFn
    invariants: tuple[tuple[str, InvariantFn], ...] = ()

    @property
    def invariant_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.invariants)

    def with_invariants(self, names: Sequence[str]) -> "TransitionSystem":
        """Restrict to the named invariants, checked in the given order;
        a name listed more than once keeps every predicate under it, in
        list order."""
        missing = [n for n in names if n not in self.invariant_names]
        if missing:
            raise ConfigurationError(
                f"model {self.name!r} has no invariant named {missing[0]!r}"
            )
        return replace(self, invariants=tuple(
            pair for n in names for pair in self.invariants if pair[0] == n))


class TraceStep(NamedTuple):
    state: bytes
    label: Optional[ActionLabel]  # None only on the initial state


class Trace(Record):
    """Minimal-length labeled path from an initial state to the state that
    violates `violated_invariant`. Steps hold encodings; `variables`, the
    system's declarations, decode them (see :func:`decode`)."""

    # tuple[TraceStep, ...], str, tuple[VariableDecl, ...]
    __slots__ = ("steps", "violated_invariant", "variables")

    def __len__(self) -> int:
        # Number of labeled steps, i.e. actions taken.
        return len(self.steps) - 1

    @property
    def final_state(self) -> bytes:
        return self.steps[-1].state


class Verdict(Enum):
    PASS = "pass"
    VIOLATION = "violation"
    LIMIT_EXCEEDED = "limit_exceeded"
    INTERRUPTED = "interrupted"


class CheckOptions(NamedTuple):
    max_states: int = DEFAULT_MAX_STATES
    check_invariants: bool = True


class CheckReport(NamedTuple):
    """Outcome of one exploration run.

    `diameter` is the maximum breadth-first depth of any discovered state;
    on a full pass it equals the depth of the state farthest from the
    initial states. `elapsed` is wall-clock seconds and is the only
    nondeterministic field.
    """

    verdict: Verdict
    distinct_states: int
    transitions: int
    diameter: int
    elapsed: float
    trace: Optional[Trace] = None
    invariants_checked: tuple[str, ...] = ()

    @property
    def violated_invariant(self) -> Optional[str]:
        return self.trace.violated_invariant if self.trace is not None else None


def reconstruct_trace(system: TransitionSystem, levels: Sequence[Sequence[bytes]],
                      depth: int, index: int, invariant_name: str) -> Trace:
    """The shortest trace to `levels[depth][index]`, where `levels[d]` holds
    the encodings first found at depth d, in discovery order. BFS first
    reached a state at depth d > 0 from the first state of `levels[d-1]`,
    in order, whose successors contain it, by the first label there leading
    to it. Deterministic `successors` find both again, expanding each level
    below at most once; a state no longer reached from the level before
    raises :class:`ModelIntegrityError`.
    """
    steps: list[TraceStep] = []
    while depth:
        target = levels[depth][index]
        found = next(((parent, label)
                      for parent, state in enumerate(levels[depth - 1])
                      for label, successor in system.successors(state)
                      if successor == target), None)
        if found is None:
            number = sum(map(len, levels[:depth])) + index
            raise ModelIntegrityError(
                f"state {number} at depth {depth} is not a successor of any state "
                f"at depth {depth - 1}; successors must be deterministic")
        index, label = found
        steps.append(TraceStep(target, label))
        depth -= 1
    steps.append(TraceStep(levels[0][index], None))
    return Trace(tuple(reversed(steps)), invariant_name, system.variables)


def validate_max_states(max_states) -> None:
    """Raise :class:`ConfigurationError` unless `max_states` is an `int` of
    at least 1 (`bool` excluded)."""
    if type(max_states) is not int:
        raise ConfigurationError(f"max_states must be an integer, not {max_states!r}",
                                 ("max_states",))
    if max_states < 1:
        raise ConfigurationError("max_states must be at least 1", ("max_states",))


def check(system: TransitionSystem,
          options: CheckOptions | None = None) -> CheckReport:
    """Breadth-first exhaustive exploration with invariant checking.

    Levels are explored in depth order, each in discovery order (initial
    states as declared, successors in the model's declared action order),
    so the first violation found, and hence the reported trace, is the same
    on every run. Each state's invariants are evaluated once, when its level
    is walked; the first failing invariant in list order names the
    violation. Only encodings are stored, one list per depth, so a violation
    at depth d rebuilds its trace, shortest by the BFS discovery guarantee,
    by expanding levels 0 to d-1 at most once more (see
    :func:`reconstruct_trace`). Only states not seen before are validated
    against the declarations: an encoding equal to a visited state is valid
    by construction; a malformed one raises :class:`ModelIntegrityError`.

    A :class:`KeyboardInterrupt` during exploration or trace reconstruction
    ends it early with an ``INTERRUPTED`` report carrying the exploration's
    counts and no trace. Partial reports count exactly the successors
    consumed, the one being looked at included.
    """
    opts = options or CheckOptions()
    validate_max_states(opts.max_states)
    if not system.initial_states:
        raise ConfigurationError(f"model {system.name!r} declares no initial state")

    active = system.invariants if opts.check_invariants else ()
    successors = system.successors
    well_formed = _well_formed(system.variables)
    max_states = opts.max_states
    started = time.perf_counter()

    # levels[d] holds the encodings first found at depth d, in discovery
    # order; the last level is the one being filled.
    seen: set[bytes] = set()
    levels: list[list[bytes]] = [[]]
    add, append_state = seen.add, levels[0].append
    transitions = 0

    def report(verdict: Verdict, trace: Optional[Trace] = None) -> CheckReport:
        return CheckReport(
            verdict=verdict,
            distinct_states=len(seen),
            transitions=transitions,
            diameter=max((d for d, level in enumerate(levels) if level), default=0),
            elapsed=time.perf_counter() - started,
            trace=trace,
            invariants_checked=tuple(name for name, _ in active),
        )

    def reject(encoding: bytes, context: str) -> None:
        try:  # the matcher refused `encoding`; decode, which agrees, says why
            decode(system.variables, encoding)
        except DomainError as problem:
            raise ModelIntegrityError(f"{context}: {problem}") from None

    try:
        for state in system.initial_states:
            if not well_formed(state):
                reject(state, "initial state")
            if state in seen:
                continue
            if len(seen) >= max_states:
                return report(Verdict.LIMIT_EXCEEDED)
            add(state)
            append_state(state)

        depth = 0
        while levels[depth]:
            levels.append([])
            append_state = levels[-1].append
            for index, state in enumerate(levels[depth]):
                for name, predicate in active:
                    if not predicate(state):
                        return report(Verdict.VIOLATION, reconstruct_trace(
                            system, levels, depth, index, name))
                for label, successor in successors(state):
                    transitions += 1
                    if successor in seen:
                        continue
                    if not well_formed(successor):
                        reject(successor, f"successor via {label.render()}")
                    if len(seen) >= max_states:
                        return report(Verdict.LIMIT_EXCEEDED)
                    add(successor)
                    append_state(successor)
            depth += 1
    except KeyboardInterrupt:
        return report(Verdict.INTERRUPTED)

    return report(Verdict.PASS)

