"""Exhaustive breadth-first exploration of finite labeled transition systems.

The kernel is model-agnostic: a model contributes variable declarations,
initial states, a deterministic successor function and named invariant
predicates, packaged as a :class:`TransitionSystem`. States are canonical
byte encodings throughout exploration. :func:`check` explores every
reachable state in a fixed order, deduplicating on the full encoding, and
either proves all invariants or reconstructs a shortest counterexample
trace of decoded :class:`State` values.
"""

from __future__ import annotations

import time
from array import array
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property
from typing import Callable, Mapping, NamedTuple, Optional, Sequence

from .errors import (
    ConfigurationError,
    DomainError,
    LimitExceededError,
    ModelIntegrityError,
)

# One byte per slot holds the value's domain code.
MAX_DOMAIN_SIZE = 256


@dataclass(frozen=True)
class VariableDecl:
    """One model variable: a total map from `keys` into `domain`.

    Keys are typically app identifiers, but any fixed, ordered index set
    works (the custom-permission model also indexes by permission name and
    by app:name pairs). Domain order fixes the byte code of each value, so
    a domain holds at most :data:`MAX_DOMAIN_SIZE` values.
    """

    name: str
    keys: tuple[str, ...]
    domain: tuple

    def __post_init__(self):
        if len(self.domain) > MAX_DOMAIN_SIZE:
            raise ConfigurationError(
                f"variable {self.name!r} has {len(self.domain)} domain values; "
                f"the one-byte-per-slot state encoding holds at most "
                f"{MAX_DOMAIN_SIZE}"
            )


def variable_slices(variables: Sequence[VariableDecl]) -> tuple[slice, ...]:
    """Where each variable's slots sit in the canonical encoding, in
    declaration order: one byte per key, keys in declared key order."""
    slices = []
    pos = 0
    for decl in variables:
        slices.append(slice(pos, pos + len(decl.keys)))
        pos += len(decl.keys)
    return tuple(slices)


class State:
    """A total assignment of every declared variable, canonically encoded.

    Two states are equal exactly when their encodings are byte-identical.
    Exploration works on the encodings alone; a `State` adds the decoded
    values in declaration order so that trace steps and replayed documents
    stay renderable without the producing system at hand.
    """

    __slots__ = ("encoding", "assignment")

    def __init__(self, encoding: bytes,
                 assignment: tuple[tuple[str, tuple[tuple[str, object], ...]], ...]):
        self.encoding = encoding
        self.assignment = assignment

    def as_dict(self) -> dict[str, dict[str, object]]:
        return {var: dict(items) for var, items in self.assignment}

    def value(self, var: str, key: str):
        for name, items in self.assignment:
            if name == var:
                return dict(items)[key]
        raise KeyError(var)

    def __eq__(self, other):
        return isinstance(other, State) and self.encoding == other.encoding

    def __hash__(self):
        return hash(self.encoding)

    def __repr__(self):
        return f"State({self.as_dict()!r})"


@dataclass(frozen=True)
class ActionLabel:
    """Names the atomic action that produced a transition, with its
    parameter values in a fixed order (the acting app first)."""

    name: str
    params: tuple[tuple[str, object], ...] = ()

    def render(self) -> str:
        if not self.params:
            return self.name
        return f"{self.name}({', '.join(str(v) for _, v in self.params)})"


def canonical_encode(variables: Sequence[VariableDecl],
                     assignment: Mapping[str, Mapping[str, object]]) -> State:
    """Encode a total assignment into a :class:`State`.

    Deterministic and injective for a fixed declaration list: variables in
    declaration order, keys in declared key order, one byte per slot holding
    the value's domain code. Raises :class:`DomainError` when the assignment
    misses a variable or key, or carries an out-of-domain value.
    """
    codes = bytearray()
    decoded = []
    for decl in variables:
        try:
            var_map = assignment[decl.name]
        except KeyError:
            raise DomainError(f"assignment is missing variable {decl.name!r}") from None
        items = []
        for key in decl.keys:
            try:
                value = var_map[key]
            except KeyError:
                raise DomainError(
                    f"assignment for {decl.name!r} is missing key {key!r}"
                ) from None
            try:
                code = decl.domain.index(value)
            except ValueError:
                raise DomainError(
                    f"value {value!r} for {decl.name}[{key}] is outside the "
                    f"declared domain {decl.domain!r}"
                ) from None
            codes.append(code)
            items.append((key, value))
        decoded.append((decl.name, tuple(items)))
    return State(bytes(codes), tuple(decoded))


SuccessorFn = Callable[[bytes], "list[tuple[ActionLabel, bytes]]"]
InvariantFn = Callable[[bytes], bool]


@dataclass(frozen=True)
class TransitionSystem:
    """A model's contract with the kernel.

    States are canonical encodings (see :func:`canonical_encode`).
    `successors` must be deterministic: the same encoding yields the
    identical ordered list of (label, successor encoding) pairs on every
    call. Invariants take an encoding and are checked in list order.
    """

    name: str
    variables: tuple[VariableDecl, ...]
    initial_states: tuple[bytes, ...]
    successors: SuccessorFn
    invariants: tuple[tuple[str, InvariantFn], ...] = ()

    @property
    def invariant_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.invariants)

    def invariant(self, name: str) -> InvariantFn:
        for inv_name, predicate in self.invariants:
            if inv_name == name:
                return predicate
        raise KeyError(name)

    def with_invariants(self, names: Sequence[str]) -> "TransitionSystem":
        """Restrict to the named invariants, checked in the given order."""
        table = dict(self.invariants)
        missing = [n for n in names if n not in table]
        if missing:
            raise ConfigurationError(
                f"model {self.name!r} has no invariant named {missing[0]!r}"
            )
        return replace(self, invariants=tuple((n, table[n]) for n in names))

    def encode(self, assignment: Mapping[str, Mapping[str, object]]) -> State:
        return canonical_encode(self.variables, assignment)

    def decode(self, encoding: bytes) -> State:
        """The :class:`State` whose encoding is `encoding`, which must be
        valid for these declarations."""
        return State(encoding, tuple(
            (decl.name, tuple(zip(decl.keys, (decl.domain[c] for c in encoding[where]))))
            for decl, where in self._layout))

    @cached_property
    def _layout(self) -> tuple[tuple[VariableDecl, slice], ...]:
        return tuple(zip(self.variables, variable_slices(self.variables)))

    def _validate_state(self, encoding: bytes, label: Optional[ActionLabel]) -> None:
        """Raise :class:`ModelIntegrityError`, naming the action that made
        `encoding` (None for an initial state), unless it is a well-formed
        encoding for these declarations."""
        layout = self._layout
        length = layout[-1][1].stop if layout else 0
        problem = None
        if len(encoding) != length:
            problem = (f"state encoding has {len(encoding)} slots, "
                       f"declarations require {length}")
        else:
            for decl, where in layout:
                if max(encoding[where], default=0) >= len(decl.domain):
                    key, code = next((k, c) for k, c in zip(decl.keys, encoding[where])
                                     if c >= len(decl.domain))
                    problem = (f"{decl.name}[{key}] holds code {code}, "
                               "outside its declared domain")
                    break
        if problem is not None:
            context = ("initial state" if label is None
                       else f"successor via {label.render()}")
            raise ModelIntegrityError(f"{context}: {problem}")


class TraceStep(NamedTuple):
    state: State
    label: Optional[ActionLabel]  # None only on the initial state


@dataclass(frozen=True)
class Trace:
    """Minimal-length labeled path from an initial state to the state that
    violates `violated_invariant`."""

    steps: tuple[TraceStep, ...]
    violated_invariant: str

    def __len__(self) -> int:
        # Number of labeled steps, i.e. actions taken.
        return len(self.steps) - 1

    @property
    def final_state(self) -> State:
        return self.steps[-1].state


class Verdict(Enum):
    PASS = "pass"
    VIOLATION = "violation"
    LIMIT_EXCEEDED = "limit_exceeded"


@dataclass(frozen=True)
class CheckOptions:
    max_states: int = 1_000_000
    check_invariants: bool = True


@dataclass(frozen=True)
class CheckReport:
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
        return self.trace.violated_invariant if self.trace else None


def reconstruct_trace(system: TransitionSystem, states: Sequence[bytes],
                      parents: Sequence[int],
                      labels: Sequence[Optional[ActionLabel]],
                      violating: int, invariant_name: str) -> Trace:
    """Walk the parent arrays from state number `violating` back to its root.

    `states[i]` is the encoding of the i-th discovered state, `parents[i]`
    the number of the state it was first reached from (-1 for an initial
    state) and `labels[i]` the action taken (None for an initial state).
    A parent is always discovered before its child, so the walk ends.
    """
    steps: list[TraceStep] = []
    index = violating
    while index >= 0:
        steps.append(TraceStep(system.decode(states[index]), labels[index]))
        index = parents[index]
    steps.reverse()
    return Trace(tuple(steps), invariant_name)


def check(system: TransitionSystem,
          options: CheckOptions | None = None) -> CheckReport:
    """Breadth-first exhaustive exploration with invariant checking.

    States are explored in a canonical order (initial states as declared,
    successors in the model's declared action order), so the first violation
    found, and hence the reported trace, is the same on every run. Each
    state's invariants are evaluated once, at dequeue; the first failing
    invariant in list order names the violation, and the reconstructed trace
    is shortest by the BFS discovery guarantee. Only states not seen before
    are validated against the declarations: an encoding equal to a visited
    state is valid by construction.
    """
    opts = options or CheckOptions()
    if opts.max_states < 1:
        raise ConfigurationError("max_states must be at least 1")
    if not system.initial_states:
        raise ConfigurationError(f"model {system.name!r} declares no initial state")

    active = system.invariants if opts.check_invariants else ()
    successors = system.successors
    max_states = opts.max_states
    started = time.perf_counter()

    # State number i is states[i]; states are expanded in number order, so
    # the frontier is states[head:] and depths never decrease along it.
    seen: set[bytes] = set()
    states: list[bytes] = []
    parents = array("q")
    labels: list[Optional[ActionLabel]] = []
    transitions = 0
    diameter = 0

    def report(verdict: Verdict, trace: Optional[Trace] = None) -> CheckReport:
        return CheckReport(
            verdict=verdict,
            distinct_states=len(states),
            transitions=transitions,
            diameter=diameter,
            elapsed=time.perf_counter() - started,
            trace=trace,
            invariants_checked=tuple(name for name, _ in active),
        )

    for state in system.initial_states:
        system._validate_state(state, None)
        if state in seen:
            continue
        if len(states) >= max_states:
            return report(Verdict.LIMIT_EXCEEDED)
        seen.add(state)
        states.append(state)
        parents.append(-1)
        labels.append(None)

    depth = 0
    level_end = len(states)
    head = 0
    while head < len(states):
        if head == level_end:
            depth += 1
            level_end = len(states)
        state = states[head]
        for name, predicate in active:
            if not predicate(state):
                trace = reconstruct_trace(system, states, parents, labels, head, name)
                return report(Verdict.VIOLATION, trace)
        for label, successor in successors(state):
            transitions += 1
            if successor in seen:
                continue
            system._validate_state(successor, label)
            if len(states) >= max_states:
                return report(Verdict.LIMIT_EXCEEDED)
            seen.add(successor)
            states.append(successor)
            parents.append(head)
            labels.append(label)
            diameter = depth + 1
        head += 1

    return report(Verdict.PASS)


def reachable_stats(system: TransitionSystem,
                    max_states: int = 1_000_000) -> tuple[int, int, int]:
    """Exploration statistics with invariant checking disabled.

    Returns (distinct_states, transitions, diameter); never reports a
    violation. Raises :class:`LimitExceededError` carrying the partial
    counts when the state limit is hit.
    """
    rep = check(system, CheckOptions(max_states=max_states, check_invariants=False))
    if rep.verdict is Verdict.LIMIT_EXCEEDED:
        raise LimitExceededError(
            f"state limit of {max_states} exceeded while exploring {system.name!r}",
            rep.distinct_states, rep.transitions, rep.diameter,
        )
    return rep.distinct_states, rep.transitions, rep.diameter
