"""Basic permission machine over an app set of configurable size.

Each app carries three variables: the level it last asked for, the level it
was granted, and an installed bit. Three atomic actions drive the system:

* InstallOrder(r): enabled only while no app at all is installed; marks r
  installed.
* Ask(r, p): always enabled for p in {NOR, DAN}; overwrites the asked level.
* Grant(r): enabled when r asked for NOR or is installed; always grants DAN.

The deliberately permissive Grant action is the encoded design flaw: the
`ApsConsistent` invariant (no app that asked for a normal permission holds a
dangerous one) is violated two steps from the initial state. No repaired
variant ships here; detecting the flaw is the point.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..kernel import (ActionLabel, TransitionSystem, VariableDecl,
                      canonical_encode, variable_slices)

NONE = ""
NOR = "NOR"
DAN = "DAN"
PERM_LEVELS = (NONE, NOR, DAN)

MODEL_NAME = "aps_cs1"
INVARIANT_NAMES = ("ApsTypeOK", "ApsConsistent")
MAX_SLOTS = 65_536  # the most one-byte state slots an app count may ask for, 3 per app

# Domain codes of the levels.
_NOR_CODE = PERM_LEVELS.index(NOR)
_DAN_CODE = PERM_LEVELS.index(DAN)


def app_ids(app_count: int) -> tuple[str, ...]:
    return tuple(f"a{i + 1}" for i in range(app_count))


def validate_app_count(app_count) -> None:
    """Raise :class:`ConfigurationError` unless `app_count` is an `int` from
    1 (`bool` excluded) to ``MAX_SLOTS // 3``, before anything is built."""
    if type(app_count) is not int:
        raise ConfigurationError(
            f"aps_cs1 needs an integer app count, not {app_count!r}", ("apps",))
    if app_count < 1:
        raise ConfigurationError("app count must be at least 1", ("apps",))
    if app_count > MAX_SLOTS // 3:
        raise ConfigurationError(f"app count must be at most {MAX_SLOTS // 3}", ("apps",))


def build_system(app_count: int) -> TransitionSystem:
    """Package the machine as a kernel TransitionSystem over byte-encoded
    states: one slot per app in each of the three variables."""
    validate_app_count(app_count)
    ids = app_ids(app_count)
    decls = (
        VariableDecl("askedPerms", ids, PERM_LEVELS),
        VariableDecl("grantedPerms", ids, PERM_LEVELS),
        VariableDecl("alreadyInstalled", ids, (0, 1)),
    )
    asked, granted, installed = variable_slices(decls)
    initial = canonical_encode(decls, {
        "askedPerms": dict.fromkeys(ids, NONE),
        "grantedPerms": dict.fromkeys(ids, NONE),
        "alreadyInstalled": dict.fromkeys(ids, 0),
    })
    nothing_installed = initial[installed]
    width = len(initial)
    # Per app: its asked, granted and installed slots, their bit offsets in
    # the state read as one big-endian integer, and the labels of its four
    # actions.
    actions = []
    for r, rid in enumerate(ids):
        a, g, i = asked.start + r, granted.start + r, installed.start + r
        actions.append((
            a, g, i, 8 * (width - 1 - a), 8 * (width - 1 - g), 8 * (width - 1 - i),
            ActionLabel("InstallOrder", (("r", rid),)),
            ActionLabel("Ask", (("r", rid), ("p", NOR))),
            ActionLabel("Ask", (("r", rid), ("p", DAN))),
            ActionLabel("Grant", (("r", rid),))))

    def successors(s: bytes) -> list[tuple[ActionLabel, bytes]]:
        """Enabled actions per app ascending: InstallOrder, Ask NOR, Ask DAN,
        Grant. Self-loop successors (re-asking the same level, re-granting)
        are emitted as `s` itself; the kernel's dedup drops them from the
        frontier.

        Writing code c over a slot that holds code v adds (c - v) << offset
        to the state read as an integer, so each other successor is one
        addition and one `to_bytes`. Offsets are shifted here, so that the
        build keeps no state-wide integer per app."""
        # InstallOrder's guard quantifies over every app: only the very
        # first install is possible.
        can_install = s[installed] == nothing_installed
        n = int.from_bytes(s)
        out = []
        for (a, g, i, a_at, g_at, i_at,
             install_l, ask_nor_l, ask_dan_l, grant_l) in actions:
            if can_install:  # the slot holds 0, as nothing is installed
                out.append((install_l, (n + (1 << i_at)).to_bytes(width)))
            level = s[a]
            out.append((ask_nor_l, s if level == _NOR_CODE else
                        (n + ((_NOR_CODE - level) << a_at)).to_bytes(width)))
            out.append((ask_dan_l, s if level == _DAN_CODE else
                        (n + ((_DAN_CODE - level) << a_at)).to_bytes(width)))
            # Disjunctive guard plus unconditional DAN effect; kept literal.
            if level == _NOR_CODE or s[i] == 1:
                held = s[g]
                out.append((grant_l, s if held == _DAN_CODE else
                            (n + ((_DAN_CODE - held) << g_at)).to_bytes(width)))
        return out

    def consistent(s: bytes) -> bool:
        """No app that asked for NOR may hold DAN."""
        return (_NOR_CODE, _DAN_CODE) not in zip(s[asked], s[granted])

    return TransitionSystem(
        name=MODEL_NAME,
        variables=decls,
        initial_states=(initial,),
        successors=successors,
        # TypeOK holds of every state a predicate sees: `check` and `replay`
        # admit only encodings whose every slot code is in its domain.
        invariants=(("ApsTypeOK", lambda s: True), ("ApsConsistent", consistent)),
    )
