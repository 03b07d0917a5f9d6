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

# Domain codes of the levels, and the one-byte slot values actions write.
_NOR_CODE = PERM_LEVELS.index(NOR)
_DAN_CODE = PERM_LEVELS.index(DAN)
_NOR, _DAN, _INSTALLED = bytes([_NOR_CODE]), bytes([_DAN_CODE]), bytes([1])

# Encodings of at most this many bytes (21 apps) build successors by integer
# arithmetic; wider ones splice bytes. Per successor, the addition and
# `to_bytes` beat splicing up to about 100 bytes, but the tables hold
# width-sized integers for every app, which slows the build and the first
# states of wide systems.
_ARITHMETIC_WIDTH = 64


def app_ids(app_count: int) -> tuple[str, ...]:
    return tuple(f"a{i + 1}" for i in range(app_count))


def variable_decls(app_count: int) -> tuple[VariableDecl, ...]:
    ids = app_ids(app_count)
    return (
        VariableDecl("askedPerms", ids, PERM_LEVELS),
        VariableDecl("grantedPerms", ids, PERM_LEVELS),
        VariableDecl("alreadyInstalled", ids, (0, 1)),
    )


def build_system(app_count: int) -> TransitionSystem:
    """Package the machine as a kernel TransitionSystem over byte-encoded
    states: one slot per app in each of the three variables."""
    if app_count < 1:
        raise ConfigurationError("aps_cs1 needs at least one app")
    decls = variable_decls(app_count)
    ids = app_ids(app_count)
    asked, granted, installed = variable_slices(decls)
    initial = canonical_encode(decls, {
        "askedPerms": dict.fromkeys(ids, NONE),
        "grantedPerms": dict.fromkeys(ids, NONE),
        "alreadyInstalled": dict.fromkeys(ids, 0),
    })
    nothing_installed = initial[installed]
    # Per app: its asked, granted and installed slots, and the labels of
    # its four actions.
    actions = tuple(
        (asked.start + r, granted.start + r, installed.start + r,
         ActionLabel("InstallOrder", (("r", rid),)),
         ActionLabel("Ask", (("r", rid), ("p", NOR))),
         ActionLabel("Ask", (("r", rid), ("p", DAN))),
         ActionLabel("Grant", (("r", rid),)))
        for r, rid in enumerate(ids))
    if len(initial) <= _ARITHMETIC_WIDTH:
        successors = _adding_successors(actions, installed, nothing_installed,
                                        len(initial))
    else:
        successors = _splicing_successors(actions, installed, nothing_installed)

    def type_ok(s: bytes) -> bool:
        return (max(s[asked]) < len(PERM_LEVELS)
                and max(s[granted]) < len(PERM_LEVELS)
                and max(s[installed]) < 2)

    def consistent(s: bytes) -> bool:
        """No app that asked for NOR may hold DAN."""
        return (_NOR_CODE, _DAN_CODE) not in zip(s[asked], s[granted])

    return TransitionSystem(
        name=MODEL_NAME,
        variables=decls,
        initial_states=(initial,),
        successors=successors,
        invariants=(("ApsTypeOK", type_ok), ("ApsConsistent", consistent)),
    )


def _splicing_successors(actions, installed: slice, nothing_installed: bytes):
    def successors(s: bytes) -> list[tuple[ActionLabel, bytes]]:
        """Enabled actions per app ascending: InstallOrder, Ask NOR, Ask DAN,
        Grant. Self-loop successors (re-asking the same level, re-granting)
        are emitted as `s` itself; the kernel's dedup drops them from the
        frontier."""
        # InstallOrder's guard quantifies over every app: only the very
        # first install is possible.
        can_install = s[installed] == nothing_installed
        out = []
        for a, g, i, install_l, ask_nor_l, ask_dan_l, grant_l in actions:
            if can_install:
                out.append((install_l, s[:i] + _INSTALLED + s[i + 1:]))
            level = s[a]
            out.append((ask_nor_l,
                        s if level == _NOR_CODE else s[:a] + _NOR + s[a + 1:]))
            out.append((ask_dan_l,
                        s if level == _DAN_CODE else s[:a] + _DAN + s[a + 1:]))
            # Disjunctive guard plus unconditional DAN effect; kept literal.
            if level == _NOR_CODE or s[i] == 1:
                out.append((grant_l,
                            s if s[g] == _DAN_CODE else s[:g] + _DAN + s[g + 1:]))
        return out

    return successors


def _writes(code: int, place: int) -> tuple[int, int, int]:
    """What writing level `code` into a slot of place value `place` adds to
    the state's integer, indexed by the level code the slot holds (one of
    the three in `PERM_LEVELS`)."""
    return code * place, (code - 1) * place, (code - 2) * place


def _adding_successors(actions, installed: slice, nothing_installed: bytes,
                       width: int):
    """`_splicing_successors`, which states the actions and their guards,
    computed on the state read as one big-endian integer: each successor is
    one addition, from tables indexed by the written slot's current code,
    and one `to_bytes`. A zero addition is a self-loop, emitted as `s`
    itself. Only well-formed encodings reach `successors`, so every code
    indexes its table."""
    changes = []
    for action in actions:
        a, g, i = action[:3]
        wa, wg = 1 << 8 * (width - 1 - a), 1 << 8 * (width - 1 - g)
        changes.append(action + (1 << 8 * (width - 1 - i),
                                 _writes(_NOR_CODE, wa), _writes(_DAN_CODE, wa),
                                 _writes(_DAN_CODE, wg)))

    def successors(s: bytes) -> list[tuple[ActionLabel, bytes]]:
        can_install = s[installed] == nothing_installed
        n = int.from_bytes(s)
        out = []
        for (a, g, i, install_l, ask_nor_l, ask_dan_l, grant_l,
             install, ask_nor, ask_dan, grant) in changes:
            if can_install:  # the slot holds 0, as nothing is installed
                out.append((install_l, (n + install).to_bytes(width)))
            level = s[a]
            d = ask_nor[level]
            out.append((ask_nor_l, (n + d).to_bytes(width) if d else s))
            d = ask_dan[level]
            out.append((ask_dan_l, (n + d).to_bytes(width) if d else s))
            if level == _NOR_CODE or s[i] == 1:
                d = grant[s[g]]
                out.append((grant_l, (n + d).to_bytes(width) if d else s))
        return out

    return successors
