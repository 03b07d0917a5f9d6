"""Named custom permissions with protection levels and install-order precedence.

Apps declare permissions by name at one of two protection levels; the first
installed app to declare a name fixes its active level and stays its definer
(later installs never overwrite the registry). Requests against a
normal-level name are granted automatically; requests against a
dangerous-level name fork on the user's one-shot allow/deny decision.

The `escalation_free` invariant fails exactly when an automatically granted
name is declared dangerous by some installed app: an app then holds, without
any consent prompt, a permission that another installed app considers
dangerous. Installing a normal-level definer first and the dangerous-level
definer second reaches that situation in three steps.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Sequence

from ..errors import ConfigurationError
from ..kernel import (MAX_DOMAIN_SIZE, ActionLabel, Record, TransitionSystem,
                      VariableDecl, canonical_encode, variable_slices)

NORMAL = "normal"
DANGEROUS = "dangerous"
PROTECTION_LEVELS = (NORMAL, DANGEROUS)

AUTO = "AUTO"
CONSENT = "CONSENT"
DENIED = "DENIED"

MODEL_NAME = "custom_permissions"
INVARIANT_NAMES = ("escalation_free",)

# Domains of the registry level and grant slots ("" while unclaimed or not
# yet decided), the code of a normal level, and the grant codes and
# one-byte values request actions write.
_REGISTRY_LEVELS = ("",) + PROTECTION_LEVELS
_GRANT_MODES = ("", AUTO, CONSENT, DENIED)
_NORMAL_CODE = _REGISTRY_LEVELS.index(NORMAL)
_AUTO_CODE, _CONSENT_CODE, _DENIED_CODE = (_GRANT_MODES.index(m)
                                           for m in (AUTO, CONSENT, DENIED))


class PermissionDeclaration(Record):
    __slots__ = ("name", "level")

    def __init__(self, name: str, level: str):
        if not name:
            raise ConfigurationError("permission name must be non-empty")
        if level not in PROTECTION_LEVELS:
            raise ConfigurationError(f"unknown protection level {level!r}")
        super().__init__(name, level)


class AppSpec(Record):
    """An app's closed-world interface: what it declares and may request.

    Declarations and requests are normalized to name-ascending tuples so
    structurally equal specs compare equal regardless of construction order.
    """

    __slots__ = ("id", "declares", "requests")

    def __init__(self, id: str, declares: tuple[PermissionDeclaration, ...] = (),
                 requests: tuple[str, ...] = ()):
        if isinstance(requests, str):
            raise ConfigurationError(f"app {id!r}: requests must be a tuple of "
                                     f"names, not the string {requests!r}")
        decls = tuple(sorted(declares, key=lambda d: d.name))
        names = [d.name for d in decls]
        if len(set(names)) != len(names):
            dup = next(n for n in names if names.count(n) > 1)
            raise ConfigurationError(f"app {id!r} declares {dup!r} more than once")
        super().__init__(id, decls, tuple(sorted(set(requests))))


def validate_apps(apps: Sequence[AppSpec]) -> None:
    """Raise :class:`ConfigurationError` unless there are 1 to 255 apps, no
    app id repeats and none contains ':'."""
    if not apps:
        raise ConfigurationError(f"model {MODEL_NAME} requires at least one app block",
                                 ("app_specs",))
    ceiling = MAX_DOMAIN_SIZE - 1  # registryDefiner holds "" and each app id
    if len(apps) > ceiling:
        raise ConfigurationError(f"model {MODEL_NAME} takes at most {ceiling} apps",
                                 ("app_specs", ceiling))
    seen: set[str] = set()
    for i, app in enumerate(apps):
        if app.id in seen:
            raise ConfigurationError(f"duplicate app id {app.id!r}", ("app_specs", i))
        if ":" in app.id:
            # ":" separates app and name in the grants variable's keys.
            raise ConfigurationError("app ids must not contain ':'", ("app_specs", i))
        seen.add(app.id)


def build_system(apps: Sequence[AppSpec]) -> TransitionSystem:
    """Package a closed-world scenario as a kernel TransitionSystem over
    byte-encoded states."""
    validate_apps(apps)
    apps = sorted(apps, key=lambda a: a.id)

    ids = tuple(a.id for a in apps)
    names = tuple(sorted({d.name for a in apps for d in a.declares}))
    grant_keys = tuple(f"{a.id}:{n}" for a in apps for n in a.requests)
    decls = (
        VariableDecl("installed", ids, (0, 1)),
        VariableDecl("registryLevel", names, _REGISTRY_LEVELS),
        VariableDecl("registryDefiner", names, ("",) + ids),
        VariableDecl("grants", grant_keys, _GRANT_MODES),
    )
    installed, level, definer, grants = variable_slices(decls)
    initial = canonical_encode(decls, {
        "installed": dict.fromkeys(ids, 0),
        "registryLevel": dict.fromkeys(names, ""),
        "registryDefiner": dict.fromkeys(names, ""),
        "grants": dict.fromkeys(grant_keys, ""),
    })
    # Slot i sits at bit offset top - 8 * i of the state read as one
    # big-endian integer.
    width = len(initial)
    top = 8 * (width - 1)
    registry = {n: (level.start + j, definer.start + j) for j, n in enumerate(names)}

    # One pass over the apps, which meets the grant slots in order. Per app,
    # its plan: installed slot and offset, Install label, per declared name
    # (level slot, level code and offset, definer code and offset), and per
    # request of a declared name (level slot, grant slot, labels, grant
    # offset); other requests are never enabled. Per name: its dangerous
    # definers' installed slots and its grant slots.
    plans = []
    definers: dict[str, list[int]] = {}
    requested: dict[str, list[int]] = {}
    grant = grants.start
    for k, app in enumerate(apps):
        i = installed.start + k
        declares = []
        for d in app.declares:
            at_level, at_definer = registry[d.name]
            declares.append((at_level, _REGISTRY_LEVELS.index(d.level),
                             top - 8 * at_level, k + 1, top - 8 * at_definer))
            if d.level == DANGEROUS:
                definers.setdefault(d.name, []).append(i)
        requests = []
        for n in app.requests:
            if n in registry:
                requests.append((
                    registry[n][0], grant,
                    ActionLabel("Request", (("a", app.id), ("n", n))),
                    ActionLabel("UserAllow", (("a", app.id), ("n", n))),
                    ActionLabel("UserDeny", (("a", app.id), ("n", n))),
                    top - 8 * grant))
                requested.setdefault(n, []).append(grant)
            grant += 1
        plans.append((i, top - 8 * i, ActionLabel("Install", (("a", app.id),)),
                      declares, requests))

    def successors(s: bytes) -> list[tuple[ActionLabel, bytes]]:
        """Per app ascending by id: Install if not installed, else the
        request branches for each requested name ascending that is
        registered and neither granted nor denied to the app. A
        normal-level name is granted automatically; a dangerous-level name
        forks on the user's allow/deny decision.

        Every slot an action writes holds 0 (Install's installed bit and
        each unclaimed name's level and definer; a request's grant slot), so
        a successor is the state read as an integer plus each code shifted
        to its slot's offset, and one `to_bytes`. Shifting here keeps the
        build free of state-wide integers."""
        n = int.from_bytes(s)
        out = []
        for slot, shift, install_l, declares, requests in plans:
            if not s[slot]:
                t = n + (1 << shift)
                for level_slot, level, level_shift, definer, definer_shift in declares:
                    if not s[level_slot]:
                        t += (level << level_shift) + (definer << definer_shift)
                out.append((install_l, t.to_bytes(width)))
                continue
            for level_slot, grant_slot, request_l, allow_l, deny_l, shift in requests:
                level = s[level_slot]
                if not level or s[grant_slot]:
                    continue
                if level == _NORMAL_CODE:
                    out.append((request_l, (n + (_AUTO_CODE << shift)).to_bytes(width)))
                else:
                    out.append((allow_l, (n + (_CONSENT_CODE << shift)).to_bytes(width)))
                    out.append((deny_l, (n + (_DENIED_CODE << shift)).to_bytes(width)))
        return out

    watched = tuple((definers[n], requested[n]) for n in names
                    if n in definers and n in requested)
    # The codes of every watched grant slot, read in one call: a tuple, or
    # b'' with no slots.
    watched_codes = itemgetter(*(g for _, grants in watched for g in grants), slice(0))

    def escalation_free(s: bytes) -> bool:
        """False when an AUTO grant exists for a name some installed app
        declares dangerous."""
        if _AUTO_CODE not in watched_codes(s):
            return True
        for installed, grants in watched:
            for g in grants:
                if s[g] == _AUTO_CODE:
                    for i in installed:
                        if s[i]:
                            return False
                    break
        return True

    return TransitionSystem(
        name=MODEL_NAME,
        variables=decls,
        initial_states=(initial,),
        successors=successors,
        invariants=(("escalation_free", escalation_free),),
    )
