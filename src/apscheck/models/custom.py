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

from dataclasses import dataclass
from typing import Sequence

from ..errors import ConfigurationError
from ..kernel import (ActionLabel, TransitionSystem, VariableDecl,
                      canonical_encode, variable_slices)

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
_AUTO_CODE = _GRANT_MODES.index(AUTO)
_AUTO, _CONSENT, _DENIED = (bytes([_GRANT_MODES.index(m)])
                            for m in (AUTO, CONSENT, DENIED))


@dataclass(frozen=True)
class PermissionDeclaration:
    name: str
    level: str

    def __post_init__(self):
        if not self.name:
            raise ConfigurationError("permission name must be non-empty")
        if self.level not in PROTECTION_LEVELS:
            raise ConfigurationError(
                f"protection level must be one of {PROTECTION_LEVELS}, "
                f"not {self.level!r}"
            )


@dataclass(frozen=True)
class AppSpec:
    """An app's closed-world interface: what it declares and may request.

    Declarations and requests are normalized to name-ascending tuples so
    structurally equal specs compare equal regardless of construction order.
    """

    id: str
    declares: tuple[PermissionDeclaration, ...] = ()
    requests: tuple[str, ...] = ()

    def __post_init__(self):
        decls = tuple(sorted(self.declares, key=lambda d: d.name))
        names = [d.name for d in decls]
        if len(set(names)) != len(names):
            dup = next(n for n in names if names.count(n) > 1)
            raise ConfigurationError(
                f"app {self.id!r} declares {dup!r} more than once"
            )
        object.__setattr__(self, "declares", decls)
        object.__setattr__(self, "requests", tuple(sorted(set(self.requests))))


def build_system(apps: Sequence[AppSpec]) -> TransitionSystem:
    """Package a closed-world scenario as a kernel TransitionSystem over
    byte-encoded states."""
    apps = sorted(apps, key=lambda a: a.id)
    if not apps:
        raise ConfigurationError("custom_permissions needs at least one app")
    if len({a.id for a in apps}) != len(apps):
        raise ConfigurationError("app ids must be unique")

    ids = tuple(a.id for a in apps)
    names = tuple(sorted({d.name for a in apps for d in a.declares}))
    pairs = tuple((a.id, n) for a in apps for n in a.requests)
    if any(":" in a.id for a in apps):
        # ":" separates app and name in the grants variable's keys.
        raise ConfigurationError("app ids must not contain ':'")
    decls = (
        VariableDecl("installed", ids, (0, 1)),
        VariableDecl("registryLevel", names, _REGISTRY_LEVELS),
        VariableDecl("registryDefiner", names, ("",) + ids),
        VariableDecl("grants", tuple(f"{a}:{n}" for a, n in pairs), _GRANT_MODES),
    )
    installed_at, level_at, definer_at, grant_at = (
        where.start for where in variable_slices(decls))
    initial = canonical_encode(decls, {
        "installed": dict.fromkeys(ids, 0),
        "registryLevel": dict.fromkeys(names, ""),
        "registryDefiner": dict.fromkeys(names, ""),
        "grants": dict.fromkeys(decls[3].keys, ""),
    }).encoding
    name_at = {n: j for j, n in enumerate(names)}
    grant_slots = {pair: grant_at + p for p, pair in enumerate(pairs)}

    # Per app: its installed slot, its Install label, the registry entries
    # it writes on install where a name is still unclaimed (level slot,
    # level code, definer slot, definer code), and its requests in name
    # order (level slot, grant slot, labels). A request for a name nobody
    # declares is never enabled, so it is left out.
    plans = []
    for k, app in enumerate(apps):
        declares = tuple(
            (level_at + name_at[d.name], _REGISTRY_LEVELS.index(d.level),
             definer_at + name_at[d.name], k + 1)
            for d in app.declares)
        requests = tuple(
            (level_at + name_at[n], grant_slots[(app.id, n)],
             ActionLabel("Request", (("a", app.id), ("n", n))),
             ActionLabel("UserAllow", (("a", app.id), ("n", n))),
             ActionLabel("UserDeny", (("a", app.id), ("n", n))))
            for n in app.requests if n in name_at)
        plans.append((installed_at + k, ActionLabel("Install", (("a", app.id),)),
                      declares, requests))

    def install(s: bytes, slot: int, declares) -> bytes:
        t = bytearray(s)
        t[slot] = 1
        for level_slot, level, definer_slot, definer in declares:
            if not t[level_slot]:
                t[level_slot] = level
                t[definer_slot] = definer
        return bytes(t)

    def successors(s: bytes) -> list[tuple[ActionLabel, bytes]]:
        """Per app ascending by id: Install if not installed, else the
        request branches for each requested name ascending that is
        registered and neither granted nor denied to the app. A
        normal-level name is granted automatically; a dangerous-level name
        forks on the user's allow/deny decision."""
        out = []
        for slot, install_label, declares, requests in plans:
            if not s[slot]:
                out.append((install_label, install(s, slot, declares)))
                continue
            for level_slot, grant_slot, request_l, allow_l, deny_l in requests:
                level = s[level_slot]
                if not level or s[grant_slot]:
                    continue
                head, tail = s[:grant_slot], s[grant_slot + 1:]
                if level == _NORMAL_CODE:
                    out.append((request_l, head + _AUTO + tail))
                else:
                    out.append((allow_l, head + _CONSENT + tail))
                    out.append((deny_l, head + _DENIED + tail))
        return out

    # Per name some app declares dangerous and some app requests: the
    # installed slots of its dangerous definers and the grant slots of its
    # requests.
    definers: dict[str, list[int]] = {}
    for k, app in enumerate(apps):
        for d in app.declares:
            if d.level == DANGEROUS:
                definers.setdefault(d.name, []).append(installed_at + k)
    requested: dict[str, list[int]] = {}
    for (_, n), slot in grant_slots.items():
        requested.setdefault(n, []).append(slot)
    watched = tuple((definers[n], requested[n]) for n in names
                    if n in definers and n in requested)

    def escalation_free(s: bytes) -> bool:
        """False when an AUTO grant exists for a name some installed app
        declares dangerous."""
        return not any(
            any(s[g] == _AUTO_CODE for g in grants) and any(s[i] for i in installed)
            for installed, grants in watched)

    return TransitionSystem(
        name=MODEL_NAME,
        variables=decls,
        initial_states=(initial,),
        successors=successors,
        invariants=(("escalation_free", escalation_free),),
    )
