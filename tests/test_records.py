"""The package's value records: immutable, compared and hashed by value,
picklable, and built without generated dataclass code."""

from __future__ import annotations

import copy
import inspect
import pickle

import pytest

from apscheck.errors import ConfigurationError
from apscheck.kernel import (ActionLabel, CheckOptions, CheckReport, Trace, TraceStep,
                             VariableDecl, Verdict)
from apscheck.models import AppSpec, ModelInfo, PermissionDeclaration, build_system
from apscheck.reporting import ReplayResult
from apscheck.scenario import SYNTAX, ScenarioDef, ScenarioError, _Token


def _trace(invariant="inv"):
    return Trace((TraceStep(b"\x00", None),), invariant,
                 (VariableDecl("x", ("k",), (0,)),))


# Per record: a factory of equal instances, one instance that differs in a
# field, and whether instances hash (all do).
RECORDS = {
    "VariableDecl": (lambda: VariableDecl("x", ("a", "b"), (0, 1)),
                     VariableDecl("x", ("a", "b"), (0, 2)), True),
    "PermissionDeclaration": (lambda: PermissionDeclaration("P", "normal"),
                              PermissionDeclaration("P", "dangerous"), True),
    "AppSpec": (lambda: AppSpec("m", (PermissionDeclaration("P", "normal"),), ("P",)),
                AppSpec("m", (PermissionDeclaration("P", "normal"),)), True),
    "ScenarioDef": (lambda: ScenarioDef("aps_cs1", 2, (), ("ApsTypeOK",)),
                    ScenarioDef("aps_cs1", 3, (), ("ApsTypeOK",)), True),
    "Trace": (_trace, _trace("other"), True),
    "ActionLabel": (lambda: ActionLabel("Grant", (("r", "a1"),)),
                    ActionLabel("Grant", (("r", "a2"),)), True),
    "CheckOptions": (lambda: CheckOptions(7), CheckOptions(8), True),
    "CheckReport": (lambda: CheckReport(Verdict.VIOLATION, 1, 0, 0, 0.5, _trace()),
                    CheckReport(Verdict.VIOLATION, 1, 0, 0, 0.5, _trace("other")),
                    True),
    "ReplayResult": (lambda: ReplayResult(False, 2, "differs"),
                     ReplayResult(False, 3, "differs"), True),
    "ModelInfo": (lambda: ModelInfo("m", ("apps",), ("I",), build_system),
                  ModelInfo("m", (), ("I",), build_system), True),
    "_Token": (lambda: _Token("ident", "model", 1, 1),
               _Token("ident", "model", 1, 2), True),
}


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_immutable_values(name):
    make, different, hashable = RECORDS[name]
    first, second = make(), make()
    assert first is not second
    assert first == second and not first != second
    assert first != different
    if hashable:
        assert hash(first) == hash(second)
    field = next(iter(inspect.signature(type(first)).parameters))
    with pytest.raises(AttributeError):
        setattr(first, field, None)
    with pytest.raises(AttributeError):
        delattr(first, field)
    assert first == second
    assert pickle.loads(pickle.dumps(first)) == first
    # Every record is a named tuple: equal to the plain tuple of its fields.
    assert first == tuple(first) and tuple(first._asdict()) == first._fields
    assert first._replace() == first


@pytest.mark.parametrize("duplicate", [lambda error: pickle.loads(pickle.dumps(error)),
                                       copy.copy, copy.deepcopy],
                         ids=["pickle", "copy", "deepcopy"])
def test_errors_keep_their_fields_through_pickle_and_copy(duplicate):
    for error in (ScenarioError("m", 1, 2), ScenarioError("bad token", 3, 4, SYNTAX),
                  ConfigurationError("too small", ("max_states",))):
        clone = duplicate(error)
        assert type(clone) is type(error)
        assert str(clone) == str(error)
        assert vars(clone) == vars(error)


def test_repr_names_every_field():
    assert (repr(PermissionDeclaration("P", "normal"))
            == "PermissionDeclaration(name='P', level='normal')")
    assert repr(ActionLabel("Ask")) == "ActionLabel(name='Ask', params=())"


def test_a_scenario_without_an_app_count_holds_none():
    scenario = ScenarioDef("custom_permissions", None, (AppSpec("m"),),
                           ("escalation_free",))
    assert scenario.apps is None
    assert repr(scenario) == (
        "ScenarioDef(model_name='custom_permissions', apps=None, "
        "app_specs=(AppSpec(id='m', declares=(), requests=()),), "
        "check_list=('escalation_free',), max_states=1000000)")


@pytest.mark.parametrize("build,message", [
    (lambda: VariableDecl("x", ("a", "b", "a"), (0, 1)),
     "variable 'x' repeats key 'a'"),
    (lambda: VariableDecl("x", ("a", "b", "b"), (0,)),
     "variable 'x' repeats key 'b'"),
    (lambda: VariableDecl("x", ("a",), ("", "v", "")),
     "variable 'x' repeats domain value ''"),
    (lambda: VariableDecl("x", ("k",), tuple(range(257))),
     "variable 'x' has 257 domain values; the one-byte-per-slot state "
     "encoding holds at most 256"),
    (lambda: PermissionDeclaration("", "normal"), "permission name must be non-empty"),
    (lambda: PermissionDeclaration("P", "medium"), "unknown protection level 'medium'"),
    (lambda: AppSpec("x", (PermissionDeclaration("P", "normal"),
                           PermissionDeclaration("P", "dangerous"))),
     "app 'x' declares 'P' more than once"),
    (lambda: AppSpec("m", (PermissionDeclaration("A", "normal"),
                           PermissionDeclaration("B", "normal"),
                           PermissionDeclaration("B", "dangerous"))),
     "app 'm' declares 'B' more than once"),
    # Sorting its characters would request 'A', 'C', 'E', 'M' and 'R'.
    (lambda: AppSpec("m", (), "CAMERA"),
     "app 'm': requests must be a tuple of names, not the string 'CAMERA'"),
    # `_replace` builds through the constructor, and so does `copy.replace`,
    # which calls it.
    (lambda: VariableDecl("x", ("a", "b"), (0,))._replace(keys=("a", "a")),
     "variable 'x' repeats key 'a'"),
    (lambda: PermissionDeclaration("P", "normal")._replace(level="medium"),
     "unknown protection level 'medium'"),
    (lambda: AppSpec("m")._replace(requests="CAMERA"),
     "app 'm': requests must be a tuple of names, not the string 'CAMERA'"),
    (lambda: ScenarioDef("aps_cs1", 2, (), ("ApsTypeOK",))._replace(max_states=0),
     "max_states must be at least 1"),
    pytest.param(lambda: copy.replace(ScenarioDef("aps_cs1", 2, (), ("ApsTypeOK",)),
                                      max_states=0),
                 "max_states must be at least 1",
                 marks=pytest.mark.skipif(not hasattr(copy, "replace"),
                                          reason="copy.replace is new in Python 3.13")),
], ids=["repeated key", "repeated key not first", "repeated value", "257 values",
        "empty permission name", "unknown level", "duplicate declaration",
        "duplicate declaration not first", "requests as a string",
        "_replace VariableDecl", "_replace PermissionDeclaration", "_replace AppSpec",
        "_replace ScenarioDef", "copy.replace ScenarioDef"])
def test_construction_rules_keep_their_messages(build, message):
    with pytest.raises(ConfigurationError) as exc:
        build()
    assert str(exc.value) == message


def test_app_spec_order_is_normalized():
    a, b = PermissionDeclaration("A", "dangerous"), PermissionDeclaration("B", "normal")
    app = AppSpec("x", (b, a), ("q", "p", "q"))
    assert app.declares == (a, b) and app.requests == ("p", "q")
    assert app == AppSpec("x", (a, b), ("p", "q"))
    assert hash(app) == hash(AppSpec("x", (a, b), ("p", "q")))


def test_only_the_transition_system_is_a_dataclass(run_python):
    """Frozen dataclasses generate and compile code when their class is
    created; the CLI's import builds only the one the benchmark tracer
    rebuilds with `dataclasses.replace`. Neither the import nor a check and
    a replay load `typing` or `pathlib`. The child runs without `site`,
    whose `.pth` files may import either."""
    script = (
        "import contextlib, io, sys, apscheck.cli as cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    codes = [cli.main(['check', 'scenarios/custom_vuln.scn', *replay]) for replay\n"
        "             in ([], ['--replay', 'tests/golden/custom_vuln.json.out'])]\n"
        "print(codes, [m for m in ('typing', 'pathlib') if m in sys.modules])\n"
        "print(sorted(f'{m}.{n}' for m, mod in list(sys.modules.items())\n"
        "             if m.split('.')[0] == 'apscheck'\n"
        "             for n, v in vars(mod).items() if isinstance(v, type)\n"
        "             and v.__module__ == m and '__dataclass_fields__' in vars(v)))\n"
    )
    proc = run_python("-S", "-c", script, capture_output=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[1, 0] []\n['apscheck.kernel.TransitionSystem']\n"
