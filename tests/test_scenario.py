"""Parser, renderer and validator tests, including location accuracy and
totality on arbitrary input."""

from __future__ import annotations

import copy
import pickle
import random
import string

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from apscheck.errors import ConfigurationError
from apscheck.kernel import CheckOptions, check
from apscheck.models import (AppSpec, PermissionDeclaration, build_system, cs1,
                             get_model, validate)
from apscheck.scenario import (
    DEFAULT_MAX_STATES,
    ScenarioDef,
    ScenarioError,
    parse_scenario,
    render_scenario,
    validate_semantics,
)


def parse_error(source: str) -> ScenarioError:
    with pytest.raises(ScenarioError) as exc:
        parse_scenario(source)
    return exc.value


class TestParsing:
    def test_minimal_cs1_scenario(self):
        d = parse_scenario("model aps_cs1\napps 1\ncheck ApsTypeOK\n"
                           "check ApsConsistent")
        assert d.model_name == "aps_cs1"
        assert d.apps == 1
        assert d.check_list == ("ApsTypeOK", "ApsConsistent")
        assert d.max_states == DEFAULT_MAX_STATES
        assert d.app_specs == ()

    def test_canonical_custom_scenario_file(self, scenarios_dir):
        d = parse_scenario((scenarios_dir / "custom_vuln.scn").read_text())
        assert d.model_name == "custom_permissions"
        assert len(d.app_specs) == 2
        malware, victim = d.app_specs
        assert malware == AppSpec("malware",
                                  (PermissionDeclaration("P", "normal"),), ("P",))
        assert victim == AppSpec("victim",
                                 (PermissionDeclaration("P", "dangerous"),), ())
        assert {d_.name for a in d.app_specs for d_ in a.declares} == {"P"}
        assert d.check_list == ("escalation_free",)

    def test_checks_default_to_all_model_invariants(self):
        d = parse_scenario("model aps_cs1\napps 2")
        assert d.check_list == ("ApsTypeOK", "ApsConsistent")

    def test_max_states_directive(self):
        d = parse_scenario("model aps_cs1\napps 1\nmax_states 42")
        assert d.max_states == 42

    def test_comments_and_blank_lines_are_ignored(self):
        d = parse_scenario("# heading\n\nmodel aps_cs1  # trailing\n\napps 3\n")
        assert d.apps == 3

    def test_app_block_may_span_lines(self):
        d = parse_scenario(
            "model custom_permissions\n"
            "app m {\n  declare P level normal\n  request P\n}\n"
            "app v { declare P level dangerous }\n")
        assert [a.id for a in d.app_specs] == ["m", "v"]

    def test_tokens_are_whitespace_insensitive(self):
        d = parse_scenario("model   aps_cs1\tapps\t2\ncheck ApsTypeOK")
        assert d.apps == 2

    def test_integers_accept_separators(self):
        d = parse_scenario("model aps_cs1\napps 1\nmax_states 1_000")
        assert d.max_states == 1000


class TestParseErrors:
    @pytest.mark.parametrize("source,report", [
        ("model\t$", "1:7: syntax: unexpected character '$'"),
        ("model aps_cs1\r\n$", "2:1: syntax: unexpected character '$'"),
        ("model aps_cs1\napps 1\x0b", "2:7: syntax: unexpected character '\\x0b'"),
        ("model ap\u00e9", "1:9: syntax: unexpected character '\u00e9'"),
        ("frobnicate\n$", "2:1: syntax: unexpected character '$'"),
        ("apps 1__0\nfrobnicate", "1:6: syntax: malformed integer '1__0'"),
        ("frobnicate\napps 1__0", "1:1: syntax: unknown directive 'frobnicate'"),
        ("apps 1\napps 2_", "2:6: semantic: duplicate 'apps' directive"),
        ("model custom_permissions\napp m { declare P lvl normal }",
         "2:19: syntax: expected 'level', found 'lvl'"),
        ("model custom_permissions\napp m { declare P { normal }",
         "2:19: syntax: expected 'level', found '{'"),
        ("model aps_cs1 apps", "1:19: syntax: expected an app count, found end of input"),
        ("model custom_permissions\napp m { declare P level",
         "2:24: syntax: expected a protection level, found end of input"),
        ("", "1:1: semantic: missing 'model' directive"),
        ("# only a comment\n", "1:1: semantic: missing 'model' directive"),
        ("model aps_cs1\napps # count\n",
         "2:5: syntax: expected an app count, found end of input"),
        ("model custom_permissions\napp",
         "2:4: syntax: expected an app id, found end of input"),
        ("model custom_permissions\napp m {",
         "2:5: syntax: unterminated app block for 'm'"),
        ("model aps_cs1\napps 1\ncheck",
         "3:6: syntax: expected an invariant name, found end of input"),
        ("model custom_permissions\napp m { grant P }",
         "2:9: syntax: expected 'declare', 'request' or '}', found 'grant'"),
        ("model custom_permissions\napp m { 5 }",
         "2:9: syntax: expected 'declare', 'request' or '}', found '5'"),
        ("model 42\n", "1:7: syntax: expected a model name, found '42'"),
    ], ids=["tab is blank", "CR is blank", "vertical tab is not blank",
            "identifiers are ASCII", "lexical error wins", "malformed integer read first",
            "unknown directive read first", "duplicate before malformed integer",
            "level keyword", "level keyword, not a brace", "end of input",
            "end of input after a keyword", "empty source", "only a comment",
            "end of input before a comment", "end of input for an app id",
            "end of input in an app block", "end of input for an invariant name",
            "word in an app block", "number in an app block", "number for a model name"])
    def test_lexical_rules_and_which_error_wins(self, source, report):
        assert str(parse_error(source)) == report

    @pytest.mark.parametrize("source,report", [
        ("apps 1\n", "1:1: semantic: missing 'model' directive"),
        ("model zzz\n", "1:7: semantic: unknown model 'zzz'"),
        ("model aps_cs1\napps 1\nmodel aps_cs1\n",
         "3:7: semantic: duplicate 'model' directive"),
        ("model aps_cs1\napps 1\nmax_states 5\nmax_states 6\n",
         "4:12: semantic: duplicate 'max_states' directive"),
        ("model aps_cs1\ncheck ApsTypeOK\n",
         "1:7: semantic: model aps_cs1 requires an 'apps' directive"),
        ("model aps_cs1\napps 0\n", "2:6: semantic: app count must be at least 1"),
        ("model aps_cs1\napps 21_846\n", "2:6: semantic: app count must be at most 21845"),
        ("model aps_cs1\napps 1\napp m { }\n",
         "3:5: semantic: app blocks are not valid for model aps_cs1"),
        ("model custom_permissions\napps 2\napp m { declare P level normal }\n",
         "2:6: semantic: 'apps' is not valid for model custom_permissions"),
        ("model custom_permissions\ncheck escalation_free\n",
         "1:7: semantic: model custom_permissions requires at least one app block"),
        ("model custom_permissions\napp m { }\n  app m { }\n",
         "3:7: semantic: duplicate app id 'm'"),
        ("model custom_permissions\napp m {\n  declare P level normal\n"
         "  declare P level dangerous\n}\n",
         "4:11: semantic: app 'm' declares 'P' more than once"),
        ("model custom_permissions\napp m { declare P level medium }\n",
         "2:25: semantic: unknown protection level 'medium'"),
        ("model aps_cs1\napps 1\ncheck ApsTypeOK\n  check Nope\n",
         "4:9: semantic: model aps_cs1 has no invariant named 'Nope'"),
        ("model aps_cs1\napps 1\nmax_states 0\n",
         "3:12: semantic: max_states must be at least 1"),
        ("model aps_cs1\napps 0\napp m { }\n",
         "2:6: semantic: app count must be at least 1"),
        ("model custom_permissions\napps 2\n",
         "2:6: semantic: 'apps' is not valid for model custom_permissions"),
        ("app m { }\nmodel aps_cs1\n",
         "2:7: semantic: model aps_cs1 requires an 'apps' directive"),
        ("check Nope\nmax_states 0\napp m { }\nmodel aps_cs1 apps 3\n",
         "3:5: semantic: app blocks are not valid for model aps_cs1"),
        ("model custom_permissions\napp m { }\napp v { }\napp m { }\ncheck Nope\n",
         "4:5: semantic: duplicate app id 'm'"),
        ("model aps_cs1\nmax_states 0\napps 1\ncheck Nope\n",
         "4:7: semantic: model aps_cs1 has no invariant named 'Nope'"),
        ("apps 0\napp m { }\napp m { }\ncheck Nope\nmax_states 0\nmodel zzz\n",
         "6:7: semantic: unknown model 'zzz'"),
        ("apps 0\napp m { }\napp m { }\ncheck Nope\nmax_states 0\n",
         "1:1: semantic: missing 'model' directive"),
    ], ids=["missing model", "unknown model", "duplicate directive",
            "duplicate max_states directive", "cs1 without apps",
            "cs1 with apps 0", "cs1 over the slot budget", "cs1 with an app block", "custom with apps",
            "custom without an app block", "duplicate app id", "name declared twice",
            "unknown protection level", "unknown invariant", "max_states 0",
            "apps 0 before an app block", "apps before no app block",
            "missing apps before an app block", "app block before unknown invariant",
            "duplicate id before unknown invariant",
            "unknown invariant before max_states 0",
            "unknown model before everything else",
            "missing model before everything else"])
    def test_semantic_rules_and_which_defect_wins(self, source, report):
        assert str(parse_error(source)) == report

    @pytest.mark.parametrize("source,report", [
        ("model zzz\napp m { declare P level normal declare P level normal }\n",
         "2:40: semantic: app 'm' declares 'P' more than once"),
        ("app m { declare P level normal declare P level normal }\n",
         "1:40: semantic: app 'm' declares 'P' more than once"),
        ("model custom_permissions\napp m { }\n"
         "app m { declare P level normal declare P level normal }\n",
         "3:40: semantic: app 'm' declares 'P' more than once"),
        ("model custom_permissions\n"
         "app m { declare P level normal declare P level normal\n",
         "2:40: semantic: app 'm' declares 'P' more than once"),
        ("model custom_permissions\n"
         "app m { declare P level normal declare P level medium }\n",
         "2:48: semantic: unknown protection level 'medium'"),
    ], ids=["before unknown model", "before missing model", "before duplicate id",
            "before an unterminated block", "after an unknown level"])
    def test_a_name_declared_twice_is_reported_as_its_block_is_read(self, source,
                                                                     report):
        assert str(parse_error(source)) == report


class TestRoundTrip:
    def test_cs1_round_trip(self):
        d = parse_scenario("model aps_cs1\napps 2\ncheck ApsConsistent\n"
                           "max_states 777\n")
        assert parse_scenario(render_scenario(d)) == d

    def test_custom_round_trip(self, scenarios_dir):
        d = parse_scenario((scenarios_dir / "custom_vuln.scn").read_text())
        assert parse_scenario(render_scenario(d)) == d

    def test_rendering_sorts_declarations(self):
        d = ScenarioDef(
            model_name="custom_permissions",
            app_specs=(AppSpec("m", (PermissionDeclaration("Zeta", "normal"),
                                     PermissionDeclaration("Alpha", "dangerous")),
                               ("Zeta", "Alpha")),),
            check_list=("escalation_free",),
        )
        text = render_scenario(d)
        assert text.index("declare Alpha") < text.index("declare Zeta")
        assert parse_scenario(text) == d


def mostly(statable, odd):
    """A value scenario text can state, or one time in six one drawn from
    `odd`, which may not be."""
    return st.integers(0, 5).flatmap(lambda i: odd if i == 0 else statable)


# Identifiers (keywords included), or text the lexer would split, reject or
# read as a comment ("a b", "1P", "P#x", "", "é").
_WORDS = mostly(st.sampled_from(("m", "P", "_x", "a.b", "app", "level")),
                st.text(alphabet="aP1_.#: \né", max_size=3))
_LEVELS = st.sampled_from(("normal", "dangerous"))
# The smallest app count whose aps_cs1 state is wider than the slot budget.
OVER_BUDGET = cs1.MAX_SLOTS // 3 + 1


@st.composite
def definitions(draw) -> ScenarioDef:
    """A ScenarioDef from fields that are often invalid; a draw whose
    construction raises is rejected."""
    model = draw(st.sampled_from(("aps_cs1", "custom_permissions")))
    invariants = get_model(model).invariants
    if model == "aps_cs1":
        counts, app_ids = st.integers(1, 3), st.just([])
    else:
        counts, app_ids = st.none(), st.lists(_WORDS, min_size=1, max_size=3, unique=True)
    apps = []
    for app_id in draw(mostly(app_ids, st.lists(_WORDS, max_size=3))):
        declares = draw(st.dictionaries(_WORDS.filter(bool), _LEVELS, max_size=2))
        apps.append(AppSpec(app_id, tuple(PermissionDeclaration(n, level)
                                          for n, level in declares.items()),
                            tuple(draw(st.lists(_WORDS, max_size=2)))))
    # Lists where the parser gives tuples: the definition keeps tuples.
    args = (
        model,
        draw(mostly(counts, st.sampled_from((None, 1, 0, True, 2.5, OVER_BUDGET)))),
        apps,
        draw(mostly(st.lists(st.sampled_from(invariants), min_size=1, max_size=2),
                    st.lists(st.sampled_from(
                        ("ApsTypeOK", "ApsConsistent", "escalation_free")),
                        max_size=2))),
        draw(mostly(st.sampled_from((1, 50, DEFAULT_MAX_STATES)),
                    st.sampled_from((0, 2.5, True, "5")))),
    )
    try:
        return ScenarioDef(*args)
    except ConfigurationError:
        reject()


# About one draw in four constructs: 150 examples take some 550 draws.
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(definitions())
def test_every_definition_parses_back_equal(definition):
    assert parse_scenario(render_scenario(definition)) == definition


class TestValidateSemantics:
    def test_valid_definition_has_no_findings(self):
        d = parse_scenario("model aps_cs1\napps 1\n")
        assert validate_semantics(d) == []

    def test_request_of_undeclared_name_is_a_warning(self):
        d = ScenarioDef(
            model_name="custom_permissions",
            app_specs=(AppSpec("m", (PermissionDeclaration("P", "normal"),),
                               ("Ghost", "P")),),
            check_list=("escalation_free",),
        )
        assert validate_semantics(d) == [
            "app 'm' requests 'Ghost', which no app declares"]


class TestDirectDefinitions:
    """A ScenarioDef built without the parser meets the same rules when it
    is made. Rows hold constructor arguments: an invalid record cannot be
    built at collection."""

    @pytest.mark.parametrize("args,problem,field", [
        (("zzz",), "unknown model 'zzz'", ()),
        (("aps_cs1", None, (), ("ApsTypeOK",)),
         "model aps_cs1 requires an 'apps' directive", ("apps",)),
        (("aps_cs1", 0, (), ("ApsTypeOK",)), "app count must be at least 1", ("apps",)),
        (("aps_cs1", OVER_BUDGET, (), ("ApsTypeOK",)),
         "app count must be at most 21845", ("apps",)),
        (("custom_permissions", None, (), ("escalation_free",)),
         "model custom_permissions requires at least one app block", ("app_specs",)),
        (("custom_permissions", None, (AppSpec("m"), AppSpec("m")), ("escalation_free",)),
         "duplicate app id 'm'", ("app_specs", 1)),
        (("aps_cs1", 1, (), ("Nope",)),
         "model aps_cs1 has no invariant named 'Nope'", ("check_list", 0)),
        (("aps_cs1", 1, (), ("ApsTypeOK",), 0),
         "max_states must be at least 1", ("max_states",)),
        (("aps_cs1", 1, (AppSpec("m"),), ("ApsTypeOK",)),
         "app blocks are not valid for model aps_cs1", ("app_specs", 0)),
        (("custom_permissions", 3, (AppSpec("m"),), ("escalation_free",)),
         "'apps' is not valid for model custom_permissions", ("apps",)),
        *((("aps_cs1", apps, (), ("ApsTypeOK",)),
           f"aps_cs1 needs an integer app count, not {apps!r}", ("apps",))
          for apps in (True, 2.5, "3")),
        *((("aps_cs1", 1, (), ("ApsTypeOK",), limit),
           f"max_states must be an integer, not {limit!r}", ("max_states",))
          for limit in (True, 2.5, "5")),
        *((("custom_permissions", None, apps, ("escalation_free",)),
           f"app {apps[-1].id!r}: {name!r} is not an identifier (a letter or '_', "
           "then letters, digits, '_' or '.')", ("app_specs", len(apps) - 1))
          for apps, name in (
              ((AppSpec("m"), AppSpec("my app")), "my app"),
              ((AppSpec("m", (PermissionDeclaration("1P", "normal"),)),), "1P"),
              ((AppSpec("m", (PermissionDeclaration("P", "normal"),), ("P#x",)),),
               "P#x"))),
        (("aps_cs1", 1), "check_list must name at least one invariant", ()),
        (("custom_permissions", None, (AppSpec("m"),), ("escalation_free", "Nope")),
         "model custom_permissions has no invariant named 'Nope'", ("check_list", 1)),
        (("custom_permissions", None, tuple(AppSpec(f"z{i}") for i in range(256)),
          ("escalation_free",)),
         "model custom_permissions takes at most 255 apps", ("app_specs", 255)),
    ], ids=["unknown model", "cs1 without apps", "cs1 with apps 0",
            "cs1 over the slot budget",
            "custom without apps", "duplicate app ids", "unknown invariant",
            "max_states 0", "cs1 with app specs", "custom with apps",
            "apps True", "apps 2.5", "apps '3'",
            "max_states True", "max_states 2.5", "max_states '5'",
            "app id with a blank", "name with a leading digit", "name with a comment",
            "no invariants", "second invariant unknown", "custom over 255 apps"])
    def test_rejected_when_constructed(self, args, problem, field):
        with pytest.raises(ConfigurationError) as exc:
            ScenarioDef(*args)
        assert (str(exc.value), exc.value.field) == (problem, field)

    # The accepting side of each rule's boundary.
    @pytest.mark.parametrize("args", [
        ("aps_cs1", 1, (), ("ApsTypeOK",)),
        ("aps_cs1", OVER_BUDGET - 1, (), ("ApsTypeOK",)),
        ("aps_cs1", 3, (), ("ApsTypeOK", "ApsConsistent")),
        ("aps_cs1", 2, (), ("ApsConsistent", "ApsTypeOK")),
        ("aps_cs1", 1, (), ("ApsConsistent", "ApsConsistent")),
        ("aps_cs1", 1, [], ["ApsTypeOK"]),
        ("aps_cs1", 1, (), ("ApsTypeOK",), 1),
        ("aps_cs1", 1, (), ("ApsTypeOK",), 10**12),
        ("custom_permissions", None, (AppSpec("m"),), ("escalation_free",)),
        ("custom_permissions", None, tuple(AppSpec(f"z{i}") for i in range(255)),
         ("escalation_free",)),
        ("custom_permissions", None, (AppSpec("m"), AppSpec("M")), ("escalation_free",)),
        ("custom_permissions", None, (AppSpec("_m"),), ("escalation_free",)),
        ("custom_permissions", None, (AppSpec("com.example.app"),), ("escalation_free",)),
        ("custom_permissions", None,
         (AppSpec("app", (PermissionDeclaration("level", "normal"),), ("check",)),),
         ("escalation_free",)),
        ("custom_permissions", None,
         (AppSpec("m1", (PermissionDeclaration("P2", "dangerous"),), ("P2",)),),
         ("escalation_free",)),
        ("custom_permissions", None, (AppSpec("m.", (PermissionDeclaration("P_", "normal"),),
                                              ("P_",)),), ("escalation_free",)),
        ("custom_permissions", None, (AppSpec("m", (), ("Ghost",)),), ("escalation_free",)),
        ("custom_permissions", None,
         (AppSpec("m", (PermissionDeclaration("android.permission.CAMERA", "dangerous"),),
                  ("android.permission.CAMERA",)),), ("escalation_free",)),
        ("custom_permissions", None,
         (AppSpec("m", (PermissionDeclaration("P", "normal"),), ("P",)),
          AppSpec("v", (PermissionDeclaration("P", "dangerous"),))), ("escalation_free",)),
        ("custom_permissions", None, (AppSpec("P", (PermissionDeclaration("P", "normal"),),
                                              ("P",)),), ("escalation_free",)),
        ("custom_permissions", None, (AppSpec("m", (), ("P", "P")),), ("escalation_free",)),
        ("custom_permissions", None, [AppSpec("m")], ["escalation_free"]),
        ("custom_permissions", None, (AppSpec("m"),),
         ("escalation_free", "escalation_free")),
    ], ids=["cs1 with apps 1", "cs1 at the slot budget", "every invariant",
            "invariants out of model order", "an invariant named twice",
            "cs1 lists for tuples", "max_states 1", "max_states over the default",
            "one app without names", "custom at 255 apps", "app ids differing in case",
            "leading underscore", "dotted app id", "keywords as names",
            "digits after the first character", "trailing '.' and '_'",
            "request of an undeclared name", "dotted permission name",
            "two apps defining one name", "app id equal to a name",
            "a name requested twice", "custom lists for tuples",
            "custom invariant named twice"])
    def test_accepted_when_constructed(self, args):
        definition = ScenarioDef(*args)
        assert validate(definition) == get_model(args[0])
        assert parse_scenario(render_scenario(definition)) == definition
        assert build_system(definition).invariant_names == definition.check_list

    # Each operation on a valid definition, and the calls to the validator
    # it makes: only what makes a ScenarioDef validates.
    @pytest.mark.parametrize("operation,calls", [
        (lambda d: ScenarioDef(d.model_name, d.apps, d.app_specs, d.check_list,
                               d.max_states), 1),
        (lambda d: ScenarioDef(**{name: getattr(d, name)
                                  for name in ScenarioDef.__slots__}), 1),
        (lambda d: parse_scenario(render_scenario(d)), 1),
        (lambda d: pickle.loads(pickle.dumps(d)), 1),
        (copy.copy, 1),
        (copy.deepcopy, 1),
        (render_scenario, 0),
        (build_system, 0),
        (lambda d: check(build_system(d), CheckOptions(max_states=d.max_states)), 0),
        (validate_semantics, 0),
    ], ids=["constructor", "keyword constructor", "parse", "pickle", "copy",
            "deepcopy", "render", "build_system", "check", "validate_semantics"])
    def test_only_making_a_definition_validates_it(self, monkeypatch, operation, calls):
        definition = parse_scenario("model custom_permissions\n"
                                    "app m { declare P level normal request P }\n")
        seen = []

        def counted(scenario, validate=validate):
            seen.append(scenario)
            return validate(scenario)

        for module in ("apscheck.models", "apscheck.scenario"):
            monkeypatch.setattr(f"{module}.validate", counted)
        operation(definition)
        assert len(seen) == calls

    def test_a_state_limit_rejected_by_check_names_its_field(self):
        system = build_system(ScenarioDef("aps_cs1", 1, (), ("ApsTypeOK",)))
        with pytest.raises(ConfigurationError) as exc:
            check(system, CheckOptions(max_states=0))
        assert exc.value.field == ("max_states",)

    def test_a_huge_app_count_is_refused_without_building(self, monkeypatch):
        def refuse(app_count):
            raise AssertionError(f"built aps_cs1 with {app_count} apps")

        monkeypatch.setattr(cs1, "build_system", refuse)
        assert (str(parse_error("model aps_cs1\napps 1_000_000_000_000"))
                == "2:6: semantic: app count must be at most 21845")
        with pytest.raises(ConfigurationError, match="^app count must be at most"):
            ScenarioDef("aps_cs1", 10**12, (), ("ApsTypeOK",))
        # The largest count in the budget validates, and only then builds.
        scenario = parse_scenario("model aps_cs1\napps 21_845")
        assert scenario.apps == cs1.MAX_SLOTS // 3 == OVER_BUDGET - 1
        assert validate(scenario) == get_model("aps_cs1")
        # The patch reaches the registry, so none of the calls above built.
        with pytest.raises(AssertionError, match="built aps_cs1 with 21845 apps"):
            build_system(scenario)


class TestTotality:
    def test_arbitrary_text_parses_or_raises_scenario_error(self):
        rng = random.Random(20240817)
        alphabet = string.printable + "é世界\0"
        for _ in range(300):
            source = "".join(rng.choice(alphabet)
                             for _ in range(rng.randrange(0, 120)))
            try:
                result = parse_scenario(source)
            except ScenarioError as err:
                assert err.line >= 1 and err.column >= 1
            else:
                assert isinstance(result, ScenarioDef)

    def test_mutilated_valid_scenarios_stay_total(self):
        rng = random.Random(99)
        base = ("model custom_permissions\n"
                "app m { declare P level normal\n        request P }\n"
                "app v { declare P level dangerous }\ncheck escalation_free\n")
        for _ in range(200):
            chars = list(base)
            for _ in range(rng.randrange(1, 6)):
                pos = rng.randrange(len(chars))
                chars[pos] = rng.choice("{}#ap9 _\n\tq")
            source = "".join(chars)
            try:
                parse_scenario(source)
            except ScenarioError:
                pass
