"""Parser, renderer and validator tests, including location accuracy and
totality on arbitrary input."""

from __future__ import annotations

import random
import re
import string

import pytest
from hypothesis import given, settings
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
        assert d.params == {"apps": 1}
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
        assert d.params == {"apps": 3}

    def test_app_block_may_span_lines(self):
        d = parse_scenario(
            "model custom_permissions\n"
            "app m {\n  declare P level normal\n  request P\n}\n"
            "app v { declare P level dangerous }\n")
        assert [a.id for a in d.app_specs] == ["m", "v"]

    def test_tokens_are_whitespace_insensitive(self):
        d = parse_scenario("model   aps_cs1\tapps\t2\ncheck ApsTypeOK")
        assert d.params == {"apps": 2}

    def test_integers_accept_separators(self):
        d = parse_scenario("model aps_cs1\napps 1\nmax_states 1_000")
        assert d.max_states == 1000


class TestParseErrors:
    def test_unknown_model_reports_line_one(self):
        err = parse_error("model nosuch")
        assert (err.line, err.kind) == (1, "semantic")
        assert "nosuch" in err.message

    def test_unknown_directive_is_syntactic(self):
        err = parse_error("model aps_cs1\napps 1\nfrobnicate 3\n")
        assert (err.line, err.kind) == (3, "syntax")

    def test_unexpected_character(self):
        err = parse_error("model aps_cs1\napps 1\n$$$\n")
        assert (err.line, err.column, err.kind) == (3, 1, "syntax")

    def test_missing_model_directive(self):
        err = parse_error("apps 1\n")
        assert err.kind == "semantic"
        assert "model" in err.message

    def test_missing_apps_for_cs1(self):
        err = parse_error("model aps_cs1\ncheck ApsTypeOK\n")
        assert "apps" in err.message

    def test_zero_apps_rejected(self):
        err = parse_error("model aps_cs1\napps 0\n")
        assert err.line == 2

    def test_zero_max_states_rejected(self):
        err = parse_error("model aps_cs1\napps 1\nmax_states 0\n")
        assert err.line == 3

    def test_unknown_invariant_names_the_model(self):
        err = parse_error("model aps_cs1\napps 1\ncheck Nonexistent\n")
        assert err.line == 3
        assert "Nonexistent" in err.message

    def test_apps_directive_invalid_for_custom_model(self):
        err = parse_error("model custom_permissions\napps 2\n"
                          "app m { declare P level normal }\n")
        assert err.line == 2

    def test_app_block_invalid_for_cs1(self):
        err = parse_error("model aps_cs1\napps 1\napp m { }\n")
        assert err.line == 3

    def test_custom_model_requires_an_app(self):
        err = parse_error("model custom_permissions\ncheck escalation_free\n")
        assert "app" in err.message

    def test_duplicate_app_id(self):
        err = parse_error("model custom_permissions\n"
                          "app m { declare P level normal }\n"
                          "app m { declare Q level normal }\n")
        assert err.line == 3

    def test_duplicate_declaration_in_one_app(self):
        err = parse_error("model custom_permissions\n"
                          "app m {\n"
                          "  declare P level normal\n"
                          "  declare P level dangerous\n"
                          "}\n")
        assert err.line == 4

    def test_unknown_protection_level(self):
        err = parse_error("model custom_permissions\n"
                          "app m { declare P level medium }\n")
        assert (err.line, err.kind) == (2, "semantic")
        assert "medium" in err.message

    def test_unterminated_app_block(self):
        err = parse_error("model custom_permissions\napp m { declare P level normal\n")
        assert err.kind == "syntax"

    def test_duplicate_directives(self):
        assert parse_error("model aps_cs1\nmodel aps_cs1\napps 1\n").line == 2
        assert parse_error("model aps_cs1\napps 1\napps 2\n").line == 3
        assert parse_error("model aps_cs1\napps 1\nmax_states 5\n"
                           "max_states 6\n").line == 4

    def test_integer_where_identifier_expected(self):
        err = parse_error("model 42\n")
        assert (err.line, err.kind) == (1, "syntax")

    def test_truncated_directive_at_end_of_input(self):
        err = parse_error("model aps_cs1\napps")
        assert (err.line, err.column, err.kind) == (2, 5, "syntax")

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
    ], ids=["tab is blank", "CR is blank", "vertical tab is not blank",
            "identifiers are ASCII", "lexical error wins", "malformed integer read first",
            "unknown directive read first", "duplicate before malformed integer",
            "level keyword", "level keyword, not a brace", "end of input",
            "end of input after a keyword"])
    def test_lexical_rules_and_which_error_wins(self, source, report):
        assert str(parse_error(source)) == report

    @pytest.mark.parametrize("source,report", [
        ("apps 1\n", "1:1: semantic: missing 'model' directive"),
        ("model zzz\n", "1:7: semantic: unknown model 'zzz'"),
        ("model aps_cs1\napps 1\nmodel aps_cs1\n",
         "3:7: semantic: duplicate 'model' directive"),
        ("model aps_cs1\ncheck ApsTypeOK\n",
         "1:7: semantic: model aps_cs1 requires an 'apps' directive"),
        ("model aps_cs1\napps 0\n", "2:6: semantic: app count must be at least 1"),
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
    ], ids=["missing model", "unknown model", "duplicate directive", "cs1 without apps",
            "cs1 with apps 0", "cs1 with an app block", "custom with apps",
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


@st.composite
def definitions(draw) -> ScenarioDef:
    model = draw(st.sampled_from(("aps_cs1", "custom_permissions")))
    invariants = get_model(model).invariants
    if model == "aps_cs1":
        params, app_ids = st.fixed_dictionaries({"apps": st.integers(1, 3)}), st.just([])
    else:
        params, app_ids = st.just({}), st.lists(_WORDS, min_size=1, max_size=3, unique=True)
    apps = []
    for app_id in draw(mostly(app_ids, st.lists(_WORDS, max_size=3))):
        declares = draw(st.dictionaries(_WORDS.filter(bool), _LEVELS, max_size=2))
        apps.append(AppSpec(app_id, tuple(PermissionDeclaration(n, level)
                                          for n, level in declares.items()),
                            tuple(draw(st.lists(_WORDS, max_size=2)))))
    # Lists where the parser gives tuples: the definition keeps tuples.
    return ScenarioDef(
        model,
        draw(mostly(params, st.dictionaries(st.sampled_from(("apps", "x")),
                                            st.sampled_from((0, 1, True, 2.5))))),
        apps,
        draw(mostly(st.lists(st.sampled_from(invariants), min_size=1, max_size=2),
                    st.lists(st.sampled_from(
                        ("ApsTypeOK", "ApsConsistent", "escalation_free")),
                        max_size=2))),
        draw(mostly(st.sampled_from((1, 50, DEFAULT_MAX_STATES)),
                    st.sampled_from((0, 2.5, True, "5")))),
    )


@settings(derandomize=True, database=None, deadline=None, max_examples=400)
@given(definitions())
def test_a_definition_that_builds_parses_back_equal(definition):
    try:
        build_system(definition)
    except ConfigurationError:
        return
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
    """A ScenarioDef built without the parser meets the same rules when
    its system is built and checked."""

    @pytest.mark.parametrize("definition,problem", [
        (ScenarioDef(model_name="zzz"), "unknown model 'zzz'"),
        (ScenarioDef(model_name="aps_cs1", check_list=("ApsTypeOK",)),
         "^model aps_cs1 requires an 'apps' directive$"),
        (ScenarioDef(model_name="aps_cs1", params={"apps": 0},
                     check_list=("ApsTypeOK",)), "^app count must be at least 1$"),
        (ScenarioDef(model_name="custom_permissions",
                     check_list=("escalation_free",)), "at least one app"),
        (ScenarioDef(model_name="custom_permissions",
                     app_specs=(AppSpec("m"), AppSpec("m")),
                     check_list=("escalation_free",)), "^duplicate app id 'm'$"),
        (ScenarioDef(model_name="aps_cs1", params={"apps": 1}, check_list=("Nope",)),
         "no invariant named 'Nope'"),
        (ScenarioDef(model_name="aps_cs1", params={"apps": 1},
                     check_list=("ApsTypeOK",), max_states=0),
         "max_states must be at least 1"),
        (ScenarioDef("aps_cs1", {"apps": 1}, (AppSpec("m"),), ("ApsTypeOK",)),
         "^app blocks are not valid for model aps_cs1$"),
        (ScenarioDef("custom_permissions", {"apps": 3}, (AppSpec("m"),),
                     ("escalation_free",)),
         "^'apps' is not valid for model custom_permissions$"),
        *((ScenarioDef("aps_cs1", {"apps": apps}, (), ("ApsTypeOK",)),
           f"^aps_cs1 needs an integer app count, not {re.escape(repr(apps))}$")
          for apps in (True, 2.5, "3")),
        *((ScenarioDef("aps_cs1", {"apps": 1}, (), ("ApsTypeOK",), limit),
           f"^max_states must be an integer, not {re.escape(repr(limit))}$")
          for limit in (True, 2.5, "5")),
    ], ids=["unknown model", "cs1 without apps", "cs1 with apps 0",
            "custom without apps", "duplicate app ids", "unknown invariant",
            "max_states 0", "cs1 with app specs", "custom with apps",
            "apps True", "apps 2.5", "apps '3'",
            "max_states True", "max_states 2.5", "max_states '5'"])
    def test_rejected_when_built_or_checked(self, definition, problem):
        with pytest.raises(ConfigurationError, match=problem):
            check(build_system(definition),
                  CheckOptions(max_states=definition.max_states))

    # Each of these renders to text that does not parse, or that parses as
    # a different definition, so building it must fail.
    @pytest.mark.parametrize("definition,problem", [
        (ScenarioDef("aps_cs1", {"apps": 1}, (), ("ApsTypeOK",), 2.5),
         "^max_states must be an integer, not 2.5$"),
        (ScenarioDef("custom_permissions", {}, (AppSpec("my app"),),
                     ("escalation_free",)),
         "^" + re.escape("app 'my app': 'my app' is not an identifier (a letter "
                         "or '_', then letters, digits, '_' or '.')") + "$"),
        (ScenarioDef("custom_permissions", {},
                     (AppSpec("m", (PermissionDeclaration("1P", "normal"),)),),
                     ("escalation_free",)),
         "^app 'm': '1P' is not an identifier"),
        (ScenarioDef("custom_permissions", {},
                     (AppSpec("m", (PermissionDeclaration("P", "normal"),), ("P#x",)),),
                     ("escalation_free",)),
         "^app 'm': 'P#x' is not an identifier"),
        (ScenarioDef("aps_cs1", {"apps": 1, "x": 1}, (), ("ApsTypeOK",)),
         "^'x' is not valid for model aps_cs1$"),
        (ScenarioDef("aps_cs1", {"apps": 1}),
         "^check_list must name at least one invariant$"),
    ], ids=["max_states 2.5", "app id with a blank", "name with a leading digit",
            "name with a comment", "cs1 with an unknown parameter", "no invariants"])
    def test_rejected_when_built(self, definition, problem):
        with pytest.raises(ConfigurationError, match=problem):
            build_system(definition)

    @pytest.mark.parametrize("definition,field", [
        (ScenarioDef(model_name="zzz"), ()),
        (ScenarioDef(model_name="aps_cs1", check_list=("ApsTypeOK",)), ("params", "apps")),
        (ScenarioDef(model_name="aps_cs1", params={"apps": 0},
                     check_list=("ApsTypeOK",)), ("params", "apps")),
        (ScenarioDef(model_name="custom_permissions",
                     check_list=("escalation_free",)), ("app_specs",)),
        (ScenarioDef(model_name="custom_permissions",
                     app_specs=(AppSpec("m"), AppSpec("m")),
                     check_list=("escalation_free",)), ("app_specs", 1)),
        (ScenarioDef(model_name="aps_cs1", params={"apps": 1}, check_list=("Nope",)),
         ("check_list", 0)),
        (ScenarioDef(model_name="aps_cs1", params={"apps": 1},
                     check_list=("ApsTypeOK",), max_states=0), ("max_states",)),
        (ScenarioDef("aps_cs1", {"apps": 1}, (AppSpec("m"),), ("ApsTypeOK",)),
         ("app_specs", 0)),
        (ScenarioDef("custom_permissions", {"apps": 3}, (AppSpec("m"),),
                     ("escalation_free",)), ("params", "apps")),
        *((ScenarioDef("aps_cs1", {"apps": apps}, (), ("ApsTypeOK",)), ("params", "apps"))
          for apps in (True, 2.5, "3")),
        *((ScenarioDef("aps_cs1", {"apps": 1}, (), ("ApsTypeOK",), limit), ("max_states",))
          for limit in (True, 2.5, "5")),
        (ScenarioDef("custom_permissions", {}, (AppSpec("m"), AppSpec("my app")),
                     ("escalation_free",)), ("app_specs", 1)),
        (ScenarioDef("custom_permissions", {},
                     (AppSpec("m", (PermissionDeclaration("1P", "normal"),)),),
                     ("escalation_free",)), ("app_specs", 0)),
        (ScenarioDef("custom_permissions", {},
                     (AppSpec("m", (PermissionDeclaration("P", "normal"),), ("P#x",)),),
                     ("escalation_free",)), ("app_specs", 0)),
        (ScenarioDef("aps_cs1", {"apps": 1, "x": 1}, (), ("ApsTypeOK",)), ("params", "x")),
        (ScenarioDef("aps_cs1", {"apps": 1}), ()),
        (ScenarioDef("custom_permissions", {}, (AppSpec("m"),), ("escalation_free", "Nope")),
         ("check_list", 1)),
    ], ids=["unknown model", "cs1 without apps", "cs1 with apps 0",
            "custom without apps", "duplicate app ids", "unknown invariant",
            "max_states 0", "cs1 with app specs", "custom with apps",
            "apps True", "apps 2.5", "apps '3'",
            "max_states True", "max_states 2.5", "max_states '5'",
            "app id with a blank", "name with a leading digit", "name with a comment",
            "cs1 with an unknown parameter", "no invariants", "second invariant unknown"])
    def test_the_error_names_the_field_at_fault(self, definition, field):
        for build in (validate, build_system):
            with pytest.raises(ConfigurationError) as exc:
                build(definition)
            assert exc.value.field == field

    def test_a_state_limit_rejected_by_check_names_its_field(self):
        system = build_system(ScenarioDef("aps_cs1", {"apps": 1}, (), ("ApsTypeOK",)))
        with pytest.raises(ConfigurationError) as exc:
            check(system, CheckOptions(max_states=0))
        assert exc.value.field == ("max_states",)

    def test_a_huge_app_count_validates_without_building(self, monkeypatch):
        def refuse(app_count):
            raise AssertionError(f"built aps_cs1 with {app_count} apps")

        monkeypatch.setattr(cs1, "build_system", refuse)
        scenario = parse_scenario("model aps_cs1\napps 1_000_000_000_000")
        assert scenario.params == {"apps": 10**12}
        assert validate(scenario) == get_model("aps_cs1")
        # The patch reaches the registry, so neither call above built.
        with pytest.raises(AssertionError, match="built aps_cs1"):
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
