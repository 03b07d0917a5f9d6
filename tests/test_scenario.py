"""Parser, renderer and validator tests, including location accuracy and
totality on arbitrary input."""

from __future__ import annotations

import random
import re
import string

import pytest

from apscheck.errors import ConfigurationError
from apscheck.kernel import CheckOptions, check
from apscheck.models import AppSpec, PermissionDeclaration, build_system
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
         "requires the 'apps' parameter"),
        (ScenarioDef(model_name="aps_cs1", params={"apps": 0},
                     check_list=("ApsTypeOK",)), "at least one app"),
        (ScenarioDef(model_name="custom_permissions",
                     check_list=("escalation_free",)), "at least one app"),
        (ScenarioDef(model_name="custom_permissions",
                     app_specs=(AppSpec("m"), AppSpec("m")),
                     check_list=("escalation_free",)), "app ids must be unique"),
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
