"""Line-oriented scenario files: model choice, apps, invariants, limits.

The format is a handful of keyword directives, whitespace-insensitive
between tokens, with `#` line comments:

    model custom_permissions
    app malware { declare P level normal
                  request P }
    app victim  { declare P level dangerous }
    check escalation_free
    max_states 100000

`apps N` sizes the aps_cs1 model instead of app blocks. Omitting `check`
selects every invariant the chosen model exposes; omitting `max_states`
defaults to 1,000,000 states.
"""

from __future__ import annotations

import re
from collections import namedtuple
from collections.abc import Iterator

from .errors import CheckerError, ConfigurationError
from .kernel import DEFAULT_MAX_STATES
from .models import IDENTIFIER, AppSpec, PermissionDeclaration, get_model, validate

SYNTAX = "syntax"
SEMANTIC = "semantic"

# One alternative per token kind, plus line breaks, comments and any other
# non-blank character. Letters and digits are ASCII only. Blanks (space,
# tab, CR) match nothing, so `finditer` skips them.
_LEXEME = re.compile(
    rf"(?P<newline>\n)|(?P<ident>{IDENTIFIER.pattern})|(?P<int>[0-9][0-9_]*)"
    r"|(?P<lbrace>\{)|(?P<rbrace>\})|(?P<comment>#[^\n]*)|(?P<bad>[^ \t\r])")

# Directives that take one value and may appear at most once:
# name -> (value token kind, what the value is).
_SINGLE_VALUED = {
    "model": ("ident", "a model name"),
    "apps": ("int", "an app count"),
    "max_states": ("int", "a state limit"),
}


class ScenarioError(CheckerError):
    """A defect in scenario text, located at 1-based line and column.

    `kind` is "syntax" or "semantic".
    """

    def __init__(self, message: str, line: int, column: int, kind: str = SEMANTIC):
        # Every argument in `args`, so that pickle and copy rebuild the error.
        super().__init__(message, line, column, kind)
        self.message = message
        self.line = line
        self.column = column
        self.kind = kind

    def __str__(self):
        return f"{self.line}:{self.column}: {self.kind}: {self.message}"


class ScenarioDef(namedtuple("ScenarioDef", (
        "model_name", "apps", "app_specs", "check_list", "max_states"))):
    """A scenario: which model to build and what to check on it. `apps` is
    the app count of `aps_cs1`, or `None` where the text has no `apps` line;
    `app_specs` and `check_list` are kept as tuples. The constructor, and so
    `_replace`, ends with :func:`apscheck.models.validate`, and raises its error."""

    __slots__ = ()

    def __new__(cls, model_name: str, apps: int | None = None,
                app_specs: tuple[AppSpec, ...] = (), check_list: tuple[str, ...] = (),
                max_states: int = DEFAULT_MAX_STATES):
        self = super().__new__(cls, model_name, apps, tuple(app_specs),
                               tuple(check_list), max_states)
        validate(self)
        return self

    _make = classmethod(lambda cls, fields: cls(*fields))


# `kind` is ident, int, lbrace, rbrace or end.
_Token = namedtuple("_Token", ("kind", "text", "line", "column"))


def _tokenize(source: str) -> list[_Token]:
    tokens, line, line_start = [], 1, 0
    for match in _LEXEME.finditer(source):
        kind = match.lastgroup
        column = match.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, match.end()
        elif kind == "bad":
            raise ScenarioError(f"unexpected character {match.group()!r}",
                                line, column, SYNTAX)
        elif kind != "comment":
            tokens.append(_Token(kind, match.group(), line, column))
    # End of input is one column past the last token.
    last = tokens[-1] if tokens else _Token("", "", 1, 1)
    end = _Token("end", "end of input", last.line, last.column + len(last.text))
    return tokens + [end]


def _expect(tokens: Iterator[_Token], kind: str, what: str,
            text: str | None = None) -> _Token:
    tok = next(tokens)
    if tok.kind != kind or (text is not None and tok.text != text):
        found = tok.text if tok.kind == "end" else repr(tok.text)
        raise ScenarioError(f"expected {what}, found {found}",
                            tok.line, tok.column, SYNTAX)
    return tok


def parse_scenario(source: str) -> ScenarioDef:
    """Parse scenario text, raising :class:`ScenarioError` at the first
    syntactic or semantic defect; the `ScenarioDef` constructor's error is
    located at the token its `field` was read from, else at the model name.
    Total: any string yields a ScenarioDef or raises ScenarioError, nothing else."""
    # Tokenizing the whole source first makes a lexical error anywhere win
    # over every other defect.
    tokens = iter(_tokenize(source))

    # Field path -> the token it was read from; directives name their fields.
    where: dict[tuple, _Token] = {}
    value: dict[str, object] = {}
    app_specs: list[AppSpec] = []
    check_list: list[str] = []

    while (tok := next(tokens)).kind != "end":
        if tok.kind != "ident":
            raise ScenarioError(f"expected a directive, found {tok.text!r}",
                                tok.line, tok.column, SYNTAX)
        if tok.text in _SINGLE_VALUED:
            kind, what = _SINGLE_VALUED[tok.text]
            where[(tok.text,)] = value_tok = _expect(tokens, kind, what)
            if tok.text in value:
                raise ScenarioError(f"duplicate {tok.text!r} directive",
                                    value_tok.line, value_tok.column)
            try:
                value[tok.text] = (int(value_tok.text) if kind == "int"
                                   else value_tok.text)
            except ValueError:
                raise ScenarioError(f"malformed integer {value_tok.text!r}",
                                    value_tok.line, value_tok.column, SYNTAX) from None
        elif tok.text == "check":
            where[("check_list", len(check_list))] = tok = _expect(
                tokens, "ident", "an invariant name")
            check_list.append(tok.text)
        elif tok.text == "app":
            where[("app_specs", len(app_specs))] = tok = _expect(
                tokens, "ident", "an app id")
            app_specs.append(_parse_app_block(tokens, tok))
        else:
            raise ScenarioError(f"unknown directive {tok.text!r}",
                                tok.line, tok.column, SYNTAX)
    if "model" not in value:
        raise ScenarioError("missing 'model' directive", 1, 1)

    try:
        scenario = ScenarioDef(
            value["model"], value.get("apps"), app_specs,
            check_list or get_model(value["model"]).invariants,
            value.get("max_states", DEFAULT_MAX_STATES))
    except ConfigurationError as exc:
        tok = where.get(exc.field) or where[("model",)]
        raise ScenarioError(str(exc), tok.line, tok.column) from None
    return scenario


def _parse_app_block(tokens: Iterator[_Token], id_tok: _Token) -> AppSpec:
    _expect(tokens, "lbrace", "'{'")
    declares: dict[str, PermissionDeclaration] = {}
    requests: list[str] = []
    while (tok := next(tokens)).kind != "rbrace":
        if tok.kind == "end":
            raise ScenarioError(f"unterminated app block for {id_tok.text!r}",
                                id_tok.line, id_tok.column, SYNTAX)
        if tok.text not in ("declare", "request"):
            raise ScenarioError(
                f"expected 'declare', 'request' or '}}', found {tok.text!r}",
                tok.line, tok.column, SYNTAX)
        if tok.text == "declare":
            name_tok = _expect(tokens, "ident", "a permission name")
            _expect(tokens, "ident", "'level'", "level")
            level_tok = _expect(tokens, "ident", "a protection level")
            try:
                declaration = PermissionDeclaration(name_tok.text, level_tok.text)
            except ConfigurationError as exc:
                raise ScenarioError(str(exc), level_tok.line, level_tok.column) from None
            if name_tok.text in declares:
                raise ScenarioError(
                    f"app {id_tok.text!r} declares {name_tok.text!r} more than once",
                    name_tok.line, name_tok.column)
            declares[name_tok.text] = declaration
        else:
            requests.append(_expect(tokens, "ident", "a permission name").text)
    return AppSpec(id_tok.text, tuple(declares.values()), tuple(requests))


def render_scenario(scenario: ScenarioDef) -> str:
    """Emit canonical text whose parse is structurally equal to `scenario`.

    Declarations and requests render name-ascending (AppSpec already keeps
    them sorted), so rendering is a normal form."""
    lines = [f"model {scenario.model_name}"]
    if scenario.apps is not None:
        lines.append(f"apps {scenario.apps}")
    for app in scenario.app_specs:
        lines.append(f"app {app.id} {{")
        for decl in app.declares:
            lines.append(f"  declare {decl.name} level {decl.level}")
        for name in app.requests:
            lines.append(f"  request {name}")
        lines.append("}")
    lines.append(f"max_states {scenario.max_states}")
    for name in scenario.check_list:
        lines.append(f"check {name}")
    return "\n".join(lines) + "\n"


def validate_semantics(scenario: ScenarioDef) -> list[str]:
    """Advisories on a scenario that is otherwise valid: each name an app
    requests but no app declares, which can never be granted.

    Defects are not reported here: :func:`apscheck.models.validate` rejects
    them, and :func:`parse_scenario` locates its finding in scenario text."""
    declared = {d.name for a in scenario.app_specs for d in a.declares}
    return [f"app {app.id!r} requests {name!r}, which no app declares"
            for app in scenario.app_specs for name in app.requests
            if name not in declared]
