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
from types import MappingProxyType
from typing import Iterator, Mapping, NamedTuple, Optional

from .errors import CheckerError, ConfigurationError
from .kernel import DEFAULT_MAX_STATES, Record
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
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column
        self.kind = kind

    def __str__(self):
        return f"{self.line}:{self.column}: {self.kind}: {self.message}"


class ScenarioDef(Record):
    """A parsed scenario: which model to build and what to check on it.

    `params` is a read-only view of a copy of the mapping passed in;
    `app_specs` and `check_list` are kept as tuples."""

    __slots__ = ("model_name", "params", "app_specs", "check_list", "max_states")

    def __init__(self, model_name: str, params: Optional[Mapping[str, int]] = None,
                 app_specs: tuple[AppSpec, ...] = (), check_list: tuple[str, ...] = (),
                 max_states: int = DEFAULT_MAX_STATES):
        super().__init__(model_name, MappingProxyType(dict(params or {})),
                         tuple(app_specs), tuple(check_list), max_states)

    def _values(self) -> tuple:
        # A mapping proxy neither hashes nor pickles; its sorted items do both,
        # and the constructor accepts them in its place.
        return (self.model_name, tuple(sorted(self.params.items())), self.app_specs,
                self.check_list, self.max_states)


class _Token(NamedTuple):
    kind: str  # ident | int | lbrace | rbrace
    text: str
    line: int
    column: int


def _tokenize(source: str) -> Iterator[_Token]:
    line, line_start = 1, 0
    for match in _LEXEME.finditer(source):
        kind = match.lastgroup
        column = match.start() - line_start + 1
        if kind == "newline":
            line, line_start = line + 1, match.end()
        elif kind == "bad":
            raise ScenarioError(f"unexpected character {match.group()!r}",
                                line, column, SYNTAX)
        elif kind != "comment":
            yield _Token(kind, match.group(), line, column)


class _TokenStream:
    """One pass over a source's tokens; iterating and `expect` share it."""

    def __init__(self, tokens: list[_Token]):
        # End of input is reported one column past the last token.
        last = tokens[-1] if tokens else _Token("", "", 1, 1)
        self._end = (last.line, last.column + len(last.text))
        self._tokens = iter(tokens)

    def __iter__(self) -> Iterator[_Token]:
        return self._tokens

    def expect(self, kind: str, what: str, text: Optional[str] = None) -> _Token:
        tok = next(self._tokens, None)
        if tok is None:
            raise ScenarioError(f"expected {what}, found end of input",
                                *self._end, SYNTAX)
        if tok.kind != kind or (text is not None and tok.text != text):
            raise ScenarioError(f"expected {what}, found {tok.text!r}",
                                tok.line, tok.column, SYNTAX)
        return tok


def _int_value(tok: _Token) -> int:
    try:
        return int(tok.text)
    except ValueError:
        raise ScenarioError(f"malformed integer {tok.text!r}",
                            tok.line, tok.column, SYNTAX) from None


def parse_scenario(source: str) -> ScenarioDef:
    """Parse scenario text, raising :class:`ScenarioError` at the first
    syntactic or semantic defect. Total: any input string either yields a
    ScenarioDef or raises ScenarioError, never anything else."""
    # Tokenizing the whole source first makes a lexical error anywhere win
    # over every other defect.
    stream = _TokenStream(list(_tokenize(source)))

    # Each single-valued directive seen: its value token and converted value.
    single: dict[str, tuple[_Token, object]] = {}
    checks: list[_Token] = []
    blocks: list[tuple[_Token, AppSpec]] = []

    for tok in stream:
        if tok.kind != "ident":
            raise ScenarioError(f"expected a directive, found {tok.text!r}",
                                tok.line, tok.column, SYNTAX)
        if tok.text in _SINGLE_VALUED:
            kind, what = _SINGLE_VALUED[tok.text]
            value_tok = stream.expect(kind, what)
            if tok.text in single:
                raise ScenarioError(f"duplicate {tok.text!r} directive",
                                    value_tok.line, value_tok.column)
            single[tok.text] = (value_tok, _int_value(value_tok) if kind == "int"
                                else value_tok.text)
        elif tok.text == "check":
            checks.append(stream.expect("ident", "an invariant name"))
        elif tok.text == "app":
            blocks.append(_parse_app_block(stream))
        else:
            raise ScenarioError(f"unknown directive {tok.text!r}",
                                tok.line, tok.column, SYNTAX)
    if "model" not in single:
        raise ScenarioError("missing 'model' directive", 1, 1)
    model_tok, model_name = single["model"]
    apps_tok, apps_value = single.get("apps", (None, None))
    max_tok, max_value = single.get("max_states", (None, DEFAULT_MAX_STATES))

    # `models.validate` decides whether the definition is valid; a defect is
    # located at the token its field was read from, else at the model name.
    try:
        scenario = ScenarioDef(
            model_name=model_name,
            params={} if apps_tok is None else {"apps": apps_value},
            app_specs=tuple(spec for _, spec in blocks),
            check_list=tuple(t.text for t in checks) or get_model(model_name).invariants,
            max_states=max_value,
        )
        validate(scenario)
    except ConfigurationError as exc:
        tokens = {("params", "apps"): apps_tok, ("max_states",): max_tok}
        tokens.update((("app_specs", i), id_tok) for i, (id_tok, _) in enumerate(blocks))
        tokens.update((("check_list", i), tok) for i, tok in enumerate(checks))
        tok = tokens.get(exc.field) or model_tok
        raise ScenarioError(str(exc), tok.line, tok.column) from None
    return scenario


def _parse_app_block(stream: _TokenStream) -> tuple[_Token, AppSpec]:
    id_tok = stream.expect("ident", "an app id")
    stream.expect("lbrace", "'{'")
    declares: dict[str, PermissionDeclaration] = {}
    requests: list[str] = []
    for tok in stream:
        if tok.kind == "rbrace":
            return id_tok, AppSpec(id_tok.text, tuple(declares.values()), tuple(requests))
        if tok.kind != "ident" or tok.text not in ("declare", "request"):
            raise ScenarioError(
                f"expected 'declare', 'request' or '}}', found {tok.text!r}",
                tok.line, tok.column, SYNTAX)
        if tok.text == "declare":
            name_tok = stream.expect("ident", "a permission name")
            stream.expect("ident", "'level'", "level")
            level_tok = stream.expect("ident", "a protection level")
            if level_tok.text not in ("normal", "dangerous"):
                raise ScenarioError(
                    f"unknown protection level {level_tok.text!r}",
                    level_tok.line, level_tok.column)
            if name_tok.text in declares:
                raise ScenarioError(
                    f"app {id_tok.text!r} declares {name_tok.text!r} more than once",
                    name_tok.line, name_tok.column)
            declares[name_tok.text] = PermissionDeclaration(name_tok.text, level_tok.text)
        else:
            requests.append(stream.expect("ident", "a permission name").text)
    raise ScenarioError(f"unterminated app block for {id_tok.text!r}",
                        id_tok.line, id_tok.column, SYNTAX)


def render_scenario(scenario: ScenarioDef) -> str:
    """Emit canonical text whose parse is structurally equal to `scenario`.

    Declarations and requests render name-ascending (AppSpec already keeps
    them sorted), so rendering is a normal form."""
    lines = [f"model {scenario.model_name}"]
    if "apps" in scenario.params:
        lines.append(f"apps {scenario.params['apps']}")
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
