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

from typing import Iterator, NamedTuple, Optional

from .errors import CheckerError
from .kernel import Record
from .models import AppSpec, PermissionDeclaration, get_model, model_names

SYNTAX = "syntax"
SEMANTIC = "semantic"

DEFAULT_MAX_STATES = 1_000_000

_IDENT_START = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_IDENT_CONT = _IDENT_START | set("0123456789.")
_DIGITS = set("0123456789")


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
    """A parsed scenario: which model to build and what to check on it."""

    __slots__ = ("model_name", "params", "app_specs", "check_list", "max_states")

    def __init__(self, model_name: str, params: Optional[dict[str, int]] = None,
                 app_specs: tuple[AppSpec, ...] = (), check_list: tuple[str, ...] = (),
                 max_states: int = DEFAULT_MAX_STATES):
        super().__init__(model_name, {} if params is None else params,
                         app_specs, check_list, max_states)


class _Token(NamedTuple):
    kind: str  # ident | int | lbrace | rbrace
    text: str
    line: int
    column: int


def _tokenize(source: str) -> Iterator[_Token]:
    line, col = 1, 1
    i, n = 0, len(source)
    while i < n:
        ch = source[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
        elif ch in " \t\r":
            col += 1
            i += 1
        elif ch == "#":
            while i < n and source[i] != "\n":
                i += 1
        elif ch == "{":
            yield _Token("lbrace", ch, line, col)
            col += 1
            i += 1
        elif ch == "}":
            yield _Token("rbrace", ch, line, col)
            col += 1
            i += 1
        elif ch in _IDENT_START:
            start, start_col = i, col
            while i < n and source[i] in _IDENT_CONT:
                i += 1
                col += 1
            yield _Token("ident", source[start:i], line, start_col)
        elif ch in _DIGITS:
            start, start_col = i, col
            while i < n and (source[i] in _DIGITS or source[i] == "_"):
                i += 1
                col += 1
            yield _Token("int", source[start:i], line, start_col)
        else:
            raise ScenarioError(f"unexpected character {ch!r}", line, col, SYNTAX)


class _TokenStream:
    def __init__(self, tokens: list[_Token]):
        self._tokens = tokens
        self._pos = 0

    def peek(self) -> Optional[_Token]:
        return self._tokens[self._pos] if self._pos < len(self._tokens) else None

    def next(self) -> Optional[_Token]:
        tok = self.peek()
        if tok is not None:
            self._pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.next()
        if tok is None:
            last = self._tokens[-1] if self._tokens else None
            line = last.line if last else 1
            raise ScenarioError(f"expected {what}, found end of input",
                                line, 1, SYNTAX)
        if tok.kind != kind:
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
    stream = _TokenStream(list(_tokenize(source)))

    model_tok: Optional[_Token] = None
    apps_tok: Optional[_Token] = None
    apps_value = 0
    max_tok: Optional[_Token] = None
    max_value = DEFAULT_MAX_STATES
    checks: list[_Token] = []
    blocks: list[tuple[_Token, list[tuple[_Token, str]], list[_Token]]] = []

    while True:
        tok = stream.next()
        if tok is None:
            break
        if tok.kind != "ident":
            raise ScenarioError(f"expected a directive, found {tok.text!r}",
                                tok.line, tok.column, SYNTAX)
        if tok.text == "model":
            name = stream.expect("ident", "a model name")
            if model_tok is not None:
                raise ScenarioError("duplicate 'model' directive",
                                    name.line, name.column)
            model_tok = name
        elif tok.text == "apps":
            count = stream.expect("int", "an app count")
            if apps_tok is not None:
                raise ScenarioError("duplicate 'apps' directive",
                                    count.line, count.column)
            apps_tok, apps_value = count, _int_value(count)
        elif tok.text == "max_states":
            limit = stream.expect("int", "a state limit")
            if max_tok is not None:
                raise ScenarioError("duplicate 'max_states' directive",
                                    limit.line, limit.column)
            max_tok, max_value = limit, _int_value(limit)
        elif tok.text == "check":
            checks.append(stream.expect("ident", "an invariant name"))
        elif tok.text == "app":
            blocks.append(_parse_app_block(stream))
        else:
            raise ScenarioError(f"unknown directive {tok.text!r}",
                                tok.line, tok.column, SYNTAX)

    # Semantic resolution, every finding located in the source.
    if model_tok is None:
        raise ScenarioError("missing 'model' directive", 1, 1)
    if model_tok.text not in model_names():
        raise ScenarioError(f"unknown model {model_tok.text!r}",
                            model_tok.line, model_tok.column)
    info = get_model(model_tok.text)

    params: dict[str, int] = {}
    if "apps" in info.params:
        if apps_tok is None:
            raise ScenarioError(f"model {info.name} requires an 'apps' directive",
                                model_tok.line, model_tok.column)
        if apps_value < 1:
            raise ScenarioError("app count must be at least 1",
                                apps_tok.line, apps_tok.column)
        params["apps"] = apps_value
        if blocks:
            first = blocks[0][0]
            raise ScenarioError(f"app blocks are not valid for model {info.name}",
                                first.line, first.column)
    else:
        if apps_tok is not None:
            raise ScenarioError(f"'apps' is not valid for model {info.name}",
                                apps_tok.line, apps_tok.column)
        if not blocks:
            raise ScenarioError(f"model {info.name} requires at least one app block",
                                model_tok.line, model_tok.column)

    app_specs = []
    seen_ids: set[str] = set()
    for id_tok, declares, requests in blocks:
        if id_tok.text in seen_ids:
            raise ScenarioError(f"duplicate app id {id_tok.text!r}",
                                id_tok.line, id_tok.column)
        seen_ids.add(id_tok.text)
        decl_names: set[str] = set()
        decl_objs = []
        for name_tok, level in declares:
            if name_tok.text in decl_names:
                raise ScenarioError(
                    f"app {id_tok.text!r} declares {name_tok.text!r} more than once",
                    name_tok.line, name_tok.column)
            decl_names.add(name_tok.text)
            decl_objs.append(PermissionDeclaration(name_tok.text, level))
        app_specs.append(AppSpec(id_tok.text, tuple(decl_objs),
                                 tuple(t.text for t in requests)))

    for check_tok in checks:
        if check_tok.text not in info.invariants:
            raise ScenarioError(
                f"model {info.name} has no invariant named {check_tok.text!r}",
                check_tok.line, check_tok.column)
    check_list = tuple(t.text for t in checks) or info.invariants

    if max_tok is not None and max_value < 1:
        raise ScenarioError("max_states must be at least 1",
                            max_tok.line, max_tok.column)

    return ScenarioDef(
        model_name=info.name,
        params=params,
        app_specs=tuple(app_specs),
        check_list=check_list,
        max_states=max_value,
    )


def _parse_app_block(stream: _TokenStream):
    id_tok = stream.expect("ident", "an app id")
    stream.expect("lbrace", "'{'")
    declares: list[tuple[_Token, str]] = []
    requests: list[_Token] = []
    while True:
        tok = stream.next()
        if tok is None:
            raise ScenarioError(f"unterminated app block for {id_tok.text!r}",
                                id_tok.line, id_tok.column, SYNTAX)
        if tok.kind == "rbrace":
            return id_tok, declares, requests
        if tok.kind != "ident" or tok.text not in ("declare", "request"):
            raise ScenarioError(
                f"expected 'declare', 'request' or '}}', found {tok.text!r}",
                tok.line, tok.column, SYNTAX)
        if tok.text == "declare":
            name_tok = stream.expect("ident", "a permission name")
            kw = stream.expect("ident", "'level'")
            if kw.text != "level":
                raise ScenarioError(f"expected 'level', found {kw.text!r}",
                                    kw.line, kw.column, SYNTAX)
            level_tok = stream.expect("ident", "a protection level")
            if level_tok.text not in ("normal", "dangerous"):
                raise ScenarioError(
                    f"unknown protection level {level_tok.text!r}",
                    level_tok.line, level_tok.column)
            declares.append((name_tok, level_tok.text))
        else:
            requests.append(stream.expect("ident", "a permission name"))


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

    Defects are not reported here: :func:`parse_scenario` rejects them in
    scenario text, and building or checking the system rejects them in a
    directly constructed definition."""
    declared = {d.name for a in scenario.app_specs for d in a.declares}
    return [f"app {app.id!r} requests {name!r}, which no app declares"
            for app in scenario.app_specs for name in app.requests
            if name not in declared]
