"""The .bkc scripting language: parse, print, execute.

script      := { stmt ";" }
stmt        := profileDecl | applyStmt | assertStmt | repeatStmt | "print"
profileDecl := "profile" IDENT "dim" "=" INT "{" "conn1" "=" deg
               { "," ("cart" | "cocart") INT "=" deg } "}"
applyStmt   := "apply" ("dualize" | "hbm" | "stable"
               | ("suspend" | "loop") [INT] | "step" ["r" "=" (INT | "inf")])
assertStmt  := "assert" ("conn1" | ("cart" | "cocart") INT) (">=" | "=" | "<=") deg
repeatStmt  := "repeat" INT "{" { stmt ";" } "}"
deg         := INT | "inf"

Comments run from "#" to end of line; whitespace (CRLF included) only
separates tokens.  One implicit current profile: the most recently
declared one.  Parse errors report the first failure, anchored at the
statement that failed (the offending token and position ride along in the
message), so the reported position never lands past a corrupted token.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NoReturn, Union

from .core import INF, Degree, Mode, Profile, fmt_r
from .pipeline import (
    Derivation,
    IterationStep,
    StepRecord,
    apply_transform,
    omega_sigma_step,
    stabilized_at,
)


class ScriptParseError(Exception):
    """First parse failure: anchor position, expected-token set, and the
    offending token with its own position."""

    def __init__(
        self,
        line: int,
        col: int,
        expected: tuple[str, ...],
        found: str,
        found_line: int | None = None,
        found_col: int | None = None,
    ) -> None:
        self.line = line
        self.col = col
        self.expected = tuple(expected)
        self.found = found
        self.found_line = line if found_line is None else found_line
        self.found_col = col if found_col is None else found_col
        detail = f"expected {', '.join(self.expected)}; found {self.found}"
        if (self.found_line, self.found_col) != (line, col):
            detail += f" at {self.found_line}:{self.found_col}"
        super().__init__(f"{line}:{col}: {detail}")


class ScriptRuntimeError(Exception):
    """A statement that parsed but cannot run against the current
    profile (wrong mode, missing dimension, malformed degree map)."""

    def __init__(self, line: int, col: int, message: str) -> None:
        self.line = line
        self.col = col
        super().__init__(f"{line}:{col}: {message}")


@dataclass(frozen=True, slots=True)
class Token:
    kind: str  # word | int | punct | eof
    text: str
    line: int
    col: int


_PUNCT_ONE = "{}=,;"
_KEYWORDS = frozenset(
    "profile dim conn1 cart cocart inf apply dualize hbm stable suspend loop "
    "step r assert repeat print".split()
)
_STMT_KEYWORDS = ("profile", "apply", "assert", "repeat", "print")


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            col += 1
            i += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch.isdigit() or (ch == "-" and i + 1 < n and text[i + 1].isdigit()):
            j = i + 1
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(Token("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i + 1
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("word", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if text[i : i + 2] in (">=", "<="):
            tokens.append(Token("punct", text[i : i + 2], line, col))
            col += 2
            i += 2
            continue
        if ch in _PUNCT_ONE:
            tokens.append(Token("punct", ch, line, col))
            col += 1
            i += 1
            continue
        raise ScriptParseError(line, col, ("a token",), f"character {ch!r}")
    tokens.append(Token("eof", "", line, col))
    return tokens


@dataclass(frozen=True, slots=True)
class ProfileDecl:
    name: str
    dim: int
    conn1: Degree
    entries: tuple[tuple[int, Degree], ...]
    mode: Mode | None
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)


@dataclass(frozen=True, slots=True)
class Apply:
    op: str
    amount: int | None = None
    r: int | float | None = None
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)


@dataclass(frozen=True, slots=True)
class AssertStmt:
    scope: Mode | None  # None asserts conn1
    dim: int | None
    cmp: str
    value: Degree
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)


@dataclass(frozen=True, slots=True)
class Repeat:
    count: int
    body: tuple[Stmt, ...]
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)


@dataclass(frozen=True, slots=True)
class PrintStmt:
    line: int = field(compare=False, default=0)
    col: int = field(compare=False, default=0)


Stmt = Union[ProfileDecl, Apply, AssertStmt, Repeat, PrintStmt]


@dataclass(frozen=True, slots=True)
class Script:
    statements: tuple[Stmt, ...]


class _Parser:
    def __init__(self, tokens: list[Token]) -> None:
        self.tokens = tokens
        self.pos = 0
        self.stmt_starts: list[tuple[int, int]] = []
        # name -> where it was first declared; duplicate errors anchor there
        # so a corrupted first occurrence is never reported past itself
        self.declared: dict[str, tuple[int, int]] = {}

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    @staticmethod
    def _display(tok: Token) -> str:
        return "end of script" if tok.kind == "eof" else f"'{tok.text}'"

    def fail(
        self, *expected: str, at: Token | None = None, anchor: tuple[int, int] | None = None
    ) -> NoReturn:
        tok = at or self.cur
        if anchor is None:
            anchor = self.stmt_starts[-1] if self.stmt_starts else (tok.line, tok.col)
        raise ScriptParseError(
            anchor[0], anchor[1], expected, self._display(tok), tok.line, tok.col
        )

    def expect_punct(self, text: str) -> Token:
        if self.cur.kind == "punct" and self.cur.text == text:
            return self.advance()
        self.fail(f"'{text}'")

    def expect_word(self, *words: str) -> Token:
        if self.cur.kind == "word" and self.cur.text in words:
            return self.advance()
        self.fail(*(f"'{w}'" for w in words))

    def expect_int(self) -> tuple[int, Token]:
        if self.cur.kind == "int":
            tok = self.advance()
            return int(tok.text), tok
        self.fail("an integer")

    def degree(self) -> Degree:
        if self.cur.kind == "int":
            return Degree(int(self.advance().text))
        if self.cur.kind == "word" and self.cur.text == "inf":
            self.advance()
            return INF
        self.fail("an integer", "'inf'")

    def statement(self, closer: str | None = None) -> Stmt:
        tok = self.cur
        if tok.kind != "word" or tok.text not in _STMT_KEYWORDS:
            expected = tuple(f"'{w}'" for w in _STMT_KEYWORDS)
            if closer:
                expected += (f"'{closer}'",)
            self.fail(*expected, anchor=(tok.line, tok.col))
        if tok.text != "profile" and not self.declared:
            self.fail(
                "a profile declaration before this statement",
                at=tok,
                anchor=(tok.line, tok.col),
            )
        self.stmt_starts.append((tok.line, tok.col))
        try:
            if tok.text == "profile":
                node: Stmt = self.profile_decl()
            elif tok.text == "apply":
                node = self.apply_stmt()
            elif tok.text == "assert":
                node = self.assert_stmt()
            elif tok.text == "repeat":
                node = self.repeat_stmt()
            else:
                self.advance()
                node = PrintStmt(line=tok.line, col=tok.col)
            self.expect_punct(";")
            return node
        finally:
            self.stmt_starts.pop()

    def profile_decl(self) -> ProfileDecl:
        kw = self.advance()
        name_tok = self.cur
        if name_tok.kind != "word" or name_tok.text in _KEYWORDS:
            self.fail("a profile name")
        self.advance()
        if name_tok.text in self.declared:
            self.fail("a new profile name", at=name_tok, anchor=self.declared[name_tok.text])
        self.declared[name_tok.text] = (name_tok.line, name_tok.col)
        self.expect_word("dim")
        self.expect_punct("=")
        dim, dim_tok = self.expect_int()
        if dim < 1:
            self.fail("a dimension >= 1", at=dim_tok, anchor=(dim_tok.line, dim_tok.col))
        self.expect_punct("{")
        self.expect_word("conn1")
        self.expect_punct("=")
        conn1 = self.degree()
        entries: list[tuple[int, Degree]] = []
        mode: Mode | None = None
        # conflicts between entries anchor at the earlier of the pair, so a
        # corrupted first occurrence is never reported past itself
        mode_at: tuple[int, int] | None = None
        dim_at: dict[int, tuple[int, int]] = {}
        while self.cur.kind == "punct" and self.cur.text == ",":
            self.advance()
            mode_tok = self.expect_word("cart", "cocart")
            this = Mode.CARTESIAN if mode_tok.text == "cart" else Mode.COCARTESIAN
            if mode is None:
                mode = this
                mode_at = (mode_tok.line, mode_tok.col)
            elif this is not mode:
                self.fail(f"'{mode.short}' (one mode per profile)", at=mode_tok, anchor=mode_at)
            d, d_tok = self.expect_int()
            if d < 2:
                self.fail("a dimension >= 2", at=d_tok, anchor=(d_tok.line, d_tok.col))
            if d in dim_at:
                self.fail("a dimension not yet given", at=d_tok, anchor=dim_at[d])
            dim_at[d] = (d_tok.line, d_tok.col)
            self.expect_punct("=")
            entries.append((d, self.degree()))
        self.expect_punct("}")
        return ProfileDecl(
            name_tok.text, dim, conn1, tuple(entries), mode, line=kw.line, col=kw.col
        )

    def apply_stmt(self) -> Apply:
        kw = self.advance()
        op_tok = self.expect_word("dualize", "hbm", "stable", "suspend", "loop", "step")
        amount: int | None = None
        r: int | float | None = None
        if op_tok.text in ("suspend", "loop") and self.cur.kind == "int":
            amount, amount_tok = self.expect_int()
            if amount < 0:
                self.fail(
                    "a non-negative count", at=amount_tok, anchor=(amount_tok.line, amount_tok.col)
                )
        elif op_tok.text == "step" and self.cur.kind == "word" and self.cur.text == "r":
            self.advance()
            self.expect_punct("=")
            if self.cur.kind == "int":
                value, value_tok = self.expect_int()
                if value < 1:
                    self.fail(
                        "a positive integer",
                        "'inf'",
                        at=value_tok,
                        anchor=(value_tok.line, value_tok.col),
                    )
                r = value
            elif self.cur.kind == "word" and self.cur.text == "inf":
                self.advance()
                r = math.inf
            else:
                self.fail("a positive integer", "'inf'")
        return Apply(op_tok.text, amount, r, line=kw.line, col=kw.col)

    def assert_stmt(self) -> AssertStmt:
        kw = self.advance()
        scope: Mode | None = None
        dim: int | None = None
        if self.cur.kind == "word" and self.cur.text == "conn1":
            self.advance()
        elif self.cur.kind == "word" and self.cur.text in ("cart", "cocart"):
            scope = Mode.CARTESIAN if self.advance().text == "cart" else Mode.COCARTESIAN
            dim, dim_tok = self.expect_int()
            if dim < 2:
                self.fail("a dimension >= 2", at=dim_tok, anchor=(dim_tok.line, dim_tok.col))
        else:
            self.fail("'conn1'", "'cart'", "'cocart'")
        if self.cur.kind == "punct" and self.cur.text in (">=", "=", "<="):
            cmp = self.advance().text
        else:
            self.fail("'>='", "'='", "'<='")
        return AssertStmt(scope, dim, cmp, self.degree(), line=kw.line, col=kw.col)

    def repeat_stmt(self) -> Repeat:
        kw = self.advance()
        count, count_tok = self.expect_int()
        if count < 1:
            self.fail("a count >= 1", at=count_tok, anchor=(count_tok.line, count_tok.col))
        self.expect_punct("{")
        body: list[Stmt] = []
        while not (self.cur.kind == "punct" and self.cur.text == "}"):
            body.append(self.statement(closer="}"))
        self.expect_punct("}")
        return Repeat(count, tuple(body), line=kw.line, col=kw.col)


def parse(text: str) -> Script:
    """Parse script text; raises ScriptParseError on the first problem."""
    parser = _Parser(tokenize(text))
    statements: list[Stmt] = []
    while parser.cur.kind != "eof":
        statements.append(parser.statement())
    return Script(tuple(statements))


def _stmt_text(stmt: Stmt) -> str:
    if isinstance(stmt, ProfileDecl):
        inner = f"conn1={stmt.conn1}"
        for d, value in stmt.entries:
            inner += f", {stmt.mode.short} {d}={value}"
        return f"profile {stmt.name} dim={stmt.dim} {{ {inner} }}"
    if isinstance(stmt, Apply):
        text = f"apply {stmt.op}"
        if stmt.amount is not None:
            text += f" {stmt.amount}"
        if stmt.r is not None:
            text += f" r={fmt_r(stmt.r)}"
        return text
    if isinstance(stmt, AssertStmt):
        subject = "conn1" if stmt.scope is None else f"{stmt.scope.short} {stmt.dim}"
        return f"assert {subject} {stmt.cmp} {stmt.value}"
    if isinstance(stmt, Repeat):
        inner = " ".join(_stmt_text(s) + ";" for s in stmt.body)
        return f"repeat {stmt.count} {{ {inner} }}" if inner else f"repeat {stmt.count} {{ }}"
    if isinstance(stmt, PrintStmt):
        return "print"
    raise TypeError(f"not a statement: {stmt!r}")


def print_script(script: Script) -> str:
    """Canonical text for a script; parse(print_script(s)) == s."""
    return "".join(_stmt_text(stmt) + ";\n" for stmt in script.statements)


@dataclass(frozen=True, slots=True)
class AssertOutcome:
    line: int
    text: str
    actual: Degree | None
    passed: bool
    detail: str = ""


@dataclass(frozen=True, slots=True)
class ScriptResult:
    final: Profile | None
    asserts: tuple[AssertOutcome, ...]
    printed: tuple[str, ...]
    derivation: Derivation | None

    @property
    def passed(self) -> bool:
        return all(a.passed for a in self.asserts)


def _compare(actual: Degree, cmp: str, value: Degree) -> bool:
    if cmp == "=":
        return actual == value
    if cmp == ">=":
        return not actual < value
    return not value < actual


class _Executor:
    def __init__(self) -> None:
        self.current: Profile | None = None
        self.initial: Profile | None = None
        self.steps: list[IterationStep] = []
        self.asserts: list[AssertOutcome] = []
        self.printed: list[str] = []

    def push(self, records: tuple[StepRecord, ...]) -> None:
        self.steps.append(IterationStep(len(self.steps) + 1, records, records[-1].profile))

    def declare(self, stmt: ProfileDecl) -> None:
        mode = stmt.mode or Mode.COCARTESIAN
        try:
            profile = Profile(stmt.dim, stmt.conn1, mode, dict(stmt.entries))
        except ValueError as err:
            raise ScriptRuntimeError(stmt.line, stmt.col, str(err)) from None
        if self.initial is None:
            self.initial = profile
        else:
            self.push((StepRecord("declare", None, (), profile),))
        self.current = profile

    _TRANSFORMS = {
        "dualize": "dualize",
        "hbm": "cartesianize",
        "stable": "stabilize",
        "suspend": "suspend",
        "loop": "loop",
    }

    def apply(self, stmt: Apply) -> None:
        p = self.current
        try:
            if stmt.op == "step":
                r = 1 if stmt.r is None else stmt.r
                out, records = omega_sigma_step(p, r, first_step=p.mode is Mode.COCARTESIAN)
            else:
                transform = self._TRANSFORMS[stmt.op]
                amount = None
                if stmt.op in ("suspend", "loop"):
                    amount = 1 if stmt.amount is None else stmt.amount
                out, outcomes = apply_transform(p, transform, amount)
                records = (StepRecord(transform, amount, outcomes, out),)
        except ValueError as err:
            raise ScriptRuntimeError(stmt.line, stmt.col, str(err)) from None
        self.push(records)
        self.current = out

    def check(self, stmt: AssertStmt) -> None:
        p = self.current
        text = _stmt_text(stmt)
        if stmt.scope is None:
            actual: Degree | None = p.conn1
        elif stmt.dim > p.dim:
            raise ScriptRuntimeError(
                stmt.line, stmt.col, f"profile of dim {p.dim} has no dimension {stmt.dim}"
            )
        elif p.mode is not stmt.scope:
            self.asserts.append(
                AssertOutcome(stmt.line, text, None, False, f"profile is {p.mode.value}")
            )
            return
        else:
            actual = p.degree(stmt.dim)
        ok = _compare(actual, stmt.cmp, stmt.value)
        detail = "" if ok else f"actual {actual}"
        self.asserts.append(AssertOutcome(stmt.line, text, actual, ok, detail))

    def run(self, stmt: Stmt) -> None:
        if isinstance(stmt, ProfileDecl):
            self.declare(stmt)
        elif isinstance(stmt, Apply):
            self.apply(stmt)
        elif isinstance(stmt, AssertStmt):
            self.check(stmt)
        elif isinstance(stmt, Repeat):
            for _ in range(stmt.count):
                for inner in stmt.body:
                    self.run(inner)
        else:
            self.printed.append(self.current.describe())

    def result(self, label: str) -> ScriptResult:
        derivation = None
        if self.initial is not None:
            stabilized = stabilized_at(self.initial, self.steps)
            derivation = Derivation(label, self.initial, None, tuple(self.steps), stabilized)
        return ScriptResult(
            self.current, tuple(self.asserts), tuple(self.printed), derivation
        )


def execute(script: Script, label: str = "script") -> ScriptResult:
    """Run a parsed script; raises ScriptRuntimeError when a statement
    cannot be applied to the current profile."""
    ex = _Executor()
    for stmt in script.statements:
        ex.run(stmt)
    return ex.result(label)
