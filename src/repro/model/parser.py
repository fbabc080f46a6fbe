"""A compact textual syntax for dependencies, dependency sets, and facts.

Grammar (informal)::

    program     := (line)*
    line        := [label ':'] dependency | comment | blank
    dependency  := conjunction '->' rhs
    rhs         := [existentials] conjunction          # TGD
                 | term '=' term                        # EGD
    existentials:= ('exists' | '∃') var (',' var)* '.'
    conjunction := atom (('&' | ',' | '∧' | 'and') atom)*
    atom        := IDENT '(' term (',' term)* ')'
    term        := IDENT                 # variable
                 | '"' chars '"'         # constant (string)
                 | "'" chars "'"         # constant (string)
                 | NUMBER                # constant (int)

Unquoted identifiers are **variables**; constants must be quoted or numeric.
``->`` and ``→`` are interchangeable, as are the conjunction spellings.
Lines starting with ``#`` or ``%`` are comments.  Example::

    r1: N(x) -> exists y. E(x, y)
    r2: E(x, y) -> N(y)
    r3: E(x, y) -> x = y

Facts use the same atom syntax but all arguments must be constants (or, for
instances, nulls written ``_1``, ``_2``...).
"""

from __future__ import annotations

import re
from typing import Iterator

from .atoms import Atom
from .dependencies import EGD, TGD, AnyDependency, DependencySet
from .columnar import ColumnarInstance
from .terms import Constant, Null, Term, Variable


class ParseError(ValueError):
    """Raised on malformed dependency/fact text, with position info."""

    def __init__(self, message: str, text: str, pos: int) -> None:
        line = text.count("\n", 0, pos) + 1
        col = pos - (text.rfind("\n", 0, pos) + 1) + 1
        super().__init__(f"{message} (line {line}, column {col})")
        self.line = line
        self.column = col


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>[#%][^\n]*)
  | (?P<arrow>->|→)
  | (?P<exists>exists\b|∃)
  | (?P<and>and\b|&|∧|,)
  | (?P<lpar>\()
  | (?P<rpar>\))
  | (?P<dot>\.)
  | (?P<colon>:)
  | (?P<eq>=)
  | (?P<dquote>"(?:[^"\\]|\\.)*")
  | (?P<squote>'(?:[^'\\]|\\.)*')
  | (?P<number>-?\d+)
  | (?P<null>_\d+)
  | (?P<ident>[A-Za-z][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "value", "pos")

    def __init__(self, kind: str, value: str, pos: int) -> None:
        self.kind = kind
        self.value = value
        self.pos = pos

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"_Token({self.kind}, {self.value!r})"


def _tokenize(text: str) -> Iterator[_Token]:
    pos = 0
    n = len(text)
    while pos < n:
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", text, pos)
        kind = m.lastgroup or ""
        if kind not in ("ws", "comment"):
            yield _Token(kind, m.group(), m.start())
        pos = m.end()
    yield _Token("eof", "", n)


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, text: str) -> None:
        self.text = text
        self.tokens = list(_tokenize(text))
        self.i = 0

    # -- token helpers ----------------------------------------------------

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        if tok.kind != "eof":
            self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        if self.cur.kind != kind:
            raise ParseError(
                f"expected {kind}, found {self.cur.value!r}", self.text, self.cur.pos
            )
        return self.advance()

    def accept(self, kind: str) -> _Token | None:
        if self.cur.kind == kind:
            return self.advance()
        return None

    # -- grammar ------------------------------------------------------------

    def parse_term(self, allow_nulls: bool = False) -> Term:
        tok = self.cur
        if tok.kind == "ident":
            self.advance()
            return Variable(tok.value)
        if tok.kind in ("dquote", "squote"):
            self.advance()
            raw = tok.value[1:-1]
            return Constant(re.sub(r"\\(.)", r"\1", raw))
        if tok.kind == "number":
            self.advance()
            return Constant(int(tok.value))
        if tok.kind == "null":
            if not allow_nulls:
                raise ParseError("nulls are not allowed here", self.text, tok.pos)
            self.advance()
            return Null(int(tok.value[1:]))
        raise ParseError(f"expected a term, found {tok.value!r}", self.text, tok.pos)

    def parse_atom(self, allow_nulls: bool = False) -> Atom:
        name = self.expect("ident").value
        self.expect("lpar")
        args = [self.parse_term(allow_nulls)]
        while self.accept("and"):  # ',' tokenizes as 'and'
            args.append(self.parse_term(allow_nulls))
        self.expect("rpar")
        return Atom(name, args)

    def parse_conjunction(self) -> list[Atom]:
        atoms = [self.parse_atom()]
        while self.cur.kind == "and":
            self.advance()
            atoms.append(self.parse_atom())
        return atoms

    def parse_dependency(self) -> AnyDependency:
        label = ""
        if (
            self.cur.kind == "ident"
            and self.i + 1 < len(self.tokens)
            and self.tokens[self.i + 1].kind == "colon"
        ):
            label = self.advance().value
            self.advance()  # ':'
        body = self.parse_conjunction()
        self.expect("arrow")
        if self.accept("exists"):
            ex_vars = [self._parse_variable()]
            while self.accept("and"):
                ex_vars.append(self._parse_variable())
            # Support both "exists y. H" and "exists y exists z. H" styles.
            while self.accept("exists"):
                ex_vars.append(self._parse_variable())
                while self.accept("and"):
                    ex_vars.append(self._parse_variable())
            self.accept("dot")
            head = self.parse_conjunction()
            return TGD(body, head, existential=ex_vars, label=label)
        # TGD without existentials, or EGD: decide by lookahead after the
        # first term-ish token.  An EGD right-hand side is `term = term`.
        if (
            self.cur.kind == "ident"
            and self.i + 1 < len(self.tokens)
            and self.tokens[self.i + 1].kind == "eq"
        ):
            lhs = self.parse_term()
            self.expect("eq")
            rhs = self.parse_term()
            if not isinstance(lhs, Variable) or not isinstance(rhs, Variable):
                raise ParseError(
                    "EGD equality sides must be variables", self.text, self.cur.pos
                )
            return EGD(body, lhs, rhs, label=label)
        head = self.parse_conjunction()
        return TGD(body, head, label=label)

    def _parse_variable(self) -> Variable:
        tok = self.expect("ident")
        return Variable(tok.value)

    def parse_program(self) -> DependencySet:
        out = DependencySet()
        while self.cur.kind != "eof":
            out.add(self.parse_dependency())
        return out

    def parse_facts(self) -> ColumnarInstance:
        inst = ColumnarInstance()
        while self.cur.kind != "eof":
            atom = self.parse_atom(allow_nulls=True)
            if not atom.is_fact:
                raise ParseError(
                    f"fact {atom} contains variables; quote constants",
                    self.text,
                    self.cur.pos,
                )
            inst.add(atom)
        return inst


def parse_dependency(text: str) -> AnyDependency:
    """Parse a single dependency, e.g. ``"E(x,y) -> x = y"``."""
    parser = _Parser(text)
    dep = parser.parse_dependency()
    if parser.cur.kind != "eof":
        raise ParseError("trailing input after dependency", text, parser.cur.pos)
    return dep


def parse_dependencies(text: str) -> DependencySet:
    """Parse a whole dependency program (one dependency per statement)."""
    return _Parser(text).parse_program()


def parse_facts(text: str) -> ColumnarInstance:
    """Parse facts like ``N("a") E("a", "b") P(_1)`` into an instance."""
    return _Parser(text).parse_facts()


def to_text(sigma: DependencySet) -> str:
    """Render a dependency set back to parseable text."""
    lines = []
    for d in sigma:
        prefix = f"{d.label}: " if d.label else ""
        lines.append(prefix + _dep_to_text(d))
    return "\n".join(lines)


def _dep_to_text(dep: AnyDependency) -> str:
    body = " & ".join(_atom_to_text(a) for a in dep.body)
    if isinstance(dep, EGD):
        return f"{body} -> {dep.lhs.name} = {dep.rhs.name}"
    head = " & ".join(_atom_to_text(a) for a in dep.head)
    if dep.existential:
        ex = ", ".join(v.name for v in dep.existential)
        return f"{body} -> exists {ex}. {head}"
    return f"{body} -> {head}"


def _atom_to_text(atom: Atom) -> str:
    parts = []
    for t in atom.args:
        if isinstance(t, Variable):
            parts.append(t.name)
        elif isinstance(t, Constant):
            if isinstance(t.value, int):
                parts.append(str(t.value))
            else:
                escaped = str(t.value).replace("\\", "\\\\").replace('"', '\\"')
                parts.append(f'"{escaped}"')
        elif isinstance(t, Null):
            parts.append(f"_{t.label}")
        else:  # pragma: no cover - defensive
            raise TypeError(f"cannot render term {t!r}")
    return f"{atom.predicate}({', '.join(parts)})"
