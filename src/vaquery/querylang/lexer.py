"""Tokenizer for the query language.

Keywords are case-insensitive and resolved by the parser; the lexer only
tells apart the named groups of :data:`_TOKEN`: text it skips (whitespace
and ``--`` line comments), double-quoted strings, numbers (ASCII digits
with an optional fractional part), identifiers and punctuation. Every
token carries its 1-based line and column for error reporting.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from ..errors import QuerySyntaxError

# The first alternative that matches wins. \w is str.isalnum() or "_"; an
# identifier must also start where str.isalpha() holds or at "_", which no
# pattern can say, so tokenize checks it. Any other character is an error.
_TOKEN = re.compile(r"""
    (?P<skip>(?:[ \t\r\n]|--[^\n]*)+)
  | "(?P<STRING>[^"]*)"
  | (?P<NUMBER>[0-9]+(?:\.[0-9]+)?|\.[0-9]+)
  | (?P<IDENT>\w+)
  | (?P<PUNCT><=|>=|!=|<>|[-()\[\],.*:+=<>])
  | (?P<error>.)
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    type: str  # IDENT | NUMBER | STRING | PUNCT | EOF
    value: str
    line: int
    column: int

    def keyword(self) -> str:
        """Uppercased value, for case-insensitive keyword matching."""
        return self.value.upper() if self.type == "IDENT" else ""


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, line_start = 1, 0  # line_start: the offset of the current line's first character
    for m in _TOKEN.finditer(text):  # the matches tile the text: none is empty
        kind, start = m.lastgroup, m.start()
        if kind != "skip":
            ch, column = text[start], start - line_start + 1
            if kind == "error" or kind == "IDENT" and not (ch.isalpha() or ch == "_"):
                raise QuerySyntaxError("unterminated string literal" if ch == '"'
                                       else f"unexpected character {ch!r}", line, column)
            value = m.group(kind)
            tokens.append(Token(kind, "!=" if value == "<>" else value, line, column))
        if kind == "skip" or kind == "STRING":  # the only matches that may hold a newline
            newlines = text.count("\n", start, m.end())
            if newlines:
                line += newlines
                line_start = text.rfind("\n", start, m.end()) + 1
    tokens.append(Token("EOF", "", line, len(text) - line_start + 1))
    return tokens
