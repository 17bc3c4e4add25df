"""Tokenizer for the query language.

Keywords are case-insensitive and resolved by the parser; the lexer only
distinguishes identifiers, numbers, strings, and punctuation. A number is
ASCII digits with an optional fractional part. ``--`` starts a line
comment. Every token carries its 1-based line and column for error
reporting.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import QuerySyntaxError

_PUNCT_TWO = {"<=", ">=", "!=", "<>"}
_PUNCT_ONE = set("()[],.*:+-=<>")
_DIGITS = set("0123456789")  # str.isdigit also holds for '²', '①' and '٣'


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
    line, col = 1, 1
    i, n = 0, len(text)

    def advance(k: int) -> None:
        nonlocal i, line, col
        for _ in range(k):
            if i < n and text[i] == "\n":
                line += 1
                col = 1
            else:
                col += 1
            i += 1

    while i < n:
        ch = text[i]
        if ch in " \t\r\n":
            advance(1)
            continue
        if text.startswith("--", i):
            while i < n and text[i] != "\n":
                advance(1)
            continue
        start_line, start_col = line, col
        if ch == '"':
            j = text.find('"', i + 1)
            if j < 0:
                raise QuerySyntaxError("unterminated string literal", start_line, start_col)
            tokens.append(Token("STRING", text[i + 1:j], start_line, start_col))
            advance(j + 1 - i)
            continue
        if ch in _DIGITS or (ch == "." and i + 1 < n and text[i + 1] in _DIGITS):
            j = i
            seen_dot = False
            while j < n and (text[j] in _DIGITS or (text[j] == "." and not seen_dot)):
                if text[j] == ".":
                    # a dot not followed by a digit is the qualifier separator
                    if j + 1 >= n or text[j + 1] not in _DIGITS:
                        break
                    seen_dot = True
                j += 1
            tokens.append(Token("NUMBER", text[i:j], start_line, start_col))
            advance(j - i)
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("IDENT", text[i:j], start_line, start_col))
            advance(j - i)
            continue
        two = text[i:i + 2]
        if two in _PUNCT_TWO:
            tokens.append(Token("PUNCT", "!=" if two == "<>" else two, start_line, start_col))
            advance(2)
            continue
        if ch in _PUNCT_ONE:
            tokens.append(Token("PUNCT", ch, start_line, start_col))
            advance(1)
            continue
        raise QuerySyntaxError(f"unexpected character {ch!r}", start_line, start_col)

    tokens.append(Token("EOF", "", line, col))
    return tokens
