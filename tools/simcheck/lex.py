"""Lexical layer of the token frontend: comment/string stripping
(preserving line structure), suppression-comment harvesting, directive
blanking, and a small C++ tokenizer that keeps line numbers.

A `// simcheck-allow: rule` comment covers its own line and the next code
line below it. "Code line" is judged on the stripped text with preprocessor
directives still in place, so an allow above an `#include` blesses that
include, and an allow on an include line blesses the line after it."""

from __future__ import annotations

import re
from dataclasses import dataclass

ALLOW_RE = re.compile(r"simcheck-allow:\s*([\w-]+)")


def strip_and_harvest(text: str) -> tuple[str, dict[int, set[str]]]:
    """Blank comments, string and char literals; collect simcheck-allow
    suppressions per line. An allow comment blesses its own line and the
    next code line below it (comment-only lines in between don't break
    the chain). Preprocessor directives are kept: the pattern rules read
    `#include` lines, and blank_directives() hides them from the
    tokenizer."""
    out: list[str] = []
    allows: dict[int, set[str]] = {}
    pending: list[tuple[int, str]] = []
    i, n = 0, len(text)
    line = 1

    def record(comment: str, line_no: int) -> None:
        for m in ALLOW_RE.finditer(comment):
            allows.setdefault(line_no, set()).add(m.group(1))
            pending.append((line_no, m.group(1)))

    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            j = text.find("\n", i)
            j = n if j == -1 else j
            record(text[i:j], line)
            out.append(" " * (j - i))
            i = j
        elif c == "/" and nxt == "*":
            j = text.find("*/", i + 2)
            j = n if j == -1 else j + 2
            comment = text[i:j]
            end_line = line + comment.count("\n")
            record(comment, end_line)
            out.append("".join(ch if ch == "\n" else " " for ch in comment))
            line = end_line
            i = j
        elif c in "\"'":
            quote = c
            j = i + 1
            while j < n and text[j] != quote:
                j += 2 if text[j] == "\\" else 1
            j = min(j + 1, n)
            literal = text[i:j]
            if len(literal) >= 2 and literal[-1] == quote:
                out.append(quote + "".join(
                    ch if ch == "\n" else " " for ch in literal[1:-1]) + quote)
            else:
                out.append(literal)
            line += literal.count("\n")
            i = j
        else:
            if c == "\n":
                line += 1
            out.append(c)
            i += 1
    stripped = "".join(out)
    # Forward each allow to the first non-blank (after stripping) line
    # below its comment, so the allow can sit on the line above.
    stripped_lines = stripped.split("\n")
    for line_no, rule in pending:
        for below in range(line_no + 1, len(stripped_lines) + 1):
            if stripped_lines[below - 1].strip():
                allows.setdefault(below, set()).add(rule)
                break
    return stripped, allows


def blank_directives(stripped: str) -> str:
    """Blank preprocessor directives (with backslash continuations) so the
    tokenizer only sees C++ proper."""
    lines = stripped.split("\n")
    i = 0
    while i < len(lines):
        if lines[i].lstrip().startswith("#"):
            while True:
                cont = lines[i].rstrip().endswith("\\")
                lines[i] = " " * len(lines[i])
                if not cont or i + 1 >= len(lines):
                    break
                i += 1
        i += 1
    return "\n".join(lines)


@dataclass(frozen=True)
class Tok:
    """One token: kind is 'id', 'num', or 'punct'."""
    kind: str
    text: str
    line: int


_TOKEN_RE = re.compile(
    r"[A-Za-z_][A-Za-z0-9_]*"        # identifier / keyword
    r"|\d[\dA-Za-z_.'+-]*"           # numeric literal (pp-number, loose)
    r"|::|->\*?|\+\+|--|<<=|>>=|<=>|<<|>>|<=|>=|==|!=|&&|\|\||[+\-*/%&|^]=|=|"
    r"\.\.\.|[{}()\[\];:,.<>?~!&|^*+\-/%#]"
)

KEYWORDS = frozenset("""
    alignas alignof asm auto bool break case catch char char8_t char16_t
    char32_t class concept const consteval constexpr constinit const_cast
    continue co_await co_return co_yield decltype default delete do double
    dynamic_cast else enum explicit export extern false final float for
    friend goto if inline int long mutable namespace new noexcept nullptr
    operator override private protected public register reinterpret_cast
    requires return short signed sizeof static static_assert static_cast
    struct switch template this thread_local throw true try typedef typeid
    typename union unsigned using virtual void volatile wchar_t while
""".split())

# Tokens that can legally precede a lambda-introducer '[' in an expression.
LAMBDA_PRECEDERS = frozenset({
    "(", ",", "=", "{", ";", ":", "return", "co_await", "co_return",
    "co_yield", "&&", "||", "!", "?", "<", ">",
})


def tokenize(stripped: str) -> list[Tok]:
    toks: list[Tok] = []
    line = 1
    pos = 0
    for m in _TOKEN_RE.finditer(stripped):
        line += stripped.count("\n", pos, m.start())
        pos = m.start()
        text = m.group(0)
        if text[0].isalpha() or text[0] == "_":
            toks.append(Tok("id", text, line))
        elif text[0].isdigit():
            toks.append(Tok("num", text, line))
        else:
            toks.append(Tok("punct", text, line))
    return toks


def match_forward(toks: list[Tok], i: int, opener: str, closer: str) -> int:
    """Index just past the token matching `opener` at toks[i]."""
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i].text
        if t == opener:
            depth += 1
        elif t == closer:
            depth -= 1
            if depth == 0:
                return i + 1
        i += 1
    return n


def skip_template_args(toks: list[Tok], i: int) -> int:
    """Given toks[i] == '<', return index past the matching '>'. Handles
    '>>' never being produced (tokenizer splits '>>' as one token only for
    shifts; we re-split here by counting)."""
    depth = 0
    n = len(toks)
    while i < n:
        t = toks[i].text
        if t == "<":
            depth += 1
        elif t == ">":
            depth -= 1
            if depth == 0:
                return i + 1
        elif t == ">>":
            depth -= 2
            if depth <= 0:
                return i + 1
        elif t in (";", "{", "}"):
            # Not template args after all (a comparison spilling to EOL).
            return i
        i += 1
    return n
