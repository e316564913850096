"""The text frontend every simlint rule family runs over.

Each file is read and parsed exactly once into the views the rules need:

  raw         the lines as written
  code        comments *and* string/char literals blanked, column-preserving,
              so structural regexes only ever see code
  nocomment   comments blanked but literals kept, for rules whose evidence
              is literal text (enum tag chars, WSEQ command strings)
  text        `code` joined with newlines; line_of(offset) maps an offset in
              it back to a 1-based line
  allows      line -> rule, from `// simlint:allow(<rule>) <reason>`
  observe_only  lines carrying `// simlint:observe-only`

An allow-comment naming an unknown rule or lacking its reason is a usage
error (exit 2), not a finding: a suppression that silently fails to parse
would un-suppress itself on the next run.

Only the standard library is used, so the lint runs on a bare python3.
"""

from __future__ import annotations

import bisect
import re
from pathlib import Path
from typing import NamedTuple

ALLOW = re.compile(r"//\s*simlint:allow\(([\w-]+)\)\s*(.*)")
OBSERVE_ONLY = re.compile(r"//\s*simlint:observe-only")


class UsageError(Exception):
    """Bad input or configuration; the driver exits 2 with this message."""


class Finding(NamedTuple):
    path: Path
    line: int
    rule: str
    detail: str = ""


def strip(line: str, in_block: bool) -> tuple[str, str, bool]:
    """Column-preserving (code, nocomment, still_in_block_comment) views of
    one line: both blank comments, `code` also blanks string/char literals."""
    code: list[str] = []
    keep: list[str] = []
    i, n = 0, len(line)
    while i < n:
        if in_block:
            if line.startswith("*/", i):
                in_block = False
                width = 2
            else:
                width = 1
            code.append(" " * width)
            keep.append(" " * width)
            i += width
            continue
        c = line[i]
        if c in "\"'":
            j = i + 1
            while j < n and line[j] != c:
                j += 2 if line[j] == "\\" else 1
            j = min(j + 1, n)
            code.append(" " * (j - i))
            keep.append(line[i:j])
            i = j
        elif line.startswith("//", i):
            code.append(" " * (n - i))
            keep.append(" " * (n - i))
            break
        elif line.startswith("/*", i):
            in_block = True
            code.append("  ")
            keep.append("  ")
            i += 2
        else:
            code.append(c)
            keep.append(c)
            i += 1
    return "".join(code), "".join(keep), in_block


def line_index(text: str):
    """Offset -> 1-based line number lookup over a joined file text."""
    starts = [i + 1 for i, c in enumerate(text) if c == "\n"]
    return lambda offset: bisect.bisect_right(starts, offset) + 1


class SourceFile:
    """One parsed file; see the module docstring for the views."""

    def __init__(self, path: Path, rules: dict[str, str]):
        self.path = path
        try:
            self.raw = path.read_text(errors="replace").split("\n")
        except OSError as e:
            raise UsageError(f"simlint: cannot read {path}: {e}") from e
        self.code: list[str] = []
        self.nocomment: list[str] = []
        self.allows: dict[int, str] = {}
        self.observe_only: set[int] = set()
        in_block = False
        for lineno, line in enumerate(self.raw, 1):
            am = ALLOW.search(line)
            if am:
                rule, reason = am.group(1), am.group(2).strip()
                if rule not in rules:
                    raise UsageError(
                        f"{path}:{lineno}: simlint:allow names unknown rule "
                        f"'{rule}' (known: {', '.join(sorted(rules))})")
                if not reason:
                    raise UsageError(
                        f"{path}:{lineno}: simlint:allow({rule}) is missing "
                        f"the mandatory reason text")
                self.allows[lineno] = rule
            if OBSERVE_ONLY.search(line):
                self.observe_only.add(lineno)
            code, nocomment, in_block = strip(line, in_block)
            self.code.append(code)
            self.nocomment.append(nocomment)
        self.text = "\n".join(self.code)
        self.line_of = line_index(self.text)

    def suppressed(self, lineno: int, rule: str) -> bool:
        """An allow on the finding's line or the line above covers it."""
        return rule in (self.allows.get(lineno), self.allows.get(lineno - 1))


def match_paren(text: str, open_idx: int) -> int:
    """Index of the bracket matching text[open_idx] ('(', '[' or '{')."""
    opener = text[open_idx]
    close = {"(": ")", "[": "]", "{": "}"}[opener]
    depth = 0
    for i in range(open_idx, len(text)):
        if text[i] == opener:
            depth += 1
        elif text[i] == close:
            depth -= 1
            if depth == 0:
                return i
    return len(text) - 1


def split_top(text: str, sep: str, angles: bool) -> list[str]:
    """Split `text` at `sep` outside brackets. `angles` also counts <...> as
    brackets (template arguments in capture lists); boolean conditions,
    where `<` is a comparison, must not."""
    opens, closes = ("([{<", ")]}>") if angles else ("([{", ")]}")
    out, cur, depth = [], [], 0
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in opens:
            depth += 1
        elif c in closes:
            depth -= 1
        if depth == 0 and text.startswith(sep, i):
            out.append("".join(cur))
            cur = []
            i += len(sep)
            continue
        cur.append(c)
        i += 1
    out.append("".join(cur))
    return out
