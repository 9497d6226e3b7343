#!/usr/bin/env python3
"""The docs quote the goldens instead of retyping their numbers.

A quote is a fenced code block on the line right after a marker

    <!-- golden: NAME -->

Every line of the block must be a line of artifacts/NAME.txt, and the
block's lines must appear in the golden in the same order: an excerpt may
skip golden lines but not reorder or edit them. A number in a quote thus
cannot drift from the artifact that tools/check_goldens.sh pins; when a
golden changes on purpose, its quotes fail until they are re-copied.

Usage: doc_quotes_test.py REPO_ROOT DOC...   (DOC relative to REPO_ROOT;
each must hold at least one quote)
Exit status: 0 every quote matches, 1 a mismatch, 2 usage.
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

MARKER = re.compile(r"^<!-- golden: ([A-Za-z0-9_]+) -->$")
FENCE = "```"


def quotes(lines: list[str]):
    """Yield (marker line number, golden name, block or None) per marker."""
    i = 0
    while i < len(lines):
        m = MARKER.match(lines[i])
        i += 1
        if not m:
            continue
        marker_line = i
        if i >= len(lines) or lines[i] != FENCE:
            yield marker_line, m.group(1), None
            continue
        end = i + 1
        while end < len(lines) and lines[end] != FENCE:
            end += 1
        yield marker_line, m.group(1), lines[i + 1:end] if end < len(
            lines) else None
        i = end + 1


def check(root: Path, doc: str) -> list[str]:
    errors = []
    lines = (root / doc).read_text(encoding="utf-8").splitlines()
    found = 0
    for marker_line, name, block in quotes(lines):
        found += 1
        where = f"{doc}:{marker_line}"
        golden = root / "artifacts" / f"{name}.txt"
        if block is None:
            errors.append(f"{where}: marker not followed by a closed "
                          f"{FENCE} block")
        elif not block:
            errors.append(f"{where}: empty quote of {name}")
        elif not golden.is_file():
            errors.append(f"{where}: no golden artifacts/{name}.txt")
        else:
            golden_lines = golden.read_text(encoding="utf-8").splitlines()
            pos = 0
            for k, line in enumerate(block):
                try:
                    pos = golden_lines.index(line, pos) + 1
                except ValueError:
                    errors.append(
                        f"{doc}:{marker_line + 2 + k}: not a line of "
                        f"artifacts/{name}.txt (after the previous quoted "
                        f"line): {line!r}")
                    break
    if found == 0:
        errors.append(f"{doc}: no <!-- golden: NAME --> quote")
    return errors


def main(argv: list[str]) -> int:
    if len(argv) < 3 or not Path(argv[1]).is_dir():
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: doc_quotes_test.py REPO_ROOT DOC...", file=sys.stderr)
        return 2
    root = Path(argv[1])
    errors = [e for doc in argv[2:] for e in check(root, doc)]
    for e in errors:
        print(e)
    if errors:
        print(f"{len(errors)} quote(s) do not match their golden")
        return 1
    print("every golden quote matches")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
