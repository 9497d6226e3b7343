"""simcheck command line.

    python3 tools/simcheck/cli.py --root src \
        --state-json build/simcheck_state.json

Parses every C++ source and header under --root; no configure step is
needed. Exit status: 0 clean (or only info notes), 1 error findings, 2
usage error (including a hot root that matches no function)."""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

if __package__ in (None, ""):  # direct invocation: bootstrap the package
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
    from simcheck import parse, report, rules  # type: ignore
else:
    from . import parse, report, rules

EXTENSIONS = {".hpp", ".cpp", ".h", ".cc", ".cxx"}


def regex(text: str) -> str:
    try:
        re.compile(text)
    except re.error as exc:
        raise argparse.ArgumentTypeError(f"{text!r}: {exc}") from exc
    return text


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="simcheck",
        description="determinism analysis for mpinetsim")
    p.add_argument("--root", required=True, type=Path,
                   help="source directory to analyze")
    p.add_argument("--state-json", type=Path, default=None,
                   help="write the PDES state inventory here")
    p.add_argument("--findings-json", type=Path, default=None,
                   help="write findings as JSON (for the fixture driver)")
    p.add_argument("--hot-root", action="append", default=[],
                   type=regex, metavar="REGEX",
                   help="extra hot-path root (repeatable); replaces the "
                        "defaults when --no-default-hot-roots is given")
    p.add_argument("--no-default-hot-roots", action="store_true")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the text report (JSON outputs still "
                        "written)")
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    root = args.root.resolve()
    if not root.is_dir():
        print(f"simcheck: root {root} is not a directory", file=sys.stderr)
        return 2

    hot_roots = list(rules.DEFAULT_HOT_ROOTS)
    if args.no_default_hot_roots:
        hot_roots = []
    hot_roots += args.hot_root
    if not hot_roots:
        print("simcheck: no hot roots configured", file=sys.stderr)
        return 2

    inputs = [(p, p.relative_to(root).as_posix())
              for p in sorted(root.rglob("*"))
              if p.suffix in EXTENSIONS and p.is_file()]
    if not inputs:
        print(f"simcheck: no C++ sources under {root}", file=sys.stderr)
        return 2
    sm = parse.parse_files(inputs)

    # A root that names no function checks nothing; a rename or deletion
    # must update the list rather than silently shrink the proof.
    stale = [r for r in hot_roots if not rules.hot_root_functions(sm, [r])]
    if stale:
        print("simcheck: hot root(s) matching no function: "
              + ", ".join(stale), file=sys.stderr)
        return 2

    findings, inventory = rules.run_all(sm, hot_roots)

    if args.state_json:
        report.write_state_json(args.state_json, inventory, hot_roots,
                                findings)
    if args.findings_json:
        args.findings_json.write_text(report.findings_json(findings),
                                      encoding="utf-8")
    if not args.quiet:
        print(report.render_text(findings, len(sm.files),
                                 len(sm.functions)))
    return 1 if any(f.severity == "error" for f in findings) else 0


if __name__ == "__main__":
    raise SystemExit(main())
