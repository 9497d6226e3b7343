#!/usr/bin/env python3
"""Fixture driver for simcheck: proves every rule fires on the known-bad
translation units and stays silent on the known-good ones.

pytest-style test_* functions, but runnable with plain python3 (ctest
invokes this file directly; pytest is not a dependency). Each test runs
the real CLI as a subprocess with one fixture group as --root, with the
default hot roots replaced by the fixtures' own
(`HotMachine::step_event`, `Dispatcher::step_event`).

Lines of bad/ that the pattern rules or coro-ref-escape must flag carry a
`// fires: <rule>` marker; those rules must report exactly the marked
lines. Subdirectories (fault/, model/, sweep/, pdes/) exercise the pattern
rules' directory gating.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
import tempfile
from pathlib import Path

FIXTURES = Path(__file__).resolve().parent
REPO = FIXTURES.parent.parent
CLI = REPO / "tools" / "simcheck" / "cli.py"
HOT_ROOTS = ["HotMachine::step_event$", "Dispatcher::step_event$"]
MARKED_RULES = {"wall-clock", "randomness", "threading", "stdout",
                "fault-alloc", "model-alloc", "coro-ref-escape"}
MARK_RE = re.compile(r"// fires: ([\w-]+)")


def run_cli(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(CLI), *args],
                          capture_output=True, text=True)


def run_simcheck(group_name: str, tmp: Path):
    findings_path = tmp / f"findings_{group_name}.json"
    state_path = tmp / f"state_{group_name}.json"
    args = ["--root", str(FIXTURES / group_name),
            "--no-default-hot-roots",
            "--findings-json", str(findings_path),
            "--state-json", str(state_path),
            "--quiet"]
    for hr in HOT_ROOTS:
        args += ["--hot-root", hr]
    proc = run_cli(*args)
    assert proc.returncode in (0, 1), (
        f"simcheck crashed ({proc.returncode}) on {group_name}:"
        f"\n{proc.stdout}\n{proc.stderr}")
    findings = json.loads(findings_path.read_text(encoding="utf-8"))
    state = json.loads(state_path.read_text(encoding="utf-8"))
    return proc.returncode, findings, state


def in_file(findings, rule: str, basename: str, severity: str = "error"):
    return [f for f in findings
            if f["rule"] == rule and f["severity"] == severity
            and Path(f["file"]).name == basename]


def test_bad_fixtures_fire_every_rule(tmp: Path) -> None:
    rc, findings, state = run_simcheck("bad", tmp)
    assert rc == 1, f"expected exit 1 on bad/, got {rc}"

    ptr = in_file(findings, "ptr-key", "ptr_key.cpp")
    assert len(ptr) == 3, f"ptr-key: want 3 findings, got {ptr}"

    uit = in_file(findings, "unordered-iter", "unordered_iter.cpp")
    assert len(uit) >= 3, f"unordered-iter: want >=3 findings, got {uit}"

    hot = in_file(findings, "hot-alloc", "hot_alloc.cpp")
    assert len(hot) >= 2, f"hot-alloc: want >=2 findings, got {hot}"
    assert any("new" in f["message"] or "commit" in (f["chain"] or "")
               for f in hot), f"hot-alloc: transitive new not found: {hot}"

    pdes = in_file(findings, "pdes-static", "pdes_static.cpp")
    assert len(pdes) == 2, f"pdes-static: want 2 errors, got {pdes}"

    # Handler-unreachable mutable statics are advisory, never gating.
    off = [f for f in in_file(findings, "pdes-static", "pdes_static.cpp",
                              "info")
           if "g_offline_tally" in f["message"]]
    assert len(off) == 1, f"unreached static should be info-only: {findings}"

    # The state inventory must list the shared counter and name the event
    # handler that reaches it.
    entry = next(s for s in state["statics"]
                 if s["name"].endswith("g_event_count"))
    assert entry["class"] == "mutable-shared", entry
    assert entry["gating"] is True, entry
    assert any(rb.endswith("Dispatcher::step_event")
               for rb in entry["reached_by"]), entry
    offline = next(s for s in state["statics"]
                   if s["name"].endswith("g_offline_tally"))
    assert offline["gating"] is False, offline
    assert state["summary"]["mutable_shared"] >= 3, state["summary"]
    assert state["summary"]["gating"] == 2, state["summary"]

    # The gate's verdict is recorded in the state json itself.
    assert state["verdict"]["rule"] == "pdes-static", state["verdict"]
    assert state["verdict"]["status"] == "fail", state["verdict"]
    assert state["verdict"]["gating_findings"] == 2, state["verdict"]


def test_marked_lines_fire_exactly(tmp: Path) -> None:
    _, findings, _ = run_simcheck("bad", tmp)
    want = set()
    for f in sorted((FIXTURES / "bad").rglob("*.cpp")):
        rel = f.relative_to(FIXTURES / "bad").as_posix()
        for n, line in enumerate(f.read_text(encoding="utf-8").split("\n"),
                                 start=1):
            want |= {(rel, n, m.group(1)) for m in MARK_RE.finditer(line)}
    assert {r for _, _, r in want} == MARKED_RULES, (
        f"every marked rule needs a bad/ fixture: {sorted(want)}")
    got = {(f["file"], f["line"], f["rule"]) for f in findings
           if f["rule"] in MARKED_RULES}
    assert got == want, (f"missing {sorted(want - got)}, "
                         f"unexpected {sorted(got - want)}")


def test_good_fixtures_stay_silent(tmp: Path) -> None:
    rc, findings, state = run_simcheck("good", tmp)
    errors = [f for f in findings if f["severity"] == "error"]
    assert not errors, f"good/ must be error-free: {errors}"
    assert rc == 0, f"expected exit 0 on good/, got {rc}"

    # thread_local is an info note, never an error.
    infos = in_file(findings, "pdes-static", "pdes_static.cpp", "info")
    assert any("t_scratch" in f["message"] for f in infos), (
        f"thread_local should surface as info: {findings}")

    # The line-above allow suppresses the finding but the variable still
    # shows up in the audited inventory.
    entry = next(s for s in state["statics"]
                 if s["name"].endswith("g_debug_poke_count"))
    assert entry["class"] == "mutable-shared", entry
    assert entry["allowed"] is True, entry
    assert entry["gating"] is False, entry

    # A clean tree records a passing verdict with zero gating findings.
    assert state["verdict"]["status"] == "pass", state["verdict"]
    assert state["verdict"]["gating_findings"] == 0, state["verdict"]


def test_missing_root_is_usage_error(tmp: Path) -> None:
    proc = run_cli("--root", str(tmp / "nope"))
    assert proc.returncode == 2, proc


def test_unknown_flag_is_usage_error(tmp: Path) -> None:
    proc = run_cli("--root", str(FIXTURES / "good"), "--frontend", "clang")
    assert proc.returncode == 2, proc


def test_stale_hot_root_is_usage_error(tmp: Path) -> None:
    # A root matching no function, and one that is not a regex at all.
    for bad in ("Nope::missing$", "Nope::(missing$"):
        proc = run_cli("--root", str(FIXTURES / "good"),
                       "--no-default-hot-roots",
                       "--hot-root", "Dispatcher::step_event$",
                       "--hot-root", bad)
        assert proc.returncode == 2, proc
        assert bad in proc.stderr, proc.stderr
        assert "Dispatcher" not in proc.stderr, proc.stderr


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failed = 0
    with tempfile.TemporaryDirectory(prefix="simcheck_fixtures_") as td:
        tmp = Path(td)
        for name, fn in tests:
            try:
                fn(tmp)
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
            else:
                print(f"PASS {name}")
    if failed:
        print(f"{failed} fixture test(s) failed")
        return 1
    print("all simcheck fixture tests passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
