"""Output: human-readable findings, --findings-json for the fixture
driver, and simcheck_state.json (the PDES shared-state worklist)."""

from __future__ import annotations

import json
from pathlib import Path

from .model import Finding


def render_text(findings: list[Finding], n_files: int,
                n_functions: int) -> str:
    lines = [f"simcheck: files={n_files} functions={n_functions}"]
    errors = [f for f in findings if f.severity == "error"]
    infos = [f for f in findings if f.severity != "error"]
    for f in errors:
        lines.append(f"{f.file}:{f.line}: error: [{f.rule}] {f.message}")
        if f.chain:
            lines.append(f"    via: {f.chain}")
    for f in infos:
        lines.append(f"{f.file}:{f.line}: info: [{f.rule}] {f.message}")
    lines.append(f"simcheck: {len(errors)} error(s), "
                 f"{len(infos)} info note(s)")
    return "\n".join(lines)


def findings_json(findings: list[Finding]) -> str:
    return json.dumps([{
        "rule": f.rule, "file": f.file, "line": f.line,
        "severity": f.severity, "message": f.message, "chain": f.chain,
    } for f in findings], indent=2) + "\n"


def write_state_json(path: Path, inventory: list[dict],
                     hot_roots: list[str],
                     findings: list[Finding] | None = None) -> None:
    pdes = [f for f in (findings or []) if f.rule == "pdes-static"]
    gating = sum(1 for f in pdes if f.severity == "error")
    doc = {
        "schema": "simcheck_state/3",
        "hot_roots": hot_roots,
        "statics": inventory,
        "summary": {
            "total": len(inventory),
            "mutable_shared": sum(1 for s in inventory
                                  if s["class"] == "mutable-shared"),
            "per_thread": sum(1 for s in inventory
                              if s["class"] == "per-thread"),
            "const_after_init": sum(1 for s in inventory
                                    if s["class"] == "const-after-init"),
            "allowed": sum(1 for s in inventory if s.get("allowed")),
            "gating": sum(1 for s in inventory if s.get("gating")),
        },
        # The gate simcheck_src enforces: fail iff a mutable shared
        # static is reachable from an event handler and not annotated.
        "verdict": {
            "rule": "pdes-static",
            "status": "fail" if gating else "pass",
            "gating_findings": gating,
            "advisory_findings": len(pdes) - gating,
        },
    }
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
