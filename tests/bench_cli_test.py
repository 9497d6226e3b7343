#!/usr/bin/env python3
"""The bench binaries' flag contract.

Every binary takes --csv and --jobs. The application harnesses (the
binaries that run cells through bench_common.hpp's run_cells) also apply
--faults, --seed, --partitions and --max-sim-time; every other binary
exits 2 on them, so a flag is either honoured or refused, never silently
dropped. A livelocked cell exits 3 with one diagnostic that does not
depend on --jobs.

Usage: bench_cli_test.py BENCH_DIR   (the directory holding the binaries)

pytest-style test_* functions, runnable with plain python3 (ctest invokes
this file directly). Every case either exits at flag parsing or stops at
1 us of simulated time, so the whole file runs in seconds, sanitized
builds included.
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

BENCH = Path(sys.argv[1] if len(sys.argv) > 1 else "build/bench")

# Harnesses that parse the cell flags and run every cell through run_cells.
CELL_HARNESSES = [
    "fig14_is_mg", "fig15_sp_bt_lu", "fig16_cg_ft", "fig17_sweep3d",
    "fig18_23_speedup", "fig24_topspin16", "fig25_smp", "fig28_pci_apps",
    "tab01_msgsize", "tab02_scalability", "tab03_nonblocking",
    "tab04_buffer_reuse", "tab05_collectives", "tab06_intranode",
    "ext_connections",
]
# Binaries that take --csv and --jobs (ext_fat_tree also --big) only.
COMMON_ONLY = [
    "fig01_latency", "fig02_bandwidth", "fig03_overhead",
    "fig04_bidir_latency", "fig05_bidir_bandwidth", "fig06_overlap",
    "fig07_reuse_latency", "fig08_reuse_bandwidth", "fig09_intra_latency",
    "fig10_intra_bandwidth", "fig11_alltoall", "fig12_allreduce",
    "fig13_memory", "fig26_pci_latency", "fig27_pci_bandwidth",
    "ext_loggp", "ext_ib_multicast", "ablation_progress",
    "ablation_regcache", "ablation_collectives", "ext_fat_tree",
]
CELL_FLAGS = ["--faults=drop:*:0.1", "--seed=7", "--partitions=2",
              "--max-sim-time=1"]


def run(binary: str, *args: str) -> subprocess.CompletedProcess:
    path = BENCH / binary
    assert path.is_file(), f"{path} not built"
    return subprocess.run([str(path), *args], capture_output=True,
                          text=True, timeout=600)


def test_every_binary_is_classified():
    built = {p.name for p in BENCH.iterdir() if p.is_file()}
    known = set(CELL_HARNESSES) | set(COMMON_ONLY) | {"calibrate",
                                                      "perf_engine"}
    assert built == known, (f"unclassified: {sorted(built - known)}, "
                            f"missing: {sorted(known - built)}")


def test_fig01_rejects_faults():
    proc = run("fig01_latency", "--faults=drop:*:0.1")
    assert proc.returncode == 2, proc
    assert "unknown flag --faults" in proc.stderr, proc.stderr
    assert proc.stdout == "", proc.stdout


def test_binaries_without_cells_reject_every_cell_flag():
    for binary in COMMON_ONLY:
        for flag in CELL_FLAGS:
            proc = run(binary, flag)
            assert proc.returncode == 2, (binary, flag, proc)


def test_positional_arguments_and_negative_jobs_exit_2():
    for binary in ("fig01_latency", "tab03_nonblocking", "ext_fat_tree"):
        for args in (["extra"], ["--jobs=-1"]):
            proc = run(binary, *args)
            assert proc.returncode == 2, (binary, args, proc)


def test_calibrate_rejects_any_argument():
    for arg in ("--csv", "--jobs=2", "extra"):
        proc = run("calibrate", arg)
        assert proc.returncode == 2, (arg, proc)
        assert proc.stdout == "", proc.stdout


def test_tab03_honours_max_sim_time():
    proc = run("tab03_nonblocking", "--max-sim-time=1")
    assert proc.returncode == 3, proc
    assert proc.stdout == "", proc.stdout


def test_every_cell_harness_applies_the_cell_flags():
    # --max-sim-time=1 stops the first cell at 1 us: exit 3 proves the
    # harness ran its cells through run_cells with the flags applied.
    for binary in CELL_HARNESSES:
        proc = run(binary, *CELL_FLAGS)
        assert proc.returncode == 3, (binary, proc)
        assert proc.stderr.count("simulation livelock in") == 1, (
            binary, proc.stderr)


def test_livelock_diagnostic_is_one_and_independent_of_jobs():
    runs = [run("tab02_scalability", "--max-sim-time=1", f"--jobs={j}")
            for j in (1, 4, 4)]
    for proc in runs:
        assert proc.returncode == 3, proc
        assert proc.stderr.count("simulation livelock in") == 1, proc.stderr
    assert runs[0].stderr.startswith(
        "error: simulation livelock in is on IBA, 2 nodes:"), runs[0].stderr
    assert runs[1].stderr == runs[0].stderr
    assert runs[2].stderr == runs[0].stderr


def main() -> int:
    tests = [(name, fn) for name, fn in sorted(globals().items())
             if name.startswith("test_") and callable(fn)]
    failed = 0
    for name, fn in tests:
        try:
            fn()
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc}")
        else:
            print(f"PASS {name}")
    if failed:
        print(f"{failed} bench CLI test(s) failed")
        return 1
    print("all bench CLI tests passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
