"""Self-test of the benchmark harness, on the program in src/.

    python3 perfbench/selftest.py

It checks that
- BENCHMARK.json names exactly the workloads and metrics that run.py reports;
- per workload, a traced sample gives the same verdicts as an untraced one,
  and two traced samples of one seed give identical counts;
- ``mock`` is never called on modular_deep, and ``count_signed`` only on
  verify_registry;
- ``series`` has the largest layer self time on modular_deep, and ``mock``
  on mock_deep;
- a corrupted expectation is counted as a failed operation;
- the pinned mock prefixes agree with the slow reference oracle;
- run.py exits with a nonzero code and prints no result in a directory that
  holds only BENCHMARK.json and perfbench/.

It takes about a minute and exits 0 when every check holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import END_TO_END, HERE, ROOT, WORKLOADS, spawn
from tracer import EXACT, LAYERS, PER_LAYER

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def check_definition() -> None:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        bench = json.load(handle)
    expect([w["name"] for w in bench["workloads"]] == list(WORKLOADS),
           "BENCHMARK.json lists the workloads of run.py")
    expect({m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
           and all(m["better"] == "lower" for m in bench["end_to_end"]),
           "BENCHMARK.json lists the end-to-end metrics of run.py")
    expect({m["name"]: (m["unit"], m["better"]) for m in bench["per_layer"]} == PER_LAYER,
           "BENCHMARK.json lists the per-layer metrics of the tracer")


def layer_with_most_self_time(trace: dict) -> str:
    return max(LAYERS, key=lambda layer: trace[f"{layer}.self_s"])


def check_workload(workload: str, seed: int = 7) -> None:
    args = ["--workload", workload, "--seed", str(seed)]
    plain, _ = spawn(*args, "--corrupt")
    first, _ = spawn(*args, "--trace")
    second, _ = spawn(*args, "--trace")
    expect(plain["failed"] > 0, f"{workload}: a corrupted expectation counts as failed")
    expect(first["failed"] == second["failed"] == 0, f"{workload}: traced outputs are correct")
    expect(first["verdicts"] == second["verdicts"] == plain["verdicts"],
           f"{workload}: traced verdicts equal untraced verdicts")
    expect(not first["unwrapped"], f"{workload}: every entry point was wrapped")
    a, b = first["trace"], second["trace"]
    expect(all(a[name] == b[name] for name in EXACT),
           f"{workload}: counts repeat exactly between two traced samples")
    if workload != "verify_registry":
        expect(a["partitions.count_signed.calls"] == 0,
               f"{workload}: count_signed is not called")
    if workload == "modular_deep":
        expect(a["mock.mock_series.calls"] == 0, f"{workload}: mock is not called")
        expect(layer_with_most_self_time(a) == "series",
               f"{workload}: series has the largest self time")
    if workload == "mock_deep":
        expect(layer_with_most_self_time(a) == "mock",
               f"{workload}: mock has the largest self time")


def check_reference() -> None:
    ref, _ = spawn("--check-reference")
    expect(ref["ops"] == 8 and ref["failed"] == 0,
           "pinned mock prefixes agree with mock_series_reference")


def check_refuses_without_program() -> None:
    bare = ROOT / ".bench_selftest"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, f"{HERE.name}/run.py", "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    expect(proc.returncode != 0 and '"correct"' not in proc.stdout,
           "run.py refuses to run without the program")


def main() -> int:
    check_definition()
    check_reference()
    for workload in WORKLOADS:
        check_workload(workload)
    check_refuses_without_program()
    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
